"""Reachability between two matrices sharing margins.

Whether A' can be reached from A by positive switches alone is governed by
the difference M = A' - A.  M always has a unique integer decomposition
over the unitary switching matrices; its coefficient grid T is computed by
2-D prefix sums.  Non-negativity of T is necessary for reachability
(condition i).  Two further conditions on the level sets of T (the
polyominoes P_i = cells with t >= i) are jointly sufficient:

  (ii)  every connected component of every P_i is simply connected,
  (iii) orthogonally or diagonally adjacent cells of T differ by at most 1.

One engine reads the level sets: ``_level_components`` lists each
4-component of P_i as a bitboard.  Condition (ii) fills the complement of
every component.  When (i)-(iii) hold, a directed path is built
constructively by repeatedly locating a motif rectangle on a side of the
first top-level component, read by one scan per outward direction, and
switching the checkerboard found at its corners.  Outside that regime a
complete depth-first search over switches that fit the remaining T
decides.

T-grid cells are 1-based: cell (i, k) corresponds to the unitary switch
(i, i+1, k, k+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binmat
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from .errors import DimensionMismatch, InternalInvariantViolation, MarginMismatch

IDENTICAL = "Identical"
UNREACHABLE_CONDITION_I = "UnreachableConditionI"
REACHABLE_CONSTRUCTIVE = "ReachableConstructive"
REACHABLE_HEURISTIC = "ReachableHeuristic"
REACHABLE_EXHAUSTIVE = "ReachableExhaustive"
UNREACHABLE_EXHAUSTIVE = "UnreachableExhaustive"
UNKNOWN = "Unknown"

REACHABLE_STATUSES = frozenset(
    {IDENTICAL, REACHABLE_CONSTRUCTIVE, REACHABLE_HEURISTIC, REACHABLE_EXHAUSTIVE}
)
UNREACHABLE_STATUSES = frozenset({UNREACHABLE_CONDITION_I, UNREACHABLE_EXHAUSTIVE})

DEFAULT_BFS_CAP = 10**6


def diff(A: BinaryMatrix, A2: BinaryMatrix) -> np.ndarray:
    """M = A2 - A as a read-only int8 array.  Raises unless shapes and
    margins agree."""
    if A.bits.shape != A2.bits.shape:
        raise DimensionMismatch(
            f"shapes differ: {A.bits.shape} vs {A2.bits.shape}"
        )
    if (A.row_sums != A2.row_sums).any() or (A.col_sums != A2.col_sums).any():
        raise MarginMismatch("matrices have different row or column sums")
    M = A2.bits - A.bits  # int8: 0/1 entries cannot overflow
    M.setflags(write=False)
    return M


def compute_T(M: np.ndarray) -> np.ndarray:
    """Unique decomposition coefficients via 2-D prefix sums.

    ``M`` is a difference, as :func:`diff` returns it: a non-empty 2-D
    array with entries -1, 0 or 1 whose rows and columns sum to zero;
    anything else raises ``ValueError``.

    Returns a read-only int64 array of shape (p-1, q-1) whose entry
    [i-1, k-1] is the coefficient of the unitary switch (i, i+1, k, k+1):
    t_ik = sum of m_ab over a <= i, b <= k.  Because every row and column
    of M sums to zero, the zero-extended border relation
    m_ij = t_ij + t_(i-1)(j-1) - t_i(j-1) - t_(i-1)j holds identically.
    Condition (i) is ``(T >= 0).all()``.
    """
    m = np.asarray(M)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-D array, got shape {m.shape}")
    m = m.astype(np.int64)
    if (np.abs(m) > 1).any():
        raise ValueError("difference entries must be -1, 0 or 1")
    ps = m.cumsum(axis=0).cumsum(axis=1)
    # the last row holds the running column sums, the last column the row sums
    if ps[-1].any() or ps[:, -1].any():
        raise ValueError("difference rows and columns must sum to zero")
    T = ps[:-1, :-1].copy()
    T.setflags(write=False)
    return T


def reconstruct_diff(T: np.ndarray) -> np.ndarray:
    """Rebuild M from T through the four-term corner relation, as a
    read-only int8 array.  Its rows and columns sum to zero by that
    relation; an entry outside {-1, 0, 1} raises ``ValueError``."""
    p, q = T.shape[0] + 1, T.shape[1] + 1
    ext = np.zeros((p + 1, q + 1), dtype=np.int64)
    ext[1:p, 1:q] = T
    m = ext[1:, 1:] + ext[:-1, :-1] - ext[1:, :-1] - ext[:-1, 1:]
    if (np.abs(m) > 1).any():
        raise ValueError("difference entries must be -1, 0 or 1")
    M = m.astype(np.int8)
    M.setflags(write=False)
    return M


# ---------------------------------------------------------------------------
# Level sets
# ---------------------------------------------------------------------------

Cell = tuple[int, int]

# Cell sets as bitboards: a Python int with bit r * width + c for the cell
# in row r, column c of a box, where each row has one more bit than the box
# is wide.  That guard bit is never set, so a shift by one column cannot
# carry a cell into the next row, and a shift by ``width`` moves one row.


def _fill(seed: int, region: int, width: int) -> int:
    """The cells of ``region`` 4-connected to the cells of ``seed``."""
    while True:
        grown = (seed | seed << 1 | seed >> 1 | seed << width | seed >> width) & region
        if grown == seed:
            return seed
        seed = grown


def _level_components(values: np.ndarray, level: int):
    """Each 4-component of the level set {t >= level}, smallest cell first.

    A component is a bitboard of the grid padded by one cell on every side,
    with rows of ``cols + 3`` bits (the last one is the guard).  So T cell
    (i, k), 1-based, is bit ``i * width + k``, and the lowest bit of each
    component is its smallest cell in row-major order.
    """
    rows, cols = values.shape
    width = cols + 3
    padded = np.zeros((rows + 2, width), dtype=bool)
    padded[1:-1, 1:-2] = values >= level
    rest = int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")
    while rest:
        comp = _fill(rest & -rest, rest, width)
        rest ^= comp
        yield comp


def check_conditions(M: np.ndarray) -> tuple[bool, bool, bool, np.ndarray]:
    """Conditions (i), (ii), (iii) of a difference matrix, and its T grid."""
    T = compute_T(M)
    cond_i, cond_ii, cond_iii = grid_conditions(T[None])
    return bool(cond_i[0]), bool(cond_ii[0]), bool(cond_iii[0]), T


def grid_conditions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditions (i), (ii), (iii) of every grid of an (N, r, c) stack, as
    three boolean arrays of length N.

    (ii) uses 4-connectivity for the components of each level set (see
    :func:`_level_components`) and for their complements alike, and tests
    each component on its own: four cells touching a fifth diagonally
    enclose it, yet no 4-component of the four holes it.  It is decided by
    bitboard fills and stops at the first hole.  (iii) is evaluated on
    interior grid cells only; the zero-extended border does not
    participate.
    """
    cond_i = (values >= 0).all(axis=(-2, -1))
    cond_ii = np.array([not _has_hole(grid) for grid in values], dtype=bool)
    return cond_i, cond_ii, _condition_iii(values)


def _has_hole(values: np.ndarray) -> bool:
    """True when a component of some level set of ``values`` has a hole.

    The padding ring of :func:`_level_components` lies outside every
    component: a component has a hole exactly when the fill of its
    complement from that ring misses a cell.
    """
    top = int(values.max()) if values.size else 0
    rows, cols = values.shape
    width = cols + 3
    ones_per_row = ((1 << (rows + 2) * width) - 1) // ((1 << width) - 1)
    box = ones_per_row * ((1 << (width - 1)) - 1)  # every cell but the guards
    for lvl in range(1, top + 1):
        for comp in _level_components(values, lvl):
            if _fill(1, box & ~comp, width) | comp != box:
                return True
    return False


def _condition_iii(v: np.ndarray):
    """Condition (iii) per grid of a (..., r, c) stack."""
    ok = (np.abs(v[..., 1:, :] - v[..., :-1, :]) <= 1).all(axis=(-2, -1))
    ok &= (np.abs(v[..., :, 1:] - v[..., :, :-1]) <= 1).all(axis=(-2, -1))
    ok &= (np.abs(v[..., 1:, 1:] - v[..., :-1, :-1]) <= 1).all(axis=(-2, -1))
    ok &= (np.abs(v[..., 1:, :-1] - v[..., :-1, 1:]) <= 1).all(axis=(-2, -1))
    return ok


# ---------------------------------------------------------------------------
# Contour motifs
# ---------------------------------------------------------------------------

Rect = tuple[int, int, int, int]  # (i1, i2, k1, k2), 1-based inclusive cells


def _inward(grid: set[complex], cell: complex, side: complex, out: complex) -> tuple[int, bool]:
    """From ``cell``, the cells of a polyomino side's end column: how many
    there are, stepping inward (-``out``) while the cell exists and its
    neighbour towards ``side`` is empty, and whether the walk stops at a
    concave corner (a cell on that neighbouring column)."""
    n = 0
    while cell - n * out in grid and cell - n * out + side not in grid:
        n += 1
    return n, cell - n * out + side in grid


def find_motif_cells(cells: frozenset[Cell] | set[Cell]) -> tuple[Rect, int]:
    """Locate a motif rectangle on the contour of a polyomino.

    The domain is a simply connected polyomino, which condition (ii) makes
    of every top component the constructive builder crops.  Motif 1: the
    component itself is a rectangle.  Motifs 2 and 3 sit on a straight side
    B..C, a maximal run of cells with none beyond it, whose two ends are
    convex corners.  The rectangle extends inward by the length of the
    shorter adjacent side (AB or CD), whose far end must be a concave
    corner (both ends concave and of equal length for motif 2).  Each side
    is read by one scan per outward direction, with cells as complex
    numbers ``row + col * 1j`` and ``along`` the clockwise direction of the
    side.  On a polyomino with a hole the hole's sides are read too, and
    every rectangle returned still lies in the set; when a set with a hole
    has none, ``ValueError`` says so.  The lexicographically
    smallest valid rectangle is returned together with the motif kind.
    """
    if not cells:
        raise ValueError("empty cell set")
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    r1, r2, c1, c2 = min(rows), max(rows), min(cols), max(cols)
    if (r2 - r1 + 1) * (c2 - c1 + 1) == len(cells):
        return (r1, r2, c1, c2), 1
    grid = {complex(r, c) for r, c in cells}
    best: tuple[Rect, int] | None = None
    for out in (-1, 1j, 1, -1j):  # up, right, down, left
        along = -1j * out
        for b in grid:
            if b + out in grid or b - along in grid:
                continue
            c = b
            while c + along in grid and c + along + out not in grid:
                c += along
            if c + along in grid:
                continue  # C is a concave corner
            len_ab, a_concave = _inward(grid, b, -along, out)
            len_cd, d_concave = _inward(grid, c, along, out)
            if len_ab == len_cd and a_concave and d_concave:
                depth, kind = len_ab, 2
            elif len_ab < len_cd and a_concave:
                depth, kind = len_ab, 3
            elif len_cd < len_ab and d_concave:
                depth, kind = len_cd, 3
            else:
                continue
            far = c - (depth - 1) * out
            i1, i2 = sorted((int(b.real), int(far.real)))
            k1, k2 = sorted((int(b.imag), int(far.imag)))
            inside = all(
                complex(r, k) in grid for r in range(i1, i2 + 1) for k in range(k1, k2 + 1)
            )
            if inside and (best is None or ((i1, i2, k1, k2), kind) < best):
                best = (i1, i2, k1, k2), kind
    if best is None:
        box = np.zeros((r2 - r1 + 1, c2 - c1 + 1), dtype=np.int64)
        box[np.subtract(rows, r1), np.subtract(cols, c1)] = 1
        if _has_hole(box):
            raise ValueError("no contour motif: the cell set has a hole")
        raise InternalInvariantViolation(
            "no contour motif on a simply connected polyomino (internal bug)"
        )
    return best


def rect_to_switch(rect: Rect) -> Switch:
    """The switch whose unitary tiles are exactly the rectangle's cells."""
    i1, i2, k1, k2 = rect
    return Switch(i1, i2 + 1, k1, k2 + 1)


# ---------------------------------------------------------------------------
# Path construction
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ReachVerdict:
    """Outcome of a reachability query, with certificate data.

    ``path`` lists positive switches leading from A to A' when one was
    found (empty for identical inputs); ``conditions`` maps "i", "ii" and
    "iii" to the three predicate values, as ``reach`` prints them, and
    ``T`` is the decomposition grid of A' - A.
    """

    status: str
    path: list[Switch] | None
    conditions: dict[str, bool]
    T: np.ndarray
    note: str = ""

    @property
    def reachable(self) -> bool | None:
        if self.status in REACHABLE_STATUSES:
            return True
        if self.status in UNREACHABLE_STATUSES:
            return False
        return None

    @property
    def path_length(self) -> int | None:
        return None if self.path is None else len(self.path)


def validate_path(A: BinaryMatrix, A2: BinaryMatrix, path) -> bool:
    """Check that ``path`` is a valid positive-switch walk from A to A2.

    Every step must hit a negative checkerboard of the running matrix;
    raises on invalid steps, returns False only on a wrong endpoint.
    """
    return binmat.apply_path(A, path) == A2


def _constructive_path(A: BinaryMatrix, A2: BinaryMatrix, T: np.ndarray) -> list[Switch]:
    """Crop-and-switch loop for instances satisfying conditions (i)-(iii).

    At the top level P_max every motif rectangle's corners carry a
    checkerboard: negative in the running A (switch it forward) or
    positive in the running A' (switch that one backward and stitch the
    step in reverse).  Each step clears the rectangle from T, so the loop
    ends with both runners equal.
    """
    cur_a = A.writable_bits()
    cur_b = A2.writable_bits()
    t = T.copy()
    width = t.shape[1] + 3
    prefix: list[Switch] = []
    suffix: list[Switch] = []
    while t.any():
        # the top component with the smallest cell, as 1-based cells
        comp = next(_level_components(t, int(t.max())))
        cells = frozenset(
            divmod(idx, width) for idx, bit in enumerate(bin(comp)[:1:-1]) if bit == "1"
        )
        rect, _kind = find_motif_cells(cells)
        sw = rect_to_switch(rect)
        if binmat._is_board(cur_a, sw, NEGATIVE):
            binmat.switch_bits_inplace(cur_a, sw, POSITIVE)
            prefix.append(sw)
        elif binmat._is_board(cur_b, sw, POSITIVE):
            binmat.switch_bits_inplace(cur_b, sw, NEGATIVE)
            suffix.append(sw)
        else:
            raise InternalInvariantViolation(
                f"motif rectangle {rect} carries no usable checkerboard"
            )
        t[rect[0] - 1 : rect[1], rect[2] - 1 : rect[3]] -= 1
        if (t < 0).any():
            raise InternalInvariantViolation("T went negative during cropping")
    if not (cur_a == cur_b).all():
        raise InternalInvariantViolation("runners disagree after T emptied")
    path = prefix + suffix[::-1]
    if not validate_path(A, A2, path):
        raise InternalInvariantViolation("stitched path failed re-validation")
    return path


def _interval_search(
    A: BinaryMatrix, A2: BinaryMatrix, T: np.ndarray, cap: int
) -> tuple[str, list[Switch] | None]:
    """Depth-first search over the switches whose rectangle fits the remaining T.

    Every state X on a path keeps T(A2 - X) >= 0, so only those switches can
    lie on a path and the search is complete.  Its first descent is the
    greedy walk: success with no dead state is ``ReachableHeuristic``.
    Expanding more than ``cap`` states gives ``Unknown``.
    """
    if cap < 1:
        return UNKNOWN, None
    # frame: [state, its remaining T, next board position, switch into it].
    # Boards are relisted on each visit: a long descent keeps one list alive.
    # They stay plain (i, j, k, l) lists; only a fitting board becomes a Switch.
    stack = [[A, T, 0, None]]
    dead: set[bytes] = set()
    expanded = 1
    while stack:
        frame = stack[-1]
        mat, t, start, _ = frame
        boards = binmat.board_coords(mat.bits, NEGATIVE).tolist()
        for pos in range(start, len(boards)):
            i, j, k, l = boards[pos]
            if not (t[i - 1 : j - 1, k - 1 : l - 1] >= 1).all():
                continue
            sw = Switch(i, j, k, l)
            nxt = binmat.apply_switch(mat, sw, POSITIVE)
            if nxt.key() not in dead:
                break
        else:
            dead.add(mat.key())
            stack.pop()
            continue
        frame[2] = pos + 1
        t_next = t.copy()
        t_next[i - 1 : j - 1, k - 1 : l - 1] -= 1
        if not t_next.any():
            if nxt != A2:
                raise InternalInvariantViolation("interval search emptied T off target")
            path = [f[3] for f in stack[1:]] + [sw]
            return (REACHABLE_EXHAUSTIVE if dead else REACHABLE_HEURISTIC), path
        if expanded >= cap:
            return UNKNOWN, None
        expanded += 1
        stack.append([nxt, t_next, 0, sw])
    return UNREACHABLE_EXHAUSTIVE, None


def build_path(
    A: BinaryMatrix, A2: BinaryMatrix, *, bfs_cap: int = DEFAULT_BFS_CAP
) -> ReachVerdict:
    """Decide reachability from A to A2 and build a path when possible.

    Dispatch: identical inputs; condition (i) failure (unreachable);
    constructive builder when (i)-(iii) all hold; otherwise the T-interval
    search, which answers Unknown instead of expanding more than
    ``bfs_cap`` states.
    """
    M = diff(A, A2)
    cond_i, cond_ii, cond_iii, T = check_conditions(M)
    conditions = {"i": cond_i, "ii": cond_ii, "iii": cond_iii}
    if A == A2:
        return ReachVerdict(IDENTICAL, [], conditions, T)
    if not cond_i:
        return ReachVerdict(UNREACHABLE_CONDITION_I, None, conditions, T)
    if cond_ii and cond_iii:
        path = _constructive_path(A, A2, T)
        return ReachVerdict(REACHABLE_CONSTRUCTIVE, path, conditions, T)
    status, path = _interval_search(A, A2, T, bfs_cap)
    if path is not None and not validate_path(A, A2, path):
        raise InternalInvariantViolation("interval search produced an invalid path")
    note = f"more than {bfs_cap} search states" if status == UNKNOWN else ""
    return ReachVerdict(status, path, conditions, T, note=note)
