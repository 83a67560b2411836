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
constructively by repeatedly locating a motif rectangle on the contour of
the first top-level component and switching the checkerboard found at its
corners.  Outside that regime a complete depth-first search over switches
that fit the remaining T decides.

T-grid cells are 1-based: cell (i, k) corresponds to the unitary switch
(i, i+1, k, k+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import binmat
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from .errors import (
    DimensionMismatch,
    InternalInvariantViolation,
    MarginMismatch,
    MotifNotFound,
)

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


class DiffMatrix:
    """Difference A' - A of two matrices with equal margins.

    Entries lie in {-1, 0, 1} and every row and column sums to zero.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not np.isin(arr, (-1, 0, 1)).all():
            raise ValueError("difference entries must be -1, 0 or 1")
        if arr.sum(axis=1).any() or arr.sum(axis=0).any():
            raise ValueError("difference rows and columns must sum to zero")
        arr.setflags(write=False)
        self.entries = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "DiffMatrix":
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.entries = arr
        return obj

    @property
    def p(self) -> int:
        return self.entries.shape[0]

    @property
    def q(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other):
        if not isinstance(other, DiffMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes()))


def diff(A: BinaryMatrix, A2: BinaryMatrix) -> DiffMatrix:
    """M = A2 - A.  Raises unless shapes and margins agree."""
    if A.bits.shape != A2.bits.shape:
        raise DimensionMismatch(
            f"shapes differ: {A.bits.shape} vs {A2.bits.shape}"
        )
    if (A.row_sums != A2.row_sums).any() or (A.col_sums != A2.col_sums).any():
        raise MarginMismatch("matrices have different row or column sums")
    return DiffMatrix._wrap((A2.bits - A.bits).astype(np.int8))


@dataclass(frozen=True, eq=False)
class TGrid:
    """Coefficients of the unitary decomposition of a difference matrix.

    ``values`` has shape (p-1, q-1); entry [i-1, k-1] is the coefficient of
    the unitary switch (i, i+1, k, k+1).  The decomposition exists over the
    integers for every valid difference; condition (i) is ``nonneg``.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def nonneg(self) -> bool:
        return bool((self.values >= 0).all())

    @property
    def max(self) -> int:
        return int(self.values.max()) if self.values.size else 0

    @property
    def total(self) -> int:
        return int(self.values.sum()) if self.values.size else 0

    def tolist(self) -> list[list[int]]:
        return self.values.tolist()


def compute_T(M: DiffMatrix) -> TGrid:
    """Unique decomposition coefficients via 2-D prefix sums.

    t_ik = sum of m_ab over a <= i, b <= k.  Because every row and column
    of M sums to zero, the zero-extended border relation
    m_ij = t_ij + t_(i-1)(j-1) - t_i(j-1) - t_(i-1)j holds identically.
    """
    ps = M.entries.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    values = ps[: M.p - 1, : M.q - 1].copy()
    return TGrid(values)


def reconstruct_diff(T: TGrid, p: int, q: int) -> DiffMatrix:
    """Rebuild M from T through the four-term corner relation."""
    if T.values.shape != (p - 1, q - 1):
        raise DimensionMismatch(
            f"T of shape {T.values.shape} does not fit a {p}x{q} difference"
        )
    ext = np.zeros((p + 1, q + 1), dtype=np.int64)
    ext[1:p, 1:q] = T.values
    m = ext[1:, 1:] + ext[:-1, :-1] - ext[1:, :-1] - ext[:-1, 1:]
    return DiffMatrix(m.astype(np.int8))


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


def check_conditions(M: DiffMatrix) -> tuple[bool, bool, bool, TGrid]:
    """Conditions (i), (ii), (iii) of a difference matrix, and its T grid."""
    T = compute_T(M)
    return (*conditions_from_T(T.values), T)


def conditions_from_T(values: np.ndarray) -> tuple[bool, bool, bool]:
    """Evaluate conditions (i), (ii), (iii) on a T grid given as an array.

    (ii) uses 4-connectivity for the components of each level set (see
    :func:`_level_components`) and for their complements alike, and tests
    each component on its own: four cells touching a fifth diagonally
    enclose it, yet no 4-component of the four holes it.  It is decided by
    bitboard fills and stops at the first hole.  (iii) is evaluated on interior grid cells only; the
    zero-extended border does not participate.  This wraps
    :func:`grid_conditions`, which does the same on a stack of grids.
    """
    return tuple(bool(cond[0]) for cond in grid_conditions(values[None]))


def grid_conditions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditions (i), (ii), (iii) of every grid of an (N, r, c) stack, as
    three boolean arrays of length N; see :func:`conditions_from_T`."""
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

_RIGHT = "R"
_LEFT = "L"


def _rot_right(d: Cell) -> Cell:
    return (d[1], -d[0])


def _rot_left(d: Cell) -> Cell:
    return (-d[1], d[0])


def _trace_corners(cells: frozenset[Cell] | set[Cell]):
    """Clockwise contour walk; returns the corner cycle.

    Each entry is (vertex, turn) with turn "R" (convex) or "L" (concave).
    The walk keeps the polyomino on the right-hand side, so the outer
    boundary of a simply connected component is traversed exactly once.
    """
    edges: dict[Cell, list[Cell]] = {}
    for r, c in cells:
        if (r - 1, c) not in cells:
            edges.setdefault((r, c), []).append((r, c + 1))
        if (r, c + 1) not in cells:
            edges.setdefault((r, c + 1), []).append((r + 1, c + 1))
        if (r + 1, c) not in cells:
            edges.setdefault((r + 1, c + 1), []).append((r + 1, c))
        if (r, c - 1) not in cells:
            edges.setdefault((r + 1, c), []).append((r, c))
    start = min(edges)
    walk = [start]
    prev_dir: Cell | None = None
    vertex = start
    while True:
        outs = edges[vertex]
        if len(outs) == 1 or prev_dir is None:
            nxt = outs[0]
        else:
            # Pinch vertex: prefer the rightmost continuation.  Valid level
            # sets never pinch (diagonal contact is excluded), so this is
            # purely defensive.
            prefs = [_rot_right(prev_dir), prev_dir, _rot_left(prev_dir)]
            by_dir = {
                (o[0] - vertex[0], o[1] - vertex[1]): o for o in outs
            }
            nxt = next(by_dir[d] for d in prefs if d in by_dir)
        prev_dir = (nxt[0] - vertex[0], nxt[1] - vertex[1])
        vertex = nxt
        if vertex == start:
            break
        walk.append(vertex)
    n = len(walk)
    corners = []
    for t in range(n):
        a, b, c = walk[t - 1], walk[t], walk[(t + 1) % n]
        d_in = (b[0] - a[0], b[1] - a[1])
        d_out = (c[0] - b[0], c[1] - b[1])
        if d_out == d_in:
            continue
        turn = _RIGHT if d_out == _rot_right(d_in) else _LEFT
        corners.append((b, turn))
    return corners


Rect = tuple[int, int, int, int]  # (i1, i2, k1, k2), 1-based inclusive cells


def _bbox_rect(cells) -> Rect:
    rows = [r for r, _ in cells]
    cols = [c for _, c in cells]
    return (min(rows), max(rows), min(cols), max(cols))


def find_motif_cells(cells: frozenset[Cell] | set[Cell]) -> tuple[Rect, int]:
    """Locate a motif rectangle on the contour of a polyomino.

    Motif 1: the component itself is a rectangle.  Motifs 2 and 3 sit on a
    straight contour segment joining two consecutive convex corners B, C;
    the rectangle extends inward by the length of the shorter adjacent
    side, whose far end must be a concave corner (both ends concave and of
    equal length for motif 2).  Rotations and reflections arise naturally
    from the walk.  The lexicographically smallest valid rectangle is
    returned together with the motif kind.
    """
    if not cells:
        raise ValueError("empty cell set")
    r1, r2, c1, c2 = _bbox_rect(cells)
    if (r2 - r1 + 1) * (c2 - c1 + 1) == len(cells):
        return (r1, r2, c1, c2), 1
    corners = _trace_corners(cells)
    n = len(corners)
    best: tuple[Rect, int] | None = None
    for idx in range(n):
        (bv, bt) = corners[idx]
        (cv, ct) = corners[(idx + 1) % n]
        if bt != _RIGHT or ct != _RIGHT:
            continue
        (av, at) = corners[idx - 1]
        (dv, dt) = corners[(idx + 2) % n]
        len_ab = abs(av[0] - bv[0]) + abs(av[1] - bv[1])
        len_cd = abs(cv[0] - dv[0]) + abs(cv[1] - dv[1])
        if len_ab == len_cd and at == _LEFT and dt == _LEFT:
            depth, kind = len_ab, 2
        elif len_ab < len_cd and at == _LEFT:
            depth, kind = len_ab, 3
        elif len_cd < len_ab and dt == _LEFT:
            depth, kind = len_cd, 3
        else:
            continue
        seg = (cv[0] - bv[0], cv[1] - bv[1])
        # Interior lies on the right-hand side of the clockwise walk.
        norm = _rot_right((int(np.sign(seg[0])), int(np.sign(seg[1]))))
        far_b = (bv[0] + depth * norm[0], bv[1] + depth * norm[1])
        far_c = (cv[0] + depth * norm[0], cv[1] + depth * norm[1])
        vr = sorted({bv[0], cv[0], far_b[0], far_c[0]})
        vc = sorted({bv[1], cv[1], far_b[1], far_c[1]})
        rect = (vr[0], vr[-1] - 1, vc[0], vc[-1] - 1)
        inside = all(
            (r, c) in cells
            for r in range(rect[0], rect[1] + 1)
            for c in range(rect[2], rect[3] + 1)
        )
        if not inside:
            continue
        if best is None or (rect, kind) < best:
            best = (rect, kind)
    if best is None:
        raise MotifNotFound(
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


@dataclass
class ReachVerdict:
    """Outcome of a reachability query, with certificate data.

    ``path`` lists positive switches leading from A to A' when one was
    found (empty for identical inputs); ``T`` is the decomposition grid of
    A' - A and cond_* the three predicate values.
    """

    status: str
    path: list[Switch] | None
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    T: TGrid
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

    def conditions(self) -> dict[str, bool]:
        return {"i": self.cond_i, "ii": self.cond_ii, "iii": self.cond_iii}


def validate_path(A: BinaryMatrix, A2: BinaryMatrix, path) -> bool:
    """Check that ``path`` is a valid positive-switch walk from A to A2.

    Every step must hit a negative checkerboard of the running matrix;
    raises on invalid steps, returns False only on a wrong endpoint.
    """
    return binmat.apply_path(A, path) == A2


def _constructive_path(A: BinaryMatrix, A2: BinaryMatrix, T: TGrid) -> list[Switch]:
    """Crop-and-switch loop for instances satisfying conditions (i)-(iii).

    At the top level P_max every motif rectangle's corners carry a
    checkerboard: negative in the running A (switch it forward) or
    positive in the running A' (switch that one backward and stitch the
    step in reverse).  Each step clears the rectangle from T, so the loop
    ends with both runners equal.
    """
    cur_a = A.writable_bits()
    cur_b = A2.writable_bits()
    t = T.values.copy()
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
    A: BinaryMatrix, A2: BinaryMatrix, T: TGrid, cap: int
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
    stack = [[A, T.values, 0, None]]
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
    if A == A2:
        return ReachVerdict(IDENTICAL, [], cond_i, cond_ii, cond_iii, T)
    if not cond_i:
        return ReachVerdict(UNREACHABLE_CONDITION_I, None, cond_i, cond_ii, cond_iii, T)
    if cond_ii and cond_iii:
        path = _constructive_path(A, A2, T)
        return ReachVerdict(REACHABLE_CONSTRUCTIVE, path, cond_i, cond_ii, cond_iii, T)
    status, path = _interval_search(A, A2, T, bfs_cap)
    if path is not None and not validate_path(A, A2, path):
        raise InternalInvariantViolation("interval search produced an invalid path")
    note = f"more than {bfs_cap} search states" if status == UNKNOWN else ""
    return ReachVerdict(status, path, cond_i, cond_ii, cond_iii, T, note=note)
