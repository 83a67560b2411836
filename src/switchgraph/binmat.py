"""Fixed-margin binary matrices and checkerboard switches.

A checkerboard is a 2x2 submatrix equal to [[1,0],[0,1]] (positive) or
[[0,1],[1,0]] (negative).  Switching replaces one form with the other and
preserves every row and column sum.  This module holds the dense matrix
representation, checkerboard enumeration, switch application, the switch
potential, and the structural classifiers (nested, zebra, anti-zebra and
their split variants).

All coordinates in the public API are 1-based: a switch coordinate
(i, j, k, l) with i < j and k < l addresses rows i, j and columns k, l.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import InfeasibleMargins, InvalidSwitch, MatrixFormatError

POSITIVE = "positive"
NEGATIVE = "negative"


class Switch(NamedTuple):
    """Checkerboard coordinates: 1-based rows i < j and columns k < l."""

    i: int
    j: int
    k: int
    l: int


class Checkerboard(NamedTuple):
    coord: Switch
    sign: str


def as_switch(coord) -> Switch:
    """Coerce a 4-sequence to a :class:`Switch`, validating the ordering.

    A :class:`Switch` is returned as it is once the ordering holds; the
    samplers and listers build theirs from plain ints.
    """
    sw = coord if type(coord) is Switch else Switch(*(int(x) for x in coord))
    if not (1 <= sw.i < sw.j and 1 <= sw.k < sw.l):
        raise InvalidSwitch(f"malformed switch coordinates {tuple(sw)}")
    return sw


class BinaryMatrix:
    """Dense 0/1 matrix over a read-only int8 array ``bits``.

    Instances are immutable; switching returns a new matrix.  Code that
    needs to switch in place (the optimizer's hot loop) should work on
    ``writable_bits()`` and re-wrap at the end.
    """

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.array(bits, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        # as uint8 a negative entry reads 128 or more, so one compare checks
        # 0/1; np.isin is several times slower, and every from_text runs this
        if (arr.view(np.uint8) > 1).any():
            raise ValueError("matrix entries must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BinaryMatrix":
        # Fast path for internally constructed arrays (already validated).
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj.bits = arr
        return obj

    @property
    def row_sums(self) -> np.ndarray:
        return self.bits.sum(axis=1, dtype=np.int64)

    @property
    def col_sums(self) -> np.ndarray:
        return self.bits.sum(axis=0, dtype=np.int64)

    @property
    def p(self) -> int:
        return self.bits.shape[0]

    @property
    def q(self) -> int:
        return self.bits.shape[1]

    def writable_bits(self) -> np.ndarray:
        return self.bits.copy()

    def key(self) -> bytes:
        """Row-major byte encoding; canonical identity within a margin class."""
        return self.bits.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            (self.bits == other.bits).all()
        )

    def __hash__(self) -> int:
        return hash((self.bits.shape, self.bits.tobytes()))

    def __repr__(self) -> str:
        rows = ["".join(str(int(b)) for b in row) for row in self.bits]
        return f"BinaryMatrix({self.p}x{self.q}: {' '.join(rows)})"

    def to_text(self) -> str:
        """Serialise to the matrix text format (bit-exact, LF endings)."""
        body = np.full((self.p, self.q + 1), ord("\n"), dtype=np.uint8)
        np.add(self.bits, ord("0"), out=body[:, :-1], casting="unsafe")
        return f"{self.p} {self.q}\n" + body.tobytes().decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        """Parse the matrix text format, rejecting any deviation."""
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise MatrixFormatError("empty input")
        header = lines[0].split(" ")
        if len(header) != 2:
            raise MatrixFormatError(f"bad header line {lines[0]!r}")
        try:
            p, q = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MatrixFormatError(f"bad header line {lines[0]!r}") from exc
        if p < 1 or q < 1:
            raise MatrixFormatError(f"bad dimensions {p}x{q}")
        if len(lines) != p + 1:
            raise MatrixFormatError(f"expected {p} rows, found {len(lines) - 1}")
        rows = lines[1:]
        # the first bad row is the first one holding a bad cell among the
        # leading rows of length q, else the first row of another length
        wrong = np.flatnonzero(np.fromiter(map(len, rows), dtype=np.intp, count=p) != q)
        aligned = int(wrong[0]) if wrong.size else p
        # one byte per character ("replace" writes "?" for a non-ASCII one);
        # less "0" in uint8, only "0" and "1" read 1 or below
        body = "".join(rows[:aligned]).encode("ascii", "replace")
        cells = (np.frombuffer(body, dtype=np.uint8) - ord("0")).reshape(aligned, q)
        bad = (cells > 1).any(axis=1)
        if aligned < p or bad.any():
            r = int(bad.argmax()) if bad.any() else aligned
            raise MatrixFormatError(f"bad row {r + 1}: {rows[r]!r}")
        return cls(cells.view(np.int8))


def read_matrix(path) -> BinaryMatrix:
    """Read a matrix file.  Bytes reach :meth:`BinaryMatrix.from_text` as
    they are: no newline translation, so a CR is a bad cell, and a
    non-ASCII byte reads as U+FFFD, also a bad cell, so the error names
    its row."""
    with open(path, "r", encoding="ascii", errors="replace", newline="") as fh:
        return BinaryMatrix.from_text(fh.read())


def write_matrix(A: BinaryMatrix, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(A.to_text())


# ---------------------------------------------------------------------------
# Checkerboards and switches
# ---------------------------------------------------------------------------


# Scratch elements per block of the row-blocked scans: ``board_coords``
# here, and the member chunks and pair blocks of ``oracle``.  A block of r
# rows holds r times the scan's cells per row.  ``graph`` counts its
# boards by matrix products in its own row blocks and does not use it.
_BLOCK_CELLS = 1 << 20


def board_coords(bits: np.ndarray, sign: str) -> np.ndarray:
    """All boards of one sign, in lexicographic order.

    For one p x q matrix: an N x 4 array of 1-based (i, j, k, l), i < j
    and k < l.  For an (N, p, q) stack: rows (member, i, j, k, l) with a
    0-based member, sorted by member and lexicographic within each member.

    A negative board has 0 at (i, k) and (j, l) and 1 at (i, l) and
    (j, k); a positive board is the reverse.  One boolean mask over
    (member, i, j, k, l) marks the pattern and ``np.argwhere`` lists it in
    C order, which is the order above.  The mask is built in blocks of
    ``_BLOCK_CELLS // (p * q**2)`` (member, row i) pairs, at least one: a
    block holds whole members, or the rows of one member in runs, so
    blocks may end inside a member.
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown sign {sign!r}")
    a = np.asarray(bits, dtype=bool)
    stack = a if a.ndim == 3 else a[None]
    n, p, q = stack.shape
    cols = np.arange(q)
    upper = cols[:, None] < cols
    every = np.arange(p)
    rows = max(1, _BLOCK_CELLS // max(1, p * q * q))
    members = max(1, rows // max(1, p))
    blocks = [np.empty((0, 5), dtype=np.intp)]
    for m in range(0, n, members):
        part = stack[m : m + members]
        # ones_zeros[m, r, k, l]: row r of member m reads 1 at k and 0 at l, k < l
        ones_zeros = part[:, :, :, None] > part[:, :, None, :]
        ones_zeros &= upper
        zeros_ones = part[:, :, :, None] < part[:, :, None, :]
        zeros_ones &= upper
        top, bottom = (ones_zeros, zeros_ones) if sign == POSITIVE else (zeros_ones, ones_zeros)
        for i in range(0, p, rows):
            mask = top[:, i : i + rows, None] & bottom[:, None]
            mask &= (every[i : i + rows, None] < every)[:, :, None, None]
            found = np.argwhere(mask)
            found[:, :2] += (m, i)
            blocks.append(found)
    out = np.concatenate(blocks)
    out[:, 1:] += 1
    return out if a.ndim == 3 else out[:, 1:]


def find_checkerboards(A: BinaryMatrix, sign: str | None = None) -> list[Checkerboard]:
    """Enumerate all checkerboards of ``A`` in lexicographic coordinate order.

    ``sign`` restricts the result to "positive" or "negative" boards; the
    scan is the O(p^2 q^2) full enumeration of :func:`board_coords`.
    """
    if sign is not None and sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown sign {sign!r}")
    found = [
        Checkerboard(Switch(*coord), s)
        for s in (POSITIVE, NEGATIVE)
        if sign in (None, s)
        for coord in board_coords(A.bits, s).tolist()
    ]
    if sign is None:
        found.sort(key=lambda cb: cb.coord)
    return found


def _is_board(bits: np.ndarray, sw: Switch, sign: str) -> bool:
    """True when ``bits`` holds a ``sign`` checkerboard at the in-range
    switch ``sw``, read as four scalars: a positive board has 1 at (i, k)
    and (j, l) and 0 at (i, l) and (j, k), a negative board the reverse."""
    i, j, k, l = sw.i - 1, sw.j - 1, sw.k - 1, sw.l - 1
    main = 1 if sign == POSITIVE else 0
    return (
        bits[i, k] == main
        and bits[j, l] == main
        and bits[i, l] != main
        and bits[j, k] != main
    )


def switch_bits_inplace(bits: np.ndarray, coord, direction: str) -> None:
    """Apply a switch to a writable bit array, validating the checkerboard.

    This is the in-place variant used by hot loops; ``apply_switch`` is the
    immutable wrapper.
    """
    sw = as_switch(coord)
    p, q = bits.shape
    if sw.j > p or sw.l > q:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {p}x{q} matrix")
    if direction not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown direction {direction!r}")
    # a positive switch needs a negative board and leaves a positive one
    before = NEGATIVE if direction == POSITIVE else POSITIVE
    if not _is_board(bits, sw, before):
        raise InvalidSwitch(f"no {before} checkerboard at {tuple(sw)}")
    i, j, k, l = sw.i - 1, sw.j - 1, sw.k - 1, sw.l - 1
    main = 1 if direction == POSITIVE else 0
    bits[i, k] = bits[j, l] = main
    bits[i, l] = bits[j, k] = 1 - main


def apply_switch(A: BinaryMatrix, coord, direction: str) -> BinaryMatrix:
    """Return ``A`` with the switch at ``coord`` applied.

    A positive switch requires a negative checkerboard at ``coord`` (and
    vice versa); otherwise :class:`InvalidSwitch` is raised.  Margins are
    invariant.
    """
    bits = A.writable_bits()
    switch_bits_inplace(bits, coord, direction)
    return BinaryMatrix._wrap(bits)


def apply_path(A: BinaryMatrix, path: Sequence) -> BinaryMatrix:
    """Apply a sequence of positive switches, validating every step."""
    bits = A.writable_bits()
    for coord in path:
        switch_bits_inplace(bits, coord, POSITIVE)
    return BinaryMatrix._wrap(bits)


def unitary_decomposition(coord) -> list[Switch]:
    """Split a switch into the unitary switches tiling its rectangle."""
    sw = as_switch(coord)
    return [
        Switch(a, a + 1, b, b + 1)
        for a in range(sw.i, sw.j)
        for b in range(sw.k, sw.l)
    ]


def switching_matrix(coord, p: int, q: int) -> np.ndarray:
    """The +-1 pattern added by a positive switch, as a p x q int array."""
    sw = as_switch(coord)
    if sw.j > p or sw.l > q:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {p}x{q} matrix")
    out = np.zeros((p, q), dtype=np.int64)
    out[sw.i - 1, sw.k - 1] = out[sw.j - 1, sw.l - 1] = 1
    out[sw.i - 1, sw.l - 1] = out[sw.j - 1, sw.k - 1] = -1
    return out


def potential(A: BinaryMatrix) -> int:
    """Weighted sum of entries, I(A) = sum of i*j*a_ij with 1-based i, j.

    A positive switch at (i, j, k, l) increases the potential by exactly
    (j - i) * (l - k), which makes the switch order acyclic.
    """
    return int(potentials(A.bits))


def potentials(bits: np.ndarray) -> np.ndarray:
    """:func:`potential` of every matrix in a (..., p, q) stack, as int64."""
    p, q = bits.shape[-2:]
    weights = np.outer(np.arange(1, p + 1, dtype=np.int64), np.arange(1, q + 1))
    return bits.reshape(*bits.shape[:-2], p * q).astype(np.int64) @ weights.ravel()


def complement(A: BinaryMatrix) -> BinaryMatrix:
    """Entrywise 1 - a_ij.  Swaps checkerboard signs at identical coordinates."""
    return BinaryMatrix._wrap((1 - A.bits).astype(np.int8))


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


def _leading_run(mask: np.ndarray) -> np.ndarray:
    """Length of the leading run of True along the last axis (0 on an
    empty axis)."""
    return np.logical_and.accumulate(mask, axis=-1).sum(axis=-1)


def _prefix_runs(bits: np.ndarray) -> np.ndarray:
    """Length of the initial run of 1s in each row of a (..., p, q) stack."""
    return _leading_run(bits != 0)


def _nested_rows(bits: np.ndarray) -> np.ndarray:
    """Number of leading rows that form a nested block, per matrix of a
    (..., p, q) stack, in one O(pq) pass.

    Both conditions are local: each row is a prefix run of 1s (it never
    rises), and each run is no longer than the one above.  So the rows
    [0, h) are nested exactly when h <= _nested_rows(bits).
    """
    runs = bits.sum(axis=-1)
    good = (bits[..., 1:] <= bits[..., :-1]).all(axis=-1)
    good[..., 1:] &= runs[..., 1:] <= runs[..., :-1]
    return _leading_run(good)


def is_nested(bits: np.ndarray):
    """True when 1s precede 0s in every row and column (per matrix of a
    (..., p, q) stack).

    Equivalent formulation used here: every row is a prefix run of 1s and
    the run lengths are non-increasing from top to bottom.
    """
    return _nested_rows(bits) == bits.shape[-2]


def is_anti_nested(bits: np.ndarray):
    """True when 0s precede 1s in every row and column, that is when the
    half turn (rows and columns reversed) is nested."""
    return is_nested(bits[..., ::-1, ::-1])


def _split_facts(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(some row cut splits the matrix, some such cut has a 1 on both
    sides), per matrix of a (..., p, q) stack.

    The cuts h with rows [0, h) nested and rows [h, p) anti-nested are
    exactly the integers of [p - nested rows of the half turn, nested
    rows]: a nested top stays nested when shortened, and so does an
    anti-nested bottom, which the half turn maps to a nested top.
    """
    p = bits.shape[-2]
    lo = p - _nested_rows(bits[..., ::-1, ::-1])
    hi = _nested_rows(bits)
    filled = bits.any(axis=-1)
    first = _leading_run(~filled)
    last = p - 1 - _leading_run(~filled[..., ::-1])
    # a cut h has a 1 above it when h > first filled row, below when h <= last
    two_sided = filled.any(axis=-1) & (np.maximum(lo, first + 1) <= np.minimum(hi, last))
    return lo <= hi, two_sided


def _zebra_parts(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(staircase N, rest, rest is anti-nested) per matrix of a (..., p, q)
    stack; see :func:`zebra_parts`."""
    lengths = np.minimum.accumulate(_prefix_runs(bits), axis=-1)
    nested = (np.arange(bits.shape[-1]) < lengths[..., None]).astype(np.int8)
    rest = (bits - nested).astype(np.int8)
    return nested, rest, is_anti_nested(rest)


def zebra_parts(A: BinaryMatrix) -> tuple[np.ndarray, np.ndarray] | None:
    """A decomposition A = N + AN with N nested and AN anti-nested, disjoint.

    N is the maximal top-left staircase of 1s, and A is a zebra exactly
    when the rest is anti-nested; None otherwise.  The peel is exact: if
    A = N + AN with row lengths n_i and a_i, the staircase has length n_i
    on every row that is not full and repeats the row above on a full row,
    so the rest's suffix runs are a_i or q - (staircase length), and they
    are non-decreasing in each of the four full/not-full cases of two
    consecutive rows.
    """
    nested, rest, ok = _zebra_parts(A.bits)
    return (nested, rest) if ok else None


def _zebra_split(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(split_h, split_v, degenerate) for the zebra family, per matrix of a
    (..., p, q) stack: a row or column cut splits it into a nested and an
    anti-nested part, and degenerate when no such cut has a 1 on both
    sides."""
    split_h, two_sided_h = _split_facts(bits)
    split_v, two_sided_v = _split_facts(bits.swapaxes(-1, -2))
    degenerate = (split_h | split_v) & ~(two_sided_h | two_sided_v)
    return split_h, split_v, degenerate


def class_flags(bits: np.ndarray) -> dict[str, np.ndarray]:
    """The structural flags of every matrix of a (..., p, q) stack, each as
    a boolean array over the leading axes.  The keys are those of
    :func:`classify`, except ``none``; the flags are independent, and
    several may hold at once.

    This is the one implementation behind :func:`classify`; the oracle
    calls it once on a whole class.
    """
    bits = np.asarray(bits, dtype=np.int8)
    # the zebra family of each form: A, the anti-zebra transform (complement
    # of the vertical reflection), and the two forms whose splits make A a
    # complement of a split
    forms = np.stack([bits, 1 - bits[..., ::-1, :], 1 - bits, bits[..., ::-1, :]])
    split_h, split_v, degenerate = _zebra_split(forms)
    zebra = _zebra_parts(forms[:2])[2]
    return {
        "nested": is_nested(bits),
        "anti_nested": is_anti_nested(bits),
        "zebra": zebra[0],
        "zebra_split_h": split_h[0],
        "zebra_split_v": split_v[0],
        "anti_zebra": zebra[1],
        "anti_zebra_split_h": split_h[1],
        "anti_zebra_split_v": split_v[1],
        "complement_of_split": (split_h[2:] | split_v[2:]).any(axis=0),
        "degenerate_split": degenerate[0] | degenerate[1],
    }


def classify(A: BinaryMatrix) -> dict[str, bool]:
    """The structural flags of ``A``, the dict that ``analyze`` reports:
    the keys of :func:`class_flags` plus ``none``, true when ``A`` is
    neither nested, anti-nested, a zebra, an anti-zebra nor the
    complement of a split.

    A zebra is a disjoint sum of a nested and an anti-nested matrix; it is
    split horizontally (vertically) when some row (column) cut separates
    the two parts.  An anti-zebra is the complement of the vertical
    reflection of a zebra, so its flags are read off the transformed
    matrix.  An empty part is permitted and reported via
    ``degenerate_split``.

    Every flag comes from one nested-prefix scan: the row cuts with a
    nested top and an anti-nested bottom form the interval
    [p - nested rows of the half turn, nested rows], column cuts the same
    on the transpose, and the zebra test is the staircase peel of
    :func:`zebra_parts`.  This wraps :func:`class_flags`, which does the
    same on a whole stack at once.
    """
    flags = {name: bool(flag) for name, flag in class_flags(A.bits).items()}
    flags["none"] = not (flags["nested"] or flags["anti_nested"] or flags["zebra"]
                         or flags["anti_zebra"] or flags["complement_of_split"])
    return flags


# ---------------------------------------------------------------------------
# Margin feasibility
# ---------------------------------------------------------------------------


def from_margins(R: Sequence[int], C: Sequence[int]) -> BinaryMatrix:
    """Build some matrix with row sums R and column sums C.

    Greedy fill: each row places its 1s in the columns with the largest
    remaining demand (ties to the left), which succeeds exactly when the
    margins are feasible.  Raises :class:`InfeasibleMargins` otherwise.
    """
    R = [int(x) for x in R]
    C = [int(x) for x in C]
    p, q = len(R), len(C)
    if p < 1 or q < 1:
        raise InfeasibleMargins("margins must be non-empty")
    if min(R) < 0 or min(C) < 0 or max(R, default=0) > q or max(C, default=0) > p:
        raise InfeasibleMargins(f"margins out of range for a {p}x{q} binary matrix")
    if sum(R) != sum(C):
        raise InfeasibleMargins(f"margin sums differ: {sum(R)} != {sum(C)}")
    rem = np.array(C, dtype=np.int64)
    arr = np.zeros((p, q), dtype=np.int8)
    order_keys = np.arange(q)
    for i, r in enumerate(R):
        if r == 0:
            continue
        order = np.lexsort((order_keys, -rem))
        chosen = order[:r]
        if rem[chosen[-1]] <= 0:
            raise InfeasibleMargins("margins are not realisable")
        arr[i, chosen] = 1
        rem[chosen] -= 1
    if (rem != 0).any():
        raise InfeasibleMargins("margins are not realisable")
    return BinaryMatrix._wrap(arr)
