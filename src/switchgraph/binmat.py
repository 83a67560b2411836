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

from dataclasses import dataclass
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
    """Coerce a 4-sequence to a :class:`Switch`, validating the ordering."""
    sw = Switch(*(int(x) for x in coord))
    if not (1 <= sw.i < sw.j and 1 <= sw.k < sw.l):
        raise InvalidSwitch(f"malformed switch coordinates {tuple(sw)}")
    return sw


class BinaryMatrix:
    """Dense 0/1 matrix with cached row and column sums.

    Instances are immutable; switching returns a new matrix.  Code that
    needs to switch in place (the optimizer's hot loop) should work on
    ``writable_bits()`` and re-wrap at the end.
    """

    __slots__ = ("bits", "row_sums", "col_sums")

    def __init__(self, bits):
        arr = np.array(bits, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected a non-empty 2-D array, got shape {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("matrix entries must be 0 or 1")
        self._finish(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "BinaryMatrix":
        # Fast path for internally constructed arrays (already validated).
        obj = object.__new__(cls)
        obj._finish(arr)
        return obj

    def _finish(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self.bits = arr
        self.row_sums = arr.sum(axis=1, dtype=np.int64)
        self.col_sums = arr.sum(axis=0, dtype=np.int64)
        self.row_sums.setflags(write=False)
        self.col_sums.setflags(write=False)

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
        lines = [f"{self.p} {self.q}"]
        lines.extend("".join(str(int(b)) for b in row) for row in self.bits)
        return "\n".join(lines) + "\n"

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
        arr = np.empty((p, q), dtype=np.int8)
        for r, line in enumerate(lines[1:]):
            if len(line) != q or set(line) - {"0", "1"}:
                raise MatrixFormatError(f"bad row {r + 1}: {line!r}")
            arr[r] = [int(ch) for ch in line]
        return cls._wrap(arr)


def read_matrix(path) -> BinaryMatrix:
    with open(path, "r", encoding="ascii") as fh:
        return BinaryMatrix.from_text(fh.read())


def write_matrix(A: BinaryMatrix, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(A.to_text())


def row_col_sums(A: BinaryMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return the cached margins (R, C) as plain integer tuples."""
    return tuple(int(x) for x in A.row_sums), tuple(int(x) for x in A.col_sums)


# ---------------------------------------------------------------------------
# Checkerboards and switches
# ---------------------------------------------------------------------------


# Scratch elements per block of the row-blocked board scans (here and in
# ``graph.sym_board_pair_counts``): a block of r rows holds r times the
# scan's cells per row.
_BLOCK_CELLS = 1 << 20


def board_coords(bits: np.ndarray, sign: str) -> np.ndarray:
    """All boards of one sign as an N x 4 array of 1-based (i, j, k, l),
    i < j and k < l, in lexicographic order.

    A negative board has 0 at (i, k) and (j, l) and 1 at (i, l) and
    (j, k); a positive board is the reverse.  One boolean mask over
    (i, j, k, l) marks the pattern and ``np.argwhere`` lists it in C order,
    which is lexicographic.  Rows i are taken in blocks of
    ``_BLOCK_CELLS // (p * q**2)`` (at least one).
    """
    if sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown sign {sign!r}")
    a = np.asarray(bits, dtype=bool)
    p, q = a.shape
    # ones_zeros[r, k, l]: row r reads 1 at k and 0 at l, for k < l
    upper = np.triu(np.ones((q, q), dtype=bool), k=1)
    ones_zeros = a[:, :, None] & ~a[:, None, :] & upper
    zeros_ones = ~a[:, :, None] & a[:, None, :] & upper
    top, bottom = (ones_zeros, zeros_ones) if sign == POSITIVE else (zeros_ones, ones_zeros)
    rows = np.arange(p)
    step = max(1, _BLOCK_CELLS // (p * q * q))
    blocks = []
    for start in range(0, p, step):
        below = rows[start : start + step, None] < rows
        mask = top[start : start + step, None] & bottom & below[:, :, None, None]
        found = np.argwhere(mask)
        found[:, 0] += start
        blocks.append(found)
    return np.concatenate(blocks) + 1


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


_NEG_PATTERN = np.array([[0, 1], [1, 0]], dtype=np.int8)
_POS_PATTERN = np.array([[1, 0], [0, 1]], dtype=np.int8)


def switch_bits_inplace(bits: np.ndarray, coord, direction: str) -> None:
    """Apply a switch to a writable bit array, validating the checkerboard.

    This is the in-place variant used by hot loops; ``apply_switch`` is the
    immutable wrapper.
    """
    sw = as_switch(coord)
    p, q = bits.shape
    if sw.j > p or sw.l > q:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {p}x{q} matrix")
    rows = (sw.i - 1, sw.j - 1)
    cols = (sw.k - 1, sw.l - 1)
    if direction not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown direction {direction!r}")
    sub = bits[np.ix_(rows, cols)]
    want = _NEG_PATTERN if direction == POSITIVE else _POS_PATTERN
    if not (sub == want).all():
        raise InvalidSwitch(
            f"no {'negative' if direction == POSITIVE else 'positive'} "
            f"checkerboard at {tuple(sw)}"
        )
    bits[np.ix_(rows, cols)] = 1 - sub


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
    p, q = A.bits.shape
    weights = np.outer(np.arange(1, p + 1, dtype=np.int64), np.arange(1, q + 1))
    return int((weights * A.bits).sum())


def complement(A: BinaryMatrix) -> BinaryMatrix:
    """Entrywise 1 - a_ij.  Swaps checkerboard signs at identical coordinates."""
    return BinaryMatrix._wrap((1 - A.bits).astype(np.int8))


def reflect_vertical(A: BinaryMatrix) -> BinaryMatrix:
    """Reverse the row order."""
    return BinaryMatrix._wrap(A.bits[::-1].copy())


# ---------------------------------------------------------------------------
# Structural classification
# ---------------------------------------------------------------------------


def _prefix_runs(bits: np.ndarray) -> np.ndarray:
    """Length of the initial run of 1s in each row."""
    p, q = bits.shape
    if p == 0 or q == 0:
        return np.zeros(p, dtype=np.int64)
    padded = np.hstack([bits == 0, np.ones((p, 1), dtype=bool)])
    return padded.argmax(axis=1)


def _nested_rows(bits: np.ndarray) -> int:
    """Number of leading rows that form a nested block, in one O(pq) pass.

    Both conditions are local: each row is a prefix run of 1s (it never
    rises), and each run is no longer than the one above.  So the rows
    [0, h) are nested exactly when h <= _nested_rows(bits).
    """
    runs = bits.sum(axis=1)
    good = (bits[:, 1:] <= bits[:, :-1]).all(axis=1)
    good[1:] &= runs[1:] <= runs[:-1]
    return bits.shape[0] if good.all() else int(good.argmin())


def is_nested(bits: np.ndarray) -> bool:
    """True when 1s precede 0s in every row and column.

    Equivalent formulation used here: every row is a prefix run of 1s and
    the run lengths are non-increasing from top to bottom.
    """
    return _nested_rows(bits) == bits.shape[0]


def is_anti_nested(bits: np.ndarray) -> bool:
    """True when 0s precede 1s in every row and column, that is when the
    half turn (rows and columns reversed) is nested."""
    return is_nested(bits[::-1, ::-1])


def _split_facts(bits: np.ndarray) -> tuple[bool, bool]:
    """(some row cut splits ``bits``, some such cut has a 1 on both sides).

    The cuts h with rows [0, h) nested and rows [h, p) anti-nested are
    exactly the integers of [p - nested rows of the half turn, nested
    rows]: a nested top stays nested when shortened, and so does an
    anti-nested bottom, which the half turn maps to a nested top.
    """
    lo = bits.shape[0] - _nested_rows(bits[::-1, ::-1])
    hi = _nested_rows(bits)
    filled = np.flatnonzero(bits.any(axis=1))
    # a cut h has a 1 above it when h > first filled row, below when h <= last
    two_sided = filled.size > 0 and max(lo, filled[0] + 1) <= min(hi, filled[-1])
    return lo <= hi, bool(two_sided)


def _zebra_parts(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    lengths = np.minimum.accumulate(_prefix_runs(bits))
    nested = (np.arange(bits.shape[1]) < lengths[:, None]).astype(np.int8)
    rest = (bits - nested).astype(np.int8)
    return (nested, rest) if is_anti_nested(rest) else None


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
    return _zebra_parts(A.bits)


@dataclass(frozen=True)
class MatrixClass:
    """Structural flags; independent, several may hold at once."""

    nested: bool
    anti_nested: bool
    zebra: bool
    zebra_split_h: bool
    zebra_split_v: bool
    anti_zebra: bool
    anti_zebra_split_h: bool
    anti_zebra_split_v: bool
    complement_of_split: bool
    degenerate_split: bool

    @property
    def is_split_zebra(self) -> bool:
        return self.zebra_split_h or self.zebra_split_v

    @property
    def is_split_anti_zebra(self) -> bool:
        return self.anti_zebra_split_h or self.anti_zebra_split_v

    @property
    def none(self) -> bool:
        return not (
            self.nested
            or self.anti_nested
            or self.zebra
            or self.anti_zebra
            or self.complement_of_split
        )

    def flags(self) -> dict[str, bool]:
        return {
            "nested": self.nested,
            "anti_nested": self.anti_nested,
            "zebra": self.zebra,
            "zebra_split_h": self.zebra_split_h,
            "zebra_split_v": self.zebra_split_v,
            "anti_zebra": self.anti_zebra,
            "anti_zebra_split_h": self.anti_zebra_split_h,
            "anti_zebra_split_v": self.anti_zebra_split_v,
            "complement_of_split": self.complement_of_split,
            "degenerate_split": self.degenerate_split,
            "none": self.none,
        }


def _zebra_split(bits: np.ndarray) -> tuple[bool, bool, bool]:
    """(split_h, split_v, degenerate) for the zebra family: a row or column
    cut splits ``bits`` into a nested and an anti-nested part, and
    degenerate when no such cut has a 1 on both sides."""
    split_h, two_sided_h = _split_facts(bits)
    split_v, two_sided_v = _split_facts(bits.T)
    degenerate = (split_h or split_v) and not (two_sided_h or two_sided_v)
    return split_h, split_v, degenerate


def classify(A: BinaryMatrix) -> MatrixClass:
    """Compute the structural flags of ``A``.

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
    :func:`zebra_parts`.
    """
    bits = A.bits
    anti_bits = (1 - bits[::-1]).astype(np.int8)
    sh, sv, degen_z = _zebra_split(bits)
    ash, asv, degen_a = _zebra_split(anti_bits)
    csh, csv, _ = _zebra_split(1 - bits)
    cash, casv, _ = _zebra_split(bits[::-1])
    return MatrixClass(
        nested=is_nested(bits),
        anti_nested=is_anti_nested(bits),
        zebra=_zebra_parts(bits) is not None,
        zebra_split_h=sh,
        zebra_split_v=sv,
        anti_zebra=_zebra_parts(anti_bits) is not None,
        anti_zebra_split_h=ash,
        anti_zebra_split_v=asv,
        complement_of_split=csh or csv or cash or casv,
        degenerate_split=degen_z or degen_a,
    )


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
