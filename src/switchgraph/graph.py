"""Simple graphs as symmetric adjacency matrices, and their switch algebra.

A :class:`Graph` is a :class:`~switchgraph.binmat.BinaryMatrix` that is
symmetric with a zero diagonal, so its row sums are the degrees and its
margins are (D, D); everything that reads a matrix reads a graph too.
For graphs the four switch coordinates must be pairwise distinct vertices
and checkerboards come in symmetric pairs that are switched together; a
switch rewires two edges without touching any degree.  Positive versus
negative is meaningful only relative to a vertex ordering, so the graph
operations expect vertices sorted by non-increasing degree.

Also here: Zagreb indices and the spectral-radius estimate Z2, degree
assortativity, the spectral radius and its eigenvector by power
iteration, all eigenvalues (no eigenvectors) by an independent Jacobi
solver as cross-check, and the graph generators used by the switching
simulations.  Vertices are 1-based in the public API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import binmat
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from .errors import DegenerateGraph, InfeasibleMargins, InvalidSwitch


class Graph(BinaryMatrix):
    """Simple undirected graph: a symmetric :class:`BinaryMatrix` with a
    zero diagonal, whose row sums are the degrees."""

    __slots__ = ()

    def __init__(self, adj):
        super().__init__(adj)
        arr = self.bits
        if arr.shape[0] != arr.shape[1]:
            raise ValueError(f"adjacency must be square and non-empty, got {arr.shape}")
        if np.diagonal(arr).any():
            raise ValueError("adjacency diagonal must be zero (no loops)")
        if (arr != arr.T).any():
            raise ValueError("adjacency must be symmetric")

    @property
    def adj(self) -> np.ndarray:
        return self.bits

    @property
    def degrees(self) -> np.ndarray:
        return self.row_sums

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def m(self) -> int:
        return int(self.row_sums.sum()) // 2

    def is_degree_sorted(self) -> bool:
        return bool((np.diff(self.row_sums) <= 0).all())

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def sort_by_degree(G: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Relabel vertices by non-increasing degree, stably.

    Returns the sorted graph and the permutation as a tuple ``perm`` where
    position ``new`` (0-based) holds the original 1-based vertex index.
    """
    order = np.argsort(-G.degrees, kind="stable")
    adj = G.adj[np.ix_(order, order)].copy()
    return Graph._wrap(adj), tuple(int(v) + 1 for v in order)


def find_sym_checkerboards(G: Graph, sign: str) -> list[Switch]:
    """Symmetric checkerboards of the requested sign, deduplicated.

    Coordinates are quadruples of pairwise distinct vertices with i < j,
    k < l; each symmetric pair is reported once, in lexicographic order.
    The sign convention assumes a degree-sorted labelling.
    """
    if not G.is_degree_sorted():
        raise ValueError("graph operations expect degree-sorted vertices")
    return [Switch(*coord) for coord in sym_board_coords(G.adj, sign).tolist()]


def sym_board_coords(adj: np.ndarray, sign: str) -> np.ndarray:
    """The rows of ``binmat.board_coords(adj, sign)`` that are symmetric
    boards: four distinct vertices, each symmetric pair once ((i, j) before
    (k, l) means i < k).  ``adj`` is one adjacency matrix or an (N, n, n)
    stack, with the row layout of :func:`binmat.board_coords`."""
    b = binmat.board_coords(adj, sign)
    i, j, k, l = b[:, -4:].T
    return b[(i < k) & (k != j) & (l != j)]


def sym_board_pair_counts(adj: np.ndarray, sign: str) -> np.ndarray:
    """Boards of the given sign per row pair, counted from scratch.

    ``counts[i, j]`` = boards (i, j, k, l) with k < l, for every row pair
    i < j (0 on and below the diagonal).  Every symmetric switch
    contributes to exactly two row pairs, so ``counts.sum() // 2`` is the
    number of distinct switches.

    This is the ``counts`` of a :class:`NegativeBoardTable`, so the full
    count and the optimizer's update run one kernel.  The positive
    boards of A are the negative boards of its complement with a zero
    diagonal (no board touches the diagonal), built in the table's dtype.
    The kernel runs over row blocks in float32 BLAS up to n =
    ``_FLOAT32_MAX_N`` and in float64 above (about 1 ms at n = 100),
    exact because every value it forms is an integer below n^2; the
    table's helpers and the result take 20 n^2 bytes in float32, and a
    row block about 0.25 MB more.
    """
    if sign == POSITIVE:
        # the complement is the table's A as it is
        adj = np.subtract(1, adj, dtype=_helper_dtype(adj.shape[0]))
        np.fill_diagonal(adj, 0)
    return NegativeBoardTable(adj).counts


def count_sym_checkerboards(adj: np.ndarray, sign: str) -> int:
    """Number of distinct symmetric checkerboards of the given sign."""
    return int(sym_board_pair_counts(adj, sign).sum()) // 2


# Cells per row block of the full count in ``NegativeBoardTable``: the
# kernel's 16 or so temporaries each hold r x n cells for a block of r
# rows, so a block takes about 0.25 MB beside the helpers and the table
# (0.5 MB with float64 helpers).
_COUNT_BLOCK_CELLS = 1 << 12

# Most vertices for which a ``NegativeBoardTable`` keeps its helpers in
# float32.  Set by exactness, not speed: the values behind each count are
# integers below n^2 (for n >= 4), and float32 holds every integer up to
# 2^24 = 4096^2.
_FLOAT32_MAX_N = 1 << 12


def _helper_dtype(n: int) -> type:
    """The dtype of a board table's helpers on n vertices."""
    return np.float32 if n <= _FLOAT32_MAX_N else np.float64


class NegativeBoardTable:
    """Negative boards per row pair, counted once and kept current under
    switches.

    ``counts[i, j]`` = negative boards (i, j, k, l) with k < l, for every
    row pair i < j (0 on and below the diagonal).  ``switch(coord)``
    applies a positive switch to ``adj`` in place and recounts the row
    pairs that touch its four rows, the only pairs it can change.  For
    rows i < j, with S_i(k) the 1s of row i right of column k, P_j(l) the
    1s of row j left of column l, Q = A o P and c the number of common
    neighbours, the negative boards are

        N(i, j) = sum_{k<l; k,l not in {i,j}} (1-a_ik) a_jk a_il (1-a_jl)
                = sum_k a_jk (1-a_ik) S_i(k) - sum_l a_il Q_jl + C(c, 2)
                  - a_ij (S_i(i) - sum_{l>i} a_il a_jl
                          + P_j(j) - sum_{k<j} a_ik a_jk - 1),

    the last line taking out the boards through column i or j.

    One kernel reads this identity for a set of rows r against every row
    b, in both places: the pair (r, b) and the pair (b, r).  A is
    symmetric and P_r + S_r + a_r = deg_r, so every sum is an entry of A
    times a stack of three rows per r ((1-a_r) o S_r, a_r, and a_r right
    of column r) or of [Q; tril(A, -1)] times the rows a_r, and the two
    places share C(c, 2) and the product terms.  The count from scratch
    runs the kernel over row blocks of about ``_COUNT_BLOCK_CELLS / n``
    rows and keeps the pairs (r, b) with b > r, about 1 ms at n = 100.
    ``switch`` checks the switch, applies it to ``adj``, runs the kernel
    on its four rows and writes both halves back, one row segment and
    one column segment per row r.

    Besides A, Q and tril(A, -1) the table keeps P_b(b), the 1s of each
    row left of the diagonal, and the degrees.  Row b of each helper
    reads only row b of A, and the kernel refreshes its rows of A, Q,
    tril(A, -1) and P_b(b) from ``adj`` before its products.  The table
    starts Q, tril(A, -1) and P_b(b) at zero and builds them by that
    refresh alone: the count from scratch runs its row blocks from the
    last row up, so a kept pair (r, b), b > r, reads row b after its
    refresh.  A symmetric switch changes A only in its four rows, so
    after ``switch`` every helper is current.

    For n up to ``_FLOAT32_MAX_N`` = 4096 the helpers are float32, so the
    products run in sgemm; above that they are float64.  In float32 the
    helpers take 12 n^2 bytes and, with the int64 ``counts``, a table
    holds 20 n^2 bytes (32 n^2 in float64); the full count needs about
    0.25 MB more.

    Exactness: every value the kernel forms for an entry it returns as a
    count (b > r in the first array, b < r in the second), partial or
    final, is an integer of magnitude below max(n^2, 3n), at most 2^24
    for n <= 4096, and float32 holds every integer up to 2^24.  The other
    entries are discarded.  For such a pair:

    - Stack and helper entries are integers in [0, n): 0/1 entries,
      S_r(k), P_b(l) and Q.
    - Each product entry sums non-negative integer terms, so any partial
      sum, in any order BLAS takes, lies between 0 and the full sum.  Each
      full sum counts columns (below n) or column pairs k < l (below
      n^2 / 2): sum_k a_bk (1-a_rk) S_r(k) counts the pairs with a_bk =
      a_rl = 1 > a_rk, and sum_l a_rl Q_bl those with a_bk = a_bl = a_rl
      = 1.
    - C(c, 2) counts the pairs with all four entries 1, disjoint from the
      first set, so C(c, 2) plus the first sum is below n^2 / 2 too, and
      the shared part stays within +-n^2 / 2 at every step ((c - 1) c is
      even and below n^2).
    - The linear terms (degrees less c, P_b(b), S_r(r), the common
      neighbours right of r or left of b, and the factor of a_rb built
      from them) stay within +-3n at every step.
    - (deg_r - c)(deg_b - c) multiplies the sizes of two disjoint column
      sets, so it is at most n^2 / 4, and less the shared part it lies
      within (-n^2 / 2, 3 n^2 / 4).
    - The last step gives the count itself, in [0, n^2 / 2).

    So the arithmetic may be grouped and ordered freely: the table
    equals, entry for entry, a count by any other method.
    """

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        n = adj.shape[0]
        a = adj.astype(_helper_dtype(n), copy=False)
        self._a = a
        self._degrees = a.sum(axis=1)
        self._columns = np.arange(n)
        # Q stacked on tril(A, -1), and P_b(b): zero until the kernel
        # refreshes their rows.  np.full, not np.zeros: it maps every page
        # now, where calloc's lazy pages would fault in during the count.
        self._q_lower = np.full((2 * n, n), 0, dtype=a.dtype)
        self._q, self._lower = self._q_lower[:n], self._q_lower[n:]
        self._left = np.zeros(n, dtype=a.dtype)
        self.counts = np.empty((n, n), dtype=np.int64)
        step = max(1, _COUNT_BLOCK_CELLS // max(n, 1))
        # last block first: the pairs (r, b) with b > r read refreshed rows
        for start in reversed(range(0, n, step)):
            rows = self._columns[start : start + step]
            first, _ = self._recount(rows)
            first *= self._columns > rows[:, None]
            self.counts[rows] = first

    def _recount(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Refresh the helpers in ``rows`` from ``adj`` and count each row
        r of ``rows`` against every row b: the pair (r, b) in the first
        array, which holds for b > r, and the pair (b, r) in the second,
        for b < r."""
        A, left = self._a, self._left
        m, n = rows.size, A.shape[0]
        # axis 0: row r; axis 1: every row b.  The stack holds (1-a_r) o S_r,
        # a_r, and a_r right of column r.
        stack = np.empty((3 * m, n), dtype=A.dtype)
        A[rows] = self.adj.take(rows, axis=0)
        a = A.take(rows, axis=0, out=stack[m : 2 * m])
        right = np.multiply(a, self._columns > rows[:, None], out=stack[2 * m :])
        # a_rr = 0, so a_r less a_r right of column r is row r of tril(A, -1)
        lower = self._lower[rows] = a - right
        left[rows] = lower.sum(axis=1)
        through = a.cumsum(axis=1)  # P_r + a_r, and deg_r - S_r
        deg_r = through[:, -1:]
        self._q[rows] = a * (through - 1.0)
        np.subtract(deg_r, through, out=stack[:m])
        stack[:m] *= 1.0 - a
        by_a = stack @ A
        by_q_lower = a @ self._q_lower.T
        common = by_a[m : 2 * m]
        # C(common, 2) + sum_k a_bk (1-a_rk) S_r(k) - sum_l a_rl Q_bl
        shared = common - 1.0
        shared *= common
        shared *= 0.5
        shared += by_a[:m]
        shared -= by_q_lower[:, :n]
        # what multiplies a_rb in the pair (r, b): S_r(r) - 1 + P_b(b), less
        # the common neighbours right of r and those left of b
        a_factor = left - by_a[2 * m :]
        a_factor -= by_q_lower[:, n:]
        a_factor += deg_r - 1.0 - left.take(rows)[:, None]
        rest_r = deg_r - common
        rest_b = self._degrees - common
        # b < r: the pair is (b, r)
        second = rest_r * rest_b
        second -= shared
        rest_r += rest_b
        rest_r -= a_factor
        rest_r -= 2.0
        rest_r *= a
        second -= rest_r
        # b > r: the pair is (r, b)
        a_factor *= a
        shared -= a_factor
        return shared, second

    def switch(self, coord) -> None:
        """Apply the positive switch ``coord`` to ``adj`` and bring
        ``counts`` up to date."""
        sym_switch_inplace(self.adj, coord, POSITIVE)
        rows = tuple(v - 1 for v in coord)
        first, second = self._recount(np.array(rows))
        for r, above, below in zip(rows, first, second):
            self.counts[r, r + 1 :] = above[r + 1 :]
            self.counts[:r, r] = below[:r]


def sym_switch_inplace(adj: np.ndarray, coord, direction: str) -> None:
    sw = binmat.as_switch(coord)
    if len({sw.i, sw.j, sw.k, sw.l}) != 4:
        raise InvalidSwitch(f"graph switch vertices must be distinct: {tuple(sw)}")
    n = adj.shape[0]
    if sw.j > n or sw.l > n:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {n} vertices")
    if direction not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown direction {direction!r}")
    # a positive switch needs a negative board and leaves a positive one
    before = NEGATIVE if direction == POSITIVE else POSITIVE
    if not binmat._is_board(adj, sw, before):
        raise InvalidSwitch(f"no {before} symmetric checkerboard at {tuple(sw)}")
    # the check read all four cells, so the toggle writes known values
    i, j, k, l = sw.i - 1, sw.j - 1, sw.k - 1, sw.l - 1
    new = 1 if direction == POSITIVE else 0
    adj[i, k] = adj[k, i] = adj[j, l] = adj[l, j] = new
    adj[i, l] = adj[l, i] = adj[j, k] = adj[k, j] = 1 - new


def m2_switch_delta(degrees, coord) -> int:
    """Change of the second Zagreb index under a positive switch.

    ``degrees`` is an array or a list; a list is faster in a loop.
    """
    sw = binmat.as_switch(coord)
    d = degrees
    return int((d[sw.i - 1] - d[sw.j - 1]) * (d[sw.k - 1] - d[sw.l - 1]))


# ---------------------------------------------------------------------------
# Degree-based indices
# ---------------------------------------------------------------------------


def zagreb(G: Graph) -> tuple[int, int, float, float]:
    """(M1, M2, Z1, Z2) with exact integer M1, M2.

    M1 sums squared degrees, M2 sums d_i * d_j over edges; Z1 and Z2 are
    the corresponding quadratic means.  Z2 needs at least one edge.
    """
    if G.m == 0:
        raise DegenerateGraph("Z2 is undefined for an edgeless graph")
    d = G.degrees.astype(np.int64)
    m1 = int((d * d).sum())
    m2 = int(d @ G.adj.astype(np.int64) @ d) // 2
    z1 = math.sqrt(m1 / G.n)
    z2 = math.sqrt(m2 / G.m)
    return m1, m2, z1, z2


def assortativity(G: Graph) -> float | None:
    """Pearson correlation of endpoint degrees over edges.

    None (undefined) when the denominator vanishes, as on regular graphs.
    """
    if G.m == 0:
        raise DegenerateGraph("assortativity is undefined for an edgeless graph")
    d = G.degrees.astype(np.float64)
    m = G.m
    _, m2, _, _ = zagreb(G)
    half_sq = float((d**2).sum()) / 2.0
    half_cu = float((d**3).sum()) / 2.0
    denom = half_cu - half_sq**2 / m
    if denom == 0.0:
        return None
    return (m2 - half_sq**2 / m) / denom


# ---------------------------------------------------------------------------
# Spectral radius
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SpectralReport:
    """Largest adjacency eigenvalue, its unit eigenvector, and whether and
    after how many steps the power iteration converged."""

    lambda1: float
    eigvec: np.ndarray
    converged: bool
    iterations: int


def spectral_radius(G: Graph, tol: float = 1e-10, max_iter: int = 100000) -> SpectralReport:
    """Power iteration on A + I (the shift suppresses bipartite oscillation).

    Converges when successive Rayleigh quotients differ by less than
    ``tol``; starting from the all-ones vector keeps the iterate
    non-negative and reaches the global dominant pair on disconnected
    graphs too.  A non-converged run reports its best estimate with
    ``converged=False``.
    """
    a = G.adj.astype(np.float64)
    n = G.n
    v = np.full(n, 1.0 / math.sqrt(n))
    ray_prev = None
    ray = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        w = a @ v + v
        ray = float(v @ w)
        v = w / np.linalg.norm(w)
        if ray_prev is not None and abs(ray - ray_prev) < tol:
            converged = True
            break
        ray_prev = ray
    return SpectralReport(
        lambda1=ray - 1.0, eigvec=v, converged=converged, iterations=iterations
    )


# Jacobi sweeps stop once the off-diagonal norm is at most _JACOBI_TOL
# times max(1, largest |entry|), or after _JACOBI_MAX_SWEEPS sweeps.
_JACOBI_TOL = 1e-12
_JACOBI_MAX_SWEEPS = 100


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix by Jacobi rotations.

    Deliberately independent of the power iteration (and of library
    eigensolvers) so the two spectral routes cross-check each other.
    Returns the eigenvalues in non-increasing order.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigenvalues expects a square matrix")
    if (np.abs(a - a.T) > 1e-12).any():
        raise ValueError("jacobi_eigenvalues expects a symmetric matrix")
    n = a.shape[0]
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(_JACOBI_MAX_SWEEPS):
        off_part = a - np.diag(np.diagonal(a))
        if math.sqrt(float((off_part * off_part).sum())) <= _JACOBI_TOL * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
    vals = np.diagonal(a)
    return vals[np.argsort(-vals, kind="stable")]


def dense_spectral_radius(adj: np.ndarray) -> float:
    """Largest eigenvalue via the independent Jacobi solver."""
    return float(jacobi_eigenvalues(np.asarray(adj, dtype=np.float64))[0])


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def gen_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p): every one of the C(n, 2) edges present with probability p.

    Deterministic for a fixed seed (PCG64 stream).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    draw = rng.random((n, n))
    upper = np.triu(draw < p, k=1)
    adj = (upper | upper.T).astype(np.int8)
    return Graph._wrap(adj)


def gen_small_world(side: int, rewire_frac: float, seed: int) -> Graph:
    """side x side 4-neighbour grid with a fraction of edges rewired.

    floor(rewire_frac * m) distinct grid edges are removed and replaced by
    uniformly random currently-absent edges; the edge count is preserved
    but degrees are not.
    """
    if side < 1:
        raise ValueError("side must be at least 1")
    if not 0.0 <= rewire_frac <= 1.0:
        raise ValueError("rewire_frac must lie in [0, 1]")
    n = side * side
    adj = np.zeros((n, n), dtype=np.int8)
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1))
            if r + 1 < side:
                edges.append((v, v + side))
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    rng = np.random.default_rng(seed)
    n_rewire = int(rewire_frac * len(edges))
    if n_rewire:
        picked = rng.choice(len(edges), size=n_rewire, replace=False)
        for idx in sorted(int(x) for x in picked):
            u, v = edges[idx]
            adj[u, v] = adj[v, u] = 0
        for _ in range(n_rewire):
            while True:
                u, v = (int(x) for x in rng.integers(0, n, size=2))
                if u != v and adj[u, v] == 0:
                    adj[u, v] = adj[v, u] = 1
                    break
    return Graph._wrap(adj)


def gen_split_zebra(R, C) -> BinaryMatrix:
    """The split zebra (or split anti-zebra) with the given margins.

    Constructive: realise the margins, then walk positive switches to a
    sink of the switch order; by uniqueness the sink is the split zebra
    whenever one exists, and with no split member no sink is split, so the
    walk order does not change the result.  Each pass lists the negative
    boards once and switches, in order, every one still negative in the
    running matrix.  Raises :class:`InfeasibleMargins` when the margins
    are unrealisable or their class has no split member.
    """
    A = binmat.from_margins(R, C)
    bits = A.writable_bits()
    while (boards := binmat.board_coords(bits, NEGATIVE)).size:
        for coord in boards.tolist():
            sw = Switch(*coord)
            if binmat._is_board(bits, sw, NEGATIVE):
                binmat.switch_bits_inplace(bits, sw, POSITIVE)
    result = BinaryMatrix(bits)
    f = binmat.classify(result)
    if (f["zebra_split_h"] or f["zebra_split_v"]
            or f["anti_zebra_split_h"] or f["anti_zebra_split_v"]):
        return result
    raise InfeasibleMargins(
        "margins admit no split zebra or split anti-zebra"
    )
