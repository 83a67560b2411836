"""Simple graphs as symmetric adjacency matrices, and their switch algebra.

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


class Graph:
    """Simple undirected graph stored as a dense 0/1 adjacency matrix."""

    __slots__ = ("adj", "degrees")

    def __init__(self, adj):
        arr = np.array(adj, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise ValueError(f"adjacency must be square and non-empty, got {arr.shape}")
        if not np.isin(arr, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        if np.diagonal(arr).any():
            raise ValueError("adjacency diagonal must be zero (no loops)")
        if (arr != arr.T).any():
            raise ValueError("adjacency must be symmetric")
        self._finish(arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Graph":
        obj = object.__new__(cls)
        obj._finish(arr)
        return obj

    def _finish(self, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        self.adj = arr
        self.degrees = arr.sum(axis=1, dtype=np.int64)
        self.degrees.setflags(write=False)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return int(self.degrees.sum()) // 2

    def is_degree_sorted(self) -> bool:
        return bool((np.diff(self.degrees) <= 0).all())

    def writable_adj(self) -> np.ndarray:
        return self.adj.copy()

    def to_binary_matrix(self) -> BinaryMatrix:
        return BinaryMatrix(self.adj)

    def key(self) -> bytes:
        return self.adj.tobytes()

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and bool((self.adj == other.adj).all())

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

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
    if sign not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown sign {sign!r}")
    # negative (positive) boards of the adjacency matrix with four distinct
    # vertices, each symmetric pair once: (i, j) before (k, l) means i < k
    b = binmat.board_coords(G.adj, sign)
    i, j, k, l = b.T
    keep = (i < k) & (k != j) & (l != j)
    return [Switch(*coord) for coord in b[keep].tolist()]


def sym_board_pair_counts(adj: np.ndarray, sign: str) -> np.ndarray:
    """Boards of the given sign per row pair, counted from scratch.

    ``counts[i, j]`` = boards (i, j, k, l) with k < l, for every row pair
    i < j (0 on and below the diagonal).  Every symmetric switch
    contributes to exactly two row pairs, so ``counts.sum() // 2`` is the
    number of distinct switches.

    O(n) per pair.  Rows are taken in blocks of
    ``binmat._BLOCK_CELLS // n**2`` (at least one), about 8 bytes per
    entry, so scratch stays near 8 MB up to n = 1024 and near 8 n^2 bytes
    beyond.
    """
    a = np.asarray(adj, dtype=np.int8)
    n = a.shape[0]
    hi = 1 if sign == POSITIVE else -1
    every = np.arange(n)
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, binmat._BLOCK_CELLS // (n * n))
    for start in range(0, n, step):
        block = every[start : start + step]
        # d[t, b, k] = a[i, k] - a[j, k] for the pair i < j of {block[t], b},
        # zeroed at k in {i, j}
        d = a[block, None, :] - a
        d *= np.where(every < block[:, None], -1, 1).astype(np.int8)[:, :, None]
        d[np.arange(block.size)[:, None], every, block[:, None]] = 0
        d[:, every, every] = 0
        below = np.cumsum(d == hi, axis=2, dtype=np.int16 if n < 2**15 else np.int32)
        out[start : start + step] = (below * (d == -hi)).sum(axis=2, dtype=np.int64)
    return np.triu(out, k=1)


def count_sym_checkerboards(adj: np.ndarray, sign: str) -> int:
    """Number of distinct symmetric checkerboards of the given sign."""
    if adj.shape[0] < 4:
        return 0
    return int(sym_board_pair_counts(adj, sign).sum()) // 2


class NegativeBoardTable:
    """``sym_board_pair_counts(adj, NEGATIVE)``, kept current under switches.

    ``counts`` is counted once from scratch; ``switch(coord)`` applies a
    positive switch to ``adj`` in place and recounts the row pairs that
    touch its four rows, the only pairs it can change, with two matrix
    products instead of n x n prefix sums.

    For rows i < j, with S_i(k) the 1s of row i right of column k, P_j(l)
    the 1s of row j left of column l, Q = A o P and c the number of common
    neighbours, the negative boards are

        N(i, j) = sum_{k<l; k,l not in {i,j}} (1-a_ik) a_jk a_il (1-a_jl)
                = sum_k a_jk (1-a_ik) S_i(k) - sum_l a_il Q_jl + C(c, 2)
                  - a_ij (S_i(i) - sum_{l>i} a_il a_jl
                          + P_j(j) - sum_{k<j} a_ik a_jk - 1),

    the last line taking out the boards through column i or j.  A is
    symmetric and P_r + S_r + a_r = deg_r, so for a switched row r in
    either place, i or j, every sum is an entry of A times a (12 x n)
    stack ((1-a_r) o S_r, a_r, and a_r right of column r, for the four
    rows) or of [Q; tril(A, -1)] times the four rows.  A switch changes A
    and tril(A, -1) only at eight entries of its 4 x 4 block and Q only in
    its four rows, so the helpers stay current in O(n) per switch.  They
    are three float64 n x n arrays (24 n^2 bytes), so the products run in
    BLAS; every value is an integer below n^3, which float64 holds exactly
    for n up to 2^17, far beyond any dense matrix that fits in memory.
    """

    def __init__(self, adj: np.ndarray):
        self.adj = adj
        self.counts = sym_board_pair_counts(adj, NEGATIVE)
        a = adj.astype(np.float64)
        n = a.shape[0]
        before = np.cumsum(a, axis=1) - a
        self._a = a
        self._degrees = a.sum(axis=1)
        # Q stacked on tril(A, -1); ``_left[b]`` = P_b(b), 1s left of the diagonal
        self._q_lower = np.concatenate([a * before, np.tril(a, -1)])
        self._q, self._lower = self._q_lower[:n], self._q_lower[n:]
        self._left = before.diagonal().copy()
        self._cols = np.arange(n)
        self._stack = np.empty((12, n))

    def switch(self, coord) -> None:
        """Apply the positive switch ``coord`` to ``adj`` and bring
        ``counts`` up to date."""
        sym_switch_inplace(self.adj, coord, POSITIVE)
        i, j, k, l = (v - 1 for v in coord)
        for x, y, v in ((i, k, 1), (j, l, 1), (i, l, 0), (j, k, 0)):
            hi, lo = max(x, y), min(x, y)
            self._a[x, y] = self._a[y, x] = self._lower[hi, lo] = v
            self._left[hi] += 2 * v - 1
        rows = np.array((i, j, k, l))
        a = self._a[rows]
        through = a.cumsum(axis=1)  # P_r + a_r, and deg_r - S_r
        self._q[rows] = a * (through - 1)
        deg_r, left_r = self._degrees[rows, None], self._left[rows, None]
        deg_b, left_b = self._degrees, self._left
        # axis 0: switched row r; axis 1: every row b
        stack = self._stack
        np.multiply(1 - a, deg_r - through, out=stack[:4])
        stack[4:8] = a
        np.multiply(a, self._cols > rows[:, None], out=stack[8:])
        by_a = stack @ self._a
        by_q_lower = a @ self._q_lower.T
        n = deg_b.size
        # sum_k a_bk (1-a_rk) S_r(k) - sum_l a_rl Q_bl
        mixed = by_a[:4] - by_q_lower[:, :n]
        common = by_a[4:8]
        # common neighbours right of r plus those left of b
        split = by_a[8:] + by_q_lower[:, n:]
        pairs = common * (common - 1) * 0.5
        # b > r: the pair is (r, b); b < r: the pair is (b, r)
        r_first = mixed + pairs - a * (deg_r - left_r - 1 + left_b - split)
        r_second = pairs - mixed + deg_r * deg_b - common * (deg_b + deg_r - 1)
        r_second -= a * (left_r - 1 + deg_b - left_b - 2 * common + split)
        for r, first, second in zip(rows.tolist(), r_first, r_second):
            self.counts[r, r + 1 :] = first[r + 1 :]
            self.counts[:r, r] = second[:r]


def apply_sym_switch(G: Graph, coord, direction: str) -> Graph:
    """Apply a symmetric switch, preserving degrees and simplicity."""
    adj = G.writable_adj()
    sym_switch_inplace(adj, coord, direction)
    return Graph._wrap(adj)


def sym_switch_inplace(adj: np.ndarray, coord, direction: str) -> None:
    sw = binmat.as_switch(coord)
    if len({sw.i, sw.j, sw.k, sw.l}) != 4:
        raise InvalidSwitch(f"graph switch vertices must be distinct: {tuple(sw)}")
    n = adj.shape[0]
    if sw.j > n or sw.l > n:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {n} vertices")
    i, j, k, l = sw.i - 1, sw.j - 1, sw.k - 1, sw.l - 1
    if direction == POSITIVE:
        ok = adj[i, k] == 0 and adj[i, l] == 1 and adj[j, k] == 1 and adj[j, l] == 0
    elif direction == NEGATIVE:
        ok = adj[i, k] == 1 and adj[i, l] == 0 and adj[j, k] == 0 and adj[j, l] == 1
    else:
        raise ValueError(f"unknown direction {direction!r}")
    if not ok:
        raise InvalidSwitch(
            f"no {'negative' if direction == POSITIVE else 'positive'} "
            f"symmetric checkerboard at {tuple(sw)}"
        )
    for a, b in ((i, k), (j, l), (i, l), (j, k)):
        adj[a, b] = 1 - adj[a, b]
        adj[b, a] = adj[a, b]


def m2_switch_delta(degrees: np.ndarray, coord) -> int:
    """Change of the second Zagreb index under a positive switch."""
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


def jacobi_eigenvalues(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> np.ndarray:
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
    for _ in range(max_sweeps):
        off_part = a - np.diag(np.diagonal(a))
        if math.sqrt(float((off_part * off_part).sum())) <= tol * scale:
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

    Constructive: realise the margins, then walk positive switches to the
    sink of the switch order; by uniqueness the sink is the split zebra
    whenever one exists.  Raises :class:`InfeasibleMargins` when the
    margins are unrealisable or their class has no split member.
    """
    A = binmat.from_margins(R, C)
    bits = A.writable_bits()
    while (boards := binmat.board_coords(bits, NEGATIVE)).size:
        binmat.switch_bits_inplace(bits, boards[0], POSITIVE)
    result = BinaryMatrix(bits)
    cls = binmat.classify(result)
    if cls.is_split_zebra or cls.is_split_anti_zebra:
        return result
    raise InfeasibleMargins(
        "margins admit no split zebra or split anti-zebra"
    )
