"""Simple graphs as symmetric adjacency matrices, and their switch algebra.

For graphs the four switch coordinates must be pairwise distinct vertices
and checkerboards come in symmetric pairs that are switched together; a
switch rewires two edges without touching any degree.  Positive versus
negative is meaningful only relative to a vertex ordering, so the graph
operations expect vertices sorted by non-increasing degree.

Also here: Zagreb indices and the spectral-radius estimate Z2, degree
assortativity, spectral radius by power iteration with an independent
Jacobi eigensolver as cross-check, and the graph generators used by the
switching simulations.  Vertices are 1-based in the public API.
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
    adj = G.adj
    n = G.n
    hi, lo = (1, -1) if sign == POSITIVE else (-1, 1)
    out: list[Switch] = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = adj[i].astype(np.int16) - adj[j]
            d[i] = d[j] = 0
            first = np.flatnonzero(d == hi)
            second = np.flatnonzero(d == lo)
            for k in first:
                for l in second:
                    if l > k and (i, j) <= (int(k), int(l)):
                        out.append(Switch(i + 1, j + 1, int(k) + 1, int(l) + 1))
    out.sort()
    return out


# Scratch elements per block of ``sym_board_pair_counts``: a block of r rows
# holds r * n * n entries, about 8 bytes each.
_BLOCK_CELLS = 1 << 20


def sym_board_pair_counts(
    adj: np.ndarray, sign: str, rows: np.ndarray | None = None
) -> np.ndarray:
    """Boards of the given sign per row pair.

    Without ``rows``: ``counts[i, j]`` = boards (i, j, k, l) with k < l, for
    every row pair i < j (0 on and below the diagonal).  Every symmetric
    switch contributes to exactly two row pairs, so ``counts.sum() // 2`` is
    the number of distinct switches.

    With ``rows`` (0-based indices): ``out[t, b]`` = boards on the row pair
    {rows[t], b}, that is, row ``rows[t]`` plus column ``rows[t]`` of the
    full table, with 0 at b == rows[t].  A switch changes only its four
    rows, so these are the only pairs it can change.

    O(n) per pair.  Rows are taken in blocks of ``_BLOCK_CELLS // n**2``
    (at least one), so scratch stays near 8 MB up to n = 1024 and near
    8 n^2 bytes beyond.
    """
    a = np.asarray(adj, dtype=np.int8)
    n = a.shape[0]
    hi = 1 if sign == POSITIVE else -1
    every = np.arange(n)
    picked = every if rows is None else np.asarray(rows, dtype=np.intp)
    out = np.empty((picked.size, n), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // (n * n))
    for start in range(0, picked.size, step):
        block = picked[start : start + step]
        # d[t, b, k] = a[i, k] - a[j, k] for the pair i < j of {block[t], b},
        # zeroed at k in {i, j}
        d = a[block, None, :] - a
        d *= np.where(every < block[:, None], -1, 1).astype(np.int8)[:, :, None]
        d[np.arange(block.size)[:, None], every, block[:, None]] = 0
        d[:, every, every] = 0
        below = np.cumsum(d == hi, axis=2, dtype=np.int16 if n < 2**15 else np.int32)
        out[start : start + step] = (below * (d == -hi)).sum(axis=2, dtype=np.int64)
    return np.triu(out, k=1) if rows is None else out


def count_sym_checkerboards(adj: np.ndarray, sign: str) -> int:
    """Number of distinct symmetric checkerboards of the given sign."""
    if adj.shape[0] < 4:
        return 0
    return int(sym_board_pair_counts(adj, sign).sum()) // 2


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
    """Largest adjacency eigenvalue plus the degree-based indices."""

    lambda1: float
    eigvec: np.ndarray
    M1: int
    M2: int
    Z1: float
    Z2: float | None
    r: float | None
    converged: bool
    iterations: int
    full_support: bool


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
    lam = ray - 1.0
    d = G.degrees.astype(np.int64)
    m1 = int((d * d).sum())
    m2 = int(d @ G.adj.astype(np.int64) @ d) // 2
    z1 = math.sqrt(m1 / n)
    if G.m > 0:
        z2 = math.sqrt(m2 / G.m)
        r = assortativity(G)
    else:
        z2 = None
        r = None
    return SpectralReport(
        lambda1=lam,
        eigvec=v,
        M1=m1,
        M2=m2,
        Z1=z1,
        Z2=z2,
        r=r,
        converged=converged,
        iterations=iterations,
        full_support=bool((v > 1e-12).all()),
    )


def jacobi_eigenvalues(
    matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    """All eigenvalues/eigenvectors of a symmetric matrix by Jacobi rotations.

    Deliberately independent of the power iteration (and of library
    eigensolvers) so the two spectral routes cross-check each other.
    Returns eigenvalues in non-increasing order and eigenvectors as the
    matching columns.
    """
    a = np.array(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_eigenvalues expects a square matrix")
    if (np.abs(a - a.T) > 1e-12).any():
        raise ValueError("jacobi_eigenvalues expects a symmetric matrix")
    n = a.shape[0]
    vecs = np.eye(n)
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
                rot_p = c * vecs[:, p] - s * vecs[:, q]
                rot_q = s * vecs[:, p] + c * vecs[:, q]
                vecs[:, p], vecs[:, q] = rot_p, rot_q
    vals = np.diagonal(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def dense_spectral_radius(adj: np.ndarray) -> float:
    """Largest eigenvalue via the independent Jacobi solver."""
    vals, _ = jacobi_eigenvalues(np.asarray(adj, dtype=np.float64))
    return float(vals[0])


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
    while True:
        sw = binmat.first_negative_checkerboard(bits)
        if sw is None:
            break
        binmat.switch_bits_inplace(bits, sw, POSITIVE)
    result = BinaryMatrix(bits)
    cls = binmat.classify(result)
    if cls.is_split_zebra or cls.is_split_anti_zebra:
        return result
    raise InfeasibleMargins(
        "margins admit no split zebra or split anti-zebra"
    )
