"""Exhaustive small-instance ground truth.

Enumerates every binary matrix with given margins (and every labelled
simple graph with a given degree vector), builds the directed switch
graph on the class explicitly, and verifies the structural laws the rest
of the package relies on: acyclicity and connectivity, the exact
potential increment per arc, uniqueness of split-zebra sinks, necessity
and sufficiency of the reachability conditions, and that the spectral
radius is maximised at a sink.  Everything here is deliberately brute
force; caps keep runtimes at desk scale.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import binmat, reach
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from .errors import InternalInvariantViolation, MarginSumMismatch, NonGraphical
from .graph import Graph, dense_spectral_radius, spectral_radius, sym_board_coords

# ---------------------------------------------------------------------------
# Margin-class enumeration
# ---------------------------------------------------------------------------


def iter_margin_matrices(R: Sequence[int], C: Sequence[int]) -> Iterator[np.ndarray]:
    """All binary matrices with row sums R and column sums C, each a new
    read-only (p, q) int8 array.

    Row-wise backtracking into one running byte array, copied once per
    member (a byte write costs a fraction of a numpy indexed write at these
    sizes): each row picks a column subset of the right size, pruning on
    remaining column demand.  Members come lexicographically in their
    rows' column sets: by row 0's sorted tuple of columns, then row 1's,
    and so on (not in byte order).  Yields nothing when the margins are
    infeasible, and the one matrix with no cells when R or C is empty.
    """
    R = [int(x) for x in R]
    C = [int(x) for x in C]
    if min(R, default=0) < 0 or min(C, default=0) < 0:
        raise ValueError("margins must be non-negative")
    if sum(R) != sum(C):
        raise MarginSumMismatch(f"margin sums differ: {sum(R)} != {sum(C)}")
    p, q = len(R), len(C)
    rem = C[:]
    cells = bytearray(p * q)  # the running member, row-major

    def rec(level: int) -> Iterator[np.ndarray]:
        if level == p:  # the prune left every column's demand at 0
            yield np.frombuffer(bytes(cells), dtype=np.int8).reshape(p, q)
            return
        for combo in itertools.combinations([j for j in range(q) if rem[j]], R[level]):
            for j in combo:
                rem[j] -= 1
                cells[level * q + j] = 1
            if max(rem, default=0) < p - level:  # no column needs more rows than are left
                yield from rec(level + 1)
            for j in combo:
                rem[j] += 1
                cells[level * q + j] = 0

    yield from rec(0)


def _read_only_stack(members: list[np.ndarray], p: int, q: int) -> np.ndarray:
    stack = np.array(members, dtype=np.int8).reshape(len(members), p, q)
    stack.setflags(write=False)
    return stack


def enumerate_margins(R, C) -> np.ndarray:
    """The class as one read-only (N, p, q) stack, in the iterator's order."""
    return _read_only_stack(list(iter_margin_matrices(R, C)), len(R), len(C))


def count_margin_class(R, C, cap: int | None = None) -> int | None:
    """Class size, or None once the count exceeds ``cap``."""
    count = 0
    for _ in iter_margin_matrices(R, C):
        count += 1
        if cap is not None and count > cap:
            return None
    return count


# ---------------------------------------------------------------------------
# The directed switch graph on a margin class
# ---------------------------------------------------------------------------


@dataclass
class MatrixClassDAG:
    """Explicit switch order on one whole class, whose members are the
    (N, p, q) 0/1 stack ``bits``: a margin class from ``build_dag``, or a
    degree class of adjacency matrices (N, n, n) from ``build_graph_dag``.

    ``arcs[v]`` lists (destination index, switch coordinate) for every
    positive switch leaving member ``bits[v]``, in lexicographic switch
    order.  Sinks have no arc out, sources no arc in.
    """

    bits: np.ndarray
    arcs: list[list[tuple[int, Switch]]]
    sources: list[int] = field(default_factory=list)
    sinks: list[int] = field(default_factory=list)

    @property
    def arc_count(self) -> int:
        return sum(len(a) for a in self.arcs)


def _class_dag(bits: np.ndarray, list_boards, mirrored: bool) -> MatrixClassDAG:
    """Arcs over a whole class from its stacked ``bits``.

    ``list_boards(stack)`` lists the negative boards of a stack of members
    as rows (member, i, j, k, l), like :func:`binmat.board_coords`.  Each
    arc's destination is its member with the board switched to positive,
    made in one stacked copy (with the mirrored cells too when
    ``mirrored``, for graphs) and looked up among the members' sorted
    bytes.  Members are taken in chunks of ``binmat._BLOCK_CELLS // (16 *
    (pq)**2)``, so the listed boards and copies stay bounded: every margin
    class with p, q <= 4 is one chunk, and a degree class with n = 7 is
    one chunk per 27 graphs.
    """
    n = len(bits)
    size = bits.shape[1] * bits.shape[2]
    as_bytes = np.dtype((np.void, size))  # int8: one byte per cell, row-major
    keys = bits.reshape(n, size).view(as_bytes).ravel()
    order = np.argsort(keys)
    ordered = keys[order]
    arcs: list[list[tuple[int, Switch]]] = [[] for _ in range(n)]
    entered = np.zeros(n, dtype=bool)
    # per member the lister's mask has size**2 cells and finds at most
    # size**2 / 4 boards of 40 bytes, so 16 * size**2 bytes bound its scratch
    step = max(1, binmat._BLOCK_CELLS // (16 * max(size, 1) ** 2))
    for start in range(0, n, step):
        boards = list_boards(bits[start : start + step])
        src, i, j, k, l = (boards - (-start, 1, 1, 1, 1)).T
        switched = bits[src]
        arc = np.arange(len(boards))
        cells = [(i, k, 1), (j, l, 1), (i, l, 0), (j, k, 0)]
        if mirrored:
            cells += [(c, r, v) for r, c, v in cells]
        for r, c, v in cells:
            switched[arc, r, c] = v
        found = switched.reshape(len(boards), size).view(as_bytes).ravel()
        pos = np.minimum(np.searchsorted(ordered, found), n - 1)
        if (ordered[pos] != found).any():
            raise InternalInvariantViolation("a switched member is not in the class")
        dests = order[pos]
        # in a closed class each positive board of a member is the far end
        # of exactly one arc, so the sources are the members never entered
        entered[dests] = True
        for v, dest, *coord in zip(src.tolist(), dests.tolist(), *boards[:, 1:].T.tolist()):
            arcs[v].append((dest, Switch(*coord)))
    sinks = [v for v, out in enumerate(arcs) if not out]
    return MatrixClassDAG(bits, arcs, np.flatnonzero(~entered).tolist(), sinks)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` over the rows of a 2-D array, each row compared as its
    bytes: (distinct rows, first index of each, label of every row)."""
    rows = np.ascontiguousarray(rows)
    whole = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    distinct, first, label = np.unique(whole, return_index=True, return_inverse=True)
    return distinct.view(rows.dtype).reshape(-1, rows.shape[1]), first, label.ravel()


def _int8_stack(stack) -> np.ndarray:
    """``stack`` as int8, once it is checked to be an (N, p, q) 0/1 stack."""
    arr = np.asarray(stack)
    if arr.ndim != 3 or ((arr != 0) & (arr != 1)).any():
        raise ValueError(f"expected an (N, p, q) stack of 0/1 entries, got shape {arr.shape}")
    return arr.astype(np.int8, copy=False)


def build_dag(stack: np.ndarray) -> MatrixClassDAG:
    """Arcs from exhaustive checkerboard enumeration over a whole class,
    the (N, p, q) 0/1 ``stack``."""
    bits = _int8_stack(stack)
    if any((sums != sums[:1]).any() for sums in (bits.sum(axis=1), bits.sum(axis=2))):
        raise MarginSumMismatch("matrices do not share margins")
    return _class_dag(bits, lambda part: binmat.board_coords(part, NEGATIVE), mirrored=False)


def topological_order(dag: MatrixClassDAG) -> list[int] | None:
    """Kahn's algorithm; None when a cycle exists."""
    n = len(dag.bits)
    indeg = [0] * n
    for out in dag.arcs:
        for dest, _ in out:
            indeg[dest] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while queue:
        v = queue.popleft()
        order.append(v)
        for dest, _ in dag.arcs[v]:
            indeg[dest] -= 1
            if indeg[dest] == 0:
                queue.append(dest)
    return order if len(order) == n else None


def underlying_connected(dag: MatrixClassDAG) -> bool:
    n = len(dag.bits)
    if n == 0:
        return True
    neigh: list[set[int]] = [set() for _ in range(n)]
    for v, out in enumerate(dag.arcs):
        for dest, _ in out:
            neigh[v].add(dest)
            neigh[dest].add(v)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in neigh[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == n


def reachability_closure(dag: MatrixClassDAG) -> list[int]:
    """Descendant bitmask per vertex (bit v set in closure[v])."""
    order = topological_order(dag)
    if order is None:
        raise ValueError("closure of a cyclic graph requested")
    closure = [0] * len(dag.bits)
    for v in reversed(order):
        mask = 1 << v
        for dest, _ in dag.arcs[v]:
            mask |= closure[dest]
        closure[v] = mask
    return closure


def verify_dag_structure(dag: MatrixClassDAG) -> tuple[dict, list[str]]:
    """Structural laws of one class: acyclicity, connectivity, the exact
    potential increment per arc, split-zebra unique sink, complement
    unique source, and the singleton criterion.

    Returns ``checks``, each law's verdict under the name ``enumerate``
    prints, and ``failures``, one line per broken law; the class passes
    exactly when ``failures`` is empty.  The last three checks read
    "pass", "fail" or, with no split or complement member, "vacuous".
    """
    checks: dict = {
        "acyclic": topological_order(dag) is not None,
        "connected": underlying_connected(dag),
    }
    failures: list[str] = []
    if not checks["acyclic"]:
        failures.append("cycle detected")
    if not checks["connected"]:
        failures.append("underlying graph disconnected")

    pots = binmat.potentials(dag.bits).tolist()
    broken = []
    for v, out in enumerate(dag.arcs):
        for dest, sw in out:
            delta = pots[dest] - pots[v]
            if delta != (sw.j - sw.i) * (sw.l - sw.k) or delta <= 0:
                broken.append(f"potential law broken on arc {v}->{dest} via {tuple(sw)}")
    checks["potential_law"] = not broken
    failures += broken

    flags = binmat.class_flags(dag.bits)
    split = flags["zebra_split_h"] | flags["zebra_split_v"]
    split |= flags["anti_zebra_split_h"] | flags["anti_zebra_split_v"]
    for name, kind, mask, ends, end_kind in (
        ("unique_sink", "split", split, dag.sinks, "sinks"),
        ("unique_source", "complement-of-split", flags["complement_of_split"], dag.sources,
         "sources"),
    ):
        members = np.flatnonzero(mask).tolist()
        if not members:
            checks[name] = "vacuous"
        elif len(members) == 1 and ends == members:
            checks[name] = "pass"
        else:
            checks[name] = "fail"
            failures.append(f"{kind} members {members} vs {end_kind} {ends}")

    # Singleton criterion: a class is a singleton exactly when some member
    # has no checkerboard at all (no arc out and no arc in); such a member
    # is nested once rows and columns are ordered by non-increasing sums.
    free = set(dag.sinks).intersection(dag.sources)
    problem = ""
    if len(dag.bits) != 1:
        if free:
            problem = f"checkerboard-free member in a class of {len(dag.bits)}"
    elif not free:
        problem = "singleton class whose member has checkerboards"
    else:
        m = dag.bits[0]
        row_order = np.argsort(-m.sum(axis=1), kind="stable")
        col_order = np.argsort(-m.sum(axis=0), kind="stable")
        if not binmat.is_nested(m[np.ix_(row_order, col_order)]):
            problem = "singleton member not nested after degree reordering"
    checks["singleton_nested"] = "fail" if problem else "pass"
    if problem:
        failures.append(problem)
    return checks, failures


# ---------------------------------------------------------------------------
# Reachability ground truth
# ---------------------------------------------------------------------------


def bfs_directed_path(A: BinaryMatrix, A2: BinaryMatrix) -> list[Switch] | None:
    """Breadth-first search over positive switches from A; None when A2 is
    not reachable.  Deterministic: switches expand in lexicographic order."""
    target = A2.key()
    start = A.key()
    if start == target:
        return []
    parents: dict[bytes, tuple[bytes, Switch]] = {start: (b"", Switch(1, 2, 1, 2))}
    frontier = deque([A])
    while frontier:
        mat = frontier.popleft()
        here = mat.key()
        for cb in binmat.find_checkerboards(mat, NEGATIVE):
            nxt = binmat.apply_switch(mat, cb.coord, POSITIVE)
            key = nxt.key()
            if key in parents:
                continue
            parents[key] = (here, cb.coord)
            if key == target:
                path = []
                cursor = key
                while cursor != start:
                    prev, sw = parents[cursor]
                    path.append(sw)
                    cursor = prev
                path.reverse()
                return path
            frontier.append(nxt)
    return None


@dataclass
class ConjectureRecord:
    """Evidence row for one difference matrix within one class."""

    diff_key: bytes
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    pairs: int
    reachable_pairs: int
    example_pair: tuple[int, int]

    @property
    def forward_counterexample(self) -> bool:
        # conditions (i) and (ii) hold yet some realising pair is unreachable
        return self.cond_i and self.cond_ii and self.reachable_pairs < self.pairs

    @property
    def backward_counterexample(self) -> bool:
        # every realising pair is reachable yet condition (ii) fails
        return self.cond_i and not self.cond_ii and self.reachable_pairs == self.pairs


@dataclass
class ReachabilityReport:
    """``checks`` holds "necessity" and "sufficiency", and the class passes
    exactly when ``failures``, one line per failing pair, is empty."""

    pairs: int
    checks: dict[str, bool]
    failures: list[str] = field(default_factory=list)
    conjecture: list[ConjectureRecord] = field(default_factory=list)


def verify_reachability(dag: MatrixClassDAG) -> ReachabilityReport:
    """Compare condition predicates against the ground truth of
    ``reachability_closure`` on all ordered pairs of the class; log
    per-difference conjecture evidence.

    T(A_b - A_a) is the difference of the members' prefix sums, so
    condition (i) is decided for all pairs (a, b) at once, in blocks of rows
    a; conditions (ii) and (iii) depend on T alone and are evaluated once
    per distinct T, by ``reach.grid_conditions``.  The result is that of one
    loop over a, then b (a != b): records appear in the order their T first
    occurs, ``example_pair`` is that first pair, and failures of both kinds
    are interleaved in (a, b) order.
    """
    n, p, q = dag.bits.shape
    if n < 2:
        return ReachabilityReport(0, {"necessity": True, "sufficiency": True})
    closure = reachability_closure(dag)
    cells = (p - 1) * (q - 1)
    psums = dag.bits.astype(np.int64).cumsum(axis=1).cumsum(axis=2)[:, : p - 1, : q - 1]
    # prefix sums and every entry of T lie in [-pq, pq]: the smallest signed
    # type that holds them keeps the pair blocks small; records keep int64
    psums = psums.reshape(n, cells).astype(np.min_scalar_type(-p * q - 1))
    width = (n + 7) // 8
    checks = {"necessity": True, "sufficiency": True}
    failures: list[str] = []
    groups: dict[bytes, ConjectureRecord] = {}
    rows = max(1, binmat._BLOCK_CELLS // (n * cells))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        # t_vals[a - start, b] is T(A_b - A_a), flattened
        t_vals = psums[None, :, :] - psums[start:stop, None, :]
        cond_i = (t_vals >= 0).all(axis=2)
        masks = b"".join(mask.to_bytes(width, "little") for mask in closure[start:stop])
        reachable = np.unpackbits(
            np.frombuffer(masks, dtype=np.uint8).reshape(stop - start, width),
            axis=1, count=n, bitorder="little",
        ).astype(bool)
        own = np.arange(stop - start)
        reachable[own, own + start] = False  # a == b is no pair
        cond_i[own, own + start] = False
        necessity = reachable & ~cond_i
        # distinct T of the block, taken in the order they first occur
        fits = np.flatnonzero(cond_i)
        distinct, first, inverse = _distinct_rows(t_vals.reshape(-1, cells)[fits])
        pairs = np.bincount(inverse, minlength=len(distinct)).tolist()
        reached = np.bincount(inverse[reachable.ravel()[fits]], minlength=len(distinct)).tolist()
        distinct = distinct.astype(np.int64)
        order = np.argsort(first, kind="stable").tolist()
        keys = [distinct[g].tobytes() for g in order]
        new = [(g, key) for g, key in zip(order, keys) if key not in groups]
        grids = distinct[[g for g, _ in new]].reshape(len(new), p - 1, q - 1)
        _, cond_ii, cond_iii = reach.grid_conditions(grids)
        for (g, key), ii, iii in zip(new, cond_ii.tolist(), cond_iii.tolist()):
            a, b = divmod(int(fits[first[g]]), n)
            groups[key] = ConjectureRecord(
                diff_key=key,
                cond_i=True,
                cond_ii=ii,
                cond_iii=iii,
                pairs=0,
                reachable_pairs=0,
                example_pair=(start + a, b),
            )
        holds = np.empty(len(distinct), dtype=bool)
        for g, key in zip(order, keys):
            rec = groups[key]
            rec.pairs += pairs[g]
            rec.reachable_pairs += reached[g]
            holds[g] = rec.cond_ii and rec.cond_iii
        sufficiency = np.zeros_like(cond_i)
        sufficiency.ravel()[fits] = holds[inverse]
        sufficiency &= ~reachable
        checks["necessity"] &= not necessity.any()
        checks["sufficiency"] &= not sufficiency.any()
        for a, b in np.argwhere(necessity | sufficiency).tolist():
            if necessity[a, b]:
                failures.append(f"pair ({start + a},{b}): reachable but T has negatives")
            else:
                failures.append(
                    f"pair ({start + a},{b}): conditions (i)-(iii) hold but BFS finds no path"
                )
    return ReachabilityReport(n * (n - 1), checks, failures, list(groups.values()))


# ---------------------------------------------------------------------------
# Degree classes of simple graphs
# ---------------------------------------------------------------------------


def is_graphical(D: Sequence[int]) -> bool:
    """Erdos-Gallai feasibility test for a degree sequence."""
    d = sorted((int(x) for x in D), reverse=True)
    n = len(d)
    if n == 0:
        return True
    if d[0] > n - 1 or d[-1] < 0 or sum(d) % 2:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += d[k - 1]
        tail = sum(min(x, k) for x in d[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def iter_degree_class(D: Sequence[int]) -> Iterator[np.ndarray]:
    """All labelled simple graphs whose degree vector is exactly D, each a
    new (n, n) int8 adjacency matrix.

    Vertex-wise backtracking into one running matrix: each vertex in turn
    picks the later vertices it still needs as neighbours.  Members come
    lexicographically in each vertex's later neighbours: by vertex 0's
    sorted tuple of neighbours after it, then vertex 1's, and so on (not
    in byte order).  D must be non-increasing (the degree-sorted
    convention the switch sign relies on).  Raises :class:`NonGraphical`
    for unrealisable sequences.
    """
    D = [int(x) for x in D]
    if any(D[i] < D[i + 1] for i in range(len(D) - 1)):
        raise ValueError("degree sequence must be non-increasing")
    if not is_graphical(D):
        raise NonGraphical(f"sequence {D} is not graphical")
    n = len(D)
    adj = np.zeros((n, n), dtype=np.int8)
    rem = D[:]

    def rec(v: int) -> Iterator[np.ndarray]:
        while v < n and rem[v] == 0:
            v += 1
        if v == n:
            yield adj.copy()
            return
        partners = [u for u in range(v + 1, n) if rem[u] > 0]
        if rem[v] > len(partners):
            return
        for combo in itertools.combinations(partners, rem[v]):
            need = rem[v]
            rem[v] = 0
            for u in combo:
                rem[u] -= 1
                adj[v, u] = adj[u, v] = 1
            yield from rec(v + 1)
            for u in combo:
                rem[u] += 1
                adj[v, u] = adj[u, v] = 0
            rem[v] = need

    yield from rec(0)


def enumerate_degree_class(D: Sequence[int]) -> np.ndarray:
    """The class as one read-only (N, n, n) stack, in the iterator's order."""
    return _read_only_stack(list(iter_degree_class(D)), len(D), len(D))


def build_graph_dag(stack: np.ndarray) -> MatrixClassDAG:
    """Directed switch graph on a whole degree class, the (N, n, n) stack
    of its adjacency matrices: the arcs are the symmetric switches."""
    bits = _int8_stack(stack)
    if bits.shape[1] != bits.shape[2] or (bits != bits.transpose(0, 2, 1)).any():
        raise ValueError("adjacency must be square and symmetric")
    if bits.diagonal(axis1=1, axis2=2).any():
        raise ValueError("adjacency diagonal must be zero (no loops)")
    if (np.diff(bits.sum(axis=2), axis=1) > 0).any():
        raise ValueError("graph operations expect degree-sorted vertices")
    return _class_dag(bits, lambda part: sym_board_coords(part, NEGATIVE), mirrored=True)


@dataclass
class SpectralSinkReport:
    """``checks`` holds "max_at_sink" and "eigenvector_order", and the class
    passes exactly when ``failures`` is empty."""

    max_lambda: float
    max_lambda_at_sinks: float
    checks: dict[str, bool]
    failures: list[str] = field(default_factory=list)


# How far below the class maximum a spectral radius still counts as the
# maximum, and how far a principal-eigenvector entry may fall below one of
# smaller degree.
_LAMBDA_TOL = 1e-9
_EIGVEC_TOL = 1e-7


def verify_spectral_max_at_sink(dag: MatrixClassDAG) -> SpectralSinkReport:
    """Check that the largest spectral radius of the degree class in
    ``dag`` (from ``build_graph_dag``, so its ``bits`` are adjacency
    matrices) is attained at one of its sinks, up to ``_LAMBDA_TOL``, using
    the independent Jacobi eigensolver for every member.

    Also checks, at every global maximiser, that principal-eigenvector
    entries respect the degree order (larger degree never gets a smaller
    entry, up to ``_EIGVEC_TOL``).
    """
    if not len(dag.bits):
        raise ValueError("empty degree class")
    D = tuple(dag.bits[0].sum(axis=1).tolist())
    lams = [dense_spectral_radius(adj) for adj in dag.bits]
    sink_lams = [lams[v] for v in dag.sinks]
    max_all = max(lams)
    max_sinks = max(sink_lams) if sink_lams else float("-inf")
    checks = {"max_at_sink": bool(sink_lams) and max_sinks >= max_all - _LAMBDA_TOL}
    failures: list[str] = []
    if not checks["max_at_sink"]:
        failures.append(f"max lambda {max_all} vs best sink {max_sinks} for D={D}")
    misordered: list[str] = []
    for adj, lam in zip(dag.bits, lams):
        if lam < max_all - _LAMBDA_TOL:
            continue
        x = spectral_radius(Graph(adj)).eigvec
        d = adj.sum(axis=1)
        for i in range(len(adj)):
            for j in range(len(adj)):
                if d[i] > d[j] and x[i] < x[j] - _EIGVEC_TOL:
                    misordered.append(
                        f"maximiser for D={D}: deg {int(d[i])}>{int(d[j])} "
                        f"but x[{i}]={x[i]:.6g} < x[{j}]={x[j]:.6g}"
                    )
    checks["eigenvector_order"] = not misordered
    return SpectralSinkReport(max_all, max_sinks, checks, failures + misordered)
