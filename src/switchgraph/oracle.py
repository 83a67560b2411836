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


def iter_margin_matrices(R: Sequence[int], C: Sequence[int]) -> Iterator[BinaryMatrix]:
    """All binary matrices with row sums R and column sums C, lexicographic.

    Row-wise backtracking: each row picks a column subset of the right
    size, pruning on remaining column demand.  Yields nothing when the
    margins are infeasible.
    """
    R = [int(x) for x in R]
    C = [int(x) for x in C]
    if min(R, default=0) < 0 or min(C, default=0) < 0:
        raise ValueError("margins must be non-negative")
    if sum(R) != sum(C):
        raise MarginSumMismatch(f"margin sums differ: {sum(R)} != {sum(C)}")
    p, q = len(R), len(C)
    if p == 0 or q == 0:
        return
    rem = C[:]
    rows: list[tuple[int, ...]] = []

    def feasible(level: int) -> bool:
        rows_left = p - level
        return all(r <= rows_left for r in rem)

    def rec(level: int) -> Iterator[BinaryMatrix]:
        if level == p:
            if all(r == 0 for r in rem):
                arr = np.zeros((p, q), dtype=np.int8)
                for i, cols in enumerate(rows):
                    arr[i, list(cols)] = 1
                yield BinaryMatrix._wrap(arr)
            return
        need = R[level]
        candidates = [j for j in range(q) if rem[j] > 0]
        if need > len(candidates):
            return
        for combo in itertools.combinations(candidates, need):
            for j in combo:
                rem[j] -= 1
            rows.append(combo)
            if feasible(level + 1):
                yield from rec(level + 1)
            rows.pop()
            for j in combo:
                rem[j] += 1

    yield from rec(0)


def enumerate_margins(R, C) -> list[BinaryMatrix]:
    return list(iter_margin_matrices(R, C))


def count_margin_class(R, C, cap: int | None = None) -> int | None:
    """Class size, or None once the count exceeds ``cap``."""
    count = 0
    for _ in iter_margin_matrices(R, C):
        count += 1
        if cap is not None and count > cap:
            return None
    return count


def margin_space(max_p: int, max_q: int, max_entry: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every margin pair with p <= max_p, q <= max_q, entries <= max_entry.

    Only pairs with matching totals are yielded; infeasible pairs simply
    enumerate to the empty class.
    """
    for p in range(1, max_p + 1):
        for q in range(1, max_q + 1):
            rows_by_sum: dict[int, list[tuple[int, ...]]] = {}
            for R in itertools.product(range(min(max_entry, q) + 1), repeat=p):
                rows_by_sum.setdefault(sum(R), []).append(R)
            for C in itertools.product(range(min(max_entry, p) + 1), repeat=q):
                for R in rows_by_sum.get(sum(C), ()):
                    yield R, C


# ---------------------------------------------------------------------------
# The directed switch graph on a margin class
# ---------------------------------------------------------------------------


@dataclass
class MatrixClassDAG:
    """Explicit switch order on one whole class: a margin class from
    ``build_dag``, or a degree class of ``Graph`` members (each a
    symmetric ``BinaryMatrix``) from ``build_graph_dag``.

    ``arcs[v]`` lists (destination index, switch coordinate) for every
    positive switch leaving member ``matrices[v]``, in lexicographic switch
    order, and ``bits`` stacks the members' bits as one (N, p, q) array.
    Sinks have no arc out, sources no arc in.
    """

    matrices: list[BinaryMatrix]
    arcs: list[list[tuple[int, Switch]]]
    bits: np.ndarray
    sources: list[int] = field(default_factory=list)
    sinks: list[int] = field(default_factory=list)

    @property
    def arc_count(self) -> int:
        return sum(len(a) for a in self.arcs)


def _class_dag(members: list, bits: np.ndarray, list_boards, mirrored: bool) -> MatrixClassDAG:
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
    n = len(members)
    size = bits.shape[1] * bits.shape[2]
    as_bytes = np.dtype((np.void, size))  # int8: one byte per cell, as in key()
    keys = bits.reshape(n, size).view(as_bytes).ravel()
    order = np.argsort(keys)
    ordered = keys[order]
    arcs: list[list[tuple[int, Switch]]] = [[] for _ in members]
    entered = np.zeros(n, dtype=bool)
    # per member the lister's mask has size**2 cells and finds at most
    # size**2 / 4 boards of 40 bytes, so 16 * size**2 bytes bound its scratch
    step = max(1, binmat._BLOCK_CELLS // (16 * size * size))
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
    return MatrixClassDAG(members, arcs, bits, np.flatnonzero(~entered).tolist(), sinks)


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique`` over the rows of a 2-D array, each row compared as its
    bytes: (distinct rows, first index of each, label of every row)."""
    rows = np.ascontiguousarray(rows)
    whole = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    distinct, first, label = np.unique(whole, return_index=True, return_inverse=True)
    return distinct.view(rows.dtype).reshape(-1, rows.shape[1]), first, label.ravel()


def _stack(members: list) -> np.ndarray:
    if not members:
        return np.zeros((0, 1, 1), dtype=np.int8)
    return np.stack([m.bits for m in members])


def build_dag(matrices: Sequence[BinaryMatrix]) -> MatrixClassDAG:
    """Arcs from exhaustive checkerboard enumeration over a whole class."""
    mats = list(matrices)
    if len({(m.row_sums.tobytes(), m.col_sums.tobytes()) for m in mats}) > 1:
        raise MarginSumMismatch("matrices do not share margins")
    return _class_dag(
        mats, _stack(mats), lambda part: binmat.board_coords(part, NEGATIVE), mirrored=False
    )


def topological_order(dag: MatrixClassDAG) -> list[int] | None:
    """Kahn's algorithm; None when a cycle exists."""
    n = len(dag.matrices)
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
    n = len(dag.matrices)
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
    closure = [0] * len(dag.matrices)
    for v in reversed(order):
        mask = 1 << v
        for dest, _ in dag.arcs[v]:
            mask |= closure[dest]
        closure[v] = mask
    return closure


@dataclass
class DagStructureReport:
    acyclic: bool
    connected: bool
    potential_law: bool
    unique_sink: str  # "pass" | "vacuous" | "fail"
    unique_source: str
    singleton_nested: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.acyclic
            and self.connected
            and self.potential_law
            and "fail" not in (self.unique_sink, self.unique_source, self.singleton_nested)
        )


def verify_dag_structure(dag: MatrixClassDAG) -> DagStructureReport:
    """Structural laws of one class: acyclicity, connectivity, the exact
    potential increment per arc, split-zebra unique sink, complement
    unique source, and the singleton criterion."""
    failures: list[str] = []
    acyclic = topological_order(dag) is not None
    if not acyclic:
        failures.append("cycle detected")
    connected = underlying_connected(dag)
    if not connected:
        failures.append("underlying graph disconnected")

    potential_law = True
    pots = binmat.potentials(dag.bits).tolist()
    for v, out in enumerate(dag.arcs):
        for dest, sw in out:
            delta = pots[dest] - pots[v]
            if delta != (sw.j - sw.i) * (sw.l - sw.k) or delta <= 0:
                potential_law = False
                failures.append(f"potential law broken on arc {v}->{dest} via {tuple(sw)}")

    flags = binmat.class_flags(dag.bits)
    split = flags["zebra_split_h"] | flags["zebra_split_v"]
    split |= flags["anti_zebra_split_h"] | flags["anti_zebra_split_v"]
    split_members = np.flatnonzero(split).tolist()
    if not split_members:
        unique_sink = "vacuous"
    elif len(split_members) == 1 and dag.sinks == split_members:
        unique_sink = "pass"
    else:
        unique_sink = "fail"
        failures.append(
            f"split members {split_members} vs sinks {dag.sinks}"
        )

    comp_members = np.flatnonzero(flags["complement_of_split"]).tolist()
    if not comp_members:
        unique_source = "vacuous"
    elif len(comp_members) == 1 and dag.sources == comp_members:
        unique_source = "pass"
    else:
        unique_source = "fail"
        failures.append(
            f"complement-of-split members {comp_members} vs sources {dag.sources}"
        )

    # Singleton criterion: a class is a singleton exactly when some member
    # has no checkerboard at all (no arc out and no arc in); such a member
    # is nested once rows and columns are ordered by non-increasing sums.
    free = set(dag.sinks).intersection(dag.sources)
    singleton_nested = "pass"
    if len(dag.matrices) == 1:
        if not free:
            singleton_nested = "fail"
            failures.append("singleton class whose member has checkerboards")
        else:
            m = dag.matrices[0]
            row_order = np.argsort(-m.row_sums, kind="stable")
            col_order = np.argsort(-m.col_sums, kind="stable")
            sorted_bits = m.bits[np.ix_(row_order, col_order)]
            if not binmat.is_nested(sorted_bits):
                singleton_nested = "fail"
                failures.append("singleton member not nested after degree reordering")
    elif free:
        singleton_nested = "fail"
        failures.append(f"checkerboard-free member in a class of {len(dag.matrices)}")

    return DagStructureReport(
        acyclic, connected, potential_law, unique_sink, unique_source,
        singleton_nested, failures,
    )


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

    margins: tuple[tuple[int, ...], tuple[int, ...]]
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
    pairs: int
    necessity_ok: bool
    sufficiency_ok: bool
    failures: list[str] = field(default_factory=list)
    conjecture: list[ConjectureRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.necessity_ok and self.sufficiency_ok


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
    mats = dag.matrices
    n = len(mats)
    if n < 2:
        return ReachabilityReport(0, True, True)
    closure = reachability_closure(dag)
    margins = binmat.row_col_sums(mats[0])
    _, p, q = dag.bits.shape
    cells = (p - 1) * (q - 1)
    psums = dag.bits.astype(np.int64).cumsum(axis=1).cumsum(axis=2)[:, : p - 1, : q - 1]
    # prefix sums and every entry of T lie in [-pq, pq]: the smallest signed
    # type that holds them keeps the pair blocks small; records keep int64
    psums = psums.reshape(n, cells).astype(np.min_scalar_type(-p * q - 1))
    width = (n + 7) // 8
    necessity_ok = True
    sufficiency_ok = True
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
                margins=margins,
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
        necessity_ok &= not necessity.any()
        sufficiency_ok &= not sufficiency.any()
        for a, b in np.argwhere(necessity | sufficiency).tolist():
            if necessity[a, b]:
                failures.append(f"pair ({start + a},{b}): reachable but T has negatives")
            else:
                failures.append(
                    f"pair ({start + a},{b}): conditions (i)-(iii) hold but BFS finds no path"
                )
    total_pairs = n * (n - 1)
    return ReachabilityReport(
        total_pairs, necessity_ok, sufficiency_ok, failures, list(groups.values())
    )


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


def iter_degree_class(D: Sequence[int]) -> Iterator[Graph]:
    """All labelled simple graphs whose degree vector is exactly D.

    D must be non-increasing (the degree-sorted convention the switch sign
    relies on).  Raises :class:`NonGraphical` for unrealisable sequences.
    """
    D = [int(x) for x in D]
    if any(D[i] < D[i + 1] for i in range(len(D) - 1)):
        raise ValueError("degree sequence must be non-increasing")
    if not is_graphical(D):
        raise NonGraphical(f"sequence {D} is not graphical")
    n = len(D)
    adj = np.zeros((n, n), dtype=np.int8)
    rem = D[:]

    def rec(v: int) -> Iterator[Graph]:
        while v < n and rem[v] == 0:
            v += 1
        if v == n:
            yield Graph._wrap(adj.copy())
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


def enumerate_degree_class(D: Sequence[int]) -> list[Graph]:
    return list(iter_degree_class(D))


def build_graph_dag(graphs: Sequence[Graph]) -> MatrixClassDAG:
    """Directed switch graph on a whole degree class: the arcs are the
    symmetric switches, and ``matrices`` are the class's graphs."""
    gs = list(graphs)
    bits = _stack(gs)
    if (np.diff(bits.sum(axis=2), axis=1) > 0).any():
        raise ValueError("graph operations expect degree-sorted vertices")
    return _class_dag(gs, bits, lambda part: sym_board_coords(part, NEGATIVE), mirrored=True)


@dataclass
class SpectralSinkReport:
    degree_sequence: tuple[int, ...]
    class_size: int
    sink_count: int
    max_lambda: float
    max_lambda_at_sinks: float
    max_at_sink: bool
    eigenvector_order_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.max_at_sink and self.eigenvector_order_ok


def verify_spectral_max_at_sink(
    dag: MatrixClassDAG, tol: float = 1e-9, vec_tol: float = 1e-7
) -> SpectralSinkReport:
    """Check that the largest spectral radius of the degree class in
    ``dag`` (from ``build_graph_dag``, so its ``matrices`` are graphs) is
    attained at one of its sinks, using the independent Jacobi eigensolver
    for every member.

    Also checks, at every global maximiser, that principal-eigenvector
    entries respect the degree order (larger degree never gets a smaller
    entry, up to ``vec_tol``).
    """
    gs = dag.matrices
    if not gs:
        raise ValueError("empty degree class")
    D = tuple(int(x) for x in gs[0].degrees)
    lams = [dense_spectral_radius(g.adj) for g in gs]
    sink_lams = [lams[v] for v in dag.sinks]
    max_all = max(lams)
    max_sinks = max(sink_lams) if sink_lams else float("-inf")
    max_at_sink = bool(sink_lams) and max_sinks >= max_all - tol
    failures: list[str] = []
    if not max_at_sink:
        failures.append(
            f"max lambda {max_all} vs best sink {max_sinks} for D={D}"
        )
    vec_ok = True
    for g, lam in zip(gs, lams):
        if lam < max_all - tol:
            continue
        x = spectral_radius(g).eigvec
        d = g.degrees
        for i in range(g.n):
            for j in range(g.n):
                if d[i] > d[j] and x[i] < x[j] - vec_tol:
                    vec_ok = False
                    failures.append(
                        f"maximiser for D={D}: deg {int(d[i])}>{int(d[j])} "
                        f"but x[{i}]={x[i]:.6g} < x[{j}]={x[j]:.6g}"
                    )
    return SpectralSinkReport(
        degree_sequence=D,
        class_size=len(gs),
        sink_count=len(dag.sinks),
        max_lambda=max_all,
        max_lambda_at_sinks=max_sinks,
        max_at_sink=max_at_sink,
        eigenvector_order_ok=vec_ok,
        failures=failures,
    )


def graphical_sequences(n: int) -> Iterator[tuple[int, ...]]:
    """All non-increasing graphical degree sequences on n vertices."""
    for D in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
        if sum(D) % 2 == 0 and is_graphical(D):
            yield D
