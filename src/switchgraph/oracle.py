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
from .errors import MarginSumMismatch, NonGraphical
from .graph import (
    Graph,
    dense_spectral_radius,
    find_sym_checkerboards,
    spectral_radius,
    sym_switch_inplace,
)

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

    ``index`` maps a member's ``key()`` to its position, and ``arcs[v]``
    lists (destination index, switch coordinate) for every positive switch
    leaving member ``v``.  Sinks have no arc out, sources no arc in.
    """

    matrices: list[BinaryMatrix]
    index: dict[bytes, int]
    arcs: list[list[tuple[int, Switch]]]
    sources: list[int] = field(default_factory=list)
    sinks: list[int] = field(default_factory=list)

    @property
    def arc_count(self) -> int:
        return sum(len(a) for a in self.arcs)


def _unentered(n: int, arcs: list[list[tuple[int, Switch]]]) -> list[int]:
    """Vertices with no arc in.  In a closed class each positive board of a
    member is the far end of exactly one arc, so these are the members
    without a positive board."""
    entered = [False] * n
    for out in arcs:
        for dest, _ in out:
            entered[dest] = True
    return [v for v in range(n) if not entered[v]]


def _class_dag(members: list, boards, switched) -> MatrixClassDAG:
    """Arcs over a whole class: ``boards(member)`` lists the negative
    boards of a member, and ``switched(member, sw)`` is the ``key()`` of
    the member with ``sw`` switched to positive."""
    index = {m.key(): pos for pos, m in enumerate(members)}
    arcs = [[(index[switched(m, sw)], sw) for sw in boards(m)] for m in members]
    sinks = [v for v, out in enumerate(arcs) if not out]
    return MatrixClassDAG(members, index, arcs, _unentered(len(members), arcs), sinks)


def build_dag(matrices: Sequence[BinaryMatrix]) -> MatrixClassDAG:
    """Arcs from exhaustive checkerboard enumeration over a whole class."""
    mats = list(matrices)
    if len({binmat.row_col_sums(mat) for mat in mats}) > 1:
        raise MarginSumMismatch("matrices do not share margins")
    return _class_dag(
        mats,
        lambda mat: [cb.coord for cb in binmat.find_checkerboards(mat, NEGATIVE)],
        lambda mat, sw: binmat.apply_switch(mat, sw, POSITIVE).key(),
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
    pots = [binmat.potential(m) for m in dag.matrices]
    for v, out in enumerate(dag.arcs):
        for dest, sw in out:
            delta = pots[dest] - pots[v]
            if delta != (sw.j - sw.i) * (sw.l - sw.k) or delta <= 0:
                potential_law = False
                failures.append(f"potential law broken on arc {v}->{dest} via {tuple(sw)}")

    classes = [binmat.classify(m) for m in dag.matrices]
    split_members = [
        v for v, cls in enumerate(classes) if cls.is_split_zebra or cls.is_split_anti_zebra
    ]
    if not split_members:
        unique_sink = "vacuous"
    elif len(split_members) == 1 and dag.sinks == split_members:
        unique_sink = "pass"
    else:
        unique_sink = "fail"
        failures.append(
            f"split members {split_members} vs sinks {dag.sinks}"
        )

    comp_members = [v for v, cls in enumerate(classes) if cls.complement_of_split]
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
    """Compare condition predicates against BFS ground truth on all ordered
    pairs of the class; log per-difference conjecture evidence."""
    mats = dag.matrices
    n = len(mats)
    if n == 0:
        return ReachabilityReport(0, True, True)
    closure = reachability_closure(dag)
    margins = binmat.row_col_sums(mats[0])
    # prefix sums make T(A' - A) a single subtraction per pair
    psums = [
        m.bits.astype(np.int64).cumsum(axis=0).cumsum(axis=1)[: m.p - 1, : m.q - 1]
        for m in mats
    ]
    necessity_ok = True
    sufficiency_ok = True
    failures: list[str] = []
    # conditions (ii) and (iii) depend on T alone: evaluated once per record
    groups: dict[bytes, ConjectureRecord] = {}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            t_vals = psums[b] - psums[a]
            cond_i = bool((t_vals >= 0).all())
            reachable = bool(closure[a] >> b & 1)
            if reachable and not cond_i:
                necessity_ok = False
                failures.append(f"pair ({a},{b}): reachable but T has negatives")
            if not cond_i:
                continue
            key = t_vals.tobytes()
            rec = groups.get(key)
            if rec is None:
                _, cond_ii, cond_iii = reach.conditions_from_T(t_vals)
                rec = groups[key] = ConjectureRecord(
                    margins=margins,
                    diff_key=key,
                    cond_i=cond_i,
                    cond_ii=cond_ii,
                    cond_iii=cond_iii,
                    pairs=0,
                    reachable_pairs=0,
                    example_pair=(a, b),
                )
            if rec.cond_ii and rec.cond_iii and not reachable:
                sufficiency_ok = False
                failures.append(
                    f"pair ({a},{b}): conditions (i)-(iii) hold but BFS finds no path"
                )
            rec.pairs += 1
            rec.reachable_pairs += int(reachable)
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

    def switched(g: Graph, sw: Switch) -> bytes:
        adj = g.writable_bits()
        sym_switch_inplace(adj, sw, POSITIVE)
        return adj.tobytes()

    return _class_dag(list(graphs), lambda g: find_sym_checkerboards(g, NEGATIVE), switched)


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
