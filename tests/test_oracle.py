import itertools

import numpy as np
import pytest

from switchgraph import binmat, oracle, reach
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix
from switchgraph.errors import InternalInvariantViolation, MarginSumMismatch, NonGraphical
from switchgraph.graph import Graph, dense_spectral_radius, find_sym_checkerboards, sym_switch_inplace

from conftest import (
    BLOCK_A,
    BLOCK_B,
    RING_A,
    RING_B,
    graphical_sequences,
    margin_space,
    member_index,
    reverse_sole_arc,
)


def brute_classes(shape, margins, order_key):
    """Every 0/1 array of ``shape`` (a (p, q) shape, or an n for graphs),
    grouped by ``margins(bits)`` and sorted by ``order_key(bits)``."""
    if isinstance(shape, int):  # symmetric, zero diagonal
        n = shape
        upper = list(zip(*np.triu_indices(n, 1)))
        space = []
        for edges in itertools.product([0, 1], repeat=len(upper)):
            adj = np.zeros((n, n), dtype=np.int8)
            for (i, j), e in zip(upper, edges):
                adj[i, j] = adj[j, i] = e
            space.append(adj)
    else:
        space = [np.array(bits, dtype=np.int8).reshape(shape)
                 for bits in itertools.product([0, 1], repeat=shape[0] * shape[1])]
    classes = {}
    for bits in space:
        classes.setdefault(margins(bits), []).append(bits)
    return {key: sorted(members, key=order_key) for key, members in classes.items()}


def row_column_sets(bits):
    # the enumerator's order: lexicographic in each row's column set
    return [np.flatnonzero(row).tolist() for row in bits]


def later_neighbours(adj):
    # the degree enumerator's order: lexicographic in each vertex's later neighbours
    return [[u for u in np.flatnonzero(row).tolist() if u > v] for v, row in enumerate(adj)]


class TestEnumerateMargins:
    def test_permutation_class(self):
        mats = oracle.enumerate_margins((1, 1), (1, 1))
        assert mats.tolist() == [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
        assert mats.dtype == np.int8 and not mats.flags.writeable

    def test_forced_class(self):
        mats = oracle.enumerate_margins((2, 2), (2, 2))
        assert mats.tolist() == [[[1, 1], [1, 1]]]

    def test_ring_class_contains_golden_pair(self):
        mats = oracle.enumerate_margins((1, 3, 3, 1), (3, 1, 1, 3))
        assert member_index(mats, RING_A) != member_index(mats, RING_B)

    def test_matches_brute_force(self):
        # the exact sequence, not only the set: member indices are the arcs'
        # ends, the sources, the sinks and every report's pair
        margins = lambda bits: (tuple(bits.sum(axis=1).tolist()), tuple(bits.sum(axis=0).tolist()))
        brute = {}
        for R, C in margin_space(3, 3, 3):
            shape = (len(R), len(C))
            if shape not in brute:
                brute[shape] = brute_classes(shape, margins, row_column_sets)
            ours = oracle.enumerate_margins(R, C)
            expected = brute[shape].get((R, C), [])
            assert [m.tobytes() for m in ours] == [bits.tobytes() for bits in expected], (R, C)

    def test_infeasible_empty(self):
        # column 1 demands 3 ones but the only nonzero rows are 1 and 2
        assert oracle.enumerate_margins((2, 2, 0), (3, 1, 0)).shape == (0, 3, 3)

    def test_sum_mismatch(self):
        with pytest.raises(MarginSumMismatch):
            oracle.enumerate_margins((1, 1), (1,))

    def test_count_with_cap(self):
        assert oracle.count_margin_class((2, 2, 2, 2), (2, 2, 2, 2)) == 90
        assert oracle.count_margin_class((2, 2, 2, 2), (2, 2, 2, 2), cap=10) is None


class TestBuildDag:
    def test_permutation_class_structure(self):
        mats = oracle.enumerate_margins((1, 1), (1, 1))
        dag = oracle.build_dag(mats)
        assert dag.arc_count == 1
        identity = member_index(dag.bits, [[1, 0], [0, 1]])
        anti = member_index(dag.bits, [[0, 1], [1, 0]])
        assert dag.arcs[anti][0][0] == identity
        assert dag.sinks == [identity]
        assert dag.sources == [anti]
        flags = binmat.classify(BinaryMatrix(mats[identity]))
        assert flags["zebra_split_h"] or flags["zebra_split_v"]

    def test_singleton(self):
        dag = oracle.build_dag(oracle.enumerate_margins((2, 2), (2, 2)))
        assert dag.sinks == [0] and dag.sources == [0]
        assert oracle.topological_order(dag) == [0]

    def test_sinks_match_checkerboard_freeness(self):
        mats = oracle.enumerate_margins((2, 1, 1), (2, 1, 1))
        dag = oracle.build_dag(mats)
        for v, mat in enumerate(map(BinaryMatrix, mats)):
            neg = binmat.find_checkerboards(mat, NEGATIVE)
            pos = binmat.find_checkerboards(mat, POSITIVE)
            assert (v in dag.sinks) == (not neg)
            assert (v in dag.sources) == (not pos)


class TestArcDestinations:
    """The stacked arc builder against one switched copy per arc."""

    @pytest.mark.parametrize(
        "R,C",
        [((1, 1), (1, 1)), ((2, 2, 2, 2), (2, 2, 2, 2)), ((3, 2, 1), (2, 2, 2)),
         ((1, 3, 3, 1), (3, 1, 1, 3)), ((2, 1, 2), (1, 1, 1, 2)), ((3, 1, 2, 1), (2, 3, 2))],
    )
    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_margin_class(self, R, C, chunk, monkeypatch):
        # chunk: members per chunk of the arc builder (None: the default)
        if chunk is not None:
            monkeypatch.setattr(binmat, "_BLOCK_CELLS", chunk * 16 * (len(R) * len(C)) ** 2)
        stack = oracle.enumerate_margins(R, C)
        dag = oracle.build_dag(stack)
        mats = [BinaryMatrix(bits) for bits in stack]
        for v, mat in enumerate(mats):
            boards = [cb.coord for cb in binmat.find_checkerboards(mat, NEGATIVE)]
            assert [sw for _, sw in dag.arcs[v]] == boards
            for dest, sw in dag.arcs[v]:
                assert type(dest) is int and all(type(x) is int for x in sw)
                assert binmat.apply_switch(mat, sw, POSITIVE) == mats[dest]
        assert dag.sources == [v for v, m in enumerate(mats)
                               if not binmat.find_checkerboards(m, POSITIVE)]

    @pytest.mark.parametrize("D", [(2, 2, 2, 2), (3, 2, 2, 2, 1), (3, 3, 2, 2, 2), (3, 3, 2, 2, 1, 1),
                                   (4, 3, 3, 2, 2, 2), (2, 2, 2, 2, 2, 2)])
    @pytest.mark.parametrize("chunk", [None, 1, 3])
    def test_degree_class(self, D, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(binmat, "_BLOCK_CELLS", chunk * 16 * len(D) ** 4)
        stack = oracle.enumerate_degree_class(list(D))
        dag = oracle.build_graph_dag(stack)
        graphs = [Graph(adj) for adj in stack]
        for v, g in enumerate(graphs):
            assert [sw for _, sw in dag.arcs[v]] == find_sym_checkerboards(g, NEGATIVE)
            for dest, sw in dag.arcs[v]:
                adj = g.writable_bits()
                sym_switch_inplace(adj, sw, POSITIVE)
                assert (adj == stack[dest]).all()
        assert dag.sources == [v for v, g in enumerate(graphs)
                               if not find_sym_checkerboards(g, POSITIVE)]

    def test_member_outside_the_class_is_an_invariant_violation(self):
        mats = oracle.enumerate_margins((1, 1), (1, 1))
        anti = mats[[member_index(mats, [[0, 1], [1, 0]])]]
        with pytest.raises(InternalInvariantViolation):
            oracle.build_dag(anti)

    def test_members_with_other_margins_raise(self):
        mixed = np.concatenate([oracle.enumerate_margins((1, 1), (1, 1)),
                                oracle.enumerate_margins((2, 0), (1, 1))])
        with pytest.raises(MarginSumMismatch):
            oracle.build_dag(mixed)

    def test_unsorted_degree_class_raises(self):
        stack = oracle.enumerate_degree_class([2, 1, 1])
        with pytest.raises(ValueError, match="degree-sorted"):
            oracle.build_graph_dag(stack[:, ::-1, ::-1])

    @pytest.mark.parametrize("build", [oracle.build_dag, oracle.build_graph_dag])
    def test_input_that_is_not_a_stack_raises(self, build):
        stack = oracle.enumerate_degree_class([2, 2, 1, 1])
        two = stack.copy()
        two[0, 0, 1] = two[0, 1, 0] = 2
        for bad in (stack[0], two):
            with pytest.raises(ValueError, match="stack of 0/1"):
                build(bad)

    def test_adjacency_that_is_not_a_graph_raises(self):
        stack = oracle.enumerate_degree_class([2, 2, 1, 1])
        asymmetric = stack.copy()
        asymmetric[:, 0, 3] = 1 - asymmetric[:, 0, 3]
        looped = stack.copy()
        looped[:, 0, 0] = 1
        with pytest.raises(ValueError, match="symmetric"):
            oracle.build_graph_dag(asymmetric)
        with pytest.raises(ValueError, match="no loops"):
            oracle.build_graph_dag(looped)


class TestVerifyDagStructure:
    @pytest.mark.parametrize(
        "R,C",
        [
            ((1, 1), (1, 1)),
            ((2, 1, 1), (2, 1, 1)),
            ((1, 3, 3, 1), (3, 1, 1, 3)),
            ((2, 2, 2, 2), (2, 2, 2, 2)),
            ((3, 2, 1), (2, 2, 2)),
        ],
    )
    def test_small_classes_pass(self, R, C):
        dag = oracle.build_dag(oracle.enumerate_margins(R, C))
        checks, failures = oracle.verify_dag_structure(dag)
        assert not failures, failures

    def test_empty_class(self):
        # the one matrix with no cells: a class of one member, its own sink,
        # as for the graph on no vertices
        for R, C in (((), ()), ((), (0, 0)), ((0, 0), ())):
            assert oracle.count_margin_class(R, C) == 1
            dag = oracle.build_dag(oracle.enumerate_margins(R, C))
            assert dag.bits.shape == (1, len(R), len(C))
            assert dag.arcs == [[]] and dag.sources == [0] and dag.sinks == [0]
            checks, failures = oracle.verify_dag_structure(dag)
            assert (checks["unique_sink"], checks["unique_source"]) == ("pass", "pass")
            assert not failures, failures

    def test_empty_graph_class(self):
        # the one graph on no vertices: a class of one member, its own sink
        dag = oracle.build_graph_dag(oracle.enumerate_degree_class([]))
        assert dag.bits.shape == (1, 0, 0)
        assert dag.arcs == [[]] and dag.sources == [0] and dag.sinks == [0]
        checks, failures = oracle.verify_dag_structure(dag)
        assert not failures, failures

    def test_no_split_member_reports_vacuous(self):
        dag = oracle.build_dag(oracle.enumerate_margins((1, 3, 3, 1), (3, 1, 1, 3)))
        checks, failures = oracle.verify_dag_structure(dag)
        assert checks["unique_sink"] == "vacuous" and not failures

    def test_split_member_reports_pass(self):
        dag = oracle.build_dag(oracle.enumerate_margins((1, 1), (1, 1)))
        checks, failures = oracle.verify_dag_structure(dag)
        assert checks["unique_sink"] == "pass" and checks["unique_source"] == "pass"

    def test_broken_law_is_a_false_check_and_a_failure(self):
        # a reversed arc lowers the potential along it, and nothing else
        # in the structure changes
        dag = oracle.build_dag(oracle.enumerate_margins((1, 1, 1, 1), (1, 1, 1, 1)))
        reverse_sole_arc(dag)
        checks, failures = oracle.verify_dag_structure(dag)
        assert [name for name, value in checks.items() if value in (False, "fail")] == [
            "potential_law"
        ]
        assert len(failures) == 1 and failures[0].startswith("potential law broken on arc")

    def test_topological_order_exists(self):
        dag = oracle.build_dag(oracle.enumerate_margins((2, 2, 1), (2, 2, 1)))
        order = oracle.topological_order(dag)
        assert order is not None
        pos = {v: idx for idx, v in enumerate(order)}
        for v, out in enumerate(dag.arcs):
            for dest, _ in out:
                assert pos[v] < pos[dest]


class TestVerifyReachability:
    def test_ring_class(self):
        mats = oracle.enumerate_margins((1, 3, 3, 1), (3, 1, 1, 3))
        dag = oracle.build_dag(mats)
        rep = oracle.verify_reachability(dag)
        assert not rep.failures
        a = member_index(dag.bits, RING_A)
        b = member_index(dag.bits, RING_B)
        closure = oracle.reachability_closure(dag)
        assert not closure[a] >> b & 1  # golden pair unreachable
        # the logged evidence for that difference: condition (ii) fails
        M = reach.diff(BinaryMatrix(mats[a]), BinaryMatrix(mats[b]))
        key = reach.compute_T(M).tobytes()
        rec = next(r for r in rep.conjecture if r.diff_key == key)
        assert rec.cond_i and not rec.cond_ii and rec.reachable_pairs == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_margin_two_reachability_is_condition_i(self, n):
        # Brualdi & Deaett (Linear Algebra Appl. 421, 2007): with every
        # margin 2, the Bruhat order (condition (i)) and the positive-switch
        # order coincide, so T >= 0 is exactly reachability
        stack = oracle.enumerate_margins((2,) * n, (2,) * n)
        closure = oracle.reachability_closure(oracle.build_dag(stack))
        mats = [BinaryMatrix(bits) for bits in stack]
        for a, A in enumerate(mats):
            for b, B in enumerate(mats):
                cond_i = bool((reach.compute_T(reach.diff(A, B)) >= 0).all())
                assert bool(closure[a] >> b & 1) == cond_i, (n, a, b)

    def test_block_class_distance_four(self):
        A, B = BinaryMatrix(BLOCK_A), BinaryMatrix(BLOCK_B)
        path = oracle.bfs_directed_path(A, B)
        assert path is not None and len(path) == 4
        assert reach.validate_path(A, B, path)

    def test_two_switch_distance(self, pair_3x3):
        A, B = pair_3x3
        path = oracle.bfs_directed_path(A, B)
        assert len(path) == 2

    def test_bfs_agrees_with_closure(self):
        stack = oracle.enumerate_margins((2, 1, 1), (1, 1, 2))
        closure = oracle.reachability_closure(oracle.build_dag(stack))
        mats = [BinaryMatrix(bits) for bits in stack]
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                path = oracle.bfs_directed_path(ma, mb)
                assert (path is not None) == bool(closure[a] >> b & 1)
                if path is not None and a != b:
                    assert reach.validate_path(ma, mb, path)


def reference_reachability(dag):
    """The pair loop over a, then b, with T from ``compute_T`` per pair."""
    mats = [BinaryMatrix(bits) for bits in dag.bits]
    closure = oracle.reachability_closure(dag)
    failures, groups = [], {}
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            if a == b:
                continue
            t_vals = reach.compute_T(reach.diff(ma, mb))
            reachable = bool(closure[a] >> b & 1)
            if not (t_vals >= 0).all():
                if reachable:
                    failures.append(f"pair ({a},{b}): reachable but T has negatives")
                continue
            key = t_vals.tobytes()
            if key not in groups:
                _, (cii,), (ciii,) = reach.grid_conditions(t_vals[None])
                groups[key] = [key, cii, ciii, 0, 0, (a, b)]
            rec = groups[key]
            if rec[1] and rec[2] and not reachable:
                failures.append(f"pair ({a},{b}): conditions (i)-(iii) hold but BFS finds no path")
            rec[3] += 1
            rec[4] += reachable
    return failures, list(groups.values())


def report_records(rep):
    return [[r.diff_key, r.cond_ii, r.cond_iii, r.pairs, r.reachable_pairs, r.example_pair]
            for r in rep.conjecture]


class TestPairScan:
    """``verify_reachability`` against the per-pair reference loop."""

    @pytest.mark.parametrize(
        "R,C", [((2, 1, 1), (1, 1, 2)), ((1, 3, 3, 1), (3, 1, 1, 3)), ((2, 2, 2, 2), (2, 2, 2, 2))]
    )
    def test_matches_reference(self, R, C, monkeypatch):
        dag = oracle.build_dag(oracle.enumerate_margins(R, C))
        failures, records = reference_reachability(dag)
        for block_cells in (None, 1, 100):  # default, one row a per block, a few rows
            if block_cells is not None:
                monkeypatch.setattr(binmat, "_BLOCK_CELLS", block_cells)
            rep = oracle.verify_reachability(dag)
            assert rep.failures == failures == []
            assert report_records(rep) == records
            assert rep.pairs == len(dag.bits) * (len(dag.bits) - 1)

    def test_both_failure_kinds_in_pair_order(self, monkeypatch):
        # with an arc reversed, sufficiency and necessity both fail
        dag = oracle.build_dag(oracle.enumerate_margins((1, 1, 1, 1), (1, 1, 1, 1)))
        reverse_sole_arc(dag)
        failures, records = reference_reachability(dag)
        kinds = [text.endswith("negatives") for text in failures]
        assert sum(a != b for a, b in zip(kinds, kinds[1:])) >= 2  # interleaved
        for block_cells in (None, 1, 100):
            if block_cells is not None:
                monkeypatch.setattr(binmat, "_BLOCK_CELLS", block_cells)
            rep = oracle.verify_reachability(dag)
            assert rep.failures == failures
            assert report_records(rep) == records
            assert rep.checks == {"necessity": False, "sufficiency": False}


class TestComplementDuality:
    def test_dag_reverses_under_complement(self):
        R, C = (2, 1, 1), (2, 1, 1)
        mats = oracle.enumerate_margins(R, C)
        dag = oracle.build_dag(mats)
        comp_mats = [binmat.complement(BinaryMatrix(m)).bits for m in mats]
        comp_dag = oracle.build_dag(oracle.enumerate_margins((1, 2, 2), (1, 2, 2)))
        assert comp_dag.arc_count == dag.arc_count
        comp_index = [member_index(comp_dag.bits, m) for m in comp_mats]
        # arc u -> v in the class maps to comp(v) -> comp(u) in the complement class
        for u, out in enumerate(dag.arcs):
            for v, _ in out:
                assert any(dest == comp_index[u] for dest, _ in comp_dag.arcs[comp_index[v]])
        # sinks map onto sources and sources onto sinks
        assert {comp_index[s] for s in dag.sinks} == set(comp_dag.sources)
        assert {comp_index[s] for s in dag.sources} == set(comp_dag.sinks)


class TestGraphical:
    @pytest.mark.parametrize(
        "D,expect",
        [
            ((3, 3, 3, 3), True),
            ((2, 2, 2, 2), True),
            ((3, 1), False),
            ((1, 1), True),
            ((5, 1, 1, 1, 1), False),
            ((4, 4, 4, 1, 1), False),
            ((0,), True),
            ((2, 2, 1, 1), True),
        ],
    )
    def test_known_cases(self, D, expect):
        assert oracle.is_graphical(D) == expect

    def test_matches_enumeration(self):
        # graphical iff the labelled class is non-empty
        for n in range(1, 6):
            for D in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
                feasible = oracle.is_graphical(D)
                if sum(D) % 2:
                    assert not feasible
                    continue
                if feasible:
                    assert len(oracle.enumerate_degree_class(list(D)))
                else:
                    with pytest.raises(NonGraphical):
                        oracle.enumerate_degree_class(list(D))


class TestDegreeClasses:
    def test_single_edge(self):
        graphs = oracle.enumerate_degree_class([1, 1])
        assert graphs.tolist() == [[[0, 1], [1, 0]]]

    def test_cycle_class(self):
        graphs = oracle.enumerate_degree_class([2, 2, 2, 2])
        assert len(graphs) == 3  # the three labelled 4-cycles
        assert (graphs.sum(axis=2) == 2).all()
        assert graphs.dtype == np.int8 and not graphs.flags.writeable

    def test_degree_vector_exact(self):
        graphs = oracle.enumerate_degree_class([3, 2, 2, 2, 1])
        assert len(graphs)
        assert (graphs.sum(axis=2) == [3, 2, 2, 2, 1]).all()
        keys = {g.tobytes() for g in graphs}
        assert len(keys) == len(graphs)

    def test_matches_brute_force(self):
        degrees = lambda adj: tuple(adj.sum(axis=1).tolist())
        for n in range(1, 6):
            brute = brute_classes(n, degrees, later_neighbours)
            for D in graphical_sequences(n):
                ours = oracle.enumerate_degree_class(list(D))
                assert [g.tobytes() for g in ours] == [adj.tobytes() for adj in brute[D]], D

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            oracle.enumerate_degree_class([1, 2, 1])


class TestSpectralMaxAtSink:
    def test_regular_class_trivial(self):
        graphs = oracle.enumerate_degree_class([2, 2, 2, 2])
        rep = oracle.verify_spectral_max_at_sink(oracle.build_graph_dag(graphs))
        assert not rep.failures
        assert rep.max_lambda == pytest.approx(2.0, abs=1e-9)

    def test_mixed_class(self):
        graphs = oracle.enumerate_degree_class([3, 2, 2, 2, 1])
        dag = oracle.build_graph_dag(graphs)
        rep = oracle.verify_spectral_max_at_sink(dag)
        assert not rep.failures, rep.failures
        assert len(dag.sinks) >= 1

    def test_max_matches_brute_scan(self):
        graphs = oracle.enumerate_degree_class([3, 3, 2, 2, 2])
        rep = oracle.verify_spectral_max_at_sink(oracle.build_graph_dag(graphs))
        assert rep.max_lambda == pytest.approx(
            max(dense_spectral_radius(adj) for adj in graphs), abs=1e-12
        )

    def test_graph_dag_sources_sinks(self):
        graphs = oracle.enumerate_degree_class([2, 2, 1, 1])
        dag = oracle.build_graph_dag(graphs)
        assert dag.bits is graphs
        for v, adj in enumerate(graphs):
            from switchgraph.graph import count_sym_checkerboards

            assert (v in dag.sinks) == (count_sym_checkerboards(adj, NEGATIVE) == 0)
            assert (v in dag.sources) == (count_sym_checkerboards(adj, POSITIVE) == 0)


class TestGraphicalSequences:
    def test_small_counts(self):
        # n = 3: degree vectors (0,0,0), (1,1,0), (2,1,1), (2,2,2)
        assert list(graphical_sequences(3)) == [
            (2, 2, 2),
            (2, 1, 1),
            (1, 1, 0),
            (0, 0, 0),
        ]

    def test_every_sequence_enumerates(self):
        for D in graphical_sequences(5):
            assert len(oracle.enumerate_degree_class(list(D)))
