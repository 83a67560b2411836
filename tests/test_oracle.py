import itertools

import numpy as np
import pytest

from switchgraph import binmat, oracle, reach
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix
from switchgraph.errors import InternalInvariantViolation, MarginSumMismatch, NonGraphical
from switchgraph.graph import Graph, dense_spectral_radius, find_sym_checkerboards, sym_switch_inplace

from conftest import BLOCK_A, BLOCK_B, RING_A, RING_B


def brute_enumerate(R, C):
    """Independent oracle: filter the full 2^(pq) space."""
    p, q = len(R), len(C)
    out = []
    for bits in itertools.product([0, 1], repeat=p * q):
        arr = np.array(bits, dtype=int).reshape(p, q)
        if list(arr.sum(axis=1)) == list(R) and list(arr.sum(axis=0)) == list(C):
            out.append(BinaryMatrix(arr))
    return out


class TestEnumerateMargins:
    def test_permutation_class(self):
        mats = oracle.enumerate_margins((1, 1), (1, 1))
        assert len(mats) == 2
        assert BinaryMatrix([[1, 0], [0, 1]]) in mats
        assert BinaryMatrix([[0, 1], [1, 0]]) in mats

    def test_forced_class(self):
        mats = oracle.enumerate_margins((2, 2), (2, 2))
        assert mats == [BinaryMatrix([[1, 1], [1, 1]])]

    def test_ring_class_contains_golden_pair(self):
        mats = oracle.enumerate_margins((1, 3, 3, 1), (3, 1, 1, 3))
        assert BinaryMatrix(RING_A) in mats
        assert BinaryMatrix(RING_B) in mats

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            p, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            arr = (rng.random((p, q)) < 0.5).astype(int)
            R = [int(x) for x in arr.sum(axis=1)]
            C = [int(x) for x in arr.sum(axis=0)]
            ours = oracle.enumerate_margins(R, C)
            brute = brute_enumerate(R, C)
            assert sorted(m.key() for m in ours) == sorted(m.key() for m in brute)
            assert len(set(m.key() for m in ours)) == len(ours)

    def test_infeasible_empty(self):
        # column 1 demands 3 ones but the only nonzero rows are 1 and 2
        assert oracle.enumerate_margins((2, 2, 0), (3, 1, 0)) == []

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
        identity = dag.matrices.index(BinaryMatrix([[1, 0], [0, 1]]))
        anti = dag.matrices.index(BinaryMatrix([[0, 1], [1, 0]]))
        assert dag.arcs[anti][0][0] == identity
        assert dag.sinks == [identity]
        assert dag.sources == [anti]
        assert binmat.classify(mats[identity]).is_split_zebra

    def test_singleton(self):
        dag = oracle.build_dag(oracle.enumerate_margins((2, 2), (2, 2)))
        assert dag.sinks == [0] and dag.sources == [0]
        assert oracle.topological_order(dag) == [0]

    def test_sinks_match_checkerboard_freeness(self):
        mats = oracle.enumerate_margins((2, 1, 1), (2, 1, 1))
        dag = oracle.build_dag(mats)
        for v, mat in enumerate(mats):
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
        mats = oracle.enumerate_margins(R, C)
        dag = oracle.build_dag(mats)
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
        graphs = oracle.enumerate_degree_class(list(D))
        dag = oracle.build_graph_dag(graphs)
        for v, g in enumerate(graphs):
            assert [sw for _, sw in dag.arcs[v]] == find_sym_checkerboards(g, NEGATIVE)
            for dest, sw in dag.arcs[v]:
                adj = g.writable_bits()
                sym_switch_inplace(adj, sw, POSITIVE)
                assert (adj == graphs[dest].adj).all()
        assert dag.sources == [v for v, g in enumerate(graphs)
                               if not find_sym_checkerboards(g, POSITIVE)]

    def test_member_outside_the_class_is_an_invariant_violation(self):
        mats = oracle.enumerate_margins((1, 1), (1, 1))
        anti = next(m for m in mats if binmat.find_checkerboards(m, NEGATIVE))
        with pytest.raises(InternalInvariantViolation):
            oracle.build_dag([anti])

    def test_unsorted_degree_class_raises(self):
        graphs = oracle.enumerate_degree_class([2, 1, 1])
        flipped = [Graph(g.adj[::-1, ::-1]) for g in graphs]
        with pytest.raises(ValueError):
            oracle.build_graph_dag(flipped)


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
        rep = oracle.verify_dag_structure(dag)
        assert rep.ok, rep.failures

    def test_no_split_member_reports_vacuous(self):
        dag = oracle.build_dag(oracle.enumerate_margins((1, 3, 3, 1), (3, 1, 1, 3)))
        rep = oracle.verify_dag_structure(dag)
        assert rep.unique_sink == "vacuous" and rep.ok

    def test_split_member_reports_pass(self):
        dag = oracle.build_dag(oracle.enumerate_margins((1, 1), (1, 1)))
        rep = oracle.verify_dag_structure(dag)
        assert rep.unique_sink == "pass" and rep.unique_source == "pass"

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
        assert rep.ok
        a = dag.matrices.index(BinaryMatrix(RING_A))
        b = dag.matrices.index(BinaryMatrix(RING_B))
        closure = oracle.reachability_closure(dag)
        assert not closure[a] >> b & 1  # golden pair unreachable
        # the logged evidence for that difference: condition (ii) fails
        M = reach.diff(mats[a], mats[b])
        key = reach.compute_T(M).values.tobytes()
        rec = next(r for r in rep.conjecture if r.diff_key == key)
        assert rec.cond_i and not rec.cond_ii and rec.reachable_pairs == 0

    @pytest.mark.parametrize("n", [3, 4])
    def test_margin_two_reachability_is_condition_i(self, n):
        # Brualdi & Deaett (Linear Algebra Appl. 421, 2007): with every
        # margin 2, the Bruhat order (condition (i)) and the positive-switch
        # order coincide, so T >= 0 is exactly reachability
        mats = oracle.enumerate_margins((2,) * n, (2,) * n)
        closure = oracle.reachability_closure(oracle.build_dag(mats))
        for a, A in enumerate(mats):
            for b, B in enumerate(mats):
                cond_i = reach.compute_T(reach.diff(A, B)).nonneg
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
        mats = oracle.enumerate_margins((2, 1, 1), (1, 1, 2))
        dag = oracle.build_dag(mats)
        closure = oracle.reachability_closure(dag)
        for a, ma in enumerate(mats):
            for b, mb in enumerate(mats):
                path = oracle.bfs_directed_path(ma, mb)
                assert (path is not None) == bool(closure[a] >> b & 1)
                if path is not None and a != b:
                    assert reach.validate_path(ma, mb, path)


def reference_reachability(dag):
    """The pair loop over a, then b, with T from ``compute_T`` per pair."""
    mats = dag.matrices
    closure = oracle.reachability_closure(dag)
    failures, groups = [], {}
    for a, ma in enumerate(mats):
        for b, mb in enumerate(mats):
            if a == b:
                continue
            t_vals = reach.compute_T(reach.diff(ma, mb)).values
            reachable = bool(closure[a] >> b & 1)
            if not (t_vals >= 0).all():
                if reachable:
                    failures.append(f"pair ({a},{b}): reachable but T has negatives")
                continue
            key = t_vals.tobytes()
            if key not in groups:
                _, cii, ciii = reach.conditions_from_T(t_vals)
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
            assert rep.pairs == len(dag.matrices) * (len(dag.matrices) - 1)

    def test_both_failure_kinds_in_pair_order(self, monkeypatch):
        # reverse the first arc u -> v that is the only path from u to v:
        # members that reached v only through it no longer do (sufficiency
        # fails), and v now reaches u, whose T has negatives (necessity
        # fails); the DAG stays acyclic
        dag = oracle.build_dag(oracle.enumerate_margins((1, 1, 1, 1), (1, 1, 1, 1)))
        reversed_arc = None
        for u, out in enumerate(dag.arcs):
            for pos, (v, sw) in enumerate(out):
                del out[pos]
                if not oracle.reachability_closure(dag)[u] >> v & 1:
                    reversed_arc = (v, (u, sw))
                    break
                out.insert(pos, (v, sw))
            if reversed_arc:
                break
        v, arc = reversed_arc
        dag.arcs[v].append(arc)
        failures, records = reference_reachability(dag)
        kinds = [text.endswith("negatives") for text in failures]
        assert sum(a != b for a, b in zip(kinds, kinds[1:])) >= 2  # interleaved
        for block_cells in (None, 1, 100):
            if block_cells is not None:
                monkeypatch.setattr(binmat, "_BLOCK_CELLS", block_cells)
            rep = oracle.verify_reachability(dag)
            assert rep.failures == failures
            assert report_records(rep) == records
            assert not rep.necessity_ok and not rep.sufficiency_ok


class TestComplementDuality:
    def test_dag_reverses_under_complement(self):
        R, C = (2, 1, 1), (2, 1, 1)
        mats = oracle.enumerate_margins(R, C)
        dag = oracle.build_dag(mats)
        comp_mats = [binmat.complement(m) for m in mats]
        comp_dag = oracle.build_dag(oracle.enumerate_margins((1, 2, 2), (1, 2, 2)))
        assert comp_dag.arc_count == dag.arc_count
        # arc u -> v in the class maps to comp(v) -> comp(u) in the complement class
        for u, out in enumerate(dag.arcs):
            for v, _ in out:
                cu = comp_dag.matrices.index(comp_mats[u])
                cv = comp_dag.matrices.index(comp_mats[v])
                assert any(dest == cu for dest, _ in comp_dag.arcs[cv])
        # sinks map onto sources and sources onto sinks
        assert {comp_dag.matrices.index(comp_mats[s]) for s in dag.sinks} == set(
            comp_dag.sources
        )
        assert {comp_dag.matrices.index(comp_mats[s]) for s in dag.sources} == set(
            comp_dag.sinks
        )


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
                    assert oracle.enumerate_degree_class(list(D))
                else:
                    with pytest.raises(NonGraphical):
                        oracle.enumerate_degree_class(list(D))


class TestDegreeClasses:
    def test_single_edge(self):
        graphs = oracle.enumerate_degree_class([1, 1])
        assert len(graphs) == 1 and graphs[0].m == 1

    def test_cycle_class(self):
        graphs = oracle.enumerate_degree_class([2, 2, 2, 2])
        assert len(graphs) == 3  # the three labelled 4-cycles
        for g in graphs:
            assert tuple(g.degrees) == (2, 2, 2, 2)

    def test_degree_vector_exact(self):
        graphs = oracle.enumerate_degree_class([3, 2, 2, 2, 1])
        assert graphs
        for g in graphs:
            assert tuple(g.degrees) == (3, 2, 2, 2, 1)
        keys = {g.key() for g in graphs}
        assert len(keys) == len(graphs)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            oracle.enumerate_degree_class([1, 2, 1])


class TestSpectralMaxAtSink:
    def test_regular_class_trivial(self):
        graphs = oracle.enumerate_degree_class([2, 2, 2, 2])
        rep = oracle.verify_spectral_max_at_sink(oracle.build_graph_dag(graphs))
        assert rep.ok
        assert rep.max_lambda == pytest.approx(2.0, abs=1e-9)

    def test_mixed_class(self):
        graphs = oracle.enumerate_degree_class([3, 2, 2, 2, 1])
        rep = oracle.verify_spectral_max_at_sink(oracle.build_graph_dag(graphs))
        assert rep.ok, rep.failures
        assert rep.sink_count >= 1

    def test_max_matches_brute_scan(self):
        graphs = oracle.enumerate_degree_class([3, 3, 2, 2, 2])
        rep = oracle.verify_spectral_max_at_sink(oracle.build_graph_dag(graphs))
        assert rep.max_lambda == pytest.approx(
            max(dense_spectral_radius(g.adj) for g in graphs), abs=1e-12
        )

    def test_graph_dag_sources_sinks(self):
        graphs = oracle.enumerate_degree_class([2, 2, 1, 1])
        dag = oracle.build_graph_dag(graphs)
        assert len(graphs) == len(dag.matrices)
        for v, g in enumerate(graphs):
            from switchgraph.graph import count_sym_checkerboards

            assert (v in dag.sinks) == (count_sym_checkerboards(g.adj, NEGATIVE) == 0)
            assert (v in dag.sources) == (count_sym_checkerboards(g.adj, POSITIVE) == 0)


class TestGraphicalSequences:
    def test_small_counts(self):
        # n = 3: degree vectors (0,0,0), (1,1,0), (2,1,1), (2,2,2)
        assert list(oracle.graphical_sequences(3)) == [
            (2, 2, 2),
            (2, 1, 1),
            (1, 1, 0),
            (0, 0, 0),
        ]

    def test_every_sequence_enumerates(self):
        for D in oracle.graphical_sequences(5):
            assert oracle.enumerate_degree_class(list(D))
