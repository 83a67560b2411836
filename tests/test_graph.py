import itertools
import math
import tracemalloc

import numpy as np
import pytest

from switchgraph import binmat, graph, oracle
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from switchgraph.errors import DegenerateGraph, InfeasibleMargins, InvalidSwitch
from switchgraph.graph import (
    Graph,
    apply_sym_switch,
    assortativity,
    count_sym_checkerboards,
    dense_spectral_radius,
    find_sym_checkerboards,
    gen_erdos_renyi,
    gen_small_world,
    gen_split_zebra,
    jacobi_eigenvalues,
    sort_by_degree,
    spectral_radius,
    zagreb,
)
from switchgraph.optimize import sample_negative_checkerboard

from conftest import reference_sym_board_pair_counts


def complete_graph(n):
    adj = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    return Graph(adj)


def star_graph(n_leaves):
    n = n_leaves + 1
    adj = np.zeros((n, n), dtype=int)
    adj[0, 1:] = adj[1:, 0] = 1
    return Graph(adj)


def path_graph(n):
    adj = np.zeros((n, n), dtype=int)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1
    return Graph(adj)


def random_graph(rng, n, p=0.5):
    return gen_erdos_renyi(n, p, seed=int(rng.integers(2**31)))


def loop_sym_checkerboards(adj, sign):
    """Independent count: one cumulative-sum pass per row pair."""
    n = adj.shape[0]
    hi = 1 if sign == POSITIVE else -1
    total = 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            d = adj[i].astype(np.int16) - adj[j]
            d[i] = d[j] = 0
            first = d == hi
            second = d == -hi
            # pairs k < l with d[k] == hi and d[l] == -hi
            total += int(np.cumsum(first)[second].sum())
    # every symmetric switch shows up under two row pairs
    return total // 2


def brute_sym_checkerboards(g, sign):
    """Independent oracle: scan every vertex quadruple."""
    adj = g.adj
    want = (1, 0, 0, 1) if sign == POSITIVE else (0, 1, 1, 0)
    out = set()
    for quad in itertools.permutations(range(g.n), 4):
        i, j, k, l = quad
        if i < j and k < l and (i, j) <= (k, l):
            sub = (adj[i, k], adj[i, l], adj[j, k], adj[j, l])
            if tuple(int(x) for x in sub) == want:
                out.add(Switch(i + 1, j + 1, k + 1, l + 1))
    return sorted(out)


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph([[0, 1], [0, 0]])

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError):
            Graph([[1, 0], [0, 0]])

    def test_counts(self):
        g = complete_graph(4)
        assert g.n == 4 and g.m == 6
        assert (g.degrees == 3).all()

    def test_column_sums_are_the_row_sums(self):
        built = Graph([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        wrapped = Graph._wrap(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int8))
        for g in (built, wrapped):
            assert g.col_sums is g.row_sums
            assert g.col_sums.tolist() == g.bits.sum(axis=0).tolist()
            with pytest.raises(ValueError):
                g.col_sums[0] = 5


# (n, p, seed) of sorted ER graphs whose margin classes stay small enough to
# build in full, one larger graph, and the edgeless 3-vertex graph (None)
MERGED_TYPE_GRAPHS = [(4, 0.5, 1), (5, 0.4, 2), (5, 0.6, 1), (6, 0.5, 0), (12, 0.3, 3), None]


def merged_type_graph(spec):
    if spec is None:
        return Graph(np.zeros((3, 3), dtype=int))
    return sort_by_degree(gen_erdos_renyi(*spec))[0]


class TestGraphIsBinaryMatrix:
    @pytest.mark.parametrize("spec", MERGED_TYPE_GRAPHS)
    def test_same_matrix_as_binary_matrix(self, spec, tmp_path):
        g = merged_type_graph(spec)
        mat = BinaryMatrix(g.adj)
        assert isinstance(g, BinaryMatrix)
        assert binmat.classify(g).flags() == binmat.classify(mat).flags()
        assert g == mat and mat == g
        assert hash(g) == hash(mat)
        binmat.write_matrix(g, tmp_path / "g.mat")
        binmat.write_matrix(mat, tmp_path / "m.mat")
        assert (tmp_path / "g.mat").read_bytes() == (tmp_path / "m.mat").read_bytes()

    @pytest.mark.parametrize("spec", [s for s in MERGED_TYPE_GRAPHS if s is None or s[0] <= 6])
    def test_both_builders_return_matrix_class_dag(self, spec):
        g = merged_type_graph(spec)
        margin_dag = oracle.build_dag(oracle.enumerate_margins(*binmat.row_col_sums(g)))
        degree_dag = oracle.build_graph_dag(oracle.enumerate_degree_class(g.degrees))
        assert isinstance(margin_dag, oracle.MatrixClassDAG)
        assert isinstance(degree_dag, oracle.MatrixClassDAG)
        assert margin_dag.matrices.count(g) == 1
        assert degree_dag.matrices.count(g) == 1

    def test_from_text_checks_graph(self):
        with pytest.raises(ValueError):
            Graph.from_text("2 2\n01\n00\n")
        with pytest.raises(ValueError):
            Graph.from_text("2 2\n11\n10\n")
        rows = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        g = Graph.from_text("3 3\n011\n100\n100\n")
        assert type(g) is Graph and g == Graph(rows)


class TestSortByDegree:
    def test_already_sorted(self):
        g = star_graph(3)
        out, perm = sort_by_degree(g)
        assert perm == (1, 2, 3, 4)
        assert out == g

    def test_path_graph_order(self):
        g = path_graph(3)  # degrees (1, 2, 1)
        out, perm = sort_by_degree(g)
        assert perm == (2, 1, 3)
        assert tuple(out.degrees) == (2, 1, 1)

    def test_star_center_last(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[3, :3] = adj[:3, 3] = 1
        out, perm = sort_by_degree(Graph(adj))
        assert perm == (4, 1, 2, 3)
        assert tuple(out.degrees) == (3, 1, 1, 1)

    def test_stable_on_ties(self):
        g = complete_graph(5)
        _, perm = sort_by_degree(g)
        assert perm == (1, 2, 3, 4, 5)


class TestSymCheckerboards:
    def test_complete_graph_has_none(self):
        g = complete_graph(4)
        assert find_sym_checkerboards(g, POSITIVE) == []
        assert find_sym_checkerboards(g, NEGATIVE) == []

    def test_empty_graph_has_none(self):
        g = Graph(np.zeros((5, 5), dtype=int))
        assert find_sym_checkerboards(g, NEGATIVE) == []

    @pytest.mark.parametrize("sign", [POSITIVE, NEGATIVE])
    def test_zero_by_zero_array(self, sign):
        empty = np.zeros((0, 0))
        assert count_sym_checkerboards(empty, sign) == 0
        assert graph.sym_board_pair_counts(empty, sign).shape == (0, 0)

    def test_unsorted_graph_raises(self):
        # path 1-2-3 labelled with its degree-2 centre last
        g = Graph(np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0]]))
        with pytest.raises(ValueError):
            find_sym_checkerboards(g, NEGATIVE)

    def test_four_cycle_counts_match_brute_force(self):
        adj = np.zeros((4, 4), dtype=int)
        for u, v in ((0, 2), (2, 1), (1, 3), (3, 0)):
            adj[u, v] = adj[v, u] = 1
        g = Graph(adj)  # all degree 2, sorted trivially
        for sign in (POSITIVE, NEGATIVE):
            assert find_sym_checkerboards(g, sign) == brute_sym_checkerboards(g, sign)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            g, _ = sort_by_degree(random_graph(rng, int(rng.integers(4, 9))))
            for sign in (POSITIVE, NEGATIVE):
                found = find_sym_checkerboards(g, sign)
                assert found == brute_sym_checkerboards(g, sign)
                assert count_sym_checkerboards(g.adj, sign) == len(found)

    def test_count_loop_fallback_matches_vectorised(self):
        # n = 310 takes several row blocks; compare with the per-pair loop
        g = gen_erdos_renyi(310, 0.05, seed=2)
        loop_count = loop_sym_checkerboards(g.adj, NEGATIVE)
        assert count_sym_checkerboards(g.adj, NEGATIVE) == loop_count > 0
        vec_count = int(graph.sym_board_pair_counts(g.adj, NEGATIVE).sum()) // 2
        assert vec_count == loop_count

    def test_row_counts_match_full_table(self):
        # the kept-current table against the from-scratch count, on random
        # (unsorted) graphs, after each of a few positive switches
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(1, 41))
            adj = random_graph(rng, n, float(rng.uniform(0.1, 0.9))).writable_bits()
            table = graph.NegativeBoardTable(adj)
            for _ in range(int(rng.integers(1, 7))):
                assert np.array_equal(table.counts, graph.sym_board_pair_counts(adj, NEGATIVE))
                coord = sample_negative_checkerboard(adj, rng, table.counts)
                if coord is None:
                    break
                table.switch(coord)
            assert np.array_equal(table.counts, graph.sym_board_pair_counts(adj, NEGATIVE))


def walk_table(adj, rng, steps):
    """``steps`` positive switches through a NegativeBoardTable, preferring
    boards whose rows i and j are adjacent; the table must equal the
    from-scratch count before and after every switch.  Returns the number
    of switches made and how many had i and j adjacent."""
    table = graph.NegativeBoardTable(adj)
    made = adjacent = 0
    for _ in range(steps):
        assert np.array_equal(table.counts, graph.sym_board_pair_counts(adj, NEGATIVE))
        boards = find_sym_checkerboards(Graph(adj), NEGATIVE)
        if not boards:
            break
        linked = [sw for sw in boards if adj[sw.i - 1, sw.j - 1]]
        pool = linked or boards
        table.switch(pool[int(rng.integers(len(pool)))])
        made += 1
        adjacent += bool(linked)
    assert np.array_equal(table.counts, graph.sym_board_pair_counts(adj, NEGATIVE))
    return made, adjacent


class TestNegativeBoardTable:
    @pytest.mark.parametrize("lo, hi", [(0.05, 0.25), (0.35, 0.65), (0.75, 0.95)])
    def test_matches_full_count_along_walks(self, lo, hi):
        rng = np.random.default_rng(int(lo * 100))
        made = adjacent = 0
        for _ in range(8):
            n = int(rng.integers(4, 41))
            g, _ = sort_by_degree(random_graph(rng, n, float(rng.uniform(lo, hi))))
            steps = walk_table(g.writable_bits(), rng, 30)
            made, adjacent = made + steps[0], adjacent + steps[1]
        assert made > 0 and adjacent > 0

    def test_walks_to_the_sink(self):
        rng = np.random.default_rng(5)
        for n in (4, 5, 6, 9, 12):
            g, _ = sort_by_degree(random_graph(rng, n, 0.5))
            adj = g.writable_bits()
            walk_table(adj, rng, 10**6)
            assert count_sym_checkerboards(adj, NEGATIVE) == 0

    @pytest.mark.parametrize(
        "g", [Graph(np.zeros((6, 6), dtype=int)), complete_graph(6), star_graph(5)]
    )
    def test_boardless_graphs(self, g):
        adj = g.writable_bits()
        table = graph.NegativeBoardTable(adj)
        assert not table.counts.any()
        assert walk_table(adj, np.random.default_rng(0), 5) == (0, 0)

    def test_switch_rejects_non_board(self):
        adj = path_graph(4).writable_bits()
        table = graph.NegativeBoardTable(adj)
        with pytest.raises(InvalidSwitch):
            table.switch(Switch(1, 2, 3, 4))


class TestBoardPairCountsTwin:
    """``sym_board_pair_counts`` against the independent prefix-sum scan."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 12, 24, 60, 100, 150])
    def test_matches_reference_on_sorted_er(self, n):
        for tenths in range(1, 10):
            g, _ = sort_by_degree(gen_erdos_renyi(n, tenths / 10, seed=100 * n + tenths))
            for sign in (POSITIVE, NEGATIVE):
                got = graph.sym_board_pair_counts(g.adj, sign)
                assert got.dtype == np.int64
                assert np.array_equal(got, reference_sym_board_pair_counts(g.adj, sign))

    @pytest.mark.parametrize(
        "g",
        [Graph(np.zeros((6, 6), dtype=int)), complete_graph(7), star_graph(6)]
        + [Graph(np.zeros((n, n), dtype=int)) for n in (1, 2, 3)]
        + [complete_graph(n) for n in (1, 2, 3)],
    )
    def test_matches_reference_on_boardless_graphs(self, g):
        for sign in (POSITIVE, NEGATIVE):
            got = graph.sym_board_pair_counts(g.adj, sign)
            assert not got.any()
            assert np.array_equal(got, reference_sym_board_pair_counts(g.adj, sign))
            assert count_sym_checkerboards(g.adj, sign) == 0

    def test_kernel_halves_match_reference(self):
        # both halves of the table's recount kernel, on every pair they
        # define and on row sets that switch never passes
        rng = np.random.default_rng(31)
        for trial in range(40):
            n = int(rng.integers(1, 41))
            g = random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
            if trial % 2:
                g, _ = sort_by_degree(g)
            adj = g.writable_bits()
            want = reference_sym_board_pair_counts(adj, NEGATIVE)
            table = graph.NegativeBoardTable(adj)
            every = np.arange(n)
            subsets = [[0], [n - 1], every, rng.choice(n, int(rng.integers(1, n + 1)), replace=False)]
            if n >= 4:
                subsets.append(rng.choice(n, 4, replace=False))
            for rows in map(np.asarray, subsets):
                first, second = table._recount(rows)
                # r < b from the first half, b < r from the second
                later, earlier = every > rows[:, None], every < rows[:, None]
                assert np.array_equal(first[later], want[rows][later])
                assert np.array_equal(second[earlier], want[:, rows].T[earlier])
            assert np.array_equal(table.counts, want)

    @pytest.mark.parametrize("rows", [1, 7, 16])
    def test_row_blocks_match_reference(self, monkeypatch, rows):
        g, _ = sort_by_degree(gen_erdos_renyi(50, 0.4, seed=rows))
        monkeypatch.setattr(graph, "_COUNT_BLOCK_CELLS", rows * 50)
        for sign in (POSITIVE, NEGATIVE):
            got = graph.sym_board_pair_counts(g.adj, sign)
            assert np.array_equal(got, reference_sym_board_pair_counts(g.adj, sign))

    @pytest.mark.parametrize("n, limit", [(100, 10**6), (300, 32 * 300**2 + 2 * 10**6)])
    def test_count_traced_peak(self, n, limit):
        # at n = 100 one row block; at n = 300 three.  The helpers and the
        # table take 32 n^2 bytes, the row blocks stay under 2 MB more.
        g, _ = sort_by_degree(gen_erdos_renyi(n, 0.3, seed=n))
        for sign in (POSITIVE, NEGATIVE):
            tracemalloc.start()
            try:
                graph.sym_board_pair_counts(g.adj, sign)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= limit, (sign, peak)

    def test_table_matches_reference_over_200_switches(self):
        rng = np.random.default_rng(29)
        g, _ = sort_by_degree(gen_erdos_renyi(40, 0.5, seed=29))
        adj = g.writable_bits()
        table = graph.NegativeBoardTable(adj)
        for _ in range(200):
            assert np.array_equal(table.counts, reference_sym_board_pair_counts(adj, NEGATIVE))
            coord = sample_negative_checkerboard(adj, rng, table.counts)
            assert coord is not None
            table.switch(coord)
        assert np.array_equal(table.counts, reference_sym_board_pair_counts(adj, NEGATIVE))


class TestApplySymSwitch:
    def test_involution_and_degrees(self):
        rng = np.random.default_rng(19)
        done = 0
        while done < 15:
            g, _ = sort_by_degree(random_graph(rng, 8))
            boards = find_sym_checkerboards(g, NEGATIVE)
            if not boards:
                continue
            done += 1
            sw = boards[int(rng.integers(len(boards)))]
            g2 = apply_sym_switch(g, sw, POSITIVE)
            assert (g2.degrees == g.degrees).all()
            assert apply_sym_switch(g2, sw, NEGATIVE) == g

    def test_m2_delta_law(self):
        rng = np.random.default_rng(20)
        done = 0
        while done < 30:
            g, _ = sort_by_degree(random_graph(rng, 9))
            boards = find_sym_checkerboards(g, NEGATIVE)
            if not boards:
                continue
            done += 1
            sw = boards[int(rng.integers(len(boards)))]
            _, m2_before, _, _ = zagreb(g)
            g2 = apply_sym_switch(g, sw, POSITIVE)
            _, m2_after, _, _ = zagreb(g2)
            d = g.degrees
            expect = int((d[sw.i - 1] - d[sw.j - 1]) * (d[sw.k - 1] - d[sw.l - 1]))
            assert m2_after - m2_before == expect
            assert expect >= 0  # degree-sorted, so positive switches never drop M2

    def test_delta_zero_iff_tied_degrees(self):
        rng = np.random.default_rng(27)
        done = 0
        while done < 20:
            g, _ = sort_by_degree(random_graph(rng, 8))
            boards = find_sym_checkerboards(g, NEGATIVE)
            if not boards:
                continue
            done += 1
            sw = boards[0]
            d = g.degrees
            delta = graph.m2_switch_delta(d, sw)
            tied = d[sw.i - 1] == d[sw.j - 1] or d[sw.k - 1] == d[sw.l - 1]
            assert (delta == 0) == tied

    def test_invalid(self):
        g = complete_graph(5)
        with pytest.raises(InvalidSwitch):
            apply_sym_switch(g, (1, 2, 3, 4), POSITIVE)
        with pytest.raises(InvalidSwitch):
            apply_sym_switch(g, (1, 2, 2, 3), NEGATIVE)  # vertices not distinct


class TestZagreb:
    def test_complete_4(self):
        assert zagreb(complete_graph(4)) == (36, 54, 3.0, 3.0)

    def test_star_3(self):
        m1, m2, z1, z2 = zagreb(star_graph(3))
        assert (m1, m2) == (12, 9)
        assert z2 == pytest.approx(math.sqrt(3))

    def test_regular_equalities(self):
        g = complete_graph(6)
        m1, m2, z1, z2 = zagreb(g)
        lam = spectral_radius(g).lambda1
        assert z1 == pytest.approx(5.0) and z2 == pytest.approx(5.0)
        assert lam == pytest.approx(5.0, abs=1e-9)

    def test_edgeless_raises(self):
        with pytest.raises(DegenerateGraph):
            zagreb(Graph(np.zeros((3, 3), dtype=int)))


class TestAssortativity:
    def test_regular_undefined(self):
        assert assortativity(complete_graph(4)) is None

    def test_star_fully_disassortative(self):
        assert assortativity(star_graph(3)) == pytest.approx(-1.0)

    def test_sign_tracks_m2(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 20:
            g, _ = sort_by_degree(random_graph(rng, 10, 0.4))
            boards = find_sym_checkerboards(g, NEGATIVE)
            r0 = assortativity(g) if g.m else None
            if not boards or r0 is None:
                continue
            sw = boards[int(rng.integers(len(boards)))]
            g2 = apply_sym_switch(g, sw, POSITIVE)
            r1 = assortativity(g2)
            if r1 is None:
                continue
            done += 1
            _, m2a, _, _ = zagreb(g)
            _, m2b, _, _ = zagreb(g2)
            if m2b > m2a:
                assert r1 > r0 - 1e-12
            elif m2b == m2a:
                assert r1 == pytest.approx(r0)

    def test_edgeless_raises(self):
        with pytest.raises(DegenerateGraph):
            assortativity(Graph(np.zeros((2, 2), dtype=int)))


class TestSpectralRadius:
    def test_complete(self):
        for n in (2, 4, 7):
            rep = spectral_radius(complete_graph(n))
            assert rep.lambda1 == pytest.approx(n - 1, abs=1e-9)
            assert rep.converged

    def test_star(self):
        rep = spectral_radius(star_graph(3))
        assert rep.lambda1 == pytest.approx(math.sqrt(3), abs=1e-9)

    def test_complete_bipartite(self):
        a, b = 3, 5
        adj = np.zeros((a + b, a + b), dtype=int)
        adj[:a, a:] = adj[a:, :a] = 1
        rep = spectral_radius(Graph(adj))
        assert rep.lambda1 == pytest.approx(math.sqrt(a * b), abs=1e-9)

    def test_empty_graph(self):
        rep = spectral_radius(Graph(np.zeros((3, 3), dtype=int)))
        assert rep.lambda1 == pytest.approx(0.0, abs=1e-12)

    def test_eigvec_nonneg_unit(self):
        rng = np.random.default_rng(33)
        g = random_graph(rng, 12, 0.3)
        rep = spectral_radius(g)
        assert (rep.eigvec >= 0).all()
        assert np.linalg.norm(rep.eigvec) == pytest.approx(1.0)

    def test_lambda_at_least_z1(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            g = random_graph(rng, int(rng.integers(2, 15)), float(rng.uniform(0.1, 0.9)))
            if g.m == 0:
                continue
            _, _, z1, _ = zagreb(g)
            assert spectral_radius(g).lambda1 >= z1 - 1e-8

    def test_matches_jacobi(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(2, 13)), float(rng.uniform(0.1, 0.9)))
            lam = spectral_radius(g).lambda1
            assert lam == pytest.approx(dense_spectral_radius(g.adj), abs=1e-8)


class TestJacobi:
    def test_path_3_spectrum(self):
        vals = jacobi_eigenvalues(path_graph(3).adj.astype(float))
        assert vals == pytest.approx([math.sqrt(2), 0.0, -math.sqrt(2)], abs=1e-10)

    def test_matches_eigvalsh(self):
        # LAPACK as the reference here only; the package never calls it
        rng = np.random.default_rng(39)
        for n in range(1, 11):
            for _ in range(5):
                m = rng.normal(size=(n, n))
                sym = (m + m.T) / 2
                vals = jacobi_eigenvalues(sym)
                assert vals == pytest.approx(np.linalg.eigvalsh(sym)[::-1], abs=1e-9)
                assert list(vals) == sorted(vals, reverse=True)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            jacobi_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


class TestGenerators:
    def test_er_zero_probability(self):
        g = gen_erdos_renyi(100, 0.0, seed=1)
        assert g.m == 0

    def test_er_full_probability(self):
        g = gen_erdos_renyi(20, 1.0, seed=1)
        assert g.m == 20 * 19 // 2

    def test_er_determinism(self):
        a = gen_erdos_renyi(50, 0.3, seed=9)
        b = gen_erdos_renyi(50, 0.3, seed=9)
        c = gen_erdos_renyi(50, 0.3, seed=10)
        assert a == b and a != c

    def test_er_edge_count_band(self):
        # binomial sanity band: expected 990, +-3 sigma
        g = gen_erdos_renyi(100, 0.2, seed=5)
        expect = 0.2 * 4950
        sigma = math.sqrt(4950 * 0.2 * 0.8)
        assert abs(g.m - expect) <= 3 * sigma

    def test_grid_no_rewire(self):
        g = gen_small_world(10, 0.0, seed=0)
        assert g.n == 100 and g.m == 180
        corner_deg = sorted(int(d) for d in g.degrees)[:4]
        assert corner_deg == [2, 2, 2, 2]

    def test_grid_rewire_keeps_edge_count(self):
        g = gen_small_world(10, 0.1, seed=3)
        assert g.m == 180
        assert g != gen_small_world(10, 0.0, seed=3)

    def test_grid_determinism(self):
        assert gen_small_world(6, 0.2, seed=4) == gen_small_world(6, 0.2, seed=4)

    def test_split_zebra_identity_class(self):
        out = gen_split_zebra((1, 1), (1, 1))
        assert out == BinaryMatrix([[1, 0], [0, 1]])

    def test_split_zebra_classified(self):
        out = gen_split_zebra((2, 1, 1), (2, 1, 1))
        cls = binmat.classify(out)
        assert cls.is_split_zebra or cls.is_split_anti_zebra
        assert binmat.row_col_sums(out) == ((2, 1, 1), (2, 1, 1))

    def test_split_zebra_matches_reference_walk(self):
        # reference: from the greedy realisation, switch the first negative
        # board found by brute force until none is left
        rng = np.random.default_rng(37)
        margins = []
        for _ in range(40):
            p, q = (int(x) for x in rng.integers(1, 7, size=2))
            A = BinaryMatrix((rng.random((p, q)) < 0.5).astype(np.int8))
            margins.append(binmat.row_col_sums(A))
        # larger classes with a split member: a nested top block over an
        # anti-nested bottom block
        for p in range(8, 13):
            q = int(rng.integers(8, 13))
            top = np.sort(rng.integers(0, q + 1, size=p // 2))[::-1]
            bottom = np.sort(rng.integers(0, q + 1, size=p - p // 2))
            cols = np.arange(q)
            bits = np.vstack([cols < top[:, None], cols >= q - bottom[:, None]])
            margins.append(binmat.row_col_sums(BinaryMatrix(bits.astype(np.int8))))
        for R, C in margins:
            p, q = len(R), len(C)
            bits = binmat.from_margins(R, C).writable_bits()
            while True:
                first = next(
                    (
                        (i + 1, j + 1, k + 1, l + 1)
                        for i, j in itertools.combinations(range(p), 2)
                        for k, l in itertools.combinations(range(q), 2)
                        if (bits[i, k], bits[i, l], bits[j, k], bits[j, l]) == (0, 1, 1, 0)
                    ),
                    None,
                )
                if first is None:
                    break
                binmat.switch_bits_inplace(bits, first, POSITIVE)
            sink = BinaryMatrix(bits)
            cls = binmat.classify(sink)
            if cls.is_split_zebra or cls.is_split_anti_zebra:
                assert gen_split_zebra(R, C) == sink
            else:
                with pytest.raises(InfeasibleMargins):
                    gen_split_zebra(R, C)

    def test_split_zebra_infeasible_margins(self):
        with pytest.raises(InfeasibleMargins):
            gen_split_zebra((2, 2), (1, 1))

    def test_split_zebra_class_without_split_member(self):
        with pytest.raises(InfeasibleMargins):
            gen_split_zebra((1, 3, 3, 1), (3, 1, 1, 3))
