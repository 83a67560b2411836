import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from switchgraph import optimize, oracle
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from switchgraph.errors import InternalInvariantViolation
from switchgraph.graph import (
    Graph,
    find_sym_checkerboards,
    gen_erdos_renyi,
    sort_by_degree,
    spectral_radius,
    sym_board_pair_counts,
    zagreb,
)
from switchgraph.optimize import (
    TERMINATION_BUDGET,
    TERMINATION_SINK,
    run,
    sample_negative_checkerboard,
    structure_mismatch,
    trajectory_csv,
    write_trajectory_csv,
)

from conftest import apply_sym_switch


def complete_graph(n):
    return Graph(np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


def sorted_er(n, p, seed):
    g, _ = sort_by_degree(gen_erdos_renyi(n, p, seed))
    return g


class FixedPick:
    """Stand-in generator whose every ``integers(total)`` draw is ``pick``."""

    def __init__(self, pick):
        self.pick = pick
        self.totals = []

    def integers(self, total):
        self.totals.append(total)
        return self.pick


def reference_picks(g):
    """The sampler's pick -> switch map, from the listed negative switches.

    Each switch (i, j, k, l) is a board of row pair (i, j) at columns
    (k, l) and of row pair (k, l) at columns (i, j).  Picks run over the
    row pairs in row-major order, and within a pair by the second column,
    then the first.
    """
    entries = []
    for s in find_sym_checkerboards(g, NEGATIVE):
        entries.append(((s.i, s.j), s.l, s.k, s))
        entries.append(((s.k, s.l), s.j, s.i, s))
    entries.sort(key=lambda e: e[:3])
    return [e[3] for e in entries]


class TestSampler:
    def test_sink_returns_none(self):
        adj = complete_graph(6).writable_bits()
        counts = sym_board_pair_counts(adj, NEGATIVE)
        assert sample_negative_checkerboard(adj, np.random.default_rng(0), counts) is None

    def test_single_board_found(self):
        # path 2-1-3 plus edge 4-... build a sorted graph with exactly one
        # negative board, then confirm the sampler can only return it
        rng = np.random.default_rng(1)
        g = None
        while g is None:
            cand = sorted_er(6, 0.4, int(rng.integers(10**6)))
            if len(find_sym_checkerboards(cand, NEGATIVE)) == 1:
                g = cand
        only = find_sym_checkerboards(g, NEGATIVE)[0]
        adj = g.writable_bits()
        counts = sym_board_pair_counts(adj, NEGATIVE)
        for trial_seed in range(5):
            out = sample_negative_checkerboard(adj, np.random.default_rng(trial_seed), counts)
            assert out == only

    def test_uniform_within_5_sigma(self):
        rng0 = np.random.default_rng(42)
        g = None
        while g is None:
            cand = sorted_er(8, 0.5, int(rng0.integers(10**6)))
            if len(find_sym_checkerboards(cand, NEGATIVE)) >= 3:
                g = cand
        boards = find_sym_checkerboards(g, NEGATIVE)
        k = len(boards)
        draws = 10000
        rng = np.random.default_rng(7)
        adj = g.writable_bits()
        table = sym_board_pair_counts(adj, NEGATIVE)
        counts = Counter(
            sample_negative_checkerboard(adj, rng, table) for _ in range(draws)
        )
        assert set(counts) == set(boards)
        expect = draws / k
        sigma = math.sqrt(draws * (1 / k) * (1 - 1 / k))
        assert all(abs(c - expect) <= 5 * sigma for c in counts.values())

    @pytest.mark.parametrize(
        "graphs",
        [
            pytest.param(lambda D=D: map(Graph, oracle.enumerate_degree_class(list(D))), id=f"D={D}")
            for D in ((2, 2, 2, 2, 2), (3, 2, 2, 2, 2, 1), (3, 3, 3, 2, 2, 1),
                      (4, 3, 3, 2, 2, 2, 2), (3, 3, 3, 3, 2, 2, 2))
        ]
        + [
            pytest.param(lambda n=n, p=p: [sorted_er(n, p, seed) for seed in range(3)],
                         id=f"er-{n}-{p}")
            for n, p in ((12, 0.3), (16, 0.5), (20, 0.7))
        ],
    )
    def test_every_pick_matches_reference(self, graphs):
        # one draw in range(total) decides the switch: walk every draw
        checked = 0
        for g in graphs():
            adj = g.writable_bits()
            counts = sym_board_pair_counts(adj, NEGATIVE)
            ref = reference_picks(g)
            picked = []
            for pick in range(len(ref)):
                rng = FixedPick(pick)
                picked.append(sample_negative_checkerboard(adj, rng, counts))
                assert rng.totals == [len(ref)]
            assert picked == ref
            assert set(Counter(picked).values()) <= {2}
            assert sorted(set(picked)) == find_sym_checkerboards(g, NEGATIVE)
            if not ref:
                rng = FixedPick(0)
                assert sample_negative_checkerboard(adj, rng, counts) is None
                assert rng.totals == []
            checked += len(ref)
        assert checked > 0

    def test_tiny_graph(self):
        adj = Graph(np.zeros((3, 3), dtype=int)).writable_bits()
        counts = sym_board_pair_counts(adj, NEGATIVE)
        assert sample_negative_checkerboard(adj, np.random.default_rng(0), counts) is None


class TestRun:
    def test_complete_graph_sinks_immediately(self):
        traj = run(complete_graph(5), budget=100, seed=0)
        assert traj.termination == TERMINATION_SINK
        assert traj.length == 0 and traj.switches.shape == (0, 4)
        assert traj.lambda1_initial == pytest.approx(4.0, abs=1e-9)

    def test_requires_sorted(self):
        adj = np.zeros((4, 4), dtype=int)
        adj[2, 3] = adj[3, 2] = 1
        with pytest.raises(ValueError):
            run(Graph(adj), budget=10)

    def test_m2_non_decreasing_and_degrees_fixed(self):
        g = sorted_er(30, 0.3, seed=11)
        traj = run(g, budget=200, lambda_every=0, seed=2)
        m2s = [traj.M2_initial] + traj.M2.tolist()
        assert all(b >= a for a, b in zip(m2s, m2s[1:]))
        assert traj.initial.degrees.tobytes() == traj.final.degrees.tobytes()
        # recorded M2 matches a from-scratch recount at the endpoint
        assert traj.M2_final == zagreb(traj.final)[1]

    def test_budget_exhaustion(self):
        g = sorted_er(30, 0.3, seed=13)
        traj = run(g, budget=3, lambda_every=0, seed=3)
        assert traj.termination == TERMINATION_BUDGET
        assert traj.length == 3

    def test_sink_reached_confirmed_empty(self):
        g = sorted_er(12, 0.4, seed=17)
        traj = run(g, budget=10**6, lambda_every=0, seed=4)
        assert traj.termination == TERMINATION_SINK
        assert find_sym_checkerboards(traj.final, NEGATIVE) == []

    def test_each_step_was_negative_board(self):
        g = sorted_er(14, 0.4, seed=19)
        traj = run(g, budget=50, lambda_every=0, seed=5)
        cur = g
        for row in traj.switches.tolist():
            cur = apply_sym_switch(cur, Switch(*row), POSITIVE)  # raises if invalid
        assert cur == traj.final

    def test_lambda_sampling_stride(self):
        g = sorted_er(20, 0.3, seed=23)
        traj = run(g, budget=12, lambda_every=5, seed=6)
        assert traj.length == 12
        assert sorted(traj.lambda1_samples) == [5, 10]

    def test_arrays(self):
        g = sorted_er(20, 0.3, seed=23)
        traj = run(g, budget=12, lambda_every=5, seed=6)
        assert traj.switches.shape == (12, 4) and traj.M2.shape == (12,)
        for values in (traj.switches, traj.M2):
            assert values.dtype == np.int64 and not values.flags.writeable
        assert traj.M2_final == traj.M2[-1]
        assert traj.Z2_final == math.sqrt(traj.M2_final / g.m)

    def test_memory_flat_in_length(self, tmp_path):
        # a run plus its CSV holds its board table and a few arrays: the
        # traced peak grows by well under 64 B for each extra step
        g = sorted_er(100, 0.2, seed=0)
        peaks = {}
        tracemalloc.start()
        try:
            for budget in (200, 2200):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                traj = run(g, budget=budget, lambda_every=25, seed=0)
                write_trajectory_csv(traj, tmp_path / f"{budget}.csv")
                peaks[budget] = tracemalloc.get_traced_memory()[1] - base
                assert traj.termination == TERMINATION_BUDGET
                del traj
        finally:
            tracemalloc.stop()
        assert (peaks[2200] - peaks[200]) / 2000 < 64, peaks

    def test_board_table_stays_exact(self, monkeypatch):
        # every table run() hands the sampler equals a from-scratch count
        checked = []
        sample = optimize.sample_negative_checkerboard

        def checking_sample(adj, rng, counts):
            assert np.array_equal(counts, sym_board_pair_counts(adj, NEGATIVE))
            checked.append(int(counts.sum()))
            return sample(adj, rng, counts)

        monkeypatch.setattr(optimize, "sample_negative_checkerboard", checking_sample)
        rng = np.random.default_rng(41)
        for _ in range(12):
            g = sorted_er(int(rng.integers(5, 31)), float(rng.uniform(0.2, 0.8)),
                          int(rng.integers(2**31)))
            before = len(checked)
            traj = run(g, budget=10**6, lambda_every=0, seed=int(rng.integers(2**31)))
            assert traj.termination == TERMINATION_SINK
            assert len(checked) - before == traj.length + 1 and checked[-1] == 0
        assert sum(checked) > 0

    def test_stale_table_at_sink_raises(self, monkeypatch):
        # a table that reads empty while boards remain must not pass as a sink
        monkeypatch.setattr(
            optimize, "sample_negative_checkerboard", lambda adj, rng, counts: None
        )
        with pytest.raises(InternalInvariantViolation):
            run(sorted_er(14, 0.4, seed=19), budget=10, lambda_every=0, seed=1)

    def test_lambda_stats(self, monkeypatch):
        g = sorted_er(20, 0.3, seed=23)
        traj = run(g, budget=12, lambda_every=5, seed=6)
        # initial, steps 5 and 10, final
        assert traj.stats.lambda_samples == 4
        assert traj.stats.power_iterations > traj.stats.lambda_samples
        assert traj.stats.lambda_nonconverged == 0
        monkeypatch.setattr(
            optimize, "spectral_radius", lambda G: spectral_radius(G, max_iter=3)
        )
        capped = run(g, budget=12, lambda_every=5, seed=6)
        assert capped.stats.lambda_nonconverged == capped.stats.lambda_samples == 4
        assert capped.stats.power_iterations == 12

    @pytest.mark.parametrize(
        "n, p, seed, digest",
        [
            (100, 0.2, 0, "6c9bcc2d7fba76e446c85c1779ca3bf83d98520239eec6f66f7b8f8733104037"),
            (60, 0.7, 1, "3e767ed5e3c69335252df0ca7e359c3b46fc7605955ff0aca3c73875b081ee19"),
            (24, 0.5, 2, "559515970c681cea4c755e55aa7fb222c8ad30169c59ab04b6de69cd808328fa"),
        ],
    )
    def test_golden_trajectory(self, n, p, seed, digest, tmp_path):
        # one RNG draw per step and an exact table: the CSV and the final
        # matrix of a seeded run to the sink are pinned byte for byte (the
        # lambda1 column is float power iteration, so on one numpy build)
        traj = run(sorted_er(n, p, seed), budget=10**6, lambda_every=25, seed=seed)
        assert traj.termination == TERMINATION_SINK
        csv = trajectory_csv(traj)
        text = csv + traj.final.to_text()
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
        write_trajectory_csv(traj, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == csv.encode("ascii")

    @pytest.mark.parametrize("budget", [50, 51])
    def test_writer_matches_text_at_budget(self, budget, tmp_path):
        # the last row's lambda1 is the step-50 sample, or lambda1_final at 51
        traj = run(sorted_er(40, 0.3, 5), budget=budget, lambda_every=25, seed=5)
        assert traj.termination == TERMINATION_BUDGET and traj.length == budget
        csv = trajectory_csv(traj)
        write_trajectory_csv(traj, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == csv.encode("ascii")
        last = csv.rstrip("\n").rsplit("\n", 1)[1].split(",")
        assert last[0] == str(budget)
        expect = traj.lambda1_samples[50] if budget == 50 else traj.lambda1_final
        assert last[7] == repr(expect)
        assert sorted(traj.lambda1_samples) == [25, 50]

    def test_reproducible(self):
        g = sorted_er(25, 0.3, seed=29)
        a = run(g, budget=60, lambda_every=10, seed=7)
        b = run(g, budget=60, lambda_every=10, seed=7)
        assert trajectory_csv(a) == trajectory_csv(b)
        c = run(g, budget=60, lambda_every=10, seed=8)
        assert trajectory_csv(a) != trajectory_csv(c)


class TestCsv:
    def test_header_and_layout(self):
        g = sorted_er(16, 0.4, seed=31)
        traj = run(g, budget=7, lambda_every=3, seed=9)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "step,i,j,k,l,M2,Z2,lambda1"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1:5] == ["", "", "", ""]
        assert float(first[7]) == pytest.approx(traj.lambda1_initial)
        last = lines[-1].split(",")
        assert float(last[7]) == pytest.approx(traj.lambda1_final)

    def test_write_byte_identical(self, tmp_path):
        g = sorted_er(16, 0.4, seed=37)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory_csv(run(g, budget=20, seed=10), a)
        write_trajectory_csv(run(g, budget=20, seed=10), b)
        assert a.read_bytes() == b.read_bytes()


class TestStructureMismatch:
    def test_banded_matrix_fits_anti_zebra(self):
        banded = BinaryMatrix(
            [
                [1, 1, 0, 0, 0],
                [1, 1, 1, 0, 0],
                [0, 1, 1, 1, 0],
                [0, 0, 1, 1, 1],
                [0, 0, 0, 1, 1],
            ]
        )
        scores = structure_mismatch(banded)
        assert scores["anti_zebra"] == 0.0
        assert scores["zebra"] > 0.0

    def test_edge_anchored_matrix_fits_zebra(self):
        edged = BinaryMatrix(
            [
                [1, 1, 1, 0, 1],
                [1, 1, 0, 0, 1],
                [1, 0, 0, 1, 1],
                [1, 0, 1, 1, 1],
            ]
        )
        scores = structure_mismatch(edged)
        assert scores["zebra"] == 0.0
        assert scores["anti_zebra"] > 0.0

    def test_matches_per_offset_loop(self):
        def reference(bits):
            p, q = bits.shape
            zebra_miss = band_miss = 0
            for row in bits:
                s = int(row.sum())
                if s == 0 or s == q:
                    continue
                csum = np.concatenate([[0], np.cumsum(row, dtype=np.int64)])
                best_edge = 0
                for x in range(s + 1):
                    overlap = int(csum[x]) + int(csum[q] - csum[q - (s - x)])
                    best_edge = max(best_edge, overlap)
                zebra_miss += 2 * (s - best_edge)
                windows = csum[s:] - csum[: q - s + 1]
                band_miss += 2 * (s - int(windows.max()))
            return {"zebra": zebra_miss / (p * q), "anti_zebra": band_miss / (p * q)}

        rng = np.random.default_rng(5)
        for _ in range(60):
            p, q = (int(v) for v in rng.integers(1, 25, size=2))
            bits = (rng.random((p, q)) < rng.uniform(0.1, 0.9)).astype(np.int8)
            bits[rng.random(p) < 0.15] = 0
            bits[rng.random(p) < 0.15] = 1
            A = BinaryMatrix(bits)
            assert structure_mismatch(A) == reference(A.bits)

    def test_full_and_empty_rows_neutral(self):
        flat = BinaryMatrix([[1, 1, 1], [0, 0, 0]])
        scores = structure_mismatch(flat)
        assert scores == {"zebra": 0.0, "anti_zebra": 0.0}
