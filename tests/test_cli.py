import argparse
import ast
import hashlib
import importlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import switchgraph
from switchgraph import binmat, cli, graph, optimize, oracle
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix

from conftest import (
    BACKTRACK_A,
    BACKTRACK_B,
    BLOCK_A,
    BLOCK_B,
    PAIR_3X3_A,
    PAIR_3X3_B,
    RING_A,
    RING_B,
    random_binary,
    reverse_sole_arc,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def write(tmp_path, name, rows):
    path = tmp_path / name
    binmat.write_matrix(BinaryMatrix(rows), path)
    return str(path)


K4 = [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]


class TestGen:
    def test_er_writes_parseable_file(self, tmp_path, capsys):
        out = tmp_path / "er.mat"
        code, payload, _ = run_json(
            capsys, "gen", "er", "--n", "12", "--p", "0.3", "--seed", "5", "--out", str(out)
        )
        assert code == 0
        assert payload["schema"] == 1 and payload["config"]["n"] == 12
        mat = binmat.read_matrix(out)
        assert mat.p == 12

    def test_gen_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.mat", tmp_path / "b.mat"
        run_cli(capsys, "gen", "er", "--n", "10", "--p", "0.5", "--seed", "3", "--out", str(a))
        run_cli(capsys, "gen", "er", "--n", "10", "--p", "0.5", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.mat"
        code, payload, _ = run_json(
            capsys, "gen", "grid", "--side", "4", "--rewire", "0.0", "--out", str(out)
        )
        assert code == 0 and payload["ones"] == 2 * 24  # 2 * side * (side-1) edges

    def test_zebra(self, tmp_path, capsys):
        margins = tmp_path / "m.txt"
        margins.write_text("1 1\n1 1\n")
        out = tmp_path / "z.mat"
        code, payload, _ = run_json(
            capsys, "gen", "zebra", "--margins", str(margins), "--out", str(out)
        )
        assert code == 0
        assert binmat.read_matrix(out) == BinaryMatrix([[1, 0], [0, 1]])

    def test_zebra_infeasible_class(self, tmp_path, capsys):
        margins = tmp_path / "m.txt"
        margins.write_text("1 3 3 1\n3 1 1 3\n")
        out = tmp_path / "z.mat"
        code, payload, _ = run_json(
            capsys, "gen", "zebra", "--margins", str(margins), "--out", str(out)
        )
        assert code == 1 and "error" in payload


@pytest.mark.parametrize(
    "argv", [("gen", "zebra", "--out", "{d}/z.mat"), ("enumerate",)], ids=["gen-zebra", "enumerate"]
)
def test_margin_totals_differ(tmp_path, capsys, argv):
    # row sums 4, column sums 2: no matrix, a domain-negative answer on both
    margins = tmp_path / "m.txt"
    margins.write_text("2 2\n1 1\n")
    argv = [arg.format(d=tmp_path) for arg in argv] + ["--margins", str(margins)]
    code, payload, err = run_json(capsys, *argv)
    assert code == 1 and err == ""
    assert "error" in payload
    if argv[0] == "enumerate":
        assert payload["count"] == 0
        assert payload["error"] == "margin sums differ: 4 != 2"


class TestAnalyze:
    def test_complete_graph(self, tmp_path, capsys):
        path = write(tmp_path, "k4.mat", K4)
        code, payload, _ = run_json(capsys, "analyze", path)
        assert code == 0
        assert payload["n"] == 4 and payload["m"] == 6
        assert payload["lambda1"] == pytest.approx(3.0, abs=1e-9)
        assert payload["M2"] == 54
        assert payload["r"] is None  # regular graph
        assert payload["checkerboards"] == {"positive": 0, "negative": 0}

    def test_edgeless_graph_indices(self, tmp_path, capsys):
        path = write(tmp_path, "e3.mat", [[0, 0, 0]] * 3)
        code, payload, _ = run_json(capsys, "analyze", path)
        assert code == 0
        assert (payload["M1"], payload["M2"], payload["Z1"]) == (0, 0, 0.0)
        assert payload["Z2"] is None and payload["r"] is None

    def test_non_adjacency_is_degenerate(self, tmp_path, capsys):
        path = write(tmp_path, "id.mat", [[1, 0], [0, 1]])
        code, payload, _ = run_json(capsys, "analyze", path)
        assert code == 2 and "error" in payload
        assert payload["class"]["zebra"] is True

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/nonexistent/m.mat")
        assert code == 66

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.mat"
        bad.write_text("2 2\n10\n0\n")
        code, out, err = run_cli(capsys, "analyze", str(bad))
        assert code == 65


@pytest.mark.parametrize(
    "data, message",
    [
        (b"2 2\r\n10\r\n01\r\n", r"bad row 1: '10\r'"),
        ("2 2\n1\u00e9\n01\n".encode("utf-8"), "bad row 1: "),
    ],
    ids=["crlf", "non-ascii"],
)
@pytest.mark.parametrize("command", ["analyze", "reach", "path", "optimize"])
def test_cr_and_non_ascii_files_are_bad_data(tmp_path, capsys, data, message, command):
    bad = tmp_path / "bad.mat"
    bad.write_bytes(data)
    good = write(tmp_path, "good.mat", [[1, 0], [0, 1]])
    argv = {
        "analyze": [bad],
        "reach": [good, bad],
        "path": [good, bad],
        "optimize": ["--input", bad, "--budget", "5"],
    }[command]
    code, out, err = run_cli(capsys, command, *map(str, argv))
    assert code == 65 and out == ""
    assert f"{bad}: {message}" in err


class TestReach:
    def test_reachable_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", PAIR_3X3_A)
        b = write(tmp_path, "b.mat", PAIR_3X3_B)
        code, payload, _ = run_json(capsys, "reach", a, b)
        assert code == 0
        assert payload["status"] == "ReachableConstructive"
        assert payload["path_length"] == 2
        assert payload["conditions"] == {"i": True, "ii": True, "iii": True}
        assert payload["T"] == [[1, 1], [0, 1]]

    def test_unreachable_pair(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", RING_A)
        b = write(tmp_path, "b.mat", RING_B)
        code, payload, _ = run_json(capsys, "reach", a, b)
        assert code == 1
        assert payload["status"] == "UnreachableExhaustive"
        assert payload["path"] is None

    def test_unknown_with_tiny_cap(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", BLOCK_A)
        b = write(tmp_path, "b.mat", BLOCK_B)
        code, payload, _ = run_json(capsys, "reach", a, b, "--bfs-cap", "1")
        assert code == 2 and payload["status"] == "Unknown"
        a = write(tmp_path, "a.mat", RING_A)
        b = write(tmp_path, "b.mat", RING_B)
        code, payload, _ = run_json(capsys, "reach", a, b, "--bfs-cap", "1")
        assert code == 1 and payload["status"] == "UnreachableExhaustive"

    def test_margin_mismatch_is_data_error(self, tmp_path, capsys):
        # a margin and a shape mismatch, on reach and on path
        a = write(tmp_path, "a.mat", [[1, 0], [0, 1]])
        margins = write(tmp_path, "margins.mat", [[1, 1], [0, 0]])
        shape = write(tmp_path, "shape.mat", [[1, 0, 0], [0, 1, 0]])
        for command in ("reach", "path"):
            for b, message in (
                (margins, "matrices have different row or column sums"),
                (shape, "shapes differ: (2, 2) vs (2, 3)"),
            ):
                code, out, err = run_cli(capsys, command, a, b)
                assert (code, out, err) == (65, "", f"switchgraph: {message}\n"), command

    def test_identical(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", PAIR_3X3_A)
        code, payload, _ = run_json(capsys, "reach", a, a)
        assert code == 0 and payload["status"] == "Identical" and payload["path"] == []


class TestPath:
    def test_emits_switch_lines(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", PAIR_3X3_A)
        b = write(tmp_path, "b.mat", PAIR_3X3_B)
        code, out, err = run_cli(capsys, "path", a, b)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        switches = [tuple(int(t) for t in line.split()) for line in lines]
        cur = binmat.read_matrix(a)
        for sw in switches:
            cur = binmat.apply_switch(cur, sw, binmat.POSITIVE)
        assert cur == binmat.read_matrix(b)

    def test_unreachable_quiet(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", RING_A)
        b = write(tmp_path, "b.mat", RING_B)
        code, out, err = run_cli(capsys, "path", a, b)
        assert code == 1 and out == "" and "Unreachable" in err


class TestOptimize:
    def test_run_with_outputs(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        initial = tmp_path / "initial.mat"
        final = tmp_path / "final.mat"
        code, payload, _ = run_json(
            capsys,
            "optimize",
            "--gen", "er", "--n", "16", "--p", "0.4",
            "--budget", "50", "--lambda-every", "10", "--seed", "2",
            "--out-csv", str(csv),
            "--out-initial", str(initial),
            "--out-final", str(final),
        )
        assert code == 0
        assert payload["M2_final"] >= payload["M2_initial"]
        header = csv.read_text().split("\n", 1)[0]
        assert header == "step,i,j,k,l,M2,Z2,lambda1"
        gi = binmat.read_matrix(initial)
        gf = binmat.read_matrix(final)
        assert tuple(gi.row_sums) == tuple(gf.row_sums)

    def test_deterministic_csv(self, tmp_path, capsys):
        out = []
        for name in ("x.csv", "y.csv"):
            csv = tmp_path / name
            run_cli(
                capsys,
                "optimize",
                "--gen", "er", "--n", "14", "--p", "0.4",
                "--budget", "40", "--seed", "6",
                "--out-csv", str(csv),
            )
            out.append(csv.read_bytes())
        assert out[0] == out[1]

    def test_reports_lambda_stats(self, capsys):
        code, payload, _ = run_json(
            capsys, "optimize", "--gen", "er", "--n", "12", "--p", "0.4",
            "--budget", "20", "--lambda-every", "5", "--seed", "3",
        )
        assert code == 0
        stats = payload["stats"]
        assert set(stats) == {"lambda_samples", "power_iterations", "lambda_nonconverged"}
        assert stats["lambda_samples"] == 2 + payload["steps"] // 5
        assert stats["power_iterations"] >= stats["lambda_samples"]
        assert stats["lambda_nonconverged"] == 0

    def test_input_file_route(self, tmp_path, capsys):
        path = write(tmp_path, "k4.mat", K4)
        code, payload, _ = run_json(
            capsys, "optimize", "--input", path, "--budget", "5", "--seed", "1"
        )
        assert code == 0
        assert payload["termination"] == "SinkReached" and payload["steps"] == 0

    def test_needs_source(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--budget", "5")
        assert code == 65


class TestEnumerate:
    def test_margins(self, tmp_path, capsys):
        margins = tmp_path / "m.txt"
        margins.write_text("1 1\n1 1\n")
        code, payload, _ = run_json(capsys, "enumerate", "--margins", str(margins))
        assert code == 0
        assert payload["count"] == 2 and payload["arcs"] == 1
        assert payload["checks"]["acyclic"] and payload["checks"]["connected"]
        assert payload["checks"]["unique_sink"] == "pass"
        assert payload["checks"]["necessity"] and payload["checks"]["sufficiency"]

    def test_margins_failing_check(self, tmp_path, capsys, monkeypatch):
        # an arc reversed after the build breaks necessity and sufficiency
        build = oracle.build_dag

        def reversed_build(stack):
            dag = build(stack)
            reverse_sole_arc(dag)
            return dag

        monkeypatch.setattr(oracle, "build_dag", reversed_build)
        margins = tmp_path / "m.txt"
        margins.write_text("1 1 1 1\n1 1 1 1\n")
        code, payload, _ = run_json(capsys, "enumerate", "--margins", str(margins))
        assert code == 1 and payload["failures"]
        assert payload["checks"]["acyclic"] is True
        assert payload["checks"]["necessity"] is False
        assert payload["checks"]["sufficiency"] is False

    def test_negative_margin_is_bad_data(self, tmp_path, capsys):
        margins = tmp_path / "m.txt"
        margins.write_text("-1 1\n0 0\n")
        code, out, err = run_cli(capsys, "enumerate", "--margins", str(margins))
        assert code == 65 and out == ""
        assert "negative margin" in err

    @pytest.mark.parametrize(
        "argv", [("enumerate",), ("gen", "zebra", "--out", "{d}/z.mat")], ids=["enumerate", "gen-zebra"]
    )
    def test_non_ascii_margin_is_bad_data(self, tmp_path, capsys, argv):
        # the byte reads as U+FFFD, so the value fails to parse
        margins = tmp_path / "m.txt"
        margins.write_bytes(b"2 1\xc3\xa9\n2 1 1\n")
        argv = [arg.format(d=tmp_path) for arg in argv] + ["--margins", str(margins)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 65 and out == ""
        assert "bad margin value" in err

    def test_margins_cap(self, tmp_path, capsys):
        margins = tmp_path / "m.txt"
        margins.write_text("2 2 2 2\n2 2 2 2\n")
        code, payload, _ = run_json(
            capsys, "enumerate", "--margins", str(margins), "--max-states", "10"
        )
        assert code == 2

    def test_degrees(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "--degrees", "2,2,2,2")
        assert code == 0
        assert payload["count"] == 3
        assert payload["checks"]["max_at_sink"] is True

    def test_degrees_failing_check(self, capsys, monkeypatch):
        # the one sink of the class of 2,2,2,2 is member 0; member 2 gets
        # the largest spectral radius
        graphs = oracle.enumerate_degree_class([2, 2, 2, 2])
        assert oracle.build_graph_dag(graphs).sinks == [0]
        radius = oracle.dense_spectral_radius
        monkeypatch.setattr(
            oracle, "dense_spectral_radius", lambda adj: radius(adj) + float((adj == graphs[2]).all())
        )
        code, payload, _ = run_json(capsys, "enumerate", "--degrees", "2,2,2,2")
        assert code == 1 and payload["failures"]
        assert payload["checks"] == {"max_at_sink": False, "eigenvector_order": True}

    def test_degrees_cap(self, capsys):
        # the class of 2,2,2,2 has 3 members
        code, payload, _ = run_json(
            capsys, "enumerate", "--degrees", "2,2,2,2", "--max-states", "2"
        )
        assert code == 2 and payload["error"] == "class larger than --max-states"

    def test_degrees_nongraphical(self, capsys):
        code, payload, _ = run_json(capsys, "enumerate", "--degrees", "3,1")
        assert code == 1 and "error" in payload

    def test_requires_exactly_one_source(self, capsys):
        code, out, err = run_cli(capsys, "enumerate")
        assert code == 65

    def test_empty_margins_path_is_unreadable(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--margins", "")
        assert code == 66 and out == "" and "cannot read" in err


class TestScanConjecture:
    def test_smoke_and_append(self, tmp_path, capsys):
        report = tmp_path / "scan.jsonl"
        code, payload, _ = run_json(
            capsys,
            "scan-conjecture",
            "--trials", "40", "--max-dim", "3", "--seed", "1",
            "--out", str(report),
        )
        assert code == 0
        assert payload["classes_scanned"] > 0
        lines = [json.loads(l) for l in report.read_text().strip().split("\n")]
        assert all("cond_i" in rec for rec in lines)
        # appending: a second run grows the file
        before = len(lines)
        run_cli(
            capsys,
            "scan-conjecture",
            "--trials", "40", "--max-dim", "3", "--seed", "2",
            "--out", str(report),
        )
        after = len(report.read_text().strip().split("\n"))
        assert after > before


def assert_cannot_write(capsys, path, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_CANTCREAT == 73
    assert out == ""  # no report
    assert err.startswith(f"switchgraph: cannot write {path}: ")
    assert "Traceback" not in err


class TestUnwritableOutput:
    """An output path in a missing directory exits 73 with one line."""

    def test_gen(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "g.mat")
        assert_cannot_write(capsys, path, "gen", "er", "--n", "10", "--p", "0.5", "--out", path)

    @pytest.mark.parametrize("option", ["--out-csv", "--out-initial", "--out-final"])
    def test_optimize(self, tmp_path, capsys, option):
        path = str(tmp_path / "missing" / "x")
        assert_cannot_write(
            capsys, path, "optimize", "--gen", "er", "--n", "10", "--p", "0.5", option, path
        )

    def test_scan_conjecture(self, tmp_path, capsys):
        path = str(tmp_path / "missing" / "scan.jsonl")
        assert_cannot_write(capsys, path, "scan-conjecture", "--trials", "3", "--out", path)


def refuse_to_run(*args, **kwargs):
    raise AssertionError("the work ran before the unwritable output was refused")


class TestUnwritableOutputBeforeWork:
    """An unwritable output exits 73 before the run or the scan starts."""

    @pytest.mark.parametrize("option", ["--out-csv", "--out-initial", "--out-final"])
    def test_optimize(self, tmp_path, capsys, monkeypatch, option):
        monkeypatch.setattr(optimize, "run", refuse_to_run)
        path = str(tmp_path / "missing" / "x")
        assert_cannot_write(
            capsys, path, "optimize", "--gen", "er", "--n", "400", "--p", "0.5", option, path
        )

    def test_optimize_reads_its_input_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(optimize, "run", refuse_to_run)
        missing = str(tmp_path / "missing")
        code, out, err = run_cli(
            capsys, "optimize", "--input", f"{missing}/g.mat", "--out-csv", f"{missing}/t.csv"
        )
        assert code == cli.EXIT_NOINPUT and out == ""

    def test_scan_conjecture(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "enumerate_margins", refuse_to_run)
        path = str(tmp_path / "missing" / "scan.jsonl")
        assert_cannot_write(
            capsys, path, "scan-conjecture", "--trials", "2000", "--max-dim", "5", "--out", path
        )

    def test_writable_outputs_keep_their_bytes(self, tmp_path, capsys):
        # the check before the work creates nothing but the outputs, and an
        # existing scan log is appended to, not truncated
        scan = tmp_path / "scan.jsonl"
        scan.write_text("kept\n")
        code, _, _ = run_cli(capsys, "scan-conjecture", "--trials", "3", "--out", str(scan))
        assert code == 0 and scan.read_text().startswith("kept\n")
        csv, final = tmp_path / "t.csv", tmp_path / "f.mat"
        csv.write_text("stale\n")
        argv = ["optimize", "--gen", "er", "--n", "12", "--p", "0.4", "--seed", "2"]
        code, _, _ = run_cli(capsys, *argv, "--out-csv", str(csv), "--out-final", str(final))
        traj = optimize.run(
            graph.sort_by_degree(graph.gen_erdos_renyi(12, 0.4, seed=2))[0], budget=100000, seed=2
        )
        assert code == 0
        assert csv.read_text() == optimize.trajectory_csv(traj)
        assert final.read_text() == traj.final.to_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.mat", "scan.jsonl", "t.csv"]


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 64

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 64

    def test_missing_required_flag(self, capsys):
        assert run_cli(capsys, "gen", "er", "--n", "5")[0] == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("gen", "er", "--n", "0", "--p", "0.3"),
            ("gen", "er", "--n", "5", "--p", "-0.1"),
            ("gen", "grid", "--side", "0"),
            ("gen", "grid", "--side", "3", "--rewire", "2"),
            ("optimize", "--gen", "er", "--p", "1.5"),
            ("optimize", "--gen", "er", "--n", "0"),
            ("optimize", "--gen", "grid", "--rewire", "2"),
            ("optimize", "--gen", "grid", "--side", "-1"),
            ("scan-conjecture", "--max-dim", "1"),
            ("optimize", "--gen", "er", "--lambda-every", "-3"),
            ("optimize", "--gen", "er", "--budget", "-5"),
            ("analyze", "m.mat", "--max-iter", "-1"),
            ("analyze", "m.mat", "--tol", "nan"),
            ("reach", "a.mat", "b.mat", "--bfs-cap", "-1"),
            ("path", "a.mat", "b.mat", "--bfs-cap", "-1"),
            ("enumerate", "--degrees", "2,2,2,2", "--max-states", "-2"),
            ("scan-conjecture", "--trials", "-5"),
            ("scan-conjecture", "--max-entry", "-1"),
        ],
    )
    def test_out_of_range_number_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "g.mat"
        if argv[0] == "gen":
            argv += ("--out", str(out))
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 64 and stdout == ""
        assert "out of range" in err
        assert not out.exists()


JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324])
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=8)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


class TestRenderJson:
    """The report renderer is ``json.dumps(indent=2, sort_keys=True)``."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        assert cli._render_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_tuples_and_float_subclasses(self):
        value = {"t": (1, (2.5, ())), "f": np.float64(0.1), "g": [np.float64(-math.inf)]}
        assert cli._render_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [np.int64(3), [np.bool_(True)], {"a": {1, 2}}])
    def test_rejects_what_json_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            cli._render_json(value)

    def test_reach_report_bytes(self, tmp_path, capsys):
        a = write(tmp_path, "a.mat", RING_A)
        b = write(tmp_path, "b.mat", RING_B)
        _, out, _ = run_cli(capsys, "reach", a, b)
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestRoundTrip:
    def test_written_matrices_reparse_identically(self, tmp_path, capsys):
        rng = np.random.default_rng(44)
        out = tmp_path / "m.mat"
        run_cli(capsys, "gen", "er", "--n", "9", "--p", "0.5", "--seed", "8", "--out", str(out))
        first = out.read_bytes()
        mat = binmat.read_matrix(out)
        binmat.write_matrix(mat, out)
        assert out.read_bytes() == first


class TestParserReuse:
    def test_reused_parser_matches_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        a = write(tmp_path, "a.mat", PAIR_3X3_A)
        b = write(tmp_path, "b.mat", PAIR_3X3_B)
        calls = [
            ("reach", a),
            ("reach", a, b),
            ("enumerate", "--degrees", "2,2,1,1"),
            ("enumerate", "--degrees", "2,2,2,2", "--max-states", "2"),
            ("enumerate", "--degrees", "2,2,1,1", "--max-states", "x"),
        ]
        assert cli._parser() is cli._parser()
        reused = [run_cli(capsys, *argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", cli._build_parser)
        fresh = [run_cli(capsys, *argv) for argv in calls]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [64, 0, 0, 2, 64]


def _write_config_inputs(d):
    (d / "m.txt").write_text("1 1\n1 1\n")
    (d / "nosplit.txt").write_text("1 3 3 1\n3 1 1 3\n")
    (d / "empty-class.txt").write_text("2 0\n2 0\n")
    (d / "big.txt").write_text("2 2 2 2\n2 2 2 2\n")
    write(d, "k4.mat", K4)
    write(d, "diag.mat", [[1, 0], [0, 1]])
    write(d, "a.mat", PAIR_3X3_A)
    write(d, "b.mat", PAIR_3X3_B)


OPTIMIZE_DEFAULTS = {
    "input": None, "gen": None, "n": 100, "p": 0.2, "side": 10, "rewire": 0.1,
    "budget": 100000, "lambda_every": 25, "seed": 0,
    "out_csv": None, "out_initial": None, "out_final": None,
}

# (argv, config) per report; "{d}" stands for the directory of the inputs
CONFIG_CASES = {
    "gen-er": (
        ("gen", "er", "--n", "6", "--p", "0.5", "--out", "{d}/er.mat"),
        {"kind": "er", "n": 6, "p": 0.5, "seed": 0, "out": "{d}/er.mat"},
    ),
    "gen-grid": (
        ("gen", "grid", "--side", "3", "--seed", "4", "--out", "{d}/grid.mat"),
        {"kind": "grid", "side": 3, "rewire": 0.0, "seed": 4, "out": "{d}/grid.mat"},
    ),
    "gen-zebra": (
        ("gen", "zebra", "--margins", "{d}/m.txt", "--out", "{d}/z.mat"),
        {"kind": "zebra", "margins": "{d}/m.txt", "out": "{d}/z.mat", "R": [1, 1], "C": [1, 1]},
    ),
    "gen-zebra-infeasible": (
        ("gen", "zebra", "--margins", "{d}/nosplit.txt", "--out", "{d}/z.mat"),
        {
            "kind": "zebra", "margins": "{d}/nosplit.txt", "out": "{d}/z.mat",
            "R": [1, 3, 3, 1], "C": [3, 1, 1, 3],
        },
    ),
    "analyze": (
        ("analyze", "{d}/k4.mat", "--tol", "1e-8"),
        {"input": "{d}/k4.mat", "tol": 1e-8, "max_iter": 100000},
    ),
    "analyze-non-adjacency": (
        ("analyze", "{d}/diag.mat", "--max-iter", "50"),
        {"input": "{d}/diag.mat", "tol": 1e-10, "max_iter": 50},
    ),
    "reach": (
        ("reach", "{d}/a.mat", "{d}/b.mat", "--bfs-cap", "7"),
        {"a": "{d}/a.mat", "b": "{d}/b.mat", "bfs_cap": 7},
    ),
    "optimize-er": (
        ("optimize", "--gen", "er", "--n", "8", "--budget", "20", "--out-csv", "{d}/t.csv"),
        {**OPTIMIZE_DEFAULTS, "gen": "er", "n": 8, "budget": 20, "out_csv": "{d}/t.csv"},
    ),
    "optimize-grid": (
        ("optimize", "--gen", "grid", "--side", "3", "--rewire", "0.5", "--seed", "2"),
        {**OPTIMIZE_DEFAULTS, "gen": "grid", "side": 3, "rewire": 0.5, "seed": 2},
    ),
    "optimize-input": (
        ("optimize", "--input", "{d}/k4.mat", "--lambda-every", "0", "--out-final", "{d}/f.mat"),
        {**OPTIMIZE_DEFAULTS, "input": "{d}/k4.mat", "lambda_every": 0, "out_final": "{d}/f.mat"},
    ),
    "enumerate-margins": (
        ("enumerate", "--margins", "{d}/m.txt"),
        {"margins": "{d}/m.txt", "max_states": 1000000, "R": [1, 1], "C": [1, 1]},
    ),
    "enumerate-margins-infeasible": (
        ("enumerate", "--margins", "{d}/empty-class.txt"),
        {"margins": "{d}/empty-class.txt", "max_states": 1000000, "R": [2, 0], "C": [2, 0]},
    ),
    "enumerate-margins-cap": (
        ("enumerate", "--margins", "{d}/big.txt", "--max-states", "10"),
        {"margins": "{d}/big.txt", "max_states": 10, "R": [2] * 4, "C": [2] * 4},
    ),
    "enumerate-degrees": (
        ("enumerate", "--degrees", "1,2,2,1"),
        {"degrees": "1,2,2,1", "max_states": 1000000, "D": [2, 2, 1, 1]},
    ),
    "enumerate-degrees-nongraphical": (
        ("enumerate", "--degrees", "3,1", "--max-states", "5"),
        {"degrees": "3,1", "max_states": 5, "D": [3, 1]},
    ),
    "scan-conjecture": (
        ("scan-conjecture", "--trials", "3", "--max-dim", "3", "--out", "{d}/scan.jsonl"),
        {"trials": 3, "max_dim": 3, "max_entry": 3, "seed": 0, "out": "{d}/scan.jsonl"},
    ),
}


def _option_dests(argv) -> set:
    """The dests of every option on the chain of subparsers ``argv`` names,
    without ``help``."""
    parser, dests = cli._build_parser(), set()
    for word in argv:
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            break
        parser = subs[0].choices[word]
        dests |= {a.dest for a in parser._actions if a.dest != "help"}
    return dests


class TestReportConfig:
    @pytest.mark.parametrize("argv, want", CONFIG_CASES.values(), ids=CONFIG_CASES)
    def test_config_is_parsed_options(self, tmp_path, capsys, argv, want):
        _write_config_inputs(tmp_path)

        def fill(value):
            return value.format(d=tmp_path) if isinstance(value, str) else value

        _, payload, _ = run_json(capsys, *map(fill, argv))
        assert payload["command"] == argv[0]
        assert payload["config"] == {key: fill(value) for key, value in want.items()}

    @pytest.mark.parametrize("argv, want", CONFIG_CASES.values(), ids=CONFIG_CASES)
    def test_config_keys_are_option_dests(self, argv, want):
        read = {"R", "C", "D"} & set(want)
        unused = {"margins", "degrees"} - set(want) if argv[0] == "enumerate" else set()
        assert set(want) == (_option_dests(argv) - unused) | read


def test_benchmark_trace_targets_exist():
    # perfbench/tracing.py wraps these functions by name; read its TARGETS
    # from the source, so that the benchmark package is never imported here
    source = (Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    (targets,) = (
        ast.literal_eval(node.value)
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    missing = [
        f"{module}.{name}"
        for module, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"switchgraph.{module}"), name, None))
    ]
    assert targets and not missing


def test_public_api():
    assert sorted(switchgraph.__all__) == [
        "BinaryMatrix", "Checkerboard", "DegenerateGraph", "DimensionMismatch",
        "Graph", "InfeasibleMargins", "InternalInvariantViolation",
        "InvalidSwitch", "MarginMismatch", "MarginSumMismatch",
        "MatrixFormatError", "NEGATIVE", "NonGraphical", "POSITIVE",
        "ReachVerdict", "SpectralReport", "Switch", "SwitchGraphError",
        "Trajectory", "apply_path", "apply_switch",
        "assortativity", "binmat", "build_path", "check_conditions", "classify",
        "complement", "compute_T", "dense_spectral_radius", "diff", "errors",
        "find_checkerboards", "find_sym_checkerboards", "from_margins",
        "gen_erdos_renyi", "gen_small_world", "gen_split_zebra", "graph",
        "jacobi_eigenvalues", "optimize", "potential", "reach", "read_matrix",
        "reconstruct_diff", "run", "sample_negative_checkerboard",
        "sort_by_degree", "spectral_radius", "unitary_decomposition",
        "validate_path", "write_matrix", "zagreb",
    ]
    # names that left the package: a difference is a plain array, the flags
    # of ``classify`` are a dict, a trajectory's steps are its arrays, and
    # the other five are test helpers in conftest
    removed = {
        "reach": ["DiffMatrix"],
        "binmat": ["row_col_sums", "reflect_vertical", "MatrixClass"],
        "graph": ["apply_sym_switch"],
        "oracle": ["margin_space", "graphical_sequences", "DagStructureReport"],
        "optimize": ["TrajectoryStep"],
    }
    for module, names in removed.items():
        mod = importlib.import_module(f"switchgraph.{module}")
        assert not [name for name in names if hasattr(mod, name)], module


# RING or BACKTRACK in the top-left corner of a report-digest pair
REPORT_CORNERS = (None,) * 4 + ((RING_A, RING_B), (BACKTRACK_A, BACKTRACK_B))

# the source and the sink of the 5x5 class with every margin 3
SOURCE_5 = [[0, 0, 1, 1, 1], [0, 1, 0, 1, 1], [1, 0, 0, 1, 1], [1, 1, 1, 0, 0], [1, 1, 1, 0, 0]]
SINK_5 = [[1, 1, 1, 0, 0], [1, 1, 1, 0, 0], [1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]]


def report_pair(rng):
    """A random pair with equal margins: a walk of 0-8 switches, mostly
    positive, from a random 3x3..8x8 matrix.  One pair in three has RING or
    BACKTRACK in the top-left corner of a context two to four rows and
    columns larger, and walks only on the rows and columns past it."""
    corner = REPORT_CORNERS[int(rng.integers(len(REPORT_CORNERS)))]
    lo = 3 if corner is None else len(corner[0]) + 2
    p, q = (int(x) for x in rng.integers(lo, lo + 3 if corner else 9, size=2))
    a = random_binary(rng, p, q).writable_bits()
    b = a.copy()
    walked = b
    if corner is not None:
        n = len(corner[0])
        a[:n, :n], b[:n, :n] = corner
        walked = b[n:, n:]
    for _ in range(int(rng.integers(0, 9))):
        sign, to = (NEGATIVE, POSITIVE) if rng.random() < 0.85 else (POSITIVE, NEGATIVE)
        boards = binmat.board_coords(walked, sign)
        if len(boards):
            binmat.switch_bits_inplace(walked, boards[int(rng.integers(len(boards)))], to)
    return a, b


def test_report_digest(tmp_path, capsys, monkeypatch):
    # the stdout bytes and exit code of 40 ``reach`` runs, ``analyze`` on
    # three graphs and ``enumerate`` on five classes, pinned as one sha256;
    # relative paths keep the reports' ``config`` free of the temp directory
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    statuses = set()

    def run(*argv):
        code, out, _ = run_cli(capsys, *argv)
        digest.update(repr((argv, code)).encode() + out.encode())
        return out

    rng = np.random.default_rng(18)
    pairs = [report_pair(rng) for _ in range(39)]
    # RING beside the 5x5 class from source to sink: the search never
    # clears RING's T and runs out of states
    a, b = np.zeros((2, 9, 9), dtype=np.int8)
    a[:4, :4], b[:4, :4], a[4:, 4:], b[4:, 4:] = RING_A, RING_B, SOURCE_5, SINK_5
    pairs.append((a, b))
    for a, b in pairs:
        write(tmp_path, "a.mat", a)
        write(tmp_path, "b.mat", b)
        statuses.add(json.loads(run("reach", "a.mat", "b.mat", "--bfs-cap", "2000"))["status"])
    assert len(statuses) == 7

    graphs = {
        "k4.mat": K4,
        "er.mat": graph.gen_erdos_renyi(12, 0.3, seed=7).bits,
        "grid.mat": graph.gen_small_world(3, 0.25, seed=2).bits,
    }
    for name, bits in graphs.items():
        write(tmp_path, name, bits)
        run("analyze", name)

    for margins in ("1 1\n1 1\n", "2 1 1\n1 2 1\n", "2 2 2 2\n2 2 2 2\n"):
        (tmp_path / "m.txt").write_text(margins)
        run("enumerate", "--margins", "m.txt")
    for degrees in ("2,2,2,2", "3,2,2,2,1"):
        run("enumerate", "--degrees", degrees)

    assert digest.hexdigest() == "dd6faec9944b6d37a0d0e203cbc7f4f6a9b39401c9c67a18a4b10c293707315a"


def test_non_graph_digest(tmp_path, capsys, monkeypatch):
    # a matrix that is not a graph: the stdout and exit code of ``analyze``
    # (the whole class object and the error) and the stderr and exit code
    # of ``optimize --input``, over three such matrices, pinned as one sha256
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    matrices = {
        "wide.mat": [[1, 0, 1], [0, 1, 1]],
        "asym.mat": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        "loop.mat": [[1, 1], [1, 0]],
    }
    for name, rows in matrices.items():
        write(tmp_path, name, rows)
        for argv, want in ((("analyze", name), 2), (("optimize", "--input", name), 65)):
            code, out, err = run_cli(capsys, *argv)
            assert code == want
            digest.update(repr((argv, code)).encode() + out.encode() + err.encode())
    assert digest.hexdigest() == "5f7d33fe2bed4458a3f924f1831201879c3147422251c9c185719209596f6609"


def test_scan_conjecture_digest(tmp_path, capsys, monkeypatch):
    # the stdout, the --out lines and the exit code of two scans, pinned as
    # one sha256; each seed reports two backward counterexamples with the
    # text of both members
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for seed in ("1", "2"):
        argv = ("scan-conjecture", "--trials", "200", "--seed", seed, "--out", f"scan{seed}.jsonl")
        code, out, _ = run_cli(capsys, *argv)
        lines = (tmp_path / f"scan{seed}.jsonl").read_bytes()
        digest.update(repr((argv, code)).encode() + out.encode() + lines)
        counterexamples = json.loads(out)["counterexamples"]
        assert [c["kind"] for c in counterexamples] == ["backward", "backward"]
    assert digest.hexdigest() == "8cfaa1efbace7cf82e1ee67496c40804b8d12f81edd48d3ec204ed348eeae0cf"
