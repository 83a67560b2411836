"""Command-line interface.

One executable with subcommands gen / analyze / reach / path / optimize /
enumerate / scan-conjecture.  Matrices travel in the bit-exact text
format, reports as JSON (schema 1), trajectories as CSV.  A report's
config holds every option as parsed, plus R and C, or D, read from the
inputs.

Exit codes: 0 success or reachable, 1 domain-negative result (unreachable
or infeasible), 2 unknown or degenerate, 64 usage error, 65 bad data,
66 unreadable input file, 73 output file that cannot be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from . import binmat, graph, optimize, oracle, reach
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix
from .errors import (
    InfeasibleMargins,
    MarginSumMismatch,
    MatrixFormatError,
    NonGraphical,
    SwitchGraphError,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise _UsageExit()


def _emit(args, **body) -> None:
    """Print the JSON report of ``args.command``.  Its config is every other
    value on the namespace: the options as parsed, plus what the handler
    read from the inputs and put there (R and C, or D)."""
    config = {key: value for key, value in vars(args).items() if key != "command"}
    report = {"schema": SCHEMA, "command": args.command, "config": config, **body}
    print(_render_json(report))


def _json_atom(value) -> str:
    """A scalar or an empty container, written as ``json`` writes it: the
    types every report holds by hand, anything else by ``json.dumps``."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


def _render_json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, built with one join
    per dict or list.

    With ``indent`` set, Python 3.10 and 3.11 skip the C encoder and yield
    every token through a Python generator, and a report's T grid has up
    to 529 entries; here a list of plain ints is written in one ``map``.
    Dict keys must be strings, as every report's are.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        parts = [
            f"{_json_str(key)}: {_render_json(item, inner)}"
            for key, item in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {int}:
            parts = map(int.__repr__, value)
        else:
            parts = [_render_json(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    return _json_atom(value)


def _load_matrix(path: str) -> BinaryMatrix:
    try:
        return binmat.read_matrix(path)
    except OSError as exc:
        raise _CommandError(f"cannot read {path}: {exc}", EXIT_NOINPUT) from exc
    except MatrixFormatError as exc:
        raise _CommandError(f"{path}: {exc}", EXIT_DATA) from exc


class _CommandError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _write_output(write, value, path: str) -> None:
    """``write(value, path)``; a path that cannot be written exits 73."""
    try:
        write(value, path)
    except OSError as exc:
        raise _CommandError(f"cannot write {path}: {exc}", EXIT_CANTCREAT) from exc


def _claim_outputs(*paths: str | None) -> None:
    """Open each given output path for appending, writing nothing, so that
    one which cannot be written exits 73 before the work rather than after
    it.  A missing file is created empty; an existing one keeps its bytes
    until the command writes it."""
    for path in paths:
        if path:  # as for the writes, an empty path names no output
            _write_output(_append_lines, [], path)


def _load_margins(path: str) -> tuple[list[int], list[int]]:
    """Margins file: line 1 row sums, line 2 column sums, space separated.
    A non-ASCII byte reads as U+FFFD, a bad margin value."""
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except OSError as exc:
        raise _CommandError(f"cannot read {path}: {exc}", EXIT_NOINPUT) from exc
    if len(lines) != 2:
        raise _CommandError(f"{path}: expected two lines of margins", EXIT_DATA)
    try:
        R = [int(tok) for tok in lines[0].split()]
        C = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise _CommandError(f"{path}: bad margin value: {exc}", EXIT_DATA) from exc
    if not R or not C:
        raise _CommandError(f"{path}: empty margin vector", EXIT_DATA)
    if min(R + C) < 0:
        raise _CommandError(f"{path}: negative margin value", EXIT_DATA)
    return R, C


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "er":
        mat = graph.gen_erdos_renyi(args.n, args.p, args.seed)
    elif args.kind == "grid":
        mat = graph.gen_small_world(args.side, args.rewire, args.seed)
    else:
        args.R, args.C = _load_margins(args.margins)
        try:
            mat = graph.gen_split_zebra(args.R, args.C)
        except InfeasibleMargins as exc:
            _emit(args, error=str(exc))
            return EXIT_NEGATIVE
    _write_output(binmat.write_matrix, mat, args.out)
    _emit(args, out=args.out, p=mat.p, q=mat.q, ones=int(mat.bits.sum()))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    mat = _load_matrix(args.input)
    body: dict = {"class": binmat.classify(mat)}
    try:
        g = graph.Graph(mat.bits)
    except ValueError as exc:
        _emit(args, **body, error=f"not an adjacency matrix: {exc}")
        return EXIT_UNKNOWN
    sorted_g, perm = graph.sort_by_degree(g)
    rep = graph.spectral_radius(sorted_g, tol=args.tol, max_iter=args.max_iter)
    if g.m:
        m1, m2, z1, z2 = graph.zagreb(sorted_g)
        r = graph.assortativity(sorted_g)
    else:
        m1, m2, z1, z2, r = 0, 0, 0.0, None, None
    body.update(
        n=g.n,
        m=g.m,
        degrees=[int(d) for d in g.degrees],
        degree_order=list(perm),
        lambda1=rep.lambda1,
        M1=m1,
        M2=m2,
        Z1=z1,
        Z2=z2,
        r=r,
        converged=rep.converged,
        checkerboards={
            "positive": graph.count_sym_checkerboards(sorted_g.adj, POSITIVE),
            "negative": graph.count_sym_checkerboards(sorted_g.adj, NEGATIVE),
        },
    )
    _emit(args, **body)
    return EXIT_OK


def _reach_verdict(args) -> reach.ReachVerdict:
    return reach.build_path(_load_matrix(args.a), _load_matrix(args.b), bfs_cap=args.bfs_cap)


def _verdict_exit(verdict: reach.ReachVerdict) -> int:
    if verdict.reachable:
        return EXIT_OK
    if verdict.reachable is False:
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _cmd_reach(args) -> int:
    verdict = _reach_verdict(args)
    _emit(
        args,
        status=verdict.status,
        conditions=verdict.conditions,
        T=verdict.T.tolist(),
        path=None if verdict.path is None else [list(sw) for sw in verdict.path],
        path_length=verdict.path_length,
        note=verdict.note,
    )
    return _verdict_exit(verdict)


def _cmd_path(args) -> int:
    verdict = _reach_verdict(args)
    if verdict.path is not None:
        for sw in verdict.path:
            print(f"{sw.i} {sw.j} {sw.k} {sw.l}")
    else:
        print(f"# {verdict.status}", file=sys.stderr)
    return _verdict_exit(verdict)


def _cmd_optimize(args) -> int:
    if args.input:
        mat = _load_matrix(args.input)
        try:
            g0 = graph.Graph(mat.bits)
        except ValueError as exc:
            raise _CommandError(f"not an adjacency matrix: {exc}", EXIT_DATA) from exc
    elif args.gen == "er":
        g0 = graph.gen_erdos_renyi(args.n, args.p, args.seed)
    elif args.gen == "grid":
        g0 = graph.gen_small_world(args.side, args.rewire, args.seed)
    else:
        raise _CommandError("one of --input or --gen is required", EXIT_DATA)
    _claim_outputs(args.out_csv, args.out_initial, args.out_final)
    g0, _ = graph.sort_by_degree(g0)
    traj = optimize.run(
        g0, budget=args.budget, lambda_every=args.lambda_every, seed=args.seed
    )
    if args.out_csv:
        _write_output(optimize.write_trajectory_csv, traj, args.out_csv)
    if args.out_initial:
        _write_output(binmat.write_matrix, traj.initial, args.out_initial)
    if args.out_final:
        _write_output(binmat.write_matrix, traj.final, args.out_final)
    rel = (
        (traj.lambda1_final - traj.lambda1_initial) / traj.lambda1_initial
        if traj.lambda1_initial
        else None
    )
    _emit(
        args,
        steps=traj.length,
        termination=traj.termination,
        M2_initial=traj.M2_initial,
        M2_final=traj.M2_final,
        Z2_initial=traj.Z2_initial,
        Z2_final=traj.Z2_final,
        lambda1_initial=traj.lambda1_initial,
        lambda1_final=traj.lambda1_final,
        lambda1_relative_increase=rel,
        mismatch_initial=optimize.structure_mismatch(traj.initial),
        mismatch_final=optimize.structure_mismatch(traj.final),
        stats=dataclasses.asdict(traj.stats),
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if (args.margins is None) == (args.degrees is None):
        raise _CommandError("exactly one of --margins or --degrees is required", EXIT_DATA)
    by_margins = args.margins is not None
    if by_margins:  # the report's config names only the mode given
        del args.degrees
        args.R, args.C = _load_margins(args.margins)
        members = oracle.iter_margin_matrices(args.R, args.C)
    else:
        del args.margins
        try:
            args.D = sorted((int(tok) for tok in args.degrees.split(",")), reverse=True)
        except ValueError as exc:
            raise _CommandError(f"bad degree list: {exc}", EXIT_DATA) from exc
        members = oracle.iter_degree_class(args.D)
    try:
        members = np.array(list(itertools.islice(members, args.max_states + 1)), dtype=np.int8)
    except NonGraphical as exc:
        _emit(args, error=str(exc))
        return EXIT_NEGATIVE
    except MarginSumMismatch as exc:
        _emit(args, count=0, error=str(exc))
        return EXIT_NEGATIVE
    if len(members) > args.max_states:
        _emit(args, error="class larger than --max-states")
        return EXIT_UNKNOWN
    if not len(members):  # a graphical D always has a member
        _emit(args, count=0, error="infeasible margins")
        return EXIT_NEGATIVE
    if by_margins:
        dag = oracle.build_dag(members)
        checks, failures = oracle.verify_dag_structure(dag)
        reach_rep = oracle.verify_reachability(dag)
        checks.update(reach_rep.checks)
        failures += reach_rep.failures
        spectral_fields = {}
    else:
        dag = oracle.build_graph_dag(members)
        spectral = oracle.verify_spectral_max_at_sink(dag)
        checks, failures = spectral.checks, spectral.failures
        spectral_fields = {
            "max_lambda": spectral.max_lambda,
            "max_lambda_at_sinks": spectral.max_lambda_at_sinks,
        }
    _emit(
        args,
        count=len(members),
        arcs=dag.arc_count,
        sources=dag.sources,
        sinks=dag.sinks,
        checks=checks,
        failures=failures,
        **spectral_fields,
    )
    return EXIT_NEGATIVE if failures else EXIT_OK


def _cmd_scan_conjecture(args) -> int:
    _claim_outputs(args.out)
    rng = np.random.default_rng(args.seed)
    scanned = 0
    diffs_seen = 0
    counterexamples = []
    lines = []
    for _ in range(args.trials):
        p = int(rng.integers(2, args.max_dim + 1))
        q = int(rng.integers(2, args.max_dim + 1))
        density = float(rng.uniform(0.2, 0.8))
        arr = (rng.random((p, q)) < density).astype(int)
        R = [int(x) for x in arr.sum(axis=1)]
        C = [int(x) for x in arr.sum(axis=0)]
        if max(R) > args.max_entry or max(C) > args.max_entry:
            continue
        mats = oracle.enumerate_margins(R, C)
        if len(mats) < 2:
            continue
        scanned += 1
        dag = oracle.build_dag(mats)
        report = oracle.verify_reachability(dag)
        diffs_seen += len(report.conjecture)
        for rec in report.conjecture:
            if rec.forward_counterexample or rec.backward_counterexample:
                a, b = rec.example_pair
                counterexamples.append(
                    {
                        "R": R,
                        "C": C,
                        "kind": "forward" if rec.forward_counterexample else "backward",
                        "A": BinaryMatrix(dag.bits[a]).to_text(),
                        "A2": BinaryMatrix(dag.bits[b]).to_text(),
                    }
                )
            lines.append(
                json.dumps(
                    {
                        "R": R,
                        "C": C,
                        "cond_i": rec.cond_i,
                        "cond_ii": rec.cond_ii,
                        "pairs": rec.pairs,
                        "reachable_pairs": rec.reachable_pairs,
                    },
                    sort_keys=True,
                )
            )
    if args.out:
        _write_output(_append_lines, lines, args.out)
    _emit(
        args,
        classes_scanned=scanned,
        differences_logged=diffs_seen,
        counterexamples=counterexamples,
    )
    return EXIT_OK


def _append_lines(lines: list[str], path: str) -> None:
    with open(path, "a", encoding="ascii") as fh:
        for line in lines:
            fh.write(line + "\n")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _ranged(kind, low, high=float("inf")):
    """argparse type: a ``kind`` value in [low, high], else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{text} is out of range [{low}, {high}]")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid ... value"
    return parse


_COUNT = _ranged(int, 1)
_NATURAL = _ranged(int, 0)
_FRACTION = _ranged(float, 0.0, 1.0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="switchgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a matrix file")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_er = gen_sub.add_parser("er", help="Erdos-Renyi G(n, p)")
    g_er.add_argument("--n", type=_COUNT, required=True)
    g_er.add_argument("--p", type=_FRACTION, required=True)
    g_er.add_argument("--seed", type=int, default=0)
    g_er.add_argument("--out", required=True)
    g_grid = gen_sub.add_parser("grid", help="grid with random rewiring")
    g_grid.add_argument("--side", type=_COUNT, required=True)
    g_grid.add_argument("--rewire", type=_FRACTION, default=0.0)
    g_grid.add_argument("--seed", type=int, default=0)
    g_grid.add_argument("--out", required=True)
    g_zebra = gen_sub.add_parser("zebra", help="split zebra from a margins file")
    g_zebra.add_argument("--margins", required=True)
    g_zebra.add_argument("--out", required=True)

    analyze = sub.add_parser("analyze", help="JSON report for one matrix")
    analyze.add_argument("input", metavar="matrix")
    analyze.add_argument("--tol", type=_ranged(float, 0.0), default=1e-10)
    analyze.add_argument("--max-iter", type=_COUNT, default=100000)

    for name in ("reach", "path"):
        cmd = sub.add_parser(
            name,
            help="reachability verdict (path: emit switch lines only)",
        )
        cmd.add_argument("a")
        cmd.add_argument("b")
        cmd.add_argument("--bfs-cap", type=_NATURAL, default=reach.DEFAULT_BFS_CAP,
                         help="most states the reachability search expands before Unknown")

    opt = sub.add_parser("optimize", help="random positive-switch run")
    opt.add_argument("--input")
    opt.add_argument("--gen", choices=["er", "grid"])
    opt.add_argument("--n", type=_COUNT, default=100)
    opt.add_argument("--p", type=_FRACTION, default=0.2)
    opt.add_argument("--side", type=_COUNT, default=10)
    opt.add_argument("--rewire", type=_FRACTION, default=0.1)
    opt.add_argument("--budget", type=_NATURAL, default=100000)
    opt.add_argument("--lambda-every", type=_NATURAL, default=25)
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out-csv")
    opt.add_argument("--out-initial")
    opt.add_argument("--out-final")

    enum = sub.add_parser("enumerate", help="exhaustive class checks")
    enum.add_argument("--margins")
    enum.add_argument("--degrees")
    enum.add_argument("--max-states", type=_NATURAL, default=1000000)

    scan = sub.add_parser("scan-conjecture", help="randomised conjecture scan")
    scan.add_argument("--trials", type=_NATURAL, default=100)
    scan.add_argument("--max-dim", type=_ranged(int, 2), default=4)
    scan.add_argument("--max-entry", type=_NATURAL, default=3)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--out")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use and then reused by every ``main`` call
    in the process; ``parse_args`` keeps no state between calls."""
    return _build_parser()


_HANDLERS = {
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "reach": _cmd_reach,
    "path": _cmd_path,
    "optimize": _cmd_optimize,
    "enumerate": _cmd_enumerate,
    "scan-conjecture": _cmd_scan_conjecture,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageExit:
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _CommandError as exc:
        print(f"switchgraph: {exc}", file=sys.stderr)
        return exc.code
    except SwitchGraphError as exc:
        print(f"switchgraph: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
