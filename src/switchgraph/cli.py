"""Command-line interface.

One executable with subcommands gen / analyze / reach / path / optimize /
enumerate / scan-conjecture.  Matrices travel in the bit-exact text
format, reports as JSON (schema 1, resolved config echoed), trajectories
as CSV.

Exit codes: 0 success or reachable, 1 domain-negative result (unreachable
or infeasible), 2 unknown or degenerate, 64 usage error, 65 bad data,
66 unreadable input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys

import numpy as np

from . import binmat, graph, optimize, oracle, reach
from .binmat import NEGATIVE, POSITIVE, BinaryMatrix
from .errors import (
    DimensionMismatch,
    InfeasibleMargins,
    MarginMismatch,
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


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        self.print_usage(sys.stderr)
        raise _UsageExit()


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _report(command: str, config: dict, **body) -> dict:
    return {"schema": SCHEMA, "command": command, "config": config, **body}


def _load_matrix(path: str) -> BinaryMatrix:
    try:
        return binmat.read_matrix(path)
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}", EXIT_NOINPUT) from exc
    except MatrixFormatError as exc:
        raise _InputError(f"{path}: {exc}", EXIT_DATA) from exc


class _InputError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load_margins(path: str) -> tuple[list[int], list[int]]:
    """Margins file: line 1 row sums, line 2 column sums, space separated."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}", EXIT_NOINPUT) from exc
    if len(lines) != 2:
        raise _InputError(f"{path}: expected two lines of margins", EXIT_DATA)
    try:
        R = [int(tok) for tok in lines[0].split()]
        C = [int(tok) for tok in lines[1].split()]
    except ValueError as exc:
        raise _InputError(f"{path}: bad margin value: {exc}", EXIT_DATA) from exc
    if not R or not C:
        raise _InputError(f"{path}: empty margin vector", EXIT_DATA)
    if min(R + C) < 0:
        raise _InputError(f"{path}: negative margin value", EXIT_DATA)
    return R, C


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    if args.kind == "er":
        config = {"kind": "er", "n": args.n, "p": args.p, "seed": args.seed, "out": args.out}
        g = graph.gen_erdos_renyi(args.n, args.p, args.seed)
        mat = g.to_binary_matrix()
    elif args.kind == "grid":
        config = {
            "kind": "grid",
            "side": args.side,
            "rewire": args.rewire,
            "seed": args.seed,
            "out": args.out,
        }
        g = graph.gen_small_world(args.side, args.rewire, args.seed)
        mat = g.to_binary_matrix()
    else:
        config = {"kind": "zebra", "margins": args.margins, "out": args.out}
        R, C = _load_margins(args.margins)
        config["R"], config["C"] = R, C
        try:
            mat = graph.gen_split_zebra(R, C)
        except InfeasibleMargins as exc:
            _emit(_report("gen", config, error=str(exc)))
            return EXIT_NEGATIVE
    binmat.write_matrix(mat, args.out)
    _emit(
        _report(
            "gen",
            config,
            out=args.out,
            p=mat.p,
            q=mat.q,
            ones=int(mat.bits.sum()),
        )
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    config = {"input": args.matrix, "tol": args.tol, "max_iter": args.max_iter}
    mat = _load_matrix(args.matrix)
    cls = binmat.classify(mat)
    body: dict = {"class": cls.flags()}
    try:
        g = graph.Graph(mat.bits)
    except ValueError as exc:
        _emit(_report("analyze", config, **body, error=f"not an adjacency matrix: {exc}"))
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
    _emit(_report("analyze", config, **body))
    return EXIT_OK


def _reach_verdict(args) -> reach.ReachVerdict:
    A = _load_matrix(args.a)
    B = _load_matrix(args.b)
    try:
        return reach.build_path(A, B, bfs_cap=args.bfs_cap)
    except (DimensionMismatch, MarginMismatch) as exc:
        raise _InputError(str(exc), EXIT_DATA) from exc


def _verdict_exit(verdict: reach.ReachVerdict) -> int:
    if verdict.reachable:
        return EXIT_OK
    if verdict.reachable is False:
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _cmd_reach(args) -> int:
    config = {"a": args.a, "b": args.b, "bfs_cap": args.bfs_cap}
    verdict = _reach_verdict(args)
    _emit(
        _report(
            "reach",
            config,
            status=verdict.status,
            conditions=verdict.conditions(),
            T=verdict.T.tolist(),
            path=None if verdict.path is None else [list(sw) for sw in verdict.path],
            path_length=verdict.path_length,
            note=verdict.note,
        )
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
    config = {
        "input": args.input,
        "gen": args.gen,
        "n": args.n,
        "p": args.p,
        "side": args.side,
        "rewire": args.rewire,
        "budget": args.budget,
        "lambda_every": args.lambda_every,
        "seed": args.seed,
        "out_csv": args.out_csv,
        "out_initial": args.out_initial,
        "out_final": args.out_final,
    }
    if args.input:
        mat = _load_matrix(args.input)
        try:
            g0 = graph.Graph(mat.bits)
        except ValueError as exc:
            raise _InputError(f"not an adjacency matrix: {exc}", EXIT_DATA) from exc
    elif args.gen == "er":
        g0 = graph.gen_erdos_renyi(args.n, args.p, args.seed)
    elif args.gen == "grid":
        g0 = graph.gen_small_world(args.side, args.rewire, args.seed)
    else:
        raise _InputError("one of --input or --gen is required", EXIT_DATA)
    g0, _ = graph.sort_by_degree(g0)
    traj = optimize.run(
        g0, budget=args.budget, lambda_every=args.lambda_every, seed=args.seed
    )
    if args.out_csv:
        optimize.write_trajectory_csv(traj, args.out_csv)
    if args.out_initial:
        binmat.write_matrix(traj.initial.to_binary_matrix(), args.out_initial)
    if args.out_final:
        binmat.write_matrix(traj.final.to_binary_matrix(), args.out_final)
    rel = (
        (traj.lambda1_final - traj.lambda1_initial) / traj.lambda1_initial
        if traj.lambda1_initial
        else None
    )
    _emit(
        _report(
            "optimize",
            config,
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
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    if (args.margins is None) == (args.degrees is None):
        raise _InputError("exactly one of --margins or --degrees is required", EXIT_DATA)
    if args.max_states < 0:
        raise _InputError("--max-states must be non-negative", EXIT_USAGE)
    if args.margins:
        config = {"margins": args.margins, "max_states": args.max_states}
        R, C = _load_margins(args.margins)
        config["R"], config["C"] = R, C
        members = oracle.iter_margin_matrices(R, C)
    else:
        config = {"degrees": args.degrees, "max_states": args.max_states}
        try:
            D = sorted((int(tok) for tok in args.degrees.split(",")), reverse=True)
        except ValueError as exc:
            raise _InputError(f"bad degree list: {exc}", EXIT_DATA) from exc
        config["D"] = D
        members = oracle.iter_degree_class(D)
    try:
        members = list(itertools.islice(members, args.max_states + 1))
    except NonGraphical as exc:
        _emit(_report("enumerate", config, error=str(exc)))
        return EXIT_NEGATIVE
    if len(members) > args.max_states:
        _emit(_report("enumerate", config, error="class larger than --max-states"))
        return EXIT_UNKNOWN
    if args.margins:
        if not members:
            _emit(_report("enumerate", config, count=0, error="infeasible margins"))
            return EXIT_NEGATIVE
        dag = oracle.build_dag(members)
        structure = oracle.verify_dag_structure(dag)
        reach_rep = oracle.verify_reachability(dag)
        _emit(
            _report(
                "enumerate",
                config,
                count=len(members),
                arcs=dag.arc_count,
                sources=dag.sources,
                sinks=dag.sinks,
                checks={
                    "acyclic": structure.acyclic,
                    "connected": structure.connected,
                    "potential_law": structure.potential_law,
                    "unique_sink": structure.unique_sink,
                    "unique_source": structure.unique_source,
                    "singleton_nested": structure.singleton_nested,
                    "necessity": reach_rep.necessity_ok,
                    "sufficiency": reach_rep.sufficiency_ok,
                },
                failures=structure.failures + reach_rep.failures,
            )
        )
        return EXIT_OK if structure.ok and reach_rep.ok else EXIT_NEGATIVE
    dag = oracle.build_graph_dag(members)
    spectral = oracle.verify_spectral_max_at_sink(dag)
    _emit(
        _report(
            "enumerate",
            config,
            count=len(members),
            arcs=dag.arc_count,
            sources=dag.sources,
            sinks=dag.sinks,
            checks={
                "max_at_sink": spectral.max_at_sink,
                "eigenvector_order": spectral.eigenvector_order_ok,
            },
            max_lambda=spectral.max_lambda,
            max_lambda_at_sinks=spectral.max_lambda_at_sinks,
            failures=spectral.failures,
        )
    )
    return EXIT_OK if spectral.ok else EXIT_NEGATIVE


def _cmd_scan_conjecture(args) -> int:
    config = {
        "trials": args.trials,
        "max_dim": args.max_dim,
        "max_entry": args.max_entry,
        "seed": args.seed,
        "out": args.out,
    }
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
                        "A": dag.matrices[a].to_text(),
                        "A2": dag.matrices[b].to_text(),
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
        with open(args.out, "a", encoding="ascii") as fh:
            for line in lines:
                fh.write(line + "\n")
    _emit(
        _report(
            "scan-conjecture",
            config,
            classes_scanned=scanned,
            differences_logged=diffs_seen,
            counterexamples=counterexamples,
        )
    )
    return EXIT_OK


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
    analyze.add_argument("matrix")
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
    enum.add_argument("--max-states", type=int, default=1000000)

    scan = sub.add_parser("scan-conjecture", help="randomised conjecture scan")
    scan.add_argument("--trials", type=int, default=100)
    scan.add_argument("--max-dim", type=_ranged(int, 2), default=4)
    scan.add_argument("--max-entry", type=int, default=3)
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
    except _InputError as exc:
        print(f"switchgraph: {exc}", file=sys.stderr)
        return exc.code
    except SwitchGraphError as exc:
        print(f"switchgraph: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
