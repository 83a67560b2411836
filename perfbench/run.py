"""Benchmark for the switchgraph CLI.

    python3 perfbench/run.py --workload {optimize-sink,reach-mix,oracle-sweep,all}
                             --seed N --seconds S --trace {0,1} [--toy]

Run from the root of a source checkout; the package is imported from
``src/``.  One workload runs per process, in-process through
``switchgraph.cli.main(argv)``, on one Python thread.  Inputs are generated
from ``--seed`` during set-up; each op's input files are written under
``.perfbench/<workload>/in/`` just before it runs, outside its timer.
Operations run in rounds until ``--seconds`` have passed.  Every output is
checked afterwards; a failed check makes the command exit 1.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see tracing.py) plus ``trace_overhead_ratio``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, named metrics, output hash) goes to
``.perfbench/<workload>/result.json``.  ``--workload all`` runs each
workload in its own process, one after the other.  ``--toy`` shrinks every
input, for the self-test.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ["optimize-sink", "reach-mix", "oracle-sweep"]
SETUP_REPEATS = 3
# tail = the highest of these percentiles with at least ten samples beyond it
TAIL_LADDER = [99.9, 99.5, 99, 98, 95, 90, 75, 50]
TIMING_KEY_SUFFIXES = ("_s", "_ms", "_ns", "seconds", "elapsed")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def run_op(cli, wl_mod, op, tracer=None, op_id=-1):
    for path, text in op.files.items():
        path.write_text(text, encoding="ascii")
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = cli.main(op.argv)
            else:
                tracer.op_id = op_id
                with tracer.span("cli.main"):
                    rc = cli.main(op.argv)
    except Exception:  # one crashing op is recorded and checked, the run goes on
        rc, error = None, traceback.format_exc()
    seconds = time.perf_counter() - start
    return wl_mod.Outcome(rc, out.getvalue(), seconds, error)


def measure(cli, wl_mod, plan, seconds, tracer=None):
    """Run whole rounds until ``seconds`` have passed.

    Returns a list of (round number, op, outcome)."""
    execs = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in plan.rounds[r % len(plan.rounds)]:
            execs.append((r, op, run_op(cli, wl_mod, op, tracer, len(execs))))
        r += 1
        if time.perf_counter() - start >= seconds:
            break
    return execs


# ---------------------------------------------------------------------------
# Metrics and the run record
# ---------------------------------------------------------------------------


def work_rate(wl, execs):
    """Work per second of a typical round.

    Every round has the same slots.  Each slot's work and op time are
    replaced by their medians over the rounds run; the rate is the summed
    median work over the summed median time.  A rare slow member of one
    slot (a slow greedy walk, a large degree class) moves the tail, not
    this figure."""
    work, busy = defaultdict(list), defaultdict(list)
    slot = {}
    for r, op, outcome in execs:
        k = slot[r] = slot.get(r, -1) + 1
        work[k].append(wl.work(op, outcome))
        busy[k].append(outcome.seconds)
    return (sum(statistics.median(v) for v in work.values())
            / sum(statistics.median(v) for v in busy.values()))


def tail(samples):
    """(percentile, value, samples beyond, n) or None when n is too small."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LADDER:
        value = xs[max(1, math.ceil(pct * n / 100)) - 1]  # nearest rank
        beyond = sum(1 for x in xs if x > value)
        if beyond >= 10:
            return pct, value, beyond, n
    return None


def _strip_timings(obj):
    if isinstance(obj, dict):
        return {k: _strip_timings(v) for k, v in obj.items()
                if not k.endswith(TIMING_KEY_SUFFIXES)}
    if isinstance(obj, list):
        return [_strip_timings(v) for v in obj]
    return obj


def outputs_sha256(execs):
    """Hash of the first round's reports with timing fields removed."""
    h = hashlib.sha256()
    for r, op, outcome in execs:
        if r != 0:
            continue
        rep = outcome.report()
        body = _strip_timings(rep) if rep is not None else outcome.stdout
        h.update(json.dumps([op.argv, outcome.rc, body], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def _blas_threads(numpy):
    libdirs = [Path(numpy.__file__).parent.parent / "numpy.libs", Path(numpy.__file__).parent / ".libs"]
    for libdir in libdirs:
        for lib in glob.glob(str(libdir / "*openblas*")):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    return int(getattr(handle, fn)())
    return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def check_all(wl, execs):
    """Problems per execution (list of lists), in order."""
    found = []
    for _, op, outcome in execs:
        problems = [f"exception: {outcome.error.strip().splitlines()[-1]}"] if outcome.error else []
        if outcome.rc is not None:
            problems += wl.check(op, outcome)
        found.append(problems)
    return found


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_all(args):
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd + (["--toy"] if args.toy else [])).returncode)
    return worst


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "switchgraph" / "__init__.py").is_file():
        print(f"perfbench: no switchgraph package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import numpy
    import switchgraph
    from switchgraph import cli

    if Path(switchgraph.__file__).resolve().parent != (SRC / "switchgraph").resolve():
        print(f"perfbench: imported switchgraph from {switchgraph.__file__}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START

    import tracing
    import workloads as wl_mod

    wl = wl_mod.WORKLOADS[args.workload](args.toy)
    workdir = WORK / wl.name
    shutil.rmtree(workdir, ignore_errors=True)
    for sub in ("in", "out"):
        (workdir / sub).mkdir(parents=True)

    setup_reps = []
    warmups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        plan = wl.build(args.seed, workdir)
        warmups.append((-1, plan.warmup, run_op(cli, wl_mod, plan.warmup)))
        setup_reps.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_reps)

    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "toy": args.toy, "environment": environment(numpy),
        "bfs_cap": getattr(wl, "bfs_cap", None),
        "setup": {"import_s": import_s, "repeats_s": setup_reps},
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            execs = measure(cli, wl_mod, plan, args.seconds, tracer)
        finally:
            tracer.uninstall()
        # untraced replay of the first traced ops, for the tracing overhead
        prefix, traced_s = [], 0.0
        for r, op, o in execs:
            prefix.append((r, op))
            traced_s += o.seconds
            if traced_s >= args.seconds / 2:
                break
        plain = [(r, op, run_op(cli, wl_mod, op)) for r, op in prefix]

        metrics = tracer.metrics(sum(len(o.stdout.encode()) for _, _, o in execs))
        metrics["trace_overhead_ratio"] = traced_s / sum(o.seconds for _, _, o in plain)
        units = {name: unit for name, unit, _ in tracing.metric_spec()}
        tracer.write_spans(workdir / "spans.csv")
        print(f"{wl.name}: {len(execs)} traced ops, trace_overhead_ratio = "
              f"{metrics['trace_overhead_ratio']:.4f}, spans in {workdir / 'spans.csv'}")
        measured = execs + plain
        record["traced_ops"] = len(execs)
    else:
        execs = measure(cli, wl_mod, plan, args.seconds)
        latencies = [o.seconds for _, _, o in execs]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_per_s": work_rate(wl, execs),
            "op_ms_p50": statistics.median(latencies) * 1e3,
        }
        units = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s", "op_ms_p50": "ms"}
        measured = execs
        unanswered = sum(1 for _, op, o in execs if not wl.answered(op, o))
        named = {
            wl.work_name[0]: (metrics["work_per_s"], wl.work_name[1]),
            wl.p50_name[0]: (metrics["op_ms_p50"] * wl.p50_name[2], wl.p50_name[1]),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "failed_ratio": (unanswered / len(execs), "ratio"),
        }
        lines = [f"{wl.name}: {k} = {v:.6g} {u}" for k, (v, u) in named.items()]
        lines[-1] += f" ({unanswered} of {len(execs)} ops gave no answer)"
        if wl.tail_name:
            t = tail(latencies)
            if t is None:
                lines.append(f"{wl.name}: {wl.tail_name[0]} = n/a (only {len(execs)} ops)")
            else:
                pct, value, beyond, n = t
                named[wl.tail_name[0]] = (value * 1e3, wl.tail_name[1])
                lines.append(f"{wl.name}: {wl.tail_name[0]} = {value * 1e3:.6g} ms "
                             f"(p{pct:g}, {beyond} samples beyond, n={n})")
                record["tail"] = {"percentile": pct, "beyond": beyond, "n": n}
        record["named"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        record["rounds"] = execs[-1][0] + 1
        by_kind = {}
        for _, op, o in execs:
            by_kind.setdefault(op.kind, []).append(o.seconds * 1e3)
        record["op_ms_by_kind"] = {k: {"n": len(v), "p50": statistics.median(v), "max": max(v)}
                                   for k, v in sorted(by_kind.items())}
        record["outputs_sha256"] = outputs_sha256(execs)
        lines.append(f"{wl.name}: outputs_sha256 = {record['outputs_sha256']}")
        print("\n".join(lines))

    problems = check_all(wl, warmups + measured)
    failed = sum(1 for p in problems[len(warmups):] if p)
    flat = [msg for p in problems for msg in p]
    for msg in flat[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not flat,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(result, problems=flat[:100])
    (workdir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
