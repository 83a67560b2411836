"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload with ``--toy`` (tiny inputs, one second) through
``run.py --workload all``, untraced and traced, and asserts that each run
passes its output checks, prints a well-formed result line, and reports
exactly the metrics BENCHMARK.json declares plus the named end-to-end
metrics of its workload.  It also checks that the benchmark refuses to
run, without a result line, in a directory holding only BENCHMARK.json and
perfbench/.  Exits non-zero on the first failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMED = {
    "optimize-sink": ["steps_per_s", "sink_s_p50"],
    "reach-mix": ["queries_per_s", "query_ms_p50", "query_ms_tail"],
    "oracle-sweep": ["classes_per_s", "class_ms_p50", "class_ms_tail"],
}
COMMON = ["setup_s", "peak_rss_mb", "failed_ratio"]


def run_all(trace: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == len(NAMED), f"trace {trace}: expected {len(NAMED)} result lines"
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(NAMED)
    for trace in (0, 1):
        for workload, line in zip(NAMED, run_all(trace)):
            where = f"{workload} trace {trace}"
            assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1, where
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            assert got == declared[trace], f"{where}: metrics {sorted(set(got) ^ set(declared[trace]))}"
            for k, v in line["metrics"].items():
                assert isinstance(v["value"], (int, float)), f"{where}: {k}"
            if trace == 0:
                record = json.loads((ROOT / ".perfbench" / workload / "result.json").read_text())
                missing = set(NAMED[workload] + COMMON) - set(record["named"])
                assert not missing, f"{where}: named metrics missing {missing}"
                assert len(record["outputs_sha256"]) == 64, where
                env = record["environment"]
                for key in ("python", "numpy", "blas", "blas_threads", "nproc", "git_sha"):
                    assert key in env, f"{where}: environment lacks {key}"
            print(f"ok  {where}")

    # Without the sources the benchmark must fail fast and print no result.
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(spec["command"] + ["--workload", "reach-mix", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, "bare directory produced a result"
    shutil.rmtree(bare)
    print("ok  refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
