"""Spans around calls into the library's public functions.

``Tracer.install`` replaces every binding of each target function in the
loaded ``switchgraph`` modules, ``from ... import`` copies included (for
example ``optimize.spectral_radius`` and ``oracle.count_sym_checkerboards``),
with a wrapper that records a span: name, start, end, parent span and op
id.  Spans are kept in flat arrays in memory and written out by
``write_spans`` after the run.  Counts read from return values (boards
found, power iterations, verdicts, ...) are recorded at the same boundary.

Per-layer metrics are normalised per CLI op, so traced runs of different
length compare directly.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# module -> public functions wrapped; the span name is "<module>.<function>"
TARGETS = {
    "binmat": ["read_matrix", "find_checkerboards", "apply_switch", "apply_path", "classify",
               "potential"],
    "graph": ["spectral_radius", "sym_board_pair_counts", "count_sym_checkerboards",
              "find_sym_checkerboards", "sym_switch_inplace", "dense_spectral_radius"],
    "optimize": ["run", "sample_negative_checkerboard", "structure_mismatch",
                 "write_trajectory_csv"],
    "reach": ["build_path", "check_conditions", "find_motif_cells", "validate_path"],
    "oracle": ["count_margin_class", "bfs_directed_path", "enumerate_margins", "build_dag",
               "verify_dag_structure", "verify_reachability", "enumerate_degree_class",
               "build_graph_dag", "verify_spectral_max_at_sink"],
}
ALIASES = {"optimize.sample_negative_checkerboard": "optimize.sample"}
ROOT = "cli.main"
STATUSES = ["Identical", "UnreachableConditionI", "ReachableConstructive", "ReachableHeuristic",
            "ReachableExhaustive", "UnreachableExhaustive", "Unknown"]


def _on_spectral(c, args, kwargs, result):
    c["graph.power_iterations"] += result.iterations
    c["graph.power_nonconverged"] += not result.converged


def _on_build_path(c, args, kwargs, result):
    c[f"reach.status.{result.status}"] += 1
    if result.path is not None:
        c["reach.path_switches"] += len(result.path)


def _on_count_class(c, args, kwargs, result):
    cap = kwargs.get("cap", args[2] if len(args) > 2 else None)
    c["oracle.count_margin_class.states"] += cap + 1 if result is None else result
    c["oracle.count_margin_class.overflows"] += result is None


def _on_verify_reachability(c, args, kwargs, result):
    c["oracle.verify_reachability.pairs"] += result.pairs
    c["oracle.verify_reachability.differences"] += len(result.conjecture)
    c["oracle.verify_reachability.evaluated"] += sum(rec.pairs for rec in result.conjecture)


def _counter(key, measure):
    def hook(c, args, kwargs, result):
        c[key] += measure(result)
    return hook


HOOKS = {
    "graph.spectral_radius": _on_spectral,
    "graph.find_sym_checkerboards": _counter("graph.find_sym_checkerboards.boards", len),
    "binmat.find_checkerboards": _counter("binmat.find_checkerboards.boards", len),
    "reach.build_path": _on_build_path,
    "oracle.count_margin_class": _on_count_class,
    "oracle.enumerate_margins": _counter("oracle.enumerate_margins.matrices", len),
    "oracle.build_dag": _counter("oracle.build_dag.arcs", lambda dag: dag.arc_count),
    "oracle.verify_reachability": _on_verify_reachability,
    "optimize.run": _counter("optimize.steps", lambda traj: traj.length),
}

# (metric, unit, better); "/op" metrics are totals divided by traced ops
_CALLS_S = [
    "binmat.read_matrix", "graph.spectral_radius", "graph.sym_switch_inplace",
    "graph.sym_board_pair_counts", "graph.count_sym_checkerboards",
    "graph.find_sym_checkerboards", "graph.dense_spectral_radius", "reach.build_path",
    "reach.check_conditions", "reach.find_motif_cells", "reach.validate_path",
    "binmat.find_checkerboards", "binmat.apply_switch", "binmat.classify", "binmat.potential",
    "binmat.apply_path", "oracle.count_margin_class", "oracle.bfs_directed_path",
    "oracle.enumerate_margins",
]
_S_ONLY = [
    "optimize.run", "optimize.structure_mismatch", "optimize.write_trajectory_csv",
    "oracle.build_dag", "oracle.verify_dag_structure", "oracle.verify_reachability",
    "oracle.enumerate_degree_class", "oracle.build_graph_dag",
    "oracle.verify_spectral_max_at_sink",
]
_COUNTS = [
    "optimize.steps", "optimize.exact_fallbacks", "graph.power_iterations",
    "graph.power_nonconverged", "graph.find_sym_checkerboards.boards", "reach.path_switches",
    "binmat.find_checkerboards.boards", "oracle.count_margin_class.states",
    "oracle.count_margin_class.overflows", "oracle.enumerate_margins.matrices",
    "oracle.build_dag.arcs", "oracle.verify_reachability.pairs",
    "oracle.verify_reachability.differences",
]


def metric_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, in report order."""
    spec = [("cli.self_s", "s/op", "lower"), ("cli.stdout_bytes", "B/op", "lower")]
    for name in _CALLS_S:
        spec += [(f"{name}.calls", "count/op", "lower"), (f"{name}.s", "s/op", "lower")]
    spec += [(f"{name}.s", "s/op", "lower") for name in _S_ONLY]
    spec += [("optimize.sample.calls", "count/op", "lower"),
             ("optimize.sample.self_s", "s/op", "lower"),
             ("optimize.exact_fallback_s", "s/op", "lower"),
             ("optimize.exact_fallback_ratio", "ratio", "lower"),
             ("oracle.difference_reuse_ratio", "ratio", "higher")]
    spec += [(name, "count/op", "lower") for name in _COUNTS]
    for status in STATUSES:
        spec.append((f"reach.status.{status}", "count/op",
                     "lower" if status == "Unknown" else "higher"))
        spec.append((f"reach.{status}.ms_p50", "ms", "lower"))
    spec.append(("trace_overhead_ratio", "ratio", "lower"))
    return spec


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.result_tag = array("h")  # build_path verdict index, else -1
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._restore: list[tuple[object, str, object]] = []
        self.op_id = -1
        self._id(ROOT)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.result_tag.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self.enter(self._id(name))
        try:
            yield
        finally:
            self.exit(idx)

    def _wrap(self, name: str, fn):
        name_id = self._id(ALIASES.get(name, name))
        hook = HOOKS.get(name)
        enter, exit_, counters, tags = self.enter, self.exit, self.counters, self.result_tag
        tag_status = name == "reach.build_path"

        def wrapper(*args, **kwargs):
            idx = enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx)
            if hook is not None:
                hook(counters, args, kwargs, result)
            if tag_status:
                tags[idx] = STATUSES.index(result.status)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "switchgraph" or key.startswith("switchgraph."))]
        for mod_name, funcs in TARGETS.items():
            mod = sys.modules[f"switchgraph.{mod_name}"]
            for fn_name in funcs:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._restore.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.op[i]}\n")

    def metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics (without trace_overhead_ratio) from the spans."""
        ids = self._ids
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_total = np.bincount(names, weights=dur - child, minlength=k)
        ops = max(int(calls[ids[ROOT]]), 1)
        c = self.counters

        # exact recounts: sym_board_pair_counts called from inside optimize.sample
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        fallback = (names == ids["graph.sym_board_pair_counts"]) & (
            parent_name == ids["optimize.sample"])
        c["optimize.exact_fallbacks"] = float(fallback.sum())
        samples = calls[ids["optimize.sample"]]
        evaluated = c["oracle.verify_reachability.evaluated"]
        tags = np.frombuffer(self.result_tag, dtype=np.int16)
        special = {
            "cli.self_s": self_total[ids[ROOT]] / ops,
            "cli.stdout_bytes": stdout_bytes / ops,
            "optimize.sample.self_s": self_total[ids["optimize.sample"]] / ops,
            "optimize.exact_fallback_s": dur[fallback].sum() / ops,
            "optimize.exact_fallback_ratio": fallback.sum() / samples if samples else 0.0,
            "oracle.difference_reuse_ratio":
                c["oracle.verify_reachability.differences"] / evaluated if evaluated else 0.0,
        }
        out: dict[str, float] = {}
        for key, _, _ in metric_spec()[:-1]:  # all but trace_overhead_ratio
            base, _, field = key.rpartition(".")
            if key in special:
                out[key] = float(special[key])
            elif field == "ms_p50":
                picked = dur[tags == STATUSES.index(base.split(".")[1])]
                out[key] = statistics.median(picked.tolist()) * 1e3 if picked.size else 0.0
            elif field == "calls" and base in ids:
                out[key] = calls[ids[base]] / ops
            elif field == "s" and base in ids:
                out[key] = total[ids[base]] / ops
            else:
                out[key] = c.get(key, 0.0) / ops
        return out
