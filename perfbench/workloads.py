"""The three benchmark workloads: seeded inputs, CLI argv, work units, checks.

Every workload is a list of *rounds*.  A round has the same composition of
operations whatever the seed, so the throughput of one round does not
depend on which inputs the seed happened to draw; only the members drawn
for each slot change.

Each operation is one ``switchgraph`` CLI invocation.  Its inputs are
generated in memory during set-up and its input files are written just
before it runs, outside its timer: the program only ever sees files and
argv, and file-system hiccups stay out of the set-up time.  ``check``
returns the list of problems found in one invocation's outputs (empty when
it is correct); it runs after the timed phase.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from switchgraph import binmat, graph
from switchgraph.binmat import NEGATIVE, BinaryMatrix

# The golden 4x4 pairs of tests/conftest.py.  RING is unreachable (its T
# grid has a hole), BLOCK is reachable but fails condition (iii).
RING_A = [[0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 0, 0, 0]]
RING_B = [[1, 0, 0, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 0, 0, 1]]
BLOCK_A = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
BLOCK_B = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]

REACHABLE = {"Identical", "ReachableConstructive", "ReachableHeuristic", "ReachableExhaustive"}
UNREACHABLE = {"UnreachableConditionI", "UnreachableExhaustive"}
UNKNOWN = "Unknown"


@dataclass
class Op:
    """One CLI invocation; ``files`` (path -> text) are its input files,
    written just before it runs."""

    kind: str
    argv: list[str]
    files: dict[Path, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    rc: int | None
    stdout: str
    seconds: float
    error: str | None = None

    def report(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


@dataclass
class Plan:
    warmup: Op
    rounds: list[list[Op]]


def matrix_text(bits) -> str:
    """The CLI's matrix text format: "p q" then one 0/1 string per row."""
    arr = np.asarray(bits, dtype=np.uint8)
    rows = [row.tobytes().decode("ascii") for row in arr + ord("0")]
    return f"{arr.shape[0]} {arr.shape[1]}\n" + "\n".join(rows) + "\n"


def _expect_rc(rc, allowed, problems, what):
    if rc not in allowed:
        problems.append(f"{what}: exit code {rc}, expected one of {sorted(allowed)}")


# ---------------------------------------------------------------------------
# optimize-sink
# ---------------------------------------------------------------------------


def _er_adjacency(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return (upper | upper.T).astype(np.int8)


class OptimizeSink:
    """ER(n, 0.2) and ER(n, 0.7) graphs driven to a sink by ``optimize``.

    A round is one graph of each density; the work unit is one switch step.
    """

    name = "optimize-sink"
    work_name = ("steps_per_s", "1/s")
    p50_name = ("sink_s_p50", "s", 1e-3)
    tail_name = None

    def __init__(self, toy: bool):
        self.n = 16 if toy else 100
        self.warmup_n = 10 if toy else 24
        self.densities = (0.2, 0.7)
        self.rounds = 2 if toy else 4
        self.budget = 1_000_000
        self.lambda_every = 25

    def _op(self, rng, n, p, tag, inp: Path, out: Path) -> Op:
        adj = _er_adjacency(rng, n, p)
        g = inp / f"{tag}.mat"
        argv = [
            "optimize", "--input", str(g),
            "--budget", str(self.budget), "--lambda-every", str(self.lambda_every),
            "--seed", str(int(rng.integers(2**31))),
            "--out-csv", str(out / f"{tag}.csv"), "--out-final", str(out / f"{tag}.final.mat"),
        ]
        degrees = sorted((int(d) for d in adj.sum(axis=1)), reverse=True)
        return Op(f"er-{p}", argv, {g: matrix_text(adj)},
                  {"degrees": degrees, "csv": out / f"{tag}.csv", "final": out / f"{tag}.final.mat"})

    def build(self, seed: int, workdir: Path) -> Plan:
        rng = np.random.default_rng([seed, 1])
        inp, out = workdir / "in", workdir / "out"
        warmup = self._op(rng, self.warmup_n, 0.5, "warmup", inp, out)
        rounds = [
            [self._op(rng, self.n, p, f"r{r}_p{p}", inp, out) for p in self.densities]
            for r in range(self.rounds)
        ]
        return Plan(warmup, rounds)

    @staticmethod
    def work(op: Op, outcome: Outcome) -> int:
        rep = outcome.report()
        return int(rep["steps"]) if rep else 0

    @staticmethod
    def answered(op: Op, outcome: Outcome) -> bool:
        rep = outcome.report()
        return outcome.rc == 0 and rep is not None and rep.get("termination") == "SinkReached"

    @staticmethod
    def check(op: Op, outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_rc(outcome.rc, {0}, problems, "optimize")
        rep = outcome.report()
        if rep is None:
            return problems + ["optimize: stdout is not a JSON report"]
        if rep.get("termination") != "SinkReached":
            problems.append(f"optimize: termination {rep.get('termination')!r}")
        final = binmat.read_matrix(op.data["final"]).bits
        g = graph.Graph(final)
        if [int(d) for d in g.degrees] != op.data["degrees"]:
            problems.append("optimize: final degrees differ from the initial sorted degrees")
        if graph.count_sym_checkerboards(final, NEGATIVE) != 0:
            problems.append("optimize: final graph still has negative checkerboards")
        lines = Path(op.data["csv"]).read_text(encoding="ascii").splitlines()
        col = lines[0].split(",").index("M2")
        m2 = [int(line.split(",")[col]) for line in lines[1:]]
        if any(b < a for a, b in zip(m2, m2[1:])):
            problems.append("optimize: CSV M2 column decreases")
        final_m2 = graph.zagreb(g)[1]
        if not m2 or m2[-1] != final_m2 or rep.get("M2_final") != final_m2:
            problems.append(f"optimize: M2 trail ends at {m2[-1:]} / report {rep.get('M2_final')}, "
                            f"final graph has {final_m2}")
        return problems


# ---------------------------------------------------------------------------
# reach-mix
# ---------------------------------------------------------------------------


def _positive_walk(rng, size, steps):
    """Random size x size matrix A and the end B of a walk of ``steps``
    random positive switches from A."""
    while True:
        a = (rng.random((size, size)) < 0.5).astype(np.int8)
        b = a.copy()
        done = 0
        for _ in range(10_000):
            i, j, k, l = (int(x) for x in rng.integers(0, size, size=4))
            i, j, k, l = min(i, j), max(i, j), min(k, l), max(k, l)
            if i < j and k < l and b[i, k] == 0 and b[i, l] == 1 and b[j, k] == 1 and b[j, l] == 0:
                b[i, k] = b[j, l] = 1
                b[i, l] = b[j, k] = 0
                done += 1
                if done == steps:
                    return a, b


def _spread(lo, hi, count):
    """``count`` integers evenly covering lo..hi."""
    return [lo + (hi - lo) * k // max(count - 1, 1) for k in range(count)]


def _embed(rng, size, block_a, block_b):
    """A 4x4 pair placed on contiguous rows and columns of a random context.

    Contiguous placement keeps the pair's T grid intact, so an embedded
    RING stays unreachable: every rectangle that fits in its T grid lies
    inside the 4x4 block.
    """
    r0, c0 = (int(x) for x in rng.integers(0, size - 3, size=2))
    ctx = (rng.random((size, size)) < 0.5).astype(np.int8)
    a, b = ctx.copy(), ctx.copy()
    a[r0:r0 + 4, c0:c0 + 4] = block_a
    b[r0:r0 + 4, c0:c0 + 4] = block_b
    return a, b


class ReachMix:
    """A fixed mix of ``reach`` queries per round, one ``--bfs-cap`` for all.

    Per round: ``forward`` walks of 2 positive switches on 12x12..17x17 and
    of 1 switch on 18x18..24x24, and the same pairs ``reversed``; ``greedy`` walks of 2-8 switches on
    8x8..16x16 (the greedy heuristic's territory); RING in 5x5 and BLOCK in
    5x5/6x6 contexts (class count plus BFS decide RING); and one RING in a
    7x7 context whose class exceeds the cap, so it ends ``Unknown``.  Each
    slot of a round has a fixed size and walk length; the seed draws the
    matrices.
    """

    name = "reach-mix"
    work_name = ("queries_per_s", "1/s")
    p50_name = ("query_ms_p50", "ms", 1.0)
    tail_name = ("query_ms_tail", "ms", 1.0)

    def __init__(self, toy: bool):
        if toy:
            self.bfs_cap = 300
            self.forward = list(zip(_spread(6, 8, 4), [2, 2, 1, 1]))
            self.greedy = list(zip(_spread(5, 6, 2), [2, 3]))
            self.rounds = 4
        else:
            self.bfs_cap = 20_000
            # Two-switch walks sit on the smaller sizes: one that misses the
            # constructive conditions sends greedy over the whole matrix, up
            # to 3.6 s at 24x24, which swung round times twofold.  The
            # greedy slots measure that stage.
            self.forward = list(zip(_spread(12, 24, 8), [2, 2, 2, 2, 1, 1, 1, 1]))
            self.greedy = list(zip(_spread(8, 16, 4), [2, 4, 6, 8]))
            self.rounds = 16

    def _pairs(self, rng):
        for size, steps in self.forward:
            a, b = _positive_walk(rng, size, steps)
            yield "forward", a, b
            yield "reversed", b, a
        for size, steps in self.greedy:
            yield ("greedy", *_positive_walk(rng, size, steps))
        for _ in range(2):
            yield ("ring", *_embed(rng, 5, RING_A, RING_B))
        for size in (5, 6):
            yield ("block", *_embed(rng, size, BLOCK_A, BLOCK_B))
        yield ("ring7", *_embed(rng, 7, RING_A, RING_B))

    def _op(self, kind, a, b, tag, inp: Path) -> Op:
        pa, pb = inp / f"{tag}_a.mat", inp / f"{tag}_b.mat"
        argv = ["reach", str(pa), str(pb), "--bfs-cap", str(self.bfs_cap)]
        return Op(kind, argv, {pa: matrix_text(a), pb: matrix_text(b)}, {"a": a, "b": b})

    def build(self, seed: int, workdir: Path) -> Plan:
        rng = np.random.default_rng([seed, 2])
        inp = workdir / "in"
        rounds = []
        for r in range(self.rounds):
            rounds.append([self._op(kind, a, b, f"r{r}_{k}", inp)
                           for k, (kind, a, b) in enumerate(self._pairs(rng))])
        a, b = _positive_walk(rng, *self.forward[-1])
        return Plan(self._op("forward", a, b, "warmup", inp), rounds)

    @staticmethod
    def work(op: Op, outcome: Outcome) -> int:
        return 1

    @staticmethod
    def answered(op: Op, outcome: Outcome) -> bool:
        rep = outcome.report()
        return outcome.rc in (0, 1) and rep is not None and rep.get("status") != UNKNOWN

    @staticmethod
    def check(op: Op, outcome: Outcome) -> list[str]:
        problems: list[str] = []
        rep = outcome.report()
        if rep is None:
            return [f"reach {op.kind}: stdout is not a JSON report (exit {outcome.rc})"]
        status = rep.get("status")
        expected_rc = 0 if status in REACHABLE else 1 if status in UNREACHABLE else 2
        _expect_rc(outcome.rc, {expected_rc}, problems, f"reach {op.kind} {status}")
        if op.kind in ("forward", "greedy", "block"):
            allowed = REACHABLE
        elif op.kind == "reversed":
            allowed = UNREACHABLE
        else:
            allowed = UNREACHABLE | {UNKNOWN}
        if status not in allowed:
            problems.append(f"reach {op.kind}: verdict {status}")
        path = rep.get("path")
        if status in REACHABLE and path is None:
            problems.append(f"reach {op.kind}: {status} without a path")
        if path is not None:
            try:
                end = binmat.apply_path(BinaryMatrix(op.data["a"]), path)
            except Exception as exc:  # an invalid step is a failed check, not a crash
                problems.append(f"reach {op.kind}: path does not replay: {exc}")
            else:
                if end != BinaryMatrix(op.data["b"]):
                    problems.append(f"reach {op.kind}: path ends away from B")
        return problems


# ---------------------------------------------------------------------------
# oracle-sweep
# ---------------------------------------------------------------------------


def _gale_ryser(R, C) -> bool:
    if sum(R) != sum(C):
        return False
    conj = [sum(1 for r in R if r > k) for k in range(len(C))]
    lhs = rhs = 0
    for c, d in zip(sorted(C, reverse=True), conj):
        lhs += c
        rhs += d
        if lhs > rhs:
            return False
    return True


def feasible_margins(max_p: int, max_q: int, max_entry: int) -> list[tuple[tuple, tuple]]:
    """Every realisable margin pair with p <= max_p, q <= max_q, entries <= max_entry."""
    out = []
    for p in range(1, max_p + 1):
        for q in range(1, max_q + 1):
            rows_by_sum: dict[int, list[tuple]] = {}
            for R in itertools.product(range(min(max_entry, q) + 1), repeat=p):
                rows_by_sum.setdefault(sum(R), []).append(R)
            for C in itertools.product(range(min(max_entry, p) + 1), repeat=q):
                out.extend((R, C) for R in rows_by_sum.get(sum(C), ()) if _gale_ryser(R, C))
    return out


def _erdos_gallai(D) -> bool:
    if sum(D) % 2:
        return False
    prefix = 0
    for k in range(1, len(D) + 1):
        prefix += D[k - 1]
        if prefix > k * (k - 1) + sum(min(x, k) for x in D[k:]):
            return False
    return True


def graphical_sequences(max_n: int) -> list[tuple[int, ...]]:
    """Non-increasing graphical degree sequences on 1..max_n vertices."""
    return [
        D
        for n in range(1, max_n + 1)
        for D in itertools.combinations_with_replacement(range(n - 1, -1, -1), n)
        if _erdos_gallai(D)
    ]


def _margin_size_proxy(RC) -> float:
    # log of the class size if rows and columns were independent
    R, C = RC
    p, q = len(R), len(C)
    return (sum(_log_comb(q, r) for r in R) + sum(_log_comb(p, c) for c in C)
            - _log_comb(p * q, sum(R)))


@functools.cache
def _log_comb(n: int, k: int) -> float:
    return math.log(math.comb(n, k))


def _degree_size_proxy(D) -> float:
    # log of the configuration-model count of labelled graphs
    m = sum(D) // 2
    return (math.lgamma(2 * m + 1) - math.lgamma(m + 1) - m * math.log(2)
            - sum(math.lgamma(d + 1) for d in D))


def _strata(items, key, count, rng):
    """Split items, sorted by a size proxy, into ``count`` equal strata;
    each stratum is shuffled by the workload seed."""
    ordered = sorted(items, key=lambda it: (key(it), it))
    strata = [ordered[k * len(ordered) // count:(k + 1) * len(ordered) // count] for k in range(count)]
    for s in strata:
        rng.shuffle(s)
    return strata


class OracleSweep:
    """Exhaustive ``enumerate`` checks on tiny classes.

    Margin classes come from the feasible pairs of margin_space(4, 4, 3)
    and degree classes from the graphical sequences with n <= 7.  Both
    populations are cut into strata by an approximate class size, which
    tracks the cost of a class.  A round takes one margin class from every
    margin stratum plus one degree sequence from the next degree stratum
    in turn, so every round costs about the same whatever the seed.
    """

    name = "oracle-sweep"
    work_name = ("classes_per_s", "1/s")
    p50_name = ("class_ms_p50", "ms", 1.0)
    tail_name = ("class_ms_tail", "ms", 1.0)

    def __init__(self, toy: bool):
        if toy:
            self.margin_space, self.expect_margins = (3, 3, 2), None
            self.max_n, self.expect_degrees = 5, None
            self.margin_strata, self.degree_strata, self.rounds = 4, 2, 4
        else:
            self.margin_space, self.expect_margins = (4, 4, 3), 10223
            self.max_n, self.expect_degrees = 7, 493
            self.margin_strata, self.degree_strata, self.rounds = 20, 8, 24

    def build(self, seed: int, workdir: Path) -> Plan:
        rng = np.random.default_rng([seed, 3])
        inp = workdir / "in"
        margins = feasible_margins(*self.margin_space)
        degrees = graphical_sequences(self.max_n)
        for got, want, what in ((len(margins), self.expect_margins, "margin classes"),
                                (len(degrees), self.expect_degrees, "degree sequences")):
            if want is not None and got != want:
                raise RuntimeError(f"input generator produced {got} {what}, expected {want}")
        m_strata = _strata(margins, _margin_size_proxy, self.margin_strata, rng)
        d_strata = _strata(degrees, _degree_size_proxy, self.degree_strata, rng)

        def margin_op(RC, tag):
            path = inp / f"{tag}.txt"
            text = " ".join(map(str, RC[0])) + "\n" + " ".join(map(str, RC[1])) + "\n"
            return Op("margins", ["enumerate", "--margins", str(path)], {path: text})

        def degree_op(D):
            return Op("degrees", ["enumerate", "--degrees", ",".join(map(str, D))])

        rounds = []
        for r in range(self.rounds):
            ops = [margin_op(s[r % len(s)], f"r{r}_{k}") for k, s in enumerate(m_strata)]
            ds = d_strata[r % len(d_strata)]
            ops.append(degree_op(ds[(r // len(d_strata)) % len(ds)]))
            rounds.append(ops)
        return Plan(margin_op(m_strata[0][-1], "warmup"), rounds)

    @staticmethod
    def work(op: Op, outcome: Outcome) -> int:
        return 1

    @staticmethod
    def answered(op: Op, outcome: Outcome) -> bool:
        return outcome.rc == 0

    @staticmethod
    def check(op: Op, outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_rc(outcome.rc, {0}, problems, f"enumerate --{op.kind}")
        rep = outcome.report()
        if rep is None:
            return problems + [f"enumerate --{op.kind}: stdout is not a JSON report"]
        if rep.get("failures") != [] or "error" in rep:
            problems.append(f"enumerate {op.argv[1:]}: failures {rep.get('failures')} "
                            f"error {rep.get('error')}")
        return problems


WORKLOADS = {w.name: w for w in (OptimizeSink, ReachMix, OracleSweep)}
