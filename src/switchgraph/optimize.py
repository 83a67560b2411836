"""Random positive-switch driver.

Starting from a degree-sorted graph, repeatedly picks a negative symmetric
checkerboard uniformly at random and switches it to positive, recording
the exact integer M2 (and Z2) at every step and the spectral radius at a
configurable stride.  Runs end at a sink (no negative checkerboards left)
or when the step budget is exhausted.  M2 never decreases along a run and
the degree sequence is untouched, so the trajectory is a monotone walk of
the switch order.

A run keeps the table of negative boards per row pair current in a
``graph.NegativeBoardTable``, whose docstring gives the identity it counts
with and its costs: one full count, then a recount of the row pairs that
touch the four switched rows after each switch.  Every step is an exact
uniform pick from that table, and an empty table is the sink, confirmed by
one more full count once the table is released, so a run never holds two.

A run records each step in growing typed arrays: the four switch
coordinates and M2, 40 bytes a step, with lambda1 samples in a dict by
step.  So a run holds its board table (20 n^2 bytes, with float32 helpers
up to n = 4096) plus about 40 bytes a step, and the CSV writer streams its
lines from those arrays in blocks.

Randomness comes from numpy's seeded PCG64 generator, one draw per step; a
fixed seed replays the trajectory byte for byte.  At the sizes a dense
table fits, a step's time is mostly the fixed cost of each numpy call, so
the sampler and the table update keep their call counts small.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .binmat import NEGATIVE, BinaryMatrix, Switch
from .errors import InternalInvariantViolation
from .graph import (
    Graph,
    NegativeBoardTable,
    count_sym_checkerboards,
    m2_switch_delta,
    spectral_radius,
    zagreb,
)

TERMINATION_SINK = "SinkReached"
TERMINATION_BUDGET = "BudgetExhausted"

CSV_HEADER = "step,i,j,k,l,M2,Z2,lambda1"
# trajectory rows rendered per block: the writer holds one block's lines
_CSV_BLOCK = 128


@dataclass
class RunStats:
    """Spectral work of one run: lambda1 samples (initial, strided and
    final), their power iterations, and samples that did not converge."""

    lambda_samples: int = 0
    power_iterations: int = 0
    lambda_nonconverged: int = 0

    def lambda1(self, G: Graph) -> float:
        rep = spectral_radius(G)
        self.lambda_samples += 1
        self.power_iterations += rep.iterations
        self.lambda_nonconverged += not rep.converged
        return rep.lambda1


@dataclass(eq=False)
class Trajectory:
    """One run.  Row s - 1 of ``switches`` (the 1-based i, j, k, l) and of
    ``M2`` is step s; ``lambda1_samples`` maps each sampled step to its
    lambda1.  Both arrays are read-only int64."""

    switches: np.ndarray
    M2: np.ndarray
    lambda1_samples: dict[int, float]
    termination: str
    initial: Graph
    final: Graph
    M2_initial: int
    Z2_initial: float | None
    lambda1_initial: float
    lambda1_final: float
    stats: RunStats

    @property
    def M2_final(self) -> int:
        return int(self.M2[-1]) if self.length else self.M2_initial

    @property
    def Z2_final(self) -> float | None:
        return math.sqrt(self.M2_final / self.initial.m) if self.length else self.Z2_initial

    @property
    def length(self) -> int:
        return len(self.M2)


def sample_negative_checkerboard(
    adj: np.ndarray, rng: np.random.Generator, counts: np.ndarray
) -> Switch | None:
    """Uniform negative symmetric checkerboard, or None at a sink.

    ``counts`` is the table ``sym_board_pair_counts(adj, NEGATIVE)`` that a
    ``NegativeBoardTable`` keeps current.  One draw, ``rng.integers(total)`` over
    the table's total, picks one of its entries, and no draw is made at a
    sink.  Entries are ordered by row pair (i, j), row-major, and within a
    pair by the board's second column l, then its first column k; the pick
    is located by the cumulative sums of the row totals and of row i, and
    (k, l) by one scan of rows i and j.  Each symmetric switch appears
    under exactly two row pairs, (i, j) at columns (k, l) and (k, l) at
    columns (i, j), so the pick is uniform over switches; the switch is
    returned with its smaller row pair first.
    """
    ends = counts.sum(axis=1).cumsum()
    total = int(ends[-1])
    if total == 0:
        return None
    rest = int(rng.integers(total))
    i = int(ends.searchsorted(rest, side="right"))
    if i:
        rest -= int(ends[i - 1])
    ends = counts[i].cumsum()
    j = int(ends.searchsorted(rest, side="right"))
    if j:
        rest -= int(ends[j - 1])
    # columns k with a_ik = 0 < a_jk, met left to right; each column l with
    # a_il = 1 > a_jl closes one board with every k seen so far
    firsts: list[int] = []
    for col, (x, y) in enumerate(zip(adj[i].tolist(), adj[j].tolist())):
        if x == y or col == i or col == j:
            continue
        if x < y:
            firsts.append(col)
        elif rest < len(firsts):
            k, l = firsts[rest], col
            break
        else:
            rest -= len(firsts)
    else:
        raise InternalInvariantViolation(f"row pair ({i}, {j}) holds fewer boards than counted")
    if (i, j) > (k, l):
        i, j, k, l = k, l, i, j
    return Switch(i + 1, j + 1, k + 1, l + 1)


def run(
    G0: Graph,
    budget: int,
    lambda_every: int = 25,
    seed: int = 0,
) -> Trajectory:
    """Drive ``G0`` through random positive switches.

    The spectral radius is recorded at step 0, at termination, and at
    every ``lambda_every``-th step (0 disables per-step sampling); M2 is
    updated every step via the O(1) degree-product delta, and Z2 is
    derived from it on read.  A sink
    found by the maintained board table is confirmed by one full count.
    """
    if not G0.is_degree_sorted():
        raise ValueError("run() expects a degree-sorted graph")
    rng = np.random.default_rng(seed)
    adj = G0.writable_bits()
    degrees = G0.degrees.tolist()
    m = G0.m
    _, m2_initial, _, z2_initial = zagreb(G0) if m else (0, 0, 0.0, None)
    m2 = m2_initial
    stats = RunStats()
    lam0 = stats.lambda1(G0)
    table = NegativeBoardTable(adj)
    switches = array("q")
    m2s = array("q")
    samples: dict[int, float] = {}
    termination = TERMINATION_BUDGET
    for step in range(1, budget + 1):
        coord = sample_negative_checkerboard(adj, rng, table.counts)
        if coord is None:
            del table  # a run holds one table at a time
            if count_sym_checkerboards(adj, NEGATIVE):
                raise InternalInvariantViolation(
                    "board table reads empty but negative boards remain"
                )
            termination = TERMINATION_SINK
            break
        table.switch(coord)
        m2 += m2_switch_delta(degrees, coord)
        switches.extend(coord)
        m2s.append(m2)
        if lambda_every and step % lambda_every == 0:
            samples[step] = stats.lambda1(Graph._wrap(adj.copy()))
    final = Graph._wrap(adj)
    lam_final = stats.lambda1(final)
    return Trajectory(
        switches=_frozen(switches).reshape(-1, 4),
        M2=_frozen(m2s),
        lambda1_samples=samples,
        termination=termination,
        initial=G0,
        final=final,
        M2_initial=m2_initial,
        Z2_initial=z2_initial,
        lambda1_initial=lam0,
        lambda1_final=lam_final,
        stats=stats,
    )


def _frozen(values: array) -> np.ndarray:
    """``values`` as a read-only int64 array over the same memory."""
    out = np.frombuffer(values, dtype=np.int64)
    out.flags.writeable = False
    return out


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def _csv_lines(traj: Trajectory):
    """The CSV's lines, each ending in a newline; step 0 carries the initial
    M2/Z2/lambda1 and no coordinates, and the last step always carries
    lambda1.  Steps are rendered ``_CSV_BLOCK`` rows at a time."""
    yield CSV_HEADER + "\n"
    yield f"0,,,,,{traj.M2_initial},{_fmt(traj.Z2_initial)},{_fmt(traj.lambda1_initial)}\n"
    m = traj.initial.m
    last = traj.length
    samples = traj.lambda1_samples
    for start in range(0, last, _CSV_BLOCK):
        stop = min(start + _CSV_BLOCK, last)
        rows = traj.switches[start:stop].tolist()
        m2s = traj.M2[start:stop].tolist()
        for step, (i, j, k, l), m2 in zip(range(start + 1, stop + 1), rows, m2s):
            lam = samples.get(step, traj.lambda1_final if step == last else None)
            yield f"{step},{i},{j},{k},{l},{m2},{math.sqrt(m2 / m)!r},{_fmt(lam)}\n"


def trajectory_csv(traj: Trajectory) -> str:
    """The trajectory as CSV text, the bytes ``write_trajectory_csv`` writes."""
    return "".join(_csv_lines(traj))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Stream the CSV to ``path`` without building it in memory."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.writelines(_csv_lines(traj))


# ---------------------------------------------------------------------------
# Structure mismatch metric for run endpoints
# ---------------------------------------------------------------------------


def structure_mismatch(A: BinaryMatrix) -> dict[str, float]:
    """Distance of a matrix from the ideal zebra and anti-zebra shapes.

    Per row with sum s: the zebra family places its 1s as a left prefix
    plus a right suffix (edge-anchored), the anti-zebra family as one
    contiguous run (banded); both preserve the row margin.  The score is
    the fraction of entries that disagree with the best fit, so lower
    means closer.  Thresholds are a reporting matter, not a pass/fail one.
    """
    p, q = A.bits.shape
    zebra_miss = 0
    band_miss = 0
    for row in A.bits:
        s = int(row.sum())
        if s == 0 or s == q:
            continue
        csum = np.concatenate([[0], np.cumsum(row, dtype=np.int64)])
        # edge-anchored: prefix of length x plus suffix of length s - x,
        # for x = 0..s
        best_edge = int((csum[: s + 1] - csum[q - s :]).max() + csum[q])
        zebra_miss += 2 * (s - best_edge)
        # banded: a window of length s
        windows = csum[s:] - csum[: q - s + 1]
        band_miss += 2 * (s - int(windows.max()))
    total = p * q
    return {
        "zebra": zebra_miss / total,
        "anti_zebra": band_miss / total,
    }
