"""Random positive-switch driver.

Starting from a degree-sorted graph, repeatedly picks a negative symmetric
checkerboard uniformly at random and switches it to positive, recording
the exact integer M2 (and Z2) at every step and the spectral radius at a
configurable stride.  Runs end at a sink (no negative checkerboards left)
or when the step budget is exhausted.  M2 never decreases along a run and
the degree sequence is untouched, so the trajectory is a monotone walk of
the switch order.

A run keeps the table of negative boards per row pair current in a
``graph.NegativeBoardTable``: it is counted once from scratch
(``graph.sym_board_pair_counts``), and after each switch only the row
pairs touching the four switched rows are recounted.  That recount reads
the identity, for rows i < j,

    N(i, j) = sum_{k<l; k,l not in {i,j}} (1-a_ik) a_jk a_il (1-a_jl),

expanded into sums that two matrix products give for all rows at once:
A times a (12 x n) stack built from the four rows, and [Q; tril(A, -1)]
times the four rows, with Q = A o P and P_j(l) the 1s of row j left of
column l.  The helpers A, Q and tril(A, -1) change only in the switched
rows, so they stay current in O(n) per step; they are float64 (24 n^2
bytes) and every value is an integer below n^3, which float64 holds
exactly.  Every step is an exact uniform pick from that table, and an
empty table is the sink, confirmed by one more full count.

Randomness comes from numpy's seeded PCG64 generator, one draw per step; a
fixed seed replays the trajectory byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binmat import NEGATIVE, Switch
from .errors import InternalInvariantViolation
from .graph import (
    Graph,
    NegativeBoardTable,
    count_sym_checkerboards,
    m2_switch_delta,
    spectral_radius,
    sym_board_pair_counts,
    zagreb,
)

TERMINATION_SINK = "SinkReached"
TERMINATION_BUDGET = "BudgetExhausted"

CSV_HEADER = "step,i,j,k,l,M2,Z2,lambda1"


@dataclass(frozen=True)
class TrajectoryStep:
    step: int
    coord: Switch
    M2: int
    Z2: float
    lambda1: float | None


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


@dataclass
class Trajectory:
    seed: int
    budget: int
    lambda_every: int
    steps: list[TrajectoryStep]
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
        return self.steps[-1].M2 if self.steps else self.M2_initial

    @property
    def Z2_final(self) -> float | None:
        return self.steps[-1].Z2 if self.steps else self.Z2_initial

    @property
    def length(self) -> int:
        return len(self.steps)


def _locate(weights: np.ndarray, pick: int) -> tuple[int, int]:
    """Index whose slot of the cumulative ``weights`` holds ``pick``, and the
    offset of ``pick`` inside that slot."""
    ends = np.cumsum(weights)
    idx = int(np.searchsorted(ends, pick, side="right"))
    return idx, pick - (int(ends[idx - 1]) if idx else 0)


def sample_negative_checkerboard(
    adj: np.ndarray, rng: np.random.Generator, counts: np.ndarray | None = None
) -> Switch | None:
    """Uniform negative symmetric checkerboard, or None at a sink.

    ``counts`` is the table ``sym_board_pair_counts(adj, NEGATIVE)``; it is
    computed here when not given.  One draw picks uniformly among the
    table's entries: first the row pair (i, j) by the cumulative sum over
    cells, then the board (k, l) among that pair's, ordered by l and then
    k.  Each symmetric switch appears under exactly two row pairs, so the
    pick is uniform over switches.
    """
    if counts is None:
        counts = sym_board_pair_counts(adj, NEGATIVE)
    row_totals = counts.sum(axis=1)
    total = int(row_totals.sum())
    if total == 0:
        return None
    i, rest = _locate(row_totals, int(rng.integers(total)))
    j, rest = _locate(counts[i], rest)
    d = adj[i].astype(np.int16) - adj[j]
    d[i] = d[j] = 0
    first = d == -1
    seconds = np.flatnonzero(d == 1)
    # boards (k, l) with l = seconds[slot]: one per column k < l in ``first``
    slot, rest = _locate(np.cumsum(first)[seconds], rest)
    if slot >= seconds.size:
        raise InternalInvariantViolation(f"row pair ({i}, {j}) holds fewer boards than counted")
    k, l = int(np.flatnonzero(first)[rest]), int(seconds[slot])
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
    every ``lambda_every``-th step (0 disables per-step sampling); M2 and
    Z2 are updated every step via the O(1) degree-product delta.  A sink
    found by the maintained board table is confirmed by one full count.
    """
    if not G0.is_degree_sorted():
        raise ValueError("run() expects a degree-sorted graph")
    rng = np.random.default_rng(seed)
    adj = G0.writable_adj()
    degrees = G0.degrees.copy()
    m = G0.m
    _, m2_initial, _, z2_initial = zagreb(G0) if m else (0, 0, 0.0, None)
    m2 = m2_initial
    stats = RunStats()
    lam0 = stats.lambda1(G0)
    table = NegativeBoardTable(adj)
    steps: list[TrajectoryStep] = []
    termination = TERMINATION_BUDGET
    for step in range(1, budget + 1):
        coord = sample_negative_checkerboard(adj, rng, table.counts)
        if coord is None:
            if count_sym_checkerboards(adj, NEGATIVE):
                raise InternalInvariantViolation(
                    "board table reads empty but negative boards remain"
                )
            termination = TERMINATION_SINK
            break
        table.switch(coord)
        m2 += m2_switch_delta(degrees, coord)
        z2 = math.sqrt(m2 / m)
        lam = None
        if lambda_every and step % lambda_every == 0:
            lam = stats.lambda1(Graph._wrap(adj.copy()))
        steps.append(TrajectoryStep(step, coord, m2, z2, lam))
    final = Graph._wrap(adj)
    lam_final = stats.lambda1(final)
    return Trajectory(
        seed=seed,
        budget=budget,
        lambda_every=lambda_every,
        steps=steps,
        termination=termination,
        initial=G0,
        final=final,
        M2_initial=m2_initial,
        Z2_initial=z2_initial,
        lambda1_initial=lam0,
        lambda1_final=lam_final,
        stats=stats,
    )


def _fmt(value) -> str:
    return "" if value is None else repr(value)


def trajectory_csv(traj: Trajectory) -> str:
    """CSV rendering; step 0 carries the initial M2/Z2/lambda1, no coords."""
    lines = [CSV_HEADER]
    lines.append(
        f"0,,,,,{traj.M2_initial},{_fmt(traj.Z2_initial)},{_fmt(traj.lambda1_initial)}"
    )
    last = len(traj.steps)
    for pos, st in enumerate(traj.steps, start=1):
        lam = st.lambda1
        if pos == last and lam is None:
            lam = traj.lambda1_final
        lines.append(
            f"{st.step},{st.coord.i},{st.coord.j},{st.coord.k},{st.coord.l},"
            f"{st.M2},{_fmt(st.Z2)},{_fmt(lam)}"
        )
    return "\n".join(lines) + "\n"


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(trajectory_csv(traj))


# ---------------------------------------------------------------------------
# Structure mismatch metric for run endpoints
# ---------------------------------------------------------------------------


def structure_mismatch(obj) -> dict[str, float]:
    """Distance of a matrix from the ideal zebra and anti-zebra shapes.

    Per row with sum s: the zebra family places its 1s as a left prefix
    plus a right suffix (edge-anchored), the anti-zebra family as one
    contiguous run (banded); both preserve the row margin.  The score is
    the fraction of entries that disagree with the best fit, so lower
    means closer.  Thresholds are a reporting matter, not a pass/fail one.
    """
    bits = obj.adj if isinstance(obj, Graph) else obj.bits
    p, q = bits.shape
    zebra_miss = 0
    band_miss = 0
    for row in bits:
        s = int(row.sum())
        if s == 0 or s == q:
            continue
        csum = np.concatenate([[0], np.cumsum(row, dtype=np.int64)])
        # edge-anchored: prefix of length x plus suffix of length s - x
        best_edge = 0
        for x in range(s + 1):
            overlap = int(csum[x]) + int(csum[q] - csum[q - (s - x)])
            best_edge = max(best_edge, overlap)
        zebra_miss += 2 * (s - best_edge)
        # banded: a window of length s
        windows = csum[s:] - csum[: q - s + 1]
        band_miss += 2 * (s - int(windows.max()))
    total = p * q
    return {
        "zebra": zebra_miss / total,
        "anti_zebra": band_miss / total,
    }
