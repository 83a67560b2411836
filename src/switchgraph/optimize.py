"""Random positive-switch driver.

Starting from a degree-sorted graph, repeatedly picks a negative symmetric
checkerboard uniformly at random and switches it to positive, recording
the exact integer M2 (and Z2) at every step and the spectral radius at a
configurable stride.  Runs end at a sink (no negative checkerboards left)
or when the step budget is exhausted.  M2 never decreases along a run and
the degree sequence is untouched, so the trajectory is a monotone walk of
the switch order.

Randomness comes from numpy's seeded PCG64 generator; a fixed seed replays
the trajectory byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .binmat import NEGATIVE, POSITIVE, BinaryMatrix, Switch
from .errors import InternalInvariantViolation
from .graph import Graph, spectral_radius, sym_board_pair_counts, sym_switch_inplace

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

    @property
    def M2_final(self) -> int:
        return self.steps[-1].M2 if self.steps else self.M2_initial

    @property
    def Z2_final(self) -> float | None:
        return self.steps[-1].Z2 if self.steps else self.Z2_initial

    @property
    def length(self) -> int:
        return len(self.steps)


def _zagreb_m2(adj: np.ndarray, degrees: np.ndarray) -> int:
    return int(degrees @ adj.astype(np.int64) @ degrees) // 2


def sample_negative_checkerboard(
    adj: np.ndarray, rng: np.random.Generator, rejection_cap: int | None = None
) -> Switch | None:
    """Uniform negative symmetric checkerboard, or None at a sink.

    Rejection sampling over random vertex quadruples first; after
    ``rejection_cap`` misses (default 10n) an exact enumeration pass
    counts every board and picks one uniformly, which doubles as exact
    sink detection.
    """
    n = adj.shape[0]
    if n >= 4:
        cap = 10 * n if rejection_cap is None else rejection_cap
        draws = 0
        while draws < cap:
            quad = rng.integers(0, n, size=4)
            a, b, c, d = (int(x) for x in quad)
            if a == b or c == d or a == c or a == d or b == c or b == d:
                continue
            draws += 1
            i, j = (a, b) if a < b else (b, a)
            k, l = (c, d) if c < d else (d, c)
            if adj[i, k] == 0 and adj[i, l] == 1 and adj[j, k] == 1 and adj[j, l] == 0:
                if (i, j) > (k, l):
                    i, j, k, l = k, l, i, j
                return Switch(i + 1, j + 1, k + 1, l + 1)
    return _enumerate_and_pick(adj, rng)


def _enumerate_and_pick(adj: np.ndarray, rng: np.random.Generator) -> Switch | None:
    """Exact uniform choice among all negative boards (None if there are none).

    Each symmetric switch appears under exactly two row pairs of the
    ordered enumeration, so a uniform ordered pick is uniform over
    switches.
    """
    counts = sym_board_pair_counts(adj, NEGATIVE)
    total = int(counts.sum())
    if total == 0:
        return None
    pick = int(rng.integers(total))
    flat = counts.ravel()
    cumulative = np.cumsum(flat)
    cell = int(np.searchsorted(cumulative, pick, side="right"))
    prior = int(cumulative[cell - 1]) if cell else 0
    inner = pick - prior
    n = adj.shape[0]
    i, j = divmod(cell, n)
    d = adj[i].astype(np.int16) - adj[j]
    d[i] = d[j] = 0
    neg_cols = np.flatnonzero(d == -1)
    pos_cols = np.flatnonzero(d == 1)
    for l in pos_cols:
        below = neg_cols[neg_cols < l]
        if inner < below.size:
            k = int(below[inner])
            l = int(l)
            if (i, j) > (k, l):
                i, j, k, l = k, l, i, j
            return Switch(i + 1, j + 1, k + 1, l + 1)
        inner -= below.size
    raise InternalInvariantViolation("uniform pick fell off the enumeration")


def run(
    G0: Graph,
    budget: int,
    lambda_every: int = 25,
    seed: int = 0,
    rejection_cap: int | None = None,
    tol: float = 1e-10,
) -> Trajectory:
    """Drive ``G0`` through random positive switches.

    The spectral radius is recorded at step 0, at termination, and at
    every ``lambda_every``-th step (0 disables per-step sampling); M2 and
    Z2 are updated every step via the O(1) degree-product delta.
    """
    if not G0.is_degree_sorted():
        raise ValueError("run() expects a degree-sorted graph")
    rng = np.random.default_rng(seed)
    adj = G0.writable_adj()
    degrees = G0.degrees.copy()
    m = G0.m
    m2 = _zagreb_m2(adj, degrees)
    z2 = math.sqrt(m2 / m) if m else None
    lam0 = spectral_radius(G0, tol=tol).lambda1
    steps: list[TrajectoryStep] = []
    termination = TERMINATION_BUDGET
    for step in range(1, budget + 1):
        coord = sample_negative_checkerboard(adj, rng, rejection_cap)
        if coord is None:
            termination = TERMINATION_SINK
            break
        sym_switch_inplace(adj, coord, POSITIVE)
        m2 += int(
            (degrees[coord.i - 1] - degrees[coord.j - 1])
            * (degrees[coord.k - 1] - degrees[coord.l - 1])
        )
        z2 = math.sqrt(m2 / m)
        lam = None
        if lambda_every and step % lambda_every == 0:
            lam = spectral_radius(Graph._wrap(adj.copy()), tol=tol).lambda1
        steps.append(TrajectoryStep(step, coord, m2, z2, lam))
    final = Graph._wrap(adj)
    lam_final = spectral_radius(final, tol=tol).lambda1
    return Trajectory(
        seed=seed,
        budget=budget,
        lambda_every=lambda_every,
        steps=steps,
        termination=termination,
        initial=G0,
        final=final,
        M2_initial=_zagreb_m2(G0.adj, G0.degrees),
        Z2_initial=math.sqrt(_zagreb_m2(G0.adj, G0.degrees) / m) if m else None,
        lambda1_initial=lam0,
        lambda1_final=lam_final,
    )


def snapshot_render(obj) -> str:
    """Matrix text block for a graph or matrix, for diffing run endpoints."""
    if isinstance(obj, Graph):
        return obj.to_binary_matrix().to_text()
    if isinstance(obj, BinaryMatrix):
        return obj.to_text()
    return BinaryMatrix(obj).to_text()


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
