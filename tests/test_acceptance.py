"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The heavyweight sweeps are shared through session fixtures.
"""

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from switchgraph import binmat, oracle, optimize, reach
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix
from switchgraph.graph import (
    Graph,
    dense_spectral_radius,
    gen_erdos_renyi,
    sort_by_degree,
    spectral_radius,
    sym_board_pair_counts,
    sym_switch_inplace,
    zagreb,
)

from conftest import (
    ANTI_BANDED,
    ANTI_SPLIT_H,
    BLOCK_A,
    BLOCK_B,
    BLOCK_T,
    PAIR_3X3_A,
    PAIR_3X3_B,
    RING_A,
    RING_B,
    RING_T,
    ZEBRA_BANDED,
    ZEBRA_SPLIT_H,
    graphical_sequences,
    margin_space,
    random_binary,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    classes: int = 0
    pairs: int = 0
    structure_failures: list = field(default_factory=list)
    reach_failures: list = field(default_factory=list)
    forward_counterexamples: list = field(default_factory=list)
    backward_records: int = 0
    differences: int = 0
    elapsed: float = 0.0
    digests: dict = field(default_factory=dict)


def arc_lists(dag) -> list:
    return [[[dest, list(sw)] for dest, sw in out] for out in dag.arcs]


# the eight checks of a margin class, in the order the digest reads them
MARGIN_CHECKS = (
    "acyclic", "connected", "potential_law", "unique_sink", "unique_source",
    "singleton_nested", "necessity", "sufficiency",
)


def class_digest_record(R, C, dag, checks, failures, rrep) -> bytes:
    """Canonical JSON of everything the oracle reports on one margin class:
    ``checks`` and ``failures`` of its structure and reachability merged, as
    ``enumerate`` prints them, and the reachability report ``rrep``."""
    record = {
        "R": list(R),
        "C": list(C),
        "count": len(dag.bits),
        "arcs": arc_lists(dag),
        "sources": dag.sources,
        "sinks": dag.sinks,
        "checks": [checks[name] for name in MARGIN_CHECKS],
        "failures": failures,
        "conjecture": [
            [rec.diff_key.hex(), rec.cond_ii, rec.cond_iii, rec.pairs, rec.reachable_pairs,
             list(rec.example_pair)]
            for rec in rrep.conjecture
        ],
    }
    return json.dumps(record, separators=(",", ":")).encode() + b"\n"


# sha256 per (p, q) block of the criterion 2 sweep, over class_digest_record
# of every feasible class in margin_space order
MARGIN_SWEEP_DIGESTS = {
    "1x1": "a09dd58fe8936f9b5748909e0b7607a438c6eb5cdf538df0b1d3beb088549214",
    "1x2": "dc1514e49a5afffb5ae612f637311352f965de1744037d5d5c66e376bdd07281",
    "1x3": "d161503ee8d31b934d0d64185ac24de09a0138427343619912a46e940c7ba717",
    "1x4": "fa36aaa3eff337d4458d2e412c5e28ac48e715654da5f0076b16829fbbb1bd24",
    "2x1": "95abffbee28e4a2d07f3102bffaf3681fa0e5528f1218ea84fdf65438c533714",
    "2x2": "4b62681cbb83a2178f734416a80e10e363cbd5a237b3ddf533d6a9af9994c743",
    "2x3": "252586bd79b9a8a1db2b49dc982b4b46a962ff5aab4e9d18301314316931f559",
    "2x4": "51ee223c8353d5364d56417c008a8eb2c643afc8bf948c2a7ac6c2e276d30730",
    "3x1": "8260aa15a96ecb07ffd940c40d1e3d13fa8bca47c0b0b3d363384f351dada41b",
    "3x2": "3fa0128badad1d2646b585b210edd556d3cc997ec876f5c07b9430e297b83ff3",
    "3x3": "5edbd2065fa1e6235bdd5ff7d0bc0394a1245fe48de96faebd895be21141b5cd",
    "3x4": "5b013a169d1eb0f503f2ff78096b44e90edbaf62a0c8120612923ebeb1b4bade",
    "4x1": "999f1dcce525ae4457e7bdcad2e6af561afdba1f6593dcf5118e5c835f1d00f6",
    "4x2": "540798959a999d5a9deeb87f25012ae5f49715020de88aee40a21ab92b8010ea",
    "4x3": "7d08ce462ec42ab4aac923856a84481318d41d3f75cc8fa36513f784689925c9",
    "4x4": "bb1ce0febde50677a88e0c7b8bddbb620bd8d18b322f3fb6bf36767d26017b8c",
}

# sha256 per n of criterion 7, over the arcs, sources and sinks of
# build_graph_dag for every graphical sequence in graphical_sequences order
GRAPH_DAG_DIGESTS = {
    1: "e60e0d71ed82535fbbd99df978f3f3100ca374673788492f7b05a13ce4d6441e",
    2: "464057af2c19cc72e888cea588275f406ed2b19374ce37d0d54d4831d242d514",
    3: "442f9d0e9bbe2efcd62ae957f1fff118d665ad0a941706e7c6d7f749185be8b5",
    4: "eb8eba3def5c824d31b389f78d92f09f77cb0fde10a4dff63171a44991feb0ac",
    5: "8b18e4f657ba85f3e10baf838e3bcc9f584388ec4c796df4d8888906b864a4aa",
    6: "79af5a410a1dc7c40cb2f73117b5e99e5e2cb831bf3dca4c78e1795bb1d269b4",
    7: "02dd882527953cea70e1293ac457c07cdc2e4767e66794261785d0642a4849dd",
}


@pytest.fixture(scope="session")
def margin_sweep() -> SweepResult:
    """Every margin pair with p, q <= 4 and entries <= 3, fully checked."""
    out = SweepResult()
    hashers = {}
    t0 = time.perf_counter()
    for R, C in margin_space(4, 4, 3):
        mats = oracle.enumerate_margins(R, C)
        if not len(mats):
            continue
        out.classes += 1
        dag = oracle.build_dag(mats)
        checks, failures = oracle.verify_dag_structure(dag)
        if failures:
            out.structure_failures.append((R, C, failures[:3]))
        rrep = oracle.verify_reachability(dag)
        hasher = hashers.setdefault(f"{len(R)}x{len(C)}", hashlib.sha256())
        hasher.update(
            class_digest_record(R, C, dag, {**checks, **rrep.checks}, failures + rrep.failures, rrep)
        )
        out.pairs += rrep.pairs
        if rrep.failures:
            out.reach_failures.append((R, C, rrep.failures[:3]))
        for rec in rrep.conjecture:
            out.differences += 1
            if rec.forward_counterexample:
                a, b = rec.example_pair
                out.forward_counterexamples.append(
                    (R, C, BinaryMatrix(dag.bits[a]).to_text(), BinaryMatrix(dag.bits[b]).to_text())
                )
            if rec.backward_counterexample:
                out.backward_records += 1
    out.elapsed = time.perf_counter() - t0
    out.digests = {block: h.hexdigest() for block, h in hashers.items()}
    return out


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_golden_examples():
    t0 = time.perf_counter()
    pair = (BinaryMatrix(PAIR_3X3_A), BinaryMatrix(PAIR_3X3_B))
    ring = (BinaryMatrix(RING_A), BinaryMatrix(RING_B))
    block = (BinaryMatrix(BLOCK_A), BinaryMatrix(BLOCK_B))
    ok = reach.compute_T(reach.diff(*pair)).tolist() == [[1, 1], [0, 1]]
    ok &= reach.compute_T(reach.diff(*ring)).tolist() == RING_T
    ok &= reach.compute_T(reach.diff(*block)).tolist() == BLOCK_T
    boards = binmat.find_checkerboards(ring[0], NEGATIVE)
    ok &= [tuple(c.coord) for c in boards] == [(1, 4, 1, 4)]
    c1 = binmat.classify(BinaryMatrix(ZEBRA_BANDED))
    c2 = binmat.classify(BinaryMatrix(ZEBRA_SPLIT_H))
    c3 = binmat.classify(BinaryMatrix(ANTI_BANDED))
    c4 = binmat.classify(BinaryMatrix(ANTI_SPLIT_H))
    ok &= c1["zebra"] and not (c1["zebra_split_h"] or c1["zebra_split_v"])
    ok &= c2["zebra"] and c2["zebra_split_h"]
    ok &= c3["anti_zebra"] and not (c3["anti_zebra_split_h"] or c3["anti_zebra_split_v"])
    ok &= c4["anti_zebra"] and c4["anti_zebra_split_h"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, bool(ok), f"decomposition grids, boards, classifications exact in {elapsed:.3f}s")


def test_criterion_02_reachability_ground_truth(margin_sweep):
    sw = margin_sweep
    ring_verdict = reach.build_path(BinaryMatrix(RING_A), BinaryMatrix(RING_B))
    block_dist = oracle.bfs_directed_path(BinaryMatrix(BLOCK_A), BinaryMatrix(BLOCK_B))
    ok = (
        not sw.reach_failures
        and ring_verdict.reachable is False
        and block_dist is not None
        and len(block_dist) == 4
        and sw.elapsed < 300.0
    )
    report(
        2,
        ok,
        f"necessity+sufficiency on {sw.pairs} ordered pairs over {sw.classes} "
        f"classes, ring pair unreachable, block pair at distance 4 "
        f"({sw.elapsed:.1f}s < 300s)",
    )


def test_margin_sweep_golden_digests(margin_sweep):
    # a mismatch names the (p, q) blocks whose oracle reports changed
    changed = sorted(
        block
        for block in MARGIN_SWEEP_DIGESTS.keys() | margin_sweep.digests.keys()
        if MARGIN_SWEEP_DIGESTS.get(block) != margin_sweep.digests.get(block)
    )
    assert not changed, f"oracle reports changed in blocks {changed}"


def test_criterion_03_constructive_builder():
    rng = np.random.default_rng(2024)
    target = 1000
    built = 0
    failures = 0
    attempts = 0
    while built < target and attempts < 60 * target:
        attempts += 1
        p = int(rng.integers(2, 9))
        q = int(rng.integers(2, 9))
        A = random_binary(rng, p, q, float(rng.uniform(0.25, 0.75)))
        bits = A.writable_bits()
        applied = 0
        for _ in range(int(rng.integers(1, 7))):
            boards = binmat.find_checkerboards(BinaryMatrix(bits), NEGATIVE)
            if not boards:
                break
            sw = boards[int(rng.integers(len(boards)))].coord
            binmat.switch_bits_inplace(bits, sw, POSITIVE)
            applied += 1
        if not applied:
            continue
        B = BinaryMatrix(bits)
        ci, cii, ciii, _ = reach.check_conditions(reach.diff(A, B))
        if not (ci and cii and ciii):
            continue
        built += 1
        verdict = reach.build_path(A, B)
        if verdict.status != reach.REACHABLE_CONSTRUCTIVE:
            failures += 1
            continue
        cur = A
        pot = binmat.potential(cur)
        good = True
        for sw in verdict.path:
            cur = binmat.apply_switch(cur, sw, POSITIVE)  # raises if not a valid step
            nxt = binmat.potential(cur)
            good &= nxt > pot
            pot = nxt
        good &= cur == B
        if not good:
            failures += 1
    ok = built == target and failures == 0
    report(3, ok, f"{built} condition-satisfying pairs, {failures} builder failures")


def test_criterion_04_dag_structure(margin_sweep):
    sw = margin_sweep
    ok = not sw.structure_failures
    report(
        4,
        ok,
        f"acyclicity, connectivity, potential law, sink/source uniqueness on "
        f"{sw.classes} classes; {len(sw.structure_failures)} violations",
    )


def test_criterion_05_m2_delta_law():
    rng = np.random.default_rng(505)
    total = 0
    violations = 0
    while total < 10000:
        n = int(rng.integers(6, 15))
        g, _ = sort_by_degree(
            gen_erdos_renyi(n, float(rng.uniform(0.2, 0.8)), int(rng.integers(2**31)))
        )
        if g.m == 0:
            continue
        adj = g.writable_bits()
        d = g.degrees
        _, m2, _, z2 = zagreb(g)
        for _ in range(25):
            counts = sym_board_pair_counts(adj, NEGATIVE)
            sw = optimize.sample_negative_checkerboard(adj, rng, counts)
            if sw is None:
                break
            sym_switch_inplace(adj, sw, POSITIVE)
            total += 1
            predicted = m2 + int((d[sw.i - 1] - d[sw.j - 1]) * (d[sw.k - 1] - d[sw.l - 1]))
            fresh = int(d.astype(np.int64) @ adj.astype(np.int64) @ d.astype(np.int64)) // 2
            z2_new = (fresh / g.m) ** 0.5
            if fresh != predicted or z2_new < z2:
                violations += 1
            m2, z2 = fresh, z2_new
            if total >= 10000:
                break
    ok = violations == 0
    report(5, ok, f"{total} switches, exact integer delta law, Z2 monotone; {violations} violations")


def test_criterion_06_lambda_bound():
    rng = np.random.default_rng(606)
    checked = 0
    violations = 0
    while checked < 1000:
        n = int(rng.integers(8, 51))
        g, _ = sort_by_degree(gen_erdos_renyi(n, float(rng.uniform(0.1, 0.6)), int(rng.integers(2**31))))
        if g.m == 0:
            continue
        rep = spectral_radius(g)
        x = rep.eigvec
        adj = g.writable_bits()
        bound = 0.0
        applied = 0
        for _ in range(int(rng.integers(1, 11))):
            counts = sym_board_pair_counts(adj, NEGATIVE)
            sw = optimize.sample_negative_checkerboard(adj, rng, counts)
            if sw is None:
                break
            sym_switch_inplace(adj, sw, POSITIVE)
            bound += 2.0 * (x[sw.i - 1] - x[sw.j - 1]) * (x[sw.k - 1] - x[sw.l - 1])
            applied += 1
        if not applied:
            continue
        checked += 1
        lam_after = spectral_radius(Graph(adj)).lambda1
        if lam_after - rep.lambda1 < bound - 1e-8:
            violations += 1
    ok = violations == 0
    report(6, ok, f"{checked} switch sequences, eigen-shift lower bound held; {violations} violations")


def test_criterion_07_spectral_max_at_sink():
    t0 = time.perf_counter()
    sequences = 0
    graphs_total = 0
    failures = []
    digests = {}
    for n in range(1, 8):
        hasher = hashlib.sha256()
        for D in graphical_sequences(n):
            sequences += 1
            graphs = oracle.enumerate_degree_class(list(D))
            graphs_total += len(graphs)
            dag = oracle.build_graph_dag(graphs)
            hasher.update(json.dumps([list(D), arc_lists(dag), dag.sources, dag.sinks]).encode())
            rep = oracle.verify_spectral_max_at_sink(dag)
            if rep.failures:
                failures.append((D, rep.failures[:2]))
        digests[n] = hasher.hexdigest()
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(
        7,
        ok,
        f"{sequences} degree sequences, {graphs_total} graphs, max-at-sink and "
        f"eigenvector order exact ({elapsed:.1f}s < 600s); {len(failures)} failures",
    )
    changed = [n for n in digests if digests[n] != GRAPH_DAG_DIGESTS.get(n)]
    assert not changed, f"degree-class DAGs changed for n in {changed}"


def test_criterion_08_simulation_reproduction():
    t0 = time.perf_counter()
    seeds = range(5)
    sparse_rel = []
    dense_rel = []
    sparse_ok = True
    dense_ok = True
    monotone_ok = True
    mismatch_ok = True
    details = []
    for seed in seeds:
        g, _ = sort_by_degree(gen_erdos_renyi(100, 0.2, seed=seed))
        traj = optimize.run(g, budget=10**6, lambda_every=0, seed=seed)
        rel = (traj.lambda1_final - traj.lambda1_initial) / traj.lambda1_initial
        sparse_rel.append(rel)
        sparse_ok &= rel >= 0.10 and traj.termination == optimize.TERMINATION_SINK
        m2s = [traj.M2_initial] + traj.M2.tolist()
        monotone_ok &= all(b >= a for a, b in zip(m2s, m2s[1:]))
        mm = optimize.structure_mismatch(traj.final)
        mismatch_ok &= mm["anti_zebra"] < mm["zebra"]
        details.append(f"p=0.2 s{seed}: +{100 * rel:.1f}% az={mm['anti_zebra']:.3f} z={mm['zebra']:.3f}")
    for seed in seeds:
        g, _ = sort_by_degree(gen_erdos_renyi(100, 0.7, seed=seed))
        traj = optimize.run(g, budget=10**6, lambda_every=0, seed=seed)
        rel = (traj.lambda1_final - traj.lambda1_initial) / traj.lambda1_initial
        dense_rel.append(rel)
        dense_ok &= rel < 0.03
        m2s = [traj.M2_initial] + traj.M2.tolist()
        monotone_ok &= all(b >= a for a, b in zip(m2s, m2s[1:]))
        mm = optimize.structure_mismatch(traj.final)
        mismatch_ok &= mm["zebra"] < mm["anti_zebra"]
        details.append(f"p=0.7 s{seed}: +{100 * rel:.2f}% z={mm['zebra']:.3f} az={mm['anti_zebra']:.3f}")
    elapsed = time.perf_counter() - t0
    median_sparse = statistics.median(sparse_rel)
    ok = (
        sparse_ok
        and dense_ok
        and monotone_ok
        and mismatch_ok
        and median_sparse >= 0.15
        and elapsed < 900.0
    )
    for line in details:
        print("   ", line)
    report(
        8,
        ok,
        f"median sparse gain {100 * median_sparse:.1f}% (>=15), all sparse >=10%, "
        f"all dense <3%, M2 monotone, endpoint structure matches "
        f"({elapsed:.0f}s < 900s)",
    )


def test_criterion_09_spectral_engine():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        g = gen_erdos_renyi(n, float(rng.uniform(0.1, 0.9)), int(rng.integers(2**31)))
        lam_power = spectral_radius(g).lambda1
        lam_dense = dense_spectral_radius(g.adj)
        worst = max(worst, abs(lam_power - lam_dense))
    ok = worst < 1e-8
    report(9, ok, f"200 graphs, max |power - jacobi| = {worst:.2e} < 1e-8")


def test_criterion_10_conjecture_scan(margin_sweep, tmp_path_factory):
    sw = margin_sweep
    art_dir = tmp_path_factory.mktemp("conjecture-artifacts")
    for idx, (R, C, a_text, b_text) in enumerate(sw.forward_counterexamples):
        (art_dir / f"forward_{idx}_a.mat").write_text(a_text)
        (art_dir / f"forward_{idx}_b.mat").write_text(b_text)
    ok = sw.classes > 0  # the scan itself must complete; records are artifacts
    report(
        10,
        ok,
        f"scan completed on {sw.classes} classes / {sw.differences} differences; "
        f"{len(sw.forward_counterexamples)} forward counterexamples (logged to "
        f"{art_dir if sw.forward_counterexamples else 'nothing, none found'}), "
        f"{sw.backward_records} reachable-despite-hole records (evidence only)",
    )
