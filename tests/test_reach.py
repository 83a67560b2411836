import hashlib
import itertools
from collections import deque

import numpy as np
import pytest

from switchgraph import binmat, oracle, reach
from switchgraph.binmat import NEGATIVE, POSITIVE, BinaryMatrix
from switchgraph.errors import DimensionMismatch, MarginMismatch
from switchgraph.reach import (
    build_path,
    check_conditions,
    compute_T,
    diff,
    find_motif_cells,
    reconstruct_diff,
    validate_path,
)

from conftest import (
    BACKTRACK_A,
    BACKTRACK_B,
    BLOCK_A,
    BLOCK_B,
    BLOCK_T,
    PAIR_3X3_PATHS,
    RING_A,
    RING_B,
    RING_T,
    random_binary,
    reference_interval_search,
)


_ORTHO = ((1, 0), (-1, 0), (0, 1), (0, -1))


def flood_fill_holes(component):
    """Reference hole count: flood the complement from a one-cell border
    around the bounding box, then count the regions never reached."""
    rows = [r for r, _ in component]
    cols = [c for _, c in component]
    r0, r1 = min(rows) - 1, max(rows) + 1
    c0, c1 = min(cols) - 1, max(cols) + 1

    def flood(start, blocked):
        region = {start}
        queue = deque([start])
        while queue:
            r, c = queue.popleft()
            for dr, dc in _ORTHO:
                nxt = (r + dr, c + dc)
                if (
                    r0 <= nxt[0] <= r1
                    and c0 <= nxt[1] <= c1
                    and nxt not in region
                    and nxt not in blocked
                ):
                    region.add(nxt)
                    queue.append(nxt)
        return region

    seen = flood((r0, c0), component)
    holes = 0
    for r in range(r0, r1 + 1):
        for c in range(c0, c1 + 1):
            if (r, c) not in component and (r, c) not in seen:
                holes += 1
                seen |= flood((r, c), component | seen)
    return holes


def reference_components(cells):
    """4-connected components by breadth-first search over a set of cells,
    ordered by their smallest cell."""
    remaining = set(cells)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        queue = deque([seed])
        remaining.remove(seed)
        while queue:
            r, c = queue.popleft()
            for dr, dc in _ORTHO:
                nxt = (r + dr, c + dc)
                if nxt in remaining:
                    remaining.remove(nxt)
                    comp.add(nxt)
                    queue.append(nxt)
        comps.append(frozenset(comp))
    return comps


def reference_condition_ii(values):
    """Condition (ii) from explicit cell sets: no component of any level
    set has a hole."""
    for lvl in range(1, int(values.max()) + 1 if values.size else 1):
        cells = {(int(r), int(c)) for r, c in np.argwhere(values >= lvl)}
        if any(flood_fill_holes(comp) for comp in reference_components(cells)):
            return False
    return True


def random_pair_by_switches(rng, p, q, max_steps, density=0.5):
    """A plus a few random positive switches; None when A is a sink."""
    A = random_binary(rng, p, q, density)
    bits = A.writable_bits()
    steps = int(rng.integers(1, max_steps + 1))
    applied = 0
    for _ in range(steps):
        boards = binmat.find_checkerboards(BinaryMatrix(bits), NEGATIVE)
        if not boards:
            break
        sw = boards[int(rng.integers(len(boards)))].coord
        binmat.switch_bits_inplace(bits, sw, POSITIVE)
        applied += 1
    if not applied:
        return None
    return A, BinaryMatrix(bits)


def lstsq_T(M: np.ndarray) -> np.ndarray | None:
    """Independent decomposition oracle: solve M = sum t_ik * unit_ik by
    linear least squares over the unitary switch basis, then round."""
    p, q = M.shape
    cols = []
    for i in range(1, p):
        for k in range(1, q):
            cols.append(binmat.switching_matrix((i, i + 1, k, k + 1), p, q).ravel())
    if not cols:
        return np.zeros((0, 0), dtype=np.int64)
    basis = np.array(cols, dtype=np.float64).T
    sol, *_ = np.linalg.lstsq(basis, M.ravel().astype(np.float64), rcond=None)
    rounded = np.round(sol).astype(np.int64)
    if not np.array_equal(basis @ rounded, M.ravel()):
        return None
    return rounded.reshape(p - 1, q - 1)


class TestDiff:
    def test_zero(self, pair_3x3):
        A, _ = pair_3x3
        assert not diff(A, A).any()

    def test_golden_3x3(self, pair_3x3):
        A, B = pair_3x3
        assert (diff(A, B) == [[1, 0, -1], [-1, 1, 0], [0, -1, 1]]).all()

    def test_golden_block(self, block_pair):
        A, B = block_pair
        expect = [[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]]
        assert (diff(A, B) == expect).all()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diff(BinaryMatrix([[1]]), BinaryMatrix([[1, 0]]))

    def test_margin_mismatch(self):
        with pytest.raises(MarginMismatch):
            diff(BinaryMatrix([[1, 0], [0, 1]]), BinaryMatrix([[1, 1], [0, 0]]))

    def test_is_read_only_int8(self, pair_3x3):
        M = diff(*pair_3x3)
        assert isinstance(M, np.ndarray) and M.dtype == np.int8
        with pytest.raises(ValueError):
            M[0, 0] = 0

    def test_invariants_enforced(self):
        # compute_T is the public entry that receives a difference
        with pytest.raises(ValueError, match="sum to zero"):
            compute_T(np.array([[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            compute_T(np.array([[2, -2], [-2, 2]]))
        with pytest.raises(ValueError, match="2-D"):
            compute_T(np.array([1, -1]))
        with pytest.raises(ValueError, match="2-D"):
            compute_T(np.zeros((0, 3), dtype=np.int8))

    def test_reconstruct_rejects_entries_outside_unit_range(self):
        with pytest.raises(ValueError, match="-1, 0 or 1"):
            reconstruct_diff(np.array([[2]]))


class TestComputeT:
    def test_golden_3x3(self, pair_3x3):
        A, B = pair_3x3
        T = compute_T(diff(A, B))
        assert T.tolist() == [[1, 1], [0, 1]] and (T >= 0).all()

    def test_golden_ring(self, ring_pair):
        A, B = ring_pair
        T = compute_T(diff(A, B))
        assert T.tolist() == RING_T and (T >= 0).all()

    def test_golden_block(self, block_pair):
        A, B = block_pair
        T = compute_T(diff(A, B))
        assert T.tolist() == BLOCK_T and (T >= 0).all()

    def test_grid_is_read_only(self, pair_3x3):
        T = compute_T(diff(*pair_3x3))
        assert T.dtype == np.int64 and T.shape == (2, 2)
        with pytest.raises(ValueError):
            T[0, 0] = 5

    def test_single_negative_switch_fails_condition(self):
        m = -binmat.switching_matrix((1, 2, 1, 2), 3, 3)
        T = compute_T(m)
        assert T[0, 0] == -1 and not (T >= 0).all()

    def test_prefix_sums_match_lstsq_oracle(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 60:
            pq = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            pair = random_pair_by_switches(rng, *pq, max_steps=4)
            if pair is None:
                continue
            done += 1
            M = diff(*pair)
            expect = lstsq_T(M)
            assert expect is not None
            assert (compute_T(M) == expect).all()

    def test_round_trip_on_valid_pairs(self):
        rng = np.random.default_rng(22)
        done = 0
        while done < 40:
            pair = random_pair_by_switches(rng, 4, 4, max_steps=5)
            if pair is None:
                continue
            done += 1
            M = diff(*pair)
            T = compute_T(M)
            back = reconstruct_diff(T)
            assert back.dtype == np.int8 and not back.flags.writeable
            assert np.array_equal(back, M)
            assert (compute_T(back) == T).all()

    def test_unique_over_enumerated_class(self):
        # same difference -> same grid, across a whole small class
        mats = [BinaryMatrix(bits) for bits in oracle.enumerate_margins((2, 1, 1), (1, 2, 1))]
        for A in mats:
            for B in mats:
                M = diff(A, B)
                expect = lstsq_T(M)
                assert (compute_T(M) == expect).all()


def level_components(values, level):
    """The components of ``reach._level_components`` as sets of 1-based
    cells, decoded bit by bit."""
    width = values.shape[1] + 3
    return [
        frozenset(divmod(idx, width) for idx in range(comp.bit_length()) if comp >> idx & 1)
        for comp in reach._level_components(values, level)
    ]


class TestPolyominoLevels:
    def test_block_levels(self, block_pair):
        values = compute_T(diff(*block_pair))
        levels = [level_components(values, lvl) for lvl in range(1, 6)]
        assert [len(comps) for comps in levels] == [1, 1, 1, 1, 0]
        assert len(levels[0][0]) == 9
        # X-shaped pentomino at level 2
        assert sorted(levels[1][0]) == [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]
        assert levels[2] == levels[3] == [{(2, 2)}]
        assert not any(flood_fill_holes(comps[0]) for comps in levels[:4])
        assert not reach._has_hole(values)

    def test_ring_has_hole(self, ring_pair):
        values = compute_T(diff(*ring_pair))
        (comp,) = level_components(values, 1)
        assert len(comp) == 8 and flood_fill_holes(comp) == 1
        assert level_components(values, 2) == []
        assert reach._has_hole(values)

    def test_zero_grid(self):
        A = BinaryMatrix([[1, 0], [0, 1]])
        values = compute_T(diff(A, A))
        assert level_components(values, 1) == []
        assert not reach._has_hole(values)

    def test_two_components(self):
        vals = np.array([[1, 0, 1]], dtype=np.int64)
        assert level_components(vals, 1) == [{(1, 1)}, {(1, 3)}]
        assert not reach._has_hole(vals)

    def test_components_match_breadth_first_search(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            p, q = (int(x) for x in rng.integers(1, 10, size=2))
            values = rng.integers(-1, int(rng.integers(1, 5)), size=(p, q))
            for lvl in range(1, int(values.max()) + 1):
                cells = {(int(r) + 1, int(c) + 1) for r, c in np.argwhere(values >= lvl)}
                assert level_components(values, lvl) == reference_components(cells)

    def test_diagonal_adjacency_never_isolated(self):
        # valid differences never leave two diagonal cells without a shared
        # orthogonal neighbour in the same level set
        rng = np.random.default_rng(23)
        done = 0
        while done < 50:
            pair = random_pair_by_switches(rng, 4, 4, max_steps=6)
            if pair is None:
                continue
            done += 1
            values = compute_T(diff(*pair))
            if (values < 0).any():
                continue
            for lvl in range(1, int(values.max()) + 1):
                cells = {(int(r), int(c)) for r, c in np.argwhere(values >= lvl)}
                for (r, c) in cells:
                    for dr, dc in ((1, 1), (1, -1)):
                        if (r + dr, c + dc) in cells:
                            assert (r + dr, c) in cells or (r, c + dc) in cells


class TestConditions:
    def test_golden_triples(self, pair_3x3, ring_pair, block_pair):
        ci, cii, ciii, _ = check_conditions(diff(*pair_3x3))
        assert (ci, cii, ciii) == (True, True, True)
        ci, cii, ciii, _ = check_conditions(diff(*ring_pair))
        assert (ci, cii) == (True, False)
        ci, cii, ciii, _ = check_conditions(diff(*block_pair))
        assert (ci, cii, ciii) == (True, True, False)

    def test_condition_ii_matches_reference_on_every_3x3_grid(self):
        for flat in itertools.product(range(3), repeat=9):
            values = np.array(flat, dtype=np.int64).reshape(3, 3)
            assert reach.grid_conditions(values[None])[1][0] == reference_condition_ii(values), values

    def test_condition_ii_matches_reference_on_random_grids(self):
        rng = np.random.default_rng(37)
        holes = 0
        for _ in range(1500):
            p, q = (int(x) for x in rng.integers(1, 10, size=2))
            values = rng.integers(-1, int(rng.integers(1, 5)), size=(p, q))
            want = reference_condition_ii(values)
            assert reach.grid_conditions(values[None])[1][0] == want, values
            holes += not want
        assert 100 < holes < 1400

    def test_diamond_encloses_no_hole(self):
        # four cells around a fifth touch only diagonally: no 4-component
        # of the level set encloses the centre
        values = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=np.int64)
        assert reach.grid_conditions(values[None])[1][0]
        ring = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.int64)
        assert not reach.grid_conditions(ring[None])[1][0]

    def test_condition_iii_diagonals_count(self):
        vals = np.array([[0, 1], [1, 1]], dtype=np.int64)
        assert reach._condition_iii(vals)
        vals = np.array([[0, 1], [1, 2]], dtype=np.int64)
        assert not reach._condition_iii(vals)  # main-diagonal jump of 2
        vals = np.array([[1, 2], [0, 1]], dtype=np.int64)
        assert not reach._condition_iii(vals)  # anti-diagonal jump of 2


class TestFindMotif:
    def test_monomino(self):
        rect, kind = find_motif_cells({(3, 5)})
        assert kind == 1 and rect == (3, 3, 5, 5)

    def test_full_rectangle(self):
        cells = {(r, c) for r in (1, 2) for c in (1, 2, 3)}
        rect, kind = find_motif_cells(cells)
        assert kind == 1 and rect == (1, 2, 1, 3)

    def test_x_pentomino(self):
        cells = {(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)}
        rect, kind = find_motif_cells(cells)
        assert kind in (2, 3)
        r1, r2, c1, c2 = rect
        assert all((r, c) in cells for r in range(r1, r2 + 1) for c in range(c1, c2 + 1))

    def test_l_tromino(self):
        rect, kind = find_motif_cells({(1, 1), (1, 2), (2, 2)})
        assert kind in (2, 3)

    def test_u_shape_tab(self):
        # 3-wide block with a one-cell bite in the middle of the bottom row
        cells = {(1, 1), (1, 2), (1, 3), (2, 1), (2, 3)}
        rect, kind = find_motif_cells(cells)
        r1, r2, c1, c2 = rect
        assert all((r, c) in cells for r in range(r1, r2 + 1) for c in range(c1, c2 + 1))

    @pytest.mark.parametrize(
        "rows", [("###", "#.#", "###"), ("###", "#.#", "#.#", "###"), ("####", "#..#", "####")]
    )
    def test_holed_set_without_motif_names_its_hole(self, rows):
        # the three fixed polyominoes with a hole and at most 10 cells on
        # which no side gives a motif
        cells = {(r, c) for r, row in enumerate(rows, 1) for c, ch in enumerate(row, 1) if ch == "#"}
        with pytest.raises(ValueError, match="the cell set has a hole"):
            find_motif_cells(cells)

    def test_motif_rect_always_inside_on_random_shapes(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            pair = random_pair_by_switches(rng, 5, 5, max_steps=4)
            if pair is None:
                continue
            values = compute_T(diff(*pair))
            for lvl in range(1, int(values.max()) + 1):
                for comp in level_components(values, lvl):
                    if flood_fill_holes(comp):
                        continue
                    rect, kind = find_motif_cells(comp)
                    r1, r2, c1, c2 = rect
                    assert kind in (1, 2, 3)
                    assert all(
                        (r, c) in comp
                        for r in range(r1, r2 + 1)
                        for c in range(c1, c2 + 1)
                    )


def fixed_polyominoes(max_cells):
    """Every fixed polyomino with at most ``max_cells`` cells, as sorted
    tuples of 1-based cells with smallest row and column 1, ordered by size
    and then by cells."""
    level = {frozenset({(1, 1)})}
    shapes = []
    for size in range(1, max_cells + 1):
        shapes.extend(sorted(tuple(sorted(shape)) for shape in level))
        grown = set()
        for shape in level if size < max_cells else ():
            for r, c in shape:
                for dr, dc in _ORTHO:
                    if (r + dr, c + dc) not in shape:
                        cells = shape | {(r + dr, c + dc)}
                        r0 = min(a for a, _ in cells) - 1
                        c0 = min(b for _, b in cells) - 1
                        grown.add(frozenset((a - r0, b - c0) for a, b in cells))
        level = grown
    return shapes


def test_motif_digest_on_every_small_polyomino():
    # the rectangle and kind that find_motif_cells returns for each of the
    # 13,385 hole-free fixed polyominoes with at most 9 cells, pinned as one
    # sha256 in the order of fixed_polyominoes
    shapes = fixed_polyominoes(9)
    assert len(shapes) == 13_702
    digest = hashlib.sha256()
    kinds = {1: 0, 2: 0, 3: 0}
    for cells in shapes:
        grid = np.zeros((max(r for r, _ in cells), max(c for _, c in cells)), dtype=np.int64)
        grid[tuple(np.array(cells).T - 1)] = 1
        if reach._has_hole(grid):
            continue
        rect, kind = find_motif_cells(set(cells))
        kinds[kind] += 1
        digest.update(repr((cells, rect, kind)).encode())
    assert kinds == {1: 23, 2: 2_250, 3: 11_112}
    assert digest.hexdigest() == "aebc440efdd1d5bc5d232ed7d52daf97995d7c7ee5770006af9e91b6be7cba98"


def test_constructive_grids_meet_the_motif_precondition(monkeypatch):
    # the motif finder reads the top component of each grid that the
    # constructive loop crops; conditions (ii) and (iii) hold on every one
    recorded = []
    components = reach._level_components

    def record(values, level):
        recorded.append(values.copy())
        return components(values, level)

    rng = np.random.default_rng(20)
    pairs = 0
    for _ in range(300):
        A, B = digest_pair(rng)
        ci, cii, ciii, T = check_conditions(diff(A, B))
        if not (ci and cii and ciii) or A == B:
            continue
        pairs += 1
        with monkeypatch.context() as patch:
            patch.setattr(reach, "_level_components", record)
            reach._constructive_path(A, B, T)
    assert (pairs, len(recorded)) == (56, 125)
    for grid in recorded:
        _, cond_ii, cond_iii = reach.grid_conditions(grid[None])
        assert cond_ii[0] and cond_iii[0]


class TestBuildPath:
    def test_identical(self, pair_3x3):
        A, _ = pair_3x3
        v = build_path(A, A)
        assert v.status == reach.IDENTICAL and v.path == [] and v.reachable

    def test_golden_two_switch_pair(self, pair_3x3):
        A, B = pair_3x3
        v = build_path(A, B)
        assert v.status == reach.REACHABLE_CONSTRUCTIVE
        assert tuple(tuple(sw) for sw in v.path) in PAIR_3X3_PATHS
        assert validate_path(A, B, v.path)

    def test_golden_ring_unreachable(self, ring_pair):
        A, B = ring_pair
        v = build_path(A, B)
        assert v.status == reach.UNREACHABLE_EXHAUSTIVE
        assert v.reachable is False
        assert v.conditions["i"] and not v.conditions["ii"]

    def test_golden_block_reachable(self, block_pair):
        A, B = block_pair
        v = build_path(A, B)
        assert v.reachable
        assert validate_path(A, B, v.path)

    def test_condition_i_failure(self):
        A = BinaryMatrix([[1, 0], [0, 1]])
        B = BinaryMatrix([[0, 1], [1, 0]])
        v = build_path(A, B)
        assert v.status == reach.UNREACHABLE_CONDITION_I and v.reachable is False

    def test_margin_mismatch(self):
        with pytest.raises(MarginMismatch):
            build_path(BinaryMatrix([[1, 0], [0, 1]]), BinaryMatrix([[1, 1], [0, 0]]))

    def test_unknown_on_tiny_cap(self, block_pair, ring_pair):
        A, B = block_pair
        v = build_path(A, B, bfs_cap=1)
        assert v.status == reach.UNKNOWN and v.reachable is None
        # RING's start state has no switch that fits inside T
        assert build_path(*ring_pair, bfs_cap=1).status == reach.UNREACHABLE_EXHAUSTIVE

    def test_backtracking_pair(self):
        A, B = BinaryMatrix(BACKTRACK_A), BinaryMatrix(BACKTRACK_B)
        v = build_path(A, B)
        assert v.status == reach.REACHABLE_EXHAUSTIVE
        assert validate_path(A, B, v.path)
        assert oracle.bfs_directed_path(A, B) is not None
        assert build_path(A, B, bfs_cap=5).status == reach.UNKNOWN

    @pytest.mark.parametrize(
        "R, C",
        [
            ((1, 3, 3, 1), (3, 1, 1, 3)),  # RING's class
            ((2, 1, 2, 1), (1, 2, 2, 1)),
            # 48 members; one pair needs backtracking, one is unreachable
            ((1, 3, 1, 2, 3), (1, 4, 3, 1, 1)),
        ],
    )
    def test_search_matches_brute_force(self, R, C):
        stack = oracle.enumerate_margins(R, C)
        closure = oracle.reachability_closure(oracle.build_dag(stack))
        mats = [BinaryMatrix(bits) for bits in stack]
        for a, A in enumerate(mats):
            for b, B in enumerate(mats):
                v = build_path(A, B)
                assert v.reachable == bool(closure[a] >> b & 1), (R, C, a, b, v.status)
                if v.path is not None:
                    assert validate_path(A, B, v.path)

    def test_constructive_on_random_condition_pairs(self):
        rng = np.random.default_rng(41)
        done = 0
        while done < 120:
            p = int(rng.integers(2, 7))
            q = int(rng.integers(2, 7))
            pair = random_pair_by_switches(rng, p, q, max_steps=5)
            if pair is None:
                continue
            A, B = pair
            ci, cii, ciii, _ = check_conditions(diff(A, B))
            if not (ci and cii and ciii):
                continue
            done += 1
            v = build_path(A, B)
            assert v.status == reach.REACHABLE_CONSTRUCTIVE
            assert validate_path(A, B, v.path)
            # every step clears one rectangle of the grid, so the switch
            # areas add up to the grid total and bound the path length
            T = compute_T(diff(A, B))
            areas = sum((sw.j - sw.i) * (sw.l - sw.k) for sw in v.path)
            assert areas == T.sum() and len(v.path) <= T.sum()
            # potential strictly increases along the path
            pots = [binmat.potential(A)]
            cur = A
            for sw in v.path:
                cur = binmat.apply_switch(cur, sw, POSITIVE)
                pots.append(binmat.potential(cur))
            assert all(b > a for a, b in zip(pots, pots[1:]))

    def test_step_count_matches_t_total(self, pair_3x3):
        # each step clears one rectangle; unit rectangles give total steps
        A, B = pair_3x3
        v = build_path(A, B)
        T = compute_T(diff(A, B))
        areas = sum(
            (sw.j - sw.i) * (sw.l - sw.k) for sw in v.path
        )
        assert areas == T.sum()

    def test_bfs_fallback_reachable(self):
        # condition (iii) broken but the class is small: greedy or BFS route
        rng = np.random.default_rng(55)
        seen_non_constructive = 0
        for _ in range(200):
            pair = random_pair_by_switches(rng, 4, 4, max_steps=8)
            if pair is None:
                continue
            A, B = pair
            ci, cii, ciii, _ = check_conditions(diff(A, B))
            if ci and cii and ciii:
                continue
            seen_non_constructive += 1
            v = build_path(A, B)
            assert v.reachable  # built by forward switches, so always reachable
            assert validate_path(A, B, v.path)
        assert seen_non_constructive > 0


def embed_pair(rng, size, block_a, block_b):
    """A 4x4 pair on contiguous rows and columns of a random size x size
    context; the context is shared, so the pair's T grid is kept intact."""
    r0, c0 = (int(x) for x in rng.integers(0, size - 3, size=2))
    ctx = (rng.random((size, size)) < 0.5).astype(np.int8)
    a, b = ctx.copy(), ctx.copy()
    a[r0 : r0 + 4, c0 : c0 + 4] = block_a
    b[r0 : r0 + 4, c0 : c0 + 4] = block_b
    return BinaryMatrix(a), BinaryMatrix(b)


def positive_walk(rng, size, steps):
    """A random size x size matrix and the end of ``steps`` random positive
    switches from it (the greedy slots of the reach-mix benchmark)."""
    A = random_binary(rng, size, size)
    bits = A.writable_bits()
    for _ in range(steps):
        boards = binmat.board_coords(bits, NEGATIVE)
        binmat.switch_bits_inplace(bits, boards[int(rng.integers(len(boards)))], POSITIVE)
    return A, BinaryMatrix(bits)


# RING and BACKTRACK as the top-left corner of a digest pair
DIGEST_CORNERS = (None,) * 10 + ((RING_A, RING_B), (BACKTRACK_A, BACKTRACK_B))


def digest_pair(rng):
    """A random pair with equal margins: a walk of 1-11 switches of either
    sign from a random 3x3..16x16 matrix.  One pair in six has RING or
    BACKTRACK in the top-left corner of a 7x7..11x11 context and walks only
    on the rows and columns past it, so its T grid adds to the corner's."""
    corner = DIGEST_CORNERS[int(rng.integers(len(DIGEST_CORNERS)))]
    lo, hi = (3, 17) if corner is None else (7, 12)
    p, q = (int(x) for x in rng.integers(lo, hi, size=2))
    a = random_binary(rng, p, q).writable_bits()
    b = a.copy()
    walked = b
    if corner is not None:
        n = len(corner[0])
        a[:n, :n], b[:n, :n] = corner
        walked = b[n:, n:]
    for _ in range(int(rng.integers(1, 12))):
        sign, to = (NEGATIVE, POSITIVE) if rng.random() < 0.85 else (POSITIVE, NEGATIVE)
        boards = binmat.board_coords(walked, sign)
        if len(boards):
            binmat.switch_bits_inplace(walked, boards[int(rng.integers(len(boards)))], to)
    return BinaryMatrix(a), BinaryMatrix(b)


def test_build_path_digest():
    # every verdict of 300 seeded pairs, pinned as one sha256: the status,
    # the path and the three conditions, at the cap of ``--bfs-cap 2000``
    rng = np.random.default_rng(20)
    digest = hashlib.sha256()
    statuses = set()
    for _ in range(300):
        v = build_path(*digest_pair(rng), bfs_cap=2000)
        path = None if v.path is None else [tuple(sw) for sw in v.path]
        conditions = v.conditions["i"], v.conditions["ii"], v.conditions["iii"]
        digest.update(repr((v.status, path, *conditions)).encode())
        statuses.add(v.status)
    assert set(statuses) == reach.REACHABLE_STATUSES | reach.UNREACHABLE_STATUSES | {reach.UNKNOWN}
    assert digest.hexdigest() == "caa2d0d28aa0bef5a44fa0f5461f0835e1281dbcfa8d49389c2d30db57e65232"


class TestIntervalSearchTwin:
    """``reach._interval_search`` against the object-based search of
    :func:`conftest.reference_interval_search`: the same status and path."""

    @staticmethod
    def assert_twin(A, B, cap):
        T = compute_T(diff(A, B))
        got = reach._interval_search(A, B, T, cap)
        want = reference_interval_search(A, B, T, cap)
        assert got[0] == want[0], cap
        assert got[1] == want[1], cap
        assert got[1] is None or all(type(sw) is binmat.Switch for sw in got[1])
        return got[0]

    @pytest.mark.parametrize(
        "a, b, statuses",
        [
            (RING_A, RING_B, [reach.UNREACHABLE_EXHAUSTIVE] * 4),
            (BLOCK_A, BLOCK_B, [reach.UNKNOWN] + [reach.REACHABLE_HEURISTIC] * 3),
            (BACKTRACK_A, BACKTRACK_B, [reach.UNKNOWN] * 2 + [reach.REACHABLE_EXHAUSTIVE] * 2),
        ],
    )
    def test_golden_pairs(self, a, b, statuses):
        A, B = BinaryMatrix(a), BinaryMatrix(b)
        # every small cap pins the count of expanded states (BACKTRACK
        # decides at 8, and at 10 without its dead set)
        for cap in range(1, 13):
            self.assert_twin(A, B, cap)
        caps = (1, 5, 50, reach.DEFAULT_BFS_CAP)
        assert [self.assert_twin(A, B, cap) for cap in caps] == statuses

    @pytest.mark.parametrize("size", [5, 7])
    def test_ring_in_context(self, size):
        # every rectangle that fits RING's T lies inside the 4x4 block, and
        # none of them carries a negative board there: the start state is dead
        rng = np.random.default_rng(60 + size)
        for _ in range(3):
            A, B = embed_pair(rng, size, RING_A, RING_B)
            for cap in (1, 5, 50):
                assert self.assert_twin(A, B, cap) == reach.UNREACHABLE_EXHAUSTIVE

    def test_random_walks(self):
        rng = np.random.default_rng(64)
        statuses = set()
        for size, steps in zip((8, 10, 13, 16, 9, 12), (2, 4, 6, 8, 3, 5)):
            A, B = positive_walk(rng, size, steps)
            for cap in (1, 5, 50, 20_000):
                statuses.add(self.assert_twin(A, B, cap))
        assert {reach.UNKNOWN, reach.REACHABLE_HEURISTIC} <= statuses


class TestValidatePath:
    def test_valid(self, pair_3x3):
        A, B = pair_3x3
        assert validate_path(A, B, [(1, 2, 1, 3), (2, 3, 2, 3)])

    def test_wrong_endpoint(self, pair_3x3):
        A, _ = pair_3x3
        assert not validate_path(A, A, [(1, 2, 1, 3)])

    def test_invalid_step_raises(self, pair_3x3):
        A, B = pair_3x3
        from switchgraph.errors import InvalidSwitch

        with pytest.raises(InvalidSwitch):
            validate_path(A, B, [(2, 3, 2, 3), (1, 2, 1, 3)])
