"""Shared golden fixtures: small matrices with known structure."""

import itertools

import numpy as np
import pytest

from switchgraph import BinaryMatrix, Graph, binmat, graph, oracle, reach
from switchgraph.binmat import NEGATIVE, POSITIVE
from switchgraph.errors import InternalInvariantViolation

# 3x3 pair two positive switches apart (two distinct shortest paths).
PAIR_3X3_A = [[0, 0, 1], [1, 0, 0], [1, 1, 0]]
PAIR_3X3_B = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
PAIR_3X3_PATHS = (
    ((1, 2, 1, 3), (2, 3, 2, 3)),
    ((1, 3, 2, 3), (1, 2, 1, 2)),
)

# 4x4 pair whose decomposition grid is a ring with a hole: not reachable.
RING_A = [[0, 0, 0, 1], [1, 1, 0, 1], [1, 0, 1, 1], [1, 0, 0, 0]]
RING_B = [[1, 0, 0, 0], [1, 0, 1, 1], [1, 1, 0, 1], [0, 0, 0, 1]]
RING_T = [[1, 1, 1], [1, 0, 1], [1, 1, 1]]

# 4x4 block swap: reachable, needs at least four switches, and the grid
# has a steep peak (adjacent coefficients differ by more than 1).
BLOCK_A = [[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]]
BLOCK_B = [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]]
BLOCK_T = [[1, 2, 1], [2, 4, 2], [1, 2, 1]]

# 5x5 pair outside conditions ii and iii whose greedy descent dead-ends:
# the interval search must backtrack to reach B (reachable, BFS distance 4).
BACKTRACK_A = [
    [0, 1, 0, 0, 1],
    [0, 1, 1, 0, 1],
    [0, 1, 1, 1, 1],
    [1, 0, 0, 0, 0],
    [1, 1, 0, 1, 1],
]
BACKTRACK_B = [
    [1, 1, 0, 0, 0],
    [0, 1, 0, 1, 1],
    [1, 1, 1, 0, 1],
    [0, 0, 0, 0, 1],
    [0, 1, 1, 1, 1],
]

# 6x6 zebra menagerie: banded zebra (not split), horizontally split zebra,
# and their anti-zebra counterparts (complement of the vertical reflection).
ZEBRA_BANDED = [
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 1],
    [1, 0, 0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1],
]
ZEBRA_SPLIT_H = [
    [1, 1, 1, 1, 1, 0],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 1, 1, 1, 1],
]
ANTI_BANDED = [
    [1, 1, 0, 0, 0, 0],
    [0, 1, 1, 1, 0, 0],
    [0, 1, 1, 1, 1, 0],
    [0, 0, 1, 1, 1, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1],
]
ANTI_SPLIT_H = [
    [1, 1, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0],
    [1, 1, 1, 1, 1, 0],
    [0, 0, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 1],
]


@pytest.fixture
def pair_3x3():
    return BinaryMatrix(PAIR_3X3_A), BinaryMatrix(PAIR_3X3_B)


@pytest.fixture
def ring_pair():
    return BinaryMatrix(RING_A), BinaryMatrix(RING_B)


@pytest.fixture
def block_pair():
    return BinaryMatrix(BLOCK_A), BinaryMatrix(BLOCK_B)


def random_binary(rng: np.random.Generator, p: int, q: int, density=0.5) -> BinaryMatrix:
    return BinaryMatrix((rng.random((p, q)) < density).astype(int))


def row_col_sums(A: BinaryMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The margins (R, C) of ``A`` as plain integer tuples."""
    return tuple(A.row_sums.tolist()), tuple(A.col_sums.tolist())


def reflect_vertical(A: BinaryMatrix) -> BinaryMatrix:
    """``A`` with its row order reversed."""
    return BinaryMatrix(A.bits[::-1])


def apply_sym_switch(G: Graph, coord, direction: str) -> Graph:
    """``G`` with one symmetric switch applied by ``graph.sym_switch_inplace``."""
    adj = G.writable_bits()
    graph.sym_switch_inplace(adj, coord, direction)
    return Graph(adj)


def margin_space(max_p: int, max_q: int, max_entry: int):
    """Every margin pair (R, C) with p <= max_p, q <= max_q, entries <=
    max_entry and matching totals; an infeasible pair enumerates to the
    empty class."""
    for p in range(1, max_p + 1):
        for q in range(1, max_q + 1):
            rows_by_sum: dict[int, list[tuple[int, ...]]] = {}
            for R in itertools.product(range(min(max_entry, q) + 1), repeat=p):
                rows_by_sum.setdefault(sum(R), []).append(R)
            for C in itertools.product(range(min(max_entry, p) + 1), repeat=q):
                for R in rows_by_sum.get(sum(C), ()):
                    yield R, C


def graphical_sequences(n: int):
    """All non-increasing graphical degree sequences on n vertices."""
    for D in itertools.combinations_with_replacement(range(n - 1, -1, -1), n):
        if sum(D) % 2 == 0 and oracle.is_graphical(D):
            yield D


def member_index(stack: np.ndarray, bits) -> int:
    """Index of the member ``bits`` in an (N, p, q) class stack."""
    (index,) = np.flatnonzero((stack == np.asarray(bits)).all(axis=(1, 2)))
    return int(index)


def reference_sym_board_pair_counts(adj, sign):
    """Boards of one sign per row pair, by a blocked prefix-sum scan.

    ``counts[i, j]`` = boards (i, j, k, l) with k < l, for every row pair
    i < j (0 on and below the diagonal).  Independent of the matrix-product
    identity that ``graph.sym_board_pair_counts`` and
    ``graph.NegativeBoardTable`` read: for the pair i < j it scans the row
    difference a_i - a_j once, counting the pairs k < l with the sign's
    pattern through a cumulative sum.  Rows are taken in blocks of about
    2^20 / n^2, so its scratch is near 8 MB up to n = 1024.
    """
    a = np.asarray(adj, dtype=np.int8)
    n = a.shape[0]
    hi = 1 if sign == "positive" else -1
    every = np.arange(n)
    out = np.empty((n, n), dtype=np.int64)
    step = max(1, (1 << 20) // (n * n))
    for start in range(0, n, step):
        block = every[start : start + step]
        # d[t, b, k] = a[i, k] - a[j, k] for the pair i < j of {block[t], b},
        # zeroed at k in {i, j}
        d = a[block, None, :] - a
        d *= np.where(every < block[:, None], -1, 1).astype(np.int8)[:, :, None]
        d[np.arange(block.size)[:, None], every, block[:, None]] = 0
        d[:, every, every] = 0
        below = np.cumsum(d == hi, axis=2, dtype=np.int16 if n < 2**15 else np.int32)
        out[start : start + step] = (below * (d == -hi)).sum(axis=2, dtype=np.int64)
    return np.triu(out, k=1)


def reference_interval_search(A, A2, T, cap):
    """The T-interval search over ``Checkerboard`` objects.

    Same search as ``reach._interval_search``: depth first, boards in
    lexicographic order from ``binmat.find_checkerboards``, a board taken
    when its rectangle fits the remaining T and it leads to no dead state,
    ``Unknown`` past ``cap`` expanded states.  Returns ``(status, path)``.
    """
    if cap < 1:
        return reach.UNKNOWN, None
    stack = [[A, T, 0, None]]
    dead = set()
    expanded = 1
    while stack:
        frame = stack[-1]
        mat, t, start, _ = frame
        boards = binmat.find_checkerboards(mat, NEGATIVE)
        for pos in range(start, len(boards)):
            sw = boards[pos].coord
            if not (t[sw.i - 1 : sw.j - 1, sw.k - 1 : sw.l - 1] >= 1).all():
                continue
            nxt = binmat.apply_switch(mat, sw, POSITIVE)
            if nxt.key() not in dead:
                break
        else:
            dead.add(mat.key())
            stack.pop()
            continue
        frame[2] = pos + 1
        t_next = t.copy()
        t_next[sw.i - 1 : sw.j - 1, sw.k - 1 : sw.l - 1] -= 1
        if not t_next.any():
            if nxt != A2:
                raise InternalInvariantViolation("interval search emptied T off target")
            path = [f[3] for f in stack[1:]] + [sw]
            return (reach.REACHABLE_EXHAUSTIVE if dead else reach.REACHABLE_HEURISTIC), path
        if expanded >= cap:
            return reach.UNKNOWN, None
        expanded += 1
        stack.append([nxt, t_next, 0, sw])
    return reach.UNREACHABLE_EXHAUSTIVE, None
