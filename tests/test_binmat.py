import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchgraph import binmat
from switchgraph.binmat import (
    NEGATIVE,
    POSITIVE,
    BinaryMatrix,
    Switch,
    apply_switch,
    classify,
    complement,
    find_checkerboards,
    from_margins,
    potential,
    unitary_decomposition,
)
from switchgraph.errors import InfeasibleMargins, InvalidSwitch, MatrixFormatError
from switchgraph.graph import Graph

from conftest import (
    ANTI_BANDED,
    ANTI_SPLIT_H,
    RING_A,
    ZEBRA_BANDED,
    ZEBRA_SPLIT_H,
    random_binary,
    reflect_vertical,
    row_col_sums,
)


def brute_checkerboards(A, sign=None):
    """Independent oracle: test every 2x2 submatrix explicitly."""
    out = []
    b = A.bits
    p, q = b.shape
    for i, j in itertools.combinations(range(p), 2):
        for k, l in itertools.combinations(range(q), 2):
            sub = (int(b[i, k]), int(b[i, l]), int(b[j, k]), int(b[j, l]))
            if sub == (1, 0, 0, 1) and sign != NEGATIVE:
                out.append((Switch(i + 1, j + 1, k + 1, l + 1), POSITIVE))
            if sub == (0, 1, 1, 0) and sign != POSITIVE:
                out.append((Switch(i + 1, j + 1, k + 1, l + 1), NEGATIVE))
    return out


class TestBinaryMatrix:
    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            BinaryMatrix([[0, 2], [1, 0]])
        with pytest.raises(ValueError):
            BinaryMatrix([[0, -1], [1, 0]])
        with pytest.raises(ValueError):
            BinaryMatrix([[]])
        with pytest.raises(ValueError):
            BinaryMatrix([0, 1])

    def test_bits_are_read_only(self):
        A = BinaryMatrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            A.bits[0, 0] = 0

    def test_equality_and_hash(self):
        a = BinaryMatrix([[1, 0], [0, 1]])
        b = BinaryMatrix([[1, 0], [0, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != BinaryMatrix([[0, 1], [1, 0]])


class TestTextFormat:
    def test_exact_bytes(self):
        assert BinaryMatrix([[1, 0], [0, 1]]).to_text() == "2 2\n10\n01\n"

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 9), (9, 1), (3, 5), (17, 4), (40, 33)])
    def test_matches_per_bit_join(self, p, q):
        rng = np.random.default_rng(p * 100 + q)
        for A in (random_binary(rng, p, q), BinaryMatrix(np.zeros((p, q))),
                  BinaryMatrix(np.ones((p, q)))):
            lines = [f"{p} {q}"]
            lines.extend("".join(str(int(b)) for b in row) for row in A.bits)
            assert A.to_text() == "\n".join(lines) + "\n"

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_binary(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            assert BinaryMatrix.from_text(A.to_text()) == A

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "2\n10\n01\n",
            "2 2\n10\n0\n",
            "2 2\n10\n01\n11\n",
            "2 2\n10\n0x\n",
            "a b\n10\n01\n",
            "2 2\n10 \n01\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(MatrixFormatError):
            BinaryMatrix.from_text(text)

    def test_file_round_trip(self, tmp_path):
        A = BinaryMatrix(RING_A)
        path = tmp_path / "m.mat"
        binmat.write_matrix(A, path)
        assert binmat.read_matrix(path) == A

    @pytest.mark.parametrize(
        "data, message",
        [
            # the format is LF-terminated: no newline translation on read
            (b"2 2\r\n10\r\n01\r\n", r"bad row 1: '10\r'"),
            (b"2 2\n10\r\n01\n", r"bad row 1: '10\r'"),
            (b"2 2\r10\r01\r", "bad header line"),
            # a non-ASCII byte reads as U+FFFD, a bad cell of its row
            ("2 2\n10\n0\u00e9\n".encode("utf-8"), "bad row 2: '0\ufffd\ufffd'"),
            (b"2 2\n1\xff\n01\n", "bad row 1: '1\ufffd'"),
        ],
        ids=["crlf", "one-crlf-row", "lone-cr", "utf-8", "latin-1"],
    )
    def test_file_rejects_cr_and_non_ascii(self, tmp_path, data, message):
        path = tmp_path / "m.mat"
        path.write_bytes(data)
        with pytest.raises(MatrixFormatError) as info:
            binmat.read_matrix(path)
        assert str(info.value).startswith(message)


def from_text_per_row(text):
    """The per-row parser that ``BinaryMatrix.from_text`` replaced: one
    ``int`` per cell.  Returns the int8 array."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise MatrixFormatError("empty input")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise MatrixFormatError(f"bad header line {lines[0]!r}")
    try:
        p, q = int(header[0]), int(header[1])
    except ValueError as exc:
        raise MatrixFormatError(f"bad header line {lines[0]!r}") from exc
    if p < 1 or q < 1:
        raise MatrixFormatError(f"bad dimensions {p}x{q}")
    if len(lines) != p + 1:
        raise MatrixFormatError(f"expected {p} rows, found {len(lines) - 1}")
    arr = np.empty((p, q), dtype=np.int8)
    for r, line in enumerate(lines[1:]):
        if len(line) != q or set(line) - {"0", "1"}:
            raise MatrixFormatError(f"bad row {r + 1}: {line!r}")
        arr[r] = [int(ch) for ch in line]
    return arr


def parse_outcome(parse, text):
    try:
        return "ok", parse(text).tolist()
    except MatrixFormatError as exc:
        return "error", str(exc)


FROM_TEXT_CORPUS = [
    # header errors
    "", "\n", "\n\n", "2\n10\n01\n", "2 2 2\n10\n01\n", "a b\n10\n01\n",
    "2  2\n10\n01\n", " 2 2\n10\n01\n", "2 x\n10\n01\n", "0 2\n", "2 0\n\n\n",
    "-1 2\n", "2 -3\n10\n01\n",
    # row count
    "3 2\n10\n01\n", "2 2\n10\n01\n\n", "2 2\n10\n01\n11\n", "2 2\n10\n\n01\n", "1 1\n",
    # short and long rows, bad cells
    "2 2\n10\n0\n", "2 2\n1\n01\n", "2 2\n100\n01\n", "2 2\n10\n011\n",
    "2 3\n1\n0110\n", "2 3\n1x1\n01\n", "3 3\n101\n01\n2\n", "3 3\n101\n012\n11\n",
    "2 2\n10\n02\n", "2 2\n21\n01\n", "2 2\nx0\n01\n", "2 2\n10\n0x\n", "2 2\n10 \n01\n",
    "2 2\n1/\n01\n", "2 2\n1:\n01\n", "2 2\n10\n01", "1 3\n\t01\n",
    # CRLF endings: the header parses, the rows carry the carriage return
    "2 2\r\n10\r\n01\r\n", "2 2\n10\r\n01\n", "2 2\r\n10\n01\n",
    # non-ASCII cells
    "2 2\n1\u00e9\n01\n", "2 2\n10\n\u0661\u0660\n", "2 2\n10\n\U0001f600\n",
    "2 2\n\udcff0\n01\n", "\u0662 2\n10\n01\n",
    # valid
    "1 1\n0\n", "1 1\n1\n", "2 3\n101\n010\n", "3 1\n1\n0\n1", "+2 2\n10\n01\n",
]


class TestFromTextTwin:
    """``BinaryMatrix.from_text`` against the per-row reference parser."""

    @pytest.mark.parametrize("text", FROM_TEXT_CORPUS)
    def test_corpus(self, text):
        want = parse_outcome(from_text_per_row, text)
        assert parse_outcome(lambda t: BinaryMatrix.from_text(t).bits, text) == want

    def test_corpus_reaches_every_outcome(self):
        prefixes = ("empty input", "bad header line", "bad dimensions", "expected", "bad row")
        seen = {
            "ok" if kind == "ok" else next(pre for pre in prefixes if value.startswith(pre))
            for kind, value in (parse_outcome(from_text_per_row, t) for t in FROM_TEXT_CORPUS)
        }
        assert seen == {"ok", *prefixes}

    def test_random_valid(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            p, q = (int(x) for x in rng.integers(1, 30, size=2))
            text = random_binary(rng, p, q, float(rng.uniform(0, 1))).to_text()
            got = BinaryMatrix.from_text(text)
            assert got.bits.dtype == np.int8
            assert got.bits.tolist() == from_text_per_row(text).tolist()

    def test_random_corrupted(self):
        # one cell replaced, one row cut or grown, or the final newline dropped
        rng = np.random.default_rng(72)
        for _ in range(300):
            p, q = (int(x) for x in rng.integers(1, 8, size=2))
            lines = random_binary(rng, p, q).to_text().split("\n")
            r = int(rng.integers(1, p + 1))
            kind = int(rng.integers(4))
            if kind == 0:
                c = int(rng.integers(q))
                ch = "2x \r\u00e9/"[int(rng.integers(6))]
                lines[r] = lines[r][:c] + ch + lines[r][c + 1:]
            elif kind == 1:
                lines[r] = lines[r][: int(rng.integers(q))]
            elif kind == 2:
                lines[r] += "01"[int(rng.integers(2))]
            else:
                lines.pop()
            text = "\n".join(lines)
            want = parse_outcome(from_text_per_row, text)
            assert parse_outcome(lambda t: BinaryMatrix.from_text(t).bits, text) == want

    def test_graph_checks_still_run(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph.from_text("2 2\n01\n00\n")
        with pytest.raises(ValueError, match="diagonal"):
            Graph.from_text("2 2\n11\n10\n")
        assert Graph.from_text("2 2\n01\n10\n").m == 1


class TestCheckerboards:
    def test_identity_single_positive(self):
        found = find_checkerboards(BinaryMatrix([[1, 0], [0, 1]]))
        assert [(tuple(c.coord), c.sign) for c in found] == [((1, 2, 1, 2), POSITIVE)]

    def test_ring_matrix_single_negative(self):
        found = find_checkerboards(BinaryMatrix(RING_A), NEGATIVE)
        assert [tuple(c.coord) for c in found] == [(1, 4, 1, 4)]

    def test_identity3_three_positive(self):
        found = find_checkerboards(BinaryMatrix(np.eye(3, dtype=int)), POSITIVE)
        assert [tuple(c.coord) for c in found] == [
            (1, 2, 1, 2),
            (1, 3, 1, 3),
            (2, 3, 2, 3),
        ]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            A = random_binary(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            got = [(c.coord, c.sign) for c in find_checkerboards(A)]
            assert got == sorted(brute_checkerboards(A))

    def test_lexicographic_order(self):
        rng = np.random.default_rng(12)
        A = random_binary(rng, 6, 6)
        coords = [c.coord for c in find_checkerboards(A)]
        assert coords == sorted(coords)

    @pytest.mark.parametrize("sign", [None, NEGATIVE])
    def test_coordinates_are_plain_ints(self, sign):
        boards = find_checkerboards(BinaryMatrix(RING_A), sign)
        assert boards
        for cb in boards:
            assert all(type(x) is int for x in cb.coord)
        json.dumps([list(cb.coord) for cb in boards])


def board_coords_brute(bits, sign):
    return [list(sw) for sw, _ in brute_checkerboards(BinaryMatrix(bits), sign)]


class TestBoardCoords:
    def test_every_small_matrix(self):
        for p, q in itertools.product(range(1, 5), range(1, 5)):
            if p * q > 12:
                continue
            for flat in itertools.product((0, 1), repeat=p * q):
                bits = np.array(flat, dtype=np.int8).reshape(p, q)
                for sign in (POSITIVE, NEGATIVE):
                    got = binmat.board_coords(bits, sign)
                    assert got.shape[1] == 4
                    assert got.tolist() == board_coords_brute(bits, sign)

    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            p, q = (int(x) for x in rng.integers(1, 10, size=2))
            bits = random_binary(rng, p, q, float(rng.uniform(0.1, 0.9))).bits
            for sign in (POSITIVE, NEGATIVE):
                assert binmat.board_coords(bits, sign).tolist() == board_coords_brute(bits, sign)

    @pytest.mark.parametrize("rows_per_block", [1, 4])
    def test_row_blocks(self, monkeypatch, rows_per_block):
        # 1: every block holds one row; 4: the 9 rows split into 4 + 4 + 1
        rng = np.random.default_rng(43)
        p, q = 9, 7
        monkeypatch.setattr(binmat, "_BLOCK_CELLS", rows_per_block * p * q * q)
        for _ in range(10):
            bits = random_binary(rng, p, q).bits
            for sign in (POSITIVE, NEGATIVE):
                assert binmat.board_coords(bits, sign).tolist() == board_coords_brute(bits, sign)

    def test_unknown_sign(self):
        with pytest.raises(ValueError):
            binmat.board_coords(np.eye(2, dtype=np.int8), "neutral")

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (2, 0, 3), (2, 3, 0), (0, 0, 0)])
    def test_no_cells_no_boards(self, shape):
        for sign in (POSITIVE, NEGATIVE):
            got = binmat.board_coords(np.zeros(shape, dtype=np.int8), sign)
            assert got.shape == (0, len(shape) + 2)

    @pytest.mark.parametrize("pairs_per_block", [None, 1, 3, 7, 14])
    def test_stack_matches_each_member(self, monkeypatch, pairs_per_block):
        # blocks of 1 or 3 (member, row) pairs split each 5-row member, 7
        # hold one member and 14 two; None is the default
        rng = np.random.default_rng(47)
        p, q = 5, 4
        if pairs_per_block is not None:
            monkeypatch.setattr(binmat, "_BLOCK_CELLS", pairs_per_block * p * q * q)
        stack = np.stack([random_binary(rng, p, q, float(rng.uniform(0.2, 0.8))).bits
                          for _ in range(9)])
        for sign in (POSITIVE, NEGATIVE):
            want = [[m, *coord] for m, bits in enumerate(stack)
                    for coord in board_coords_brute(bits, sign)]
            got = binmat.board_coords(stack, sign)
            assert got.shape == (len(want), 5)
            assert got.tolist() == want

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 5), (5, 1), (2, 2), (3, 3), (4, 6)])
    def test_stack_shapes(self, p, q):
        rng = np.random.default_rng(53)
        for size in (0, 1, 4):
            stack = (rng.random((size, p, q)) < 0.5).astype(np.int8)
            for sign in (POSITIVE, NEGATIVE):
                want = [[m, *c] for m, bits in enumerate(stack) for c in board_coords_brute(bits, sign)]
                got = binmat.board_coords(stack, sign)
                assert got.shape == (len(want), 5) and got.tolist() == want


class TestApplySwitch:
    def test_positive_on_negative_board(self):
        A = BinaryMatrix([[0, 1], [1, 0]])
        assert apply_switch(A, (1, 2, 1, 2), POSITIVE) == BinaryMatrix([[1, 0], [0, 1]])

    def test_known_intermediate(self):
        A = BinaryMatrix([[0, 0, 1], [1, 0, 0], [1, 1, 0]])
        out = apply_switch(A, (1, 2, 1, 3), POSITIVE)
        assert out == BinaryMatrix([[1, 0, 0], [0, 0, 1], [1, 1, 0]])

    def test_involution(self):
        rng = np.random.default_rng(5)
        done = 0
        while done < 10:
            A = random_binary(rng, 5, 5)
            boards = find_checkerboards(A, NEGATIVE)
            if not boards:
                continue
            done += 1
            sw = boards[0].coord
            back = apply_switch(apply_switch(A, sw, POSITIVE), sw, NEGATIVE)
            assert back == A

    def test_invalid_switch_raises(self):
        A = BinaryMatrix([[1, 0], [0, 1]])
        with pytest.raises(InvalidSwitch):
            apply_switch(A, (1, 2, 1, 2), POSITIVE)
        with pytest.raises(InvalidSwitch):
            apply_switch(A, (2, 1, 1, 2), NEGATIVE)
        with pytest.raises(InvalidSwitch):
            apply_switch(A, (1, 2, 1, 5), NEGATIVE)

    def test_as_switch_keeps_a_switch(self):
        sw = Switch(1, 3, 2, 4)
        assert binmat.as_switch(sw) is sw
        assert binmat.as_switch([1, 3, 2, 4]) == sw
        assert binmat.as_switch(np.array([1, 3, 2, 4])) == sw
        for bad in (Switch(2, 1, 1, 2), Switch(1, 2, 2, 2), Switch(0, 1, 1, 2)):
            with pytest.raises(InvalidSwitch, match="malformed switch coordinates"):
                binmat.as_switch(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**30 - 1))
    def test_margins_invariant(self, seed):
        rng = np.random.default_rng(seed)
        A = random_binary(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        boards = find_checkerboards(A)
        if not boards:
            return
        pick = boards[int(rng.integers(len(boards)))]
        direction = NEGATIVE if pick.sign == POSITIVE else POSITIVE
        out = apply_switch(A, pick.coord, direction)
        assert row_col_sums(out) == row_col_sums(A)


def switch_bits_ix(bits, coord, direction):
    """The ``np.ix_`` gather-and-write that ``switch_bits_inplace``
    replaced, as the reference."""
    sw = binmat.as_switch(coord)
    p, q = bits.shape
    if sw.j > p or sw.l > q:
        raise InvalidSwitch(f"switch {tuple(sw)} out of range for {p}x{q} matrix")
    rows = (sw.i - 1, sw.j - 1)
    cols = (sw.k - 1, sw.l - 1)
    if direction not in (POSITIVE, NEGATIVE):
        raise ValueError(f"unknown direction {direction!r}")
    sub = bits[np.ix_(rows, cols)]
    want = np.array([[0, 1], [1, 0]] if direction == POSITIVE else [[1, 0], [0, 1]])
    if not (sub == want).all():
        raise InvalidSwitch(
            f"no {'negative' if direction == POSITIVE else 'positive'} "
            f"checkerboard at {tuple(sw)}"
        )
    bits[np.ix_(rows, cols)] = 1 - sub


def switch_outcome(switch, bits, coord, direction):
    bits = bits.copy()
    try:
        switch(bits, coord, direction)
    except (InvalidSwitch, ValueError) as exc:
        return type(exc).__name__, str(exc), bits.tolist()
    return "ok", "", bits.tolist()


class TestSwitchBitsTwin:
    """``switch_bits_inplace`` (four scalar reads and writes) against the
    ``np.ix_`` reference: same results, same errors, same messages."""

    @pytest.mark.parametrize("direction", [POSITIVE, NEGATIVE, "sideways"])
    def test_every_2x2_pattern(self, direction):
        # the four corners of a 3x4 matrix's (1, 3, 2, 4) rectangle take every
        # pattern; the other cells are random
        rng = np.random.default_rng(73)
        for corners in itertools.product((0, 1), repeat=4):
            bits = (rng.random((3, 4)) < 0.5).astype(np.int8)
            bits[0, 1], bits[0, 3], bits[2, 1], bits[2, 3] = corners
            for coord in ((1, 3, 2, 4), Switch(1, 3, 2, 4)):
                want = switch_outcome(switch_bits_ix, bits, coord, direction)
                got = switch_outcome(binmat.switch_bits_inplace, bits, coord, direction)
                assert got == want
            # corners (i, k), (i, l), (j, k), (j, l): a positive switch needs 0 1 1 0
            needed = {POSITIVE: (0, 1, 1, 0), NEGATIVE: (1, 0, 0, 1)}.get(direction)
            assert (want[0] == "ok") == (corners == needed)

    @pytest.mark.parametrize("coord", [
        (1, 4, 1, 2), (1, 2, 1, 5), (3, 4, 4, 5), (1, 3, 1, 4), (2, 1, 1, 2),
        (1, 2, 2, 2), (0, 1, 1, 2), (1, 2, 0, 3), (-1, 2, 1, 2),
    ])
    @pytest.mark.parametrize("direction", [POSITIVE, NEGATIVE, "sideways"])
    def test_out_of_range_and_malformed(self, coord, direction):
        bits = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.int8)
        want = switch_outcome(switch_bits_ix, bits, coord, direction)
        assert switch_outcome(binmat.switch_bits_inplace, bits, coord, direction) == want

    def test_random_matrices(self):
        rng = np.random.default_rng(74)
        for _ in range(300):
            p, q = (int(x) for x in rng.integers(2, 7, size=2))
            bits = random_binary(rng, p, q).writable_bits()
            i, j = sorted(int(x) for x in rng.choice(np.arange(1, p + 1), 2, replace=False))
            k, l = sorted(int(x) for x in rng.choice(np.arange(1, q + 1), 2, replace=False))
            direction = (POSITIVE, NEGATIVE)[int(rng.integers(2))]
            want = switch_outcome(switch_bits_ix, bits, (i, j, k, l), direction)
            assert switch_outcome(binmat.switch_bits_inplace, bits, (i, j, k, l), direction) == want


class TestUnitaryDecomposition:
    def test_unitary_is_itself(self):
        assert unitary_decomposition((1, 2, 1, 2)) == [Switch(1, 2, 1, 2)]

    def test_two_tiles(self):
        assert unitary_decomposition((1, 3, 2, 3)) == [
            Switch(1, 2, 2, 3),
            Switch(2, 3, 2, 3),
        ]

    def test_nine_tiles(self):
        tiles = unitary_decomposition((1, 4, 1, 4))
        assert len(tiles) == 9

    def test_tiles_sum_to_switching_matrix(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            i, j = sorted(rng.choice(6, size=2, replace=False) + 1)
            k, l = sorted(rng.choice(6, size=2, replace=False) + 1)
            coord = (int(i), int(j), int(k), int(l))
            total = sum(
                binmat.switching_matrix(u, 6, 6) for u in unitary_decomposition(coord)
            )
            assert (total == binmat.switching_matrix(coord, 6, 6)).all()


class TestPotential:
    def test_values(self):
        assert potential(BinaryMatrix([[0, 1], [1, 0]])) == 4
        assert potential(BinaryMatrix([[1, 0], [0, 1]])) == 5

    def test_switch_increment_law(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 40:
            A = random_binary(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            boards = find_checkerboards(A, NEGATIVE)
            if not boards:
                continue
            checked += 1
            sw = boards[int(rng.integers(len(boards)))].coord
            out = apply_switch(A, sw, POSITIVE)
            assert potential(out) - potential(A) == (sw.j - sw.i) * (sw.l - sw.k) > 0


    def test_potentials_of_a_stack(self):
        rng = np.random.default_rng(9)
        for p, q in ((1, 1), (1, 4), (4, 1), (3, 5)):
            stack = (rng.random((6, p, q)) < 0.5).astype(np.int8)
            got = binmat.potentials(stack)
            assert got.tolist() == [potential(BinaryMatrix(bits)) for bits in stack]
            assert binmat.potentials(stack.reshape(2, 3, p, q)).tolist() == (
                got.reshape(2, 3).tolist())


class TestComplementReflect:
    def test_complement(self):
        assert complement(BinaryMatrix([[1, 0], [0, 1]])) == BinaryMatrix([[0, 1], [1, 0]])

    def test_complement_swaps_signs_in_place(self):
        rng = np.random.default_rng(9)
        A = random_binary(rng, 5, 6)
        flipped = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}
        original = {(tuple(c.coord), c.sign) for c in find_checkerboards(A)}
        comp = {
            (tuple(c.coord), flipped[c.sign]) for c in find_checkerboards(complement(A))
        }
        assert original == comp

    def test_reflection_flips_signs_at_mapped_coords(self):
        rng = np.random.default_rng(10)
        A = random_binary(rng, 5, 4)
        p = A.p
        original = {(tuple(c.coord), c.sign) for c in find_checkerboards(A)}
        flipped = {POSITIVE: NEGATIVE, NEGATIVE: POSITIVE}
        mapped = set()
        for c in find_checkerboards(reflect_vertical(A)):
            i, j, k, l = c.coord
            mapped.add(((p + 1 - j, p + 1 - i, k, l), flipped[c.sign]))
        assert original == mapped


class TestClassify:
    @pytest.mark.parametrize("shape", [(0, 0, 0), (0, 2, 3), (2, 0, 3), (2, 3, 0)])
    def test_class_flags_without_cells(self, shape):
        # an empty stack, and members with no rows or no columns: every
        # member is vacuously nested, anti-nested and split
        flags = binmat.class_flags(np.zeros(shape, dtype=np.int8))
        for name, flag in flags.items():
            assert flag.shape == shape[:1] and flag.all(), name

    def test_banded_zebra_not_split(self):
        flags = classify(BinaryMatrix(ZEBRA_BANDED))
        assert flags["zebra"]
        assert not flags["zebra_split_h"] and not flags["zebra_split_v"]

    def test_split_zebra_horizontal(self):
        flags = classify(BinaryMatrix(ZEBRA_SPLIT_H))
        assert flags["zebra"] and flags["zebra_split_h"]
        assert not flags["zebra_split_v"]

    def test_banded_anti_zebra_not_split(self):
        flags = classify(BinaryMatrix(ANTI_BANDED))
        assert flags["anti_zebra"]
        assert not flags["anti_zebra_split_h"] and not flags["anti_zebra_split_v"]

    def test_split_anti_zebra_horizontal(self):
        flags = classify(BinaryMatrix(ANTI_SPLIT_H))
        assert flags["anti_zebra"] and flags["anti_zebra_split_h"]

    def test_anti_pair_is_transformed_zebra_pair(self):
        # the anti matrices are exactly complement-of-vertical-reflection
        for zeb, anti in ((ZEBRA_BANDED, ANTI_BANDED), (ZEBRA_SPLIT_H, ANTI_SPLIT_H)):
            transformed = complement(reflect_vertical(BinaryMatrix(zeb)))
            assert transformed == BinaryMatrix(anti)

    def test_nested_is_split_zebra(self):
        flags = classify(BinaryMatrix([[1, 1, 0], [1, 0, 0], [0, 0, 0]]))
        assert flags["nested"] and flags["zebra"]
        assert flags["zebra_split_h"] or flags["zebra_split_v"]

    def test_identity_is_split_zebra(self):
        flags = classify(BinaryMatrix([[1, 0], [0, 1]]))
        assert not flags["nested"]
        assert flags["zebra_split_h"] and flags["zebra_split_v"]

    def test_degenerate_split_flag(self):
        # all-ones: the anti-nested part of any split is empty
        flags = classify(BinaryMatrix([[1, 1], [1, 1]]))
        assert flags["zebra_split_h"] or flags["zebra_split_v"]
        assert flags["degenerate_split"]

    def test_complement_of_split_flag(self):
        comp = complement(BinaryMatrix(ZEBRA_SPLIT_H))
        assert classify(comp)["complement_of_split"]

    def test_none_flag(self):
        flags = classify(BinaryMatrix(RING_A))
        assert flags["none"]

    def test_zebra_parts_when_zebra(self):
        for mat in (ZEBRA_BANDED, ZEBRA_SPLIT_H, [[1, 0], [0, 1]]):
            A = BinaryMatrix(mat)
            parts = binmat.zebra_parts(A)
            assert parts is not None
            nested_part, anti_part = parts
            assert binmat.is_nested(nested_part)
            assert binmat.is_anti_nested(anti_part)
            assert ((nested_part + anti_part) == A.bits).all()
            assert not (nested_part & anti_part).any()

    def test_nested_iff_no_checkerboards_for_sorted_margins(self):
        # exhaustively over 4x3 matrices with non-increasing margins
        for bits in itertools.product([0, 1], repeat=12):
            arr = np.array(bits, dtype=int).reshape(4, 3)
            A = BinaryMatrix(arr)
            R, C = row_col_sums(A)
            if list(R) != sorted(R, reverse=True) or list(C) != sorted(C, reverse=True):
                continue
            assert binmat.is_nested(A.bits) == (not find_checkerboards(A))


def ref_nested(b):
    """1s precede 0s in every row and every column."""
    return bool((b[1:] <= b[:-1]).all() and (b[:, 1:] <= b[:, :-1]).all())


def ref_anti_nested(b):
    """0s precede 1s in every row and every column."""
    return bool((b[1:] >= b[:-1]).all() and (b[:, 1:] >= b[:, :-1]).all())


def ref_h_split_positions(b):
    """Every row cut h with rows [0, h) nested and rows [h, p) anti-nested."""
    return [h for h in range(b.shape[0] + 1) if ref_nested(b[:h]) and ref_anti_nested(b[h:])]


def ref_v_split_positions(b):
    """Every column cut v with the left block nested and the right anti-nested."""
    return [
        v for v in range(b.shape[1] + 1) if ref_nested(b[:, :v]) and ref_anti_nested(b[:, v:])
    ]


def ref_zebra(b):
    """Staircase enumeration: does some nested N <= A leave A - N anti-nested?

    N runs over every staircase (non-increasing row lengths) inside the 1s
    of A; a branch stops once the rows chosen so far are not anti-nested,
    since no later row can repair that.
    """
    b = np.asarray(b, dtype=int)
    p, q = b.shape
    rest = b.copy()

    def rec(i, cap):
        if i == p:
            return True
        for n in range(cap, -1, -1):
            if not b[i, :n].all():
                continue
            rest[i] = b[i]
            rest[i, :n] = 0
            if ref_anti_nested(rest[: i + 1]) and rec(i + 1, n):
                return True
        return False

    return rec(0, q)


def ref_split_family(b):
    """(split_h, split_v, degenerate) from the explicit cut lists."""
    h_cuts = ref_h_split_positions(b)
    v_cuts = ref_v_split_positions(b)
    nontrivial = any(b[:h].any() and b[h:].any() for h in h_cuts) or any(
        b[:, :v].any() and b[:, v:].any() for v in v_cuts
    )
    return bool(h_cuts), bool(v_cuts), bool(h_cuts or v_cuts) and not nontrivial


def ref_flags(bits):
    """Every flag of :func:`classify`, from the reference scans above."""
    b = np.asarray(bits, dtype=int)
    anti_b = 1 - b[::-1]
    sh, sv, degen_z = ref_split_family(b)
    ash, asv, degen_a = ref_split_family(anti_b)
    comp = ref_split_family(1 - b)[:2] + ref_split_family(b[::-1])[:2]
    flags = {
        "nested": ref_nested(b),
        "anti_nested": ref_anti_nested(b),
        "zebra": ref_zebra(b),
        "zebra_split_h": sh,
        "zebra_split_v": sv,
        "anti_zebra": ref_zebra(anti_b),
        "anti_zebra_split_h": ash,
        "anti_zebra_split_v": asv,
        "complement_of_split": any(comp),
        "degenerate_split": degen_z or degen_a,
    }
    flags["none"] = not any(
        flags[k] for k in ("nested", "anti_nested", "zebra", "anti_zebra", "complement_of_split")
    )
    return flags


def random_zebra(rng, p, q):
    """A disjoint sum of a random staircase and a random anti-staircase."""
    n = np.sort(rng.integers(0, q + 1, p))[::-1]
    a = np.minimum(np.sort(rng.integers(0, q + 1, p)), q - n)
    cols = np.arange(q)
    return ((cols < n[:, None]) | (cols >= q - a[:, None])).astype(int)


def assert_matches_reference(bits):
    """Compare every flag and the zebra decomposition; return the flags."""
    A = BinaryMatrix(bits)
    want = ref_flags(A.bits)
    assert classify(A) == want, A
    parts = binmat.zebra_parts(A)
    assert (parts is not None) == want["zebra"], A
    if parts is not None:
        nested_part, anti_part = parts
        assert ref_nested(nested_part) and ref_anti_nested(anti_part), A
        assert ((nested_part + anti_part) == A.bits).all(), A
        assert not (nested_part & anti_part).any(), A
    return want


def all_matrices(p, q):
    for bits in itertools.product([0, 1], repeat=p * q):
        yield np.array(bits, dtype=int).reshape(p, q)


class TestClassifyReference:
    """``classify`` and ``zebra_parts`` against explicit cut lists and
    staircase enumeration."""

    def test_exhaustive_up_to_3x3(self):
        for p, q in itertools.product(range(1, 4), repeat=2):
            for bits in all_matrices(p, q):
                assert_matches_reference(bits)

    def test_exhaustive_4_by_3_and_3_by_4(self):
        for p, q in ((1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3)):
            for bits in all_matrices(p, q):
                assert_matches_reference(bits)

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 4) for q in range(1, 4)]
                             + [(1, 6), (6, 1)])
    def test_class_flags_of_a_stack(self, p, q):
        # every p x q matrix in one stack, then each one alone
        stack = np.array(list(all_matrices(p, q)), dtype=np.int8)
        flags = binmat.class_flags(stack)
        for m, bits in enumerate(stack):
            want = classify(BinaryMatrix(bits))
            del want["none"]
            assert {name: bool(flag[m]) for name, flag in flags.items()} == want, bits
            assert want == {k: v for k, v in ref_flags(bits).items() if k != "none"}, bits
            single = binmat.class_flags(bits[None])
            assert {name: bool(flag[0]) for name, flag in single.items()} == want, bits

    def test_seeded_sample_up_to_8x8(self):
        rng = np.random.default_rng(2024)
        seen = {"zebra": 0, "anti_zebra": 0}
        for t in range(2000):
            p, q = (int(x) for x in rng.integers(1, 9, 2))
            if t % 2 == 0:
                bits = (rng.random((p, q)) < rng.uniform(0.1, 0.9)).astype(int)
            else:
                bits = random_zebra(rng, p, q)
                if t % 4 == 3:
                    bits = 1 - bits[::-1]
            flags = assert_matches_reference(bits)
            seen["zebra"] += flags["zebra"]
            seen["anti_zebra"] += flags["anti_zebra"]
        assert min(seen.values()) >= 500


# Forbidden-pattern scans: zebra geometry checks


def strip_full_lines(bits):
    """Drop all-ones rows and columns until none remain."""
    out = bits
    while out.size:
        full_rows = out.all(axis=1)
        full_cols = out.all(axis=0)
        if not full_rows.any() and not full_cols.any():
            break
        out = out[~full_rows][:, ~full_cols]
    return out


def strip_empty_lines(bits):
    """Drop all-zero rows and columns until none remain."""
    out = bits
    while out.size:
        empty_rows = ~out.any(axis=1)
        empty_cols = ~out.any(axis=0)
        if not empty_rows.any() and not empty_cols.any():
            break
        out = out[~empty_rows][:, ~empty_cols]
    return out


def has_zebra_forbidden_pattern(A):
    """Scan for [[0,1],[*,0]] or [[0,*],[1,0]] after removing full lines.

    Zebras never contain these submatrices (one direction of the geometric
    characterisation; the converse is not assumed anywhere).
    """
    b = strip_full_lines(A.bits)
    p, q = b.shape
    for i, j in itertools.combinations(range(p), 2):
        for k, l in itertools.combinations(range(q), 2):
            if b[i, k] == 0 and b[i, l] == 1 and b[j, l] == 0:
                return True
            if b[i, k] == 0 and b[j, k] == 1 and b[j, l] == 0:
                return True
    return False


def has_anti_zebra_forbidden_pattern(A):
    """Scan for [[*,1],[1,0]] or [[0,1],[1,*]] after removing empty lines."""
    b = strip_empty_lines(A.bits)
    p, q = b.shape
    for i, j in itertools.combinations(range(p), 2):
        for k, l in itertools.combinations(range(q), 2):
            if b[i, l] == 1 and b[j, k] == 1 and b[j, l] == 0:
                return True
            if b[i, k] == 0 and b[i, l] == 1 and b[j, k] == 1:
                return True
    return False


def row_has_pattern(bits, pattern):
    """True if some row contains ``pattern`` as a (scattered) subsequence."""
    for row in bits:
        idx = 0
        for value in row:
            if value == pattern[idx]:
                idx += 1
                if idx == len(pattern):
                    break
        if idx == len(pattern):
            return True
    return False


def col_has_pattern(bits, pattern):
    return row_has_pattern(bits.T, pattern)


class TestForbiddenPatterns:
    def test_zebras_lack_forbidden_patterns(self):
        # one direction of the geometric characterisation, exhaustively small
        for bits in itertools.product([0, 1], repeat=12):
            A = BinaryMatrix(np.array(bits, dtype=int).reshape(3, 4))
            if classify(A)["zebra"]:
                assert not has_zebra_forbidden_pattern(A)

    def test_anti_zebras_lack_their_patterns(self):
        for bits in itertools.product([0, 1], repeat=12):
            A = BinaryMatrix(np.array(bits, dtype=int).reshape(4, 3))
            if classify(A)["anti_zebra"]:
                assert not has_anti_zebra_forbidden_pattern(A)

    def test_h_split_zebra_vector_patterns(self):
        # horizontally split zebras: no 1,0,1 row, no 0,1,0 row, no 0,1,0 column
        seen = 0
        for bits in itertools.product([0, 1], repeat=12):
            A = BinaryMatrix(np.array(bits, dtype=int).reshape(3, 4))
            if not classify(A)["zebra_split_h"]:
                continue
            seen += 1
            assert not row_has_pattern(A.bits, (1, 0, 1))
            assert not row_has_pattern(A.bits, (0, 1, 0))
            assert not col_has_pattern(A.bits, (0, 1, 0))
        assert seen > 0

    def test_checkerboards_are_forbidden(self):
        A = BinaryMatrix([[0, 1], [1, 0]])
        assert has_zebra_forbidden_pattern(A)


class TestFromMargins:
    def test_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A = random_binary(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            R, C = row_col_sums(A)
            B = from_margins(R, C)
            assert row_col_sums(B) == (R, C)

    def test_infeasible(self):
        with pytest.raises(InfeasibleMargins):
            from_margins((2, 2), (1, 1))
        with pytest.raises(InfeasibleMargins):
            from_margins((3,), (1, 1))
        with pytest.raises(InfeasibleMargins):
            from_margins((2, 0), (2, 0, 0))
