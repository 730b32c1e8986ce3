"""Text netlist format: emission, parsing, strictness of the parser."""

import io
import random
import tracemalloc
from functools import partial

import pytest

from gf2synth import circuits
from gf2synth.circuits import (
    Circuit,
    emit,
    emit_lines,
    flat_gates,
    gate_runs,
    measure_stream,
    parse,
    read_netlist,
)
from gf2synth.cli import main
from gf2synth.errors import PARSE_MESSAGE_LIMIT, ParseError


def random_circuit(seed, width=9, n=120):
    rng = random.Random(seed)
    gates = []
    for _ in range(n):
        a, b, t = rng.sample(range(width), 3)
        gates.append((a, b, t) if rng.random() < 0.5 else (a, t))
    return Circuit(width, tuple(gates), {"in": (0, 4), "out": (4, 4)})


def read_file(path, monkeypatch, read_size=3):
    """A Circuit over ``read_netlist`` on a file, drawn a few characters per
    read so that lines straddle reads; "\r" is left for the reader to see."""
    monkeypatch.setattr(circuits, "READ_SIZE", read_size)
    with open(path, newline="") as fh:
        netlist = read_netlist(fh)
        return Circuit(netlist.width, netlist.gates, netlist.registers)


def test_emit_shape():
    c = Circuit(3, ((0, 1), (0, 1, 2)), {"x": (0, 2)})
    text = emit(c)
    assert text.splitlines() == [
        "qubits 3",
        "reg x 0 2",
        "cx 0 1",
        "ccx 0 1 2",
    ]


def test_emit_header_comments():
    c = Circuit(2, ((0, 1),))
    lines = list(emit_lines(c.width, c.registers, c.gates, ["hello", "", "bye"]))
    assert lines[:3] == ["# hello", "#", "# bye"]
    assert parse("\n".join(lines)) == c


def test_roundtrip_random():
    for seed in range(5):
        c = random_circuit(seed)
        assert parse(emit(c)) == c


def test_parse_tolerates_comments_blanks_whitespace():
    text = "\n".join(
        [
            "# produced by hand",
            "",
            "  qubits 4",
            "reg a 0 2   # trailing comment",
            "",
            "cx 0 1",
            "  ccx 1 2 3  ",
            "# done",
        ]
    )
    c = parse(text)
    assert c.width == 4
    assert c.registers == {"a": (0, 2)}
    assert c.gates == ((0, 1), (1, 2, 3))


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_parse_comment_holding_a_line_separator_adds_no_gate(sep):
    # only "\n" ends a line, so the rest of the comment stays a comment
    assert parse(f"qubits 3\n# note{sep}cx 0 1\n").gates == ()


def test_parse_reads_crlf_lines():
    c = random_circuit(7)
    assert parse(emit(c).replace("\n", "\r\n")) == c


@pytest.mark.parametrize(
    "n,text_of",
    [
        (120, lambda c: emit(c).replace("\n", "\r\n")),
        (120, lambda c: emit(c)[:-1]),
        (0, emit),
    ],
    ids=["crlf", "no-final-newline", "header-only"],
)
def test_roundtrip_through_file(n, text_of, tmp_path, monkeypatch):
    c = random_circuit(3, n=n)
    path = tmp_path / "c.qc"
    path.write_bytes(text_of(c).encode())
    assert parse(text_of(c)) == c
    assert read_file(path, monkeypatch) == c


class ReadOnlyFile:
    """A file with nothing but ``read(n)``, counting what it hands out."""

    def __init__(self, text):
        self._text = io.StringIO(text)
        self.given = 0

    def read(self, n):
        data = self._text.read(n)
        self.given += len(data)
        return data


def test_read_netlist_streams_a_file(monkeypatch):
    monkeypatch.setattr(circuits, "READ_SIZE", 64)
    c = random_circuit(4, n=3000)
    fh = ReadOnlyFile(emit(c))
    netlist = read_netlist(fh)
    assert (netlist.width, netlist.registers) == (c.width, c.registers)
    assert fh.given == 64  # the header came from the first read; the gates are still unread
    gates = netlist.gates
    assert [next(gates) for _ in range(3)] == list(c.gates[:3])
    assert fh.given == 64
    assert (*c.gates[:3], *gates) == c.gates
    assert fh.given == len(emit(c))


def read_outcome(text, monkeypatch, read_size, per_line=False):
    """What ``read_netlist`` gives for a text read ``read_size`` characters
    at a time: the header and the flat gates, or the ParseError's message and
    line. ``per_line`` sends every piece of the file through the line
    reader, the path the batched reader must agree with."""
    monkeypatch.setattr(circuits, "READ_SIZE", read_size)
    if per_line:
        monkeypatch.setattr(circuits, "_strict_batches", lambda chunk, width: None)
    try:
        netlist = read_netlist(ReadOnlyFile(text))
        return netlist.width, netlist.registers, list(netlist.gates)
    except ParseError as e:
        return str(e), e.line
    finally:
        monkeypatch.undo()


CLEAN = emit(random_circuit(8, n=400))
# wires of one to three digits, so the digit count varies from token to token
WIDE = emit(random_circuit(8, width=1000, n=400))
# CNOTs only, so that every piece holds one gate kind
CNOTS = emit(Circuit(9, tuple((i % 8, 8) for i in range(400))))


def _with_line(line, at=200, base=CLEAN):
    """``base`` with its line ``at`` (a gate line inside a clean block) replaced."""
    lines = base.split("\n")
    lines[at] = line
    return "\n".join(lines)


@pytest.mark.parametrize(
    "text",
    [
        CLEAN,
        _with_line("ccx 007 1 2"),
        _with_line("cx +5 3"),
        _with_line("ccx\t1 2 3"),
        CLEAN.replace("\n", "\r\n"),
        _with_line("cx 0 1  # trailing comment"),
        _with_line("cx 0 1\n\n\nccx 1 2 3"),
        _with_line("ccx 5 2 7"),
        _with_line("cx 3 3"),
        _with_line("cx 0 9"),  # the wire equal to the width
        _with_line("ccx 9 1 2"),
        CLEAN[:-1],  # no final newline
        _with_line("cx 3 3") + "foo\n",
        _with_line("ccx 1 2 3") + "cx 0 1",
        _with_line("cx 0 " + "1" * 5000),  # past int()'s default digit limit
        _with_line("cx \u0661 2"),  # a Unicode digit, which int() reads
        _with_line("cx 1_0 2"),  # an underscore, which int() reads
        WIDE,
        _with_line("cx 0 1000", base=WIDE),
        _with_line("ccx 999 1000 5", base=WIDE),
        _with_line("ccx 10 9 999", base=WIDE),
        _with_line("cx 0100 99", base=WIDE),
        _with_line("cx \u0661\u0660 2", base=WIDE),
        _with_line("ccx -1 2 3"),
        _with_line("cx -1 2"),
        _with_line("cx -5 99", base=WIDE),
        _with_line("ccx 1 2\n3 ccx 4 5 6"),
        _with_line("ccx 1 2 3 ccx\n4 5 6"),
        _with_line("ccx1 2 3"),
        _with_line("cx 0\x1c1"),
        _with_line("ccx 1 2\x0c3"),
        _with_line("cx 0 1\nfoo 1 2\nccx 1 2 3"),
        _with_line("cx 0 1 cx 1 2\n", base=CNOTS),
        _with_line("cxx 1 2", base=CNOTS),
    ],
    ids=[
        "clean", "leading-zeros", "plus-sign", "tab", "crlf", "trailing-comment",
        "blank-lines", "reversed-controls", "equal-wires", "wire-equal-to-width",
        "control-equal-to-width", "no-final-newline", "first-of-two-faults", "last-line-unended",
        "over-long-wire", "unicode-digit", "underscore", "wide-clean", "wide-wire-equal-to-width",
        "wide-control-equal-to-width", "wide-reversed-controls", "wide-leading-zero",
        "wide-unicode-digits", "negative-control", "negative-cnot-control", "wide-negative-control",
        "newline-inside-a-gate", "directive-as-a-wire", "glued-directive", "file-separator",
        "form-feed", "unknown-line-between-kinds", "two-cnots-on-a-line",
        "longer-directive",
    ],
)
@pytest.mark.parametrize("read_size", [3, 64, circuits.READ_SIZE])
def test_batched_reader_agrees_with_the_line_reader(text, read_size, monkeypatch):
    assert read_outcome(text, monkeypatch, read_size) == read_outcome(
        text, monkeypatch, read_size, per_line=True
    )


@pytest.mark.parametrize(
    "chunk",
    [
        "\ncx\t0 1 cx 1 2\n",  # every count holds; only the first line's start tells
        "cx 0\n1\ncx 2 3",  # every count holds; only the missing final "\n" tells
    ],
)
def test_strict_batches_refuses_what_the_line_reader_refuses(chunk):
    wires = circuits._NameTable(partial(circuits._wire_named, 9))
    assert circuits._strict_batches(chunk, wires) is None
    with pytest.raises(ParseError):
        parse("qubits 9\n" + chunk)


def recorded_pieces(monkeypatch):
    """Patch ``_strict_batches`` to record every piece it is handed and
    whether that piece took the column path; returns the record."""
    pieces = []
    strict = circuits._strict_batches

    def recorded(chunk, wires):
        batches = strict(chunk, wires)
        pieces.append((chunk, batches is not None))
        return batches

    monkeypatch.setattr(circuits, "_strict_batches", recorded)
    return pieces


def assert_read_as_columns(text, c, monkeypatch):
    """Every piece of ``text`` (the netlist of ``c``) takes the column path."""
    pieces = recorded_pieces(monkeypatch)
    assert read_outcome(text, monkeypatch, 64) == (c.width, c.registers, list(c.gates))
    assert len(pieces) > 50 and all(columns for _, columns in pieces)


def test_clean_pieces_are_read_as_columns(monkeypatch):
    assert_read_as_columns(CLEAN, random_circuit(8, n=400), monkeypatch)


def test_wide_clean_pieces_are_read_as_columns(monkeypatch):
    assert_read_as_columns(WIDE, random_circuit(8, width=1000, n=400), monkeypatch)


@pytest.mark.parametrize("rep,m", [("gnb", 23), ("gbb", 10)])
@pytest.mark.parametrize("read_size", [64, circuits.READ_SIZE])
def test_written_inverters_are_read_as_columns(rep, m, read_size, tmp_path, monkeypatch, capsys):
    """A written inverter has pieces that mix cx and ccx lines; every piece
    that ends in "\\n" still takes the column path."""
    path = tmp_path / "inv.qc"
    assert main(["synth", "invert", "-m", str(m), "--rep", rep, "--out", str(path)]) == 0
    capsys.readouterr()
    text = path.read_text()
    pieces = recorded_pieces(monkeypatch)
    assert read_outcome(text, monkeypatch, read_size) == read_outcome(
        text, monkeypatch, read_size, per_line=True
    )
    ended = [columns for chunk, columns in pieces if chunk.endswith("\n")]
    assert ended and all(ended)
    kinds = [{line.split(" ", 1)[0] for line in chunk.splitlines()} for chunk, _ in pieces]
    assert {"cx", "ccx"} in kinds


def test_column_path_pieces_advance_the_line_count(monkeypatch):
    """A bad line after several column-path pieces, one of them holding
    both gate kinds, reports its own line: a column-path piece advances the
    count by the gates it yields, one per strict line."""
    gates = [(i % 8, 8) for i in range(20)] + [(i % 4, 4 + i % 4, 8) for i in range(20)]
    text = emit(Circuit(9, tuple(gates + gates))) + "cx 0 9\n"
    pieces = recorded_pieces(monkeypatch)
    assert read_outcome(text, monkeypatch, 64)[1] == text.count("\n")
    columns = [chunk for chunk, columns in pieces if columns]
    assert len(columns) >= 3 and not pieces[-1][1]  # the bad line's piece: the line reader
    assert any("\ncx " in chunk and "ccx " in chunk for chunk in columns)


def test_batch_emit_is_flat_emit_on_wide_circuits():
    c = random_circuit(5, width=1000, n=3000)
    flat = list(emit_lines(c.width, c.registers, c.gates, ["wide"]))
    batched = list(emit_lines(c.width, c.registers, gate_runs(c.gates), ["wide"]))
    assert len(batched) < len(flat)
    assert "\n".join(batched) == "\n".join(flat)


class Wire:
    """An int-like wire that is not an ``int``, as numpy's integers are."""

    def __init__(self, i):
        self.i = i

    def __index__(self):
        return self.i

    def __str__(self):
        return str(self.i)


@pytest.mark.parametrize(
    "gates",
    [[(Wire(0), Wire(1))], [(0, Wire(1))], [(Wire(0), Wire(1), Wire(2)), (Wire(2), 0)]],
    ids=["all-int-like", "first-int", "toffoli-first"],
)
def test_a_flat_stream_is_told_by_its_shape_not_its_wire_type(gates):
    """A flat gate stream whose first wire is int-like but not an ``int``
    is still flat, for the writer and for the measurement."""
    plain = [tuple(map(int, g)) for g in gates]
    assert list(emit_lines(3, {}, gates)) == list(emit_lines(3, {}, plain))
    assert measure_stream(3, gates) == measure_stream(3, plain)


class CountedTable(circuits._NameTable):
    """A wire-name table that records every instance made."""

    made = []

    def __init__(self, convert):
        super().__init__(convert)
        self.made.append(self)


def test_read_table_holds_only_the_wires_seen_up_to_its_size(monkeypatch):
    width = 10**9
    few = [(width - 1, 7), (3, width - 2, 7)]
    n = circuits.NAME_TABLE_SIZE  # gates, over 2n distinct wires
    many = [(width - 1 - 2 * i, width - 2 - 2 * i) for i in range(n)]
    for gates, size in ((few, 4), (many, circuits.NAME_TABLE_SIZE)):
        monkeypatch.setattr(circuits, "_NameTable", CountedTable)
        CountedTable.made.clear()
        text = emit(Circuit(width, gates))
        assert read_outcome(text, monkeypatch, circuits.READ_SIZE) == (width, {}, gates)
        read_table = CountedTable.made[-1]
        assert len(read_table) == size
        assert all(isinstance(k, str) for k in read_table)


def flat_emit(width, batches):
    """The netlist text of column batches as the flat writer gives it."""
    return "\n".join(emit_lines(width, {}, list(flat_gates(batches))))


def batch_emit(width, batches):
    return "\n".join(emit_lines(width, {}, batches))


@pytest.mark.parametrize(
    "width,batches",
    [
        pytest.param(10, [([3], None, [4])], id="one-cnot"),
        pytest.param(10, [([0], [1], [9])], id="one-toffoli"),
        pytest.param(10, [([], None, []), ([0], None, [9]), ([], [], []), ([1], [2], [3])], id="empty"),
        pytest.param(10, [([0, 9, 0], None, [9, 0, 5]), ([0, 0], [9, 8], [9, 9])], id="wires-0-and-top"),
        pytest.param(10, [([-1, 2], None, [3, -10]), ([-11, 0], [1, -2], [5, -12])], id="negative"),
        pytest.param(10, [([-25, 2], None, [3, -1]), ([0, -10], [1, -2], [5, -21])], id="negative-past-width"),
        pytest.param(10, [([0, 1], [2, 3], [4.5, 5]), ([2, 2.5], None, [3, 4])], id="not-int"),
        pytest.param(
            10**9,
            [
                ([10**9 - 1, 0], None, [circuits.NAME_TABLE_SIZE, 1]),
                ([circuits.NAME_TABLE_SIZE - 1], [circuits.NAME_TABLE_SIZE], [10**9 - 2]),
            ],
            id="past-the-tables",
        ),
    ],
)
def test_batch_emit_is_flat_emit_at_the_name_tables_edges(width, batches):
    """The writer names a batch's wires through tables that cover 0..k-1
    (k = min(width, NAME_TABLE_SIZE)) and any other wire by ``str``; either
    way its text is the flat writer's, byte for byte."""
    assert batch_emit(width, batches) == flat_emit(width, batches)


def test_emit_table_stays_bounded_at_a_huge_width():
    width = 10**9
    c = Circuit(width, [(width - 1, 0), (1, width - 2, width - 1)], {"x": (0, width)})
    tracemalloc.start()
    try:
        text = emit(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == f"qubits {width}\nreg x 0 {width}\ncx {width - 1} 0\nccx 1 {width - 2} {width - 1}\n"
    assert peak < 1 << 16
    # a batch stream at the same width: the writer's name tables cover at most
    # NAME_TABLE_SIZE wires each, so what it holds does not follow the width
    n = circuits.NAME_TABLE_SIZE
    a = [width - 1 - 2 * i for i in range(n)]
    t = [w - 1 for w in a]
    low = list(range(n))
    batches = [(a, None, t), (low, None, low[1:] + [0]), (low[:-1], low[1:], [width - 1] * (n - 1))]
    tracemalloc.start()
    try:
        written = batch_emit(width, batches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written == flat_emit(width, batches)
    assert peak < 1 << 24


HUGE_LINE = 1 << 22  # characters of the one long comment line below


@pytest.mark.parametrize(
    "text,outcome",
    [
        pytest.param("#" + "x" * (HUGE_LINE - 1), 1, id="alone-without-newline"),
        pytest.param("qubits 2\n#" + "x" * HUGE_LINE, [], id="in-the-header"),
        pytest.param(
            "qubits 2\ncx 0 1\n#" + "x" * HUGE_LINE + "\ncx 1 0\n",
            [(0, 1), (1, 0)],
            id="between-gates",
        ),
    ],
)
def test_a_huge_comment_line_is_held_about_once(text, outcome, tmp_path):
    path = tmp_path / "huge.qc"
    path.write_text(text)
    tracemalloc.start()
    try:
        with open(path) as fh:
            try:
                got = list(read_netlist(fh).gates)
            except ParseError as e:
                got = e.line
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == outcome
    # joining the line's reads needs the reads and the line at once; no more
    assert peak < 2.25 * HUGE_LINE


def test_parse_normalizes_toffoli_controls():
    c = parse("qubits 3\nccx 2 0 1\n")
    assert c.gates == ((0, 2, 1),)


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("cx 0 1\n", 1),  # gate before qubits
        ("qubits 0\n", 1),  # non-positive width
        ("qubits x\n", 1),
        ("qubits 4\nqubits 4\n", 2),  # duplicate header
        ("qubits 4\ncx 0\n", 2),  # arity
        ("qubits 4\ncx 0 4\n", 2),  # out of range
        ("qubits 4\nccx 0 1 4\n", 2),
        ("qubits 4\ncx a 1\n", 2),  # not an integer
        ("qubits 4\ncx 1 1\n", 2),  # equal wires
        ("qubits 4\nccx 0 0 1\n", 2),
        ("qubits 4\nccx 0 1 1\n", 2),
        ("qubits 4\nfoo 0 1\n", 2),  # unknown directive
        ("qubits 4\nreg a 0 2\nreg a 2 2\n", 3),  # duplicate name
        ("qubits 4\nreg a 0 3\nreg b 2 2\n", 3),  # overlap
        ("qubits 4\nreg a 0 3\nreg b 2 2\nreg c x 1\n", 3),  # the first bad reg line, whatever its fault
        ("qubits 4\nreg a 2 3\n", 2),  # past the end
        ("qubits 4\nreg a 0 0\n", 2),  # empty register
        ("qubits 4\ncx 0 1\nreg a 0 2\n", 3),  # reg after gates
        ("qubits 4\n# a\x0ccx 0 1\ncx 0 4\n", 3),  # a form feed does not end a line
        ("qubits 4\n# a\u2028cx 0 1\nfoo\n", 3),
        ("qubits 4\ncx 0 4\nfoo\n", 2),  # the first bad line, whatever its fault
        ("qubits 4\nreg a 0 3\nreg b 2 2\ncx 0 1\ncx 0 9\n", 3),
        ("qubits 4\ncx 0 1\ncx 2 3\n\n# end\nccx 3 2 3", 6),
        ("qubits 5 6\n", 1),  # header arity
        ("qubits 4\nreg a 0\n", 2),
        ("qubits 4\nreg a x 1\n", 2),  # register start not an integer
        pytest.param("qubits 4\n" + "f" * 10_000 + " 0 1\n", 2, id="long-unknown-directive"),
        pytest.param("qubits " + "x" * 10_000 + "\n", 1, id="long-bad-qubit-count"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, tmp_path, monkeypatch):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == lineno
    assert len(str(exc.value)) <= len(f"line {lineno}: ") + PARSE_MESSAGE_LIMIT
    # the same line through a file read a few characters at a time
    path = tmp_path / "bad.qc"
    path.write_bytes(text.encode())
    with pytest.raises(ParseError) as exc:
        read_file(path, monkeypatch)
    assert exc.value.line == lineno


@pytest.mark.parametrize(
    "text,lineno", [("qubits 5 6\n", 1), ("qubits 4\nreg a 0\n", 2), ("qubits 4\nreg a x 1\n", 2)]
)
def test_a_bad_header_exits_3_through_verify(text, lineno, tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text(text)
    assert main(["verify", "add", "-m", "4", "--rep", "gbb", "--in", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"error: line {lineno}: ")


class CountingReader(io.StringIO):
    """A text file that counts the reads made of it."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


def test_the_header_is_read_no_further_than_its_first_bad_line():
    text = "qubits 4\nreg a 0 3\nreg b 2 2\n" + "".join(f"reg r{i} 0 1\n" for i in range(100_000))
    fh = CountingReader(text)
    with pytest.raises(ParseError, match="register b overlaps a") as exc:
        read_netlist(fh)
    assert exc.value.line == 3
    assert fh.reads == 1


def test_a_netlist_that_is_not_utf8_exits_3_at_its_line(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_bytes(b"qubits 15\ncx 0 \xff\n")
    assert main(["verify", "mult", "-m", "4", "--rep", "gbb", "--in", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_a_bad_byte_in_a_comment_is_ignored(tmp_path, capsys):
    path = tmp_path / "mult.qc"
    assert main(["synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path)]) == 0
    path.write_bytes(b"# caf\xe9\n" + path.read_bytes())
    capsys.readouterr()
    assert main(["verify", "mult", "-m", "4", "--rep", "gbb", "--in", str(path)]) == 0
    assert "result=pass" in capsys.readouterr().out


def test_a_seed_that_is_not_an_int_exits_2(capsys):
    assert main(["verify", "mult", "-m", "4", "--rep", "gbb", "--seed", "zz"]) == 2
    assert "--seed: invalid int value: 'zz'" in capsys.readouterr().err


def test_parse_requires_qubits_line():
    with pytest.raises(ParseError):
        parse("# only a comment\n")


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)
