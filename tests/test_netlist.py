"""Text netlist format: emission, parsing, strictness of the parser."""

import io
import random
import tracemalloc

import pytest

from gf2synth import circuits
from gf2synth.circuits import (
    Circuit,
    cnot,
    emit,
    emit_lines,
    gate_runs,
    parse,
    read_netlist,
    toffoli,
)
from gf2synth.errors import PARSE_MESSAGE_LIMIT, ParseError


def random_circuit(seed, width=9, n=120):
    rng = random.Random(seed)
    gates = []
    for _ in range(n):
        a, b, t = rng.sample(range(width), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    return Circuit(width, tuple(gates), {"in": (0, 4), "out": (4, 4)})


def read_file(path, monkeypatch, read_size=3):
    """A Circuit over ``read_netlist`` on a file, drawn a few characters per
    read so that lines straddle reads; "\r" is left for the reader to see."""
    monkeypatch.setattr(circuits, "READ_SIZE", read_size)
    with open(path, newline="") as fh:
        netlist = read_netlist(fh)
        return Circuit(netlist.width, netlist.gates, netlist.registers)


def test_emit_shape():
    c = Circuit(3, (cnot(0, 1), toffoli(0, 1, 2)), {"x": (0, 2)})
    text = emit(c)
    assert text.splitlines() == [
        "qubits 3",
        "reg x 0 2",
        "cx 0 1",
        "ccx 0 1 2",
    ]


def test_emit_header_comments():
    c = Circuit(2, (cnot(0, 1),))
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
    assert c.gates == (cnot(0, 1), toffoli(1, 2, 3))


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
    ],
    ids=[
        "clean", "leading-zeros", "plus-sign", "tab", "crlf", "trailing-comment",
        "blank-lines", "reversed-controls", "equal-wires", "wire-equal-to-width",
        "control-equal-to-width", "no-final-newline", "first-of-two-faults", "last-line-unended",
        "over-long-wire", "unicode-digit", "underscore", "wide-clean", "wide-wire-equal-to-width",
        "wide-control-equal-to-width", "wide-reversed-controls", "wide-leading-zero",
        "wide-unicode-digits",
    ],
)
@pytest.mark.parametrize("read_size", [3, 64, circuits.READ_SIZE])
def test_batched_reader_agrees_with_the_line_reader(text, read_size, monkeypatch):
    assert read_outcome(text, monkeypatch, read_size) == read_outcome(
        text, monkeypatch, read_size, per_line=True
    )


def assert_read_as_columns(text, c, monkeypatch):
    """Every piece of ``text`` (the netlist of ``c``) takes the column path."""
    cut = []
    strict = circuits._strict_batches

    def counted(chunk, wires):
        batches = strict(chunk, wires)
        cut.append(batches is not None)
        return batches

    monkeypatch.setattr(circuits, "_strict_batches", counted)
    assert read_outcome(text, monkeypatch, 64) == (c.width, c.registers, list(c.gates))
    assert len(cut) > 50 and all(cut)


def test_clean_pieces_are_read_as_columns(monkeypatch):
    assert_read_as_columns(CLEAN, random_circuit(8, n=400), monkeypatch)


def test_wide_clean_pieces_are_read_as_columns(monkeypatch):
    assert_read_as_columns(WIDE, random_circuit(8, width=1000, n=400), monkeypatch)


def test_batch_emit_is_flat_emit_on_wide_circuits():
    c = random_circuit(5, width=1000, n=3000)
    flat = list(emit_lines(c.width, c.registers, c.gates, ["wide"]))
    batched = list(emit_lines(c.width, c.registers, gate_runs(c.gates), ["wide"]))
    assert len(batched) < len(flat)
    assert "\n".join(batched) == "\n".join(flat)


class CountedTable(circuits._NameTable):
    """A wire-name table that records every instance made."""

    made = []

    def __init__(self, convert):
        super().__init__(convert)
        self.made.append(self)


def test_read_table_holds_only_the_wires_seen_up_to_its_size(monkeypatch):
    width = 10**9
    few = [cnot(width - 1, 7), toffoli(3, width - 2, 7)]
    n = circuits.NAME_TABLE_SIZE  # gates, over 2n distinct wires
    many = [cnot(width - 1 - 2 * i, width - 2 - 2 * i) for i in range(n)]
    for gates, size in ((few, 4), (many, circuits.NAME_TABLE_SIZE)):
        monkeypatch.setattr(circuits, "_NameTable", CountedTable)
        CountedTable.made.clear()
        text = emit(Circuit(width, gates))
        assert read_outcome(text, monkeypatch, circuits.READ_SIZE) == (width, {}, gates)
        read_table = CountedTable.made[-1]
        assert len(read_table) == size
        assert all(isinstance(k, str) for k in read_table)


def test_emit_table_stays_bounded_at_a_huge_width(monkeypatch):
    width = 10**9
    c = Circuit(width, [cnot(width - 1, 0), toffoli(1, width - 2, width - 1)], {"x": (0, width)})
    tracemalloc.start()
    try:
        text = emit(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == f"qubits {width}\nreg x 0 {width}\ncx {width - 1} 0\nccx 1 {width - 2} {width - 1}\n"
    assert peak < 1 << 16
    monkeypatch.setattr(circuits, "_NameTable", CountedTable)
    CountedTable.made.clear()
    n = circuits.NAME_TABLE_SIZE
    a = [width - 1 - 2 * i for i in range(n)]
    t = [w - 1 for w in a]
    lines = list(emit_lines(width, {}, [(a, None, t)]))
    assert lines[1:] == ["\n".join(f"cx {x} {y}" for x, y in zip(a, t))]
    assert [len(table) for table in CountedTable.made] == [circuits.NAME_TABLE_SIZE]


def test_parse_normalizes_toffoli_controls():
    c = parse("qubits 3\nccx 2 0 1\n")
    assert c.gates == (toffoli(0, 2, 1),)


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
        ("qubits 4\nreg a 2 3\n", 2),  # past the end
        ("qubits 4\nreg a 0 0\n", 2),  # empty register
        ("qubits 4\ncx 0 1\nreg a 0 2\n", 3),  # reg after gates
        ("qubits 4\n# a\x0ccx 0 1\ncx 0 4\n", 3),  # a form feed does not end a line
        ("qubits 4\n# a\u2028cx 0 1\nfoo\n", 3),
        ("qubits 4\ncx 0 4\nfoo\n", 2),  # the first bad line, whatever its fault
        ("qubits 4\nreg a 0 3\nreg b 2 2\ncx 0 1\ncx 0 9\n", 3),
        ("qubits 4\ncx 0 1\ncx 2 3\n\n# end\nccx 3 2 3", 6),
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


def test_parse_requires_qubits_line():
    with pytest.raises(ParseError):
        parse("# only a comment\n")


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)
