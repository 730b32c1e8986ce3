"""Text netlist format: emission, parsing, strictness of the parser."""

import random

import pytest

from gf2synth.circuits import Circuit, cnot, emit, emit_lines, parse, toffoli
from gf2synth.errors import ParseError


def random_circuit(seed, width=9, n=120):
    rng = random.Random(seed)
    gates = []
    for _ in range(n):
        a, b, t = rng.sample(range(width), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    return Circuit(width, tuple(gates), {"in": (0, 4), "out": (4, 4)})


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
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == lineno


def test_parse_requires_qubits_line():
    with pytest.raises(ParseError):
        parse("# only a comment\n")


def test_parse_error_is_value_error():
    assert issubclass(ParseError, ValueError)
