"""Reversible-circuit intermediate representation.

A circuit is a wire count, a flat gate sequence (CNOT / Toffoli only, both
self-inverse), and an optional named register map. Depth is defined by greedy
as-soon-as-possible layering: gates are taken in sequence order and each is
placed in the earliest layer where all of its wires are free. ``toffoli_depth``
applies the same rule to the Toffoli subsequence with CNOTs transparent.

Two rules say what a circuit may hold, each written once, here:
``validated_gates`` (a CNOT has two distinct wires, a Toffoli three, all in
0..width-1; Toffoli controls are stored lower-first) and
``validated_registers`` (a name is one token the netlist format can carry,
a span is non-empty and inside the width, spans do not overlap). The gate
rule is a stream: it yields each gate as it checks it, so a checked gate
stream costs no memory, and ``Circuit`` stores what it yields as a tuple.
``batch_passes`` is the column check: it says whether a whole column batch
passes the gate rule as it stands, a few C-level passes per column, and
anything it refuses goes to the gate rule itself, which normalizes it or
names the gate at fault. ``validated_batches`` is the gate rule on a batch
stream, built that way. ``Circuit``, the gate factories and the netlist
reader all go through these rules, and the multiplier cores check their
register layout with the second. The streamed consumers
(``measure_stream``, ``run_packed``) trust their gates: the cores emit
valid gates whenever that per-block precondition holds.

Netlist text is read by one reader, ``read_netlist``: it pulls a file
READ_SIZE characters at a time, cut after the last "\n" of each read,
checks the header (the register rule applied once) and then yields the
gates as column batches, one per same-kind run of a read, as they are
drawn, so a file of any length is read in constant memory. A read of
strict gate lines (``ccx a b t`` / ``cx c t``, single spaces, plain
decimal wires) is matched by one regular expression, the wire tokens of
each same-kind run are looked up in a name-to-wire table and cut into
columns by slicing, and its batches go through the width-free part of the
column check; any other read, or one the table or the check refuses, goes
line by line through the gate rule, so every ParseError keeps its text
and line number. ``Netlist.gates`` is the flat view, and ``parse`` is a
``Circuit`` over the reader.

Wire names go through a wire-name table (``_NameTable``) both ways: the
reader's maps a token to its wire, calling ``int`` and refusing a wire
past the width the first time it sees the token, so a lookup is the range
check; ``emit_lines``' maps a wire to its ``str``. A netlist has few
distinct wires however many gates it has, so almost every token costs one
dict lookup. A table stores at most NAME_TABLE_SIZE names, and only those
it has seen, so its size never follows the width.

Gates travel as column batches (``Batch``) from generator to file and
back: one run of a single gate kind as equal-length wire lists
``(controls_a, controls_b, targets)``, with ``controls_b`` None for a run
of CNOTs. The multiplier cores produce them stage by stage, ``emit_lines``
writes one string per batch, the reader yields them, and
``measure_stream`` and ``run_packed`` read them as they come, with no gate
tuple built. ``run_packed`` takes batches only; ``measure_stream`` and
``emit_lines`` also take a flat gate stream, the form the benchmark's
certifier hands them. ``flat_gates`` is the flat view, the
``Cnot``/``Toffoli`` sequence that ``Circuit`` holds; ``gate_runs`` cuts a
flat sequence back into batches.

Simulation is bit-sliced: one Python int per wire, bit b of that int holding
wire's value for input pattern b, so a whole batch of inputs costs a single
pass over the gates. There is one route: ``pack_patterns`` builds the state,
``run_packed`` applies the gates and ``register_value`` reads a pattern
back. ``verify`` drives it register by register; ``simulate`` runs it on a
``Circuit``'s gates, cut by ``gate_runs``, with whole-width ints (bit w is
wire w) in and out. T-gate figures use the standard 7 T / T-depth 6
decomposition of the Toffoli.
"""

from __future__ import annotations

import io
import re
from bisect import bisect
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, islice, repeat
from operator import lt, ne
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

from .errors import CircuitRuleError, ParseError


class Cnot(NamedTuple):
    control: int
    target: int


class Toffoli(NamedTuple):
    control_a: int
    control_b: int
    target: int


Gate = Union[Cnot, Toffoli]
_new = tuple.__new__  # builds a Cnot or Toffoli without the slower generated __new__

# One run of gates of one kind as equal-length wire columns (controls_a,
# controls_b, targets): gate i is Toffoli(a[i], b[i], t[i]), or Cnot(a[i], t[i])
# when the middle column is None.
Batch = tuple[Sequence[int], Optional[Sequence[int]], Sequence[int]]
RUN_CHUNK = 1 << 8  # gates per batch when gate_runs cuts a flat stream; fastest of 2^6..2^12
# Characters per read when a netlist file is streamed. The wire tokens of a
# whole read are held at once, so reads are kept small: at 1 << 16 they
# raised the peak RSS of reading the m=163 inverter back by about 3.5 MB.
READ_SIZE = 1 << 12
# Entries a wire-name table stores before it converts without storing: a
# table grows only with the distinct wires it sees, never with the width.
NAME_TABLE_SIZE = 1 << 14

T_PER_TOFFOLI = 7
T_DEPTH_PER_TOFFOLI = 6

UNBOUNDED = float("inf")  # the width of a gate or register that belongs to no circuit yet


def validated_gates(gates: Iterable[Gate], width: Union[int, float]) -> Iterator[Gate]:
    """The gate rule, in one loop: every gate is a CNOT of two or a Toffoli
    of three distinct wires in 0..width-1. Yields the gates as they are
    drawn, as Cnot and Toffoli tuples with Toffoli controls lower-first;
    raises CircuitRuleError at the first gate that breaks the rule."""
    for i, g in enumerate(gates):
        n = len(g)
        if n == 3:
            a, b, t = g
            if a != b != t != a and 0 <= a < width and 0 <= b < width and 0 <= t < width:
                if a < b:
                    yield g if type(g) is Toffoli else _new(Toffoli, (a, b, t))
                else:
                    yield _new(Toffoli, (b, a, t))
                continue
        elif n == 2:
            c, t = g
            if c != t and 0 <= c < width and 0 <= t < width:
                yield g if type(g) is Cnot else _new(Cnot, (c, t))
                continue
        raise CircuitRuleError(
            f"gate {tuple(g)} is not 2 or 3 distinct wires in 0..{width - 1}", i
        )


def batch_passes(batch: Batch, width: Union[int, float]) -> bool:
    """The gate rule on a whole column batch at once: True when every gate
    of the batch passes ``validated_gates`` unchanged (wires in 0..width-1,
    distinct, Toffoli controls already lower-first). False says only that
    some gate does not; the gate rule decides which one, and how."""
    a, b, t = batch
    if not t:
        return True
    if min(a) < 0 or min(t) < 0 or max(a) >= width or max(t) >= width:
        return False
    return (b is None or max(b) < width) and _shape_passes(batch)


def _shape_passes(batch: Batch) -> bool:
    """The part of ``batch_passes`` that needs no width: the wires of each
    gate are distinct and Toffoli controls come lower-first (so a control b
    is never below 0 when its a is not)."""
    a, b, t = batch
    if b is None:
        return all(map(ne, a, t))
    return all(map(lt, a, b)) and all(map(ne, a, t)) and all(map(ne, b, t))


def validated_batches(batches: Iterable[Batch], width: Union[int, float]) -> Iterator[Batch]:
    """The gate rule on a stream of column batches. A batch that passes
    ``batch_passes`` is yielded as it is; any other goes gate by gate through
    ``validated_gates``, which yields it normalized (re-cut into batches) or
    raises CircuitRuleError carrying the gate's index in the whole stream."""
    done = 0
    for batch in batches:
        if batch_passes(batch, width):
            yield batch
        else:
            try:
                gates = list(validated_gates(flat_gates((batch,)), width))
            except CircuitRuleError as e:
                raise CircuitRuleError(str(e), done + e.index) from None
            yield from gate_runs(gates)
        done += len(batch[2])


def validated_registers(
    registers: dict[str, tuple[int, int]], width: Union[int, float]
) -> dict[str, tuple[int, int]]:
    """The register rule: each name is one token without '#' (what a netlist
    line can carry), each span (start, length) is non-empty and inside
    0..width-1, and no span overlaps an earlier one. Raises CircuitRuleError
    at the first register, in map order, that breaks the rule."""
    clean: dict[str, tuple[int, int]] = {}
    taken: list[tuple[int, int, str]] = []  # accepted spans, disjoint and sorted
    for i, (name, (start, length)) in enumerate(registers.items()):
        end = start + length
        k = bisect(taken, (start, end))
        if name.split() != [name] or "#" in name:
            problem = f"register name {name!r} must be one token without '#'"
        elif length < 1 or start < 0 or end > width:
            problem = f"register {name} spans [{start}, {end}) outside 0..{width - 1}"
        elif k and taken[k - 1][1] > start:
            problem = f"register {name} overlaps {taken[k - 1][2]}"
        elif k < len(taken) and taken[k][0] < end:
            problem = f"register {name} overlaps {taken[k][2]}"
        else:
            clean[name] = (start, length)
            taken.insert(k, (start, end, name))
            continue
        raise CircuitRuleError(problem, i)
    return clean


def cnot(control: int, target: int) -> Cnot:
    return next(validated_gates(((control, target),), UNBOUNDED))


def toffoli(control_a: int, control_b: int, target: int) -> Toffoli:
    """Toffoli with controls stored lower-index-first (they commute)."""
    return next(validated_gates(((control_a, control_b, target),), UNBOUNDED))


@dataclass(frozen=True, eq=True)
class Circuit:
    """Immutable gate list over ``width`` wires with named register spans.
    ``gates`` may be any iterable; it is validated and stored once, as a
    tuple."""

    width: int
    gates: tuple[Gate, ...]
    registers: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        object.__setattr__(self, "registers", validated_registers(self.registers, self.width))
        object.__setattr__(self, "gates", tuple(validated_gates(self.gates, self.width)))


@dataclass(frozen=True)
class ResourceEstimate:
    """Gate counts and depths of a circuit; T figures derive from Toffolis."""

    toffoli_count: int
    cnot_count: int
    depth: int
    toffoli_depth: int
    qubits: int
    t_count: int
    t_depth: int

    @property
    def gate_count(self) -> int:
        return self.toffoli_count + self.cnot_count

    def summary_lines(self) -> list[str]:
        return [
            f"toffoli={self.toffoli_count}",
            f"cnot={self.cnot_count}",
            f"depth={self.depth}",
            f"toffoli_depth={self.toffoli_depth}",
            f"qubits={self.qubits}",
            f"t_count={self.t_count}",
            f"t_depth={self.t_depth}",
        ]


def gate_runs(gates: Iterable[Gate]) -> Iterator[Batch]:
    """Cut a flat gate stream into column batches: maximal same-kind runs,
    split every RUN_CHUNK gates so that no run is held whole."""
    for n, run in groupby(gates, len):
        while chunk := list(islice(run, RUN_CHUNK)):
            cols = tuple(zip(*chunk))
            yield (cols[0], cols[1], cols[2]) if n == 3 else (cols[0], None, cols[1])


def flat_gates(batches: Iterable[Batch]) -> Iterator[Gate]:
    """The flat view of column batches: their gates in order, as tuples."""
    for a, b, t in batches:
        yield from map(Cnot, a, t) if b is None else map(Toffoli, a, b, t)


def _peek_flat(stream: Iterable[Union[Batch, Gate]]) -> tuple[bool, Iterator]:
    """Whether a stream holds flat gates rather than column batches (told by
    its first item), and the stream itself, whole."""
    items = iter(stream)
    first = next(items, None)
    if first is None:
        return False, items
    return isinstance(first[0], int), chain((first,), items)


def measure_stream(width: int, stream: Iterable[Union[Batch, Gate]]) -> ResourceEstimate:
    """Single-pass resource count over column batches (nothing is stored).

    This is what the bound checks use for inverters with millions of gates:
    the greedy layering only needs one per-wire counter, so the stream never
    has to be materialized. Gates are applied one at a time in stream order,
    so the count is exact whether or not a batch is wire-disjoint. A flat
    gate stream is accepted too and cut into runs by ``gate_runs``: the
    benchmark's certifier (``perfbench/certify.py``) measures flat gates.
    """
    flat, batches = _peek_flat(stream)
    if flat:
        batches = gate_runs(batches)
    ready = [0] * width  # earliest free layer per wire
    tof_ready = [0] * width  # same, counting only Toffolis
    n_tof = 0
    n_cnot = 0
    for ca, cb, ct in batches:
        if cb is None:
            n_cnot += len(ct)
            for c, t in zip(ca, ct):
                layer = ready[c]
                if ready[t] > layer:
                    layer = ready[t]
                ready[c] = ready[t] = layer + 1
            continue
        n_tof += len(ct)
        for a, b, t in zip(ca, cb, ct):
            layer = ready[a]
            if ready[b] > layer:
                layer = ready[b]
            if ready[t] > layer:
                layer = ready[t]
            ready[a] = ready[b] = ready[t] = layer + 1
            layer = tof_ready[a]
            if tof_ready[b] > layer:
                layer = tof_ready[b]
            if tof_ready[t] > layer:
                layer = tof_ready[t]
            tof_ready[a] = tof_ready[b] = tof_ready[t] = layer + 1
    tof_depth = max(tof_ready, default=0)
    return ResourceEstimate(
        toffoli_count=n_tof,
        cnot_count=n_cnot,
        depth=max(ready, default=0),
        toffoli_depth=tof_depth,
        qubits=width,
        t_count=T_PER_TOFFOLI * n_tof,
        t_depth=T_DEPTH_PER_TOFFOLI * tof_depth,
    )


def resources(c: Circuit) -> ResourceEstimate:
    return measure_stream(c.width, gate_runs(c.gates))


def schedule(c: Circuit) -> list[list[Gate]]:
    """Materialized greedy layers; layer k holds the gates placed at depth k."""
    ready = [0] * c.width
    layers: list[list[Gate]] = []
    for g in c.gates:
        layer = max(ready[w] for w in g)
        if layer == len(layers):
            layers.append([])
        layers[layer].append(g)
        for w in g:
            ready[w] = layer + 1
    return layers


# ---------------------------------------------------------------------------
# simulation


def run_packed(batches: Iterable[Batch], state: list[int]) -> list[int]:
    """Apply column batches to a bit-sliced state in place (state[w] packs
    wire w across all patterns), gate by gate in stream order. Gates are
    trusted; callers validate beforehand. A flat gate stream goes through
    ``gate_runs`` first."""
    for ca, cb, ct in batches:
        if cb is None:
            for c, t in zip(ca, ct):
                state[t] ^= state[c]
        else:
            for a, b, t in zip(ca, cb, ct):
                state[t] ^= state[a] & state[b]
    return state


def pack_patterns(width: int, wires: Sequence[int], patterns: Iterable[int]) -> list[int]:
    """Bit-sliced state for a batch: bit i of patterns[b] sits on wire
    wires[i] in pattern slot b; every other wire is zero."""
    state = [0] * width
    for b, pat in enumerate(patterns):
        for i, wire in enumerate(wires):
            if (pat >> i) & 1:
                state[wire] |= 1 << b
    return state


def register_value(state: Sequence[int], b: int, start: int, length: int) -> int:
    """Pattern b's value of the register on wires start..start+length-1."""
    v = 0
    for i in range(length):
        v |= ((state[start + i] >> b) & 1) << i
    return v


def simulate(c: Circuit, inputs: Sequence[int]) -> list[int]:
    """Basis-state outputs of a circuit, all inputs in one bit-sliced pass.
    Each input and output is a whole-width int whose bit w is wire w; an
    input outside 0..2^width - 1 is rejected."""
    for v in inputs:
        if not 0 <= v < 1 << c.width:
            raise ValueError(f"input {v!r} outside 0..2^{c.width} - 1")
    state = run_packed(gate_runs(c.gates), pack_patterns(c.width, range(c.width), inputs))
    return [register_value(state, b, 0, c.width) for b in range(len(inputs))]


# ---------------------------------------------------------------------------
# netlist text format
#
#   # optional comments (full line or trailing)
#   qubits <N>
#   reg <name> <start> <len>      (zero or more, before any gate)
#   cx <control> <target>
#   ccx <control> <control> <target>


class _NameTable(dict):
    """One direction of the map between wires and their decimal names (see
    the module docstring): a key is converted the first time it is looked
    up, and stored while the table holds fewer than NAME_TABLE_SIZE
    entries; past that it is converted on every lookup."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < NAME_TABLE_SIZE:
            self[key] = value
        return value


def _wire_named(width: int, name: str) -> int:
    """The wire a canonical decimal name stands for; KeyError when it is not
    below the width, ValueError when ``int`` refuses it (too many digits)."""
    wire = int(name)
    if wire >= width:
        raise KeyError(name)
    return wire


def emit_lines(
    width: int,
    registers: dict[str, tuple[int, int]],
    gates: Iterable[Union[Batch, Gate]],
    header: Iterable[str] = (),
) -> Iterator[str]:
    """Stream netlist text without trailing newlines: one line per header
    comment, the qubits line and each reg line, then one line per gate of a
    flat gate stream, or one "\\n"-joined string per batch of a batch
    stream. Header lines become comments. The flat form stays because the
    benchmark's certifier (``perfbench/certify.py``) passes flat gates and
    hashes one line per gate."""
    for line in header:
        yield f"# {line}" if line else "#"
    yield f"qubits {width}"
    for name, (start, length) in registers.items():
        yield f"reg {name} {start} {length}"
    flat, items = _peek_flat(gates)
    if flat:
        for g in items:
            if len(g) == 3:
                yield f"ccx {g[0]} {g[1]} {g[2]}"
            else:
                yield f"cx {g[0]} {g[1]}"
        return
    name = _NameTable(str).__getitem__
    for a, b, t in items:
        if t:  # an empty batch writes no line, as an empty flat stream
            if b is None:
                cols = zip(repeat("cx"), map(name, a), map(name, t))
            else:
                cols = zip(repeat("ccx"), map(name, a), map(name, b), map(name, t))
            yield "\n".join(map(" ".join, cols))


def emit(c: Circuit, header: Iterable[str] = ()) -> str:
    return "\n".join(emit_lines(c.width, c.registers, c.gates, header)) + "\n"


class Netlist(NamedTuple):
    """A netlist as it is read: the header, checked, and the gates still to
    come, a one-pass stream of column batches that the gate rule checks as
    it is drawn."""

    width: int
    registers: dict[str, tuple[int, int]]
    batches: Iterator[Batch]

    @property
    def gates(self) -> Iterator[Gate]:
        """The flat view of ``batches``, drawing on the same one-pass stream."""
        return flat_gates(self.batches)


def _chunks(fh: TextIO) -> Iterator[str]:
    """The text of a file in pieces that each end at a "\\n", drawn READ_SIZE
    characters at a time, so that no line straddles two pieces; whatever
    follows the last "\\n" comes last. The reads of a line longer than one
    read are joined once, when its "\\n" (or the end) comes."""
    parts: list[str] = []
    while data := fh.read(READ_SIZE):
        cut = data.rfind("\n") + 1
        if cut:
            parts.append(data[:cut])
            yield "".join(parts)
            parts = [data[cut:]]
        else:
            parts.append(data)
    if tail := "".join(parts):
        yield tail


def _tokens(raw: str) -> list[str]:
    """The tokens of a line once its comment is cut off."""
    return (raw.split("#", 1)[0] if "#" in raw else raw).split()


def read_netlist(fh: TextIO) -> Netlist:
    """Read the header of a netlist file and stream its gates.

    The header (the qubits line and the reg lines before the first gate) is
    read now and its registers go through the register rule. The gates are
    read as ``Netlist.batches`` is drawn, each through the gate rule, so no
    more than one read of the file is held at a time. The reader checks the
    format only: the header, directive names, arity, integer tokens,
    register order and duplicate register names. Raises ParseError carrying
    the 1-based line number of the first line that is malformed or holds a
    gate or register that breaks a rule, except that the registers are
    checked when the header ends.
    """
    chunks = _chunks(fh)
    lineno = 0
    width: Optional[int] = None
    registers: dict[str, tuple[int, int]] = {}
    reg_lines: list[int] = []
    rest = ""  # the text from the first gate line (or line the gate reader refuses) on
    for chunk in chunks:
        pos = 0
        while pos < len(chunk):
            end = chunk.find("\n", pos) + 1 or len(chunk)
            toks = _tokens(chunk[pos:end])
            if toks and width is not None and toks[0] != "reg":
                rest = chunk[pos:]
                break
            pos = end
            lineno += 1
            if not toks:
                continue
            if width is None:
                if toks[0] != "qubits":
                    raise ParseError("netlist must start with a qubits line", lineno)
                if len(toks) != 2:
                    raise ParseError("qubits line takes exactly one count", lineno)
                try:
                    width = int(toks[1])
                except ValueError:
                    raise ParseError(f"bad qubit count {toks[1]!r}", lineno) from None
                if width < 1:
                    raise ParseError("qubit count must be positive", lineno)
                continue
            if len(toks) != 4:
                raise ParseError("reg line needs: reg <name> <start> <len>", lineno)
            if toks[1] in registers:
                raise ParseError(f"duplicate register {toks[1]}", lineno)
            try:
                registers[toks[1]] = (int(toks[2]), int(toks[3]))
            except ValueError:
                raise ParseError("register bounds must be integers", lineno) from None
            reg_lines.append(lineno)
        if rest:
            break
    if width is None:
        raise ParseError("empty netlist: missing qubits line", 1)
    try:
        registers = validated_registers(registers, width)
    except CircuitRuleError as e:
        raise ParseError(str(e), reg_lines[e.index]) from None
    return Netlist(width, registers, _gate_batches(chain((rest,), chunks), lineno, width))


# A piece of strict gate lines: "ccx a b t" or "cx c t", single spaces,
# wires in decimal without a sign or leading zero, each line ended by "\n".
_WIRE = "(?:[1-9][0-9]*|0)"
_STRICT_GATE_LINES = re.compile(f"(?:(?:ccx {_WIRE}|cx) {_WIRE} {_WIRE}\n)*")
_KIND_RUNS = re.compile(r"(?:ccx [^\n]*\n)+|(?:cx [^\n]*\n)+")


def _strict_batches(chunk: str, wires: _NameTable) -> Optional[list[Batch]]:
    """The gates of a piece of strict gate lines as column batches, one per
    same-kind run, or None unless the piece is strict lines only and every
    batch passes the gate rule unchanged: then the line reader would yield
    the same gates. ``wires`` is the reader's name-to-wire table; looking a
    token up in it is the range check, so the column check left is
    ``_shape_passes``."""
    if not _STRICT_GATE_LINES.fullmatch(chunk):
        return None
    batches: list[Batch] = []
    wire = wires.__getitem__
    for run in _KIND_RUNS.findall(chunk):
        toks = run.split()
        step = 4 if toks[0] == "ccx" else 3  # tokens per line
        del toks[::step]
        try:
            cols = list(map(wire, toks))
        except (KeyError, ValueError):  # a wire past the width, or too long for int()
            return None
        if step == 4:
            batch: Batch = (cols[0::3], cols[1::3], cols[2::3])
        else:
            batch = (cols[0::2], None, cols[1::2])
        if not _shape_passes(batch):
            return None
        batches.append(batch)
    return batches


def _gate_batches(chunks: Iterator[str], lineno: int, width: int) -> Iterator[Batch]:
    """The gates of the pieces after the header (the first starting at line
    lineno + 1), as column batches. A piece of strict gate lines that passes
    the column check is cut into columns whole; any other piece is read line
    by line through the gate rule, which raises the ParseError of its first
    bad line."""
    wires = _NameTable(partial(_wire_named, width))
    for chunk in chunks:
        batches = _strict_batches(chunk, wires)
        if batches is None:
            yield from gate_runs(_gate_lines(chunk.split("\n"), lineno, width))
        else:
            yield from batches
        lineno += chunk.count("\n")


def _gate_lines(lines: Iterable[str], lineno: int, width: int) -> Iterator[Gate]:
    """The gate of every gate line, each through the gate rule on its own
    line, so a malformed line or a gate the rule refuses raises a ParseError
    carrying that line's number."""
    for raw in lines:
        lineno += 1
        toks = _tokens(raw)
        if not toks:
            continue
        op = toks[0]
        if op == "ccx":
            if len(toks) != 4:
                raise ParseError("ccx needs exactly 3 wires", lineno)
        elif op == "cx":
            if len(toks) != 3:
                raise ParseError("cx needs exactly 2 wires", lineno)
        elif op == "reg":
            raise ParseError("register lines must precede gates", lineno)
        elif op == "qubits":
            raise ParseError("duplicate qubits line", lineno)
        else:
            raise ParseError(f"unknown directive {op!r}", lineno)
        try:
            gate = tuple(map(int, toks[1:]))
        except ValueError:
            raise ParseError(f"expected wire indices, got {toks[1:]}", lineno) from None
        try:
            gate = next(validated_gates((gate,), width))
        except CircuitRuleError as e:
            raise ParseError(str(e), lineno) from None
        yield gate


def parse(text: str) -> Circuit:
    """Parse the netlist format back into a Circuit: ``read_netlist`` over
    the text, with the same ParseError line numbers. ``parse(emit(c)) == c``
    for every valid circuit."""
    netlist = read_netlist(io.StringIO(text))
    return Circuit(netlist.width, netlist.gates, netlist.registers)
