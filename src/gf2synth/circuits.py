"""Reversible-circuit intermediate representation.

A circuit is a wire count, a flat gate sequence (CNOT / Toffoli only, both
self-inverse), and an optional named register map. A gate is the plain
tuple of its wires, as a netlist line names them: ``(control, target)`` for
a CNOT, ``(control_a, control_b, target)`` for a Toffoli. Depth is defined
by greedy as-soon-as-possible layering: gates are taken in sequence order
and each is placed in the earliest layer where all of its wires are free.
``toffoli_depth`` applies the same rule to the Toffoli subsequence with
CNOTs transparent.

Two rules say what a circuit may hold, each written once, here:
``validated_gates`` (a CNOT has two distinct wires, a Toffoli three, all in
0..width-1; Toffoli controls are stored lower-first) and
``validated_registers`` (a name is one token the netlist format can carry
and is not repeated, a span is non-empty and inside the width, spans do not
overlap). Both rules take streams and check each item as it is drawn: the
gate rule yields each gate as it checks it, so a checked gate stream costs
no memory, and ``Circuit`` stores what it yields as a tuple; the register
rule takes (name, span) pairs and builds the register map.
``batch_passes`` is the column check: it says whether a whole column batch
passes the gate rule as it stands, a few C-level passes per column, and
anything it refuses goes to the gate rule itself, which normalizes it or
names the gate at fault. It tells distinct wires by register ranges: when
every control lies below every target, or above every target, each gate's
wires are distinct, and only a batch whose control and target spans meet
has its targets compared with their controls gate by gate. A generated
block's controls sit in its source and operand registers and its targets
in a later one, so the spans alone decide every batch of the inverter.
``validated_batches`` is the gate rule on a batch stream, built that way.
``Circuit`` and the netlist reader both go through these rules, and
``multipliers.block_window`` checks each block's register layout with the
second. The streamed consumers (``layer_batches``, ``measure_stream``,
``run_packed``) trust their gates: ``multipliers.block_batches`` emits
valid gates whenever that per-block precondition holds.

Netlist text is read by one reader, ``read_netlist``: it pulls a file
READ_SIZE characters at a time, cut after the last "\n" of each read,
reads the header through the line scanner ``_lines``, each reg line
through the register rule as it is read, and then yields the gates as
column batches, one per same-kind run of a read, as they are drawn, so a
file of any length is read in constant memory. Whether a read is gate
lines only is told by counts on its ``str.split`` tokens, not by matching
it whole: per same-kind run of n lines of directive ``op``,
the run starts with ``op`` and a space and ends with "\n", has step * n
tokens (step 3 for ``cx``, 4 for ``ccx``), every step-th of them is
``op``, and its other n - 1 "\n" are each followed by ``op``; a read that
holds both kinds must be covered by its runs (``_strict_batches``). The
wire tokens of each run are looked up in a name-to-wire table and cut into
columns by slicing, and its batches go through the width-free part of the
column check. Those lines are the line reader's lines with the same
tokens, so wire tokens ``int`` reads but that are not plain decimal
(``+5``, ``007``, ``1_0``, non-ASCII digits), a "\r" before the "\n" and a
tab or other separator between wire tokens may take this path, with the
same result. Any other read (comments, blank or indented lines, a
last line without "\n"), or one the table or the check refuses, goes line
by line (``_lines`` again) through the gate rule, so every ParseError keeps
its text and line number. In the header as among the gates, the first bad
line is the one reported, and no read past the one that holds it is made.
``Netlist.gates`` is the flat view, and ``parse`` is a ``Circuit`` over the
reader.

Wire names are looked up, not converted, in both directions. The reader
goes through a wire-name table (``_NameTable``) that maps a token to its
wire, calling ``int`` and refusing a wire outside 0..width-1 the first time
it sees the token, so a lookup is the range check. A netlist has few
distinct wires however many gates it has, so almost every token costs one
dict lookup, and the table stores at most NAME_TABLE_SIZE names, only
those it has seen, so its size never follows the width. ``emit_lines``
names the wires of a batch through tables built once per netlist for the
wires 0..k-1, k = min(width, NAME_TABLE_SIZE): one of their names, and one
per directive of each name followed by "\n" and that directive, for the
targets. Each column is named by one ``gather`` (an ``itemgetter`` call, in
C), the columns are laid into one token list by slice assignment and
joined once; a column holding a wire the tables lack is named by ``str``,
wire by wire.

Gates travel as column batches (``Batch``) from generator to file and
back: one run of a single gate kind as equal-length wire lists
``(controls_a, controls_b, targets)``, with ``controls_b`` None for a run
of CNOTs. ``multipliers.block_batches`` produces them stage by stage,
``emit_lines`` writes one string per batch, the reader yields them, and
``measure_stream`` and ``run_packed`` read them as they come, with no gate
tuple built. ``run_packed`` takes batches only; ``measure_stream`` and
``emit_lines`` also take a flat gate stream, the form the benchmark's
certifier hands them. ``flat_gates`` is the flat view, the
wire tuples that ``Circuit`` holds, zipped out of the columns; ``gate_runs``
cuts a flat sequence back into batches, its exact transpose.

Simulation is bit-sliced: one Python int per wire, bit b of that int holding
wire's value for input pattern b, so a whole batch of inputs costs a single
pass over the gates. There is one route: ``pack_patterns`` builds the state,
``run_packed`` applies the gates and ``register_values`` reads the
patterns' values of a register back, from any pattern on. The two ends are
one bit-matrix transpose at C speed, ``_transpose``, PACK_SLICE patterns at
a time: patterns (or wire ints) become fixed-width binary strings, ``zip``
turns their columns out, and ``int(column, 2)`` reads each column, so no
loop runs per (pattern, bit) pair. ``verify`` checks the packed state
itself, the ghost-bit inverse included, and reads back only its first
failing pattern; ``simulate`` runs the route on a ``Circuit``'s gates, cut
by ``gate_runs``, with whole-width ints (bit w is wire w) in and out.
T-gate figures use the standard 7 T / T-depth 6 decomposition of the
Toffoli.
"""

from __future__ import annotations

import io
import os
import re
from bisect import bisect
from collections.abc import Sized
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, groupby, islice
from operator import itemgetter, lt, ne
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, TextIO, Union

from .errors import CircuitRuleError, ParseError

Gate = tuple[int, ...]  # (control, target) or (control_a, control_b, target)
# One run of gates of one kind as equal-length wire columns (controls_a,
# controls_b, targets): gate i is the Toffoli (a[i], b[i], t[i]), or the
# CNOT (a[i], t[i]) when the middle column is None.
Batch = tuple[Sequence[int], Optional[Sequence[int]], Sequence[int]]
RUN_CHUNK = 1 << 8  # gates per batch when gate_runs cuts a flat stream; fastest of 2^6..2^12
# Characters per read when a netlist file is streamed. The wire tokens of a
# whole read are held at once, so reads are kept small: at 1 << 16 they
# raised the peak RSS of reading the m=163 inverter back by about 3.5 MB.
READ_SIZE = 1 << 12
# Bytes per read when ``reversed_lines`` copies written lines back. One read
# and its split lines are held at a time: writing the m=163 inverter peaked
# at 22.5 MB max RSS with reads of 1 << 18, 17.9 MB with 1 << 16 and 17.5 MB
# with 1 << 14 or 1 << 12, as without the copy, in about the same time.
COPY_SIZE = 1 << 14
# Entries the reader's wire-name table stores before it converts without
# storing: it grows only with the distinct wires it sees, never with the
# width. The writer's name tables cover the wires 0..k-1, k at most this.
NAME_TABLE_SIZE = 1 << 14
# Patterns packed or read back per transpose: one slice's binary strings are
# held at a time, however many patterns a batch has.
PACK_SLICE = 1 << 12

T_PER_TOFFOLI = 7
T_DEPTH_PER_TOFFOLI = 6

UNBOUNDED = float("inf")  # the width of a register map that belongs to no circuit yet


def validated_gates(gates: Iterable[Gate], width: Union[int, float]) -> Iterator[Gate]:
    """The gate rule, in one loop: every gate is a CNOT of two or a Toffoli
    of three distinct wires in 0..width-1. Yields the gates as they are
    drawn, as plain tuples with Toffoli controls lower-first; raises
    CircuitRuleError at the first gate that breaks the rule."""
    for i, g in enumerate(gates):
        n = len(g)
        if n == 3:
            a, b, t = g
            if a != b != t != a and 0 <= a < width and 0 <= b < width and 0 <= t < width:
                yield (a, b, t) if a < b else (b, a, t)
                continue
        elif n == 2:
            c, t = g
            if c != t and 0 <= c < width and 0 <= t < width:
                yield (c, t)
                continue
        raise CircuitRuleError(
            f"gate {tuple(g)} is not 2 or 3 distinct wires in 0..{width - 1}", i
        )


def batch_passes(batch: Batch, width: Union[int, float]) -> bool:
    """The gate rule on a whole column batch at once: True when every gate
    of the batch passes ``validated_gates`` unchanged (columns of one
    length, wires in 0..width-1, distinct, Toffoli controls already
    lower-first). False says only that some gate does not; the gate rule
    decides which one, and how. Once every a is below its b, the controls
    span min(a)..max(b); when that span lies wholly below or above the
    targets' span, every gate's wires are distinct."""
    a, b, t = batch
    n = len(t)
    if len(a) != n or b is not None and len(b) != n:
        return False
    if not n:
        return True
    if b is None:
        low, high = min(a), max(a)
    elif all(map(lt, a, b)):
        low, high = min(a), max(b)
    else:
        return False
    t_low, t_high = min(t), max(t)
    return (
        low >= 0 and t_low >= 0 and high < width and t_high < width
        and (high < t_low or low > t_high or _targets_apart(batch))
    )


def _shape_passes(batch: Batch) -> bool:
    """The part of ``batch_passes`` that needs no width, on a non-empty
    batch of equal-length columns: the wires of each gate are distinct and
    Toffoli controls come lower-first (so a control b is never below 0 when
    its a is not). Controls below the targets are told by two passes."""
    a, b, t = batch
    if b is None:
        high = max(a)
    elif all(map(lt, a, b)):
        high = max(b)
    else:
        return False
    return high < min(t) or min(a) > max(t) or _targets_apart(batch)


def _targets_apart(batch: Batch) -> bool:
    """Every gate's target differs from its controls, compared gate by
    gate: the column check's fallback when the control and target spans
    meet."""
    a, b, t = batch
    return all(map(ne, a, t)) and (b is None or all(map(ne, b, t)))


def validated_batches(batches: Iterable[Batch], width: Union[int, float]) -> Iterator[Batch]:
    """The gate rule on a stream of column batches. A batch that passes
    ``batch_passes`` is yielded as it is; any other goes gate by gate through
    ``validated_gates``, which yields it normalized (re-cut into batches) or
    raises CircuitRuleError carrying the gate's index in the whole stream.
    A batch whose columns differ in length raises at its first gate."""
    done = 0
    for batch in batches:
        if batch_passes(batch, width):
            yield batch
        else:
            lengths = [len(col) for col in batch if col is not None]
            if len(set(lengths)) > 1:
                raise CircuitRuleError(f"batch columns differ in length: {lengths}", done)
            try:
                gates = list(validated_gates(flat_gates((batch,)), width))
            except CircuitRuleError as e:
                raise CircuitRuleError(str(e), done + e.index) from None
            yield from gate_runs(gates)
        done += len(batch[2])


def validated_registers(
    registers: Iterable[tuple[str, tuple[int, int]]], width: Union[int, float]
) -> dict[str, tuple[int, int]]:
    """The register rule on (name, (start, length)) pairs, in the order
    given: each name is one token without '#' (what a netlist line can
    carry) and not a repeat of an earlier one, each span is non-empty and
    inside 0..width-1, and no span overlaps an earlier one. Each pair is
    checked as it is drawn, so a stream is read no further than its first
    bad pair; raises CircuitRuleError carrying that pair's index. Returns
    the register map."""
    clean: dict[str, tuple[int, int]] = {}
    taken: list[tuple[int, int, str]] = []  # accepted spans, disjoint and sorted
    for i, (name, (start, length)) in enumerate(registers):
        end = start + length
        k = bisect(taken, (start, end))
        if name in clean:
            problem = f"duplicate register {name}"
        elif name.split() != [name] or "#" in name:
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


@dataclass(frozen=True, eq=True)
class Circuit:
    """Immutable gate list over ``width`` wires with named register spans.
    ``gates`` may be any iterable of wire tuples or lists; it is validated
    and stored once, as a tuple of plain tuples."""

    width: int
    gates: tuple[Gate, ...]
    registers: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be positive")
        object.__setattr__(self, "registers", validated_registers(self.registers.items(), self.width))
        object.__setattr__(self, "gates", tuple(validated_gates(self.gates, self.width)))


@dataclass(frozen=True)
class ResourceEstimate:
    """Gate counts and depths of a circuit; T figures derive from Toffolis."""

    toffoli_count: int
    cnot_count: int
    depth: int
    toffoli_depth: int
    qubits: int

    @property
    def gate_count(self) -> int:
        return self.toffoli_count + self.cnot_count

    @property
    def t_count(self) -> int:
        return T_PER_TOFFOLI * self.toffoli_count

    @property
    def t_depth(self) -> int:
        return T_DEPTH_PER_TOFFOLI * self.toffoli_depth

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
    """The flat view of column batches: their gates in order, as the wire
    tuples their columns zip to. The exact transpose of ``gate_runs``."""
    for a, b, t in batches:
        yield from zip(a, t) if b is None else zip(a, b, t)


def gather(values: Sequence, col: Sequence[int]) -> Sequence:
    """values[i] for each index i of ``col``, in order, gathered in C by one
    ``itemgetter`` call. A one-index column still gives a sequence:
    ``itemgetter(i)`` on its own returns the bare item."""
    if len(col) > 1:
        return itemgetter(*col)(values)
    return [values[i] for i in col]


def _peek_flat(stream: Iterable[Union[Batch, Gate]]) -> tuple[bool, Iterator]:
    """Whether a stream holds flat gates rather than column batches, and the
    stream itself, whole. The first item's shape tells: a batch starts with
    a column, which has a length, and a gate with a wire, which has none,
    whatever int-like type it is."""
    items = iter(stream)
    first = next(items, None)
    if first is None:
        return False, items
    return not isinstance(first[0], Sized), chain((first,), items)


def layer_batches(
    batches: Iterable[Batch], ready: list[int], tof_ready: list[int]
) -> tuple[int, int]:
    """Greedy ASAP layering of column batches onto the caller's per-wire
    counters: ``ready[w]`` is the earliest free layer of wire w, and
    ``tof_ready[w]`` the same counting only Toffolis. Both lists are advanced
    in place, one gate at a time in stream order, so the result is exact
    whether or not a batch is wire-disjoint. Returns (Toffolis, CNOTs)."""
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
    return n_tof, n_cnot


def measure_stream(width: int, stream: Iterable[Union[Batch, Gate]]) -> ResourceEstimate:
    """Single-pass resource count over column batches (nothing is stored).

    ``synth`` and ``table`` measure ``add`` this way (the inverter and the
    multipliers are layered block by block by ``inverters.layer_block``,
    which this function is the reference for): the greedy layering
    (``layer_batches``) needs one per-wire counter. A flat gate stream is
    accepted too and cut into runs by ``gate_runs``: the benchmark's
    certifier (``perfbench/certify.py``) measures flat gates.
    """
    flat, batches = _peek_flat(stream)
    if flat:
        batches = gate_runs(batches)
    ready = [0] * width
    tof_ready = [0] * width
    n_tof, n_cnot = layer_batches(batches, ready, tof_ready)
    return ResourceEstimate(
        n_tof, n_cnot, max(ready, default=0), max(tof_ready, default=0), width
    )


def resources(c: Circuit) -> ResourceEstimate:
    return measure_stream(c.width, gate_runs(c.gates))


# ---------------------------------------------------------------------------
# simulation


def run_packed(batches: Iterable[Batch], state: list[int]) -> list[int]:
    """Apply column batches to a bit-sliced state in place (state[w] packs
    wire w across all patterns), gate by gate in stream order. Gates are
    trusted; callers validate beforehand. It takes column batches only; a
    caller with a flat gate list turns it into batches with ``gate_runs``."""
    for ca, cb, ct in batches:
        if cb is None:
            for c, t in zip(ca, ct):
                state[t] ^= state[c]
        else:
            for a, b, t in zip(ca, cb, ct):
                state[t] ^= state[a] & state[b]
    return state


def _transpose(rows: Iterable[int], bits: int) -> list[int]:
    """The bit-matrix transpose at C speed: each row, cut to its low
    ``bits`` bits, becomes a fixed-width binary string, ``zip`` turns the
    strings' columns out, and ``int(column, 2)`` reads each column. Returns
    one int per bit position, top bit first, whose binary digits are that
    bit of each row, the first row the top digit."""
    mask = (1 << bits) - 1
    row = f"{{:0{bits}b}}".format
    return [int(column, 2) for column in map("".join, zip(*[row(r & mask) for r in rows]))]


def pack_patterns(width: int, wires: Sequence[int], patterns: Iterable[int]) -> list[int]:
    """Bit-sliced state for a batch: bit i of the b-th pattern sits on wire
    wires[i] in pattern slot b; every other wire, and every pattern bit at or
    above len(wires), is zero. Built by ``_transpose``, PACK_SLICE patterns
    at a time, each slice's columns ORed in at its offset."""
    state = [0] * width
    top_first = list(reversed(wires))  # columns come out top bit first
    items = iter(patterns)
    offset = 0
    while chunk := list(islice(items, PACK_SLICE)):
        # last pattern first, so that each column's bit k is pattern slot k
        for wire, column in zip(top_first, _transpose(reversed(chunk), len(wires))):
            state[wire] |= column << offset
        offset += len(chunk)
    return state


def register_values(
    state: Sequence[int], count: int, start: int, length: int, first: int = 0
) -> list[int]:
    """Every pattern's value of the register on wires start..start+length-1,
    for patterns first..first+count-1: the transpose of ``pack_patterns``,
    by ``_transpose``, PACK_SLICE patterns at a time."""
    wires = range(start + length - 1, start - 1, -1)  # top bit first
    values: list[int] = []
    end = first + count
    for offset in range(first, end, PACK_SLICE):
        # columns come out top slot first, so last pattern first
        columns = _transpose([state[w] >> offset for w in wires], min(PACK_SLICE, end - offset))
        values += reversed(columns)
    return values


def simulate(c: Circuit, inputs: Sequence[int]) -> list[int]:
    """Basis-state outputs of a circuit, all inputs in one bit-sliced pass.
    Each input and output is a whole-width int whose bit w is wire w; an
    input outside 0..2^width - 1 is rejected."""
    for v in inputs:
        if not 0 <= v < 1 << c.width:
            raise ValueError(f"input {v!r} outside 0..2^{c.width} - 1")
    state = run_packed(gate_runs(c.gates), pack_patterns(c.width, range(c.width), inputs))
    return register_values(state, len(inputs), 0, c.width)


# ---------------------------------------------------------------------------
# netlist text format
#
#   # optional comments (full line or trailing)
#   qubits <N>
#   reg <name> <start> <len>      (zero or more, before any gate)
#   cx <control> <target>
#   ccx <control> <control> <target>


class _NameTable(dict):
    """The reader's map from wire names to wires (see the module
    docstring): a key is converted the first time it is looked up, and
    stored while the table holds fewer than NAME_TABLE_SIZE entries; past
    that it is converted on every lookup."""

    def __init__(self, convert):
        super().__init__()
        self.convert = convert

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < NAME_TABLE_SIZE:
            self[key] = value
        return value


def _wire_named(width: int, name: str) -> int:
    """The wire a name stands for, read by ``int`` as the line reader reads
    it; KeyError when the wire is outside 0..width-1, ValueError when
    ``int`` refuses the name."""
    wire = int(name)
    if not 0 <= wire < width:
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
    # dicts, not lists: a list would also answer a negative wire, with the
    # name of the wire a whole list length above it
    wires = range(min(width, NAME_TABLE_SIZE))
    names = {w: str(w) for w in wires}
    # a target's name with the "\n" and the directive of the line after it
    tails = {op: {w: f"{w}\n{op}" for w in wires} for op in ("cx", "ccx")}
    for a, b, t in items:
        if t:  # an empty batch writes no line, as an empty flat stream
            op, controls = ("cx", (a,)) if b is None else ("ccx", (a, b))
            step = len(controls) + 1
            # op, then each gate's wires, each target carrying the next line's
            # op; the op after the last target is cut off the joined string
            tokens = [op] * (step * len(t) + 1)
            for i, col in enumerate(controls, 1):
                tokens[i::step] = _names(names, str, col)
            tokens[step::step] = _names(tails[op], f"{{}}\n{op}".format, t)
            yield " ".join(tokens)[: -len(op) - 1]


def _names(table: dict[int, str], name, col: Sequence[int]) -> Sequence[str]:
    """The names of a column's wires: gathered from ``table`` (see
    ``emit_lines``), or made by ``name`` wire by wire when the table lacks
    some wire of the column."""
    try:
        return gather(table, col)
    except KeyError:
        return list(map(name, col))


def emit(c: Circuit, header: Iterable[str] = ()) -> str:
    return "\n".join(emit_lines(c.width, c.registers, c.gates, header)) + "\n"


class Netlist(NamedTuple):
    """A netlist as a stream: the header, and the gates still to come, a
    one-pass stream of column batches (from ``read_netlist``, checked by the
    gate rule as they are drawn, or from a synthesizer)."""

    width: int
    registers: dict[str, tuple[int, int]]
    batches: Iterator[Batch]

    @property
    def gates(self) -> Iterator[Gate]:
        """The flat view of ``batches`` (``flat_gates``: one wire tuple per
        gate), drawing on the same one-pass stream."""
        return flat_gates(self.batches)


def _chunks(fh: TextIO) -> Iterator[str]:
    """The text of a file in pieces that each end at a "\\n", drawn READ_SIZE
    characters at a time, so that no line straddles two pieces; whatever
    follows the last "\\n" comes last. The reads of a line longer than one
    read are joined once, when its "\\n" (or the end) comes, and let go
    before the joined piece is yielded, so a piece is held once."""
    parts: list[str] = []
    while data := fh.read(READ_SIZE):
        cut = data.rfind("\n") + 1
        if cut:
            parts.append(data[:cut])
            piece = "".join(parts)
            parts = [data[cut:]]
            yield piece
        else:
            parts.append(data)
    if tail := "".join(parts):
        parts.clear()
        yield tail


def reversed_lines(fd: int, start: int, end: int) -> Iterator[bytes]:
    """The lines of bytes start..end of the file open at ``fd`` (a range that
    starts a line and ends at a "\\n"), last line first: read back with
    ``os.pread`` COPY_SIZE bytes at a time from the end, each piece the
    whole lines of a read in reverse order. The start of a line that began
    in an earlier read is carried over to it, so a piece holds whole lines
    only. A read that comes back short (the file was cut meanwhile) raises
    OSError."""
    carry = b""
    while end > start:
        pos = max(start, end - COPY_SIZE)
        data = os.pread(fd, end - pos, pos)
        if len(data) != end - pos:
            raise OSError(f"file changed while its bytes {pos}..{end} were read back")
        data += carry
        end = pos
        # bytes up to the first "\n" (all of them if none) end a line that
        # began in an earlier read, unless this read is the first of the range
        cut = 0 if end == start else data.find(b"\n") + 1 or len(data)
        carry = data[:cut]
        if cut < len(data):
            lines = data[cut:-1].split(b"\n")
            lines.reverse()
            yield b"\n".join(lines) + b"\n"


def _lines(chunks: Iterable[str], lineno: int = 0) -> Iterator[tuple[int, list[str], str, int]]:
    """Every non-blank line of the pieces, numbered on from ``lineno``, as
    (line number, tokens, piece, start of the line in the piece). A line's
    tokens are those before its comment, which is cut by index, so it is
    never copied; a line with no tokens is blank."""
    for chunk in chunks:
        pos = 0
        while pos < len(chunk):
            end = chunk.find("\n", pos) + 1 or len(chunk)
            lineno += 1
            cut = chunk.find("#", pos, end)
            if toks := chunk[pos : end if cut < 0 else cut].split():
                yield lineno, toks, chunk, pos
            pos = end


def read_netlist(fh: TextIO) -> Netlist:
    """Read the header of a netlist file and stream its gates.

    The header (the qubits line and the reg lines before the first gate) is
    read now, each reg line through the register rule as it is read. The
    gates are read as ``Netlist.batches`` is drawn, each through the gate
    rule, so no more than one read of the file is held at a time. The
    reader checks the format only: the header, directive names, arity,
    integer tokens and register order. Raises ParseError carrying the
    1-based line number of the first line that is malformed or holds a gate
    or register that breaks a rule; no read past the one holding that line
    is made.
    """
    chunks = _chunks(fh)
    lines = _lines(chunks)
    first = next(lines, None)
    if first is None:
        raise ParseError("empty netlist: missing qubits line", 1)
    lineno, toks, _, _ = first
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
    rest = ""  # the text from the first gate line (or line the gate reader refuses) on

    def reg_pairs() -> Iterator[tuple[str, tuple[int, int]]]:
        nonlocal lineno, rest
        for lineno, toks, piece, start in lines:
            if toks[0] != "reg":
                rest, lineno = piece[start:], lineno - 1
                return
            if len(toks) != 4:
                raise ParseError("reg line needs: reg <name> <start> <len>", lineno)
            try:
                span = (int(toks[2]), int(toks[3]))
            except ValueError:
                raise ParseError("register bounds must be integers", lineno) from None
            yield toks[1], span

    try:
        registers = validated_registers(reg_pairs(), width)
    except CircuitRuleError as e:  # raised on the pair just drawn, at line lineno
        raise ParseError(str(e), lineno) from None
    return Netlist(width, registers, _gate_batches(chain((rest,), chunks), lineno, width))


# The same-kind runs of lines of a piece that holds both gate kinds.
_KIND_RUNS = re.compile(r"(?:ccx [^\n]*\n)+|(?:cx [^\n]*\n)+")


def _strict_batches(chunk: str, wires: _NameTable) -> Optional[list[Batch]]:
    """The gates of a piece of gate lines as column batches, one per
    same-kind run, or None unless the line reader would yield the same
    gates from it. A run of n lines of directive ``op`` (4 tokens per
    ``ccx`` line, 3 per ``cx`` line) passes when it starts with ``op + " "``
    and ends with "\\n", its ``str.split`` tokens number step * n, every
    step-th of them is ``op``, and each of its other n - 1 "\\n" is followed
    by ``op``. Then every line starts with a token that begins with ``op``;
    ``int`` refuses such a token, so once every wire token has passed
    ``int`` the line starts are exactly the n directive slots, and each line
    is ``op`` and its wires, the line reader's tokens in its order (a "#"
    would sit in some token, and neither ``op`` nor ``int`` takes one, so
    no comment is cut). A piece that holds both kinds is cut into runs
    by ``_KIND_RUNS``, and the runs must cover it. ``wires`` is the reader's
    name-to-wire table; looking a token up in it is ``int`` and the range
    check, so the column check left is ``_shape_passes``."""
    if chunk.startswith("cx "):
        mixed = "\nccx " in chunk
    else:
        mixed = "\ncx " in chunk
    runs = _KIND_RUNS.findall(chunk) if mixed else (chunk,)
    if mixed and sum(map(len, runs)) != len(chunk):
        return None
    batches: list[Batch] = []
    wire = wires.__getitem__
    for run in runs:
        op, step = ("ccx", 4) if run.startswith("ccx ") else ("cx", 3)
        n = run.count("\n")
        toks = run.split()
        if not (
            run.startswith(op + " ")
            and run.endswith("\n")
            and len(toks) == step * n
            and toks[::step].count(op) == n
            and run.count("\n" + op) == n - 1
        ):
            return None
        del toks[::step]
        try:
            cols = list(map(wire, toks))
        except (KeyError, ValueError):  # a wire outside 0..width-1, or a token int() refuses
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
            yield from gate_runs(_gate_lines(_lines((chunk,), lineno), width))
            lineno += chunk.count("\n")
        else:
            yield from batches
            lineno += sum(len(t) for _, _, t in batches)  # one gate per strict line


def _gate_lines(lines: Iterable[tuple[int, list[str], str, int]], width: int) -> Iterator[Gate]:
    """The gate of every line ``_lines`` yields, each through the gate rule
    on its own line, so a malformed line or a gate the rule refuses raises a
    ParseError carrying that line's number."""
    for lineno, toks, _, _ in lines:
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
