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
a span is non-empty and inside the width, spans do not overlap).
``Circuit``, the gate factories and ``parse`` all go through them, and the
multiplier cores check their register layout with the second. The streamed
consumers (``measure_stream``, ``run_packed``) trust their gates: the cores
emit valid gates whenever that per-block precondition holds.

Generated gates travel as column batches (``Batch``): one run of a single
gate kind as equal-length wire lists ``(controls_a, controls_b, targets)``,
with ``controls_b`` None for a run of CNOTs. The multiplier cores produce
them stage by stage and ``measure_stream`` reads them as they come, with no
gate tuple built. ``flat_gates`` is the flat view, the ``Cnot``/``Toffoli``
sequence that ``Circuit``, emit and ``run_packed`` use; ``gate_runs`` cuts a
flat sequence back into batches.

Simulation is bit-sliced: one Python int per wire, bit b of that int holding
wire's value for input pattern b, so a whole batch of inputs costs a single
pass over the gates. There is one route: ``pack_patterns`` builds the state,
``run_packed`` applies the gates and ``register_value`` reads a pattern
back. ``verify`` drives it register by register; ``simulate`` runs it on a
``Circuit`` with whole-width ints (bit w is wire w) in and out. T-gate
figures use the standard 7 T / T-depth 6 decomposition of the Toffoli.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import CircuitRuleError, ParseError


class Cnot(NamedTuple):
    control: int
    target: int


class Toffoli(NamedTuple):
    control_a: int
    control_b: int
    target: int


Gate = Union[Cnot, Toffoli]

# One run of gates of one kind as equal-length wire columns (controls_a,
# controls_b, targets): gate i is Toffoli(a[i], b[i], t[i]), or Cnot(a[i], t[i])
# when the middle column is None.
Batch = tuple[Sequence[int], Optional[Sequence[int]], Sequence[int]]
RUN_CHUNK = 1 << 8  # gates per batch when gate_runs cuts a flat stream; fastest of 2^6..2^12

T_PER_TOFFOLI = 7
T_DEPTH_PER_TOFFOLI = 6

UNBOUNDED = float("inf")  # the width of a gate or register that belongs to no circuit yet


def validated_gates(gates: Iterable[Gate], width: Union[int, float]) -> tuple[Gate, ...]:
    """The gate rule, in one loop: every gate is a CNOT of two or a Toffoli
    of three distinct wires in 0..width-1. Returns the gates as Cnot and
    Toffoli tuples with Toffoli controls lower-first; raises CircuitRuleError
    at the first gate that breaks the rule."""
    out: list[Gate] = []
    append = out.append
    for g in gates:
        n = len(g)
        if n == 3:
            a, b, t = g
            if a != b != t != a and 0 <= a < width and 0 <= b < width and 0 <= t < width:
                if a < b:
                    append(g if type(g) is Toffoli else Toffoli(a, b, t))
                else:
                    append(Toffoli(b, a, t))
                continue
        elif n == 2:
            c, t = g
            if c != t and 0 <= c < width and 0 <= t < width:
                append(g if type(g) is Cnot else Cnot(c, t))
                continue
        raise CircuitRuleError(
            f"gate {tuple(g)} is not 2 or 3 distinct wires in 0..{width - 1}", "gate", len(out)
        )
    return tuple(out)


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
        raise CircuitRuleError(problem, "register", i)
    return clean


def cnot(control: int, target: int) -> Cnot:
    return validated_gates((Cnot(control, target),), UNBOUNDED)[0]


def toffoli(control_a: int, control_b: int, target: int) -> Toffoli:
    """Toffoli with controls stored lower-index-first (they commute)."""
    return validated_gates((Toffoli(control_a, control_b, target),), UNBOUNDED)[0]


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
        object.__setattr__(self, "gates", validated_gates(self.gates, self.width))


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


def measure_stream(width: int, stream: Iterable[Union[Batch, Gate]]) -> ResourceEstimate:
    """Single-pass resource count over column batches (nothing is stored).

    This is what the bound checks use for inverters with millions of gates:
    the greedy layering only needs one per-wire counter, so the stream never
    has to be materialized. Gates are applied one at a time in stream order,
    so the count is exact whether or not a batch is wire-disjoint. A flat
    gate stream is accepted too and cut into runs by ``gate_runs``.
    """
    batches = iter(stream)
    first = next(batches, None)
    if first is not None:
        batches = chain((first,), batches)
        if isinstance(first[0], int):  # a flat gate stream
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


def run_packed(gates: Iterable[Gate], state: list[int]) -> list[int]:
    """Apply gates to a bit-sliced state in place (state[w] packs wire w
    across all patterns). Gates are trusted; callers validate beforehand."""
    for g in gates:
        if len(g) == 3:
            state[g[2]] ^= state[g[0]] & state[g[1]]
        else:
            state[g[1]] ^= state[g[0]]
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
    state = run_packed(c.gates, pack_patterns(c.width, range(c.width), inputs))
    return [register_value(state, b, 0, c.width) for b in range(len(inputs))]


# ---------------------------------------------------------------------------
# netlist text format
#
#   # optional comments (full line or trailing)
#   qubits <N>
#   reg <name> <start> <len>      (zero or more, before any gate)
#   cx <control> <target>
#   ccx <control> <control> <target>


def emit_lines(
    width: int,
    registers: dict[str, tuple[int, int]],
    gates: Iterable[Gate],
    header: Iterable[str] = (),
) -> Iterator[str]:
    """Stream netlist lines (no trailing newlines); header lines become comments."""
    for line in header:
        yield f"# {line}" if line else "#"
    yield f"qubits {width}"
    for name, (start, length) in registers.items():
        yield f"reg {name} {start} {length}"
    for g in gates:
        if len(g) == 3:
            yield f"ccx {g[0]} {g[1]} {g[2]}"
        else:
            yield f"cx {g[0]} {g[1]}"


def emit(c: Circuit, header: Iterable[str] = ()) -> str:
    return "\n".join(emit_lines(c.width, c.registers, c.gates, header)) + "\n"


def _directives(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, tokens) of every line that is not blank or a comment."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield lineno, toks


def parse(text: str) -> Circuit:
    """Parse the netlist format back into a Circuit.

    The parser reads the format only: the header, directive names, arity,
    integer tokens, register order and duplicate register names. The gates
    and registers it reads go through the circuit rules once, when the
    Circuit is built. Raises ParseError carrying the 1-based line number of
    the first malformed line, or else of the first gate or register that
    breaks a rule; ``parse(emit(c)) == c`` for every valid circuit.
    """
    width: Optional[int] = None
    registers: dict[str, tuple[int, int]] = {}
    gates: list[Gate] = []
    for lineno, toks in _directives(text):
        op = toks[0]
        if width is None:
            if op != "qubits":
                raise ParseError("netlist must start with a qubits line", lineno)
            if len(toks) != 2:
                raise ParseError("qubits line takes exactly one count", lineno)
            try:
                width = int(toks[1])
            except ValueError:
                raise ParseError(f"bad qubit count {toks[1]!r}", lineno) from None
            if width < 1:
                raise ParseError("qubit count must be positive", lineno)
        elif op == "ccx":
            if len(toks) != 4:
                raise ParseError("ccx needs exactly 3 wires", lineno)
            try:
                gates.append(Toffoli(int(toks[1]), int(toks[2]), int(toks[3])))
            except ValueError:
                raise ParseError(f"expected wire indices, got {toks[1:]}", lineno) from None
        elif op == "cx":
            if len(toks) != 3:
                raise ParseError("cx needs exactly 2 wires", lineno)
            try:
                gates.append(Cnot(int(toks[1]), int(toks[2])))
            except ValueError:
                raise ParseError(f"expected wire indices, got {toks[1:]}", lineno) from None
        elif op == "reg":
            if gates:
                raise ParseError("register lines must precede gates", lineno)
            if len(toks) != 4:
                raise ParseError("reg line needs: reg <name> <start> <len>", lineno)
            if toks[1] in registers:
                raise ParseError(f"duplicate register {toks[1]}", lineno)
            try:
                registers[toks[1]] = (int(toks[2]), int(toks[3]))
            except ValueError:
                raise ParseError("register bounds must be integers", lineno) from None
        elif op == "qubits":
            raise ParseError("duplicate qubits line", lineno)
        else:
            raise ParseError(f"unknown directive {op!r}", lineno)

    if width is None:
        raise ParseError("empty netlist: missing qubits line", 1)
    try:
        return Circuit(width, gates, registers)
    except CircuitRuleError as e:
        ops = ("reg",) if e.kind == "register" else ("cx", "ccx")
        lines = (lineno for lineno, toks in _directives(text) if toks[0] in ops)
        raise ParseError(str(e), next(islice(lines, e.index, None))) from None
