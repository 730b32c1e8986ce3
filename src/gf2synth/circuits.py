"""Reversible-circuit intermediate representation.

A circuit is a wire count, a flat gate sequence (CNOT / Toffoli only, both
self-inverse), and an optional named register map. Depth is defined by greedy
as-soon-as-possible layering: gates are taken in sequence order and each is
placed in the earliest layer where all of its wires are free. ``toffoli_depth``
applies the same rule to the Toffoli subsequence with CNOTs transparent.

Simulation is bit-sliced: one Python int per wire, bit b of that int holding
wire's value for input pattern b, so a whole batch of inputs costs a single
pass over the gates. T-gate figures use the standard 7 T / T-depth 6
decomposition of the Toffoli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import ParseError, WidthMismatch


class Cnot(NamedTuple):
    control: int
    target: int


class Toffoli(NamedTuple):
    control_a: int
    control_b: int
    target: int


Gate = Union[Cnot, Toffoli]

T_PER_TOFFOLI = 7
T_DEPTH_PER_TOFFOLI = 6


def cnot(control: int, target: int) -> Cnot:
    if control == target:
        raise ValueError(f"cnot control and target coincide on wire {control}")
    if control < 0 or target < 0:
        raise ValueError("wire indices must be non-negative")
    return Cnot(control, target)


def toffoli(control_a: int, control_b: int, target: int) -> Toffoli:
    """Toffoli with controls stored lower-index-first (they commute)."""
    if control_a == control_b or control_a == target or control_b == target:
        raise ValueError(
            f"toffoli wires must be distinct, got {(control_a, control_b, target)}"
        )
    if min(control_a, control_b, target) < 0:
        raise ValueError("wire indices must be non-negative")
    if control_a > control_b:
        control_a, control_b = control_b, control_a
    return Toffoli(control_a, control_b, target)


def _validated_gates(gates: Iterable[Gate], width: int) -> tuple[Gate, ...]:
    out = []
    for g in gates:
        if len(g) == 2:
            c, t = g
            if c == t:
                raise ValueError(f"cnot control and target coincide on wire {c}")
            if c < 0 or t < 0 or c >= width or t >= width:
                raise ValueError(f"gate {g} exceeds width {width}")
            out.append(g if type(g) is Cnot else Cnot(c, t))
        elif len(g) == 3:
            a, b, t = g
            if a == b or a == t or b == t:
                raise ValueError(f"toffoli wires must be distinct, got {tuple(g)}")
            if min(a, b, t) < 0 or max(a, b, t) >= width:
                raise ValueError(f"gate {g} exceeds width {width}")
            if a > b:
                a, b = b, a
            out.append(Toffoli(a, b, t))
        else:
            raise ValueError(f"unsupported gate {g!r}")
    return tuple(out)


def _validated_registers(
    registers: dict[str, tuple[int, int]], width: int
) -> dict[str, tuple[int, int]]:
    clean: dict[str, tuple[int, int]] = {}
    spans = []
    for name, (start, length) in registers.items():
        if not name or any(ch.isspace() for ch in name):
            raise ValueError(f"register name {name!r} must be a single token")
        if length < 1 or start < 0 or start + length > width:
            raise ValueError(
                f"register {name} spans [{start}, {start + length}) outside width {width}"
            )
        clean[name] = (start, length)
        spans.append((start, start + length, name))
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ValueError(f"registers {n0} and {n1} overlap")
    return clean


@dataclass(frozen=True, eq=True)
class Circuit:
    """Immutable gate list over ``width`` wires with named register spans."""

    width: int
    gates: tuple[Gate, ...]
    registers: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be non-negative")
        object.__setattr__(self, "gates", _validated_gates(self.gates, self.width))
        object.__setattr__(
            self, "registers", _validated_registers(dict(self.registers), self.width)
        )

    def register_slice(self, name: str) -> range:
        start, length = self.registers[name]
        return range(start, start + length)

    @property
    def gate_count(self) -> int:
        return len(self.gates)


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


def measure_stream(width: int, gates: Iterable[Gate]) -> ResourceEstimate:
    """Single-pass resource count over a gate stream (nothing is stored).

    This is what the bound checks use for inverters with millions of gates:
    the greedy layering only needs one per-wire counter, so the stream never
    has to be materialized.
    """
    ready = [0] * width  # earliest free layer per wire
    tof_ready = [0] * width  # same, counting only Toffolis
    depth = 0
    tof_depth = 0
    n_tof = 0
    n_cnot = 0
    for g in gates:
        if len(g) == 3:
            a, b, t = g
            layer = ready[a]
            if ready[b] > layer:
                layer = ready[b]
            if ready[t] > layer:
                layer = ready[t]
            nxt = layer + 1
            ready[a] = nxt
            ready[b] = nxt
            ready[t] = nxt
            if nxt > depth:
                depth = nxt
            layer = tof_ready[a]
            if tof_ready[b] > layer:
                layer = tof_ready[b]
            if tof_ready[t] > layer:
                layer = tof_ready[t]
            nxt = layer + 1
            tof_ready[a] = nxt
            tof_ready[b] = nxt
            tof_ready[t] = nxt
            if nxt > tof_depth:
                tof_depth = nxt
            n_tof += 1
        else:
            c, t = g
            layer = ready[c]
            if ready[t] > layer:
                layer = ready[t]
            nxt = layer + 1
            ready[c] = nxt
            ready[t] = nxt
            if nxt > depth:
                depth = nxt
            n_cnot += 1
    return ResourceEstimate(
        toffoli_count=n_tof,
        cnot_count=n_cnot,
        depth=depth,
        toffoli_depth=tof_depth,
        qubits=width,
        t_count=T_PER_TOFFOLI * n_tof,
        t_depth=T_DEPTH_PER_TOFFOLI * tof_depth,
    )


def resources(c: Circuit) -> ResourceEstimate:
    return measure_stream(c.width, c.gates)


def depth(c: Circuit) -> tuple[int, int]:
    """(greedy depth, greedy Toffoli depth) of the circuit."""
    est = resources(c)
    return est.depth, est.toffoli_depth


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


def reverse(c: Circuit) -> Circuit:
    """Inverse circuit: both gate kinds are involutions, so just flip order."""
    return Circuit(c.width, tuple(reversed(c.gates)), dict(c.registers))


def concat(a: Circuit, b: Circuit) -> Circuit:
    """Sequential composition; register maps must agree where names collide."""
    if a.width != b.width:
        raise WidthMismatch(f"cannot concatenate widths {a.width} and {b.width}")
    regs = dict(a.registers)
    for name, span in b.registers.items():
        if name in regs and regs[name] != span:
            raise ValueError(f"register {name} maps differently in the two circuits")
        regs[name] = span
    return Circuit(a.width, a.gates + b.gates, regs)


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


def pack_inputs(width: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """Pack pattern rows (each a width-long 0/1 sequence) into per-wire ints."""
    for b, row in enumerate(rows):
        if len(row) != width:
            raise WidthMismatch(f"input row {b} has {len(row)} bits, circuit has {width}")
    patterns = [sum(1 << i for i, bit in enumerate(row) if bit) for row in rows]
    return pack_patterns(width, range(width), patterns)


def unpack_outputs(width: int, state: Sequence[int], count: int) -> list[list[int]]:
    values = (register_value(state, b, 0, width) for b in range(count))
    return [[(v >> i) & 1 for i in range(width)] for v in values]


def simulate(c: Circuit, bits: Sequence[int]) -> list[int]:
    """Classical basis-state simulation of a single input pattern."""
    if len(bits) != c.width:
        raise WidthMismatch(f"input has {len(bits)} bits, circuit has {c.width}")
    return simulate_batch(c, [bits])[0]


def simulate_batch(c: Circuit, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Simulate many input patterns in one pass (bit-sliced)."""
    for row in rows:
        for b in row:
            if b not in (0, 1):
                raise ValueError(f"input bits must be 0 or 1, got {b!r}")
    state = pack_inputs(c.width, rows)
    run_packed(c.gates, state)
    return unpack_outputs(c.width, state, len(rows))


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


def parse(text: str) -> Circuit:
    """Parse the netlist format back into a Circuit.

    Raises ParseError carrying the 1-based line number for malformed input;
    ``parse(emit(c)) == c`` for every valid circuit.
    """
    width: Optional[int] = None
    registers: dict[str, tuple[int, int]] = {}
    gates: list[Gate] = []
    spans: list[tuple[int, int, str]] = []

    def wire(tok: str, lineno: int) -> int:
        try:
            w = int(tok)
        except ValueError:
            raise ParseError(f"expected a wire index, got {tok!r}", lineno) from None
        if w < 0 or w >= width:  # width is set before any gate line is accepted
            raise ParseError(f"wire {w} outside 0..{width - 1}", lineno)
        return w

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
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
            continue
        if op == "qubits":
            raise ParseError("duplicate qubits line", lineno)
        if op == "reg":
            if gates:
                raise ParseError("register lines must precede gates", lineno)
            if len(toks) != 4:
                raise ParseError("reg line needs: reg <name> <start> <len>", lineno)
            name = toks[1]
            if name in registers:
                raise ParseError(f"duplicate register {name}", lineno)
            try:
                start, length = int(toks[2]), int(toks[3])
            except ValueError:
                raise ParseError("register bounds must be integers", lineno) from None
            if length < 1 or start < 0 or start + length > width:
                raise ParseError(
                    f"register {name} spans [{start}, {start + length}) outside width {width}",
                    lineno,
                )
            for s0, e0, n0 in spans:
                if start < e0 and s0 < start + length:
                    raise ParseError(f"register {name} overlaps {n0}", lineno)
            registers[name] = (start, length)
            spans.append((start, start + length, name))
            continue
        if op == "cx":
            if len(toks) != 3:
                raise ParseError("cx needs exactly 2 wires", lineno)
            c0, t0 = wire(toks[1], lineno), wire(toks[2], lineno)
            if c0 == t0:
                raise ParseError(f"cx wires must be distinct, got {c0}", lineno)
            gates.append(Cnot(c0, t0))
            continue
        if op == "ccx":
            if len(toks) != 4:
                raise ParseError("ccx needs exactly 3 wires", lineno)
            a0, b0, t0 = (wire(t, lineno) for t in toks[1:4])
            if a0 == b0 or a0 == t0 or b0 == t0:
                raise ParseError(
                    f"ccx wires must be distinct, got {(a0, b0, t0)}", lineno
                )
            if a0 > b0:
                a0, b0 = b0, a0
            gates.append(Toffoli(a0, b0, t0))
            continue
        raise ParseError(f"unknown directive {op!r}", lineno)

    if width is None:
        raise ParseError("empty netlist: missing qubits line", 1)
    return Circuit(width=width, gates=tuple(gates), registers=registers)
