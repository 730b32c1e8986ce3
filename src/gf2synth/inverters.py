"""Out-of-place field inversion and the closed-form resource bounds.

The inverter raises the input to 2^m - 2 by an addition chain on the exponent:
floor(log2(m-1)) doubling multiplications, then HW(m-1) - 1 merges, every
operand power-of-two read folded into wiring. The chain's blocks come from
``fields.addition_chain`` unchanged; this module adds the register layout,
the final squaring folded into the last block's write permutation, and the
uncompute: after the forward pass, all blocks except the final one are run
backwards to return the ancilla registers to zero, so the circuit maps

    |a> |0...0>  ->  |a> |0...0> |a^-1>

with the inverse in the last register and the input untouched. Register
layout (and the ``registers`` map of the emitted circuit) is: input, ladder
ancillas in exponent order, merge ancillas, output = last written register.

``inverter_batches`` streams the inverter as column batches (see
``circuits``) for ``synth --out`` and ``verify``. Uncompute blocks are
generated backwards, stage by stage, so none is ever held in memory;
``inverter_gates`` is the flat view. ``inverter_estimate`` is the one
measurement of the inverter (``synth``, ``table``, ``check_bounds``), from
its forward pass alone: the uncompute mirrors the head of that pass, so its
share of the depth is read off the per-wire layer counters the head leaves
behind, and it is never generated. The result is exact, equal to layering
every gate of ``inverter_batches``, in memory proportional to the width.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from operator import add
from typing import Iterator, Optional

from .circuits import Batch, Circuit, Gate, ResourceEstimate, flat_gates, layer_batches
from .errors import DegreeTooSmall
from .fields import FieldSpec, MultiplierBlock, Representation, addition_chain
from .fields import ResourceBound, bounds_ghost, bounds_gnb  # noqa: F401  (re-exported from here)
from .multipliers import mult_batches, self_mult_batches


@dataclass(frozen=True)
class InverterStructure:
    """Block-level layout of an inverter for one field spec."""

    width: int
    registers: dict[str, tuple[int, int]]
    forward: tuple[MultiplierBlock, ...]
    uncompute: tuple[MultiplierBlock, ...]  # execution order; gates reversed


def inverter_structure(spec: FieldSpec) -> InverterStructure:
    if spec.m < 3:
        raise DegreeTooSmall("inverter synthesis needs m >= 3")
    plan = addition_chain(spec.m)
    w = spec.width
    width = plan.register_count * w

    names = {0: "input"}
    for j in range(1, plan.k_list[0] + 1):
        names[j] = f"ladder{j}"
    for s in range(1, plan.hamming_weight):
        names[plan.k_list[0] + s] = f"work{s}"
    names[plan.output_reg] = "output"
    registers = {names[i]: (i * w, w) for i in range(plan.register_count)}

    *head, last = plan.ladder + plan.combine
    forward = (*head, replace(last, squared_write=True))
    return InverterStructure(
        width=width,
        registers=registers,
        forward=forward,
        uncompute=tuple(reversed(head)),
    )


def _block_batches(spec: FieldSpec, block: MultiplierBlock, reverse: bool = False) -> Iterator[Batch]:
    w = spec.width
    src = block.source_reg * w
    tgt = block.target_reg * w
    if block.kind == "self_power":
        return self_mult_batches(spec.rep, block.r, src, tgt, block.squared_write, reverse)
    operand = block.operand_reg * w
    return mult_batches(
        spec.rep, src, operand, tgt, block.operand_exponent, block.squared_write, reverse
    )


def inverter_batches(spec: FieldSpec) -> Iterator[Batch]:
    """Stream the inverter as column batches: the forward blocks, then each
    uncompute block generated backwards (stages last-first, every batch
    reversed). Batches are built as they are drawn, so no block is ever held
    in memory."""
    s = inverter_structure(spec)
    for block in s.forward:
        yield from _block_batches(spec, block)
    for block in s.uncompute:
        yield from _block_batches(spec, block, reverse=True)


def inverter_gates(spec: FieldSpec) -> Iterator[Gate]:
    """The flat view of ``inverter_batches`` (forward pass, then uncompute),
    one gate at a time."""
    return flat_gates(inverter_batches(spec))


def inverter_estimate(spec: FieldSpec) -> ResourceEstimate:
    """The inverter's ``ResourceEstimate``, exact, from its forward pass alone.

    The stream is X L rev(X): X the head blocks, L the last block, rev(X)
    the uncompute. Greedy ASAP layering gives each gate its longest chain of
    gates sharing a wire, in stream order. A chain that enters rev(X) crosses
    from the last gate on some wire w before it to the first gate on w in
    it. The longest chain in rev(X) that starts at its first gate on w is
    the longest chain in X that ends at its last gate on w, and that is
    ``ready[w]`` after layering X alone from zeros. So the depth is the
    maximum over w of ready[w] after X L plus ready[w] after X; the Toffoli
    depth is the same on the Toffoli counters, and each count is twice X's
    plus L's. Relies on ``uncompute`` being the head of ``forward``
    reversed, which ``inverter_structure`` builds.
    """
    s = inverter_structure(spec)
    *head, last = s.forward
    ready = [0] * s.width
    tof_ready = [0] * s.width
    head_batches = chain.from_iterable(_block_batches(spec, b) for b in head)
    head_tof, head_cnot = layer_batches(head_batches, ready, tof_ready)
    mirror, tof_mirror = ready[:], tof_ready[:]
    last_tof, last_cnot = layer_batches(_block_batches(spec, last), ready, tof_ready)
    return ResourceEstimate(
        2 * head_tof + last_tof,
        2 * head_cnot + last_cnot,
        max(map(add, ready, mirror)),
        max(map(add, tof_ready, tof_mirror)),
        s.width,
    )


def synth_inverter(spec: FieldSpec) -> Circuit:
    """Materialize the inverter netlist."""
    s = inverter_structure(spec)
    return Circuit(s.width, inverter_gates(spec), s.registers)


# ---------------------------------------------------------------------------
# closed-form resource bounds (the formulas live with the representations)


@dataclass(frozen=True)
class BoundCheck:
    metric: str
    actual: int
    bound: int

    @property
    def ok(self) -> bool:
        return self.actual <= self.bound


@dataclass(frozen=True)
class BoundsReport:
    m: int
    representation: Representation
    t: Optional[int]
    estimate: ResourceEstimate
    checks: tuple[BoundCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def format_lines(self) -> list[str]:
        rep = self.representation.value
        head = f"m={self.m} rep={rep}" + (f" t={self.t}" if self.t is not None else "")
        out = [head]
        for c in self.checks:
            verdict = "ok" if c.ok else "VIOLATED"
            out.append(f"  {c.metric}: {c.actual} <= {c.bound} {verdict}")
        return out


def check_bounds(spec: FieldSpec) -> BoundsReport:
    """Measure the inverter (``inverter_estimate``) against the closed-form
    bounds."""
    est = inverter_estimate(spec)
    b = spec.rep.inverter_bounds()
    checks = [
        BoundCheck("depth", est.depth, b.depth_bound),
        BoundCheck("gates", est.gate_count, b.gate_bound),
        BoundCheck("qubits", est.qubits, b.qubit_bound),
        BoundCheck("t_depth", est.t_depth, b.t_depth_bound),
        BoundCheck("t_count", est.t_count, b.t_count_bound),
    ]
    if b.toffoli_bound is not None:
        checks.append(BoundCheck("toffoli", est.toffoli_count, b.toffoli_bound))
        checks.append(BoundCheck("cnot", est.cnot_count, b.cnot_bound))
    return BoundsReport(
        m=spec.m,
        representation=spec.representation,
        t=spec.rep.t,
        estimate=est,
        checks=tuple(checks),
    )
