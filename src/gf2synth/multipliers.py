"""Netlist synthesis for field multiplication.

Every multiplier here maps |a>|b>|c> to |a>|b>|c + a*b> (or |a>|c> to
|a>|c + a * a^(2^r)> for the self-power variants): targets are only ever
XORed into, so the circuits add the product onto whatever the output register
holds. All constructions schedule their Toffolis into explicit wire-disjoint
stages, which the field spec (a ``fields.GhostBit`` or ``fields.Gnb``)
describes as coefficient indices:

* Ghost-bit product: cyclic convolution, one stage per output-shift class,
  m+1 stages of m+1 parallel Toffolis.
* Ghost-bit self-power a * a^(2^r): coefficients pair up (j, sigma-j) within
  each stage; the two orientations of a pair share controls, so stages split
  into two colors plus one merged CNOT for the self-paired coefficient.
  When 2^r is 1 mod m+1 the whole map collapses to a squaring permutation.
* Normal-basis product: one depth-1 stage per index-table term (plus the
  wrap stages for odd type).
* Normal-basis self-power: each term becomes a difference-delta edge set on
  the coefficient ring, colored along the cosets walked by that delta; a
  zero delta degenerates the stage to parallel CNOTs.

Those index stages are the only description of the stage structure: to
inspect a self-power stage (its label, index delta and color classes), read
``spec.self_mult_stages(r)`` directly; this module only places stages on
wires.

Every block is placed on wires in one place, ``block_window(spec,
block)``. A block's window is every wire its gates touch, in the order
its columns address them: the wires of the source register, then (a
general block only) those of the operand register read through the spec's
read permutation, which yields the operand's power-of-two Frobenius image,
then those of the target register, through the write permutation when the
block writes squared. That is what lets the inverter fold its Frobenius
maps and its final squaring into the wiring for free. A self-power
block's window is 2w wires, and its index columns address it as they
stand (x and y a source coefficient, c w plus an output coefficient); a
general block's is three thirds of w wires.

``block_batches(spec, block, reverse)`` gives a block's column batches
(see ``circuits``), one per run of one gate kind: a self-power color class
is the spec's index columns gathered through the window (the ghost-bit
first class is a Toffoli batch followed by a one-CNOT batch), and a
general stage is one Toffoli batch whose columns are ``walk`` rotations of
the window's thirds. ``circuits.gather`` is the one translation from index
columns to wire columns: one ``itemgetter`` call per column, in C, which
still gives a sequence for a column of one gate. With ``reverse`` it
yields the inverse block: stages last-first, each stage's batches
last-first, every list reversed. The batches go as they are to the
netlist writer, through the block chains of ``inverters``
(``inverters.kind_structure`` holds every multiplying kind's register map,
a product or a self-power product being a chain of one block).
Measurement (``inverters.layer_block``) and streamed simulation
(``inverters.chain_simulate``) read the same window: they run a
self-power block's index columns on the window's counters or packed
values, never placed on wires, and read a general block's registers
through it.

The batches check no gate on their own. ``block_window`` first checks the
block's precondition, a self-power exponent in 0..m and the register rule
of ``circuits`` (non-negative, pairwise disjoint spans), so every route to
a block refuses alike; the stage formulas then give every gate distinct
wires with Toffoli controls lower-first. ``Circuit`` applies the gate rule
when a netlist is materialized (``synth_add`` hands it plain ``(control,
target)`` tuples), and ``synth --out`` applies it batch by batch as it
writes one; all else trusts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .circuits import UNBOUNDED, Batch, Circuit, gather, validated_registers
from .errors import ExponentOutOfRange
from .fields import FieldSpec, MultiplierBlock


# ---------------------------------------------------------------------------
# block placement


def _wires(start: int, perm: Iterable[int]) -> list[int]:
    """Wire of each logical coefficient of the register at ``start``. Gates
    share these int objects, which keeps materialized netlists smaller."""
    return [start + i for i in perm]


def walk(wires: list[int], start: int, step: int = 1) -> list[int]:
    """wires[(start + step * j) % n] for j in 0..n-1, by slicing: position
    step * j of the rotation laid out step times is rotation[step * j % n]."""
    k = start % len(wires)
    rotated = wires[k:] + wires[:k]
    return rotated if step == 1 else (rotated * step)[::step]


def _stage(batches: list[Batch], reverse: bool) -> list[Batch]:
    """One stage's batches, or with ``reverse`` those of its inverse: last
    first, every column reversed (both gate kinds are involutions)."""
    if not reverse:
        return batches
    return [(a[::-1], None if b is None else b[::-1], t[::-1]) for a, b, t in reversed(batches)]


def block_window(spec: FieldSpec, block: MultiplierBlock) -> list[int]:
    """The block's window (see the module docstring), after checking the
    block's precondition: a self-power exponent in 0..m, and disjoint
    registers."""
    n = spec.width
    source, target = block.source_reg * n, block.target_reg * n
    if block.kind == "self_power":
        check_exponent(block.r, spec.m)
        validated_registers({"a": (source, n), "c": (target, n)}, UNBOUNDED)
        window = _wires(source, range(n))
    else:
        operand = block.operand_reg * n
        validated_registers({"a": (source, n), "b": (operand, n), "c": (target, n)}, UNBOUNDED)
        window = _wires(source, range(n)) + _wires(operand, spec.read_permutation(block.operand_exponent))
    return window + _wires(target, spec.write_permutation if block.squared_write else range(n))


def block_batches(spec: FieldSpec, block: MultiplierBlock, reverse: bool = False) -> Iterator[Batch]:
    """target += source * source^(2^r) (self-power) or source *
    operand^(2^operand_exponent) (general), stage by stage, color class by
    class (a general stage is one class), one batch per run of one gate
    kind; the gates of a class have distinct wires. The precondition is
    checked at the call. With ``reverse`` the inverse block: stages
    last-first, each stage's batches last-first, columns reversed."""
    window = block_window(spec, block)

    def self_power() -> Iterator[Batch]:
        # Index Toffolis name their controls lower-first and the source
        # wires increase, so the wire controls are lower-first too.
        for stage in spec.self_mult_stages(block.r, reverse):
            batches = [
                (gather(window, x), None if y is None else gather(window, y), gather(window, c))
                for cls in stage.classes
                for x, y, c in cls
            ]
            yield from _stage(batches, reverse)

    def general() -> Iterator[Batch]:
        n = spec.width
        a, b, t = window[:n], window[n:2 * n], window[2 * n:]
        swap = block.operand_reg < block.source_reg  # the lower register's wire is the first control
        table = spec.mult_stages()
        for sa, sb, sc, step in reversed(table) if reverse else table:
            x, y = (walk(b, sb), walk(a, sa)) if swap else (walk(a, sa), walk(b, sb))
            yield from _stage([(x, y, walk(t, sc, step))], reverse)

    return self_power() if block.kind == "self_power" else general()


# ---------------------------------------------------------------------------
# the adder and the exponent check


def synth_add(width: int) -> Circuit:
    """|a>|b> -> |a>|a+b>: transversal CNOTs, depth 1."""
    gates = [(i, width + i) for i in range(width)]
    return Circuit(
        2 * width, gates, {"input_a": (0, width), "input_b": (width, width)}
    )


def check_exponent(r: int, m: int) -> None:
    """The self-power exponent's range, 0..m: the one check of it, which
    ``block_window`` runs for every self-power block and
    ``inverters.kind_structure`` before it lays a selfmult out, so
    ``synth`` and ``verify`` refuse r alike before a gate or pattern is
    drawn (a netlist file does not carry r)."""
    if not 0 <= r <= m:
        raise ExponentOutOfRange(f"exponent r={r} outside 0..{m}")
