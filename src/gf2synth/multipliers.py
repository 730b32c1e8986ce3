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

The two gate cores below (general and self-power) place those stages on
wires for any representation. They take register offsets, an operand
exponent (the second operand is read through the spec's read
permutation, which yields its power-of-two Frobenius image) and a
squared-write flag (the output is written through the write permutation),
which is what lets the inverter fold Frobenius maps and its final squaring
into the wiring for free.

The cores (``mult_batches``, ``self_mult_batches``) produce column batches
(see ``circuits``), one per run of one gate kind: a general stage is one
Toffoli batch whose wire lists are rotations of the registers' wire lists,
and a self-power color class is the spec's index columns mapped
onto wires (the ghost-bit first class is a Toffoli batch followed by a
one-CNOT batch). The index columns address the block's window
(``self_mult_wires``): the source wires, then the target wires through the
write permutation, so all three columns are gathered through one list.
``circuits.gather`` is the one translation from index columns to wire
columns: one ``itemgetter`` call per column, in C, which still gives a
sequence for a column of one gate. With ``reverse`` a core
yields the inverse block: stages last-first, each stage's batches
last-first, every list reversed. The batches go as they are to the
netlist writer, through the block chains of ``inverters``:
``inverters.kind_structure`` holds every multiplying kind's register map,
a product or a self-power product being a chain of one block. Streamed
simulation (``inverters.chain_simulate``) places no stage on wires: it
runs each block on windows of the packed state, read through
``self_mult_wires`` and ``mult_wires``, from the index columns and
``walk`` rotations. Measurement (``inverters.layer_block``) draws the
general batches block by block and stops once a block's layer counters are
level, since every general stage is one gate on each of its wires; it
places no self-power stage on wires at all, but layers the index columns
of ``spec.self_mult_stages`` as they stand on the window's counters, read
through ``self_mult_wires``, the one placement all three routes share.

The cores check no gate on its own. Each block first checks its register
layout with the register rule of ``circuits`` (non-negative, pairwise
disjoint spans); the stage formulas then give every gate distinct wires
with Toffoli controls lower-first. ``Circuit`` applies the gate rule when
a netlist is materialized (``synth_add`` hands it plain ``(control,
target)`` tuples), and ``synth --out`` applies it batch by batch as it
writes one; all else trusts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .circuits import UNBOUNDED, Batch, Circuit, gather, validated_registers
from .errors import ExponentOutOfRange
from .fields import FieldSpec


# ---------------------------------------------------------------------------
# gate cores


def _wires(start: int, perm: Iterable[int]) -> list[int]:
    """Wire of each logical coefficient of the register at ``start``. Gates
    share these int objects, which keeps materialized netlists smaller."""
    return [start + i for i in perm]


def _targets(spec: FieldSpec, c0: int, square_write: bool) -> list[int]:
    """Output wire of each logical coefficient, optionally pre-squared."""
    return _wires(c0, spec.write_permutation if square_write else range(spec.width))


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


def mult_batches(
    spec: FieldSpec, a0: int, b0: int, c0: int, b_exp: int = 0, square_write: bool = False,
    reverse: bool = False,
) -> Iterator[Batch]:
    """|a>|b>|c>  ->  |a>|b>|c + a * b^(2^b_exp)>, one batch per stage; a
    stage is one depth-1 layer whose controls and targets are all distinct.
    The register layout is checked at the call. With ``reverse`` the
    inverse block: stages last-first, columns reversed."""
    a, b, tgt = mult_wires(spec, a0, b0, c0, b_exp, square_write)
    lower_first = a0 < b0  # the lower register's wire is the first control of every gate
    x, y = (a, b) if lower_first else (b, a)

    def stages() -> Iterator[Batch]:
        table = spec.mult_stages()
        for sa, sb, sc, step in reversed(table) if reverse else table:
            sx, sy = (sa, sb) if lower_first else (sb, sa)
            yield from _stage([(walk(x, sx), walk(y, sy), walk(tgt, sc, step))], reverse)

    return stages()


def mult_wires(
    spec: FieldSpec, a0: int, b0: int, c0: int, b_exp: int = 0, square_write: bool = False
) -> tuple[list[int], list[int], list[int]]:
    """Where a general block puts its stages: the wire of each coefficient
    of a, of b^(2^b_exp) (b read through the read permutation) and of the
    output (through the write permutation with ``square_write``). Checks
    the block's precondition first, three disjoint registers, so every
    route to the block (``mult_batches``, and ``inverters.chain_simulate``,
    which runs the stages on windows of the state) refuses alike."""
    n = spec.width
    validated_registers({"a": (a0, n), "b": (b0, n), "c": (c0, n)}, UNBOUNDED)
    return _wires(a0, range(n)), _wires(b0, spec.read_permutation(b_exp)), _targets(spec, c0, square_write)


def self_mult_wires(
    spec: FieldSpec, r: int, a0: int, c0: int, square_write: bool = False
) -> list[int]:
    """The block's window, the wires its index columns address: the wire
    of each input coefficient, then the output wire of each coefficient
    (through the write permutation with ``square_write``). Checks the
    block's precondition first, the exponent in 0..m and two disjoint
    registers, so every route to the block (``self_mult_batches``, and
    ``inverters.layer_block`` and ``inverters.chain_simulate``, which run
    the index columns without placing them) refuses alike."""
    check_exponent(r, spec.m)
    n = spec.width
    validated_registers({"a": (a0, n), "c": (c0, n)}, UNBOUNDED)
    return _wires(a0, range(n)) + _targets(spec, c0, square_write)


def self_mult_batches(
    spec: FieldSpec, r: int, a0: int, c0: int, square_write: bool = False, reverse: bool = False
) -> Iterator[Batch]:
    """|a>|c>  ->  |a>|c + a * a^(2^r)>, stage by stage, color class by
    class, one batch per run of one gate kind. The exponent must lie in
    0..m, checked at the call. With ``reverse`` the inverse block: stages
    last-first, each stage's batches last-first, columns reversed."""
    window = self_mult_wires(spec, r, a0, c0, square_write)
    # Index Toffolis name their controls lower-first and the source wires
    # increase, so the wire controls are lower-first too.

    def stages() -> Iterator[Batch]:
        for stage in spec.self_mult_stages(r, reverse):
            batches = [
                (gather(window, x), None if y is None else gather(window, y), gather(window, c))
                for cls in stage.classes
                for x, y, c in cls
            ]
            yield from _stage(batches, reverse)

    return stages()


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
    ``self_mult_wires`` runs for every self-power block and
    ``inverters.kind_structure`` before it lays a selfmult out, so
    ``synth`` and ``verify`` refuse r alike before a gate or pattern is
    drawn (a netlist file does not carry r)."""
    if not 0 <= r <= m:
        raise ExponentOutOfRange(f"exponent r={r} outside 0..{m}")
