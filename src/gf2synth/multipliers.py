"""Netlist synthesis for field multiplication.

Every multiplier here maps |a>|b>|c> to |a>|b>|c + a*b> (or |a>|c> to
|a>|c + a * a^(2^r)> for the self-power variants): targets are only ever
XORed into, so the circuits add the product onto whatever the output register
holds. All constructions schedule their Toffolis into explicit wire-disjoint
stages, which the representation object (``fields.GhostBit`` /
``fields.Gnb``) describes as coefficient indices:

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
``rep.self_mult_stages(r)`` directly; this module only places stages on
wires.

The two gate cores below (general and self-power) place those stages on
wires for any representation. They take register offsets, an operand
exponent (the second operand is read through the representation's read
permutation, which yields its power-of-two Frobenius image) and a
squared-write flag (the output is written through the write permutation),
which is what lets the inverter fold Frobenius maps and its final squaring
into the wiring for free.

The cores (``mult_batches``, ``self_mult_batches``) produce column batches
(see ``circuits``), one per run of one gate kind: a general stage is one
Toffoli batch whose wire lists are rotations of the registers' wire lists,
and a self-power color class is the representation's index columns mapped
onto wires (the ghost-bit first class is a Toffoli batch followed by a
one-CNOT batch). With ``reverse`` a core yields the inverse block: stages
last-first, each stage's batches last-first, every list reversed. The
batches go as they are to measurement (``measure_stream``) and simulation
(``run_packed``), and through the inverter's block chain to the netlist
writer; only ``Circuit`` takes their flat view, ``circuits.flat_gates``.

The cores check no gate on its own. Each block first checks its register
layout with the register rule of ``circuits`` (non-negative, pairwise
disjoint spans); the stage formulas then give every gate distinct wires
with Toffoli controls lower-first. ``Circuit`` applies the gate rule when a
netlist is materialized, and the streamed consumers trust the cores.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from .circuits import UNBOUNDED, Batch, Circuit, Cnot, flat_gates, validated_registers
from .errors import ExponentOutOfRange
from .fields import GhostBit, Gnb, GnbParams

Rep = Union[GhostBit, Gnb]


# ---------------------------------------------------------------------------
# gate cores


def _wires(start: int, perm: Iterable[int]) -> list[int]:
    """Wire of each logical coefficient of the register at ``start``. Gates
    share these int objects, which keeps materialized netlists smaller."""
    return [start + i for i in perm]


def _targets(rep: Rep, c0: int, square_write: bool) -> list[int]:
    """Output wire of each logical coefficient, optionally pre-squared."""
    return _wires(c0, rep.write_permutation if square_write else range(rep.width))


def _walk(wires: list[int], start: int, step: int = 1) -> list[int]:
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
    rep: Rep, a0: int, b0: int, c0: int, b_exp: int = 0, square_write: bool = False,
    reverse: bool = False,
) -> Iterator[Batch]:
    """|a>|b>|c>  ->  |a>|b>|c + a * b^(2^b_exp)>, one batch per stage; a
    stage is one depth-1 layer whose controls and targets are all distinct.
    With ``reverse`` the inverse block: stages last-first, columns reversed."""
    n = rep.width
    validated_registers({"a": (a0, n), "b": (b0, n), "c": (c0, n)}, UNBOUNDED)  # the precondition
    a = _wires(a0, range(n))
    b = _wires(b0, rep.read_permutation(b_exp))
    tgt = _targets(rep, c0, square_write)
    lower_first = a0 < b0  # the lower register's wire is the first control of every gate
    x, y = (a, b) if lower_first else (b, a)
    stages = rep.mult_stages()
    for sa, sb, sc, step in reversed(stages) if reverse else stages:
        sx, sy = (sa, sb) if lower_first else (sb, sa)
        yield from _stage([(_walk(x, sx), _walk(y, sy), _walk(tgt, sc, step))], reverse)


def self_mult_batches(
    rep: Rep, r: int, a0: int, c0: int, square_write: bool = False, reverse: bool = False
) -> Iterator[Batch]:
    """|a>|c>  ->  |a>|c + a * a^(2^r)>, stage by stage, color class by
    class, one batch per run of one gate kind. The exponent must lie in
    0..m. With ``reverse`` the inverse block: stages last-first, each
    stage's batches last-first, columns reversed."""
    _check_exponent(r, rep.m)
    n = rep.width
    validated_registers({"a": (a0, n), "c": (c0, n)}, UNBOUNDED)  # the precondition
    a = _wires(a0, range(n)).__getitem__
    tgt = _targets(rep, c0, square_write).__getitem__
    # Index Toffolis name their controls lower-first and the wires of a
    # increase, so the wire controls are lower-first too.
    for stage in rep.self_mult_stages(r, reverse):
        batches = [
            (list(map(a, x)), None if y is None else list(map(a, y)), list(map(tgt, c)))
            for cls in stage.classes
            for x, y, c in cls
        ]
        yield from _stage(batches, reverse)


# ---------------------------------------------------------------------------
# public synthesizers


def synth_add(width: int) -> Circuit:
    """|a>|b> -> |a>|a+b>: transversal CNOTs, depth 1."""
    if width < 1:
        raise ValueError("width must be positive")
    gates = tuple(Cnot(i, width + i) for i in range(width))
    return Circuit(
        2 * width, gates, {"input_a": (0, width), "input_b": (width, width)}
    )


def _check_exponent(r: int, m: int) -> None:
    if not 0 <= r <= m:
        raise ExponentOutOfRange(f"exponent r={r} outside 0..{m}")


def _mult_circuit(rep: Rep) -> Circuit:
    w = rep.width
    gates = flat_gates(mult_batches(rep, 0, w, 2 * w))
    return Circuit(3 * w, gates, {"input_a": (0, w), "input_b": (w, w), "output": (2 * w, w)})


def _self_mult_circuit(rep: Rep, r: int) -> Circuit:
    w = rep.width
    gates = flat_gates(self_mult_batches(rep, r, 0, w))
    return Circuit(2 * w, gates, {"input": (0, w), "output": (w, w)})


def synth_gbb_mult(m: int) -> Circuit:
    """Ghost-bit product on 3(m+1) wires: (m+1)^2 Toffolis in m+1 layers."""
    return _mult_circuit(GhostBit(m))


def synth_gbb_self_mult(m: int, r: int) -> Circuit:
    """Ghost-bit a * a^(2^r) on 2(m+1) wires; depth 2(m+1) in the generic
    case, depth 1 when the power collapses to a squaring (r in {0, m})."""
    return _self_mult_circuit(GhostBit(m), r)


def synth_gnb_mult(params: GnbParams) -> Circuit:
    """Normal-basis product on 3m wires: Tm^2 - m Toffolis in Tm - 1 layers
    (T = t rounded up to even)."""
    return _mult_circuit(Gnb(params.m, params))


def synth_gnb_self_mult(params: GnbParams, r: int) -> Circuit:
    """Normal-basis a * a^(2^r) on 2m wires; stage depth follows the coset
    structure of each stage's index delta (1, 2 or 3 layers per stage)."""
    return _self_mult_circuit(Gnb(params.m, params), r)
