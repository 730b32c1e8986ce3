"""Block chains: the inverter, and every multiplying kind, as a chain of
multiplier blocks; and the closed-form resource bounds.

A ``BlockChain`` is registers of one width and a forward chain of
multiplier blocks (``fields.MultiplierBlock``); its uncompute is every
forward block but the last, run backwards in reverse order, which returns
the ancilla registers to zero. ``kind_structure`` is the one place each
kind's layout is written: a product (``mult``) or a self-power product
(``selfmult``) is a chain of one block, with no uncompute, over the
registers its netlist names; ``invert`` is ``inverter_structure``.

The inverter raises the input to 2^m - 2 by an addition chain on the
exponent: floor(log2(m-1)) doubling multiplications, then HW(m-1) - 1
merges, every operand power-of-two read folded into wiring. The chain's
blocks are the tuple ``fields.addition_chain`` returns; this module adds
the register names, the final squaring folded into the last block's write
permutation, and the uncompute, so the circuit maps

    |a> |0...0>  ->  |a> |0...0> |a^-1>

with the inverse in the last register and the input untouched. Register
layout (and the ``registers`` map of the emitted circuit) is: input, ladder
ancillas in exponent order, merge ancillas, output = last written register.

``chain_batches`` streams a chain as column batches for ``synth --out``,
each block's from ``multipliers.block_batches``, the one placement of a
block on wires (``multipliers.block_window``). Uncompute blocks are
generated backwards, stage by stage, so none is ever held in memory;
``inverter_batches`` is the inverter's stream and ``inverter_gates`` its
flat view. ``chain_estimate`` is the one measurement of every multiplying
kind (``synth``, ``table``, ``check_bounds``), from the forward pass alone:
the uncompute mirrors the head of that pass, so its share of the depth is
read off the per-wire layer counters the head leaves behind, and it is
never generated. The forward pass is layered block by block
(``layer_block``): a general block goes in closed form once its counters
are level, and a self-power block is layered on its index columns, never
placed on wires, with its Toffoli counter carried as one offset from the
other. The result is exact, equal to layering every gate of
``chain_batches``, in memory proportional to the width. The ``Circuit``
synthesizers (``synth_gbb_mult`` and the rest) are each one materialized
chain. ``chain_simulate`` is streamed ``verify``'s simulator: it applies a
chain to a packed state block by block, each on its window (a self-power
block is ``run_packed`` over its index columns there), and leaves the state
as ``run_packed`` over ``chain_batches`` would. It uses the same mirror as
``chain_estimate``: an uncompute block whose window still holds what its
forward run wrote is restored from that run, not simulated again, so about
half of the inverter's gates are never run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from operator import add, itemgetter, sub
from typing import Iterable, Iterator, Optional, Sequence

from .circuits import (
    Batch, Circuit, Gate, ResourceEstimate, flat_gates, gather, layer_batches, run_packed,
)
from .errors import DegreeTooSmall
from .fields import (
    FieldSpec, GhostBit, Gnb, GnbParams, MultiplierBlock, Representation, SelfPowerStage,
    addition_chain,
)
from .multipliers import block_batches, block_window, check_exponent, walk


@dataclass(frozen=True)
class BlockChain:
    """Block-level layout of one multiplying kind for one field spec."""

    width: int
    registers: dict[str, tuple[int, int]]
    forward: tuple[MultiplierBlock, ...]

    @property
    def uncompute(self) -> tuple[MultiplierBlock, ...]:
        """The head of ``forward`` reversed, in execution order (each
        block's gates run reversed): the mirror ``chain_estimate`` relies
        on."""
        return tuple(reversed(self.forward[:-1]))


def inverter_structure(spec: FieldSpec) -> BlockChain:
    """The inverter: ``addition_chain``'s L self-power and G general blocks,
    the last one writing squared. Its registers are the input, then the
    target of each block (ladder1..ladderL, work1..workG), the last renamed
    output."""
    if spec.m < 3:
        raise DegreeTooSmall("inverter synthesis needs m >= 3")
    chain = addition_chain(spec.m)
    ladder = sum(b.kind == "self_power" for b in chain)
    names = ["input", *(f"ladder{j}" for j in range(1, ladder + 1))]
    names += (f"work{s}" for s in range(1, len(chain) - ladder + 1))
    names[-1] = "output"
    w = spec.width
    *head, last = chain
    registers = {name: (i * w, w) for i, name in enumerate(names)}
    return BlockChain(len(names) * w, registers, (*head, replace(last, squared_write=True)))


def kind_structure(spec: FieldSpec, kind: str, r: Optional[int] = None) -> BlockChain:
    """The block chain of one multiplying kind: the one place the mult and
    selfmult layouts are written. A missing or out-of-range exponent and an
    unknown kind are refused here, before any stage is drawn."""
    w = spec.width
    if kind == "mult":
        registers = {"input_a": (0, w), "input_b": (w, w), "output": (2 * w, w)}
        return BlockChain(3 * w, registers, (MultiplierBlock("general", 0, 2, operand_reg=1),))
    if kind == "selfmult":
        if r is None:
            raise ValueError("selfmult needs -r <exponent>")
        check_exponent(r, spec.m)
        registers = {"input": (0, w), "output": (w, w)}
        return BlockChain(2 * w, registers, (MultiplierBlock("self_power", 0, 1, r=r),))
    if kind == "invert":
        return inverter_structure(spec)
    raise ValueError(f"unknown synthesis kind {kind!r}")


def chain_batches(spec: FieldSpec, chain: BlockChain) -> Iterator[Batch]:
    """Stream a chain as column batches: the forward blocks, then each
    uncompute block generated backwards (stages last-first, every batch
    reversed). Batches are built as they are drawn, so no block is ever held
    in memory."""
    for block in chain.forward:
        yield from block_batches(spec, block)
    for block in chain.uncompute:
        yield from block_batches(spec, block, reverse=True)


def chain_simulate(spec: FieldSpec, chain: BlockChain, state: list[int]) -> list[int]:
    """Apply a chain to a bit-sliced state in place (state[w] packs wire w
    across all patterns), leaving every wire as ``run_packed`` over
    ``chain_batches(spec, chain)`` leaves it, without placing a gate on
    wires: each block runs on its window (``multipliers.block_window``,
    which checks the block's precondition at the call), from the spec's
    index columns (self-power) or ``walk`` rotations (general).

    Lemma. In every block, controls lie only in the source and operand
    registers and targets only in the target register, and the register
    rule keeps those registers disjoint. So no gate of a block writes a
    wire any gate of it reads: gate i XORs a product p_i of source and
    operand values, fixed for the whole block, into one target wire, and
    XOR is commutative. The block maps target to target ^ Q(source,
    operand), Q the XOR of its p_i onto their targets, in any gate order;
    reversed, as ``chain_batches`` draws an uncompute block, it is the same
    map. So an uncompute block can run through the forward routine,
    recomputed from its source as it stands then. And since a gate reads
    and writes only the wires it names, the block runs on a copy of its
    window's values, where ``block_batches`` places it: ``run_packed``
    runs a self-power block's index columns on it as they stand, and a
    general block's stages rotate its thirds. Writing the whole window
    back gives each of its wires its value under the wire batches, and no
    other wire moves; on a self-power window that holds for any index
    column in 0..2w-1, a target in the source half included.

    Mirror. Q is a pure function of the block and its inputs. So each
    forward run keeps its window's wires and values as it read them and
    as it wrote them back (references, no int is copied), keyed by the
    block; if an uncompute block finds those wires holding, by value, what
    its forward run wrote (source s, operand and target t1 = t0 ^ Q(s)),
    the run it skips would leave t1 ^ Q(s) = t0, and the kept "before"
    values are written back. If anything differs, the block is recomputed
    from its window as it stands. The state is the recompute's in every
    case, so a wrong uncompute still leaves an ancilla nonzero: two blocks
    swapped change some block's source before its uncompute, which sends
    that block to the recompute, and a dropped block leaves its target as
    it is.
    """
    kept = {block: _simulate_block(spec, block, state) for block in chain.forward}
    for block in chain.uncompute:
        run = kept.pop(block, None)
        if run is None or not _restore(state, *run):
            _simulate_block(spec, block, state)
    return state


def _simulate_block(
    spec: FieldSpec, block: MultiplierBlock, state: list[int]
) -> tuple[list[int], Sequence[int], list[int]]:
    """One block of ``chain_simulate``: target ^= Q(source, operand), on
    the block's window. Returns the window's wires and its values before
    and after, for ``_restore``."""
    w = spec.width
    wires = block_window(spec, block)
    before = gather(state, wires)
    if block.kind == "self_power":
        stages = spec.self_mult_stages(block.r)
        after = run_packed((batch for st in stages for cls in st.classes for batch in cls), list(before))
    else:
        source, operand, target = before[:w], before[w:2 * w], list(before[2 * w:])
        # Gate j of a stage (sa, sb, c, step) multiplies source coefficient
        # sa + j by operand coefficient sb + j into target coefficient
        # c + step*j. With s the inverse of step mod w, target coefficient k
        # takes j = s*(k - c), so source coefficient s*(k - c + step*sa):
        # position k + (step*sa - c) of the source read at s*i for i = 0..w-1,
        # and likewise for the operand. So target coefficient k XORs in the
        # products at one fixed set of offsets from k in those reads, per
        # step, gathered from the reads rotated by k; accumulating one
        # coefficient at a time holds no second copy of the target register.
        offsets = {}
        for sa, sb, sc, step in spec.mult_stages():
            ox, oy = offsets.setdefault(step, ([], []))
            ox.append((step * sa - sc) % w)
            oy.append((step * sb - sc) % w)
        idx = list(range(w))
        for step, (ox, oy) in offsets.items():
            order = walk(idx, 0, pow(step, -1, w))
            xs, ys = gather(source, order) * 2, gather(operand, order) * 2  # xs[k:k + w]: rotated by k
            gx, gy = itemgetter(*ox), itemgetter(*oy)
            for k, t in enumerate(target):
                for x, y in zip(gx(xs[k:k + w]), gy(ys[k:k + w])):
                    t ^= x & y
                target[k] = t
        after = [*source, *operand, *target]
    for u, v in zip(wires, after):
        state[u] = v
    return wires, before, after


def _restore(state: list[int], wires: list[int], before: Sequence[int], after: list[int]) -> bool:
    """The mirror of ``chain_simulate``: if a forward run's ``wires`` hold
    ``after``, put ``before`` back on them."""
    if list(gather(state, wires)) != after:
        return False
    for u, v in zip(wires, before):
        state[u] = v
    return True


def inverter_batches(spec: FieldSpec) -> Iterator[Batch]:
    """The inverter's ``chain_batches``."""
    return chain_batches(spec, inverter_structure(spec))


def inverter_gates(spec: FieldSpec) -> Iterator[Gate]:
    """The flat view of ``inverter_batches`` (forward pass, then uncompute),
    one gate at a time."""
    return flat_gates(inverter_batches(spec))


def layer_block(
    spec: FieldSpec, block: MultiplierBlock, ready: list[int], tof_ready: list[int]
) -> tuple[int, int]:
    """Layer one block onto the per-wire counters: ``ready`` and
    ``tof_ready`` end exactly as ``layer_batches`` over
    ``block_batches(spec, block)`` leaves them, and the result is the same
    (Toffolis, CNOTs). The block's precondition is checked at the call
    (``block_window``), even when no stage is drawn. Three shortcuts, each
    exact:

    (a) A general block in closed form once level. Each general stage of
    ``block_batches`` is one Toffoli batch whose three columns are ``walk``
    rotations of the window's thirds (the target step 2 of the ghost-bit
    product permutes too, as m+1 is odd): one gate on every wire of the
    window, and on no other wire. If before a stage ``ready`` is L on all
    those wires and ``tof_ready`` is T, every gate sees L and T on its
    three wires and sets them to L+1 and T+1, so both counters are level
    again, one higher. By induction the S stages not yet drawn add S to
    every wire of the window and touch nothing else. So the counters are
    tested on the window before each stage, and once both are level the
    rest of the block is one assignment, and those stages are never
    generated. A fresh ``mult`` is level at stage 0.

    (b) A self-power block's Toffoli counter carried as one offset. If
    ready - tof_ready is one value o on every wire of the block's
    registers, a Toffoli (x, y, t) inside them keeps it o: greedy layering
    sets ready on x, y, t to max(ready[x], ready[y], ready[t]) + 1, and
    tof_ready to max(tof_ready[x], ...) + 1 = max(ready[x] - o, ...) + 1,
    the new ready minus o; no other wire moves, and the ready update never
    reads tof_ready. So while the difference is level, Toffoli batches are
    layered on ``ready`` alone, and tof_ready = ready - o, written back
    before anything reads tof_ready, is what full layering gives;
    ``_layer_self_power`` decides this once per stage.

    (c) A self-power block layered on its index columns, never placed on
    wires. Greedy layering reads only which gates share a wire: relabel
    the wires by any injective map that covers every wire the stream
    touches, layer the relabeled stream on counters read through the map,
    and write them back through it, and every counter ends as layering the
    stream itself leaves it, while the counters of the wires it misses
    never move. ``block_batches`` places every index column on the
    block's window, 2w wires that are distinct as the registers are
    disjoint. So the block is layered on the window's counters, fed
    ``spec.self_mult_stages(r)`` as it is. Lemma (b) holds on the window
    unchanged, since the window is exactly the wires of the block's
    registers.
    """
    wires = block_window(spec, block)
    if block.kind == "self_power":  # lemma (c)
        window, tof_window = list(gather(ready, wires)), list(gather(tof_ready, wires))
        counts = _layer_self_power(spec.self_mult_stages(block.r), window, tof_window)
        for u, v, t in zip(wires, window, tof_window):
            ready[u], tof_ready[u] = v, t
        return counts
    batches = block_batches(spec, block)
    stages = left = len(spec.mult_stages())
    while left and not (_level(ready, wires) and _level(tof_ready, wires)):
        layer_batches((next(batches),), ready, tof_ready)
        left -= 1
    if left:
        top, tof_top = ready[wires[0]] + left, tof_ready[wires[0]] + left
        for u in wires:
            ready[u], tof_ready[u] = top, tof_top
    return stages * spec.width, 0


def _level(counter: list[int], wires: list[int]) -> bool:
    """Does ``counter`` hold one value on all of ``wires``?"""
    values = gather(counter, wires)
    return values.count(values[0]) == len(values)


def _offset(ready: list[int], tof_ready: list[int]) -> Optional[int]:
    """The one value of ready - tof_ready, or None if it is not level."""
    o = ready[0] - tof_ready[0]
    return o if list(map(sub, ready, tof_ready)).count(o) == len(ready) else None


def _layer_self_power(
    stages: Iterable[SelfPowerStage], ready: list[int], tof_ready: list[int]
) -> tuple[int, int]:
    """``layer_batches`` for a self-power block's stages on the counters of
    its window (lemma (c) of ``layer_block``), with the Toffoli counter
    carried as one offset (lemma (b)) wherever it can be.

    Lemma (b) is decided once per stage. A stage with no CNOT batch is
    layered on ``ready`` alone whenever ready - tof_ready is level on the
    window. That is tested at the start of such a stage, and only while the
    offset is not already carried: a Toffoli inside the window keeps the
    difference level. A CNOT moves ready alone, so before a stage that
    holds one, tof_ready is written back and the stage is layered in full.
    tof_ready is written back at the end too, before the caller reads
    either list. Every ghost-bit stage holds a CNOT (the squaring, or the
    self-paired coefficient), so a ghost-bit block never tests the offset.
    """
    n_tof = n_cnot = 0
    offset = None
    for stage in stages:
        batches = [batch for cls in stage.classes for batch in cls]
        if any(cb is None for _, cb, _ in batches):
            if offset is not None:
                tof_ready[:] = map(sub, ready, repeat(offset))
                offset = None
        elif offset is None:
            offset = _offset(ready, tof_ready)
        if offset is None:
            tof, cnot = layer_batches(batches, ready, tof_ready)
            n_tof += tof
            n_cnot += cnot
            continue
        for ca, cb, ct in batches:
            for a, b, t in zip(ca, cb, ct):
                layer = ready[a]
                if ready[b] > layer:
                    layer = ready[b]
                if ready[t] > layer:
                    layer = ready[t]
                ready[a] = ready[b] = ready[t] = layer + 1
            n_tof += len(ct)
    if offset is not None:
        tof_ready[:] = map(sub, ready, repeat(offset))
    return n_tof, n_cnot


def chain_estimate(spec: FieldSpec, chain: BlockChain) -> ResourceEstimate:
    """A chain's ``ResourceEstimate``, exact, from its forward pass alone.

    The stream is X L rev(X): X the head blocks, L the last block, rev(X)
    the uncompute (empty for a chain of one block). Greedy ASAP layering
    gives each gate its longest chain of gates sharing a wire, in stream
    order. A chain that enters rev(X) crosses from the last gate on some
    wire w before it to the first gate on w in it. The longest chain in
    rev(X) that starts at its first gate on w is the longest chain in X
    that ends at its last gate on w, and that is ``ready[w]`` after
    layering X alone from zeros. So the depth is the maximum over w of
    ready[w] after X L plus ready[w] after X; the Toffoli depth is the same
    on the Toffoli counters, and each count is twice X's plus L's.
    ``BlockChain.uncompute`` is the head of ``forward`` reversed by
    construction. X and L are layered block by block with ``layer_block``,
    which leaves the counters exactly as layering every gate would, without
    drawing every stage.
    """
    *head, last = chain.forward
    ready = [0] * chain.width
    tof_ready = [0] * chain.width
    head_tof = head_cnot = 0
    for block in head:
        tof, cnot = layer_block(spec, block, ready, tof_ready)
        head_tof += tof
        head_cnot += cnot
    mirror, tof_mirror = ready[:], tof_ready[:]
    last_tof, last_cnot = layer_block(spec, last, ready, tof_ready)
    return ResourceEstimate(
        2 * head_tof + last_tof,
        2 * head_cnot + last_cnot,
        max(map(add, ready, mirror)),
        max(map(add, tof_ready, tof_mirror)),
        chain.width,
    )


def inverter_estimate(spec: FieldSpec) -> ResourceEstimate:
    """The inverter's ``chain_estimate``."""
    return chain_estimate(spec, inverter_structure(spec))


# ---------------------------------------------------------------------------
# public synthesizers: each one materialized chain


def _kind_circuit(spec: FieldSpec, kind: str, r: Optional[int] = None) -> Circuit:
    chain = kind_structure(spec, kind, r)
    return Circuit(chain.width, flat_gates(chain_batches(spec, chain)), chain.registers)


def synth_gbb_mult(m: int) -> Circuit:
    """Ghost-bit product on 3(m+1) wires: (m+1)^2 Toffolis in m+1 layers."""
    return _kind_circuit(GhostBit(m), "mult")


def synth_gbb_self_mult(m: int, r: int) -> Circuit:
    """Ghost-bit a * a^(2^r) on 2(m+1) wires; depth 2(m+1) in the generic
    case, depth 1 when the power collapses to a squaring (r in {0, m})."""
    return _kind_circuit(GhostBit(m), "selfmult", r)


def synth_gnb_mult(params: GnbParams) -> Circuit:
    """Normal-basis product on 3m wires: Tm^2 - m Toffolis in Tm - 1 layers
    (T = t rounded up to even)."""
    return _kind_circuit(Gnb(params), "mult")


def synth_gnb_self_mult(params: GnbParams, r: int) -> Circuit:
    """Normal-basis a * a^(2^r) on 2m wires; stage depth follows the coset
    structure of each stage's index delta (1, 2 or 3 layers per stage)."""
    return _kind_circuit(Gnb(params), "selfmult", r)


def synth_inverter(spec: FieldSpec) -> Circuit:
    """Materialize the inverter netlist."""
    return _kind_circuit(spec, "invert")


# ---------------------------------------------------------------------------
# checking the closed-form resource bounds (each spec's ``inverter_bounds``)


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
    b = spec.inverter_bounds()
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
        t=spec.t,
        estimate=est,
        checks=tuple(checks),
    )
