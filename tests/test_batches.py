"""Column batches: exact measurement, the gate rule and simulation on
batches, and the order of the flat gate stream.

The inverters are measured from column batches. These tests hold that
measurement to a reference written here from the definition of greedy ASAP
layering, applied one flat gate at a time, hold the column check to the
flat gate rule and the batch simulator to a one-gate-at-a-time simulator
written here, and pin the flat stream against the multiplier blocks' own
gate order.
"""

import random
from dataclasses import replace
from itertools import zip_longest
from operator import lt, ne

import pytest

from gf2synth import circuits, inverters
from gf2synth.circuits import (
    batch_passes,
    flat_gates,
    layer_batches,
    measure_stream,
    run_packed,
    validated_batches,
    validated_gates,
)
from gf2synth.errors import CircuitRuleError, ExponentOutOfRange, InvalidParams
from gf2synth.cli import kind_estimate, synth_circuit
from gf2synth.fields import (
    FieldSpec,
    Gnb,
    MultiplierBlock,
    SelfPowerStage,
    addition_chain,
    check_ghost_bit_support,
    make_gnb_params,
)
from gf2synth.inverters import (
    BlockChain,
    chain_batches,
    chain_simulate,
    check_bounds,
    inverter_batches,
    inverter_estimate,
    inverter_gates,
    inverter_structure,
)
from gf2synth.multipliers import block_batches, block_window


def reference_estimate(width, gates):
    """(toffoli, cnot, depth, toffoli_depth): every gate goes one layer past
    the latest gate on any of its wires; CNOTs are transparent to the
    Toffoli layering."""
    ready, tof_ready, counts = [0] * width, [0] * width, [0, 0]
    for g in gates:
        layer = max(ready[w] for w in g) + 1
        for w in g:
            ready[w] = layer
        counts[len(g) == 2] += 1
        if len(g) == 3:
            layer = max(tof_ready[w] for w in g) + 1
            for w in g:
                tof_ready[w] = layer
    return counts[0], counts[1], max(ready), max(tof_ready)


def summary(est):
    return est.toffoli_count, est.cnot_count, est.depth, est.toffoli_depth


def small_specs():
    for m in range(3, 31):
        if check_ghost_bit_support(m):
            yield FieldSpec.ghost_bit(m)
    for m in range(3, 41):
        for t in (1, 2):
            try:
                yield Gnb(make_gnb_params(m, t))
            except InvalidParams:
                continue


# measured on the one-gate-at-a-time stream before batches existed
PINNED = [
    (FieldSpec.gnb(163), (1794793, 9128, 22891, 22833)),
    (FieldSpec.gnb(233), (2052031, 6524, 17167, 17139)),
    (FieldSpec.gnb(409), (14016839, 26176, 67245, 67177)),
    (FieldSpec.ghost_bit(178), (606273, 2506, 5907, 5907)),
    (FieldSpec.ghost_bit(226), (975873, 3178, 7491, 7491)),
]


@pytest.mark.parametrize(
    "spec, expected", PINNED, ids=[f"{s.representation.value}{s.m}" for s, _ in PINNED]
)
def test_check_bounds_estimates_are_pinned(spec, expected):
    assert summary(check_bounds(spec).estimate) == expected


def test_check_bounds_matches_reference_on_materialized_inverters():
    specs = list(small_specs())
    assert sum(s.t is None for s in specs) == 5  # gbb m = 4, 10, 12, 18, 28
    assert sum(s.t is not None for s in specs) >= 20
    for spec in specs:
        gates = list(inverter_gates(spec))
        expected = reference_estimate(inverter_structure(spec).width, gates)
        assert summary(check_bounds(spec).estimate) == expected, (spec.m, spec.t)


# odd types (the cyclotomic stages wrap) and m = 3, whose chain is one block,
# so the forward pass has no head and the inverter no uncompute
MIRROR_EDGE_SPECS = [
    FieldSpec.gnb(4, t=3),
    FieldSpec.gnb(6, t=3),
    FieldSpec.gnb(12, t=5),
    FieldSpec.gnb(3),
]


def test_inverter_estimate_matches_measuring_every_gate():
    """``inverter_estimate`` layers the forward pass only and reads the
    uncompute's share off the head's per-wire counters; it must equal
    ``measure_stream`` over the whole stream, field by field."""
    assert len(inverter_structure(FieldSpec.gnb(3)).forward) == 1
    for spec in [*small_specs(), *MIRROR_EDGE_SPECS]:
        s = inverter_structure(spec)
        assert inverter_estimate(spec) == measure_stream(s.width, inverter_batches(spec)), (
            spec.m,
            spec.t,
        )


def spec_id(spec):
    return f"{spec.representation.value}{spec.m}" + (f"t{spec.t}" if spec.t else "")


@pytest.mark.parametrize("spec", list(small_specs()), ids=spec_id)
def test_self_power_columns_address_the_block_window(spec):
    """x and y index source coefficients 0..w-1 and c is w + the output
    coefficient, for every r and both directions: the columns index the
    block's window, which every consumer reads them through untranslated."""
    w = spec.width
    for r in range(spec.m + 1):
        for reverse in (False, True):
            for st in spec.self_mult_stages(r, reverse):
                for x, y, c in (batch for cls in st.classes for batch in cls):
                    assert all(0 <= i < w for i in (*x, *(y or ()))), (r, reverse, st.label)
                    assert all(w <= k < 2 * w for k in c), (r, reverse, st.label)


LEMMA_SPECS = [*small_specs(), FieldSpec.gnb(163), FieldSpec.gnb(233, t=2), FieldSpec.gnb(409)]


@pytest.mark.parametrize("spec", LEMMA_SPECS, ids=spec_id)
def test_every_general_stage_is_one_gate_on_every_wire_of_its_registers(spec):
    """Lemma (a) of ``layer_block``: a general stage moves every wire of the
    block's three registers by exactly one layer, so a block whose counters
    are level stays level. Both operand orders occur in the chain's general
    blocks, and the last block writes squared."""
    w = spec.width
    stages = len(spec.mult_stages())
    exponents = {0} | {b.operand_exponent for b in addition_chain(spec.m) if b.kind == "general"}
    every_wire = set(range(3 * w))
    for src, operand in ((0, 1), (1, 0)):  # the operand register below and above the source
        for e in sorted(exponents):
            for squared in (False, True):
                block = MultiplierBlock(
                    "general", src, 2, operand_reg=operand, operand_exponent=e, squared_write=squared
                )
                drawn = 0
                for a, b, t in block_batches(spec, block):
                    assert b is not None and len(a) + len(b) + len(t) == 3 * w
                    assert set(a).union(b, t) == every_wire, (src, e, squared, drawn)
                    drawn += 1
                assert drawn == stages


def random_stage(rng, window, shape):
    """A stage on the window's counters: 1-3 classes of random gates, all
    Toffolis (``toffoli``), all CNOTs (``cnot``), or Toffolis with a one-CNOT
    batch riding after the first class's (``rider``, the ghost-bit shape)."""
    classes = []
    for _ in range(rng.randint(1, 3)):
        cols = [rng.sample(window, 3) for _ in range(rng.randint(1, len(window)))]
        a, b, t = (list(col) for col in zip(*cols))
        classes.append([(a, None, t) if shape == "cnot" else (a, b, t)])
    if shape == "rider":
        a, t = rng.sample(window, 2)
        classes[0].append(([a], None, [t]))
    return SelfPowerStage(shape, "cnot" if shape == "cnot" else "toffoli", None, tuple(map(tuple, classes)))


def _counted_offsets(monkeypatch):
    """Patch ``inverters._offset`` to record what each call returns."""
    found, offset = [], inverters._offset

    def counted(ready, tof_ready):
        found.append(offset(ready, tof_ready))
        return found[-1]

    monkeypatch.setattr(inverters, "_offset", counted)
    return found


def test_toffoli_counter_carried_as_one_offset_matches_full_layering(monkeypatch):
    """Lemma (b) of ``layer_block``, decided once per stage: random stages
    on a window of 2w counters (Toffoli-only, CNOT-only and with a one-CNOT
    rider), from a level or an uneven ready - tof_ready, leave both counters
    and the counts as ``layer_batches`` over the same batches does. The
    trials both find the difference level and find it uneven."""
    found = _counted_offsets(monkeypatch)
    rng = random.Random(27)
    for trial in range(300):
        w = rng.randint(2, 7)
        window = range(2 * w)
        ready = [rng.randint(0, 30) for _ in window]
        o = rng.randint(0, 9)
        tof_ready = [v - (o if trial % 2 == 0 else rng.randint(0, 30)) for v in ready]
        shapes = rng.choices(("toffoli", "cnot", "rider"), k=rng.randint(0, 12))
        stages = [random_stage(rng, window, shape) for shape in shapes]
        batches = [batch for st in stages for cls in st.classes for batch in cls]
        got_ready, got_tof = ready[:], tof_ready[:]
        got = inverters._layer_self_power(iter(stages), got_ready, got_tof)
        want = layer_batches(batches, ready, tof_ready)
        assert (got, got_ready, got_tof) == (want, ready, tof_ready), trial
    assert None in found and len(found) > found.count(None)


@pytest.mark.parametrize("spec", [FieldSpec.ghost_bit(10), FieldSpec.gnb(11)], ids=spec_id)
def test_only_gnb_self_power_blocks_test_the_offset(spec, monkeypatch):
    """Every ghost-bit self-power stage holds a CNOT, so a ghost-bit block
    never tests lemma (b)'s offset: not for any r at gbb 10, and not in the
    gbb 178 inverter. GNB blocks still test it. Either way the counters end
    as ``layer_batches`` over the block's wire batches leaves them."""
    found = _counted_offsets(monkeypatch)
    rng = random.Random(36)
    w = spec.width
    for r in range(spec.m + 1):
        block = MultiplierBlock("self_power", 0, 1, r=r)
        ready = [rng.randint(0, 30) for _ in range(2 * w)]
        o = rng.randint(0, 9)
        tof_ready = [v - (o if r % 2 else rng.randint(0, 30)) for v in ready]
        got_ready, got_tof = ready[:], tof_ready[:]
        got = inverters.layer_block(spec, block, got_ready, got_tof)
        want = layer_batches(block_batches(spec, block), ready, tof_ready)
        assert (got, got_ready, got_tof) == (want, ready, tof_ready), r
    big, expected = PINNED[0 if spec.t else 3]  # gnb 163 or gbb 178
    assert summary(inverter_estimate(big)) == expected
    assert bool(found) == (spec.t is not None)


@pytest.mark.parametrize("spec", [*small_specs(), FieldSpec.gnb(163)], ids=spec_id)
def test_self_power_block_layered_on_its_window_matches_full_layering(spec):
    """Lemma (c) of ``layer_block``: a self-power block layered on the
    window of its 2w counters, fed the index columns, leaves every counter
    and the counts as ``layer_batches`` over the block's wire batches does,
    for every exponent, with and without the squared write, from zero and
    from uneven counters; a wire outside the block's registers keeps its
    nonzero counter."""
    rng = random.Random(30)
    w = spec.width
    exponents = range(spec.m + 1) if spec.m < 163 else (5,)
    for r in exponents:
        for squared in (False, True):
            src, spare = (0, 2) if r % 2 else (2, 0)  # the source below and above the target
            block = MultiplierBlock("self_power", src, 1, r=r, squared_write=squared)
            uneven = [rng.randint(0, 40) for _ in range(3 * w)]
            for ready in ([0] * 3 * w, uneven):
                tof_ready = [v - rng.randint(0, v) for v in ready]
                ready[spare * w] = tof_ready[spare * w] = 7  # outside the window
                outside = ready[spare * w:(spare + 1) * w], tof_ready[spare * w:(spare + 1) * w]
                got_ready, got_tof = ready[:], tof_ready[:]
                got = inverters.layer_block(spec, block, got_ready, got_tof)
                want = layer_batches(block_batches(spec, block), ready, tof_ready)
                assert (got, got_ready, got_tof) == (want, ready, tof_ready), (spec.m, spec.t, r, squared)
                assert (ready[spare * w:(spare + 1) * w], tof_ready[spare * w:(spare + 1) * w]) == outside


def test_kind_estimates_equal_measuring_every_gate():
    """mult and selfmult are estimated as one block on fresh counters
    (``layer_block``), without drawing every stage; that must equal
    measuring every gate their netlists hold."""
    for spec in [*small_specs(), FieldSpec.gnb(163)]:
        kinds = [("mult", None)]
        if spec.m < 163:
            kinds += [("selfmult", r) for r in range(spec.m + 1)]
        for kind, r in kinds:
            width, _, batches = synth_circuit(spec, kind, r)
            assert kind_estimate(spec, kind, r) == measure_stream(width, batches), (
                spec.m,
                spec.t,
                kind,
                r,
            )


def test_kind_table_layouts_match_a_hand_written_reference():
    """The kind table lays mult and selfmult out as one block each, on the
    registers written here by hand, and streams exactly the core's batches
    for that layout."""
    for spec in small_specs():
        w = spec.width
        width, registers, batches = synth_circuit(spec, "mult")
        assert (width, registers) == (3 * w, {"input_a": (0, w), "input_b": (w, w), "output": (2 * w, w)})
        product = MultiplierBlock("general", 0, 2, operand_reg=1)
        assert list(batches) == list(block_batches(spec, product)), (spec.m, spec.t)
        for r in range(spec.m + 1):
            width, registers, batches = synth_circuit(spec, "selfmult", r)
            assert (width, registers) == (2 * w, {"input": (0, w), "output": (w, w)})
            self_power = MultiplierBlock("self_power", 0, 1, r=r)
            assert list(batches) == list(block_batches(spec, self_power)), (spec.m, spec.t, r)


def test_inverter_estimate_leaves_the_level_general_stages_undrawn(monkeypatch):
    # At gnb 163 the forward pass holds 955,017 gates: 742,791 in self-power
    # blocks, layered on their index columns and never placed on wires, and
    # 211,085 in general stages drawn after their block's counters are
    # level. What is drawn is the 1,141 general gates before that.
    drawn = {"general": 0, "self_power": 0}
    def counted(spec, block, reverse=False):
        for batch in block_batches(spec, block, reverse):
            drawn[block.kind] += len(batch[2])
            yield batch

    monkeypatch.setattr(inverters, "block_batches", counted)
    assert summary(inverter_estimate(FieldSpec.gnb(163))) == PINNED[0][1]
    assert drawn == {"general": 1_141, "self_power": 0}
    spec = FieldSpec.gnb(163)
    assert kind_estimate(spec, "selfmult", 3).gate_count == spec.mult_bounds()[1]
    assert drawn == {"general": 1_141, "self_power": 0}


def test_uncompute_is_the_forward_head_reversed():
    """The precondition of ``inverter_estimate``'s mirror shortcut: the
    uncompute blocks are the forward blocks but the last, in reverse order.
    Changing the uncompute order breaks that shortcut, not just this test."""
    for spec in [*small_specs(), *MIRROR_EDGE_SPECS]:
        s = inverter_structure(spec)
        assert s.uncompute == tuple(reversed(s.forward[:-1])), (spec.m, spec.t)


def test_batch_sharing_wires_measures_like_its_flat_form():
    # Gates inside one batch share wires, and a CNOT run sits between Toffoli runs.
    batches = [
        ([0, 0, 1, 4], [1, 2, 2, 5], [2, 3, 0, 1]),
        ([2, 3, 3], None, [3, 0, 4]),
        ([0, 1], [3, 3], [1, 5]),
    ]
    flat = list(flat_gates(batches))
    assert len(flat) == 9 and {len(g) for g in flat} == {2, 3}
    expected = reference_estimate(6, flat)
    assert summary(measure_stream(6, batches)) == expected
    assert summary(measure_stream(6, iter(flat))) == expected
    assert expected[2] > 3  # the shared wires serialize the batches


def test_random_overlapping_batches_match_reference():
    rng = random.Random(7)
    width = 9
    batches = []
    for _ in range(60):
        n = rng.randint(1, 12)
        cols = [rng.sample(range(width), 3) for _ in range(n)]
        a, b, t = (list(col) for col in zip(*cols))
        batches.append((a, None, t) if rng.random() < 0.3 else (a, b, t))
    flat = list(flat_gates(batches))
    assert summary(measure_stream(width, batches)) == reference_estimate(width, flat)


def random_batches(seed, width=9, n=60):
    """Batches of random valid gates, some with Toffoli controls reversed."""
    rng = random.Random(seed)
    batches = []
    for _ in range(n):
        cols = [rng.sample(range(width), 3) for _ in range(rng.randint(1, 12))]
        a, b, t = (list(col) for col in zip(*cols))
        batches.append((a, None, t) if rng.random() < 0.3 else (a, b, t))
    return batches


def test_column_check_passes_only_batches_the_gate_rule_keeps_as_they_are():
    for batch in random_batches(3, n=200):
        flat = list(flat_gates([batch]))
        for width in (8, 9):  # at width 8 a gate on wire 8 breaks the rule
            try:
                unchanged = list(validated_gates(flat, width)) == flat
            except CircuitRuleError:
                unchanged = False
            assert batch_passes(batch, width) == unchanged
    assert batch_passes(([], [], []), 1)
    assert not batch_passes(([0, 1], None, [1, -1]), 4)
    assert not batch_passes(([0, 1], None, [1, 4]), 4)
    assert not batch_passes(([3], None, [3]), 4)
    assert not batch_passes(([0], [1], [0]), 4)


def element_wise_shape(batch):
    """The width-free column check compared gate by gate: Toffoli controls
    lower-first and every target apart from its controls."""
    a, b, t = batch
    return (b is None or all(map(lt, a, b)) and all(map(ne, b, t))) and all(map(ne, a, t))


def register_shaped_batches(seed, width=60, n=400):
    """Batches whose controls and targets are drawn from register-like
    spans: controls below the targets, above them, overlapping them, or
    meeting them on one wire, with wires -1 and ``width`` now and then, a
    few reversed or equal Toffoli controls, and some single-gate batches."""
    rng = random.Random(seed)
    batches = []
    for _ in range(n):
        size = rng.randint(4, 12)
        low = rng.randint(size, width - 2 * size)
        control_span = range(low, low + size)
        target_span = rng.choice(
            [
                range(low + size, low + 2 * size),  # controls below the targets
                range(max(low - size, 0), low),  # controls above the targets
                range(low + size // 2, low + size // 2 + size),  # overlapping spans
                range(low + size - 1, low + 2 * size - 1),  # one shared wire
            ]
        )
        gates = []
        for _ in range(1 if rng.random() < 0.15 else rng.randint(2, 10)):
            x, y = sorted(rng.sample(control_span, 2))
            if rng.random() < 0.05:  # reversed or equal controls
                x, y = (y, x) if rng.random() < 0.5 else (y, y)
            z = rng.choice(target_span)
            gate = [x, y, z]
            if rng.random() < 0.05:
                gate[rng.randrange(3)] = rng.choice([-1, width])
            gates.append(gate)
        a, b, t = (list(col) for col in zip(*gates))
        batches.append((a, None, t) if rng.random() < 0.3 else (a, b, t))
    return batches


def test_range_shortcut_agrees_with_the_gate_rule_on_register_shaped_batches():
    width = 60
    apart = meet = 0
    for batch in register_shaped_batches(13, width):
        a, b, t = batch
        flat = list(flat_gates([batch]))
        try:
            unchanged = list(validated_gates(flat, width)) == flat
        except CircuitRuleError:
            unchanged = False
        assert batch_passes(batch, width) == unchanged, batch
        assert circuits._shape_passes(batch) == element_wise_shape(batch), batch
        controls = a if b is None else a + b
        if max(controls) < min(t) or min(controls) > max(t):
            apart += 1
        else:
            meet += 1
    assert apart > 100 and meet > 100  # both the shortcut and the gate-by-gate passes ran


@pytest.mark.parametrize(
    "batch",
    [
        ([0, 1, 2], None, [5]),
        ([0], None, [5, 6]),
        ([], None, [5]),
        ([0, 1], [2], [5, 6]),
        ([0, 1], [2, 3, 4], [5, 6]),
    ],
)
def test_batch_whose_columns_differ_in_length_fails_at_its_first_gate(batch):
    assert not batch_passes(batch, 9)
    before = [([0, 1], None, [2, 3]), ([0], [1], [2])]
    with pytest.raises(CircuitRuleError) as err:
        list(validated_batches(before + [batch], 9))
    assert err.value.index == 3
    assert "differ in length" in str(err.value)


def test_generated_batches_with_reversed_controls_come_out_as_the_gate_rule_gives_them():
    batches = random_batches(5)
    assert any(not batch_passes(b, 9) for b in batches)  # some controls are reversed
    checked = list(validated_batches(iter(batches), 9))
    assert all(batch_passes(b, 9) for b in checked)
    assert list(flat_gates(checked)) == list(validated_gates(flat_gates(batches), 9))


@pytest.mark.parametrize("k", [0, 1, 17, 59])
@pytest.mark.parametrize("bad", [(4, 4), (-1, 2), (1, 2, 9), (3, 3, 0), (5, 2, 5)])
def test_bad_gate_in_kth_batch_reports_the_flat_rules_index(k, bad):
    batches = random_batches(11)  # earlier batches with reversed controls are re-cut
    gates = list(flat_gates([batches[k]]))
    if len(gates[0]) != len(bad):
        gates = [(0, 1, 2) if len(bad) == 3 else (0, 1)] * 5
    j = len(gates) // 2
    gates[j] = bad
    cols = [list(col) for col in zip(*gates)]
    batches[k] = (cols[0], cols[1], cols[2]) if len(bad) == 3 else (cols[0], None, cols[1])
    with pytest.raises(CircuitRuleError) as flat:
        list(validated_gates(flat_gates(batches), 9))
    with pytest.raises(CircuitRuleError) as batched:
        list(validated_batches(batches, 9))
    assert (str(batched.value), batched.value.index) == (str(flat.value), flat.value.index)
    assert flat.value.index == sum(len(t) for _, _, t in batches[:k]) + j


def reference_run(gates, state):
    """Bit-sliced simulation one flat gate at a time: a CNOT XORs its
    control into its target, a Toffoli the AND of its controls."""
    state = list(state)
    for g in gates:
        if len(g) == 3:
            state[g[2]] ^= state[g[0]] & state[g[1]]
        else:
            state[g[1]] ^= state[g[0]]
    return state


def test_run_packed_on_batches_matches_the_flat_stream():
    rng = random.Random(2)
    # in each of these batches a later gate reads a wire an earlier one targets
    chained = [([0, 1, 2], [1, 3, 3], [2, 0, 4]), ([2, 3, 0], None, [3, 0, 5])]
    batches = random_batches(9, n=80) + chained
    state = [rng.getrandbits(64) for _ in range(9)]
    assert run_packed(batches, list(state)) == reference_run(flat_gates(batches), state)
    assert run_packed(chained, list(state)) == reference_run(flat_gates(chained), state)
    assert run_packed(iter(()), list(state)) == state


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec.ghost_bit(10),
        FieldSpec.ghost_bit(18),
        FieldSpec.gnb(5),
        FieldSpec.gnb(7, t=4),
        FieldSpec.gnb(6, t=3),
        FieldSpec.gnb(3),
        FieldSpec.gnb(163),
    ],
    ids=["gbb10", "gbb18", "gnb5", "gnb7t4", "gnb6t3", "gnb3", "gnb163"],
)
def test_inverter_stream_is_forward_then_reversed_uncompute(spec):
    """The stream is X L rev(X), every uncompute block its forward gates
    reversed. ``inverter_estimate``'s mirror shortcut measures only X L and
    relies on this order."""
    s = inverter_structure(spec)

    def expected():
        for block in s.forward:
            yield from flat_gates(block_batches(spec, block))
        for block in s.uncompute:
            yield from reversed(list(flat_gates(block_batches(spec, block))))

    pairs = zip_longest(inverter_gates(spec), expected(), fillvalue=None)
    for i, (got, want) in enumerate(pairs):
        assert got == want, (i, got, want)


@pytest.mark.parametrize("spec", [*small_specs(), FieldSpec.gnb(163)], ids=spec_id)
def test_chain_simulate_leaves_the_state_run_packed_leaves(spec):
    """``chain_simulate`` runs each block on windows of its registers (the
    lemma in its docstring); the whole packed state must end as
    ``run_packed`` over the chain's wire batches leaves it, for mult,
    selfmult at every exponent and invert. The states are random on every
    wire, so that outputs and ancillas start nonzero and XOR-accumulation is
    checked, and as ``verify`` packs them, the inputs alone; gnb 163 runs
    at 64 patterns, without the selfmult sweep."""
    rng = random.Random(31)
    kinds = [("mult", None), ("invert", None)]
    kinds += [("selfmult", r) for r in (range(spec.m + 1) if spec.m < 163 else ())]
    for kind, r in kinds:
        chain = inverters.kind_structure(spec, kind, r)
        n_inputs = sum(n for name, (_, n) in chain.registers.items() if name.startswith("input"))
        everywhere = [rng.getrandbits(64) for _ in range(chain.width)]
        inputs_only = everywhere[:n_inputs] + [0] * (chain.width - n_inputs)
        for state in (everywhere, inputs_only):
            got = list(state)
            assert chain_simulate(spec, chain, got) is got
            assert got == run_packed(chain_batches(spec, chain), list(state)), (spec.m, spec.t, kind, r)


@pytest.mark.parametrize("spec", [*small_specs(), FieldSpec.gnb(163)], ids=spec_id)
def test_single_blocks_simulate_on_windows_like_their_wire_batches(spec):
    """One block at a time, on a random state of three registers: every
    self-power exponents 0, 1, 2, m/2 and m (0 and m square in the ghost-bit
    basis) and general operand exponents 0, 1 and m - 1, with and without
    the squared write, the source below and above the target (and the
    operand); the register the block leaves alone keeps its values."""
    rng = random.Random(32)
    w = spec.width
    exponents = sorted({0, 1, 2, spec.m // 2, spec.m})
    blocks = [
        MultiplierBlock("self_power", src, tgt, r=r, squared_write=squared)
        for r in exponents
        for squared in (False, True)
        for src, tgt in ((0, 1), (2, 0))
    ]
    blocks += [
        MultiplierBlock("general", src, tgt, operand_reg=op, operand_exponent=e, squared_write=squared)
        for e in (0, 1, spec.m - 1)
        for squared in (False, True)
        for src, op, tgt in ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    ]
    for block in blocks:
        chain = BlockChain(3 * w, {}, (block,))
        state = [rng.getrandbits(64) for _ in range(3 * w)]
        got = chain_simulate(spec, chain, list(state))
        assert got == run_packed(chain_batches(spec, chain), list(state)), (spec.m, spec.t, block)


def _self_power(source, target, r=1):
    return MultiplierBlock("self_power", source, target, r=r)


def _general(source, operand, target):
    return MultiplierBlock("general", source, target, operand_reg=operand)


# case: (the block at degree m, its error, the message it matches)
MALFORMED_BLOCKS = {
    "self-power-source-is-target": (lambda m: _self_power(1, 1), CircuitRuleError, "register c overlaps a"),
    "general-source-is-target": (lambda m: _general(1, 0, 1), CircuitRuleError, "register c overlaps a"),
    "operand-is-target": (lambda m: _general(0, 1, 1), CircuitRuleError, "register c overlaps b"),
    "operand-is-source": (lambda m: _general(0, 0, 2), CircuitRuleError, "register b overlaps a"),
    "negative-source": (lambda m: _self_power(-1, 1), CircuitRuleError, r"register a spans \[-\d+, 0\)"),
    "negative-target": (lambda m: _general(0, 1, -2), CircuitRuleError, r"register c spans \[-\d+, -\d+\)"),
    "r-above-m": (lambda m: _self_power(0, 1, m + 1), ExponentOutOfRange, r"exponent r=\d+ outside 0\.\."),
    "r-below-0": (lambda m: _self_power(0, 1, -1), ExponentOutOfRange, r"exponent r=-1 outside 0\.\."),
}


@pytest.mark.parametrize("case", list(MALFORMED_BLOCKS))
@pytest.mark.parametrize("spec", [FieldSpec.ghost_bit(4), FieldSpec.gnb(5)], ids=spec_id)
def test_every_route_refuses_a_malformed_block_alike(spec, case):
    """A block's precondition (disjoint, non-negative registers; a
    self-power exponent in 0..m) is checked once, in ``block_window``, so
    the window, the batches (at the call, before any draw), the estimate
    and streamed simulation raise the same exception with the same
    message, and neither the layer counters nor the state move."""
    make, error, message = MALFORMED_BLOCKS[case]
    block = make(spec.m)
    w = spec.width
    with pytest.raises(error, match=message) as expected:
        block_window(spec, block)
    ready, tof_ready, state = list(range(3 * w)), [0] * 3 * w, list(range(3 * w))
    routes = {
        "block_batches": lambda: block_batches(spec, block),
        "layer_block": lambda: inverters.layer_block(spec, block, ready, tof_ready),
        "chain_simulate": lambda: chain_simulate(spec, BlockChain(3 * w, {}, (block,)), state),
    }
    for name, route in routes.items():
        with pytest.raises(ValueError) as refused:
            route()
        assert (type(refused.value), str(refused.value)) == (type(expected.value), str(expected.value)), name
    assert (ready, tof_ready, state) == (list(range(3 * w)), [0] * 3 * w, list(range(3 * w)))


def test_a_self_power_target_in_the_source_half_is_written_back(monkeypatch):
    """A self-power block runs on its whole 2w window and writes all of it
    back, so an index column that targets the source half (c < w) leaves
    the state as its wire batch does: here one target of the first class of
    gnb 11 ``selfmult -r 3`` moved to window wire 5, on a chain of one
    block."""
    spec = FieldSpec.gnb(11)
    chain = inverters.kind_structure(spec, "selfmult", 3)
    state = [random.Random(34).getrandbits(64) for _ in range(chain.width)]
    untampered = run_packed(chain_batches(spec, chain), list(state))
    original = Gnb.self_mult_stages

    def tampered(self, r, reverse=False):
        stage, *rest = original(self, r, reverse)
        (first, *batches), *classes = stage.classes
        x, y, c = first
        i = next(i for i in range(len(c)) if 5 not in (x[i], y[i]))
        first = (x, y, (*c[:i], 5, *c[i + 1:]))
        return iter([stage._replace(classes=((first, *batches), *classes)), *rest])

    monkeypatch.setattr(Gnb, "self_mult_stages", tampered)
    want = run_packed(chain_batches(spec, chain), list(state))
    assert want != untampered  # the tamper moves a wire
    assert chain_simulate(spec, chain, list(state)) == want


def _counted_forward_runs(monkeypatch):
    """Count the runs of ``chain_simulate``'s forward routine."""
    runs = []
    simulate_block = inverters._simulate_block

    def counted(spec, block, state):
        runs.append(block)
        return simulate_block(spec, block, state)

    monkeypatch.setattr(inverters, "_simulate_block", counted)
    return runs


MIRROR_SPECS = [FieldSpec.gnb(11), FieldSpec.ghost_bit(10)]


@pytest.mark.parametrize("spec", MIRROR_SPECS, ids=spec_id)
def test_chain_simulate_restores_each_uncompute_block_from_its_forward_run(spec, monkeypatch):
    """On the inverter's own uncompute every block finds its windows as its
    forward run left them and is restored, so the forward routine runs once
    per forward block; from random states (every target nonzero) and from
    inputs alone, the state is ``run_packed``'s."""
    chain = inverter_structure(spec)
    rng = random.Random(35)
    everywhere = [rng.getrandbits(64) for _ in range(chain.width)]
    inputs_only = everywhere[:spec.width] + [0] * (chain.width - spec.width)
    runs = _counted_forward_runs(monkeypatch)
    for state in (everywhere, inputs_only):
        runs.clear()
        assert chain_simulate(spec, chain, list(state)) == run_packed(chain_batches(spec, chain), list(state))
        assert runs == list(chain.forward)


@pytest.mark.parametrize("spec", MIRROR_SPECS, ids=spec_id)
@pytest.mark.parametrize(
    "wrong, recomputed",
    [
        # the first uncompute block dropped: no other block's windows move,
        # so every block left is still restored
        (lambda blocks, forward: blocks[1:], 0),
        # the last two swapped: the first block is restored before the
        # second, whose source it zeroes, so the second is recomputed
        (lambda blocks, forward: (*blocks[:-2], blocks[-1], blocks[-2]), 1),
        # a block with no forward run first, into the first block's target:
        # it runs, and the second block (whose source that is) and the first
        # (whose target it is) find their windows changed and are recomputed
        (lambda blocks, forward: (replace(forward[0], r=0), *blocks), 3),
    ],
    ids=["dropped", "swapped", "source-changed"],
)
def test_chain_simulate_recomputes_an_uncompute_block_whose_windows_changed(
    spec, wrong, recomputed, monkeypatch
):
    """Under a wrong uncompute, a block whose windows no longer hold what
    its forward run wrote runs the forward routine again, and the state is
    still ``run_packed``'s over the same wrong chain, from random states
    and from inputs alone."""
    right = BlockChain.uncompute
    monkeypatch.setattr(BlockChain, "uncompute", property(lambda c: wrong(right.fget(c), c.forward)))
    chain = inverter_structure(spec)
    rng = random.Random(36)
    everywhere = [rng.getrandbits(64) for _ in range(chain.width)]
    inputs_only = everywhere[:spec.width] + [0] * (chain.width - spec.width)
    runs = _counted_forward_runs(monkeypatch)
    for state in (everywhere, inputs_only):
        runs.clear()
        assert chain_simulate(spec, chain, list(state)) == run_packed(chain_batches(spec, chain), list(state))
        assert len(runs) == len(chain.forward) + recomputed
