"""Column batches: exact measurement, the gate rule and simulation on
batches, and the order of the flat gate stream.

The inverters are measured from column batches. These tests hold that
measurement to a reference written here from the definition of greedy ASAP
layering, applied one flat gate at a time, hold the column check to the
flat gate rule and the batch simulator to a one-gate-at-a-time simulator
written here, and pin the flat stream against the multiplier cores' own
gate order.
"""

import random
from itertools import zip_longest

import pytest

from gf2synth.circuits import (
    batch_passes,
    flat_gates,
    measure_stream,
    run_packed,
    validated_batches,
    validated_gates,
)
from gf2synth.errors import CircuitRuleError, InvalidParams
from gf2synth.fields import FieldSpec, Representation, check_ghost_bit_support, make_gnb_params
from gf2synth.inverters import check_bounds, inverter_gates, inverter_structure
from gf2synth.multipliers import mult_batches, self_mult_batches


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
                yield FieldSpec(m, Representation.GNB, make_gnb_params(m, t))
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
    assert sum(s.rep.t is None for s in specs) == 5  # gbb m = 4, 10, 12, 18, 28
    assert sum(s.rep.t is not None for s in specs) >= 20
    for spec in specs:
        gates = list(inverter_gates(spec))
        expected = reference_estimate(inverter_structure(spec).width, gates)
        assert summary(check_bounds(spec).estimate) == expected, (spec.m, spec.rep.t)


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


def test_generated_batches_with_reversed_controls_come_out_as_the_gate_rule_gives_them():
    batches = random_batches(5)
    assert any(not batch_passes(b, 9) for b in batches)  # some controls are reversed
    checked = list(validated_batches(iter(batches), 9))
    assert all(batch_passes(b, 9) for b in checked)
    assert list(flat_gates(checked)) == list(validated_gates(flat_gates(batches), 9))
    assert [type(g) for g in flat_gates(checked)] == [
        type(g) for g in validated_gates(flat_gates(batches), 9)
    ]


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


def _block_gates(spec, block, w):
    src, tgt = block.source_reg * w, block.target_reg * w
    if block.kind == "self_power":
        return flat_gates(self_mult_batches(spec.rep, block.r, src, tgt, block.squared_write))
    operand = block.operand_reg * w
    return flat_gates(
        mult_batches(spec.rep, src, operand, tgt, block.operand_exponent, block.squared_write)
    )


@pytest.mark.parametrize(
    "spec",
    [
        FieldSpec.ghost_bit(10),
        FieldSpec.ghost_bit(18),
        FieldSpec.gnb(5),
        FieldSpec.gnb(7, t=4),
        FieldSpec.gnb(163),
    ],
    ids=["gbb10", "gbb18", "gnb5", "gnb7t4", "gnb163"],
)
def test_inverter_stream_is_forward_then_reversed_uncompute(spec):
    s = inverter_structure(spec)
    w = s.reg_width

    def expected():
        for block in s.forward:
            yield from _block_gates(spec, block, w)
        for block in s.uncompute:
            yield from reversed(list(_block_gates(spec, block, w)))

    pairs = zip_longest(inverter_gates(spec), expected(), fillvalue=None)
    for i, (got, want) in enumerate(pairs):
        assert got == want, (i, got, want)
