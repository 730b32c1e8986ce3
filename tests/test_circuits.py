"""Reversible-circuit container: gates, depth, resources, simulation."""

import random

import pytest

from gf2synth.circuits import (
    PACK_SLICE,
    Circuit,
    flat_gates,
    gate_runs,
    measure_stream,
    pack_patterns,
    register_values,
    resources,
    run_packed,
    simulate,
    validated_gates,
    validated_registers,
)
from gf2synth.errors import CircuitRuleError


def test_register_rule_refuses_a_repeated_name_at_its_pair():
    pairs = iter([("a", (0, 2)), ("b", (2, 1)), ("a", (3, 1)), ("c", (4, 1))])
    with pytest.raises(CircuitRuleError, match="^duplicate register a$") as exc:
        validated_registers(pairs, 8)
    assert exc.value.index == 2
    assert next(pairs) == ("c", (4, 1))  # the pairs after the bad one are not drawn


def test_gate_factories_validate():
    # the gate rule on single gates, as the deleted cnot/toffoli factories applied it
    assert tuple(validated_gates([(0, 1)], 8)) == ((0, 1),)
    for gate in [(2, 2), (-1, 0), (0, 1, 1), (0, 0, 1)]:
        with pytest.raises(ValueError):
            tuple(validated_gates([gate], 8))
        with pytest.raises(ValueError):
            Circuit(8, [gate])


def test_toffoli_controls_normalized():
    assert Circuit(8, [(5, 2, 7), (2, 5, 7), (0, 1)]).gates == ((2, 5, 7), (2, 5, 7), (0, 1))


def test_circuit_validates_wires():
    with pytest.raises(ValueError):
        Circuit(2, ((0, 2),))
    with pytest.raises(ValueError):
        Circuit(3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        Circuit(4, (), {"a": (0, 3), "b": (2, 2)})  # overlap
    with pytest.raises(ValueError):
        Circuit(4, (), {"a#b": (0, 2)})  # '#' starts a netlist comment
    with pytest.raises(ValueError):
        Circuit(0, ())  # a netlist header names a positive width


def test_depth_greedy_layering():
    # disjoint gates share a layer; dependent gates do not
    def depths(c):
        est = resources(c)
        return est.depth, est.toffoli_depth

    assert depths(Circuit(4, ((0, 1), (2, 3)))) == (1, 0)
    assert depths(Circuit(3, ((0, 1), (1, 2)))) == (2, 0)
    # control reuse also serializes under the unit-cost model
    assert depths(Circuit(3, ((0, 1), (0, 2)))) == (2, 0)


def test_resources_counts():
    c = Circuit(5, ((0, 1, 2), (3, 4), (0, 1, 3)))
    r = resources(c)
    assert r.toffoli_count == 2
    assert r.cnot_count == 1
    assert r.qubits == 5
    assert r.t_count == 14
    assert r.t_depth == 6 * r.toffoli_depth
    assert r.gate_count == 3


def test_toffoli_depth_ignores_cnot_layers():
    # one Toffoli sandwiched between CNOT layers still has toffoli_depth 1
    c = Circuit(3, ((0, 1), (0, 1, 2), (0, 1)))
    r = resources(c)
    assert r.depth == 3
    assert r.toffoli_depth == 1


def test_measure_stream_matches_resources():
    rng = random.Random(23)
    gates = []
    for _ in range(300):
        a, b, t = rng.sample(range(12), 3)
        gates.append((a, b, t) if rng.random() < 0.4 else (a, t))
    c = Circuit(12, tuple(gates))
    streamed = measure_stream(12, iter(gates))
    assert streamed == resources(c)


def test_simulate_cnot_toffoli():
    # inputs and outputs are whole-width ints, bit w is wire w
    c = Circuit(3, ((0, 1), (0, 1, 2)))
    assert simulate(c, [0b001, 0b010, 0b011]) == [0b111, 0b010, 0b001]
    assert simulate(c, []) == []
    with pytest.raises(ValueError):
        simulate(c, [0b1000])
    with pytest.raises(ValueError):
        simulate(c, [-1])


def random_gates(rng, width, n):
    gates = []
    for _ in range(n):
        a, b, t = rng.sample(range(width), 3)
        gates.append((a, b, t) if rng.random() < 0.5 else (a, t))
    return tuple(gates)


def test_reverse_is_inverse():
    # both gate kinds are involutions, so the reversed gate order undoes a circuit
    rng = random.Random(31)
    gates = random_gates(rng, 6, 100)
    c, undo = Circuit(6, gates), Circuit(6, gates[::-1])
    inputs = [rng.getrandbits(6) for _ in range(20)]
    assert simulate(undo, simulate(c, inputs)) == inputs


def reference_run(gates, x):
    """One input pattern, one gate at a time, on a plain int."""
    for g in gates:
        if len(g) == 3:
            x ^= ((x >> g[0]) & (x >> g[1]) & 1) << g[2]
        else:
            x ^= ((x >> g[0]) & 1) << g[1]
    return x


def test_batch_simulation_is_bit_sliced():
    rng = random.Random(41)
    gates = random_gates(rng, 7, 80)
    c = Circuit(7, gates)
    inputs = [rng.getrandbits(7) for _ in range(64)]
    assert simulate(c, inputs) == [reference_run(gates, x) for x in inputs]


def test_pack_unpack_roundtrip():
    patterns = [0b101, 0b110, 0b011]
    state = pack_patterns(3, range(3), patterns)
    assert state == [0b101, 0b110, 0b011]  # wire w packs bit w of every pattern
    assert register_values(state, 3, 0, 3) == patterns
    # a register elsewhere in a wider state reads back the same values
    state = pack_patterns(5, [2, 3, 4], patterns)
    assert register_values(state, 3, 2, 3) == patterns


def reference_pack(width, wires, patterns):
    """Bit i of patterns[b] on wire wires[i] in slot b, one bit at a time."""
    state = [0] * width
    for b, pat in enumerate(patterns):
        for i, wire in enumerate(wires):
            if (pat >> i) & 1:
                state[wire] |= 1 << b
    return state


def reference_values(state, count, start, length):
    """Each pattern's register value, one bit at a time."""
    return [
        sum(((state[start + i] >> b) & 1) << i for i in range(length)) for b in range(count)
    ]


@pytest.mark.parametrize("count", [0, 1, 37, PACK_SLICE + 1])
def test_transpose_pack_and_read_back_match_the_bitwise_reference(count):
    rng = random.Random(count)
    wires = [9, 2, 14, 5, 11]  # unsorted, with gaps
    # bits at or above len(wires) are ignored
    patterns = [rng.getrandbits(len(wires) + 3) for _ in range(count)]
    state = pack_patterns(16, wires, patterns)
    assert state == reference_pack(16, wires, patterns)
    assert register_values(state, count, 0, 16) == reference_values(state, count, 0, 16)
    # a register not at wire 0 reads its packed values back
    state = pack_patterns(16, range(4, 4 + len(wires)), patterns)
    mask = (1 << len(wires)) - 1
    assert register_values(state, count, 4, len(wires)) == [p & mask for p in patterns]
    assert register_values(state, count, 3, 7) == reference_values(state, count, 3, 7)


@pytest.mark.parametrize("first", [0, 1, PACK_SLICE - 1, PACK_SLICE + 5])
def test_read_back_from_a_later_pattern(first):
    rng = random.Random(first)
    count = 3 * PACK_SLICE
    patterns = [rng.getrandbits(9) for _ in range(count)]
    state = pack_patterns(12, range(2, 11), patterns)
    for k in (1, 7, PACK_SLICE + 1):
        assert register_values(state, k, 2, 9, first) == patterns[first : first + k]
    assert register_values(state, 5, 0, 12, first) == reference_values(state, count, 0, 12)[first : first + 5]


def test_flat_gates_zips_the_columns():
    batches = [([0, 1], [2, 3], [4, 5]), ([6], None, [7]), ([], None, [])]
    flat = list(flat_gates(batches))
    assert flat == [(0, 2, 4), (1, 3, 5), (6, 7)]


@pytest.mark.parametrize("seed", range(4))
def test_flat_view_is_the_transpose_of_the_batches(seed):
    rng = random.Random(seed)
    width = 10
    gates = []
    for _ in range(rng.randint(1, 700)):
        a, b, t = rng.sample(range(width), 3)
        gate = (a, b, t) if rng.random() < 0.5 else (a, t)  # Toffoli controls in either order
        gates.append(list(gate) if rng.random() < 0.2 else gate)
    assert list(flat_gates(gate_runs(gates))) == [tuple(g) for g in gates]
    stored = Circuit(width, gates).gates
    checked = tuple(validated_gates(gates, width))
    assert stored == checked
    flat = tuple(flat_gates(gate_runs(stored)))
    assert all(type(g) is tuple for g in stored + checked + flat)


def test_run_packed_patterns():
    # packed wires carry one bit pattern per wire, gate action is bitwise
    gates = [(0, 1), (0, 1, 2)]
    wires = [0b1010, 0b0110, 0b0000]
    out = run_packed(gate_runs(gates), wires)
    assert out[0] == 0b1010
    assert out[1] == 0b1010 ^ 0b0110
    assert out[2] == 0b1010 & (0b1010 ^ 0b0110)
