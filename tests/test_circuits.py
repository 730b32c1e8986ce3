"""Reversible-circuit container: gates, scheduling, resources, simulation."""

import random

import pytest

from gf2synth.circuits import (
    Circuit,
    Cnot,
    Toffoli,
    cnot,
    gate_runs,
    measure_stream,
    pack_patterns,
    register_value,
    resources,
    run_packed,
    schedule,
    simulate,
    toffoli,
)


def test_gate_factories_validate():
    assert cnot(0, 1) == Cnot(0, 1)
    with pytest.raises(ValueError):
        cnot(2, 2)
    with pytest.raises(ValueError):
        cnot(-1, 0)
    with pytest.raises(ValueError):
        toffoli(0, 1, 1)
    with pytest.raises(ValueError):
        toffoli(0, 0, 1)


def test_toffoli_controls_normalized():
    assert toffoli(5, 2, 7) == Toffoli(2, 5, 7)
    assert toffoli(2, 5, 7) == Toffoli(2, 5, 7)


def test_circuit_validates_wires():
    with pytest.raises(ValueError):
        Circuit(2, (cnot(0, 2),))
    with pytest.raises(ValueError):
        Circuit(3, (toffoli(0, 1, 3),))
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

    assert depths(Circuit(4, (cnot(0, 1), cnot(2, 3)))) == (1, 0)
    assert depths(Circuit(3, (cnot(0, 1), cnot(1, 2)))) == (2, 0)
    # control reuse also serializes under the unit-cost model
    assert depths(Circuit(3, (cnot(0, 1), cnot(0, 2)))) == (2, 0)


def test_schedule_layers_partition_gates():
    rng = random.Random(17)
    gates = []
    for _ in range(60):
        a, b, t = rng.sample(range(8), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    c = Circuit(8, tuple(gates))
    layers = schedule(c)
    flat = [g for layer in layers for g in layer]
    assert sorted(flat) == sorted(gates)
    assert len(layers) == resources(c).depth
    for layer in layers:
        used = set()
        for g in layer:
            w = set(g)
            assert not (w & used)
            used |= w


def test_resources_counts():
    c = Circuit(5, (toffoli(0, 1, 2), cnot(3, 4), toffoli(0, 1, 3)))
    r = resources(c)
    assert r.toffoli_count == 2
    assert r.cnot_count == 1
    assert r.qubits == 5
    assert r.t_count == 14
    assert r.t_depth == 6 * r.toffoli_depth
    assert r.gate_count == 3


def test_toffoli_depth_ignores_cnot_layers():
    # one Toffoli sandwiched between CNOT layers still has toffoli_depth 1
    c = Circuit(3, (cnot(0, 1), toffoli(0, 1, 2), cnot(0, 1)))
    r = resources(c)
    assert r.depth == 3
    assert r.toffoli_depth == 1


def test_measure_stream_matches_resources():
    rng = random.Random(23)
    gates = []
    for _ in range(300):
        a, b, t = rng.sample(range(12), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.4 else cnot(a, t))
    c = Circuit(12, tuple(gates))
    streamed = measure_stream(12, iter(gates))
    assert streamed == resources(c)


def test_simulate_cnot_toffoli():
    # inputs and outputs are whole-width ints, bit w is wire w
    c = Circuit(3, (cnot(0, 1), toffoli(0, 1, 2)))
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
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
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
    assert [register_value(state, b, 0, 3) for b in range(3)] == patterns
    # a register elsewhere in a wider state reads back the same values
    state = pack_patterns(5, [2, 3, 4], patterns)
    assert [register_value(state, b, 2, 3) for b in range(3)] == patterns


def test_run_packed_patterns():
    # packed wires carry one bit pattern per wire, gate action is bitwise
    gates = [cnot(0, 1), toffoli(0, 1, 2)]
    wires = [0b1010, 0b0110, 0b0000]
    out = run_packed(gate_runs(gates), wires)
    assert out[0] == 0b1010
    assert out[1] == 0b1010 ^ 0b0110
    assert out[2] == 0b1010 & (0b1010 ^ 0b0110)
