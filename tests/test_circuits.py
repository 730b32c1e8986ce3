"""Reversible-circuit container: gates, scheduling, resources, simulation."""

import random

import pytest

from gf2synth.circuits import (
    Circuit,
    Cnot,
    Toffoli,
    cnot,
    concat,
    measure_stream,
    pack_inputs,
    resources,
    reverse,
    run_packed,
    schedule,
    simulate,
    simulate_batch,
    toffoli,
    unpack_outputs,
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


def test_register_slice():
    c = Circuit(6, (), {"x": (0, 3), "y": (3, 3)})
    assert list(c.register_slice("y")) == [3, 4, 5]
    with pytest.raises(KeyError):
        c.register_slice("z")


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
    c = Circuit(3, (cnot(0, 1), toffoli(0, 1, 2)))
    assert simulate(c, (1, 0, 0)) == [1, 1, 1]
    assert simulate(c, (0, 1, 0)) == [0, 1, 0]
    assert simulate(c, (1, 1, 0)) == [1, 0, 0]
    with pytest.raises(ValueError):
        simulate(c, (1, 0))
    with pytest.raises(ValueError):
        simulate(c, (1, 0, 2))


def test_reverse_is_inverse():
    rng = random.Random(31)
    gates = []
    for _ in range(100):
        a, b, t = rng.sample(range(6), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    c = Circuit(6, tuple(gates))
    undo = reverse(c)
    for _ in range(20):
        x = [rng.getrandbits(1) for _ in range(6)]
        assert simulate(undo, simulate(c, x)) == x


def test_concat_appends():
    a = Circuit(3, (cnot(0, 1),), {"x": (0, 2)})
    b = Circuit(3, (cnot(1, 2),))
    c = concat(a, b)
    assert c.gates == (Cnot(0, 1), Cnot(1, 2))
    assert c.registers == {"x": (0, 2)}
    with pytest.raises(ValueError):
        concat(a, Circuit(4, ()))


def test_batch_simulation_is_bit_sliced():
    rng = random.Random(41)
    gates = []
    for _ in range(80):
        a, b, t = rng.sample(range(7), 3)
        gates.append(toffoli(a, b, t) if rng.random() < 0.5 else cnot(a, t))
    c = Circuit(7, tuple(gates))
    inputs = [[rng.getrandbits(1) for _ in range(7)] for _ in range(64)]
    batched = simulate_batch(c, inputs)
    assert batched == [simulate(c, x) for x in inputs]


def test_pack_unpack_roundtrip():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    state = pack_inputs(3, rows)
    assert unpack_outputs(3, state, 3) == rows


def test_run_packed_patterns():
    # packed wires carry one bit pattern per wire, gate action is bitwise
    gates = [cnot(0, 1), toffoli(0, 1, 2)]
    wires = [0b1010, 0b0110, 0b0000]
    out = run_packed(gates, wires)
    assert out[0] == 0b1010
    assert out[1] == 0b1010 ^ 0b0110
    assert out[2] == 0b1010 & (0b1010 ^ 0b0110)
