"""Inverter synthesis: block structure, functional correctness against the
extended-Euclid and product-identity oracles, and ancilla cleanup."""

import random

import pytest

from gf2synth.circuits import resources, simulate
from gf2synth.errors import DegreeTooSmall, NoGnbFound
from gf2synth.fields import FieldSpec, check_ghost_bit_support, gnb_mult, phi_retract, poly_inverse
from gf2synth.inverters import inverter_gates, inverter_structure, synth_inverter


def test_structure_m7_blocks():
    # m - 1 = 6: ladder doublings at r = 1, 2, then one general merge
    s = inverter_structure(FieldSpec.gnb(7))
    kinds = [b.kind for b in s.forward]
    assert kinds == ["self_power", "self_power", "general"]
    assert [b.r for b in s.forward[:2]] == [1, 2]
    assert s.forward[-1].squared_write  # final squaring riding the last write
    assert not any(b.squared_write for b in s.forward[:-1])
    # every forward block except the last is undone, in reverse order
    assert s.uncompute == tuple(reversed(s.forward[:-1]))


def test_structure_m163_blocks():
    s = inverter_structure(FieldSpec.gnb(163))
    kinds = [b.kind for b in s.forward]
    assert kinds == ["self_power"] * 7 + ["general"] * 2
    assert len(s.uncompute) == 8
    assert s.width == 10 * 163  # one register per chain value


def test_structure_register_names():
    s = inverter_structure(FieldSpec.ghost_bit(10))
    # m - 1 = 9 = 2^3 + 2^0: ladder1..3, then the merge writes the output
    assert set(s.registers) == {"input", "ladder1", "ladder2", "ladder3", "output"}
    assert s.registers["input"] == (0, 11)
    assert s.registers["output"][1] == 11


def reference_registers(spec):
    """The inverter's register map written from the bits of m - 1: the
    input, the ladder's floor(log2(m-1)) registers, then one work register
    per general block but the last, which writes the output."""
    m, w = spec.m, spec.width
    ladder = (m - 1).bit_length() - 1
    general = (m - 1).bit_count() - 1
    if general == 0:  # m - 1 a power of two: the last ladder block writes the output
        names = ["input", *(f"ladder{j}" for j in range(1, ladder)), "output"]
    else:
        names = ["input", *(f"ladder{j}" for j in range(1, ladder + 1))]
        names += [*(f"work{s}" for s in range(1, general)), "output"]
    return [(name, (i * w, w)) for i, name in enumerate(names)]


def test_register_map_matches_reference_from_bits():
    checked = 0
    for m in range(3, 201):
        specs = [FieldSpec.ghost_bit(m)] if check_ghost_bit_support(m) else []
        try:
            specs.append(FieldSpec.gnb(m))
        except NoGnbFound:
            pass
        for spec in specs:
            s = inverter_structure(spec)
            expected = reference_registers(spec)
            assert list(s.registers.items()) == expected, (m, spec.width)
            assert s.width == len(expected) * spec.width
            checked += 1
    assert checked == 194


def test_structure_rejects_tiny_degrees():
    with pytest.raises(DegreeTooSmall):
        inverter_structure(FieldSpec.gnb(2, t=1))


def test_gates_stream_matches_circuit():
    spec = FieldSpec.gnb(5)
    assert tuple(inverter_gates(spec)) == synth_inverter(spec).gates


def register(x, lo, w):
    """The w-bit value of the register starting at wire lo."""
    return (x >> lo) & ((1 << w) - 1)


def check_inverter(spec, values):
    """Output register inverts the input per an independent oracle, the input
    register is preserved, and every ancilla returns to zero."""
    circ = synth_inverter(spec)
    s = inverter_structure(spec)
    w = spec.width
    out_lo = s.registers["output"][0]
    one = spec.identity
    # the input register is wires 0..w-1, so a value is its own circuit input
    for v, out in zip(values, simulate(circ, values)):
        assert register(out, 0, w) == v, "input register was not preserved"
        got = register(out, out_lo, w)
        for name, (lo, ln) in s.registers.items():
            if name in ("input", "output"):
                continue
            assert register(out, lo, ln) == 0, f"{name} not cleaned"
        if spec.representation.value == "gbb":
            inv = phi_retract(spec.m, got)
            if v == 0:
                assert inv == 0
            else:
                expect = poly_inverse(spec.m, v)
                assert inv == expect
        else:
            if v == 0:
                assert got == 0
            else:
                assert gnb_mult(spec.gnb_params, got, v) == one


def test_inverter_exhaustive_ghost_m4():
    check_inverter(FieldSpec.ghost_bit(4), list(range(16)))


def test_inverter_exhaustive_gnb_m5():
    check_inverter(FieldSpec.gnb(5), list(range(32)))


def test_inverter_exhaustive_gnb_odd_type():
    check_inverter(FieldSpec.gnb(4, t=3), list(range(16)))


def test_inverter_random_ghost_m10():
    rng = random.Random(0xB10F)
    check_inverter(
        FieldSpec.ghost_bit(10), [rng.getrandbits(10) for _ in range(40)]
    )


def check_complemented_ghost_inputs(m, values):
    """Feed each value on its complemented representative (ghost bit 1): the
    input register is preserved, every ancilla returns to zero and the output
    retracts to the extended-Euclid inverse (zero to zero)."""
    spec = FieldSpec.ghost_bit(m)
    circ = synth_inverter(spec)
    s = inverter_structure(spec)
    w = spec.width
    out_lo = s.registers["output"][0]
    full = (1 << w) - 1
    inputs = [v ^ full for v in values]
    for v, x, out in zip(values, inputs, simulate(circ, inputs)):
        assert (x >> m) & 1, "the representative must carry ghost bit 1"
        assert register(out, 0, w) == x, "input register was not preserved"
        for name, (lo, ln) in s.registers.items():
            if name not in ("input", "output"):
                assert register(out, lo, ln) == 0, f"{name} not cleaned"
        got = phi_retract(m, register(out, out_lo, w))
        assert got == (v if v == 0 else poly_inverse(m, v))


def test_inverter_complemented_ghost_m4_exhaustive():
    check_complemented_ghost_inputs(4, list(range(16)))


def test_inverter_complemented_ghost_m10_sampled():
    rng = random.Random(0xC0DE)
    check_complemented_ghost_inputs(10, [0] + [rng.getrandbits(10) for _ in range(63)])


def test_inverter_random_gnb_m11():
    rng = random.Random(0xB10F)
    check_inverter(FieldSpec.gnb(11), [rng.getrandbits(11) for _ in range(40)])


def test_inverse_of_inverse_is_identity_map():
    spec = FieldSpec.gnb(7)
    circ = synth_inverter(spec)
    s = inverter_structure(spec)
    lo = s.registers["output"][0]
    w = spec.width
    rng = random.Random(99)
    for _ in range(10):
        v = rng.getrandbits(7) or 1
        inv = register(simulate(circ, [v])[0], lo, w)
        # feed the inverse back in
        back = register(simulate(circ, [inv])[0], lo, w)
        assert back == v


def test_resources_scale_with_plan():
    # m=7 (3 multiplications) vs m=11 (4): gate counts track T m^2 per block
    r7 = resources(synth_inverter(FieldSpec.gnb(7)))
    assert r7.qubits == 4 * 7
    r11 = resources(synth_inverter(FieldSpec.gnb(11)))
    assert r11.qubits == 5 * 11
    assert r11.toffoli_count > r7.toffoli_count
