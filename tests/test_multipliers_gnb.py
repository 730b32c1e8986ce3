"""Normal-basis multiplier synthesis: rotation stages, coset coloring,
tail stages for odd types, and functional equivalence to the field oracle."""

import random

import pytest

from gf2synth.circuits import flat_gates, resources, simulate
from gf2synth.errors import ExponentOutOfRange
from gf2synth.fields import (
    FieldSpec,
    Gnb,
    gnb_frobenius,
    gnb_mult,
    gnb_stage_bases,
    make_gnb_params,
)
from gf2synth.inverters import synth_gnb_mult, synth_gnb_self_mult

P52 = make_gnb_params(5, 2)
P43 = make_gnb_params(4, 3)  # odd type exercises the wrap stages


def stages(params, r):
    return list(Gnb(params).self_mult_stages(r))


def stage(params, r, label):
    return next(st for st in stages(params, r) if st.label == label)


def terms(st, m):
    """The stage's products by output coefficient: {c - m: {x, y}}."""
    return {k - m: {i, j} for cls in st.classes for x, y, c in cls for i, j, k in zip(x, y, c)}


def bits(m, v):
    """The m normal-basis coordinates of v, coordinate 0 first."""
    return tuple((v >> i) & 1 for i in range(m))


def test_mult_resources_t2():
    c = synth_gnb_mult(P52)
    r = resources(c)
    assert r.toffoli_count == 45  # T m^2 - m with T = 2
    assert r.cnot_count == 0
    assert r.depth == 9  # T m - 1 depth-1 stages
    assert r.qubits == 15
    assert set(c.registers) == {"input_a", "input_b", "output"}


def test_mult_resources_odd_type():
    # t = 3 rounds up to T = 4: 11 main stages plus 4 wrap stages
    c = synth_gnb_mult(P43)
    r = resources(c)
    assert r.toffoli_count == 60  # 4 * 16 - 4
    assert r.depth == 15  # 4 * 4 - 1


def test_mult_functional_exhaustive_t2():
    m = 5
    c = synth_gnb_mult(P52)
    pairs = [(av, bv) for av in range(1 << m) for bv in range(1 << m)]
    inputs = [av | bv << m for av, bv in pairs]
    for x, out, (av, bv) in zip(inputs, simulate(c, inputs), pairs):
        assert out & ((1 << 2 * m) - 1) == x
        assert out >> 2 * m == gnb_mult(P52, av, bv)


def test_mult_functional_exhaustive_odd_type():
    m = 4
    c = synth_gnb_mult(P43)
    for av in range(1 << m):
        for bv in range(1 << m):
            out = simulate(c, [av | bv << m])[0]
            assert out >> 2 * m == gnb_mult(P43, av, bv), (av, bv)


def test_self_mult_functional_all_r():
    for params, m in ((P52, 5), (P43, 4)):
        for r in range(m + 1):
            c = synth_gnb_self_mult(params, r)
            for av in range(1 << m):
                out = simulate(c, [av])[0]
                expect = gnb_mult(params, av, gnb_frobenius(m, av, r))
                assert out & ((1 << m) - 1) == av
                assert out >> m == expect, (params.t, r, av)


def test_self_mult_exponent_range():
    with pytest.raises(ExponentOutOfRange):
        synth_gnb_self_mult(P52, 6)


def test_delta_table_m5_t2_r1():
    table = [-2, -3, 0, -3, -1, 1, -2, 1, 0]  # k = 1..9
    assert [fb - fa for _, fa, fb in gnb_stage_bases(P52, 1)] == table
    assert [st.delta for st in stages(P52, 1)] == table


def test_schedule_matches_circuit():
    # the stages' index columns address the window, input on wires 0..m-1
    # and output on m..2m-1, so they are the circuit's gates in emission order
    for params, rs in ((P52, (0, 1, 2, 5)), (P43, (0, 1, 3))):
        for r in rs:
            columns = (batch for st in stages(params, r) for cls in st.classes for batch in cls)
            circ = synth_gnb_self_mult(params, r)
            assert tuple(flat_gates(columns)) == circ.gates


def test_schedule_stage_kinds_m5_t2_r1():
    sts = stages(P52, 1)
    assert [st.label for st in sts] == [f"k={k}" for k in range(1, 10)]
    for st in sts:
        if st.delta % 5 == 0:
            assert st.kind == "cnot" and len(st.classes) == 1
        else:
            assert st.kind == "toffoli"


def test_schedule_odd_cycle_needs_three_colors():
    # delta -1 on Z_5 is one 5-cycle; its closing edge takes a third color
    st = stage(P52, 1, "k=5")
    assert st.delta == -1
    assert len(st.classes) == 3
    assert terms(st, 5) == {i: {(4 + i) % 5, (3 + i) % 5} for i in range(5)}
    assert [sum(len(t) for _, _, t in cls) for cls in st.classes] == [2, 2, 1]


def test_schedule_tail_stages_for_odd_type():
    labels = [st.label for st in stages(P43, 1)]
    assert labels[:11] == [f"k={k}" for k in range(1, 12)]
    assert labels[11:] == ["tail=1a", "tail=1b", "tail=2a", "tail=2b"]
    # wrap stages pair offsets k-1 and k-1+m/2 (before the shift by r)
    st = stage(P43, 1, "tail=1a")
    assert terms(st, 4) == {i: {(0 + i) % 4, (1 + i) % 4} for i in range(4)}


def test_stage_color_classes_are_wire_disjoint():
    # input and output registers are disjoint, so a class is wire-disjoint
    # when its controls are distinct input coefficients and its targets
    # distinct output coefficients
    for params, r in ((P52, 1), (P43, 2), (make_gnb_params(6, 2), 3)):
        for st in stages(params, r):
            for cls in st.classes:
                controls = [i for x, y, _ in cls for i in (*x, *(y or ()))]
                targets = [k for _, _, c in cls for k in c]
                assert len(set(controls)) == len(controls)
                assert len(set(targets)) == len(targets)


def test_greedy_depth_at_most_stage_sum():
    for params, r in ((P52, 1), (P52, 2), (P43, 1), (P43, 3)):
        intended = sum(len(st.classes) for st in stages(params, r))
        greedy = resources(synth_gnb_self_mult(params, r)).depth
        t_even = params.t + (params.t % 2)
        assert greedy <= intended <= 3 * (t_even * params.m - 1)


def test_read_permutation_is_frobenius_lookup():
    m = 7
    rng = random.Random(11)
    spec = FieldSpec.gnb(m)
    for e in range(m + 1):
        perm = spec.read_permutation(e)
        b = rng.getrandbits(m)
        fb = bits(m, gnb_frobenius(m, b, e))
        for x in range(m):
            assert fb[x] == bits(m, b)[perm[x]]


def test_write_permutation_is_square_movement():
    m = 7
    rng = random.Random(12)
    perm = FieldSpec.gnb(m).write_permutation
    b = rng.getrandbits(m)
    moved = [0] * m
    for i, v in enumerate(bits(m, b)):  # coefficient i moves to wire perm[i]
        moved[perm[i]] = v
    assert tuple(moved) == bits(m, gnb_frobenius(m, b, 1))
