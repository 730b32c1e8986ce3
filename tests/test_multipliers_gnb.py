"""Normal-basis multiplier synthesis: rotation stages, coset coloring,
tail stages for odd types, and functional equivalence to the field oracle."""

import random

import pytest

from gf2synth.circuits import resources, simulate_batch
from gf2synth.errors import ExponentOutOfRange
from gf2synth.fields import (
    FieldSpec,
    gnb_frobenius,
    gnb_mult,
    make_gnb_params,
)
from gf2synth.multipliers import (
    gnb_self_mult_deltas,
    gnb_self_mult_schedule,
    mult_gates,
    self_mult_gates,
    synth_gnb_mult,
    synth_gnb_self_mult,
)

P52 = make_gnb_params(5, 2)
P43 = make_gnb_params(4, 3)  # odd type exercises the wrap stages


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
    rows = []
    pairs = []
    for av in range(1 << m):
        for bv in range(1 << m):
            rows.append(
                [(av >> i) & 1 for i in range(m)]
                + [(bv >> i) & 1 for i in range(m)]
                + [0] * m
            )
            pairs.append((av, bv))
    outs = simulate_batch(c, rows)
    for row, out, (av, bv) in zip(rows, outs, pairs):
        assert out[: 2 * m] == row[: 2 * m]
        expect = bits(m, gnb_mult(P52, av, bv))
        assert tuple(out[2 * m :]) == expect


def test_mult_functional_exhaustive_odd_type():
    m = 4
    c = synth_gnb_mult(P43)
    for av in range(1 << m):
        for bv in range(1 << m):
            row = [(av >> i) & 1 for i in range(m)]
            row += [(bv >> i) & 1 for i in range(m)]
            row += [0] * m
            out = simulate_batch(c, [row])[0]
            expect = bits(m, gnb_mult(P43, av, bv))
            assert tuple(out[2 * m :]) == expect, (av, bv)


def test_self_mult_functional_all_r():
    for params, m in ((P52, 5), (P43, 4)):
        for r in range(m + 1):
            c = synth_gnb_self_mult(params, r)
            for av in range(1 << m):
                a = bits(m, av)
                row = list(a) + [0] * m
                out = simulate_batch(c, [row])[0]
                expect = bits(m, gnb_mult(params, av, gnb_frobenius(m, av, r)))
                assert tuple(out[:m]) == a
                assert tuple(out[m:]) == expect, (params.t, r, av)


def test_self_mult_exponent_range():
    with pytest.raises(ExponentOutOfRange):
        synth_gnb_self_mult(P52, 6)


def test_delta_table_m5_t2_r1():
    deltas = gnb_self_mult_deltas(P52, 1)
    assert deltas == {1: -2, 2: -3, 3: 0, 4: -3, 5: -1, 6: 1, 7: -2, 8: 1, 9: 0}


def test_schedule_matches_circuit():
    for params, rs in ((P52, (0, 1, 2, 5)), (P43, (0, 1, 3))):
        for r in rs:
            sched = gnb_self_mult_schedule(params, r)
            circ = synth_gnb_self_mult(params, r)
            assert sched.gates == circ.gates


def test_schedule_stage_kinds_m5_t2_r1():
    sched = gnb_self_mult_schedule(P52, 1)
    assert [st.label for st in sched.stages] == [f"k={k}" for k in range(1, 10)]
    deltas = gnb_self_mult_deltas(P52, 1)
    for k, st in enumerate(sched.stages, start=1):
        assert st.delta == deltas[k]
        if deltas[k] % 5 == 0:
            assert st.kind == "cnot" and st.stage_depth == 1
        else:
            assert st.kind == "toffoli"


def test_schedule_odd_cycle_needs_three_colors():
    # delta -1 on Z_5 is one 5-cycle; its closing edge takes a third color
    sched = gnb_self_mult_schedule(P52, 1)
    st = sched.stage("k=5")
    assert st.delta == -1
    assert st.stage_depth == 3
    assert st.terms == tuple(((4 + i) % 5, (3 + i) % 5) for i in range(5))
    assert [len(cls) for cls in st.color_classes] == [2, 2, 1]


def test_schedule_tail_stages_for_odd_type():
    sched = gnb_self_mult_schedule(P43, 1)
    labels = [st.label for st in sched.stages]
    assert labels[:11] == [f"k={k}" for k in range(1, 12)]
    assert labels[11:] == ["tail=1a", "tail=1b", "tail=2a", "tail=2b"]
    # wrap stages pair offsets k-1 and k-1+m/2 (before the shift by r)
    st = sched.stage("tail=1a")
    assert st.terms == tuple(((0 + i) % 4, (1 + i) % 4) for i in range(4))


def test_stage_color_classes_are_wire_disjoint():
    for params, r in ((P52, 1), (P43, 2), (make_gnb_params(6, 2), 3)):
        sched = gnb_self_mult_schedule(params, r)
        for st in sched.stages:
            for cls in st.color_classes:
                used = set()
                for g in cls:
                    w = set(g)
                    assert not (w & used)
                    used |= w


def test_greedy_depth_at_most_stage_sum():
    for params, r in ((P52, 1), (P52, 2), (P43, 1), (P43, 3)):
        sched = gnb_self_mult_schedule(params, r)
        intended = sum(st.stage_depth for st in sched.stages)
        greedy = resources(synth_gnb_self_mult(params, r)).depth
        t_even = params.t + (params.t % 2)
        assert greedy <= intended <= 3 * (t_even * params.m - 1)


def test_read_permutation_is_frobenius_lookup():
    m = 7
    rng = random.Random(11)
    rep = FieldSpec.gnb(m).rep
    for e in range(m + 1):
        perm = rep.read_permutation(e)
        b = rng.getrandbits(m)
        fb = bits(m, gnb_frobenius(m, b, e))
        for x in range(m):
            assert fb[x] == bits(m, b)[perm[x]]


def test_write_permutation_is_square_movement():
    m = 7
    rng = random.Random(12)
    perm = FieldSpec.gnb(m).rep.write_permutation
    b = rng.getrandbits(m)
    moved = [0] * m
    for i, v in enumerate(bits(m, b)):  # coefficient i moves to wire perm[i]
        moved[perm[i]] = v
    assert tuple(moved) == bits(m, gnb_frobenius(m, b, 1))


@pytest.mark.parametrize("spec", [FieldSpec.ghost_bit(4), FieldSpec.gnb(5)], ids=["gbb", "gnb"])
def test_cores_reject_bad_register_layout(spec):
    # the precondition is checked once per block, before the first gate
    rep, w = spec.rep, spec.width
    for a0, b0, c0 in [(0, w - 1, 2 * w), (0, w, w + 1), (-1, w, 2 * w), (0, w, -w)]:
        with pytest.raises(ValueError):
            next(mult_gates(rep, a0, b0, c0))
    for a0, c0 in [(0, w - 1), (w, 1), (-1, w), (0, -w)]:
        with pytest.raises(ValueError):
            next(self_mult_gates(rep, 1, a0, c0))
