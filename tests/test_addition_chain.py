"""Inversion plans built from the binary expansion of m - 1."""

import pytest

from gf2synth.errors import DegreeTooSmall
from gf2synth.fields import (
    FieldSpec,
    addition_chain,
    itoh_tsujii_inverse,
    phi_retract,
    poly_inverse,
)


def test_plan_shape_m163():
    plan = addition_chain(163)
    assert plan.k_list == (7, 5, 1)
    assert plan.floor_log == 7
    assert plan.hamming_weight == 3
    assert plan.multiplications == 9  # floor_log + hamming_weight - 1
    assert len(plan.ladder) == 7
    assert len(plan.combine) == 2


def test_plan_shape_m233():
    plan = addition_chain(233)
    assert plan.k_list == (7, 6, 5, 3)
    assert plan.multiplications == 10


def test_plan_shape_m7():
    # m - 1 = 6 = 2^2 + 2^1: two ladder steps, one combine
    plan = addition_chain(7)
    assert plan.k_list == (2, 1)
    assert len(plan.ladder) == 2
    assert len(plan.combine) == 1


def test_ladder_doubles_exponents():
    plan = addition_chain(28)
    # step j reads register j through 2^j squarings and writes register j+1
    for j, step in enumerate(plan.ladder):
        assert step.r == 1 << j
        assert (step.source_reg, step.target_reg) == (j, j + 1)
    assert plan.register_count == 1 + plan.multiplications
    assert plan.output_reg == plan.register_count - 1


def test_combine_exponents_partial_sums():
    plan = addition_chain(163)
    # each operand is shifted past the bits already accumulated: the shift is
    # the partial sum of 2^k over the preceding k_list entries
    exps = [step.operand_exponent for step in plan.combine]
    assert exps == [1 << 7, (1 << 7) + (1 << 5)]
    # shifts plus the final bits reconstruct m - 1
    assert (1 << 7) + (1 << 5) + (1 << 1) == 162


def test_power_of_two_minus_one_has_no_combine():
    # m = 9: m - 1 = 8 is a power of two, pure ladder
    plan = addition_chain(9)
    assert plan.k_list == (3,)
    assert len(plan.combine) == 0
    assert plan.multiplications == 3


def test_degree_too_small():
    with pytest.raises(DegreeTooSmall):
        addition_chain(1)


def test_inverse_exhaustive_ghost_m4():
    spec = FieldSpec.ghost_bit(4)
    for v in range(1, 16):
        inv = itoh_tsujii_inverse(spec, v)
        assert phi_retract(4, inv) == poly_inverse(4, v)
    zero_inv = itoh_tsujii_inverse(spec, 0)
    assert phi_retract(4, zero_inv) == 0


def test_inverse_exhaustive_gnb_m5():
    spec = FieldSpec.gnb(5)
    one = 0b11111  # identity is all ones
    for a in range(1, 32):
        inv = itoh_tsujii_inverse(spec, a)
        assert spec.mult(a, inv) == one


def test_inverse_random_gnb_m30():
    import random

    spec = FieldSpec.gnb(30)
    one = (1 << 30) - 1
    rng = random.Random(0xB10F)
    for _ in range(25):
        a = rng.getrandbits(30) or 1
        assert spec.mult(a, itoh_tsujii_inverse(spec, a)) == one



@pytest.mark.parametrize("spec", [FieldSpec.gnb(2, t=1), FieldSpec.gnb(3)], ids=["gnb2", "gnb3"])
def test_inverse_exhaustive_gnb_plans_with_zero_and_one_block(spec):
    # m = 2: no block, the inverse is the closing squaring alone; m = 3: one
    # self-power block, which the inverter gives the squared write
    m = spec.m
    assert addition_chain(m).multiplications == m - 2
    assert itoh_tsujii_inverse(spec, 0) == 0
    for a in range(1, 1 << m):
        assert spec.mult(a, itoh_tsujii_inverse(spec, a)) == spec.identity


def test_inverse_exhaustive_ghost_m2_plan_without_block():
    # both representatives of every element of F_4, ghost bit included
    spec = FieldSpec.ghost_bit(2)
    assert addition_chain(2).multiplications == 0
    for v in range(8):
        a = phi_retract(2, v)
        assert phi_retract(2, itoh_tsujii_inverse(spec, v)) == (poly_inverse(2, a) if a else 0)
