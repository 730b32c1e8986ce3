"""The inversion chain built from the binary expansion of m - 1."""

import pytest

from gf2synth.errors import DegreeTooSmall
from gf2synth.fields import (
    FieldSpec,
    MultiplierBlock,
    _chain_shape,
    addition_chain,
    itoh_tsujii_inverse,
    phi_retract,
    poly_inverse,
)


def split(chain):
    """The chain's self-power blocks and its general blocks, in order."""
    ladder = [b for b in chain if b.kind == "self_power"]
    general = [b for b in chain if b.kind == "general"]
    assert chain == (*ladder, *general)
    return ladder, general


def test_plan_shape_m163():
    # m - 1 = 162 = 2^7 + 2^5 + 2^1: seven self-power blocks, then two
    # general blocks reading ladder registers 5 and 1
    chain = addition_chain(163)
    ladder, general = split(chain)
    assert [b.r for b in ladder] == [1, 2, 4, 8, 16, 32, 64]
    assert [(b.source_reg, b.target_reg, b.operand_reg, b.operand_exponent) for b in general] == [
        (7, 8, 5, 128),
        (8, 9, 1, 160),
    ]
    assert len(chain) == 9  # floor(log2(m-1)) + HW(m-1) - 1


def test_plan_shape_m233():
    # m - 1 = 232 = 2^7 + 2^6 + 2^5 + 2^3
    chain = addition_chain(233)
    ladder, general = split(chain)
    assert len(chain) == 10
    assert len(ladder) == 7
    assert [b.operand_reg for b in general] == [6, 5, 3]


def test_plan_shape_m7():
    # m - 1 = 6 = 2^2 + 2^1: two ladder steps, one general block
    ladder, general = split(addition_chain(7))
    assert len(ladder) == 2
    assert general == [MultiplierBlock("general", 2, 3, operand_reg=1, operand_exponent=4)]


def test_ladder_doubles_exponents():
    chain = addition_chain(28)
    ladder, _ = split(chain)
    assert len(ladder) == 4
    # step j reads register j through 2^j squarings and writes register j+1
    for j, step in enumerate(ladder):
        assert step.r == 1 << j
        assert (step.source_reg, step.target_reg) == (j, j + 1)
    # block i writes register i + 1: the last block writes the last register
    assert [b.target_reg for b in chain] == list(range(1, len(chain) + 1))


def test_combine_exponents_partial_sums():
    _, general = split(addition_chain(163))
    # each operand is shifted past the bits already accumulated: the shift is
    # the partial sum of 2^k over the set bits already folded in
    exps = [step.operand_exponent for step in general]
    assert exps == [1 << 7, (1 << 7) + (1 << 5)]
    # shifts plus the final bits reconstruct m - 1
    assert exps[-1] + (1 << general[-1].operand_reg) == 162


def test_power_of_two_minus_one_has_no_combine():
    # m = 9: m - 1 = 8 is a power of two, pure ladder
    chain = addition_chain(9)
    ladder, general = split(chain)
    assert general == []
    assert len(ladder) == 3


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
    assert len(addition_chain(m)) == m - 2
    assert itoh_tsujii_inverse(spec, 0) == 0
    for a in range(1, 1 << m):
        assert spec.mult(a, itoh_tsujii_inverse(spec, a)) == spec.identity


def test_inverse_exhaustive_ghost_m2_plan_without_block():
    # both representatives of every element of F_4, ghost bit included
    spec = FieldSpec.ghost_bit(2)
    assert addition_chain(2) == ()
    for v in range(8):
        a = phi_retract(2, v)
        assert phi_retract(2, itoh_tsujii_inverse(spec, v)) == (poly_inverse(2, a) if a else 0)


def test_chain_and_bounds_shape_agree():
    """Two derivations of the chain's shape: the blocks ``addition_chain``
    builds, and ``_chain_shape``'s count from the bits of m - 1 that the
    closed-form bounds read. Either one drifting fails here."""
    for m in range(2, 4097):
        chain = addition_chain(m)
        log2 = (m - 1).bit_length() - 1
        ladder, general = chain[:log2], chain[log2:]
        assert ladder == tuple(MultiplierBlock("self_power", j, j + 1, r=1 << j) for j in range(log2)), m
        assert len(general) == (m - 1).bit_count() - 1, m
        total = 1 << log2  # the powers of two folded in so far
        for i, b in enumerate(general, start=log2):
            assert b.kind == "general" and (b.source_reg, b.target_reg) == (i, i + 1), m
            assert b.operand_exponent == total and not b.squared_write, m
            total += 1 << b.operand_reg
        assert total == m - 1
        if m >= 3:
            assert _chain_shape(m) == (len(ladder), len(general) + 1), m
