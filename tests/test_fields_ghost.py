"""Ghost-bit representation: embedding, retraction, arithmetic, Frobenius."""

import random

import pytest

from gf2synth.errors import UnsupportedDegree
from gf2synth.fields import (
    FieldSpec,
    check_ghost_bit_support,
    gbb_frobenius,
    gbb_mult,
    phi_retract,
    poly_inverse,
)
from gf2synth.gf2poly import all_one_poly, gf2_mod, gf2_mul

SUPPORTED = [2, 4, 10, 12, 18, 28, 36, 52, 58, 60]
WIDE = (178, 226)  # the benchmark's ghost-bit degrees


def bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


def test_supported_degrees_up_to_64():
    got = [m for m in range(2, 65) if check_ghost_bit_support(m)]
    assert got == SUPPORTED


def test_support_requires_primitive_root():
    # m+1 prime is not enough: 2 must generate the multiplicative group
    assert not check_ghost_bit_support(6)   # ord_7(2) = 3
    assert not check_ghost_bit_support(16)  # ord_17(2) = 8
    assert not check_ghost_bit_support(7)   # 8 is not prime


def test_embed_retract_roundtrip():
    # an m-bit polynomial-basis value is its own representative, ghost bit 0
    for m in (4, 10, 12):
        for v in range(min(1 << m, 4096)):
            assert v >> m == 0
            assert phi_retract(m, v) == v


def test_retract_collapses_redundancy():
    # complementing every bit of a ghost-bit vector names the same element
    m = 4
    for v in range(1 << m):
        flipped = v ^ ((1 << (m + 1)) - 1)
        assert phi_retract(m, flipped) == v
    rng = random.Random(17)
    for m in WIDE:
        full = (1 << (m + 1)) - 1
        for _ in range(50):
            a = rng.getrandbits(m + 1)
            assert phi_retract(m, a) == phi_retract(m, a ^ full)


def test_square_is_coordinate_permutation():
    m = 4
    perm = FieldSpec.ghost_bit(m).write_permutation
    assert perm == (0, 2, 4, 1, 3)  # bit i lands at position 2i mod 5
    a = 0b01011  # (1, 1, 0, 1, 0)
    sq = bits(gbb_frobenius(m, a, 1), m + 1)
    for i in range(m + 1):
        assert sq[perm[i]] == bits(a, m + 1)[i]


def test_worked_square_example():
    """(1,0,1,0,0) squares to (1,0,0,0,1); its retraction is x^3 + x^2 + x,
    coefficient vector (0,1,1,1) from the constant term up."""
    a = 0b00101  # (1, 0, 1, 0, 0)
    sq = gbb_frobenius(4, a, 1)
    assert bits(sq, 5) == (1, 0, 0, 0, 1)
    r = phi_retract(4, sq)
    assert bits(r, 4) == (0, 1, 1, 1)
    assert r == 0b1110


def test_mult_matches_polynomial_oracle():
    m = 4
    mod = all_one_poly(m)
    for x in range(1 << m):
        for y in range(1 << m):
            got = phi_retract(m, gbb_mult(m, x, y))
            assert got == gf2_mod(gf2_mul(x, y), mod)


def test_mult_matches_oracle_random_m10():
    m = 10
    mod = all_one_poly(m)
    rng = random.Random(0xB10F)
    for _ in range(300):
        x, y = rng.getrandbits(m), rng.getrandbits(m)
        got = phi_retract(m, gbb_mult(m, x, y))
        assert got == gf2_mod(gf2_mul(x, y), mod)


def test_add_identity_zero():
    m = 4
    z = 0
    one = FieldSpec.ghost_bit(m).identity
    a = 0b1011
    assert phi_retract(m, a ^ z) == 0b1011
    assert phi_retract(m, gbb_mult(m, a, one)) == 0b1011
    assert phi_retract(m, gbb_mult(m, a, z)) == 0
    assert phi_retract(m, a ^ a) == 0


def test_frobenius_iterates_square():
    m = 10
    rng = random.Random(3)
    a = rng.getrandbits(m)
    b = a
    for r in range(2 * m + 1):
        assert gbb_frobenius(m, a, r) == b
        b = gbb_frobenius(m, b, 1)
    # Frobenius of order m fixes every field element
    assert phi_retract(m, gbb_frobenius(m, a, m)) == phi_retract(m, a)
    # at full width: Frobenius is a ring map, the product commutes
    for m in WIDE:
        for _ in range(8):
            a, b = rng.getrandbits(m + 1), rng.getrandbits(m + 1)
            assert gbb_mult(m, a, b) == gbb_mult(m, b, a)
            assert gbb_frobenius(m, a, m) == a
            for r in (1, m - 1, m + 3):
                fa, fb = gbb_frobenius(m, a, r), gbb_frobenius(m, b, r)
                assert gbb_frobenius(m, gbb_mult(m, a, b), r) == gbb_mult(m, fa, fb)


def test_poly_oracles_agree():
    m = 4
    mod = all_one_poly(m)
    for v in range(1, 1 << m):
        inv = poly_inverse(m, v)
        assert phi_retract(m, gbb_mult(m, v, inv)) == 1
        assert gf2_mod(gf2_mul(v, inv), mod) == 1
    with pytest.raises(ZeroDivisionError):
        poly_inverse(m, 0)


def test_unsupported_degree_raises():
    with pytest.raises(UnsupportedDegree):
        FieldSpec.ghost_bit(5)
    with pytest.raises(UnsupportedDegree):
        FieldSpec.ghost_bit(8).write_permutation
