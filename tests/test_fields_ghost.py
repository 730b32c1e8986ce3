"""Ghost-bit representation: embedding, retraction, arithmetic, Frobenius."""

import random

import pytest

from gf2synth.errors import DegreeMismatch, UnsupportedDegree
from gf2synth.fields import (
    FieldSpec,
    GhostBitElement,
    PolyElement,
    check_ghost_bit_support,
    gbb_add,
    gbb_frobenius,
    gbb_identity,
    gbb_mult,
    gbb_square,
    gbb_zero,
    ghost_field_modulus,
    phi_embed,
    phi_retract,
    poly_inverse,
    poly_mult,
)
from gf2synth.gf2poly import gf2_mulmod

SUPPORTED = [2, 4, 10, 12, 18, 28, 36, 52, 58, 60]


def embed(m, v):
    return phi_embed(PolyElement.from_int(m, v))


def retract(e):
    return phi_retract(e).to_int()


def test_supported_degrees_up_to_64():
    got = [m for m in range(2, 65) if check_ghost_bit_support(m)]
    assert got == SUPPORTED


def test_support_requires_primitive_root():
    # m+1 prime is not enough: 2 must generate the multiplicative group
    assert not check_ghost_bit_support(6)   # ord_7(2) = 3
    assert not check_ghost_bit_support(16)  # ord_17(2) = 8
    assert not check_ghost_bit_support(7)   # 8 is not prime


def test_embed_retract_roundtrip():
    for m in (4, 10, 12):
        for v in range(min(1 << m, 4096)):
            e = embed(m, v)
            assert len(e.coeffs) == m + 1 and e.coeffs[m] == 0
            assert retract(e) == v


def test_retract_collapses_redundancy():
    # complementing every bit of a ghost-bit vector names the same element
    m = 4
    for v in range(1 << m):
        e = embed(m, v)
        flipped = GhostBitElement(m, tuple(b ^ 1 for b in e.coeffs))
        assert retract(flipped) == v


def test_square_is_coordinate_permutation():
    m = 4
    perm = FieldSpec.ghost_bit(m).rep.write_permutation
    assert perm == (0, 2, 4, 1, 3)  # bit i lands at position 2i mod 5
    a = GhostBitElement(m, (1, 1, 0, 1, 0))
    sq = gbb_square(a)
    for i in range(m + 1):
        assert sq.coeffs[perm[i]] == a.coeffs[i]


def test_worked_square_example():
    """(1,0,1,0,0) squares to (1,0,0,0,1); its retraction is x^3 + x^2 + x,
    coefficient vector (0,1,1,1) from the constant term up."""
    a = GhostBitElement(4, (1, 0, 1, 0, 0))
    sq = gbb_square(a)
    assert sq.coeffs == (1, 0, 0, 0, 1)
    r = phi_retract(sq)
    assert r.coeffs == (0, 1, 1, 1)
    assert r.to_int() == 0b1110


def test_mult_matches_polynomial_oracle():
    m = 4
    mod = ghost_field_modulus(m)
    for x in range(1 << m):
        for y in range(1 << m):
            got = retract(gbb_mult(embed(m, x), embed(m, y)))
            assert got == gf2_mulmod(x, y, mod)


def test_mult_matches_oracle_random_m10():
    m = 10
    mod = ghost_field_modulus(m)
    rng = random.Random(0xB10F)
    for _ in range(300):
        x, y = rng.getrandbits(m), rng.getrandbits(m)
        got = retract(gbb_mult(embed(m, x), embed(m, y)))
        assert got == gf2_mulmod(x, y, mod)


def test_add_identity_zero():
    m = 4
    z = gbb_zero(m)
    one = gbb_identity(m)
    a = embed(m, 0b1011)
    assert retract(gbb_add(a, z)) == 0b1011
    assert retract(gbb_mult(a, one)) == 0b1011
    assert retract(gbb_mult(a, z)) == 0
    assert retract(gbb_add(a, a)) == 0


def test_frobenius_iterates_square():
    m = 10
    rng = random.Random(3)
    a = embed(m, rng.getrandbits(m))
    b = a
    for r in range(2 * m + 1):
        assert gbb_frobenius(a, r) == b
        b = gbb_square(b)
    # Frobenius of order m fixes every field element
    assert retract(gbb_frobenius(a, m)) == retract(a)


def test_poly_oracles_agree():
    m = 4
    mod = ghost_field_modulus(m)
    for v in range(1, 1 << m):
        a = PolyElement.from_int(m, v)
        inv = poly_inverse(a)
        assert poly_mult(a, inv).to_int() == 1
        assert gf2_mulmod(v, inv.to_int(), mod) == 1
    with pytest.raises(ZeroDivisionError):
        poly_inverse(PolyElement.from_int(m, 0))


def test_unsupported_degree_raises():
    with pytest.raises(UnsupportedDegree):
        phi_embed(PolyElement.from_int(5, 3))
    with pytest.raises(UnsupportedDegree):
        FieldSpec.ghost_bit(8).rep.write_permutation


def test_degree_mismatch_raises():
    a = embed(4, 3)
    b = embed(10, 3)
    with pytest.raises(DegreeMismatch):
        gbb_add(a, b)
    with pytest.raises(DegreeMismatch):
        gbb_mult(a, b)


def test_element_validation():
    with pytest.raises(ValueError):
        GhostBitElement(4, (1, 0, 2, 0, 0))
    with pytest.raises(ValueError):
        GhostBitElement(4, (1, 0, 0, 0))  # wrong width
