"""Polynomial arithmetic over GF(2) on bit-packed ints."""

import random
import signal

import pytest

from gf2synth.gf2poly import (
    all_one_poly,
    gf2_degree,
    gf2_divmod,
    gf2_inv_mod,
    gf2_mod,
    gf2_mul,
    prime_divisors,
)

# Reference routines that no pipeline needs, kept here as the tests' oracles.


def gf2_mulmod(a, b, mod):
    return gf2_mod(gf2_mul(a, b), mod)


def gf2_gcd(a, b):
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_ext_gcd(a, b):
    """Return (g, s, t) with s*a + t*b == g == gcd(a, b)."""
    r0, r1 = a, b
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q, r = gf2_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ gf2_mul(q, s1)
        t0, t1 = t1, t0 ^ gf2_mul(q, t1)
    return r0, s0, t0


def gf2_is_irreducible(f):
    """Rabin's test: f of degree n is irreducible iff x^(2^n) == x mod f and
    gcd(x^(2^(n/q)) - x, f) == 1 for every prime divisor q of n."""
    n = gf2_degree(f)
    if n <= 0:
        return False
    if n == 1:
        return True
    if f & 1 == 0:  # divisible by x
        return False
    x = 0b10
    h = x
    for _ in range(n):
        h = gf2_mulmod(h, h, f)
    if h != gf2_mod(x, f):
        return False
    for q in prime_divisors(n):
        h = x
        for _ in range(n // q):
            h = gf2_mulmod(h, h, f)
        if gf2_gcd(h ^ x, f) != 1:
            return False
    return True


def test_degree():
    assert gf2_degree(0) == -1
    assert gf2_degree(1) == 0
    assert gf2_degree(0b1011) == 3


def test_mul_known_values():
    # (x + 1)^2 == x^2 + 1 in characteristic 2
    assert gf2_mul(0b11, 0b11) == 0b101
    # (x^2 + x + 1)(x + 1) == x^3 + 1
    assert gf2_mul(0b111, 0b11) == 0b1001
    assert gf2_mul(0, 0b1101) == 0
    assert gf2_mul(1, 0b1101) == 0b1101


def test_divmod_reconstructs():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.getrandbits(24)
        b = rng.getrandbits(12) | 1 << 11
        q, r = gf2_divmod(a, b)
        assert gf2_mul(q, b) ^ r == a
        assert gf2_degree(r) < gf2_degree(b)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        gf2_divmod(5, 0)


def test_ext_gcd_bezout():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.getrandbits(16)
        b = rng.getrandbits(16)
        g, s, t = gf2_ext_gcd(a, b)
        assert gf2_mul(s, a) ^ gf2_mul(t, b) == g
        assert gf2_gcd(a, b) == g


def test_inv_mod():
    f = all_one_poly(4)  # x^4 + x^3 + x^2 + x + 1, irreducible
    for a in range(1, 16):
        inv = gf2_inv_mod(a, f)
        assert gf2_mulmod(a, inv, f) == 1
    with pytest.raises(ZeroDivisionError):
        gf2_inv_mod(0, f)


def reference_inverse(a, f):
    """The inverse by the quotient-forming extended Euclid."""
    g, s, _ = gf2_ext_gcd(a, f)
    assert g == 1
    return gf2_divmod(s, f)[1]


@pytest.mark.parametrize("m", [4, 10, 12])
def test_inv_mod_agrees_with_ext_gcd_on_every_element(m):
    f = all_one_poly(m)
    for a in range(1, 1 << m):
        assert gf2_inv_mod(a, f) == reference_inverse(a, f)


def test_inv_mod_agrees_with_ext_gcd_at_m178():
    f = all_one_poly(178)
    rng = random.Random(178)
    for _ in range(500):
        a = rng.getrandbits(178) or 1
        assert gf2_inv_mod(a, f) == reference_inverse(a, f)


def test_inv_mod_of_a_non_unit_raises_promptly():
    def too_slow(signum, frame):
        raise TimeoutError("gf2_inv_mod did not return")

    f = gf2_mul(0b11, 0b111)  # (x + 1)(x^2 + x + 1), reducible
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        for a in (0b11, 0b111, gf2_mul(0b11, 0b11)):  # x + 1, x^2 + x + 1, (x + 1)^2
            with pytest.raises(ZeroDivisionError):
                gf2_inv_mod(a, f)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert gf2_mulmod(0b10, gf2_inv_mod(0b10, f), f) == 1  # x is a unit


def test_irreducibility_small():
    # degree 2: x^2 + x + 1 is the only irreducible
    assert gf2_is_irreducible(0b111)
    assert not gf2_is_irreducible(0b101)  # (x+1)^2
    assert not gf2_is_irreducible(0b110)  # x(x+1)
    # the two irreducible cubics
    assert gf2_is_irreducible(0b1011)
    assert gf2_is_irreducible(0b1101)
    assert not gf2_is_irreducible(0b1111)  # (x+1)(x^2+x+1)


def test_irreducible_count_degree_4():
    # there are exactly three irreducible quartics over GF(2)
    quartics = [f for f in range(1 << 4, 1 << 5) if gf2_is_irreducible(f)]
    assert quartics == [0b10011, 0b11001, 0b11111]


def test_all_one_poly_irreducible_iff_ghost_condition():
    """The all-one polynomial of degree m is irreducible exactly when m+1 is
    prime with 2 primitive mod m+1; cross-check against Rabin's test."""
    from gf2synth.fields import check_ghost_bit_support

    for m in range(2, 40):
        assert gf2_is_irreducible(all_one_poly(m)) == check_ghost_bit_support(m)

