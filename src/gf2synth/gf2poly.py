"""Polynomial arithmetic over GF(2), bit-packed into Python ints.

Bit i of an int is the coefficient of x^i, so the integer 0b1011 is
x^3 + x + 1. Python ints are arbitrary precision, which makes them a natural
carrier for GF(2)[x]: addition is XOR and the divisions below are the usual
shift-and-subtract schoolbook loops.

These routines back the classical reference oracles; none of them touch the
circuit layer.
"""

from __future__ import annotations


def gf2_degree(a: int) -> int:
    """Degree of a, with deg(0) == -1."""
    return a.bit_length() - 1


def gf2_mul(a: int, b: int) -> int:
    """Carry-less product in GF(2)[x]: the denser factor, shifted by each set
    bit of the sparser one, so a sparse factor costs only its weight."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    bits = bin(a)[:1:-1]
    j = bits.find("1")
    while j >= 0:
        out ^= b << j
        j = bits.find("1", j + 1)
    return out


def gf2_divmod(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b in GF(2)[x]."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = gf2_degree(b)
    q = 0
    while gf2_degree(a) >= db:
        shift = gf2_degree(a) - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def gf2_mod(a: int, b: int) -> int:
    return gf2_divmod(a, b)[1]


def gf2_inv_mod(a: int, mod: int) -> int:
    """Multiplicative inverse of a modulo `mod`; a must be a unit. The
    shift-and-add extended Euclid (Hankerson, Menezes and Vanstone, Guide to
    Elliptic Curve Cryptography, Alg. 2.48): g1 * a == u and g2 * a == v
    modulo `mod` throughout, and each step cancels u's leading term with v
    shifted, so no quotient is formed. Raises ZeroDivisionError when u
    reaches 0, that is when a shares a factor with `mod`."""
    u, v = gf2_mod(a, mod), mod
    g1, g2 = 1, 0
    while u != 1:
        if not u:
            raise ZeroDivisionError("element is not invertible modulo the given polynomial")
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def prime_divisors(n: int) -> list[int]:
    """The distinct prime factors of n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def all_one_poly(m: int) -> int:
    """x^m + x^(m-1) + ... + x + 1 as a bit-packed int."""
    return (1 << (m + 1)) - 1

