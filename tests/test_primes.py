"""Primality: the one test the normal-basis parameter search relies on."""

from gf2synth.fields import is_prime


def test_is_prime_agrees_with_a_sieve():
    n = 20000
    sieve = [False, False] + [True] * (n - 1)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    assert [is_prime(k) for k in range(n + 1)] == sieve


def test_strong_pseudoprimes_are_composite():
    # the smallest strong pseudoprimes to the first 1, 2, ..., 7 prime bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321):
        assert not is_prime(n), n


def test_large_primes():
    for n in ((1 << 31) - 1, 4294967291, 4294967311, (1 << 61) - 1, (1 << 89) - 1):
        assert is_prime(n), n
