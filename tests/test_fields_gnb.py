"""Gaussian normal basis parameters, arithmetic, and the isomorphism check."""

import random
import time
from dataclasses import replace

import pytest

from gf2synth import fields
from gf2synth.cli import verify_kind
from gf2synth.errors import (
    ConstructionFailed,
    DegreeTooSmall,
    InvalidParams,
    NoGnbFound,
    UnsupportedDegree,
)
from gf2synth.fields import (
    FieldSpec,
    Gnb,
    GnbParams,
    find_gnb_type,
    gnb_frobenius,
    gnb_mult,
    gnb_verify_isomorphism,
    make_gnb_params,
    multiplicative_order,
    validate_gnb_params,
)


WIDE = (163, 233, 409)  # the benchmark's normal-basis degrees


def rand_elem(rng, m):
    return rng.getrandbits(m)


def bits(v, n):
    return tuple((v >> i) & 1 for i in range(n))


def test_find_type_small_degrees():
    known = {
        2: 1, 3: 2, 4: 1, 5: 2, 6: 2, 7: 4, 9: 2, 10: 1, 11: 2,
        12: 1, 18: 1, 19: 10, 28: 1, 33: 2, 36: 1, 52: 1, 58: 1, 60: 1,
    }
    for m, t in known.items():
        assert find_gnb_type(m).t == t, m


def test_find_type_large_degrees():
    assert find_gnb_type(163).t == 4
    assert find_gnb_type(233).t == 2
    assert find_gnb_type(409).t == 4
    assert find_gnb_type(571).t == 10


def test_type_one_iff_ghost_support():
    from gf2synth.fields import check_ghost_bit_support

    for m in range(2, 65):
        try:
            t = find_gnb_type(m).t
        except NoGnbFound:
            continue
        assert (t == 1) == check_ghost_bit_support(m)


def test_no_gnb_when_degree_divisible_by_8():
    for m in (8, 16, 24, 32, 40, 48, 56, 64):
        with pytest.raises(NoGnbFound):
            find_gnb_type(m)


def test_params_m5_t2():
    p = make_gnb_params(5, 2)
    assert (p.m, p.t, p.p, p.u) == (5, 2, 11, 10)
    assert multiplicative_order(10, 11) == 2
    # F(k) for k = 1..10
    assert p.f_table == (0, 1, 3, 2, 4, 4, 2, 3, 1, 0)
    validate_gnb_params(p)


def test_params_invalid_type():
    with pytest.raises(InvalidParams):
        make_gnb_params(5, 3)  # 16 = 3*5+1 is not prime
    with pytest.raises(InvalidParams):
        make_gnb_params(8, 1)  # no normal basis from Gauss periods at 8 | m


def test_square_is_right_rotation():
    a = 0b01011  # (1, 1, 0, 1, 0)
    assert bits(gnb_frobenius(5, a, 1), 5) == (0, 1, 1, 0, 1)
    # identity is the all-ones vector and is fixed by squaring
    one = FieldSpec.gnb(5).identity
    assert bits(one, 5) == (1, 1, 1, 1, 1)
    assert gnb_frobenius(5, one, 1) == one


def test_mult_identity_and_zero():
    p = make_gnb_params(5, 2)
    rng = random.Random(5)
    one, zero = FieldSpec.gnb(5).identity, 0
    for _ in range(32):
        a = rand_elem(rng, 5)
        assert gnb_mult(p, a, one) == a
        assert gnb_mult(p, a, zero) == zero
        assert a ^ a == zero


def test_mult_commutative_and_distributive():
    rng = random.Random(9)
    for p, n in [(make_gnb_params(7, 4), 64)] + [(find_gnb_type(m), 8) for m in WIDE]:
        for _ in range(n):
            a, b, c = (rand_elem(rng, p.m) for _ in range(3))
            assert gnb_mult(p, a, b) == gnb_mult(p, b, a)
            left = gnb_mult(p, a, b ^ c)
            right = gnb_mult(p, a, b) ^ gnb_mult(p, a, c)
            assert left == right


def test_squaring_distributes_over_mult():
    p = make_gnb_params(6, 3)
    rng = random.Random(13)
    for _ in range(64):
        a, b = rand_elem(rng, 6), rand_elem(rng, 6)
        assert gnb_frobenius(6, gnb_mult(p, a, b), 1) == gnb_mult(
            p, gnb_frobenius(6, a, 1), gnb_frobenius(6, b, 1)
        )
    # at full width, for r beyond one turn as well
    for p in map(find_gnb_type, WIDE):
        m = p.m
        for _ in range(4):
            a, b = rand_elem(rng, m), rand_elem(rng, m)
            for r in (1, m - 1, m + 3):
                fa, fb = gnb_frobenius(m, a, r), gnb_frobenius(m, b, r)
                assert gnb_frobenius(m, gnb_mult(p, a, b), r) == gnb_mult(p, fa, fb)


def test_frobenius_order():
    p = make_gnb_params(5, 2)
    a = 0b01101  # (1, 0, 1, 1, 0)
    assert gnb_frobenius(5, a, 5) == a
    assert gnb_frobenius(5, a, 2) == gnb_frobenius(5, gnb_frobenius(5, a, 1), 1)
    assert gnb_mult(p, a, a) == gnb_frobenius(5, a, 1)
    rng = random.Random(15)
    for m in WIDE:
        a = rand_elem(rng, m)
        assert gnb_frobenius(m, a, m) == a


def test_odd_type_params():
    p = make_gnb_params(4, 3)
    assert p.p == 13
    validate_gnb_params(p)
    one = 0b1111
    for a in range(1, 16):
        assert gnb_mult(p, a, one) == a


def test_isomorphism_verifier_accepts_valid_tables():
    certified = set()
    for m in range(2, 65):
        for t in range(1, 7):
            try:
                params = make_gnb_params(m, t)
            except InvalidParams:
                continue
            assert gnb_verify_isomorphism(params), (m, t)
            certified.add((m, t))
    assert {(5, 2), (4, 3), (7, 4), (6, 3), (60, 1)} <= certified


def test_isomorphism_verifier_certifies_nist_degrees():
    params = [find_gnb_type(m) for m in (163, 233, 283, 409, 571)]
    t0 = time.monotonic()
    assert all(gnb_verify_isomorphism(p) for p in params)
    elapsed = time.monotonic() - t0
    assert elapsed < 2, f"certifying the NIST degrees took {elapsed:.2f}s"


def test_gnb_mult_ignores_index_table():
    rng = random.Random(21)
    for m, t in ((5, 2), (4, 3), (6, 3), (163, 4)):
        good = make_gnb_params(m, t)
        blank = GnbParams(m, t, good.p, good.u, (0,) * (good.p - 1))
        for _ in range(16):
            a, b = rand_elem(rng, m), rand_elem(rng, m)
            assert gnb_mult(blank, a, b) == gnb_mult(good, a, b)


def _swap_two_table_entries(monkeypatch):
    """Make every table construction (and so its validation) swap F(2) and F(3)."""
    original = fields._build_f_table

    def swapped(*args):
        table = list(original(*args))
        table[1], table[2] = table[2], table[1]
        return tuple(table)

    monkeypatch.setattr(fields, "_build_f_table", swapped)


def test_swapped_index_table_fails_verification_m163(monkeypatch):
    good = find_gnb_type(163)
    _swap_two_table_entries(monkeypatch)
    spec = FieldSpec.gnb(163)
    assert spec.gnb_params.f_table != good.f_table
    assert not verify_kind(spec, "mult").passed
    assert not verify_kind(spec, "selfmult", r=3).passed
    assert gnb_verify_isomorphism(spec.gnb_params) is False


def test_dropped_stage_fails_verification_m163(monkeypatch):
    original = fields.gnb_stage_bases
    monkeypatch.setattr(
        fields, "gnb_stage_bases", lambda params, shift=0: original(params, shift)[1:]
    )
    assert not verify_kind(FieldSpec.gnb(163), "mult").passed


@pytest.mark.parametrize("m, t", [(163, None), (5, 2), (233, 2)])
def test_a_spec_builds_its_index_table_once(monkeypatch, m, t):
    # make_gnb_params builds and checks the table; Gnb takes those params
    # without rebuilding it, and still checks any other params it is handed
    builds = []
    original = fields._build_f_table

    def counted(*args):
        builds.append(args)
        return original(*args)

    monkeypatch.setattr(fields, "_build_f_table", counted)
    spec = FieldSpec.gnb(m, t=t)
    assert len(builds) == 1
    params = replace(spec.gnb_params)  # an equal copy is as valid
    assert Gnb(params).gnb_params == spec.gnb_params and len(builds) == 1
    table = list(params.f_table)
    table[1], table[2] = table[2], table[1]
    with pytest.raises(InvalidParams, match="index table"):
        Gnb(replace(params, f_table=tuple(table)))
    assert len(builds) == 2


def test_isomorphism_verifier_rejects_corrupt_table():
    good = make_gnb_params(5, 2)
    bad_table = list(good.f_table)
    bad_table[1], bad_table[2] = bad_table[2], bad_table[1]
    bad = GnbParams(good.m, good.t, good.p, good.u, tuple(bad_table))
    assert bad.f_table != good.f_table
    assert not gnb_verify_isomorphism(bad)
    assert gnb_verify_isomorphism(replace(good, u=1)) is False  # u of order 1, not 2


def test_isomorphism_verifier_rejects_wrong_prime():
    good = make_gnb_params(5, 2)
    with pytest.raises(ConstructionFailed):
        gnb_verify_isomorphism(GnbParams(5, 2, 13, good.u, good.f_table))


def test_large_params_validate():
    for m in (163, 233):
        params = find_gnb_type(m)
        validate_gnb_params(params)
        validate_gnb_params(make_gnb_params(m, params.t))


def _reference_u_and_table(m, t):
    """The search as first written: the smallest u whose order, found by
    factoring p - 1, is t, and the index table with one pow per entry."""
    p = t * m + 1
    u = next(c for c in range(1, p) if multiplicative_order(c, p) == t)
    table = [None] * (p - 1)
    for i in range(m):
        for j in range(t):
            table[pow(2, i, p) * pow(u, j, p) % p - 1] = i
    return u, tuple(table)


def test_u_search_and_table_match_the_order_factoring_reference():
    pairs = 0
    for m in range(2, 201):
        for t in range(1, 31):
            if fields._gnb_violation(m, t) is not None:
                continue
            params = make_gnb_params(m, t)
            assert (params.u, params.f_table) == _reference_u_and_table(m, t), (m, t)
            pairs += 1
    assert pairs == 785


def test_order_checks_accept_exactly_the_units_of_order_t():
    # every unit of order t generates the same subgroup, so its table is the
    # table; any other unit is refused by validation and by the certifier
    for m in range(2, 21):
        for t in range(1, 7):
            if fields._gnb_violation(m, t) is not None:
                continue
            params = make_gnb_params(m, t)
            for c in range(1, params.p):
                other = replace(params, u=c)
                of_order_t = multiplicative_order(c, params.p) == t
                assert gnb_verify_isomorphism(other) == of_order_t, (m, t, c)
                if of_order_t:
                    validate_gnb_params(other)
                else:
                    with pytest.raises(InvalidParams, match=f"does not have order {t}"):
                        validate_gnb_params(other)


M5 = make_gnb_params(5, 2)  # p = 11, u = 10


@pytest.mark.parametrize(
    "refused, error",
    [
        (lambda: validate_gnb_params(replace(M5, t=3)), InvalidParams),  # 16 is not prime
        (lambda: validate_gnb_params(replace(M5, p=13)), InvalidParams),
        (lambda: validate_gnb_params(replace(M5, u=0)), InvalidParams),
        (lambda: validate_gnb_params(replace(M5, u=11)), InvalidParams),
        (lambda: validate_gnb_params(replace(M5, u=1)), InvalidParams),  # order 1, not 2
        (lambda: validate_gnb_params(replace(M5, f_table=M5.f_table[:-1])), InvalidParams),
        (lambda: validate_gnb_params(replace(M5, f_table=(1, 0) + M5.f_table[2:])), InvalidParams),
        (lambda: FieldSpec.ghost_bit(1), UnsupportedDegree),
        (lambda: FieldSpec.gnb(1), UnsupportedDegree),
        (lambda: find_gnb_type(1), UnsupportedDegree),
        (lambda: make_gnb_params(1, 1), InvalidParams),
        (lambda: make_gnb_params(5, 0), InvalidParams),
        (lambda: FieldSpec.ghost_bit(2).inverter_bounds(), DegreeTooSmall),
        (lambda: FieldSpec.gnb(2, t=1).inverter_bounds(), DegreeTooSmall),
        (lambda: gnb_verify_isomorphism(replace(M5, u=0)), ConstructionFailed),
        (lambda: gnb_verify_isomorphism(replace(M5, f_table=M5.f_table[:-1])), ConstructionFailed),
    ],
    ids=[
        "validate-no-basis-of-type", "validate-wrong-p", "validate-u-zero", "validate-u-is-p", "validate-u-wrong-order",
        "validate-short-table", "validate-wrong-table", "ghost-bit-spec-m1", "gnb-spec-m1",
        "find-type-m1", "make-params-m1", "make-params-t0", "bounds-ghost-m2", "bounds-gnb-m2",
        "isomorphism-u-zero", "isomorphism-short-table",
    ],
)
def test_refusals(refused, error):
    """Each refusal raises exactly its own class, not a subclass or a parent."""
    with pytest.raises(ValueError) as exc:
        refused()
    assert type(exc.value) is error
