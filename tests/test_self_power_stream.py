"""Self-power stage and batch streams: column shapes and byte identity.

The self-power columns are gathered by ``circuits.gather`` (one ``itemgetter``
call per column) and the ghost-bit stages are built from ranges and slices.
These tests pin that stream, column for column, to a frozen copy of the
comprehension formulas it replaced (``frozen_*`` below), and check that a
column of one gate is still a sequence.
"""

from collections.abc import Sequence
from functools import lru_cache
from math import gcd

import pytest

from gf2synth.cli import main
from gf2synth.fields import (
    FieldSpec,
    GhostBit,
    Gnb,
    MultiplierBlock,
    _gnb_violation,
    check_ghost_bit_support,
    gnb_stage_bases,
    make_gnb_params,
)
from gf2synth.inverters import inverter_batches, inverter_structure
from gf2synth.multipliers import block_batches

GHOST_DEGREES = [m for m in range(2, 61) if check_ghost_bit_support(m)]


# ---------------------------------------------------------------------------
# the frozen formulas


def frozen_ghost_stages(n, r, reverse):
    """Ghost-bit stages as (label, kind, delta, classes), by comprehension."""
    p2r = pow(2, r, n)
    if p2r == 1:
        layer = (list(range(n)), None, [n + 2 * i % n for i in range(n)])
        yield "squaring", "cnot", None, ((layer,),)
        return
    inv2 = pow(2, -1, n)
    for sigma in range(n - 1, -1, -1) if reverse else range(n):
        x = [j for j in range(n) if j < (sigma - j) % n]
        y = [(sigma - j) % n for j in x]
        jstar = sigma * inv2 % n
        first = (x, y, [n + (j + p2r * c) % n for j, c in zip(x, y)])
        fixed = ([jstar], None, [n + jstar * (1 + p2r) % n])
        second = (x, y, [n + (c + p2r * j) % n for j, c in zip(x, y)])
        yield f"sigma={sigma}", "toffoli", None, ((first, fixed), (second,))


@lru_cache(maxsize=None)
def frozen_coset_colors(m, d):
    g = gcd(d, m)
    cycle_len = m // g
    colors = ([], [], []), ([], [], []), ([], [], [])
    for v in range(g):
        f = v
        for s in range(cycle_len):
            lo, hi, at = colors[2 if (s == cycle_len - 1 and cycle_len % 2 == 1) else s % 2]
            nxt = (f + d) % m
            lo.append(min(f, nxt))
            hi.append(max(f, nxt))
            at.append(f)
            f = nxt
    return tuple(c for c in colors if c[0])


def frozen_gnb_stages(params, r, reverse):
    """Normal-basis stages, the output column mapped through the out list
    into the window's output half."""
    m = params.m
    idx = list(range(m))
    bases = gnb_stage_bases(params, r)
    for label, fa, fb in reversed(bases) if reverse else bases:
        delta = fb - fa
        d = delta % m
        k = fa % m
        if d == 0:
            yield label, "cnot", delta, (((idx[k:] + idx[:k], None, [m + i for i in idx]),),)
            continue
        out = [m + i for i in idx[m - k:] + idx[:m - k]]
        classes = tuple(
            ((x, y, list(map(out.__getitem__, f))),) for x, y, f in frozen_coset_colors(m, d)
        )
        yield label, "toffoli", delta, classes


def frozen_stages(spec, r, reverse):
    if isinstance(spec, GhostBit):
        return frozen_ghost_stages(spec.width, r, reverse)
    return frozen_gnb_stages(spec.gnb_params, r, reverse)


def frozen_self_mult_batches(spec, r, a0, c0, square_write=False, reverse=False, stages=None):
    """The core's translation: every column mapped by list(map(...)) through
    the window list (the source wires, then the target wires), on ``stages``
    (the frozen stages of r when not given)."""
    perm = spec.write_permutation if square_write else range(spec.width)
    window = ([a0 + i for i in range(spec.width)] + [c0 + i for i in perm]).__getitem__
    for _, _, _, classes in frozen_stages(spec, r, reverse) if stages is None else stages:
        batches = [
            (list(map(window, x)), None if y is None else list(map(window, y)), list(map(window, c)))
            for cls in classes
            for x, y, c in cls
        ]
        if reverse:
            batches = [
                (xa[::-1], None if xb is None else xb[::-1], t[::-1])
                for xa, xb, t in reversed(batches)
            ]
        yield from batches


def frozen_inverter_batches(spec):
    """``inverter_batches`` with the self-power blocks from the frozen core."""
    s = inverter_structure(spec)
    w = spec.width

    def block(b, reverse):
        if b.kind == "self_power":
            src, tgt = b.source_reg * w, b.target_reg * w
            return frozen_self_mult_batches(spec, b.r, src, tgt, b.squared_write, reverse)
        return block_batches(spec, b, reverse)

    for b in s.forward:
        yield from block(b, False)
    for b in s.uncompute:
        yield from block(b, True)


# ---------------------------------------------------------------------------
# helpers


def as_lists(batch):
    a, b, t = batch
    return list(a), None if b is None else list(b), list(t)


def stage_rows(stages):
    """Stages as rows shaped like the frozen ones: columns as int lists."""
    return [
        (label, kind, delta, tuple(tuple(map(as_lists, cls)) for cls in classes))
        for label, kind, delta, classes in stages
    ]


def assert_same_stream(got, expected):
    """The frozen batches already hold int lists."""
    assert list(map(as_lists, got)) == list(expected)


def check_spec(spec):
    """Stages and block batches equal the frozen ones for every r, both
    directions and both write permutations, the source register below and
    above the target."""
    w = spec.width
    for r in range(spec.m + 1):
        for reverse in (False, True):
            frozen = list(frozen_stages(spec, r, reverse))
            assert stage_rows(spec.self_mult_stages(r, reverse)) == frozen, (r, reverse)
            for square_write in (False, True):
                src, tgt = (0, 2) if square_write else (1, 0)
                block = MultiplierBlock("self_power", src, tgt, r=r, squared_write=square_write)
                assert_same_stream(
                    block_batches(spec, block, reverse),
                    frozen_self_mult_batches(spec, r, src * w, tgt * w, square_write, reverse, frozen),
                )


# ---------------------------------------------------------------------------
# byte identity with the frozen formulas


@pytest.mark.parametrize("m", GHOST_DEGREES)
def test_ghost_stream_matches_the_frozen_formulas(m):
    check_spec(GhostBit(m))


GNB_UP_TO_40 = [(m, t) for m in range(2, 41) for t in range(1, 7) if _gnb_violation(m, t) is None]


@pytest.mark.parametrize("m, t", GNB_UP_TO_40, ids=lambda v: str(v))
def test_gnb_stream_matches_the_frozen_formulas(m, t):
    check_spec(Gnb(make_gnb_params(m, t)))


@pytest.mark.parametrize(
    "spec", [FieldSpec.gnb(163), FieldSpec.ghost_bit(178)], ids=["gnb163", "gbb178"]
)
def test_inverter_stream_matches_the_frozen_formulas(spec):
    assert_same_stream(inverter_batches(spec), frozen_inverter_batches(spec))


# ---------------------------------------------------------------------------
# one-gate columns


def assert_columns_are_sequences(batches):
    """Every column is a sequence of ints as long as its batch; returns the
    batch lengths."""
    lengths = []
    for batch in batches:
        n = len(batch[2])
        for col in batch:
            if col is None:
                continue
            assert isinstance(col, Sequence), col
            assert len(col) == n
            assert all(type(w) is int for w in col)
        lengths.append(n)
    return lengths


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("reverse", [False, True])
def test_ghost_m2_one_element_pair_columns(r, reverse):
    # n = 3: every stage pairs a single {j, sigma-j}
    spec = GhostBit(2)
    for st in spec.self_mult_stages(r, reverse):
        assert_columns_are_sequences(b for cls in st.classes for b in cls)
    block = MultiplierBlock("self_power", 0, 1, r=r)
    lengths = assert_columns_are_sequences(block_batches(spec, block, reverse))
    if r in (0, 2):  # 2^r = 1 mod 3: one squaring layer
        assert lengths == [3]
    else:
        assert lengths == [1, 1, 1] * 3  # first, fixed, second per stage


def test_the_fixed_cnot_is_a_one_gate_batch():
    spec = GhostBit(10)
    fixed = [st.classes[0][1] for st in spec.self_mult_stages(3)]
    assert all(len(x) == len(c) == 1 and y is None for x, y, c in fixed)
    block = MultiplierBlock("self_power", 0, 1, r=3, squared_write=True)
    lengths = assert_columns_are_sequences(block_batches(spec, block, reverse=True))
    assert lengths.count(1) == 11


@pytest.mark.parametrize("m", [5, 7])
def test_gnb_odd_cycle_third_color_is_a_one_gate_batch(m):
    # m prime: every nonzero delta walks one odd cycle of length m, whose
    # closing edge is a third color of one gate
    spec = FieldSpec.gnb(m)
    for r in range(m + 1):
        singles = [
            cls for st in spec.self_mult_stages(r) if st.kind == "toffoli" for cls in st.classes
            if len(cls[0][2]) == 1
        ]
        assert singles
        for cls in singles:
            assert_columns_are_sequences(cls)
        for reverse in (False, True):
            block = MultiplierBlock("self_power", 1, 0, r=r, squared_write=r % 2 == 1)
            lengths = assert_columns_are_sequences(block_batches(spec, block, reverse))
            assert 1 in lengths


def test_verify_selfmult_on_three_coefficients(capsys):
    code = main(["verify", "selfmult", "-m", "2", "--rep", "gbb", "-r", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode=exhaustive" in out
    assert "result=pass" in out
