"""Ghost-bit multiplier synthesis: counts, depth, schedules, functionality.

The synthesized circuits compute a cyclic convolution, which holds for raw
(m+1)-bit patterns, so functional checks run on every wire pattern rather
than only embedded field elements.
"""

import random

import pytest

from gf2synth.circuits import resources, simulate_batch
from gf2synth.errors import ExponentOutOfRange, UnsupportedDegree
from gf2synth.fields import FieldSpec, gbb_frobenius, gbb_mult
from gf2synth.multipliers import (
    gbb_self_mult_schedule,
    synth_add,
    synth_gbb_mult,
    synth_gbb_self_mult,
)


def all_patterns(w):
    return [[(v >> i) & 1 for i in range(w)] for v in range(1 << w)]


def bits(m, v):
    """The m+1 ghost-bit coefficients of v, constant term first."""
    return tuple((v >> i) & 1 for i in range(m + 1))


def test_add_circuit():
    c = synth_add(5)
    r = resources(c)
    assert (r.cnot_count, r.toffoli_count, r.depth) == (5, 0, 1)
    rows = [[1, 0, 1, 1, 0, 0, 1, 1, 0, 1]]
    out = simulate_batch(c, rows)[0]
    assert out[:5] == rows[0][:5]
    assert out[5:] == [a ^ b for a, b in zip(rows[0][:5], rows[0][5:])]


def test_mult_m4_resources():
    c = synth_gbb_mult(4)
    r = resources(c)
    assert r.toffoli_count == 25  # (m+1)^2
    assert r.cnot_count == 0
    assert r.depth == 5  # m+1 stages, each a single layer
    assert r.qubits == 15
    assert set(c.registers) == {"input_a", "input_b", "output"}


def test_mult_m10_resources():
    r = resources(synth_gbb_mult(10))
    assert r.toffoli_count == 121
    assert r.depth == 11


def test_mult_functional_exhaustive_m4():
    """Raw 5-bit convolution on every (a, b) pair, checked against the
    classical product; the inputs must come back unchanged."""
    m, n = 4, 5
    c = synth_gbb_mult(m)
    rows = []
    pairs = []
    for av in range(1 << n):
        for bv in range(1 << n):
            rows.append(
                [(av >> i) & 1 for i in range(n)]
                + [(bv >> i) & 1 for i in range(n)]
                + [0] * n
            )
            pairs.append((av, bv))
    outs = simulate_batch(c, rows)
    for row, out, (av, bv) in zip(rows, outs, pairs):
        assert out[: 2 * n] == row[: 2 * n]
        expect = bits(m, gbb_mult(m, av, bv))
        assert tuple(out[2 * n :]) == expect


def test_mult_accumulates_into_output():
    # a preloaded target picks up the product by xor
    m, n = 4, 5
    c = synth_gbb_mult(m)
    rng = random.Random(2)
    for _ in range(50):
        av, bv, cv = (rng.getrandbits(n) for _ in range(3))
        row = [(av >> i) & 1 for i in range(n)]
        row += [(bv >> i) & 1 for i in range(n)]
        row += [(cv >> i) & 1 for i in range(n)]
        out = simulate_batch(c, [row])[0]
        prod = bits(m, gbb_mult(m, av, bv))
        assert tuple(out[2 * n :]) == tuple(c0 ^ p for c0, p in zip(row[2 * n :], prod))


def test_self_mult_m4_r2_resources():
    c = synth_gbb_self_mult(4, 2)
    r = resources(c)
    assert r.toffoli_count == 20  # m(m+1): the m+1 diagonal terms are CNOTs
    assert r.cnot_count == 5
    assert r.depth == 10  # 2 layers per stage
    assert r.qubits == 10


def test_self_mult_functional_all_r():
    m, n = 4, 5
    for r in range(m + 1):
        c = synth_gbb_self_mult(m, r)
        rows = [row + [0] * n for row in all_patterns(n)]
        outs = simulate_batch(c, rows)
        for av, out in zip(range(1 << n), outs):
            expect = bits(m, gbb_mult(m, av, gbb_frobenius(m, av, r)))
            assert tuple(out[:n]) == bits(m, av)
            assert tuple(out[n:]) == expect, (r, av)


def test_self_mult_degenerate_exponents():
    # 2^0 and 2^m are both 1 mod m+1: the product collapses to a squaring
    m, n = 4, 5
    for r in (0, m):
        c = synth_gbb_self_mult(m, r)
        res = resources(c)
        assert res.toffoli_count == 0
        assert res.cnot_count == n
        assert res.depth == 1


def test_self_mult_exponent_range():
    with pytest.raises(ExponentOutOfRange):
        synth_gbb_self_mult(4, 5)
    with pytest.raises(ExponentOutOfRange):
        synth_gbb_self_mult(4, -1)


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        synth_gbb_mult(5)
    with pytest.raises(UnsupportedDegree):
        synth_gbb_self_mult(8, 1)


def test_schedule_matches_circuit():
    for r in (1, 2, 3):
        sched = gbb_self_mult_schedule(4, r)
        circ = synth_gbb_self_mult(4, r)
        assert sched.gates == circ.gates
        assert sched.width == circ.width
        assert len(sched.stages) == 5


def test_schedule_stage_structure_m4_r2():
    sched = gbb_self_mult_schedule(4, 2)
    st = sched.stage("sigma=0")
    assert st.terms == ((0, 0), (1, 4), (2, 3), (3, 2), (4, 1))
    assert st.stage_depth == 2
    # two Toffolis per orientation of each unordered pair, plus the merged
    # diagonal CNOT riding in the first class
    kinds = [len(g) for cls in st.color_classes for g in cls]
    assert kinds.count(3) == 4 and kinds.count(2) == 1
    first = st.color_classes[0]
    assert len(first[-1]) == 2  # the CNOT sits at the end of color 0
    with pytest.raises(KeyError):
        sched.stage("sigma=9")


def test_schedule_degenerate_single_stage():
    sched = gbb_self_mult_schedule(4, 0)
    assert len(sched.stages) == 1
    assert sched.stages[0].kind == "cnot"
    assert sched.stages[0].stage_depth == 1


def test_stage_layers_are_wire_disjoint():
    sched = gbb_self_mult_schedule(10, 3)
    for st in sched.stages:
        for cls in st.color_classes:
            used = set()
            for g in cls:
                w = set(g)
                assert not (w & used)
                used |= w


def test_read_permutation_is_frobenius_lookup():
    # wire perm(x) of the raw operand carries coefficient x of its 2^e power
    m = 10
    rng = random.Random(7)
    rep = FieldSpec.ghost_bit(m).rep
    for e in range(m + 1):
        perm = rep.read_permutation(e)
        b = rng.getrandbits(m + 1)
        fb = bits(m, gbb_frobenius(m, b, e))
        for x in range(m + 1):
            assert fb[x] == bits(m, b)[perm[x]]


def route(perm, values):
    """Move values[i] to position perm[i]."""
    out = [0] * len(perm)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return tuple(out)


def test_write_permutation_is_square_movement():
    m = 10
    rng = random.Random(8)
    perm = FieldSpec.ghost_bit(m).rep.write_permutation
    inverse = route(perm, range(len(perm)))  # inverse[perm[i]] == i
    b = rng.getrandbits(m + 1)
    assert route(perm, bits(m, b)) == bits(m, gbb_frobenius(m, b, 1))
    assert route(inverse, route(perm, bits(m, b))) == bits(m, b)
