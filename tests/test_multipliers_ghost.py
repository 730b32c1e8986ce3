"""Ghost-bit multiplier synthesis: counts, depth, schedules, functionality.

The synthesized circuits compute a cyclic convolution, which holds for raw
(m+1)-bit patterns, so functional checks run on every wire pattern rather
than only embedded field elements.
"""

import random

import pytest

from gf2synth.circuits import flat_gates, resources, simulate
from gf2synth.errors import ExponentOutOfRange, UnsupportedDegree
from gf2synth.fields import FieldSpec, GhostBit, gbb_frobenius, gbb_mult
from gf2synth.inverters import synth_gbb_mult, synth_gbb_self_mult
from gf2synth.multipliers import synth_add


def bits(m, v):
    """The m+1 ghost-bit coefficients of v, constant term first."""
    return tuple((v >> i) & 1 for i in range(m + 1))


def test_add_circuit():
    c = synth_add(5)
    r = resources(c)
    assert (r.cnot_count, r.toffoli_count, r.depth) == (5, 0, 1)
    a, b = 0b01101, 0b10110
    out = simulate(c, [a | b << 5])[0]
    assert out & 0b11111 == a
    assert out >> 5 == a ^ b


@pytest.mark.parametrize("width", [0, -1])
def test_add_refuses_a_width_below_one(width):
    with pytest.raises(ValueError, match="^width must be positive$"):
        synth_add(width)


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
    pairs = [(av, bv) for av in range(1 << n) for bv in range(1 << n)]
    inputs = [av | bv << n for av, bv in pairs]
    for x, out, (av, bv) in zip(inputs, simulate(c, inputs), pairs):
        assert out & ((1 << 2 * n) - 1) == x
        assert out >> 2 * n == gbb_mult(m, av, bv)


def test_mult_accumulates_into_output():
    # a preloaded target picks up the product by xor
    m, n = 4, 5
    c = synth_gbb_mult(m)
    rng = random.Random(2)
    for _ in range(50):
        av, bv, cv = (rng.getrandbits(n) for _ in range(3))
        out = simulate(c, [av | bv << n | cv << 2 * n])[0]
        assert out >> 2 * n == cv ^ gbb_mult(m, av, bv)


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
        inputs = range(1 << n)
        for av, out in zip(inputs, simulate(c, inputs)):
            expect = gbb_mult(m, av, gbb_frobenius(m, av, r))
            assert out & ((1 << n) - 1) == av
            assert out >> n == expect, (r, av)


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
    # the stages' index columns address the window, input on wires 0..n-1
    # and output on n..2n-1, so they are the circuit's gates in emission order
    spec = GhostBit(4)
    n = spec.width
    for r in (1, 2, 3):
        stages = list(spec.self_mult_stages(r))
        columns = (batch for st in stages for cls in st.classes for batch in cls)
        circ = synth_gbb_self_mult(4, r)
        assert tuple(flat_gates(columns)) == circ.gates
        assert circ.width == 2 * n
        assert len(stages) == 5


def test_schedule_stage_structure_m4_r2():
    st = next(s for s in GhostBit(4).self_mult_stages(2) if s.label == "sigma=0")
    assert st.kind == "toffoli" and st.delta is None
    assert len(st.classes) == 2  # stage depth
    # two Toffolis per orientation of each unordered pair, plus the merged
    # diagonal CNOT riding at the end of the first class
    (tof_a, diag), (tof_b,) = st.classes
    assert diag[1] is None and len(diag[0]) == 1
    assert tof_a[1] is not None and tof_b[1] is not None
    assert len(tof_a[2]) + len(tof_b[2]) == 4
    assert tof_a[:2] == tof_b[:2]  # the orientations share both controls
    x, y, _ = tof_a
    pairs = set(zip(x, y)) | set(zip(y, x)) | set(zip(diag[0], diag[0]))
    assert sorted(pairs) == sorted(((0, 0), (1, 4), (2, 3), (3, 2), (4, 1)))


def test_schedule_degenerate_single_stage():
    stages = list(GhostBit(4).self_mult_stages(0))
    assert len(stages) == 1
    assert stages[0].kind == "cnot"
    assert len(stages[0].classes) == 1


def test_stage_layers_are_wire_disjoint():
    # input and output registers are disjoint, so a class is wire-disjoint
    # when its controls are distinct input coefficients and its targets
    # distinct output coefficients
    for st in GhostBit(10).self_mult_stages(3):
        for cls in st.classes:
            controls = [i for x, y, _ in cls for i in (*x, *(y or ()))]
            targets = [k for _, _, c in cls for k in c]
            assert len(set(controls)) == len(controls)
            assert len(set(targets)) == len(targets)


def test_read_permutation_is_frobenius_lookup():
    # wire perm(x) of the raw operand carries coefficient x of its 2^e power
    m = 10
    rng = random.Random(7)
    spec = FieldSpec.ghost_bit(m)
    for e in range(m + 1):
        perm = spec.read_permutation(e)
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
    perm = FieldSpec.ghost_bit(m).write_permutation
    inverse = route(perm, range(len(perm)))  # inverse[perm[i]] == i
    b = rng.getrandbits(m + 1)
    assert route(perm, bits(m, b)) == bits(m, gbb_frobenius(m, b, 1))
    assert route(inverse, route(perm, bits(m, b))) == bits(m, b)
