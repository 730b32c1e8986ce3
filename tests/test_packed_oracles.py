"""The packed (bit-sliced) field oracles against the per-pattern ones.

``verify`` checks every pattern at once with the field specs'
packed forms and falls back on the per-pattern oracles only for the
counterexample text (for the ghost-bit inverse, extended Euclid). So the
packed forms must agree with the per-pattern oracles bit for bit: on every
valid normal basis with m <= 40 and t <= 6, on every ghost-bit degree
m <= 40, for each kind, the inverse included, on random batches of one
pattern and of PACK_SLICE + 1 patterns and on exhaustive batches. The last
tests check that a failing netlist gets the counterexample a plain
per-pattern scan, kept here as it was before the packed check, reports.
"""

import random
from collections import namedtuple

import pytest

from gf2synth import cli
from gf2synth.circuits import (
    PACK_SLICE,
    Netlist,
    flat_gates,
    gate_runs,
    pack_patterns,
    register_values,
    run_packed,
)
from gf2synth.errors import InvalidParams
from gf2synth.fields import (
    FieldSpec,
    GnbParams,
    addition_chain,
    check_ghost_bit_support,
    gnb_packed_mult,
    itoh_tsujii_inverse,
)


def _specs():
    specs = []
    for m in range(2, 41):
        if check_ghost_bit_support(m):
            specs.append(FieldSpec.ghost_bit(m))
        for t in range(1, 7):
            try:
                specs.append(FieldSpec.gnb(m, t))
            except InvalidParams:
                continue
    return specs


SPECS = _specs()
# the largest degree of each normal-basis type and of ghost-bit
LARGEST = list({spec.t: spec for spec in SPECS}.values())
EXHAUSTIVE_BITS = 10  # exhaustive batches up to 2^10 patterns


def _key(spec):
    return f"{spec.representation.value}{spec.m}" + (f"_t{spec.t}" if spec.t else "")


def _exponents(m):
    return sorted({0, 1, 2, m - 1, m})


def _batches(spec, nbits, rng, wide=True):
    """Pattern batches for one spec and kind: 1 and 67 random patterns, an
    exhaustive batch when it is small and, if ``wide``, PACK_SLICE + 1
    random patterns at the largest degree of each type."""
    out = [[rng.getrandbits(nbits)], [rng.getrandbits(nbits) for _ in range(67)]]
    if nbits <= EXHAUSTIVE_BITS:
        out.append(list(range(1 << nbits)))
    if wide and spec in LARGEST:
        out.append([rng.getrandbits(nbits) for _ in range(PACK_SLICE + 1)])
    return out


# verify's layout of a kind: input bits on wires 0..nbits-1, the circuit's
# width, the span that must come back unchanged, the spans that must return
# to zero, and the first wire of the w-wide output register
Layout = namedtuple("Layout", "nbits width kept ancillas output")


def layout(spec, kind):
    """Each kind's layout written out by hand: the reference that the
    register maps verify reads from ``synth_circuit`` must agree with."""
    w = spec.width
    if kind == "invert":  # input, ladder and work registers, output last
        count = len(addition_chain(spec.m)) + 1
        return Layout(w, count * w, (0, w), ((w, (count - 2) * w),), (count - 1) * w)
    n_in, out = {"add": (2, w), "mult": (2, 2 * w), "selfmult": (1, w)}[kind]
    return Layout(n_in * w, out + w, (0, out), (), out)


def _split(spec, kind, pattern):
    """One pattern's operands as ``layout`` packs them: w-bit slices from
    wire 0 up to its input bits."""
    w = spec.width
    return [(pattern >> i) & ((1 << w) - 1) for i in range(0, layout(spec, kind).nbits, w)]


def _operands(patterns, w, n_in):
    mask = (1 << w) - 1
    return [[(p >> (i * w)) & mask for p in patterns] for i in range(n_in)]


# -- the field specs' packed products ----------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=_key)
def test_packed_mult_and_frobenius_agree_with_the_oracles(spec):
    w = spec.width
    rng = random.Random(spec.m * 8 + (spec.t or 0))
    for patterns in _batches(spec, 2 * w, rng):
        a, b = _operands(patterns, w, 2)
        pa, pb = pack_patterns(w, range(w), a), pack_patterns(w, range(w), b)
        product = list(spec.packed_mult(pa, pb))
        assert register_values(product, len(patterns), 0, w) == list(map(spec.mult, a, b))
        for r in _exponents(spec.m):
            image = spec.packed_frobenius(pa, r)
            assert register_values(image, len(patterns), 0, w) == [spec.frobenius(x, r) for x in a]


def test_gnb_packed_mult_ignores_index_table():
    rng = random.Random(5)
    for m, t in ((5, 2), (4, 3), (6, 3), (163, 4)):
        good = FieldSpec.gnb(m, t).gnb_params
        blank = GnbParams(m, t, good.p, good.u, (0,) * (good.p - 1))
        a = [rng.getrandbits(64) for _ in range(m)]
        b = [rng.getrandbits(64) for _ in range(m)]
        assert list(gnb_packed_mult(blank, a, b)) == list(gnb_packed_mult(good, a, b))


# -- verify's packed checks against its per-pattern checks -------------------


def _expected_output(spec, kind, r, pattern):
    w = spec.width
    if kind == "invert":
        return itoh_tsujii_inverse(spec, pattern)
    a, b = _operands([pattern], w, 2)
    a, b = a[0], b[0]
    if kind == "add":
        return a ^ b
    if kind == "mult":
        return spec.mult(a, b)
    return spec.mult(a, spec.frobenius(a, r))


def _row_agrees(spec, kind, r, patterns, rng):
    """Half the outputs right, half off by a random nonzero flip; the packed
    misses must be exactly the patterns the per-pattern check rejects."""
    w = spec.width
    row = cli._verify_row(spec, kind, r)
    outputs = []
    for pattern in patterns:
        value = _expected_output(spec, kind, r, pattern)
        if rng.random() < 0.5:
            value ^= rng.randrange(1, 1 << w)
        outputs.append(value)
    operands = zip(*(_split(spec, kind, pattern) for pattern in patterns))
    packed_operands = [pack_patterns(w, range(w), operand) for operand in operands]
    packed_outputs = pack_patterns(w, range(w), outputs)
    rejected = sum(
        1 << b
        for b, (pattern, got) in enumerate(zip(patterns, outputs))
        if row.check(_split(spec, kind, pattern), got)
    )
    assert row.misses(packed_operands, packed_outputs) == rejected


@pytest.mark.parametrize("spec", SPECS, ids=_key)
def test_packed_checks_agree_with_the_per_pattern_checks(spec):
    rng = random.Random(spec.m * 16 + (spec.t or 0))
    w = spec.width
    # wide batches cost much per pattern: add and mult take them here, and
    # the packed Frobenius is checked on them above
    for kind, r in [("add", None), ("mult", None)] + [("selfmult", r) for r in _exponents(spec.m)]:
        n_in = 1 if kind == "selfmult" else 2
        for patterns in _batches(spec, n_in * w, rng, wide=r is None):
            _row_agrees(spec, kind, r, patterns, rng)
    if spec.m >= 3:  # the smallest inverter
        zeros = [0, 0, (1 << w) - 1]  # all ones is the other ghost-bit zero
        for patterns in _batches(spec, w, rng, wide=False):
            _row_agrees(spec, "invert", None, patterns + zeros, rng)


def test_gnb_inverse_misses_zero_and_identity():
    spec = FieldSpec.gnb(5)
    one, w = spec.identity, spec.width
    # (input, output): 0 -> 0 and 1 -> 1 pass; 0 -> 1 and 1 -> 0 fail
    v = pack_patterns(w, range(w), [0, one, 0, one])
    got = pack_patterns(w, range(w), [0, one, one, 0])
    assert spec.packed_inverse_misses(v, got) == 0b1100
    # ghost-bit: zero is 0 or all ones, one is 1 or its complement
    spec = FieldSpec.ghost_bit(4)
    w = spec.width
    zero, one = (0, (1 << w) - 1), (1, (1 << w) - 2)
    passing = [(a, b) for a in zero for b in zero] + [(a, b) for a in one for b in one]
    failing = [(0, 1), (zero[1], one[1]), (1, 0), (one[1], zero[1]), (zero[1], 0b00110)]
    pairs = passing + failing
    v = pack_patterns(w, range(w), [a for a, _ in pairs])
    got = pack_patterns(w, range(w), [b for _, b in pairs])
    expected = sum(1 << b for b, pair in enumerate(pairs) if not spec.inverse_ok(*pair))
    assert expected == ((1 << len(failing)) - 1) << len(passing)
    assert spec.packed_inverse_misses(v, got) == expected


# -- the first failing pattern ------------------------------------------------


def per_pattern_scan(spec, kind, r, batches, patterns):
    """verify's check as it ran before the packed oracles: read every
    pattern's output back and ask the per-pattern check in order. Returns
    (first failing pattern's slot, counterexample)."""
    row, lay = cli._verify_row(spec, kind, r), layout(spec, kind)
    state, count = cli._pack_patterns(lay.width, patterns, lay.nbits)
    kept_start, kept_length = lay.kept
    before = state[kept_start : kept_start + kept_length]
    run_packed(batches, state)
    for wire, value in enumerate(before, kept_start):
        if state[wire] != value:
            return None, f"{row.kept_label} {wire} modified"
    for start, length in lay.ancillas:
        for wire in range(start, start + length):
            if state[wire] != 0:
                return None, f"ancilla wire {wire} not returned to zero"
    outputs = register_values(state, count, lay.output, spec.width)
    for slot, (pattern, got) in enumerate(zip(range(count) if patterns is None else patterns, outputs)):
        problem = row.check(_split(spec, kind, pattern), got)
        if problem:
            return slot, problem
    return None, None


def _tampered(spec, kind, r, edit):
    """The synthesized netlist, edited: ("flip", n) turns its nth Toffoli
    into the output register into a CNOT (its second control dropped);
    ("append", (a, b)) adds a Toffoli from input wires a and b into the
    first output wire, which fires first at pattern 2^a + 2^b of an
    exhaustive run."""
    output = layout(spec, kind).output
    netlist = cli.synth_circuit(spec, kind, r)
    out = range(output, output + spec.width)
    how, arg = edit
    gates, seen = [], -1
    for gate in flat_gates(netlist.batches):
        if how == "flip" and len(gate) == 3 and gate[-1] in out:
            seen += 1
            if seen == arg:
                gate = (gate[0], gate[-1])
        gates.append(gate)
    if how == "append":
        gates.append((*arg, output))
    else:
        assert seen >= arg
    return netlist.width, netlist.registers, gates


@pytest.mark.parametrize(
    "spec, kind, r, edit, mode, samples, seed",
    [
        (FieldSpec.ghost_bit(4), "mult", None, ("flip", 7), "exhaustive", None, None),
        (FieldSpec.gnb(5), "selfmult", 1, ("flip", 3), "exhaustive", None, None),
        (FieldSpec.gnb(5), "invert", None, ("flip", 2), "exhaustive", None, None),
        (FieldSpec.ghost_bit(4), "invert", None, ("flip", 5), "exhaustive", None, None),
        # first failures past the first PACK_SLICE patterns
        (FieldSpec.gnb(7), "mult", None, ("append", (12, 13)), "exhaustive", None, None),
        (FieldSpec.ghost_bit(12), "invert", None, ("append", (11, 12)), "exhaustive", None, None),
        (FieldSpec.gnb(11), "mult", None, ("flip", 40), "random", 300, 2),
        (FieldSpec.ghost_bit(10), "selfmult", 2, ("flip", 11), "random", PACK_SLICE + 9, 1),
        (FieldSpec.ghost_bit(18), "invert", None, ("flip", 30), "random", PACK_SLICE + 9, 8),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_first_failure_matches_the_per_pattern_scan(spec, kind, r, edit, mode, samples, seed):
    width, registers, gates = _tampered(spec, kind, r, edit)
    options = {} if mode == "exhaustive" else {"samples": samples, "seed": seed}
    result = cli.verify_kind(
        spec, kind, r=r, netlist=Netlist(width, registers, gate_runs(gates)), mode=mode, **options
    )
    patterns = None
    if mode == "random":
        rng = random.Random(seed)
        nbits = layout(spec, kind).nbits
        patterns = [rng.getrandbits(nbits) for _ in range(samples)]
    slot, problem = per_pattern_scan(spec, kind, r, gate_runs(gates), patterns)
    assert slot is not None and slot > 0  # the edit is caught by the output check, late
    if edit[0] == "append":
        assert slot == (1 << edit[1][0]) + (1 << edit[1][1])
    assert not result.passed
    assert result.counterexample == problem


# -- the kept span --------------------------------------------------------------


def _verified(spec, kind, r, gates):
    """verify_kind on ``gates`` laid out as the synthesized netlist of the kind."""
    netlist = cli.synth_circuit(spec, kind, r)
    return cli.verify_kind(
        spec, kind, r=r, netlist=Netlist(netlist.width, netlist.registers, gate_runs(gates))
    )


@pytest.mark.parametrize("spec", [FieldSpec.ghost_bit(4), FieldSpec.gnb(5)], ids=_key)
@pytest.mark.parametrize(
    "kind, r, label",
    [("add", None, "wire"), ("mult", None, "wire"), ("selfmult", 1, "wire"),
     ("invert", None, "input wire")],
)
def test_a_modified_kept_wire_is_named(spec, kind, r, label):
    """A CNOT into the last wire of the kept span fails with that wire named."""
    wire = sum(layout(spec, kind).kept) - 1
    gates = [*flat_gates(cli.synth_circuit(spec, kind, r).batches), (0, wire)]
    result = _verified(spec, kind, r, gates)
    assert (result.passed, result.counterexample) == (False, f"{label} {wire} modified")


def test_add_writes_its_output_register_and_passes():
    """add's output is input_b, so the kept span stops below it: a netlist
    that writes every wire of input_b passes."""
    spec = FieldSpec.ghost_bit(4)
    w, netlist = spec.width, cli.synth_circuit(spec, "add")
    gates = list(flat_gates(netlist.batches))
    assert netlist.registers["input_b"] == (w, w) == (layout(spec, "add").output, w)
    assert sorted(gate[-1] for gate in gates) == list(range(w, 2 * w))
    assert _verified(spec, "add", None, gates).passed
