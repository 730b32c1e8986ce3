"""Acceptance checks, one test per criterion.

Each test prints a single `ACCEPTANCE <nn> <label>: PASS` line when it
succeeds, so a `pytest -v -s` run shows exactly one line per criterion; a
failing criterion fails its test instead. The heavy criteria (the full degree
sweep and the large-degree randomized checks) are measured against the stated
time budgets.
"""

import math
import time

from gf2synth.circuits import resources
from gf2synth.errors import NoGnbFound
from gf2synth.fields import (
    FieldSpec,
    GnbParams,
    check_ghost_bit_support,
    find_gnb_type,
    gbb_frobenius,
    gnb_stage_bases,
    gnb_verify_isomorphism,
    make_gnb_params,
    phi_retract,
)
from gf2synth.cli import main, verify_kind
from gf2synth.inverters import check_bounds, inverter_gates, inverter_structure
from gf2synth.multipliers import (
    synth_gbb_mult,
    synth_gbb_self_mult,
    synth_gnb_mult,
)
from gf2synth.circuits import measure_stream


def ok(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def test_criterion_01_ghost_mult_resources():
    r = resources(synth_gbb_mult(4))
    assert r.toffoli_count == 25
    assert r.depth == 5
    assert r.qubits == 15
    ok(1, "ghost-bit multiplier m=4 counts")


def test_criterion_02_ghost_self_mult_stages():
    r = resources(synth_gbb_self_mult(4, 2))
    assert r.depth == 10
    assert r.toffoli_count == 20
    assert r.cnot_count == 5
    stages = FieldSpec.ghost_bit(4).rep.self_mult_stages(2)
    stage = next(st for st in stages if st.label == "sigma=0")
    assert len(stage.classes) == 2
    (x, y, _), (diag, _, _) = stage.classes[0]
    pairs = set(zip(x, y)) | set(zip(y, x)) | set(zip(diag, diag))
    assert sorted(pairs) == sorted(((0, 0), (1, 4), (2, 3), (3, 2), (4, 1)))
    ok(2, "ghost-bit self-power m=4 r=2 stages")


def test_criterion_03_gnb_mult_resources():
    r = resources(synth_gnb_mult(make_gnb_params(5, 2)))
    assert r.toffoli_count == 45
    assert r.depth == 9
    ok(3, "normal-basis multiplier m=5 t=2 counts")


def test_criterion_04_index_table():
    p = make_gnb_params(5, 2)
    assert (p.p, p.u) == (11, 10)
    assert p.f_table == (0, 1, 3, 2, 4, 4, 2, 3, 1, 0)
    ok(4, "index table m=5 t=2")


def test_criterion_05_square_retract_example():
    a = 0b00101  # coefficients (1, 0, 1, 0, 0), constant term first
    sq = gbb_frobenius(4, a, 1)
    assert sq == 0b10001  # (1, 0, 0, 0, 1)
    assert phi_retract(4, sq) == 0b1110  # (0, 1, 1, 1)
    ok(5, "ghost-bit squaring worked example")


def test_criterion_06_delta_table_and_coloring():
    spec = FieldSpec.gnb(5, t=2)
    deltas = {label: fb - fa for label, fa, fb in gnb_stage_bases(spec.gnb_params, 1)}
    assert {k: deltas[f"k={k}"] for k in (2, 5, 6, 7, 8)} == {
        2: -3, 5: -1, 6: 1, 7: -2, 8: 1,
    }
    stage = next(st for st in spec.rep.self_mult_stages(1) if st.label == "k=5")
    assert stage.delta == -1
    assert len(stage.classes) == 3
    ok(6, "self-power index deltas and odd-cycle coloring")


def test_criterion_07_inverter_block_structure():
    s = inverter_structure(FieldSpec.gnb(7))
    kinds = [b.kind for b in s.forward]
    assert kinds == ["self_power", "self_power", "general"]
    ok(7, "inverter block structure m=7")


def test_criterion_08_functional_verification():
    t0 = time.monotonic()
    # exhaustive, small degrees
    gb4 = FieldSpec.ghost_bit(4)
    gn5 = FieldSpec.gnb(5)
    for spec in (gb4, gn5):
        for kind, r in (("add", None), ("mult", None), ("selfmult", 2), ("invert", None)):
            res = verify_kind(spec, kind, r=r, mode="exhaustive")
            assert res.passed, (spec.m, kind, res.counterexample)
            assert res.mode == "exhaustive"
    # randomized, fixed seed, larger degrees
    gb10 = FieldSpec.ghost_bit(10)
    for kind, r in (("mult", None), ("selfmult", 3), ("invert", None)):
        res = verify_kind(gb10, kind, r=r, mode="random", samples=100)
        assert res.passed, (kind, res.counterexample)
    gn163 = FieldSpec.gnb(163, t=4)
    for kind in ("mult", "invert"):
        res = verify_kind(gn163, kind, mode="random", samples=100)
        assert res.passed, (kind, res.counterexample)
    res = verify_kind(FieldSpec.gnb(233, t=2), "invert", mode="random", samples=100)
    assert res.passed, res.counterexample
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"functional verification took {elapsed:.1f}s"
    ok(8, "functional verification against field oracles")


def test_criterion_09_bound_dominance_sweep():
    failures = []
    for m in range(3, 65):
        if check_ghost_bit_support(m):
            rep = check_bounds(FieldSpec.ghost_bit(m))
            if not rep.passed:
                failures.append(("gbb", m, rep.format_lines()))
        try:
            params = find_gnb_type(m)
        except NoGnbFound:
            continue
        rep = check_bounds(FieldSpec.gnb(m, t=params.t))
        if not rep.passed:
            failures.append(("gnb", m, rep.format_lines()))
    for m in (163, 233, 409):
        rep = check_bounds(FieldSpec.gnb(m))
        if not rep.passed:
            failures.append(("gnb", m, rep.format_lines()))
    assert not failures, failures
    ok(9, "closed-form bounds dominate measured netlists, m<=64 and NIST degrees")


def test_criterion_10_depth_scaling_band():
    ratios = []
    for m in range(8, 65):
        try:
            params = find_gnb_type(m)
        except NoGnbFound:
            continue
        if params.t > 2:
            continue
        spec = FieldSpec.gnb(m, t=params.t)
        s = inverter_structure(spec)
        est = measure_stream(s.width, inverter_gates(spec))
        ratios.append(est.depth / (m * math.log2(m)))
    assert len(ratios) >= 10
    band = max(ratios) / min(ratios)
    assert band <= 3.0, f"depth/(m log2 m) spread {band:.3f} exceeds 3x"
    ok(10, f"inverter depth scales as m log2 m (spread {band:.2f}x)")


def test_criterion_11_isomorphism_check():
    t0 = time.monotonic()
    good = make_gnb_params(5, 2)
    assert gnb_verify_isomorphism(good) is True
    bad_table = list(good.f_table)
    bad_table[1], bad_table[2] = bad_table[2], bad_table[1]
    bad = GnbParams(good.m, good.t, good.p, good.u, tuple(bad_table))
    assert gnb_verify_isomorphism(bad) is False
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"isomorphism check took {elapsed:.1f}s"
    ok(11, "basis isomorphism acceptance and rejection")


def test_criterion_12_deterministic_output(tmp_path, capsys):
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    assert main(["synth", "invert", "--rep", "gnb", "-m", "7", "--out", str(a)]) == 0
    assert main(["synth", "invert", "--rep", "gnb", "-m", "7", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    ok(12, "byte-identical resynthesis")
