"""Closed-form inverter resource bounds and their dominance over measured
netlists. The full degree sweep lives in the acceptance module; this file
pins the formulas on known values and spot-checks the comparison machinery."""

import pytest

from gf2synth.errors import InvalidParams, UnsupportedDegree
from gf2synth.fields import FieldSpec
from gf2synth.inverters import (
    bounds_ghost,
    bounds_gnb,
    check_bounds,
)


def test_ghost_bounds_m4():
    b = bounds_ghost(4)
    assert b.depth_bound == 30
    assert b.qubit_bound == 15
    assert b.toffoli_bound == 90
    assert b.cnot_bound == 10
    assert b.gate_bound == 100


def test_ghost_bounds_m10():
    b = bounds_ghost(10)
    assert b.toffoli_bound == 902
    assert b.qubit_bound == 55


def test_ghost_bounds_reject_unsupported():
    with pytest.raises(UnsupportedDegree):
        bounds_ghost(5)


def test_gnb_bounds_m163():
    assert bounds_gnb(163, 4).depth_bound == 29946


def test_t_bounds():
    def t_bounds(*args):
        b = FieldSpec.of(*args).rep.inverter_bounds()
        return b.t_depth_bound, b.t_count_bound

    assert t_bounds("gbb", 4) == (180, 630)
    assert t_bounds("gnb", 5, 2) == (702, 1260)
    # type is looked up when omitted
    assert t_bounds("gnb", 5) == (702, 1260)
    with pytest.raises(InvalidParams):
        t_bounds("gnb", 5, 3)


def test_t_metrics_relate_to_toffoli_metrics():
    # 7 T gates per Toffoli, 6 T layers per Toffoli layer
    for m in (4, 10, 12):
        rep = check_bounds(FieldSpec.ghost_bit(m))
        est = rep.estimate
        assert est.t_count == 7 * est.toffoli_count
        assert est.t_depth == 6 * est.toffoli_depth


def test_check_bounds_ghost_small():
    for m in (4, 10, 12):
        rep = check_bounds(FieldSpec.ghost_bit(m))
        assert rep.passed, rep.format_lines()
        metrics = {c.metric for c in rep.checks}
        assert metrics == {
            "depth", "gates", "qubits", "t_depth", "t_count", "toffoli", "cnot",
        }


def test_check_bounds_gnb_small():
    for m, t in ((5, 2), (7, 4), (6, 2), (4, 3)):
        rep = check_bounds(FieldSpec.gnb(m, t=t))
        assert rep.passed, rep.format_lines()
        # no per-kind split for the normal-basis bounds
        metrics = {c.metric for c in rep.checks}
        assert metrics == {"depth", "gates", "qubits", "t_depth", "t_count"}


def test_ghost_cnot_bound_is_tight():
    # ladder self-powers contribute exactly m+1 CNOTs per pass, and every
    # ladder block is both computed and uncomputed when merges exist
    for m in (4, 10, 12):
        rep = check_bounds(FieldSpec.ghost_bit(m))
        cnot = next(c for c in rep.checks if c.metric == "cnot")
        assert cnot.actual == cnot.bound


def test_qubit_bound_is_exact():
    for spec in (FieldSpec.ghost_bit(10), FieldSpec.gnb(11)):
        rep = check_bounds(spec)
        q = next(c for c in rep.checks if c.metric == "qubits")
        assert q.actual == q.bound


def test_report_formatting():
    rep = check_bounds(FieldSpec.gnb(5))
    lines = rep.format_lines()
    assert lines[0].startswith("m=5 rep=gnb t=2")
    assert all("<=" in ln or "ok" in ln or ":" in ln for ln in lines[1:])
