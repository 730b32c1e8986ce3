"""Command-line interface: params/synth/verify/table, exit codes, files."""

import pytest

from gf2synth import cli
from gf2synth.circuits import Circuit, emit, parse, toffoli
from gf2synth.cli import main, verify_kind
from gf2synth.fields import FieldSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- params -----------------------------------------------------------------


def test_params_ghost_degree(capsys):
    code, out, _ = run(capsys, "params", "-m", "4")
    assert code == 0
    assert "ghost_bit=yes" in out
    assert "gnb_type=1" in out
    assert "gnb_p=5" in out


def test_params_gnb_only_degree(capsys):
    code, out, _ = run(capsys, "params", "-m", "7")
    assert code == 0
    assert "ghost_bit=no" in out
    assert "gnb_type=4" in out


def test_params_unsupported_degree(capsys):
    code, out, _ = run(capsys, "params", "-m", "8")
    assert code == 2
    assert "ghost_bit=no" in out
    assert "gnb_type=none" in out


def test_params_scoped_to_one_rep(capsys):
    code, out, _ = run(capsys, "params", "-m", "8", "--rep", "gbb")
    assert code == 2
    assert "gnb" not in out
    code, out, _ = run(capsys, "params", "-m", "7", "--rep", "gnb")
    assert code == 0
    assert "ghost_bit" not in out


# -- synth ------------------------------------------------------------------


def test_synth_mult_summary(capsys):
    code, out, _ = run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb")
    assert code == 0
    for line in ("command=mult", "rep=gbb", "m=4", "toffoli=25", "depth=5", "qubits=15"):
        assert line in out


def test_synth_gnb_type_line(capsys):
    code, out, _ = run(capsys, "synth", "mult", "-m", "5", "--rep", "gnb")
    assert code == 0
    assert "t=2" in out
    assert "toffoli=45" in out
    assert "depth=9" in out


def test_synth_writes_parseable_netlist(capsys, tmp_path):
    path = tmp_path / "mult.qc"
    code, out, _ = run(
        capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path)
    )
    assert code == 0
    assert f"out={path}" in out
    c = parse(path.read_text())
    assert c.width == 15
    assert set(c.registers) == {"input_a", "input_b", "output"}
    # the summary is computed from the file just written
    assert "toffoli=25" in out


def test_synth_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    run(capsys, "synth", "invert", "-m", "7", "--rep", "gnb", "--out", str(a))
    run(capsys, "synth", "invert", "-m", "7", "--rep", "gnb", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_synth_selfmult_needs_exponent(capsys):
    code, _, err = run(capsys, "synth", "selfmult", "-m", "4", "--rep", "gbb")
    assert code == 2
    assert "-r" in err


def test_synth_t_rejected_for_ghost(capsys):
    code, _, err = run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "-t", "1")
    assert code == 2
    assert "gnb" in err


def test_synth_t_override(capsys):
    code, out, _ = run(capsys, "synth", "mult", "-m", "4", "--rep", "gnb", "-t", "3")
    assert code == 0
    assert "t=3" in out
    assert "toffoli=60" in out


def test_synth_unsupported_degree(capsys):
    code, _, err = run(capsys, "synth", "mult", "-m", "8", "--rep", "gnb")
    assert code == 2
    assert "error" in err


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # exit 1 means "verification failed"; running out of memory is not that
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "synth_circuit", exhausted)
    code, out, err = run(capsys, "synth", "mult", "-m", "4", "--rep", "gnb")
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory")


# -- verify -----------------------------------------------------------------


def test_verify_mult_auto_exhaustive(capsys):
    code, out, _ = run(capsys, "verify", "mult", "-m", "4", "--rep", "gbb")
    assert code == 0
    assert "mode=exhaustive" in out
    assert "inputs=1024" in out
    assert "result=pass" in out
    assert "seed=" not in out


def test_verify_auto_random_when_large(capsys):
    code, out, _ = run(capsys, "verify", "add", "-m", "12", "--rep", "gbb")
    assert code == 0
    assert "mode=random" in out
    assert "inputs=100" in out
    assert "seed=0xB10F" in out


def test_verify_random_sample_count(capsys):
    code, out, _ = run(
        capsys, "verify", "selfmult", "-m", "11", "--rep", "gnb", "-r", "3",
        "--random", "17", "--seed", "0x5",
    )
    assert code == 0
    assert "inputs=17" in out
    assert "seed=0x5" in out


def test_verify_exhaustive_cap(capsys):
    code, _, err = run(
        capsys, "verify", "selfmult", "-m", "28", "--rep", "gbb", "-r", "1",
        "--exhaustive",
    )
    assert code == 2
    assert "cap" in err


def test_verify_selfmult_exponent_range(capsys):
    # the streamed multiplier checks r itself, before any gate is simulated
    for kind in ("synth", "verify"):
        code, out, err = run(capsys, kind, "selfmult", "-m", "4", "--rep", "gbb", "-r", "5")
        assert (code, out) == (2, "")
        assert err == "error: exponent r=5 outside 0..4\n"


def test_verify_random_cap(capsys):
    code, out, err = run(
        capsys, "verify", "add", "-m", "4", "--rep", "gbb", "--random", str((1 << 20) + 1)
    )
    assert code == 2
    assert out == ""
    assert "2^20" in err
    # a verification that tests nothing must not report a pass
    code, out, err = run(capsys, "verify", "add", "-m", "4", "--rep", "gbb", "--random", "0")
    assert (code, out) == (2, "")
    for samples in (0, -3):
        with pytest.raises(ValueError):
            verify_kind(FieldSpec.gnb(163), "invert", mode="random", samples=samples)


def test_verify_gbb_invert_feeds_ghost_bit(capsys, tmp_path):
    """A gate that only fires when the input's ghost wire is 1 must be caught."""
    path = tmp_path / "inv.qc"
    run(capsys, "synth", "invert", "-m", "4", "--rep", "gbb", "--out", str(path))
    out_start = parse(path.read_text()).registers["output"][0]
    with path.open("a") as fh:
        fh.write(f"cx 4 {out_start}\n")
    code, out, _ = run(capsys, "verify", "invert", "-m", "4", "--rep", "gbb", "--in", str(path))
    assert code == 1
    assert "inputs=32" in out
    assert "result=fail" in out


def test_verify_invert_roundtrip_through_file(capsys, tmp_path):
    path = tmp_path / "inv.qc"
    run(capsys, "synth", "invert", "-m", "5", "--rep", "gnb", "--out", str(path))
    code, out, _ = run(
        capsys, "verify", "invert", "-m", "5", "--rep", "gnb", "--in", str(path)
    )
    assert code == 0
    assert "result=pass" in out


def tamper(path):
    """Move one Toffoli target to a different wire and rewrite the file."""
    c = parse(path.read_text())
    gates = list(c.gates)
    for i, g in enumerate(gates):
        if len(g) == 3:
            a, b, t = g
            for nt in range(c.width):
                if nt not in (a, b, t):
                    gates[i] = toffoli(a, b, nt)
                    path.write_text(emit(Circuit(c.width, tuple(gates), c.registers)))
                    return
    raise AssertionError("no Toffoli found to tamper with")


def test_verify_detects_tampered_netlist(capsys, tmp_path):
    path = tmp_path / "inv.qc"
    run(capsys, "synth", "invert", "-m", "5", "--rep", "gnb", "--out", str(path))
    tamper(path)
    code, out, _ = run(
        capsys, "verify", "invert", "-m", "5", "--rep", "gnb", "--in", str(path)
    )
    assert code == 1
    assert "result=fail" in out
    assert "counterexample=" in out


def test_verify_detects_tampered_mult(capsys, tmp_path):
    path = tmp_path / "mult.qc"
    run(capsys, "synth", "mult", "-m", "5", "--rep", "gnb", "--out", str(path))
    tamper(path)
    code, out, _ = run(
        capsys, "verify", "mult", "-m", "5", "--rep", "gnb", "--in", str(path)
    )
    assert code == 1
    assert "result=fail" in out


def test_verify_width_mismatch(capsys, tmp_path):
    path = tmp_path / "wrong.qc"
    run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path))
    code, _, err = run(
        capsys, "verify", "mult", "-m", "10", "--rep", "gbb", "--in", str(path)
    )
    assert code == 2
    assert "wires" in err


def test_verify_width_mismatch_after_parse_errors(capsys, tmp_path):
    # a malformed line anywhere in the file wins over a wrong qubit count
    path = tmp_path / "wrong.qc"
    run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path))
    with path.open("a") as fh:
        fh.write("cx 0 1\nccx 0 1\n")
    lineno = len(path.read_text().splitlines())
    code, _, err = run(
        capsys, "verify", "mult", "-m", "10", "--rep", "gbb", "--in", str(path)
    )
    assert code == 3
    assert f"line {lineno}:" in err


def test_verify_malformed_netlist(capsys, tmp_path):
    path = tmp_path / "bad.qc"
    path.write_text("qubits 15\ncx 0 99\n")
    code, _, err = run(
        capsys, "verify", "mult", "-m", "4", "--rep", "gbb", "--in", str(path)
    )
    assert code == 3
    assert "line 2" in err


def test_verify_over_long_wire_token_is_a_parse_error(capsys, tmp_path):
    # 5,000 digits is past what int() converts by default; that is a
    # malformed line (exit 3), not a usage error (exit 2)
    path = tmp_path / "long.qc"
    path.write_text("qubits 4\ncx 0 " + "1" * 5000 + "\n")
    code, _, err = run(
        capsys, "verify", "add", "-m", "2", "--rep", "gbb", "--in", str(path)
    )
    assert code == 3
    assert "line 2:" in err
    assert len(err.encode()) < 300  # the message quotes a bounded prefix of the line


def test_verify_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "mult", "-m", "4", "--rep", "gbb",
        "--in", str(tmp_path / "nope.qc"),
    )
    assert code == 3
    assert "error" in err


# -- table ------------------------------------------------------------------


def test_table_lists_both_reps(capsys):
    code, out, _ = run(capsys, "table", "-m", "4,5")
    assert code == 0
    lines = out.splitlines()
    assert any("gbb" in ln and "mult" in ln for ln in lines)
    assert any("gnb" in ln and "invert" in ln for ln in lines)
    assert any("extended Euclid" in ln for ln in lines)


def test_table_rep_filter(capsys):
    code, out, _ = run(capsys, "table", "-m", "4,5", "--rep", "gbb")
    assert code == 0
    body = [ln for ln in out.splitlines() if " gnb " in ln]
    assert not body


def test_table_no_supported_degrees(capsys):
    code, _, err = run(capsys, "table", "-m", "8")
    assert code == 2
    assert "no supported representation" in err


# -- misc -------------------------------------------------------------------


def test_no_subcommand_shows_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "gf2synth", "params", "-m", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ghost_bit=yes" in proc.stdout
