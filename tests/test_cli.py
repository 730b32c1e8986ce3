"""Command-line interface: params/synth/verify/table, exit codes, files."""

import os
import re
import threading
import time
from contextlib import suppress
from itertools import chain

import pytest

from gf2synth import circuits, cli, fields, inverters, multipliers
from gf2synth.circuits import (
    Circuit,
    Netlist,
    emit,
    emit_lines,
    flat_gates,
    gate_runs,
    measure_stream,
    parse,
    read_netlist,
    reversed_lines,
)
from gf2synth.cli import main, verify_kind
from gf2synth.errors import InvalidParams
from gf2synth.fields import GNB_MAX_TYPE, FieldSpec, check_ghost_bit_support, make_gnb_params
from gf2synth.inverters import chain_batches


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


def test_params_refuses_a_type_on_gbb(capsys):
    # refused as synth and verify refuse it, not dropped
    refused = (2, "", "error: a type t only applies to the gnb representation\n")
    assert run(capsys, "params", "-m", "4", "--rep", "gbb", "-t", "3") == refused
    assert run(capsys, "synth", "add", "-m", "4", "--rep", "gbb", "-t", "3") == refused
    assert run(capsys, "params", "-m", "4", "-t", "3")[0] == 0


def _params_reference(m, rep, t):
    """What ``params`` prints and returns, from the two searches alone."""
    if t is not None and rep == "gbb":
        return 2, "", "error: a type t only applies to the gnb representation\n"
    ghost = check_ghost_bit_support(m)
    try:
        gnb = FieldSpec.gnb(m, t=t).gnb_params
    except ValueError:
        gnb = None
    gnb_lines = [f"gnb_type={gnb.t}", f"gnb_p={gnb.p}", f"gnb_u={gnb.u}"] if gnb else ["gnb_type=none"]
    reports = {"gbb": (ghost, [f"ghost_bit={'yes' if ghost else 'no'}"]), "gnb": (gnb is not None, gnb_lines)}
    shown = [reports[name] for name in ("gbb", "gnb") if rep in (None, name)]
    lines = [f"m={m}"] + [line for _, report in shown for line in report]
    return (0 if any(ok for ok, _ in shown) else 2), "\n".join(lines) + "\n", ""


@pytest.mark.parametrize("rep", [None, "gbb", "gnb"])
def test_params_on_every_small_degree_and_type(rep, capsys):
    # every m in -1..70, with and without a type: each representation asked
    # for is reported once, and the exit code says whether any is available
    refused = 0
    for m in range(-1, 71):
        for t in (None, 1, 2, 3, 4, 31):
            argv = ["params", "-m", str(m)] + (["--rep", rep] if rep else [])
            argv += [] if t is None else ["-t", str(t)]
            got = run(capsys, *argv)
            assert got == _params_reference(m, rep, t), argv
            refused += got[2] != ""
    assert refused == (72 * 5 if rep == "gbb" else 0)


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
    assert "toffoli=25" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("add", "-m", "4", "--rep", "gbb"),
        ("add", "-m", "5", "--rep", "gnb"),
        ("mult", "-m", "4", "--rep", "gbb"),
        ("mult", "-m", "5", "--rep", "gnb"),
        ("selfmult", "-m", "4", "--rep", "gbb", "-r", "2"),
        ("selfmult", "-m", "5", "--rep", "gnb", "-r", "1"),
        ("invert", "-m", "4", "--rep", "gbb"),
        ("invert", "-m", "5", "--rep", "gnb"),
    ],
)
def test_synth_out_summary_describes_the_file(argv, capsys, tmp_path):
    path = tmp_path / "netlist.qc"
    code, out, _ = run(capsys, "synth", *argv, "--out", str(path))
    assert code == 0
    with open(path) as fh:
        written = read_netlist(fh)
        expected = measure_stream(written.width, written.batches).summary_lines()
    assert out.splitlines()[-len(expected):] == expected
    assert out.splitlines()[-len(expected) - 1] == f"out={path}"
    # and the same summary without --out
    assert run(capsys, "synth", *argv)[1].splitlines()[-len(expected):] == expected


@pytest.mark.parametrize(
    "rep, m, spec",
    [("gbb", "10", FieldSpec.ghost_bit(10)), ("gnb", "11", FieldSpec.gnb(11))],
    ids=["gbb10", "gnb11"],
)
def test_synth_invert_prints_the_inverter_estimate(rep, m, spec, capsys):
    """``synth invert`` prints ``inverter_estimate``, measured from the
    forward pass alone, as ``check_bounds`` and ``table`` do; it equals
    measuring every gate ``synth invert --out`` writes."""
    code, out, _ = run(capsys, "synth", "invert", "-m", m, "--rep", rep)
    assert code == 0
    expected = inverters.inverter_estimate(spec).summary_lines()
    assert out.splitlines()[-len(expected):] == expected


@pytest.mark.parametrize(
    "rep, m, spec",
    [("gbb", "10", FieldSpec.ghost_bit(10)), ("gnb", "11", FieldSpec.gnb(11))],
    ids=["gbb10", "gnb11"],
)
def test_synth_invert_draws_the_uncompute_only_to_write_it(
    rep, m, spec, capsys, monkeypatch, tmp_path
):
    drawn = []
    block_batches = inverters.block_batches

    def recorded(spec, block, reverse=False):
        drawn.append((block, reverse))
        return block_batches(spec, block, reverse)

    monkeypatch.setattr(inverters, "block_batches", recorded)
    assert run(capsys, "synth", "invert", "-m", m, "--rep", rep)[0] == 0
    assert drawn and not any(reverse for _, reverse in drawn)
    # a regular file copies the uncompute from its own head lines: every
    # forward block is drawn, none reversed
    drawn.clear()
    path = tmp_path / "inv.qc"
    assert run(capsys, "synth", "invert", "-m", m, "--rep", rep, "--out", str(path))[0] == 0
    structure = inverters.inverter_structure(spec)
    assert structure.uncompute and set(structure.forward) <= {block for block, _ in drawn}
    assert not any(reverse for _, reverse in drawn)
    # an output that is not a regular file generates it, block by block
    drawn.clear()
    assert run(capsys, "synth", "invert", "-m", m, "--rep", rep, "--out", os.devnull)[0] == 0
    assert [block for block, reverse in drawn if reverse] == list(structure.uncompute)


def _generated(spec, kind, r=None) -> bytes:
    """What ``synth --out`` writes, every gate generated: ``emit_lines`` over
    the kind's ``chain_batches``, uncompute included."""
    c = inverters.kind_structure(spec, kind, r)
    header = cli._context_lines(spec, kind, r)
    return ("\n".join(emit_lines(c.width, c.registers, chain_batches(spec, c), header)) + "\n").encode()


def _through_fifo(capsys, tmp_path, argv) -> bytes:
    """What ``synth --out`` writes into a FIFO, drained by a thread."""
    fifo = tmp_path / "netlist.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    try:
        assert run(capsys, "synth", *argv, "--out", str(fifo))[0] == 0
    finally:
        if reader.is_alive() and not got:  # release a reader the writer never met
            with suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(60)
    return got[0]


SYNTH_OUT = [
    (("invert", "-m", "4", "--rep", "gbb"), FieldSpec.ghost_bit(4), "invert", None),
    (("invert", "-m", "10", "--rep", "gbb"), FieldSpec.ghost_bit(10), "invert", None),
    (("invert", "-m", "5", "--rep", "gnb"), FieldSpec.gnb(5), "invert", None),
    (("invert", "-m", "11", "--rep", "gnb"), FieldSpec.gnb(11), "invert", None),
    (("invert", "-m", "23", "--rep", "gnb"), FieldSpec.gnb(23), "invert", None),
    (("mult", "-m", "10", "--rep", "gbb"), FieldSpec.ghost_bit(10), "mult", None),
    (("mult", "-m", "11", "--rep", "gnb"), FieldSpec.gnb(11), "mult", None),
    (("selfmult", "-m", "10", "--rep", "gbb", "-r", "3"), FieldSpec.ghost_bit(10), "selfmult", 3),
    (("selfmult", "-m", "11", "--rep", "gnb", "-r", "4"), FieldSpec.gnb(11), "selfmult", 4),
]


@pytest.mark.parametrize("argv, spec, kind, r", SYNTH_OUT, ids=lambda v: "-".join(v) if isinstance(v, tuple) else None)
def test_synth_out_writes_the_generated_bytes_on_both_routes(argv, spec, kind, r, capsys, tmp_path):
    # a regular file copies the inverter's uncompute from its head lines, a
    # FIFO gets every gate generated; both are the generated stream's bytes
    want = _generated(spec, kind, r)
    path = tmp_path / "netlist.qc"
    assert run(capsys, "synth", *argv, "--out", str(path))[0] == 0
    assert path.read_bytes() == want
    assert _through_fifo(capsys, tmp_path, argv) == want


@pytest.mark.parametrize("size", [1, 5, 64])
@pytest.mark.parametrize("argv, spec", [
    (("invert", "-m", "5", "--rep", "gnb"), FieldSpec.gnb(5)),
    (("invert", "-m", "10", "--rep", "gbb"), FieldSpec.ghost_bit(10)),
], ids=["gnb5", "gbb10"])
def test_synth_out_copies_the_uncompute_in_reads_of_any_size(argv, spec, size, capsys, monkeypatch, tmp_path):
    # one byte, and five, shorter than any gate line, per read back
    monkeypatch.setattr(circuits, "COPY_SIZE", size)
    path = tmp_path / "inv.qc"
    assert run(capsys, "synth", *argv, "--out", str(path))[0] == 0
    assert path.read_bytes() == _generated(spec, "invert")


@pytest.mark.parametrize("size", [1, 3, 7, 8, 14, 21, 42, 43, 1 << 14])
def test_reversed_lines_reads_whole_lines_across_read_edges(size, monkeypatch, tmp_path):
    # six 7-byte lines after a 9-byte header: reads of 7, 14, 21 and 42 end
    # exactly on line starts, and 42 is the whole range in one read
    lines = [f"cx {i} {i + 1}\n".encode() for i in range(6)]
    path = tmp_path / "lines"
    path.write_bytes(b"qubits 7\n" + b"".join(lines) + b"# tail\n")
    monkeypatch.setattr(circuits, "COPY_SIZE", size)
    fd = os.open(path, os.O_RDONLY)
    try:
        pieces = list(reversed_lines(fd, 9, 9 + 42))
        assert b"".join(pieces) == b"".join(reversed(lines))
        assert all(piece.endswith(b"\n") and len(piece) <= size + 7 for piece in pieces)
        assert list(reversed_lines(fd, 9, 9)) == []
        # a range past the end of the file reads short and is refused
        with pytest.raises(OSError, match="file changed"):
            list(reversed_lines(fd, 9, 9 + 100))
    finally:
        os.close(fd)


def test_a_failed_copy_leaves_no_file(capsys, monkeypatch, tmp_path):
    # the reverse copy fails after its first read: the file goes, exit 3
    pread = os.pread
    reads = []

    def failing(fd, n, offset):
        reads.append(offset)
        if len(reads) > 1:
            raise OSError("read-back failed")
        return pread(fd, n, offset)

    monkeypatch.setattr(circuits, "COPY_SIZE", 64)
    monkeypatch.setattr(os, "pread", failing)
    path = tmp_path / "inv.qc"
    code, out, err = run(capsys, "synth", "invert", "-m", "11", "--rep", "gnb", "--out", str(path))
    assert (code, out, err) == (3, "", "error: read-back failed\n")
    assert len(reads) == 2 and not path.exists()
    # /dev/null takes the generating route, reads nothing back, and stays
    reads.clear()
    assert run(capsys, "synth", "invert", "-m", "11", "--rep", "gnb", "--out", os.devnull)[0] == 0
    assert reads == [] and os.path.exists(os.devnull)


def test_a_file_that_cannot_be_read_back_is_generated(capsys, monkeypatch, tmp_path):
    # when the written file cannot be opened again to read, every gate is
    # generated, and the bytes are the same
    opened = []
    real_open = os.open

    def no_reading(path, flags, *args):
        if flags & (os.O_WRONLY | os.O_RDWR) == 0:
            opened.append(path)
            raise PermissionError("no read access")
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", no_reading)
    path = tmp_path / "inv.qc"
    assert run(capsys, "synth", "invert", "-m", "11", "--rep", "gnb", "--out", str(path))[0] == 0
    assert opened == [str(path)]
    assert path.read_bytes() == _generated(FieldSpec.gnb(11), "invert")


def test_a_read_back_that_opens_another_file_is_closed_unused(capsys, monkeypatch, tmp_path):
    # the output path, opened again to read, names another file by then: that
    # descriptor is closed unread, and every gate is generated
    decoy = tmp_path / "decoy"
    decoy.write_bytes(b"qubits 1\n" * 64)
    path = tmp_path / "inv.qc"
    real_open, real_close = os.open, os.close
    decoys, closed = [], []

    def elsewhere(name, flags, *args):
        if name == str(path) and flags & (os.O_WRONLY | os.O_RDWR) == 0:
            decoys.append(real_open(decoy, flags, *args))
            return decoys[-1]
        return real_open(name, flags, *args)

    def recorded_close(fd):
        closed.append(fd)
        real_close(fd)

    monkeypatch.setattr(os, "open", elsewhere)
    monkeypatch.setattr(os, "close", recorded_close)
    assert run(capsys, "synth", "invert", "-m", "11", "--rep", "gnb", "--out", str(path))[0] == 0
    monkeypatch.undo()
    assert path.read_bytes() == _generated(FieldSpec.gnb(11), "invert")
    assert decoy.read_bytes() == b"qubits 1\n" * 64
    assert len(decoys) == 1 and decoys[0] in closed


@pytest.mark.parametrize(
    "rep, m, spec",
    [("gbb", "10", FieldSpec.ghost_bit(10)), ("gnb", "11", FieldSpec.gnb(11))],
    ids=["gbb10", "gnb11"],
)
def test_synth_mult_draws_the_multiplier_only_to_write_it(
    rep, m, spec, capsys, monkeypatch, tmp_path
):
    # every stage block_batches draws goes through multipliers._stage once
    # as it is drawn; the product's estimate is in closed form and draws none
    drawn = []
    stage = multipliers._stage

    def recorded(batches, reverse):
        drawn.append(batches)
        return stage(batches, reverse)

    monkeypatch.setattr(multipliers, "_stage", recorded)
    code, out, _ = run(capsys, "synth", "mult", "-m", m, "--rep", rep)
    assert code == 0 and f"toffoli={len(spec.mult_stages()) * spec.width}" in out
    assert drawn == []
    path = tmp_path / "mult.qc"
    assert run(capsys, "synth", "mult", "-m", m, "--rep", rep, "--out", str(path))[0] == 0
    assert len(drawn) == len(spec.mult_stages())


@pytest.mark.parametrize(
    "rep, m, spec",
    [("gbb", "10", FieldSpec.ghost_bit(10)), ("gnb", "11", FieldSpec.gnb(11))],
    ids=["gbb10", "gnb11"],
)
def test_synth_selfmult_draws_the_self_power_wires_only_to_write_it(
    rep, m, spec, capsys, monkeypatch, tmp_path
):
    # the estimate layers the self-power block on its index columns, so no
    # stage is placed on wires through multipliers._stage but to write it
    drawn = []
    stage = multipliers._stage

    def recorded(batches, reverse):
        drawn.append(batches)
        return stage(batches, reverse)

    monkeypatch.setattr(multipliers, "_stage", recorded)
    code, out, _ = run(capsys, "synth", "selfmult", "-m", m, "--rep", rep, "-r", "3")
    assert code == 0 and f"toffoli={cli.kind_estimate(spec, 'selfmult', 3).toffoli_count}" in out
    assert drawn == []
    path = tmp_path / "selfmult.qc"
    assert run(capsys, "synth", "selfmult", "-m", m, "--rep", rep, "-r", "3", "--out", str(path))[0] == 0
    assert len(drawn) == len(list(spec.self_mult_stages(3)))


def test_benchmarked_commands_import_no_numpy():
    # importing numpy alone costs about 13.7 MB of peak RSS, more than the
    # benchmark's 5 % peak_rss_mb bound on its workloads
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from gf2synth import cli\n"
        "from gf2synth.fields import FieldSpec\n"
        "from gf2synth.inverters import check_bounds\n"
        "assert cli.main(['table', '-m', '5,163']) == 0\n"
        "assert check_bounds(FieldSpec.gnb(23)).passed\n"
        "print('numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_synth_out_keeps_the_gate_rule(capsys, monkeypatch, tmp_path):
    # a generated gate that breaks the rule is refused, and no file is left,
    # also once the valid gates before it have been written
    kind_table = cli.synth_circuit
    for after_valid_gates in (False, True):

        def bad_mult(spec, kind, r=None):
            width, registers, batches = kind_table(spec, kind, r)
            bad = iter([([0], [1], [1])])
            return Netlist(width, registers, chain(batches, bad) if after_valid_gates else bad)

        monkeypatch.setattr(cli, "synth_circuit", bad_mult)
        path = tmp_path / f"F{after_valid_gates}"
        code, out, err = run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path))
        assert (code, out) == (2, "")
        assert err == "error: gate (0, 1, 1) is not 2 or 3 distinct wires in 0..14\n"
        assert not path.exists()
    # through a symlink, the file written is the link's target: that goes
    link, target = tmp_path / "link", tmp_path / "target"
    link.symlink_to(target)
    assert run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(link))[0] == 2
    assert not target.exists()


def test_synth_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.qc", tmp_path / "b.qc"
    run(capsys, "synth", "invert", "-m", "7", "--rep", "gnb", "--out", str(a))
    run(capsys, "synth", "invert", "-m", "7", "--rep", "gnb", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_synth_selfmult_needs_exponent(capsys):
    code, _, err = run(capsys, "synth", "selfmult", "-m", "4", "--rep", "gbb")
    assert code == 2
    assert "-r" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("selfmult", "-m", "4", "--rep", "gbb", "-r", "9"),
        ("selfmult", "-m", "5", "--rep", "gnb", "-r", "-1"),
        ("selfmult", "-m", "4", "--rep", "gbb"),
        ("invert", "-m", "2", "--rep", "gbb"),
        ("mult", "-m", "5", "--rep", "gbb"),
    ],
)
def test_synth_domain_error_opens_no_file(argv, capsys, tmp_path):
    path = tmp_path / "F"
    code, out, err = run(capsys, "synth", *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not path.exists()


@pytest.mark.parametrize("command", ["synth", "verify"])
@pytest.mark.parametrize("kind", ["add", "mult", "invert"])
def test_exponent_refused_on_kinds_that_take_none(command, kind, capsys, tmp_path):
    # -r used to be dropped silently; like -t on gbb it is a usage error
    path = tmp_path / "F"
    extra = ("--out", str(path)) if command == "synth" else ()
    code, out, err = run(capsys, command, kind, "-m", "4", "--rep", "gbb", "-r", "2", *extra)
    assert (code, out) == (2, "")
    assert err == f"error: {kind} takes no exponent; -r applies to selfmult only\n"
    assert not path.exists()


def test_verify_refuses_an_exponent_before_packing(monkeypatch, tmp_path, capsys):
    def no_patterns(*args):
        raise AssertionError("patterns were drawn or packed")

    monkeypatch.setattr(cli, "_pack_patterns", no_patterns)
    monkeypatch.setattr(cli.random, "Random", no_patterns)
    with pytest.raises(ValueError, match="mult takes no exponent"):
        verify_kind(FieldSpec.ghost_bit(4), "mult", r=3)
    # an out-of-range exponent is refused before 2^20 samples are drawn
    with pytest.raises(ValueError, match="outside 0..409"):
        verify_kind(FieldSpec.gnb(409), "selfmult", r=999, mode="random", samples=1 << 20)
    # a missing exponent and an unknown kind are refused by the kind table too
    with pytest.raises(ValueError, match="selfmult needs -r"):
        verify_kind(FieldSpec.ghost_bit(4), "selfmult")
    with pytest.raises(ValueError, match="unknown synthesis kind 'bogus'"):
        verify_kind(FieldSpec.ghost_bit(4), "bogus")
    refused = run(capsys, "verify", "selfmult", "-m", "4", "--rep", "gbb")
    assert refused == (2, "", "error: selfmult needs -r <exponent>\n")
    assert refused == run(capsys, "synth", "selfmult", "-m", "4", "--rep", "gbb")
    monkeypatch.undo()
    path = tmp_path / "mult.qc"
    assert run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "verify", "mult", "-m", "4", "--rep", "gbb", "--in", str(path), "-r", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: mult takes no exponent")


@pytest.mark.parametrize(
    "spec", [FieldSpec.ghost_bit(4), FieldSpec.gnb(5)], ids=["gbb4", "gnb5"]
)
def test_every_refusal_comes_before_any_stage_is_drawn(spec, monkeypatch):
    def no_stage(*args):
        raise AssertionError("a stage was drawn")

    monkeypatch.setattr(inverters, "block_batches", no_stage)
    monkeypatch.setattr(type(spec), "self_mult_stages", no_stage)
    m = spec.m
    refusals = [
        *[(kind, 2, f"{kind} takes no exponent; -r applies to selfmult only") for kind in ("add", "mult", "invert")],
        ("selfmult", None, "selfmult needs -r <exponent>"),
        ("selfmult", -1, f"exponent r=-1 outside 0..{m}"),
        ("selfmult", m + 1, f"exponent r={m + 1} outside 0..{m}"),
        ("bogus", None, "unknown synthesis kind 'bogus'"),
    ]
    for kind, r, message in refusals:
        for entry in (cli.synth_circuit, cli.kind_estimate):
            with pytest.raises(ValueError) as refused:
                entry(spec, kind, r)
            assert str(refused.value) == message, (entry.__name__, kind, r)


def test_synth_t_rejected_for_ghost(capsys):
    code, _, err = run(capsys, "synth", "mult", "-m", "4", "--rep", "gbb", "-t", "1")
    assert code == 2
    assert "gnb" in err


def test_synth_t_override(capsys):
    code, out, _ = run(capsys, "synth", "mult", "-m", "4", "--rep", "gnb", "-t", "3")
    assert code == 0
    assert "t=3" in out
    assert "toffoli=60" in out


@pytest.mark.parametrize("t", [GNB_MAX_TYPE + 1, 1000009, 10000005])
def test_type_above_the_search_limit_is_refused_before_building(capsys, monkeypatch, t):
    # the index table has t*m entries; t=1000009 used to take seconds and 100 MB
    def no_table(*args):
        raise AssertionError("the index table was built")

    monkeypatch.setattr(fields, "_build_f_table", no_table)
    with pytest.raises(InvalidParams, match=f"above the largest supported type {GNB_MAX_TYPE}"):
        make_gnb_params(4, t)
    code, out, err = run(capsys, "synth", "add", "-m", "4", "--rep", "gnb", "-t", str(t))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: type t={t} is above")


SPEC_REFUSALS = [
    ("synth add -m 1 --rep gbb", 2, "", "error: field degree must be at least 2\n"),
    ("synth add -m 0 --rep gnb", 2, "", "error: field degree must be at least 2\n"),
    ("verify add -m 1 --rep gbb", 2, "", "error: field degree must be at least 2\n"),
    (
        "synth mult -m 5 --rep gbb", 2, "",
        "error: m=5 has no ghost-bit representation (need m+1 prime with 2 primitive)\n",
    ),
    (
        "synth mult -m 8 --rep gnb", 2, "",
        "error: no Gaussian normal basis of type <= 30 exists for m=8\n",
    ),
    (
        "synth mult -m 5 --rep gnb -t 31", 2, "",
        "error: type t=31 is above the largest supported type 30\n",
    ),
    ("synth mult -m 5 --rep gnb -t 3", 2, "", "error: p = t*m + 1 = 16 is not prime\n"),
    ("params -m 1", 2, "m=1\nghost_bit=no\ngnb_type=none\n", ""),
    ("params -m 8 --rep gnb", 2, "m=8\ngnb_type=none\n", ""),
    ("table -m 1", 2, "", "error: no supported representation for the requested degrees\n"),
]


@pytest.mark.parametrize("argv,code,out,err", SPEC_REFUSALS, ids=[r[0] for r in SPEC_REFUSALS])
def test_spec_refusals_are_pinned(argv, code, out, err, capsys):
    # the exact words of every refusal the field spec layer makes
    assert run(capsys, *argv.split()) == (code, out, err)


@pytest.mark.parametrize(
    "argv",
    [
        "params -m {m}",
        "params --rep gnb -m {m}",
        "synth add --rep gbb -m {m}",
        "synth mult --rep gnb -m {m}",
        "verify add --rep gnb -m {m}",
        "table -m 5,{m}",
    ],
)
def test_degree_above_the_cap_is_refused_before_any_search(argv, capsys, monkeypatch):
    # uncapped, the ghost-bit check alone spends 6-7 s factoring this m
    # by trial division; above MAX_DEGREE nothing is searched
    def no_search(*args):
        raise AssertionError("a parameter search ran")

    m = 10**16 + 4446
    monkeypatch.setattr(fields, "multiplicative_order", no_search)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.format(m=m).split())
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: degree m={m} is above the largest supported degree {fields.MAX_DEGREE}\n"


def test_the_degree_cap_itself_is_searched(capsys):
    code, out, err = run(capsys, "params", "-m", str(fields.MAX_DEGREE))
    assert err == ""
    assert out.startswith(f"m={fields.MAX_DEGREE}\n")


@pytest.mark.parametrize(
    "argv, kind",
    [("synth invert", "invert"), ("verify invert --random 1", "invert"), ("table", "mult")],
)
def test_a_kind_above_the_generation_budget_is_refused_before_any_draw(argv, kind, capsys, monkeypatch):
    # gnb 9973's inverter bounds 4.77e10 gates; every NIST degree fits
    def no_draw(*args, **kwargs):
        raise AssertionError("a stage or pattern was drawn")

    monkeypatch.setattr(inverters, "block_batches", no_draw)
    monkeypatch.setattr(inverters, "layer_block", no_draw)
    monkeypatch.setattr(fields.Gnb, "self_mult_stages", no_draw)
    monkeypatch.setattr(cli, "_pack_patterns", no_draw)
    spec = FieldSpec.gnb(9973)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split(), "-m", "9973", "--rep", "gnb")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    gates = cli.kind_bounds(spec, kind)[1]
    assert gates > cli.MAX_GATES >= FieldSpec.gnb(571).inverter_bounds().gate_bound == 84_755_814
    assert err == (
        f"error: {kind} at m=9973 (gnb) bounds {gates} gates, above the generation budget of {cli.MAX_GATES}\n"
    )


# the 17 degrees of 1000..1099 whose 20 field specs each pass the
# generation budget
ADMITTED_ONE_BY_ONE = "1013,1014,1018,1019,1026,1031,1033,1034,1041,1043,1049,1055,1057,1060,1065,1070,1090"


def test_a_table_above_the_table_budget_is_refused_before_any_row(capsys, monkeypatch):
    # each spec fits the generation budget, but the rows sum to 1.19e9 gates;
    # the five NIST degrees, 1.19e8, must still fit
    def no_row(*args, **kwargs):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(cli, "kind_estimate", no_row)
    start = time.perf_counter()
    code, out, err = run(capsys, "table", "-m", ADMITTED_ONE_BY_ONE)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: table of 20 field specs bounds 1185375344 gates,"
        f" above the table budget of {cli.MAX_TABLE_GATES}\n"
    )
    nist = [FieldSpec.gnb(m) for m in (163, 233, 283, 409, 571)]
    assert sum(cli.kind_bounds(s, k)[1] for s in nist for k in ("add", "mult", "invert")) == 118_734_922
    assert 118_734_922 <= cli.MAX_TABLE_GATES < 1_185_375_344


def _no_draw(*args, **kwargs):
    raise AssertionError("a stage, pattern or row was drawn")


_GNB11_INVERT = cli.kind_bounds(FieldSpec.gnb(11), "invert")[1]
_TABLE_4_5 = sum(
    cli.kind_bounds(spec, kind)[1]
    for spec in (FieldSpec.ghost_bit(4), FieldSpec.gnb(4), FieldSpec.gnb(5))
    for kind in ("add", "mult", "invert")
)


@pytest.mark.parametrize(
    "cap, argv, amount, claim, name, draw",
    [
        ("MAX_GATES", "synth invert -m 11 --rep gnb", _GNB11_INVERT,
         f"invert at m=11 (gnb) bounds {_GNB11_INVERT} gates", "generation", "chain_estimate"),
        ("MAX_GATE_PATTERNS", "verify invert -m 11 --rep gnb --random 100", 100 * _GNB11_INVERT,
         f"verifying invert at m=11 (gnb) would simulate {100 * _GNB11_INVERT} gate-patterns",
         "verification", "_pack_patterns"),
        ("MAX_PATTERN_BITS", "verify invert -m 11 --rep gnb --random 100", 100 * 11,
         "verifying invert at m=11 (gnb) would draw and pack 1100 input bits", "pattern", "_pack_patterns"),
        ("MAX_TABLE_GATES", "table -m 4,5", _TABLE_4_5,
         f"table of 3 field specs bounds {_TABLE_4_5} gates", "table", "kind_estimate"),
    ],
    ids=["generation", "verification", "pattern", "table"],
)
def test_each_budget_admits_its_cap_and_refuses_one_above(
    cap, argv, amount, claim, name, draw, capsys, monkeypatch
):
    # a command that needs exactly the cap runs; one unit less of cap and it
    # is refused with its exact message, before anything is drawn
    monkeypatch.setattr(cli, cap, amount)
    code, out, err = run(capsys, *argv.split())
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(cli, cap, amount - 1)
    monkeypatch.setattr(cli, draw, _no_draw)
    assert run(capsys, *argv.split()) == (2, "", f"error: {claim}, above the {name} budget of {amount - 1}\n")


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


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_verify_rejects_a_negative_seed(capsys, seed):
    # random.Random seeds with the absolute value, so -5 would sample the inputs of 5
    code, out, err = run(
        capsys, "verify", "mult", "-m", "4", "--rep", "gbb", "--random", "3", "--seed", seed
    )
    assert (code, out) == (2, "")
    assert f"error: argument --seed: the seed must be non-negative, got {seed}" in err
    with pytest.raises(ValueError):
        verify_kind(FieldSpec.ghost_bit(4), "mult", mode="random", samples=3, seed=-5)


@pytest.mark.parametrize("mode", ["bogus", "Random", "", "exhaustive "])
def test_verify_rejects_an_unknown_mode(monkeypatch, mode):
    # refused before a pattern is packed or a gate drawn, so no width can blow up
    def drawn(*args):
        raise AssertionError("patterns were packed")

    monkeypatch.setattr(cli, "_pack_patterns", drawn)
    for spec in (FieldSpec.ghost_bit(4), FieldSpec.gnb(409)):
        with pytest.raises(ValueError, match=r"auto\|exhaustive\|random"):
            verify_kind(spec, "add", mode=mode)


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


@pytest.mark.parametrize("r", ["9", "6", "-1"])
def test_verify_selfmult_in_checks_the_exponent(capsys, tmp_path, r):
    # a netlist file does not carry r; r=9 is r=1 mod the ghost-bit Frobenius period
    path = tmp_path / "self1.qc"
    run(capsys, "synth", "selfmult", "-m", "4", "--rep", "gbb", "-r", "1", "--out", str(path))
    code, out, err = run(
        capsys, "verify", "selfmult", "-m", "4", "--rep", "gbb", "-r", r, "--in", str(path)
    )
    assert (code, out) == (2, "")
    assert err == f"error: exponent r={r} outside 0..4\n"


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
    # exhaustive mode draws no samples, so their count is not checked
    result = verify_kind(FieldSpec.ghost_bit(4), "add", mode="exhaustive", samples=0)
    assert (result.passed, result.tested) == (True, 1 << 10)


class _Packed(Exception):
    """Raised in place of packing: the run got past every refusal."""


def test_verify_budget_refuses_before_drawing_a_pattern(capsys, monkeypatch):
    # samples x the gate bound above MAX_GATE_PATTERNS is refused before any
    # pattern is drawn or packed; the 65,536-sample baseline run at
    # gnb 163 is under it and gets as far as packing
    def no_patterns(*args):
        raise AssertionError("patterns were drawn or packed")

    def packed(*args):
        raise _Packed

    gnb409, gnb163 = FieldSpec.gnb(409), FieldSpec.gnb(163)
    assert (1 << 20) * cli.kind_bounds(gnb409, "invert")[1] > cli.MAX_GATE_PATTERNS
    assert 65536 * cli.kind_bounds(gnb163, "invert")[1] <= cli.MAX_GATE_PATTERNS
    monkeypatch.setattr(cli, "_pack_patterns", no_patterns)
    monkeypatch.setattr(cli.random, "Random", no_patterns)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "invert", "-m", "409", "--rep", "gnb", "--random", "1048576")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: verifying invert at m=409 (gnb) would simulate 15426366996480 gate-patterns,"
        f" above the verification budget of {cli.MAX_GATE_PATTERNS}\n"
    )
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_pack_patterns", packed)
    with pytest.raises(_Packed):
        verify_kind(gnb163, "invert", mode="random", samples=65536)


def test_verify_pattern_budget_refuses_a_wide_kind_with_few_gates(capsys, monkeypatch):
    # add at gnb 9973 is under the gate-pattern budget at 2^20 samples, but
    # its 19,946 input bits a pattern are above the pattern budget: refused
    # before any pattern is drawn or packed
    def no_patterns(*args):
        raise AssertionError("patterns were drawn or packed")

    spec = FieldSpec.gnb(9973)
    assert (1 << 20) * cli.kind_bounds(spec, "add")[1] <= cli.MAX_GATE_PATTERNS
    monkeypatch.setattr(cli, "_pack_patterns", no_patterns)
    monkeypatch.setattr(cli.random, "Random", no_patterns)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "add", "-m", "9973", "--rep", "gnb", "--random", "1048576")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        "error: verifying add at m=9973 (gnb) would draw and pack 20914896896 input bits,"
        f" above the pattern budget of {cli.MAX_PATTERN_BITS}\n"
    )


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


def test_verify_invert_simulates_the_inverter_batches(monkeypatch):
    """verify reads the inverter's own stages, never its flat gate view."""

    def no_flat_view(*_):
        raise AssertionError("the flat gate view was drawn")

    monkeypatch.setattr(inverters, "flat_gates", no_flat_view)
    monkeypatch.setattr(cli, "gate_runs", no_flat_view)
    assert verify_kind(FieldSpec.ghost_bit(10), "invert", mode="exhaustive").passed
    assert verify_kind(FieldSpec.gnb(5), "invert").passed


def _inverter_stream(spec, phase):
    """The inverter's batches as a list, with one target moved to wire t ^ 1
    in the middle batch of the forward blocks or of the uncompute blocks
    (``phase`` None leaves the stream as synthesized)."""
    s = inverters.inverter_structure(spec)
    batches = list(inverters.inverter_batches(spec))
    n_forward = sum(
        1 for block in s.forward for _ in inverters.block_batches(spec, block)
    )
    if phase is None:
        return s, batches
    k = n_forward // 2 if phase == "forward" else (n_forward + len(batches)) // 2
    ca, cb, ct = batches[k]
    i = next(i for i, t in enumerate(ct) if t ^ 1 != ca[i] and (cb is None or t ^ 1 != cb[i]))
    batches[k] = (ca, cb, (*ct[:i], ct[i] ^ 1, *ct[i + 1 :]))
    return s, batches


@pytest.mark.parametrize(
    "spec",
    [FieldSpec.ghost_bit(4), FieldSpec.ghost_bit(10), FieldSpec.gnb(5), FieldSpec.gnb(7, t=4)],
    ids=lambda spec: f"{spec.representation.value}{spec.m}",
)
@pytest.mark.parametrize("phase", [None, "forward", "uncompute"])
def test_verify_batches_and_flat_gates_agree(spec, phase):
    """The inverter stream as batches and as its flat gates cut by
    gate_runs give one verdict and one counterexample."""
    s, batches = _inverter_stream(spec, phase)
    as_batches = verify_kind(spec, "invert", netlist=Netlist(s.width, s.registers, iter(batches)))
    as_runs = verify_kind(
        spec, "invert", netlist=Netlist(s.width, s.registers, gate_runs(flat_gates(batches)))
    )
    assert as_batches == as_runs
    assert as_batches.passed == (phase is None)


STREAMED_SPECS = [FieldSpec.ghost_bit(10), FieldSpec.gnb(11)]


def _move_one_output_index(monkeypatch, spec, move):
    """Patch the spec class's ``self_mult_stages`` so that the first index
    batch of the first color class of the first stage writes its first
    product to window index ``move(w, c)`` instead of c (a window index:
    w + the output coefficient)."""
    original = type(spec).self_mult_stages

    def moved(self, r, reverse=False):
        stage, *rest = original(self, r, reverse)
        (first, *batches), *classes = stage.classes
        x, y, c = first
        first = (x, y, (move(self.width, c[0]), *c[1:]))
        return iter([stage._replace(classes=((first, *batches), *classes)), *rest])

    monkeypatch.setattr(type(spec), "self_mult_stages", moved)


def _one_output_coefficient_on(w, c):
    return w + (c - w + 1) % w


def _onto_a_source_wire(w, c):
    return (c + 1) % w


# the shape of the first counterexample: selfmult words the failing operand
# and product, invert the failing input and output
MOVED_OUTPUT_COUNTEREXAMPLES = {
    "selfmult": r"a=[01]+ got=[01]+ expected=[01]+",
    "invert": r"input=[01]+ output=[01]+",
}


@pytest.mark.parametrize("spec", STREAMED_SPECS, ids=lambda spec: f"{spec.representation.value}{spec.m}")
@pytest.mark.parametrize("kind, r", [("selfmult", 3), ("invert", None)])
def test_streamed_verify_fails_a_moved_output_index(spec, kind, r, monkeypatch):
    """Streamed verify runs the self-power blocks on the spec's index
    columns as they are, so one output index moved one output coefficient
    on, within the output half, fails it with a wrong product (every input
    is checked at these degrees)."""
    assert verify_kind(spec, kind, r=r).passed
    _move_one_output_index(monkeypatch, spec, _one_output_coefficient_on)
    result = verify_kind(spec, kind, r=r)
    assert (result.passed, result.mode) == (False, "exhaustive")
    assert re.fullmatch(MOVED_OUTPUT_COUNTEREXAMPLES[kind], result.counterexample)


@pytest.mark.parametrize(
    "spec, modified",
    [(FieldSpec.ghost_bit(10), "wire 5 modified"), (FieldSpec.gnb(11), "wire 0 modified")],
    ids=["gbb10", "gnb11"],
)
@pytest.mark.parametrize("kind, r", [("selfmult", 3), ("invert", None)])
def test_streamed_verify_fails_an_output_index_moved_onto_a_source_wire(
    spec, modified, kind, r, monkeypatch
):
    """One output index moved into the window's source half writes a
    product onto an input wire: the first target, window index 15 at gbb 10
    and 21 at gnb 11, goes to (c + 1) mod w, wire 5 and wire 0. selfmult
    reports that input wire modified, and the inverter, whose input feeds
    every later block, a wrong output."""
    _move_one_output_index(monkeypatch, spec, _onto_a_source_wire)
    result = verify_kind(spec, kind, r=r)
    assert (result.passed, result.mode) == (False, "exhaustive")
    if kind == "selfmult":
        assert result.counterexample == modified
    else:
        assert re.fullmatch(MOVED_OUTPUT_COUNTEREXAMPLES[kind], result.counterexample)


@pytest.mark.parametrize("rep, m", [("gbb", "10"), ("gnb", "11")])
@pytest.mark.parametrize(
    "wrong",
    [
        lambda blocks: blocks[1:],  # the first uncompute block dropped
        lambda blocks: (*blocks[:-2], blocks[-1], blocks[-2]),  # the last two swapped
    ],
    ids=["dropped", "swapped"],
)
def test_streamed_verify_fails_a_wrong_uncompute(rep, m, wrong, capsys, monkeypatch):
    """An uncompute block is restored from its forward run while its window
    holds what that run wrote, and recomputed from its window as it stands
    otherwise, so an uncompute chain with a block dropped or two dependent
    blocks swapped leaves an ancilla nonzero. (A simulator that kept each
    block's forward contribution and XORed it back would pass the swap.)"""
    right = inverters.BlockChain.uncompute
    monkeypatch.setattr(inverters.BlockChain, "uncompute", property(lambda c: wrong(right.fget(c))))
    code, out, _ = run(capsys, "verify", "invert", "-m", m, "--rep", rep)
    assert code == 1
    assert "result=fail\ncounterexample=ancilla wire " in out
    assert out.endswith(" not returned to zero\n")


@pytest.mark.parametrize("kind, r", [("mult", None), ("selfmult", "3"), ("invert", None)])
@pytest.mark.parametrize("rep, m", [("gbb", "10"), ("gnb", "11")])
def test_streamed_verify_places_no_gate_on_wires(rep, m, kind, r, capsys, monkeypatch):
    # every stage block_batches draws goes through multipliers._stage as it
    # is drawn; streamed verify runs each block on its window
    # and draws none, nor hands anything to run_packed
    drawn = []
    stage = multipliers._stage

    def recorded(batches, reverse):
        drawn.append(batches)
        return stage(batches, reverse)

    def no_wire_path(*args):
        raise AssertionError("run_packed was called")

    monkeypatch.setattr(multipliers, "_stage", recorded)
    monkeypatch.setattr(cli, "run_packed", no_wire_path)
    argv = ["verify", kind, "-m", m, "--rep", rep] + (["-r", r] if r else [])
    code, out, _ = run(capsys, *argv)
    assert (code, drawn) == (0, [])
    assert "result=pass" in out


@pytest.mark.parametrize("spec", STREAMED_SPECS, ids=lambda spec: f"{spec.representation.value}{spec.m}")
def test_verify_of_a_given_netlist_runs_the_wire_path(spec, monkeypatch):
    """A netlist handed in (the ``--in`` route) is simulated gate by gate by
    ``run_packed``, never by the window route, so the uncompute tamper fails
    there."""
    simulated = []
    run_packed = cli.run_packed

    def recorded(batches, state):
        simulated.append(len(state))
        return run_packed(batches, state)

    def no_windows(*args):
        raise AssertionError("the window route ran")

    monkeypatch.setattr(cli, "run_packed", recorded)
    monkeypatch.setattr(cli, "chain_simulate", no_windows)
    s, batches = _inverter_stream(spec, "uncompute")
    result = verify_kind(spec, "invert", netlist=Netlist(s.width, s.registers, iter(batches)))
    assert not result.passed
    assert simulated == [s.width]


def tamper(path):
    """Move one Toffoli target to a different wire and rewrite the file."""
    c = parse(path.read_text())
    gates = list(c.gates)
    for i, g in enumerate(gates):
        if len(g) == 3:
            a, b, t = g
            for nt in range(c.width):
                if nt not in (a, b, t):
                    gates[i] = (a, b, nt)
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
    # like every other domain error, nothing goes to stdout
    for degrees in ("8", "2", "8,16"):
        code, out, err = run(capsys, "table", "-m", degrees)
        assert code == 2
        assert out == ""
        assert "no supported representation" in err


# -- misc -------------------------------------------------------------------


def test_no_subcommand_shows_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def test_help_exits_zero(capsys):
    code, _, _ = run(capsys, "--help")
    assert code == 0


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # the package's own source tree, so the child finds it without PYTHONPATH
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "gf2synth", "params", "-m", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "ghost_bit=yes" in proc.stdout
