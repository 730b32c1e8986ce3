"""The benchmark tracer's hooks still find every name they wrap.

``perfbench/tracing.py`` replaces module-level names on ``gf2synth.cli``,
``inverters``, ``fields`` and ``circuits`` with no default, so a rename in
the package breaks every traced benchmark round. This runs the tracer in a
fresh interpreter, as the benchmark child does, over one command of each
kind and one ``check_bounds``. The traced ``open`` hands out a reader
with nothing but ``read``, so the netlist round trip (``synth invert --out``
then ``verify --in``) also shows that the streamed reader only calls
``read(n)``, and ``verify mult`` / ``verify selfmult`` feed the traced
simulator the multiplier cores' batch generators. No command draws the
inverter's flat gate view, so the script drains ``inverter_gates`` once
itself, through the module name the tracer wraps.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import collections, contextlib, io, json
from tracing import END, Tracer

tracer = Tracer()
tracer.install()
from gf2synth import FieldSpec, check_bounds, cli, inverters

rcs = []
for argv in (
    ["verify", "invert", "-m", "5", "--rep", "gnb"],
    ["synth", "mult", "-m", "4", "--rep", "gbb"],
    ["table", "-m", "5"],
    ["synth", "invert", "-m", "5", "--rep", "gnb", "--out", "inv.qc"],
    ["verify", "invert", "-m", "5", "--rep", "gnb", "--in", "inv.qc"],
    ["verify", "mult", "-m", "4", "--rep", "gbb"],
    ["verify", "selfmult", "-m", "4", "--rep", "gbb", "-r", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        rcs.append(cli.main(argv))
report = check_bounds(FieldSpec.gnb(7))
collections.deque(inverters.inverter_gates(FieldSpec.gnb(5)), 0)
print(json.dumps({
    "rcs": rcs,
    "passed": report.passed,
    "open": [s[0] for s in tracer.spans if s[END] == 0.0],
    "names": sorted({s[0] for s in tracer.spans}),
}))
"""


def test_tracer_installs_and_closes_every_span(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rcs"] == [0, 0, 0, 0, 0, 0, 0]
    assert out["passed"]
    assert out["open"] == []
    for name in (
        "cli.main", "cli.verify", "fields.params", "fields.oracle", "inverters.generate",
        "inverters.check_bounds", "circuits.simulate", "circuits.measure", "multipliers.synth",
        "circuits.emit", "cli.read",
    ):
        assert name in out["names"], name
