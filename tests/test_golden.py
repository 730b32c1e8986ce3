"""Golden CLI transcripts, demo smoke runs and the README's examples.

Every case runs a short list of command lines through ``cli.main`` inside a
fresh working directory and compares each step's exit code, its stdout bytes
and the sha256 of the netlist it wrote against ``golden_cli.json``. A step
named ``flip`` turns one Toffoli of a written netlist into a CNOT (dropping
its second control), so the ``verify --in`` that follows must fail with the
recorded counterexample.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gf2synth.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden_cli.json"

SPECS = (("gbb", 4, None), ("gbb", 10, None), ("gnb", 5, None), ("gnb", 7, None), ("gnb", 4, 3))


def _rep_args(rep, m, t):
    return ["-m", str(m), "--rep", rep] + (["-t", str(t)] if t is not None else [])


def _cases() -> dict[str, list]:
    cases: dict[str, list] = {
        "params": [["params", "-m", str(m)] for m in (2, 4, 5, 8, 10, 163)]
        + [["params", "-m", "4", "-t", "3"], ["params", "-m", "10", "--rep", "gbb"],
           ["params", "-m", "5", "--rep", "gnb", "-t", "3"]],
        "table": [["table", "-m", "4,5,7,10"], ["table", "-m", "4,5", "--rep", "gnb"]],
    }
    for rep, m, t in SPECS:
        key = f"{rep}{m}" + (f"_t{t}" if t else "")
        base = _rep_args(rep, m, t)
        steps = [["synth", kind, *base, "--out", f"{kind}.qc"] for kind in ("add", "mult", "invert")]
        steps += [["synth", "selfmult", *base, "-r", str(r), "--out", f"self{r}.qc"]
                  for r in sorted({0, 1, 2, m})]
        steps.append(["synth", "mult", *base])
        cases[f"synth_{key}"] = steps
        cases[f"verify_{key}"] = [
            ["verify", "add", *base],
            ["verify", "mult", *base, "--random", "40", "--seed", "7"],
            ["verify", "selfmult", *base, "-r", "1"],
            ["verify", "selfmult", *base, "-r", "2", "--random", "25"],
            ["verify", "invert", *base],
            ["verify", "invert", *base, "--random", "30", "--seed", "0x2A"],
        ]
    cases["verify_in"] = [
        ["synth", "mult", "-m", "4", "--rep", "gbb", "--out", "m.qc"],
        ["verify", "mult", "-m", "4", "--rep", "gbb", "--in", "m.qc"],
        ["verify", "mult", "-m", "4", "--rep", "gbb", "--in", "missing.qc"],
        ["synth", "invert", "-m", "8", "--rep", "gnb"],
    ]
    cases["verify_in_flipped_mult"] = [
        ["synth", "mult", "-m", "4", "--rep", "gbb", "--out", "m.qc"],
        ["flip", "m.qc", "7"],
        ["verify", "mult", "-m", "4", "--rep", "gbb", "--in", "m.qc"],
    ]
    cases["verify_in_flipped_invert"] = [
        ["synth", "invert", "-m", "5", "--rep", "gnb", "--out", "inv.qc"],
        ["flip", "inv.qc", "3"],
        ["verify", "invert", "-m", "5", "--rep", "gnb", "--in", "inv.qc"],
    ]
    cases["verify_in_flipped_invert_output"] = [
        ["synth", "invert", "-m", "5", "--rep", "gnb", "--out", "inv.qc"],
        ["flip", "inv.qc", "40"],  # inside the last forward block, which is never uncomputed
        ["verify", "invert", "-m", "5", "--rep", "gnb", "--in", "inv.qc"],
    ]
    return cases


CASES = _cases()


def _flip(path: Path, nth: int) -> None:
    """Replace the nth (0-based) ``ccx a b t`` line by ``cx a t``."""
    lines = path.read_text().splitlines()
    seen = -1
    for i, line in enumerate(lines):
        if line.startswith("ccx "):
            seen += 1
            if seen == nth:
                _, a, _, t = line.split()
                lines[i] = f"cx {a} {t}"
                break
    path.write_text("\n".join(lines) + "\n")


def run_case(steps: list, workdir: Path, capsys) -> list[dict]:
    """Run one case's steps in ``workdir``; one result record per step."""
    results = []
    for argv in steps:
        if argv[0] == "flip":
            _flip(workdir / argv[1], int(argv[2]))
            continue
        rc = main(list(argv))
        out = capsys.readouterr().out
        written = {}
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            written[name] = hashlib.sha256((workdir / name).read_bytes()).hexdigest()
        results.append({"argv": argv, "exit": rc, "stdout": out, "netlists": written})
    return results


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(GOLDEN.read_text())[case]
    assert run_case(CASES[case], tmp_path, capsys) == expected


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run():
    """Every fenced ``python`` block of README.md runs, in order, in one
    namespace, so the docs cannot keep naming a deleted function."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
