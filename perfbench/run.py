"""gf2synth benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see ``workloads.py``): nist_roundtrip, oracle_verify,
bounds_sweep. A run measures one round of the workload's fixed job list,
one job at a time, in a fresh child interpreter with a fixed
PYTHONHASHSEED. The job lists are sized so that a round takes 15 to 45 s
on a 2-vCPU x86 host; ``--seconds`` names that nominal time and changes no
work, so that every run does the same work. Spread between runs is judged
over sets of runs (``sets.py``), not within one.

Times are in reference seconds, so that drift in the speed of the shared
host cancels out: job times are wall seconds scaled by how fast a fixed
probe loop ran while they were measured (``hostspeed.py``), set-up times
by how fast a bare interpreter started (``setup_probe``). Wall seconds are
printed too.

* ``setup_s`` is the median over SETUP_PROBES fresh interpreters (after one
  discarded warm-up; half before the round, half after it and its checks)
  of the time from starting the interpreter until it has imported gf2synth
  and built the workload's FieldSpecs, each in reference seconds relative
  to a bare interpreter started right after it (see ``setup_probe``).
* ``wall_s`` is the round's time over the job list, after set-up.
* ``gates_per_s`` is the gates the jobs generate, parse or measure (each
  job counts its netlist's gates once; ``table`` counts its gates column)
  over ``wall_s``.
* ``peak_rss_mb`` is the high-water RSS of the round child
  (RUSAGE_CHILDREN).
* ``*_total`` sum the ResourceEstimate fields over the workload's distinct
  netlists. They repeat exactly, across runs and seeds.

Outside the timed region every job's output is compared with
``expected.json`` (exit code, stdout, verify verdict, bound report, the
written netlist's sha256 and resource lines), and every netlist that a job
writes or verifies is certified with the independent reference in
``reference.py``: the written file on nist_roundtrip, each verify job's
netlist on oracle_verify. The sha256 of each certified netlist's lines must
match the recorded one as well. Any mismatch fails the job; the run then
reports ``correct: false`` and exits 1.

With ``--trace 1`` the untraced round and its checks are followed by a
traced round, whose outputs are checked too, and the metrics are the
per-layer ones from ``tracing.py``; the raw spans are written to
``.perfbench_work/spans-<workload>.json``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, verify_seed

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 15
# A bare interpreter start, and its time on the reference host (see setup_probe).
BARE_START = [
    sys.executable,
    "-c",
    "import argparse, dataclasses, enum, math, random, typing; print('ready', flush=True)",
]
REFERENCE_START_S = 0.065
CHILD_TIMEOUT_S = 170
COUNT_KEYS = {  # end-to-end name -> ResourceEstimate summary key
    "toffoli_total": "toffoli",
    "cnot_total": "cnot",
    "depth_total": "depth",
    "t_depth_total": "t_depth",
    "qubits_total": "qubits",
}


class ChildFailed(RuntimeError):
    pass


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    # Cached bytecode, as in an installed package: set-up then measures the
    # import, not compiling gf2synth from source on every start.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def child_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "child.py"), *args]


def time_to_ready(cmd: list[str], root: Path, work: Path) -> float:
    """Wall seconds from starting ``cmd`` until it prints ``ready``; it must then exit 0."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=work, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as p:
        line = p.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = p.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or p.returncode != 0:
        raise ChildFailed(f"set-up probe failed (exit {p.returncode}): {err.strip()[-2000:]}")
    return elapsed


def setup_probe(workload: str, root: Path, work: Path) -> float:
    """Reference seconds from interpreter start until set-up is done.

    Starting a process drifts with the host by 15 % and more between runs,
    and the probe loop of ``hostspeed`` does not follow that drift. A bare
    interpreter that imports the standard modules gf2synth uses
    (``BARE_START``) does: right after each set-up child one is started, and
    the set-up time is scaled by ``REFERENCE_START_S`` over its time.
    """
    setup = time_to_ready(child_cmd("setup", workload), root, work)
    bare = time_to_ready(BARE_START, root, work)
    return setup * REFERENCE_START_S / bare


def run_round(workload: str, seed: int, traced: bool, root: Path, work: Path) -> dict:
    proc = subprocess.run(
        child_cmd("round", workload, str(seed), "1" if traced else "0"),
        cwd=work,
        env=child_env(root),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed(f"round child failed (exit {proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks (outside the timed region)


def estimate_of(lines: list[str]) -> list[str]:
    """The resource lines (toffoli= ... t_depth=) of a synth summary."""
    keys = ("toffoli=", "cnot=", "depth=", "toffoli_depth=", "qubits=", "t_count=", "t_depth=")
    return [ln for ln in lines if ln.startswith(keys)]


def check_job(job, res: dict, exp: dict, seed: int) -> list[str]:
    if "error" in res:
        return [f"{job.name}: raised {res['error']}"]
    problems = []
    if job.bounds is not None:
        for key in ("passed", "report", "estimate"):
            if res[key] != exp[key]:
                problems.append(f"{job.name}: {key} {res[key]!r} != expected {exp[key]!r}")
        return problems
    if res["rc"] != exp["rc"]:
        problems.append(f"{job.name}: exit code {res['rc']} != expected {exp['rc']} {res['stderr'][-300:]}")
    out = res["stdout"]
    if job.is_verify:
        want_seed = f"seed=0x{verify_seed(seed, job.name):X}"
        if want_seed not in out:
            problems.append(f"{job.name}: output lacks {want_seed}")
        out = [ln for ln in out if not ln.startswith("seed=")]
    if out != exp["stdout"]:
        problems.append(f"{job.name}: stdout {out!r} != expected {exp['stdout']!r}")
    return problems


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def job_estimates(workload, results: list[dict]) -> dict[str, list[str]]:
    """Resource lines per netlist that the jobs print (synth) or return (check_bounds)."""
    found: dict[str, list[str]] = {}
    for job, res in zip(workload.jobs, results):
        if job.netlist is None or "error" in res:
            continue
        if job.bounds is not None:
            found[job.netlist.key] = res["estimate"]
        elif job.argv[0] == "synth":
            found[job.netlist.key] = estimate_of(res["stdout"])
    return found


def certify_written(workload, seed: int, work: Path, results: list[dict], expected: dict) -> list[str]:
    """Certify nist_roundtrip's written netlist with the independent reference.

    The reference interpreter's gate counts must match the synth summary,
    and the sha256 of the file's lines must match the recorded one.
    """
    from certify import certify, summary_lines

    job, res = next((j, r) for j, r in zip(workload.jobs, results) if j.argv[:1] == ("synth",))
    try:
        with open(work / workload.netlist_file) as fh:
            problems, run, digest = certify(job.netlist, fh, seed)
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"{job.name}: could not certify: {type(e).__name__}: {e}"]
    for line in summary_lines(run)[:2] + [f"qubits={run.width}"]:
        if line not in res.get("stdout", []):
            problems.append(f"{job.name}: the interpreter counted {line}, unlike the summary")
    if digest != expected["emitted"][job.netlist.key]:
        problems.append(f"{job.name}: sha256 of its lines {digest} != recorded")
    return problems


def certify_verified(workload, seed: int, expected: dict):
    """Measure and certify every netlist a verify job checks.

    verify prints no resources, so each netlist is built again through the
    library, once: its ResourceEstimate is measured, and its emitted lines
    are run through the reference interpreter and hashed. The sha256 must
    match the recorded one, so every gate of every run is covered by the
    certification done when it was recorded. Returns the resource lines per
    netlist and (job name, problems) per netlist.
    """
    from certify import certify, library_netlist
    from gf2synth import emit_lines, measure_stream

    estimates: dict[str, list[str]] = {}
    problems: list[tuple[str, list[str]]] = []
    for job in workload.jobs:
        nl = job.netlist
        if not job.is_verify or nl.key in estimates:
            continue
        width, registers, gates = library_netlist(nl)
        gates = list(gates)
        estimates[nl.key] = measure_stream(width, gates).summary_lines()
        try:
            found, _, digest = certify(nl, emit_lines(width, registers, gates), seed)
        except (ValueError, KeyError, IndexError) as e:
            found, digest = [f"{job.name}: could not certify: {type(e).__name__}: {e}"], None
        if digest is not None and digest != expected["emitted"][nl.key]:
            found.append(f"{job.name}: sha256 of {nl.key}'s lines {digest} != recorded")
        problems.append((job.name, found))
    return estimates, problems


def gate_work(workload, estimates: dict[str, list[str]], results: list[dict]) -> int:
    """Gates the jobs generate, parse or measure: each job's netlist once."""
    total = 0
    for job, res in zip(workload.jobs, results):
        if job.netlist is not None:
            est = dict(ln.split("=", 1) for ln in estimates[job.netlist.key])
            total += int(est["toffoli"]) + int(est["cnot"])
        elif "stdout" in res:  # table: sum its gates column
            for ln in res["stdout"]:
                cols = ln.split()
                if len(cols) == 7 and cols[0].isdigit():
                    total += int(cols[4])
    return total


# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="nominal time of one round; the work is fixed and does not depend on it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gf2synth" / "__init__.py").is_file():
        print("error: run from the root of a gf2synth checkout (no src/gf2synth here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    failed: set[tuple[str, str]] = set()  # (round, job)
    problems: list[str] = []

    def fail(round_name: str, job_name: str, msgs: list[str]) -> None:
        if msgs:
            failed.add((round_name, job_name))
            problems.extend(msgs)

    try:
        setup_probe(workload.name, root, work)  # warm-up: bytecode and page cache
        # Half the set-up probes go before the round and half after it, so
        # that their median spans the run, not one moment of the host.
        setups = [setup_probe(workload.name, root, work) for _ in range(SETUP_PROBES // 2)]
        untraced = run_round(workload.name, args.seed, False, root, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

        # -- checks, outside the timed region. The written netlist is the
        # untraced round's: it is checked before a traced round rewrites it.
        for job, res in zip(workload.jobs, untraced["results"]):
            fail("untraced", job.name, check_job(job, res, expected["jobs"][job.name], args.seed))
        estimates = job_estimates(workload, untraced["results"])
        certified = []
        if workload.netlist_file is not None:
            path = work / workload.netlist_file
            digest = sha256_file(path) if path.is_file() else "missing"
            if digest != expected["files"][workload.netlist_file]:
                fail("untraced", workload.jobs[0].name, [f"{workload.netlist_file}: sha256 {digest} differs"])
            fail("untraced", workload.jobs[0].name,
                 certify_written(workload, args.seed, work, untraced["results"], expected))
            certified = [workload.jobs[0].name]
            path.unlink(missing_ok=True)

        setups += [setup_probe(workload.name, root, work) for _ in range(SETUP_PROBES - len(setups))]
        traced = None
        if args.trace:
            traced = run_round(workload.name, args.seed, True, root, work)
            for job, res in zip(workload.jobs, traced["results"]):
                fail("traced", job.name, check_job(job, res, expected["jobs"][job.name], args.seed))
            if workload.netlist_file is not None:
                (work / workload.netlist_file).unlink(missing_ok=True)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if workload.netlist_file is None:
        # Rebuilding the verified netlists takes hundreds of MB in this
        # process. A child started after that would inherit the high-water
        # RSS, so this comes after the last child.
        verified, found = certify_verified(workload, args.seed, expected)
        estimates.update(verified)
        for job_name, msgs in found:
            certified.append(job_name)
            fail("untraced", job_name, msgs)
    for key, lines in estimates.items():
        if lines != expected["netlists"][key]:
            owner = next(j.name for j in workload.jobs if j.netlist and j.netlist.key == key)
            fail("untraced", owner, [f"{key}: resources {lines} != expected {expected['netlists'][key]}"])

    # -- metrics --------------------------------------------------------------
    wall_s = sum(untraced["ref_seconds"])
    raw_wall_s = sum(untraced["seconds"])
    setup_s = statistics.median(setups)
    gates = gate_work(workload, estimates, untraced["results"])
    totals = {
        name: sum(int(dict(ln.split("=", 1) for ln in lines)[key]) for lines in estimates.values())
        for name, key in COUNT_KEYS.items()
    }
    attempted = len(workload.jobs) * (2 if traced else 1)

    print(f"workload={workload.name} seed={args.seed} setup_probes={SETUP_PROBES}")
    for job, raw, ref in zip(workload.jobs, untraced["seconds"], untraced["ref_seconds"]):
        print(f"  job {job.name}: {ref:.3f} reference s ({raw:.3f} s wall)")
    print(f"  certified with the reference: {', '.join(certified) or 'none (nothing emitted or verified)'}")
    s_q1, s_q3 = quartiles(setups)
    print(f"setup_s      {setup_s:.4f} s   [q1 {s_q1:.4f}, q3 {s_q3:.4f}] over {len(setups)} probes")
    print(f"wall_s       {wall_s:.3f} s   (reference seconds; {raw_wall_s:.3f} s on this host,"
          f" speed {wall_s / raw_wall_s:.3f})")
    print(f"gates_per_s  {gates / wall_s:.1f} gates/s ({gates} gates)")
    inputs = sum(
        int(ln.split("=", 1)[1])
        for res in untraced["results"]
        for ln in res.get("stdout", [])
        if ln.startswith("inputs=")
    )
    if inputs:
        print(f"inputs_per_s {inputs / wall_s:.1f} inputs/s ({inputs} inputs)")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    for name, value in totals.items():
        print(f"{name:<14} {value}")
    print(f"fail_ratio   {len(failed)}/{attempted}")
    for msg in problems:
        print(f"FAIL {msg}")

    if traced:
        from tracing import LAYERS, layer_metrics

        traced_wall = traced["setup_wall"] + sum(traced["seconds"])
        overhead = sum(traced["ref_seconds"]) - wall_s  # reference seconds: drift cancels
        metrics = layer_metrics(traced["spans"], traced["raised_kb"], traced_wall, overhead)
        metrics["host.wall_raw_s"] = raw_wall_s
        metrics["host.speed_factor"] = wall_s / raw_wall_s
        (work / f"spans-{workload.name}.json").write_text(json.dumps(traced["spans"]))
        print("layer        self_s   peak_rss_mb")
        for layer in LAYERS:
            print(f"  {layer:<11} {metrics[layer + '.self_s']:8.3f} {metrics[layer + '.peak_rss_mb']:8.1f}")
        for name, value in metrics.items():
            if not name.endswith((".self_s", ".peak_rss_mb")):
                print(f"  {name} {value:.6g}")
        out_metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        out_metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "gates_per_s": {"value": gates / wall_s, "unit": "gates/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        out_metrics.update({name: {"value": v, "unit": "count"} for name, v in totals.items()})

    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": out_metrics,
    }))
    return 0 if not failed else 1


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_ns_per_gate_op", "ns/gate-op"),
        ("_ns_per_gate", "ns/gate"),
        ("_ns_per_line", "ns/line"),
        ("_us_per_call", "us/call"),
        ("_mb", "MB"),
        ("_bytes", "bytes"),
        ("_s", "s"),
        (".coverage", "ratio"),
        ("_factor", "ratio"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
