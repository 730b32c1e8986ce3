"""Record expected.json: every job's expected output, certified independently.

    python3 perfbench/record.py

Run from the root of a checkout. Each workload runs one untraced round at
the default seed; its outputs become the expectations that ``run.py``
checks on every run: exit codes, stdout (without the seed line of verify,
which ``run.py`` checks against the seed it derives), bound reports, the
resource lines of every netlist, the sha256 of the written netlist and the
sha256 of every netlist's lines (``emitted``).
Before anything is written, every netlist is run through the reference
interpreter: its own gate counts and ASAP depths must equal the recorded
resource lines, and sampled outputs must match ``reference.py``'s field
arithmetic. Nothing is written if any check fails.

ROADMAP fixes byte-identical netlists and ResourceEstimates, so the file
only needs recording again when a change is meant to alter them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from certify import certify, library_estimate, library_lines, summary_lines
from run import BENCH_DIR, job_estimates, run_round, sha256_file
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    expected: dict = {"seed": DEFAULT_SEED, "jobs": {}, "netlists": {}, "emitted": {}, "files": {}}
    problems: list[str] = []
    for workload in WORKLOADS.values():
        print(f"recording {workload.name}", flush=True)
        results = run_round(workload.name, DEFAULT_SEED, False, root, work)["results"]
        for job, res in zip(workload.jobs, results):
            if "error" in res:
                problems.append(f"{job.name}: {res['error']}")
                continue
            if job.bounds is not None:
                entry = {k: res[k] for k in ("passed", "report", "estimate")}
                if not res["passed"]:
                    problems.append(f"{job.name}: bound report does not pass")
            else:
                lines = [ln for ln in res["stdout"] if not ln.startswith("seed=")]
                entry = {"rc": res["rc"], "stdout": lines}
                if res["rc"] != 0 or (job.is_verify and "result=pass" not in lines):
                    problems.append(f"{job.name}: exit {res['rc']}, {lines}")
            expected["jobs"][job.name] = entry
        estimates = job_estimates(workload, results)
        if workload.netlist_file is not None:
            path = work / workload.netlist_file
            expected["files"][workload.netlist_file] = sha256_file(path)
            netlist = workload.jobs[0].netlist
            with open(path) as fh:
                found, run, digest = certify(netlist, fh, DEFAULT_SEED, depth=True)
            problems += found
            if summary_lines(run) != estimates[netlist.key]:
                problems.append(f"{netlist.key}: reference {summary_lines(run)} != {estimates[netlist.key]}")
            expected["netlists"][netlist.key] = estimates[netlist.key]
            expected["emitted"][netlist.key] = digest
            path.unlink()
        for job in workload.jobs:
            nl = job.netlist
            if nl is None or nl.key in expected["netlists"]:
                continue
            t = job.bounds[2] if job.bounds else None
            print(f"  certifying {nl.key}", flush=True)
            found, run, digest = certify(nl, library_lines(nl, t), DEFAULT_SEED, depth=True, t=t)
            problems += found
            # verify prints no resources: measure the library's netlist
            estimate = estimates[nl.key] if nl.key in estimates else library_estimate(nl, t)
            if summary_lines(run) != estimate:
                problems.append(f"{nl.key}: reference {summary_lines(run)} != {estimate}")
            expected["netlists"][nl.key] = estimate
            expected["emitted"][nl.key] = digest
    for msg in problems:
        print(f"FAIL {msg}")
    if problems:
        return 1
    (BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {BENCH_DIR / 'expected.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
