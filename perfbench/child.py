"""One fresh interpreter: a set-up probe, or one round of a workload's jobs.

    python3 child.py setup <workload>
    python3 child.py round <workload> <seed> <trace 0|1>

The parent starts it with the checkout's ``src`` on PYTHONPATH, a fixed
PYTHONHASHSEED and the work directory as its current directory. Set-up is
``import gf2synth`` plus building the workload's FieldSpecs (parameter
search and ``validate_gnb_params``). A probe prints ``ready`` once set-up
is done and exits; a round then times each job, in wall and in reference
seconds (see ``hostspeed.py``), and prints one JSON object (job outputs,
per-job seconds and, when traced, the spans) as its last line.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

from hostspeed import Sampler
from workloads import WORKLOADS


def build_specs(workload):
    from gf2synth import FieldSpec

    specs = {}
    for rep, m, t in workload.specs:
        specs[(rep, m, t)] = FieldSpec.ghost_bit(m) if rep == "gbb" else FieldSpec.gnb(m, t=t)
    return specs


def run_job(job, specs, seed):
    """Run one job; the result holds what the parent checks against."""
    try:
        return _run_job(job, specs, seed)
    except Exception as e:  # reported as this job's failure; the round goes on
        return {"error": f"{type(e).__name__}: {e}"}


def _run_job(job, specs, seed):
    if job.bounds is not None:
        from gf2synth import check_bounds

        report = check_bounds(specs[job.bounds])
        return {
            "passed": report.passed,
            "report": report.format_lines(),
            "estimate": report.estimate.summary_lines(),
        }
    from gf2synth import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(job.command(seed))
    return {"rc": rc, "stdout": out.getvalue().splitlines(), "stderr": err.getvalue()}


def main(argv):
    mode, name = argv[0], argv[1]
    workload = WORKLOADS[name]
    if mode == "setup":
        import gf2synth  # noqa: F401

        build_specs(workload)
        print("ready", flush=True)
        return 0

    seed, traced = int(argv[2]), argv[3] == "1"
    import gf2synth  # noqa: F401

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    if tracer is not None:
        idx = tracer.open("bench.setup")
        specs = build_specs(workload)
        tracer.close(idx)
    else:
        specs = build_specs(workload)
    setup_wall = time.perf_counter() - t0

    results, intervals = [], []
    with Sampler(tracer) as sampler:
        for job in workload.jobs:
            t0 = time.perf_counter()
            if tracer is None:
                res = run_job(job, specs, seed)
            else:
                tracer.job = job.name
                idx = tracer.open("bench.job")
                try:
                    res = run_job(job, specs, seed)
                finally:
                    tracer.close(idx)
            intervals.append((t0, time.perf_counter()))
            results.append(res)
    seconds, ref_seconds = zip(*(sampler.reference_seconds(*iv) for iv in intervals))

    out = {
        "setup_wall": setup_wall,
        "seconds": seconds,
        "ref_seconds": ref_seconds,
        "results": results,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["raised_kb"] = tracer.raised_kb
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
