"""Run sets of benchmark runs and judge their steadiness.

    python3 perfbench/sets.py --seeds 1-10 --out set_a.jsonl
    python3 perfbench/sets.py --summarize set_b.jsonl --compare set_a.jsonl

Run from the root of a checkout. Runs go one at a time, interleaving the
workloads seed by seed, so drift of the host spreads over all of them.
Each result line is appended to ``--out`` as it arrives. The summary gives,
per workload and end-to-end metric, the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median
against a third of the metric's bound in BENCHMARK.json, and with
``--compare`` how far the median moved from another set, against the
bound, in the metric's worse direction. Take sets at separate times: drift
between sets is what a later change is compared across.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values_of(rows: list[dict], workload: str, metric: str) -> list[float]:
    return [r["result"]["metrics"][metric]["value"] for r in rows if r["workload"] == workload]


def summarize(rows: list[dict], config: dict, baseline: list[dict] | None) -> bool:
    steady = True
    workloads = sorted({r["workload"] for r in rows})
    print(f"{'workload':<15} {'metric':<14} {'n':>2} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound/3':>7}" + ("  vs-base" if baseline else ""))
    for w in workloads:
        for m in config["end_to_end"]:
            vals = values_of(rows, w, m["name"])
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            ok = spread < m["bound"] / 3
            steady &= ok
            line = (f"{w:<15} {m['name']:<14} {len(vals):>2} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                    f"{spread:>7.2%} {m['bound'] / 3:>7.2%}{'' if ok else ' WIDE'}")
            if baseline:
                base = values_of(baseline, w, m["name"])
                if base:
                    bmed = statistics.median(base)
                    worse = (med - bmed) / bmed if m["better"] == "lower" else (bmed - med) / bmed
                    within = worse <= m["bound"]
                    steady &= within
                    line += f"  {worse:+.2%}{'' if within else ' WORSE'}"
            print(line)
    failed = [r for r in rows if not r["result"].get("correct")]
    print(f"{len(rows)} runs, {len(failed)} not correct")
    return steady and not failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--out", help="append result lines here")
    ap.add_argument("--summarize", help="summarize this result file instead of running")
    ap.add_argument("--compare", help="baseline result file")
    args = ap.parse_args()
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    if args.summarize:
        rows = load(args.summarize)
    else:
        if not (args.seeds and args.out):
            ap.error("--seeds and --out are needed to run a set")
        names = [w["name"] for w in config["workloads"]]
        rows = []
        for seed in parse_seeds(args.seeds):
            for name in names:
                cmd = [*config["command"], "--workload", name, "--seed", str(seed),
                       "--seconds", str(config["run_seconds"]), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    return 1
                row = {"workload": name, "seed": seed, "result": json.loads(lines[-1])}
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(row) + "\n")
                rows.append(row)
                wall = row["result"]["metrics"]["wall_s"]["value"]
                print(f"{name} seed {seed}: wall_s {wall:.3f}", flush=True)
    baseline = load(args.compare) if args.compare else None
    return 0 if summarize(rows, config, baseline) else 1


if __name__ == "__main__":
    sys.exit(main())
