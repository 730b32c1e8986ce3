"""The benchmark's workloads: fixed job lists over the public gf2synth API.

A job is either a command line handed to ``gf2synth.cli.main`` or a call of
``gf2synth.check_bounds`` on a spec built during set-up. Every job names the
netlist it produces or checks, so that the benchmark can sum resource
counts over a workload's distinct netlists and certify them independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 1

# A field spec as (rep, m, t); t is None for the ghost-bit representation or
# to let the parameter search pick the smallest normal-basis type.
Spec = tuple[str, int, Optional[int]]


@dataclass(frozen=True)
class Netlist:
    """A circuit the CLI can synthesize: kind, representation, degree, r."""

    kind: str
    rep: str
    m: int
    r: Optional[int] = None

    @property
    def key(self) -> str:
        return f"{self.kind}_{self.rep}{self.m}" + (f"_r{self.r}" if self.r else "")

    def cli_args(self) -> list[str]:
        args = [self.kind, "-m", str(self.m), "--rep", self.rep]
        return args + (["-r", str(self.r)] if self.r else [])


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...] = ()  # gf2synth.cli.main arguments; "{seed}" is filled in
    netlist: Optional[Netlist] = None  # the circuit the job synthesizes or checks
    bounds: Optional[Spec] = None  # check_bounds(spec) instead of a command

    @property
    def is_verify(self) -> bool:
        return self.argv[:1] == ("verify",)

    def command(self, seed: int) -> list[str]:
        return [a.replace("{seed}", hex(verify_seed(seed, self.name))) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple[Spec, ...]  # built during set-up
    jobs: tuple[Job, ...]
    netlist_file: Optional[str] = None  # written by a job, relative to the work dir


def verify_seed(seed: int, job_name: str) -> int:
    """The --seed a verify job receives, derived from the workload seed."""
    return random.Random(f"{seed}:{job_name}").getrandbits(32)


def _verify(netlist: Netlist, samples: int) -> Job:
    argv = ("verify", *netlist.cli_args(), "--random", str(samples), "--seed", "{seed}")
    return Job(f"verify_{netlist.key}", argv, netlist)


INV163 = Netlist("invert", "gnb", 163)
NETLIST_FILE = "inv163_gnb.qc"

# The streamed verify jobs sample 1000 inputs each, so the field oracles and
# the wide bit-sliced simulation dominate their time.
ORACLE_SAMPLES = 1000

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nist_roundtrip",
            why="synth invert --out then verify --in at m=163: materialize, validate, emit, "
            "write and re-parse a 1.8M-gate netlist; peak RSS lives here",
            specs=(("gnb", 163, None),),
            jobs=(
                Job("synth_" + INV163.key, ("synth", *INV163.cli_args(), "--out", NETLIST_FILE), INV163),
                Job(
                    "verify_in_" + INV163.key,
                    ("verify", *INV163.cli_args(), "--in", NETLIST_FILE,
                     "--random", "100", "--seed", "{seed}"),
                    INV163,
                ),
            ),
            netlist_file=NETLIST_FILE,
        ),
        Workload(
            name="oracle_verify",
            why="streamed verify with 1000 random inputs per netlist: field oracles, wide "
            "bit-sliced simulation and the CLI packers do most of the work; nothing is parsed",
            specs=(("gnb", 409, None), ("gnb", 233, None), ("gnb", 163, None), ("gbb", 178, None)),
            jobs=(
                _verify(Netlist("mult", "gnb", 409), ORACLE_SAMPLES),
                _verify(Netlist("selfmult", "gnb", 233, r=3), ORACLE_SAMPLES),
                _verify(INV163, ORACLE_SAMPLES),
                _verify(Netlist("mult", "gbb", 178), ORACLE_SAMPLES),
                _verify(Netlist("invert", "gbb", 178), ORACLE_SAMPLES),
            ),
        ),
        Workload(
            name="bounds_sweep",
            why="check_bounds and table: constant-memory generate then measure_stream in both "
            "representations; nothing is materialized, parsed or simulated",
            specs=(("gnb", 233, 2), ("gnb", 409, 4), ("gbb", 178, None), ("gbb", 226, None)),
            jobs=(
                Job("bounds_gnb233", netlist=Netlist("invert", "gnb", 233), bounds=("gnb", 233, 2)),
                Job("bounds_gnb409", netlist=Netlist("invert", "gnb", 409), bounds=("gnb", 409, 4)),
                Job("bounds_gbb178", netlist=Netlist("invert", "gbb", 178), bounds=("gbb", 178, None)),
                Job("bounds_gbb226", netlist=Netlist("invert", "gbb", 226), bounds=("gbb", 226, None)),
                Job("table", ("table", "-m", "4,5,7,10,163")),
            ),
        ),
    )
}

