"""The benchmark's certifier still reads the library the way it expects.

``perfbench/certify.py`` builds each netlist it checks from
``cli.synth_circuit(...)``'s width, registers and flat ``gates`` (or from
``inverter_structure``/``inverter_gates``), runs the emitted text through
its own reference interpreter and compares the estimate with ``synth``'s
summary. A change to what ``synth_circuit`` returns would otherwise show
only as a failed correctness check in a benchmark round. This runs that
certifier on small netlists of every kind it certifies.
"""

import hashlib
import sys
from collections import deque
from pathlib import Path

import pytest

from gf2synth.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``certify`` and ``workloads`` modules."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import certify
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return certify, workloads


@pytest.mark.parametrize(
    "kind,rep,m,r",
    [
        ("mult", "gbb", 4, None),
        ("mult", "gnb", 5, None),
        ("selfmult", "gbb", 4, 2),
        ("selfmult", "gnb", 5, 1),
        ("invert", "gbb", 4, None),
        ("invert", "gnb", 5, None),
    ],
)
def test_library_netlist_certifies_and_matches_synth(bench, kind, rep, m, r, capsys, tmp_path):
    certify, workloads = bench
    netlist = workloads.Netlist(kind, rep, m, r)
    problems, _, digest = certify.certify(netlist, certify.library_lines(netlist), seed=1)
    assert problems == []
    estimate = certify.library_estimate(netlist)
    path = tmp_path / "netlist.qc"
    assert main(["synth", *netlist.cli_args(), "--out", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-len(estimate) - 1 :] == [f"out={path}", *estimate]
    # the file synth writes holds the lines the certifier checked
    written = hashlib.sha256()
    with open(path) as fh:
        deque(certify.lines_sha256(fh, written), 0)
    assert written.hexdigest() == digest
