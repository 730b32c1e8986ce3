"""Certify netlists with the independent reference, and count them.

``certify`` runs netlist text through ``reference.run_netlist`` on sampled
inputs and checks every output against ``reference.GnbRef``/``GhostRef``:
the function of the output register, the preserved inputs and, for
inverters, every ancilla back at zero. It also returns the gate counts and
(on request) the depths that the interpreter measured on its own, and the
sha256 of the netlist's lines without comments (``lines_sha256``), which is
the same for a written file and for the lines ``library_lines`` streams.

``library_netlist``, ``library_lines`` and ``library_estimate`` produce a
netlist, its text and its ``ResourceEstimate`` through gf2synth's public
API, the way the CLI does.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Iterator

from reference import GhostRef, GnbRef, NetlistRun, pack, run_netlist, unpack
from workloads import Netlist


def reference_for(netlist: Netlist, t=None):
    """Reference arithmetic; for gnb the smallest type the reference accepts."""
    if netlist.rep == "gbb":
        return GhostRef(netlist.m)
    for cand in [t] if t else range(1, 31):
        try:
            return GnbRef(netlist.m, cand)
        except ValueError:
            continue
    raise ValueError(f"no normal basis of type <= 30 for m={netlist.m}")


def summary_lines(run: NetlistRun) -> list[str]:
    return [f"{k}={v}" for k, v in run.summary().items()]


def lines_sha256(lines: Iterable[str], digest) -> Iterator[str]:
    """Pass lines through, adding each non-comment line (with one newline) to ``digest``."""
    for line in lines:
        line = line.rstrip("\n")
        if not line.startswith("#"):
            digest.update(line.encode())
            digest.update(b"\n")
        yield line


def certify(
    netlist: Netlist,
    lines: Iterable[str],
    seed: int,
    samples: int = 16,
    depth: bool = False,
    t=None,
) -> tuple[list[str], NetlistRun, str]:
    """Problems found (empty when certified), the interpreter's run and the lines' sha256."""
    digest = hashlib.sha256()
    problems, run = _certify(netlist, lines_sha256(lines, digest), seed, samples, depth, t)
    return problems, run, digest.hexdigest()


def _certify(netlist, lines, seed, samples, depth, t):
    ref = reference_for(netlist, t)
    m = netlist.m
    w = m + 1 if netlist.rep == "gbb" else m
    rng = random.Random(f"{seed}:certify:{netlist.key}")
    problems: list[str] = []

    if netlist.kind == "invert":
        values = [0, 1] + [rng.getrandbits(m) for _ in range(samples - 2)]
        holder: dict[str, tuple[int, int]] = {}

        def preset(registers):
            holder.update(registers)
            start, _ = registers["input"]
            return {start + i: word for i, word in enumerate(pack(values, w))}

        run = run_netlist(lines, preset, depth=depth)
        in_start, _ = holder["input"]
        out_start, _ = holder["output"]
        if unpack(run.wires(in_start, w), len(values)) != values:
            problems.append(f"{netlist.key}: input register modified")
        for name, (start, length) in holder.items():
            if name not in ("input", "output") and any(run.wires(start, length)):
                problems.append(f"{netlist.key}: register {name} not returned to zero")
        outs = unpack(run.wires(out_start, w), len(values))
        for v, out in zip(values, outs):
            if not ref.is_inverse(v, out):
                problems.append(f"{netlist.key}: input {v:#x} gave {out:#x}, not its inverse")
                break
        return problems, run

    n_in = 2 if netlist.kind == "mult" else 1
    operands = [[rng.getrandbits(w) for _ in range(samples)] for _ in range(n_in)]

    def preset(registers):
        words = {}
        for k, vals in enumerate(operands):
            words.update({k * w + i: word for i, word in enumerate(pack(vals, w))})
        return words

    run = run_netlist(lines, preset, depth=depth)
    for k, vals in enumerate(operands):
        if unpack(run.wires(k * w, w), samples) != vals:
            problems.append(f"{netlist.key}: operand register {k} modified")
    outs = unpack(run.wires(n_in * w, w), samples)
    for b, out in enumerate(outs):
        a = operands[0][b]
        exp = ref.mult(a, operands[1][b]) if n_in == 2 else ref.self_mult(a, netlist.r)
        if out != exp:
            problems.append(f"{netlist.key}: inputs #{b} gave {out:#x}, expected {exp:#x}")
            break
    return problems, run


def _spec(netlist: Netlist, t=None):
    from gf2synth import FieldSpec

    if netlist.rep == "gbb":
        return FieldSpec.ghost_bit(netlist.m)
    return FieldSpec.gnb(netlist.m, t=t)


def library_netlist(netlist: Netlist, t=None):
    """(width, registers, gates) of this circuit as the CLI builds it; inverter gates are streamed."""
    from gf2synth import inverter_gates, inverter_structure
    from gf2synth.cli import synth_circuit

    spec = _spec(netlist, t)
    if netlist.kind == "invert":
        s = inverter_structure(spec)
        return s.width, s.registers, inverter_gates(spec)
    c = synth_circuit(spec, netlist.kind, r=netlist.r)
    return c.width, c.registers, c.gates


def library_lines(netlist: Netlist, t=None) -> Iterable[str]:
    """The netlist text gf2synth emits for this circuit, streamed."""
    from gf2synth import emit_lines

    width, registers, gates = library_netlist(netlist, t)
    return emit_lines(width, registers, gates)


def library_estimate(netlist: Netlist, t=None) -> list[str]:
    """``ResourceEstimate.summary_lines`` for this circuit, as ``synth`` prints them."""
    from gf2synth import measure_stream

    width, _, gates = library_netlist(netlist, t)
    return measure_stream(width, gates).summary_lines()
