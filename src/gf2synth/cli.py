"""Command-line front end: parameter search, synthesis, verification, tables.

Commands
--------
* ``params``: report which representations a degree supports.
* ``synth {add|mult|selfmult|invert}``: emit a netlist and its resource
  summary as key=value lines. With ``--out`` the summary is measured from
  the file read back, so the printed numbers describe what was written.
  The inverter is streamed as column batches: each batch goes through the
  gate rule (``validated_batches``) into the file, one string per batch
  (or, without ``--out``, into ``measure_stream``) as it is generated, and
  the file is read back as a stream of batches, so neither the circuit nor
  the file is ever held whole.
* ``verify {add|mult|selfmult|invert}``: simulate a synthesized (or, with
  ``--in``, previously emitted) netlist against the classical field oracles,
  exhaustively or on seeded random samples. The simulator, ``run_packed``,
  takes column batches only: ``--in`` streams the file's batches from
  ``read_netlist``; without it mult and selfmult simulate the multiplier
  cores' batches, and add and invert their flat gates cut by ``gate_runs``.
* ``table``: measured depth/gates next to the closed-form bounds for a list
  of degrees, plus the asymptotic comparison against a polynomial basis.

Field oracles, inverse checks and bounds come from the spec's
representation object (``spec.rep``), so the commands never branch on the
representation; ``synth_circuit`` is the one place that maps add, mult
and selfmult onto the per-representation synthesizers. ``verify_kind`` is
a single path driven by a per-kind table row: input bits, kept wires,
ancilla spans that must return to zero, output span, and the check with
its counterexample text.

Exit codes: 0 success / verification passed, 1 verification failed,
2 domain error (unsupported degree, bad parameters, bad usage) or out of
memory, 3 I/O or netlist parse failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .circuits import (  # noqa: F401  (parse is kept for the benchmark tracer)
    Batch,
    Circuit,
    Gate,
    Netlist,
    emit_lines,
    gate_runs,
    measure_stream,
    pack_patterns,
    parse,
    read_netlist,
    register_value,
    resources,
    run_packed,
    validated_batches,
    validated_registers,
)
from .errors import ParseError, WidthMismatch
from .fields import (
    FieldSpec,
    Representation,
    check_ghost_bit_support,
    find_gnb_type,
    make_gnb_params,
)
from .inverters import (  # noqa: F401  (synth_inverter is kept for the benchmark tracer)
    inverter_batches,
    inverter_gates,
    inverter_structure,
    synth_inverter,
)
from .multipliers import (
    mult_batches,
    self_mult_batches,
    synth_add,
    synth_gbb_mult,
    synth_gbb_self_mult,
    synth_gnb_mult,
    synth_gnb_self_mult,
)

DEFAULT_SEED = 0xB10F
DEFAULT_SAMPLES = 100
EXHAUSTIVE_CAP = 1 << 20

KINDS = ("add", "mult", "selfmult", "invert")


# ---------------------------------------------------------------------------
# verification engine


@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    tested: int
    mode: str  # "exhaustive" | "random"
    seed: Optional[int]
    counterexample: Optional[str] = None


def _exhaustive_wire_pattern(bit: int, count: int) -> int:
    """Packed value of pattern-bit ``bit`` across patterns 0..count-1."""
    half = 1 << bit
    block = ((1 << half) - 1) << half  # one period: half zeros then half ones
    span = half << 1
    while span < count:
        block |= block << span
        span <<= 1
    return block & ((1 << count) - 1)


def _pack_patterns(
    width: int, input_wires: list[int], patterns: Optional[list[int]], nbits: int
) -> tuple[list[int], int]:
    """Bit-sliced state for a batch: wire input_wires[i] carries pattern bit i.

    ``patterns=None`` means all 2^nbits patterns in order.
    """
    if patterns is not None:
        return pack_patterns(width, input_wires, patterns), len(patterns)
    count = 1 << nbits
    state = [0] * width
    for i, wire in enumerate(input_wires):
        state[wire] = _exhaustive_wire_pattern(i, count)
    return state, count


def _bitstr(v: int, n: int) -> str:
    return "".join(str((v >> i) & 1) for i in range(n))


@dataclass(frozen=True)
class _Row:
    """One row of the verification table; spans are (start, length)."""

    nbits: int  # simulated input bits, on wires 0..nbits-1
    width: int  # wires the circuit must have
    name: str  # what a width mismatch calls the circuit
    batches: Callable[[], Iterable[Batch]]  # the synthesized gates, if no netlist is given
    kept: tuple[int, int]  # span that must come back unchanged
    kept_label: str  # how a counterexample names a wire of that span
    ancillas: tuple[tuple[int, int], ...]  # spans that must return to zero
    output: int  # first wire of the register-wide output
    check: Callable[[int, int], Optional[str]]  # (pattern, output) -> counterexample


def _register_check(w: int, n_in: int, expected: Callable[..., int]):
    """Check of a raw-register kind: the output equals ``expected`` of the
    n_in w-bit operands packed into the pattern."""
    mask = (1 << w) - 1

    def check(pat: int, got: int) -> Optional[str]:
        ops = [(pat >> (i * w)) & mask for i in range(n_in)]
        exp = expected(*ops)
        if got == exp:
            return None
        shown = " ".join(f"{name}={_bitstr(v, w)}" for name, v in zip("ab", ops))
        return f"{shown} got={_bitstr(got, w)} expected={_bitstr(exp, w)}"

    return check


def _verify_row(spec: FieldSpec, kind: str, r: Optional[int]) -> _Row:
    """The verification table, one row per kind. Every kind is checked on
    raw register patterns; an invert input may be either ghost-bit
    representative of its element."""
    rep, w = spec.rep, spec.width
    if kind == "invert":
        s = inverter_structure(spec)
        regs = s.registers
        ancillas = tuple(span for name, span in regs.items() if name not in ("input", "output"))

        def inverse(v: int, got: int) -> Optional[str]:
            if rep.inverse_ok(v, got):
                return None
            return f"input={_bitstr(v, w)} output={_bitstr(got, w)}"

        # inverter_gates, not inverter_batches: the benchmark tracer times generation there only
        return _Row(
            nbits=w, width=s.width, name="inverter",
            batches=lambda: gate_runs(inverter_gates(spec)),
            kept=regs["input"], kept_label="input wire", ancillas=ancillas,
            output=regs["output"][0], check=inverse,
        )
    # (operands, wires kept = first output wire, expected output, batches)
    n_in, out, expected, batches = {
        "add": (2, w, lambda a, b: a ^ b, lambda: gate_runs(synth_add(w).gates)),
        "mult": (2, 2 * w, rep.mult, lambda: mult_batches(rep, 0, w, 2 * w)),
        "selfmult": (
            1, w, lambda a: rep.mult(a, rep.frobenius(a, r)),
            lambda: self_mult_batches(rep, r, 0, w),
        ),
    }[kind]
    return _Row(
        nbits=n_in * w, width=out + w, name=kind, batches=batches,
        kept=(0, out), kept_label="wire", ancillas=(), output=out,
        check=_register_check(w, n_in, expected),
    )


def verify_kind(
    spec: FieldSpec,
    kind: str,
    *,
    r: Optional[int] = None,
    netlist: Optional[Netlist] = None,
    mode: str = "auto",
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> VerifyResult:
    """Check a netlist against the classical oracles.

    Inputs are raw register patterns (the convolution identities hold on
    every bit vector, embedded or not), so a ghost-bit inverter is also fed
    inputs whose ghost bit is 1. invert has three checks per input: the
    output register inverts the input (both retracted and compared by
    extended Euclid in the polynomial basis for ghost-bit,
    product-equals-identity for the normal basis), the input register is
    preserved, and every ancilla register returns to zero. Random mode
    draws 1 to 2^20 samples, the exhaustive cap.

    ``netlist`` (a ``read_netlist`` stream, or anything else with a width
    and column batches) is checked in place of the synthesized gates; its
    batches are drawn once, straight into the simulator. A netlist of the
    wrong width is read to its end before WidthMismatch is raised, so that
    a malformed line still raises its ParseError first.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown verification kind {kind!r}")
    if kind == "selfmult" and r is None:
        raise ValueError("selfmult verification needs the exponent r")
    if not 1 <= samples <= EXHAUSTIVE_CAP:
        raise ValueError(f"random mode draws 1 to 2^20 samples, got {samples}")
    row = _verify_row(spec, kind, r)
    nbits = row.nbits

    if mode == "auto":
        mode = "exhaustive" if (1 << nbits) <= EXHAUSTIVE_CAP else "random"
    if mode == "exhaustive" and (1 << nbits) > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive mode needs 2^{nbits} simulated inputs; the cap is 2^20"
        )
    if mode == "random":
        rng = random.Random(seed)
        patterns: Optional[list[int]] = [rng.getrandbits(nbits) for _ in range(samples)]
        used_seed: Optional[int] = seed
    else:
        patterns = None
        used_seed = None

    # The positional layout is part of the netlist contract, so verification
    # derives spans from the spec, not the file.
    if netlist is not None and netlist.width != row.width:
        deque(netlist.batches, 0)
        raise WidthMismatch(f"netlist has {netlist.width} wires, {row.name} needs {row.width}")
    batches = row.batches() if netlist is None else netlist.batches

    state, count = _pack_patterns(row.width, list(range(nbits)), patterns, nbits)
    kept_start, kept_length = row.kept
    before = state[kept_start : kept_start + kept_length]
    run_packed(batches, state)

    def fail(reason: str) -> VerifyResult:
        return VerifyResult(False, count, mode, used_seed, reason)

    for wire, value in enumerate(before, kept_start):
        if state[wire] != value:
            return fail(f"{row.kept_label} {wire} modified")
    for start, length in row.ancillas:
        for wire in range(start, start + length):
            if state[wire] != 0:
                return fail(f"ancilla wire {wire} not returned to zero")
    for b in range(count):
        pattern = b if patterns is None else patterns[b]
        problem = row.check(pattern, register_value(state, b, row.output, spec.width))
        if problem:
            return fail(problem)
    return VerifyResult(True, count, mode, used_seed)


# ---------------------------------------------------------------------------
# synthesis dispatch


def synth_circuit(spec: FieldSpec, kind: str, r: Optional[int] = None) -> Circuit:
    if kind == "add":
        return synth_add(spec.width)
    if kind == "mult":
        if spec.representation is Representation.GHOST_BIT:
            return synth_gbb_mult(spec.m)
        return synth_gnb_mult(spec.gnb_params)
    if kind == "selfmult":
        if r is None:
            raise ValueError("selfmult needs -r <exponent>")
        if spec.representation is Representation.GHOST_BIT:
            return synth_gbb_self_mult(spec.m, r)
        return synth_gnb_self_mult(spec.gnb_params, r)
    raise ValueError(f"unknown synthesis kind {kind!r}")


# ---------------------------------------------------------------------------
# command implementations


def _spec_from_args(args) -> FieldSpec:
    return FieldSpec.of(args.rep, args.m, t=args.t)


def _context_lines(spec: FieldSpec, kind: str, r: Optional[int]) -> list[str]:
    out = [f"command={kind}", f"rep={spec.representation.value}", f"m={spec.m}"]
    if spec.rep.t is not None:
        out.append(f"t={spec.rep.t}")
    if kind == "selfmult" and r is not None:
        out.append(f"r={r}")
    return out


def cmd_params(args) -> int:
    m = args.m
    lines = [f"m={m}"]
    ghost_ok = check_ghost_bit_support(m)
    gnb_params = None
    if args.rep != "gbb":
        try:
            gnb_params = make_gnb_params(m, args.t) if args.t is not None else find_gnb_type(m)
        except ValueError:
            gnb_params = None

    if args.rep in (None, "gbb"):
        lines.append(f"ghost_bit={'yes' if ghost_ok else 'no'}")
    if args.rep in (None, "gnb"):
        if gnb_params is not None:
            lines.append(f"gnb_type={gnb_params.t}")
            lines.append(f"gnb_p={gnb_params.p}")
            lines.append(f"gnb_u={gnb_params.u}")
        else:
            lines.append("gnb_type=none")

    available = (args.rep != "gnb" and ghost_ok) or (
        args.rep != "gbb" and gnb_params is not None
    )
    print("\n".join(lines))
    return 0 if available else 2


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    r = args.r
    if args.kind == "invert":
        s = inverter_structure(spec)
        width, registers = s.width, validated_registers(s.registers, s.width)
        gates: Iterable[Union[Batch, Gate]] = validated_batches(inverter_batches(spec), width)
    else:
        circuit = synth_circuit(spec, args.kind, r=r)
        width, registers, gates = circuit.width, circuit.registers, circuit.gates
    header = _context_lines(spec, args.kind, r)
    if args.out:
        with open(args.out, "w") as fh:
            for text in emit_lines(width, registers, gates, header):
                fh.write(text)
                fh.write("\n")
        with open(args.out) as fh:
            written = read_netlist(fh)
            est = measure_stream(written.width, written.batches)
        header.append(f"out={args.out}")
    else:
        est = measure_stream(width, gates)
    print("\n".join(header + est.summary_lines()))
    return 0


def cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    if args.exhaustive:
        mode = "exhaustive"
    elif args.random is not None:
        mode = "random"
    else:
        mode = "auto"
    samples = args.random if args.random is not None else DEFAULT_SAMPLES
    infile = getattr(args, "infile", None)
    # with --in, the file's gates are read as they are simulated
    with open(infile) if infile else nullcontext() as fh:
        result = verify_kind(
            spec,
            args.kind,
            r=args.r,
            netlist=None if fh is None else read_netlist(fh),
            mode=mode,
            samples=samples,
            seed=args.seed,
        )
    lines = _context_lines(spec, args.kind, args.r)
    lines.append(f"mode={result.mode}")
    lines.append(f"inputs={result.tested}")
    if result.seed is not None:
        lines.append(f"seed=0x{result.seed:X}")
    lines.append(f"result={'pass' if result.passed else 'fail'}")
    if result.counterexample:
        lines.append(f"counterexample={result.counterexample}")
    print("\n".join(lines))
    return 0 if result.passed else 1


def _table_rows_for(spec: FieldSpec) -> list[tuple]:
    """(op, depth, gates, depth_bound, gate_bound) rows for one spec."""
    w = spec.width
    add = resources(synth_add(w))
    mult = measure_stream(3 * w, mult_batches(spec.rep, 0, w, 2 * w))
    inv = measure_stream(inverter_structure(spec).width, inverter_batches(spec))
    inv_bound = spec.rep.inverter_bounds()
    return [
        ("add", add.depth, add.gate_count, 1, w),
        ("mult", mult.depth, mult.gate_count, *spec.rep.mult_bounds()),
        ("invert", inv.depth, inv.gate_count, inv_bound.depth_bound, inv_bound.gate_bound),
    ]


def cmd_table(args) -> int:
    degrees = args.m
    header = f"{'m':>5} {'rep':>4} {'op':>8} {'depth':>9} {'gates':>10} {'depth<=':>9} {'gates<=':>10}"
    print(header)
    print("-" * len(header))
    printed = 0
    for m in degrees:
        for rep in Representation:
            if m < 3 or args.rep not in (None, rep.value):
                continue
            try:
                spec = FieldSpec.of(rep, m)
            except ValueError:  # m does not admit this representation
                continue
            for op, d, gc, db, gb in _table_rows_for(spec):
                print(f"{m:>5} {rep.value:>4} {op:>8} {d:>9} {gc:>10} {db:>9} {gb:>10}")
                printed += 1
    print()
    print("asymptotics: representation | add depth/gates | mult | invert")
    print("  polynomial basis | O(1) / O(m) | O(m) / O(m^2) | O(m^2) / O(m^3), extended Euclid")
    print("  ghost-bit        | O(1) / O(m) | O(m) / O(m^2) | O(m log m) / O(m^2 log m)")
    print("  normal basis     | O(1) / O(m) | O(m) / O(m^2) | O(m log m) / O(m^2 log m)")
    if printed == 0:
        raise ValueError("no supported representation for the requested degrees")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, need_rep: bool) -> None:
    p.add_argument("-m", type=int, required=True, help="field degree")
    p.add_argument(
        "--rep",
        choices=("gbb", "gnb"),
        required=need_rep,
        help="representation: gbb (ghost-bit) or gnb (Gaussian normal basis)",
    )
    p.add_argument("-t", type=int, default=None, help="normal-basis type override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gf2synth",
        description="Synthesize and verify binary-field arithmetic circuits.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="report available representations for a degree")
    _add_common(p, need_rep=False)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("synth", help="emit a netlist and its resource summary")
    p.add_argument("kind", choices=KINDS)
    _add_common(p, need_rep=True)
    p.add_argument("-r", type=int, default=None, help="self-power exponent")
    p.add_argument("--out", default=None, help="write the netlist to this path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a netlist against the field oracles")
    p.add_argument("kind", choices=KINDS)
    _add_common(p, need_rep=True)
    p.add_argument("-r", type=int, default=None, help="self-power exponent")
    p.add_argument("--in", dest="infile", default=None, help="verify this netlist file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", help="enumerate all inputs")
    mode.add_argument("--random", type=int, default=None, metavar="N", help="sample N inputs")
    p.add_argument(
        "--seed",
        type=lambda s: int(s, 0),
        default=DEFAULT_SEED,
        help="PRNG seed for random mode (default 0xB10F)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", help="resource table for a list of degrees")
    p.add_argument(
        "-m",
        type=lambda s: [int(x) for x in s.split(",") if x],
        required=True,
        help="comma-separated degrees",
    )
    p.add_argument("--rep", choices=("gbb", "gnb"), default=None)
    p.set_defaults(func=cmd_table)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (the circuit is too large for this host)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
