"""Command-line front end: parameter search, synthesis, verification, tables.

Commands
--------
* ``params``: report which representations a degree supports.
* ``synth {add|mult|selfmult|invert}``: emit a netlist and its resource
  summary as key=value lines. With ``--out``, ``synth_circuit``'s column
  batches (each block's ``multipliers.block_batches``) go through the gate
  rule (``validated_batches``) into the file, one string per batch, never
  held whole. An inverter's uncompute is not generated when the file is a
  regular one that reads back (``_read_back``): its lines are the head's
  lines reversed, copied from the file (``_write_mirrored``). Any other
  output generates it. If a gate is refused, or the write or the read-back
  fails, the file is removed (a regular file only), so no partial netlist
  is left to verify. The summary is ``kind_estimate``, which ``table``
  prints too: ``measure_stream`` for add, and for every other kind
  ``chain_estimate`` of its block chain, from the forward pass only (so
  without ``--out`` the inverter's uncompute is never generated, and no
  stage of a product, which is in closed form).
* ``verify {add|mult|selfmult|invert}``: check a synthesized (or, with
  ``--in``, previously emitted) netlist against the classical field oracles,
  exhaustively or on seeded random samples (``--seed`` is non-negative).
  The route is pack, run, packed oracle, XOR: every pattern is packed into
  one bit-sliced state and simulated in one pass, and the output wires are
  XORed with the packed oracle's wires for the same patterns, so a pass
  reads nothing back. With ``--in``, ``run_packed`` simulates the file's
  batches as ``read_netlist`` streams them, and without it the add
  batches ``synth_circuit`` gives; every other kind is a block chain, which
  ``inverters.chain_simulate`` runs block by block, each on its window of
  the packed state (``multipliers.block_window``; a self-power block as
  ``run_packed`` over the spec's index columns, which address the window
  as they stand), restoring each uncompute block from its forward run
  while its window matches it, and leaving the state as ``run_packed``
  over the stream ``synth`` writes would.
* ``table``: measured depth/gates next to the closed-form bounds for a list
  of degrees, plus the asymptotic comparison against a polynomial basis.
  Each row is ``kind_estimate``, what ``synth`` prints; the invert row
  equals measuring every gate ``synth invert`` writes.

Field oracles, inverse checks and bounds come from the field spec, a
``GhostBit`` or a ``Gnb``, so the commands never branch on the
representation. ``synth_circuit`` is the kind table: for each kind it gives
the width, the register map and the column batches, which ``synth`` and
``verify`` draw every kind from, and ``table`` its add and mult rows.
Every kind but add is a block chain (``inverters.kind_structure``, where
the layouts are written).
``verify_kind`` lays every kind out from that register map: the ``input``
registers are packed from wire 0, the last register is the output, and
every other wire must come back as it was packed. So what ``synth`` writes
is what ``verify`` checks. A per-kind row adds only the oracles, and takes
its operands from the register map too (each ``input`` register's span):
the packed check on every pattern's operand wires, and the same check on
one pattern's operands, which words the counterexample of the first
failing pattern.

Every command refuses a degree above ``fields.MAX_DEGREE`` before any
parameter search is run. ``synth``, ``verify`` and ``table`` refuse a kind
whose closed-form gate count (the gate half of ``kind_bounds``) is above
``MAX_GATES``, the generation budget, before any stage is drawn. ``verify``
also refuses a run whose pattern count times that gate count is above
``MAX_GATE_PATTERNS``, the verification budget, or whose pattern count
times input bits is above ``MAX_PATTERN_BITS``, the pattern budget, before
any pattern is drawn. ``table`` also refuses a list whose rows' gate counts
sum to more than ``MAX_TABLE_GATES``, the table budget, before any row is
printed. The four budgets are one check, ``_budget``, and one message
shape: what the command would do, then the budget's name and cap.

Exit codes: 0 success / verification passed, 1 verification failed,
2 domain error (unsupported degree, bad parameters, bad usage) or out of
memory, 3 I/O or netlist parse failure. ``verify --in`` reads its file as
UTF-8 with bad bytes replaced (U+FFFD), so a byte that is not UTF-8 is a
parse failure at its line, exit 3, or ignored inside a comment.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import deque
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from functools import partial, reduce
from itertools import chain, islice
from operator import or_, xor
from stat import S_ISREG
from typing import Callable, Iterable, Optional

from .circuits import parse  # noqa: F401  (kept for the benchmark tracer)
from .circuits import (
    Netlist,
    ResourceEstimate,
    emit_lines,
    gate_runs,
    measure_stream,
    pack_patterns,
    read_netlist,
    register_values,
    reversed_lines,
    run_packed,
    validated_batches,
    validated_registers,
)
from .errors import ParseError, UnsupportedDegree, WidthMismatch
from .fields import MAX_DEGREE, FieldSpec, Representation, check_ghost_bit_support
from .inverters import (
    BlockChain, blocks_batches, chain_batches, chain_estimate, chain_simulate, kind_structure,
)
from .inverters import (  # kept for the benchmark tracer
    synth_gbb_mult,  # noqa: F401
    synth_gbb_self_mult,  # noqa: F401
    synth_gnb_mult,  # noqa: F401
    synth_gnb_self_mult,  # noqa: F401
    synth_inverter,  # noqa: F401
)
from .multipliers import synth_add

DEFAULT_SEED = 0xB10F
DEFAULT_SAMPLES = 100
EXHAUSTIVE_CAP = 1 << 20

# The generation budget: the largest closed-form gate count (``kind_bounds``)
# of a kind that ``synth``, ``verify`` and ``table`` generate or measure. The
# largest NIST degree, the gnb 571 inverter, bounds 84,755,814 gates, and its
# estimate draws about half of them. Above the budget a kind is refused
# before any stage is drawn: gnb 9973's inverter bounds 4.77e10 gates, which
# at about 100 ns a gate would be more than an hour of generation.
MAX_GATES = 100_000_000

# The verification budget: the largest count of patterns times the gate
# bound that ``verify`` simulates. Streamed simulation costs about 12 ps per
# gate and pattern by that count (the gnb 163 inverter on 65,536 samples,
# 1.25e11, took 1.4-1.8 s and 34.1-35.1 MiB on a 2-vCPU x86 host), and
# ``--in`` about 27 ps (3.4 s on the same netlist read from its file, every
# gate simulated), so the budget is at most about half a minute. Above it a
# run is refused before any pattern is drawn or packed: the gnb 409 inverter
# on 2^20 samples, 1.54e13, would be minutes on a 613 MiB packed state.
MAX_GATE_PATTERNS = 10**12

# The pattern budget: the largest count of patterns times input bits that
# ``verify`` draws and packs, whatever the gate count. Drawing and packing
# cost about 1.2 bytes and 25 ns per input bit: ``verify add -m 9973 --rep
# gnb`` (19,946 input bits) at the cap, 5,013 samples, took 2.0-2.6 s and
# 140 MB peak RSS on a 2-vCPU x86 host, where 2^20 samples would need about
# 24 GB. The gnb 163 inverter on 65,536 samples is 1.07e7 input bits.
MAX_PATTERN_BITS = 10**8

# The table budget: the largest sum of the add, mult and invert gate bounds
# (``kind_bounds``) over a ``table``'s rows. The five NIST degrees sum to
# 118,734,922 gates, 8.8e7 of it gnb 571, and take about 10 s. Above the
# budget a table is refused before any row is printed: twenty specs that
# each pass the generation budget, those of m = 1000..1099, sum to 1.19e9.
MAX_TABLE_GATES = 4 * 10**8

KINDS = ("add", "mult", "selfmult", "invert")
MODES = ("auto", "exhaustive", "random")


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


def _pack_patterns(width: int, patterns: Optional[list[int]], nbits: int) -> tuple[list[int], int]:
    """Bit-sliced state for a batch: wire i carries pattern bit i, i < nbits.

    ``patterns=None`` means all 2^nbits patterns in order.
    """
    if patterns is not None:
        return pack_patterns(width, range(nbits), patterns), len(patterns)
    count = 1 << nbits
    state = [0] * width
    for i in range(nbits):
        state[i] = _exhaustive_wire_pattern(i, count)
    return state, count


def _bitstr(v: int, n: int) -> str:
    return "".join(str((v >> i) & 1) for i in range(n))


@dataclass(frozen=True)
class _Row:
    """The oracle half of one kind's verification; the layout comes from
    the kind's register map in ``synth_circuit``.

    ``misses`` gets the packed operands (each an ``input`` register's wires,
    as packed, before the gates ran) and the packed output register, and
    returns an int whose lowest set bit is the first pattern that fails (0
    if none does). ``check`` is the same check on one pattern's operands and
    its output, and words the counterexample.
    """

    name: str  # what a width mismatch calls the circuit
    kept_label: str  # how a counterexample names a kept input wire
    misses: Callable[[list[list[int]], list[int]], int]  # (operands, outputs)
    check: Callable[[list[int], int], Optional[str]]  # (operands, output) -> counterexample


def _verify_row(spec: FieldSpec, kind: str, r: Optional[int]) -> _Row:
    """The oracles of one kind, on its operands as raw register patterns;
    an invert input may be either ghost-bit representative of its element."""
    w = spec.width
    if kind == "invert":

        def inverse(ops: list[int], got: int) -> Optional[str]:
            (v,) = ops
            if spec.inverse_ok(v, got):
                return None
            return f"input={_bitstr(v, w)} output={_bitstr(got, w)}"

        misses = lambda ops, outputs: spec.packed_inverse_misses(*ops, outputs)  # noqa: E731
        return _Row("inverter", "input wire", misses, inverse)
    # (expected output, packed expected output)
    expected, packed = {
        "add": (lambda a, b: a ^ b, partial(map, xor)),
        "mult": (spec.mult, spec.packed_mult),
        "selfmult": (
            lambda a: spec.mult(a, spec.frobenius(a, r)),
            lambda a: spec.packed_mult(a, spec.packed_frobenius(a, r)),
        ),
    }[kind]

    def misses(ops: list[list[int]], outputs: list[int]) -> int:
        return reduce(or_, map(xor, packed(*ops), outputs), 0)

    def check(ops: list[int], got: int) -> Optional[str]:
        exp = expected(*ops)
        if got == exp:
            return None
        shown = " ".join(f"{name}={_bitstr(v, w)}" for name, v in zip("ab", ops))
        return f"{shown} got={_bitstr(got, w)} expected={_bitstr(exp, w)}"

    return _Row(kind, "wire", misses, check)


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

    The layout is the register map of ``synth_circuit(spec, kind, r)``, so
    what ``synth`` writes is what is checked, and an unknown kind or a
    missing, stray or out-of-range exponent is refused there, before a
    pattern is drawn (a netlist file does not carry its exponent). The
    ``input`` registers are packed from wire 0 and are the operands, the
    last register is the output, and every wire outside it must come back
    as it was packed: an input wire unchanged, any other wire zero.

    Inputs are raw register patterns (the convolution identities hold on
    every bit vector, embedded or not), so a ghost-bit inverter is also fed
    inputs whose ghost bit is 1; its output must invert the input on either
    ghost-bit representative (product-equals-identity). ``mode`` is auto,
    exhaustive or random; random mode draws 1 to 2^20 samples, the
    exhaustive cap, from a non-negative seed. A run whose pattern count
    times the gate bound is above MAX_GATE_PATTERNS, or times the input
    bits above MAX_PATTERN_BITS, is refused before a pattern is drawn.

    All patterns are packed, simulated in one bit-sliced pass and checked
    at once. The pass is ``run_packed`` over the netlist's batches, or over
    add's; a generated block chain runs on windows of the state
    (``inverters.chain_simulate``), to the same state. Then every wire
    outside the output is checked first, and the output against the
    representation's packed oracle, whose lowest differing bit is the
    first failing pattern. Only that pattern is read back, and its
    counterexample comes from the per-pattern oracle (for the ghost-bit
    inverse, extended Euclid in the polynomial basis), which must agree.

    ``netlist`` (a ``read_netlist`` stream, or anything else with a width
    and column batches) is checked in place of the synthesized gates; its
    batches are drawn once, straight into the simulator. A netlist of the
    wrong width is read to its end before WidthMismatch is raised, so that
    a malformed line still raises its ParseError first.
    """
    if mode not in MODES:
        raise ValueError(f"unknown verification mode {mode!r}; use {'|'.join(MODES)}")
    width, registers, batches = synth_circuit(spec, kind, r)
    if mode != "exhaustive" and not 1 <= samples <= EXHAUSTIVE_CAP:
        raise ValueError(f"random mode draws 1 to 2^20 samples, got {samples}")
    operands = [span for name, span in registers.items() if name.startswith("input")]
    nbits = sum(length for _, length in operands)
    *_, (out, w) = registers.values()
    row = _verify_row(spec, kind, r)

    if mode == "auto":
        mode = "exhaustive" if (1 << nbits) <= EXHAUSTIVE_CAP else "random"
    if mode == "exhaustive" and (1 << nbits) > EXHAUSTIVE_CAP:
        raise ValueError(
            f"exhaustive mode needs 2^{nbits} simulated inputs; the cap is 2^20"
        )
    drawn = samples if mode == "random" else 1 << nbits
    what = f"verifying {kind} at m={spec.m} ({spec.representation.value}) would"
    cost = drawn * kind_bounds(spec, kind)[1]
    _budget(cost, MAX_GATE_PATTERNS, "verification", f"{what} simulate {cost} gate-patterns")
    _budget(drawn * nbits, MAX_PATTERN_BITS, "pattern", f"{what} draw and pack {drawn * nbits} input bits")
    if mode == "random":
        if seed < 0:
            raise ValueError(f"the seed must be non-negative, got {seed}")
        rng = random.Random(seed)
        patterns: Optional[list[int]] = [rng.getrandbits(nbits) for _ in range(samples)]
        used_seed: Optional[int] = seed
    else:
        patterns = None
        used_seed = None

    if netlist is not None:
        if netlist.width != width:
            deque(netlist.batches, 0)
            raise WidthMismatch(f"netlist has {netlist.width} wires, {row.name} needs {width}")
        batches = netlist.batches

    state, count = _pack_patterns(width, patterns, nbits)
    inputs = state[:nbits]
    if netlist is None and kind != "add":
        chain_simulate(spec, kind_structure(spec, kind, r), state)
    else:
        run_packed(batches, state)

    def fail(reason: str) -> VerifyResult:
        return VerifyResult(False, count, mode, used_seed, reason)

    for wire in chain(range(out), range(out + w, width)):
        if wire < nbits:
            if state[wire] != inputs[wire]:
                return fail(f"{row.kept_label} {wire} modified")
        elif state[wire]:
            return fail(f"ancilla wire {wire} not returned to zero")
    outputs = state[out : out + w]
    misses = row.misses([inputs[s : s + n] for s, n in operands], outputs)
    if misses:
        first = (misses & -misses).bit_length() - 1
        (got,) = register_values(outputs, 1, 0, w, first)
        pattern = first if patterns is None else patterns[first]
        problem = row.check([pattern >> s & (1 << n) - 1 for s, n in operands], got)
        if problem is None:
            raise RuntimeError(f"packed and per-pattern oracles disagree on pattern {first}")
        return fail(problem)
    return VerifyResult(True, count, mode, used_seed)


# ---------------------------------------------------------------------------
# synthesis dispatch


def synth_circuit(spec: FieldSpec, kind: str, r: Optional[int] = None) -> Netlist:
    """The kind table: one kind's width, register map and column batches for
    ``spec``. A domain error raises now, and so does a kind above the
    generation budget (``MAX_GATES``); batches are built as drawn. Every
    kind but add is a block chain (``inverters.kind_structure``). Only
    selfmult takes an exponent: r on another kind is refused, never
    dropped."""
    if r is not None and kind != "selfmult":
        raise ValueError(f"{kind} takes no exponent; -r applies to selfmult only")
    c = None if kind == "add" else kind_structure(spec, kind, r)
    _within_budget(spec, kind)
    if c is None:
        adder = synth_add(spec.width)
        return Netlist(adder.width, adder.registers, gate_runs(adder.gates))
    return Netlist(c.width, c.registers, chain_batches(spec, c))


def kind_bounds(spec: FieldSpec, kind: str) -> tuple[int, int]:
    """A kind's closed-form (depth, gates), from the spec's bounds alone:
    (1, w) for add, the general product's for mult and selfmult, and the
    inverter's."""
    if kind == "add":
        return 1, spec.width
    if kind == "invert":
        bounds = spec.inverter_bounds()
        return bounds.depth_bound, bounds.gate_bound
    return spec.mult_bounds()


def _budget(amount: int, budget: int, name: str, claim: str) -> None:
    """The one budget check: ``claim``, what a command would do with its
    ``amount``, is refused as a ValueError when ``amount`` is above
    ``budget``; the message appends the budget's name and cap to the claim."""
    if amount > budget:
        raise ValueError(f"{claim}, above the {name} budget of {budget}")


def _within_budget(spec: FieldSpec, kind: str) -> tuple[int, int]:
    """A kind's ``kind_bounds``, refused if its gate bound is above
    MAX_GATES."""
    depth, gates = kind_bounds(spec, kind)
    claim = f"{kind} at m={spec.m} ({spec.representation.value}) bounds {gates} gates"
    _budget(gates, MAX_GATES, "generation", claim)
    return depth, gates


def kind_estimate(spec: FieldSpec, kind: str, r: Optional[int] = None) -> ResourceEstimate:
    """The resource summary ``synth`` and ``table`` print for one kind: add
    is measured over its ``synth_circuit`` batches; every other kind is
    ``chain_estimate`` of its block chain, exact from the forward pass alone
    (so the inverter's uncompute is never generated, and a product draws no
    stage at all). The kind table refuses a domain error either way."""
    width, _, batches = synth_circuit(spec, kind, r)
    if kind == "add":
        return measure_stream(width, batches)
    return chain_estimate(spec, kind_structure(spec, kind, r))


# ---------------------------------------------------------------------------
# command implementations


def _degree(m: int) -> int:
    """m, refused above MAX_DEGREE before any parameter search is run."""
    if m > MAX_DEGREE:
        raise UnsupportedDegree(f"degree m={m} is above the largest supported degree {MAX_DEGREE}")
    return m


def _spec_from_args(args) -> FieldSpec:
    return FieldSpec.of(args.representation, _degree(args.m), t=args.t)


def _context_lines(spec: FieldSpec, kind: str, r: Optional[int]) -> list[str]:
    out = [f"command={kind}", f"rep={spec.representation.value}", f"m={spec.m}"]
    if spec.t is not None:
        out.append(f"t={spec.t}")
    if r is not None:
        out.append(f"r={r}")
    return out


def cmd_params(args) -> int:
    m, rep = _degree(args.m), args.representation
    if args.t is not None and rep == "gbb":
        raise ValueError("a type t only applies to the gnb representation")
    lines = [f"m={m}"]
    available = False
    if rep != "gnb":
        available = check_ghost_bit_support(m)
        lines.append(f"ghost_bit={'yes' if available else 'no'}")
    if rep != "gbb":
        try:
            gnb = FieldSpec.gnb(m, t=args.t).gnb_params
        except ValueError:
            lines.append("gnb_type=none")
        else:
            lines += [f"gnb_type={gnb.t}", f"gnb_p={gnb.p}", f"gnb_u={gnb.u}"]
            available = True
    print("\n".join(lines))
    return 0 if available else 2


def _write_lines(fh, lines: Iterable[str]) -> None:
    for text in lines:
        fh.write(text)
        fh.write("\n")


def _read_back(fh, path: str) -> Optional[int]:
    """A descriptor that reads back what ``fh`` writes, or None when ``fh``
    is not a regular file (a pipe, a FIFO, a device such as /dev/null) or
    the file cannot be opened again for reading. The route is decided on
    the open descriptor; ``path`` is opened only to read, and kept only if
    it is the same file."""
    written = os.fstat(fh.fileno())
    if not S_ISREG(written.st_mode):
        return None
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    if os.path.samestat(os.fstat(fd), written):
        return fd
    os.close(fd)
    return None


def _write_mirrored(
    fh, fd: int, spec: FieldSpec, c: BlockChain, registers: dict[str, tuple[int, int]],
    header: list[str],
) -> None:
    """Write a chain's netlist, the bytes ``emit_lines`` over
    ``chain_batches`` gives, with only the forward pass generated: the head
    (every forward block but the last) is written, then the last block, and
    the head's gate lines are read back through ``fd`` and copied in reverse
    order as the uncompute (``circuits.reversed_lines``).

    Lemma (the writer's mirror). The uncompute is the head's blocks in
    reverse order (``BlockChain.uncompute``), and ``block_batches(reverse=
    True)`` reverses a block's stages and every batch, so the uncompute's
    gates are the head's gates in reverse order. CNOT and Toffoli are their
    own inverses, so each is written as the same gate, and a gate's line is
    a function of the gate alone. So the uncompute's lines are the head's
    lines in reverse order, byte for byte. Each of them passed the gate
    rule (``validated_batches``) as it was written, so the copy holds the
    rule with no second check. The head and the last block are separate
    ``emit_lines`` draws, and the header lines are counted, so each offset
    is read where its draw ends, however far ahead a draw is taken."""
    width = c.width
    *head, last = c.forward
    lines = emit_lines(width, registers, validated_batches(blocks_batches(spec, head), width), header)
    _write_lines(fh, islice(lines, len(header) + 1 + len(registers)))
    start = fh.tell()
    _write_lines(fh, lines)
    end = fh.tell()
    lines = emit_lines(width, registers, validated_batches(blocks_batches(spec, (last,)), width))
    _write_lines(fh, islice(lines, 1 + len(registers), None))  # its gate lines only
    fh.flush()
    for piece in reversed_lines(fd, start, end):
        fh.buffer.write(piece)


def cmd_synth(args) -> int:
    spec = _spec_from_args(args)
    header = _context_lines(spec, args.kind, args.r)
    if args.out:
        width, registers, batches = synth_circuit(spec, args.kind, r=args.r)
        registers = validated_registers(registers.items(), width)
        c = None if args.kind == "add" else kind_structure(spec, args.kind, args.r)
        fh = open(args.out, "w")
        try:
            with fh:
                # a chain with an uncompute copies it when its file reads back
                fd = _read_back(fh, args.out) if c and c.uncompute else None
                if fd is None:
                    _write_lines(fh, emit_lines(width, registers, validated_batches(batches, width), header))
                else:
                    try:
                        _write_mirrored(fh, fd, spec, c, registers, header)
                    finally:
                        os.close(fd)
        except BaseException:  # no partial netlist is left; a device is never removed
            if os.path.isfile(args.out):
                with suppress(OSError):
                    os.remove(os.path.realpath(args.out))  # the file written, through a symlink
            raise
        header.append(f"out={args.out}")
    print("\n".join(header + kind_estimate(spec, args.kind, args.r).summary_lines()))
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
    with open(infile, encoding="utf-8", errors="replace") if infile else nullcontext() as fh:
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


def cmd_table(args) -> int:
    degrees = [_degree(m) for m in args.m]  # every one, before any search
    specs = []
    for m in degrees:
        for rep in Representation:
            if m < 3 or args.representation not in (None, rep.value):
                continue
            try:
                specs.append(FieldSpec.of(rep, m))
            except ValueError:  # m does not admit this representation
                continue
    if not specs:
        raise ValueError("no supported representation for the requested degrees")
    # every row's bounds, and both budgets, before any row is printed
    rows = [(spec, op, _within_budget(spec, op)) for spec in specs for op in ("add", "mult", "invert")]
    total = sum(gates for _, _, (_, gates) in rows)
    _budget(total, MAX_TABLE_GATES, "table", f"table of {len(specs)} field specs bounds {total} gates")
    header = f"{'m':>5} {'rep':>4} {'op':>8} {'depth':>9} {'gates':>10} {'depth<=':>9} {'gates<=':>10}"
    print(header)
    print("-" * len(header))
    for spec, op, (db, gb) in rows:
        est = kind_estimate(spec, op)
        m, rep_name = spec.m, spec.representation.value
        print(f"{m:>5} {rep_name:>4} {op:>8} {est.depth:>9} {est.gate_count:>10} {db:>9} {gb:>10}")
    print()
    print("asymptotics: representation | add depth/gates | mult | invert")
    print("  polynomial basis | O(1) / O(m) | O(m) / O(m^2) | O(m^2) / O(m^3), extended Euclid")
    print("  ghost-bit        | O(1) / O(m) | O(m) / O(m^2) | O(m log m) / O(m^2 log m)")
    print("  normal basis     | O(1) / O(m) | O(m) / O(m^2) | O(m log m) / O(m^2 log m)")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser, need_rep: bool) -> None:
    p.add_argument("-m", type=int, required=True, help="field degree")
    p.add_argument(
        "--rep",
        dest="representation",
        choices=("gbb", "gnb"),
        required=need_rep,
        help="representation: gbb (ghost-bit) or gnb (Gaussian normal basis)",
    )
    p.add_argument("-t", type=int, default=None, help="normal-basis type override")


def _seed(text: str) -> int:
    """A --seed value: a non-negative int in any base ``int(text, 0)`` reads.
    ``random.Random`` seeds with the absolute value, so -5 would draw the
    inputs of 5."""
    try:
        seed = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"the seed must be non-negative, got {text}")
    return seed


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
        type=_seed,
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
    p.add_argument("--rep", dest="representation", choices=("gbb", "gnb"), default=None)
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
    except (ParseError, OSError) as e:
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
