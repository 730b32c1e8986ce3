"""Inverter synthesis: addition-chain structure, measured cost vs bounds."""
from gf2synth import (
    FieldSpec,
    addition_chain,
    check_bounds,
    inverter_batches,
    inverter_estimate,
    inverter_structure,
    measure_stream,
)

# --- the multiplication schedule -------------------------------------------
# Inversion is exponentiation by 2^m - 2; the chain doubles through the
# binary expansion of m - 1.

# addition_chain returns the chain's blocks: the ladder's self-power blocks
# count up to the top set bit, and each general block reads the ladder
# register of one lower set bit.
chain = addition_chain(163)
ladder = sum(b.kind == "self_power" for b in chain)
bits = (ladder, *(b.operand_reg for b in chain if b.kind == "general"))
print("m=163: set bits of m-1 at", bits)
print("multiplications:", len(chain), "(7 ladder + 2 merge)")

s = inverter_structure(FieldSpec.gnb(7))
print("\nm=7 blocks:")
for blk in s.forward:
    extra = f" r={blk.r}" if blk.kind == "self_power" else f" operand=reg{blk.operand_reg}"
    star = " (squared write)" if blk.squared_write else ""
    print(f"  {blk.kind:<10} reg{blk.source_reg} -> reg{blk.target_reg}{extra}{star}")
print("uncompute blocks:", len(s.uncompute))
print("registers:", {k: v for k, v in s.registers.items()})

# --- measured resources vs the closed-form bounds --------------------------

for spec in (FieldSpec.ghost_bit(10), FieldSpec.gnb(11), FieldSpec.gnb(163)):
    report = check_bounds(spec)
    t = f" t={report.t}" if report.t is not None else ""
    print(f"\nm={report.m} {report.representation.value}{t}")
    for chk in report.checks:
        print(f"  {chk.metric:<9} {chk.actual:>10} <= {chk.bound:>10}")
    assert report.passed

# the gate stream never has to be materialized: measure_stream reads the
# m=233 inverter's two million gates in a single pass, as column batches (one
# run of one gate kind per batch) that no gate tuple is built for.
# inverter_estimate layers only the forward pass: the uncompute mirrors its
# head, so the uncompute's share of the depth is read off the per-wire
# counters the head leaves, and the uncompute is never generated.
spec = FieldSpec.gnb(233)
est = inverter_estimate(spec)
print(f"\nm=233, measured from the forward pass: {est.gate_count} gates, depth {est.depth}, "
      f"{est.qubits} qubits, T-count {est.t_count}")
assert est == measure_stream(inverter_structure(spec).width, inverter_batches(spec))
print("equals the single streamed pass over every gate")
