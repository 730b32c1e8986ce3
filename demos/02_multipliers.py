"""Synthesize multipliers and inspect their stage structure."""
from gf2synth import (
    FieldSpec,
    emit,
    make_gnb_params,
    resources,
    synth_gbb_mult,
    synth_gbb_self_mult,
    synth_gnb_mult,
)

# --- general ghost-bit multiplier ------------------------------------------

c = synth_gbb_mult(4)
r = resources(c)
print("ghost mult m=4:", r.toffoli_count, "Toffolis in depth", r.depth)
assert (r.toffoli_count, r.depth) == (25, 5)

print("\nfirst lines of the netlist:")
for line in emit(c).splitlines()[:8]:
    print(" ", line)

# --- self-power multiplier a * a^(2^r) -------------------------------------
# Products of a register with its own Frobenius power share control wires,
# so each stage is two-colored instead of emitted all at once. The field
# spec (here a GhostBit) describes the stages as coefficient-index columns.

print("\nghost self-power m=4 r=2, stage sigma=0")
st = next(st for st in FieldSpec.ghost_bit(4).self_mult_stages(2) if st.label == "sigma=0")
(x, y, _), (diag, _, _) = st.classes[0]  # one orientation, then the self-paired CNOT
print("  product pairs", sorted(set(zip(x, y)) | set(zip(y, x)) | set(zip(diag, diag))))
print("  color classes", [sum(len(t) for _, _, t in cls) for cls in st.classes])
r = resources(synth_gbb_self_mult(4, 2))
print("  totals:", r.toffoli_count, "Toffoli +", r.cnot_count, "CNOT, depth", r.depth)
assert r.depth == 10

# --- normal-basis multipliers ----------------------------------------------

params = make_gnb_params(5, 2)
r = resources(synth_gnb_mult(params))
print("\ngnb mult m=5 t=2:", r.toffoli_count, "Toffolis in depth", r.depth)
assert (r.toffoli_count, r.depth) == (45, 9)

# self-power stages pair coefficient f with f + delta; delta = 0 degenerates
# to CNOTs, odd cycles need a third color
print("\ngnb self-power m=5 t=2 r=1 stage deltas:")
for st in FieldSpec.gnb(5, t=2).self_mult_stages(1):
    print(f"  {st.label:>5}  kind={st.kind:<7} delta={st.delta:>2}  depth={len(st.classes)}")
