"""Walk through both field representations on small degrees."""
from gf2synth import (
    FieldSpec,
    find_gnb_type,
    gbb_frobenius,
    gbb_mult,
    gnb_frobenius,
    gnb_mult,
    make_gnb_params,
    phi_retract,
)


def bits(v, n):
    """Coefficient vector of v, constant term first."""
    return tuple((v >> i) & 1 for i in range(n))


# --- ghost-bit representation of F_16 --------------------------------------
# One redundant coefficient turns squaring into a pure wire permutation.
# Elements are ints: bit i is coefficient i, bit 4 is the ghost bit.

a = 0b0101  # x^2 + 1, embedded with ghost bit 0
print("embedded   ", bits(a, 5))

sq = gbb_frobenius(4, a, 1)
print("squared    ", bits(sq, 5))
assert bits(sq, 5) == (1, 0, 0, 0, 1)

back = phi_retract(4, sq)
print("retracted  ", bits(back, 4))  # x^3 + x^2 + x
assert back == 0b1110

# the vector and its complement name the same element
flip = sq ^ 0b11111
assert phi_retract(4, flip) == back

# multiplication is a cyclic convolution of the 5-bit vectors
b = 0b0011
print("product    ", bits(phi_retract(4, gbb_mult(4, a, b)), 4))

# --- Gaussian normal basis for F_32 ----------------------------------------
# Coordinates over conjugates alpha^(2^i); squaring is a cyclic shift.

params = make_gnb_params(5, 2)
print("\nnormal basis m=5: type", params.t, "p =", params.p, "u =", params.u)
print("index table", params.f_table)

one = FieldSpec.gnb(5).identity
print("identity   ", bits(one, 5))  # all ones over a normal basis
assert gnb_frobenius(5, one, 1) == one

x = gnb_mult(params, one, one)
assert x == one

# every degree not divisible by 8 has some type; a few lookups:
for m in (7, 10, 163, 233):
    print(f"smallest type for m={m}:", find_gnb_type(m).t)

# a FieldSpec is its representation: FieldSpec.gnb gives a Gnb, ghost_bit a
# GhostBit, and the synthesis entry points take either
spec = FieldSpec.gnb(5)
print("\nspec:", type(spec).__name__, spec.m, spec.representation.value, "t", spec.t, "width", spec.width)
print("inverter bounds:", spec.inverter_bounds())
