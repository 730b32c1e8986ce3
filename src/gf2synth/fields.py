"""Classical reference arithmetic for F_{2^m} in the supported representations.

A field element is a Python int whose bit i is coefficient i (the
coefficient of the i-th basis vector). Three layouts appear:

* polynomial basis 1, x, ..., x^(m-1): m bits (what ``phi_retract``
  returns and ``poly_inverse`` works on).
* ghost-bit: m+1 bits in the redundant quotient ring F_2[x]/(x^(m+1) + 1).
  Available when m+1 is prime and 2 generates the multiplicative group mod
  m+1; then multiplication is a carry-less product folded once and squaring
  permutes the bits. Bit m is the ghost bit; a vector and its complement
  name the same element.
* Gaussian normal basis of type t: m bits. Squaring is a cyclic rotation and
  the identity is the all-ones vector.

Everything in this module is plain integer arithmetic; it serves as the
ground truth the synthesized circuits are checked against and never imports
the circuit layer. The normal-basis product ``gnb_mult`` is computed in the
cyclotomic ring F_2[x]/(x^p - 1) and never reads the index table; the
multiplier circuits are built from that table through ``gnb_stage_bases``,
and ``gnb_verify_isomorphism`` certifies a table by comparing the two on m
products.

A ``FieldSpec`` is its representation: ``FieldSpec.ghost_bit``, ``gnb``
and ``of`` return a ``GhostBit`` or a ``Gnb``, both subclasses of
``FieldSpec``. That object is the one place where the two representations
differ: register width, int-level product, Frobenius and identity, the
inverse check, the read/write wire permutations, the stage structure of
the two multiplier kinds (as coefficient indices, which ``multipliers``
places on wires as column batches) and the closed-form bounds
(``inverter_bounds``). Everything else is shared. ``self_mult_stages(r)``
is the one description of a self-power multiplier's stages: each
``SelfPowerStage`` carries its label, index delta (normal basis) and color
classes as index columns, and nothing rebuilds it from gates. The columns
address the block's window of 2w wires: x and y index source coefficients
0..w-1, and c is w + the output coefficient, so every consumer reads them
as they stand.

Each spec also has the oracles' packed (bit-sliced) forms, which check a
whole batch of patterns at once in the simulator's layout: a packed element
is a list of ints, one per coordinate, whose bit b is that coordinate in
pattern b. ``packed_mult`` is built from the same definitions as ``mult``
(the cyclic convolution for ghost-bit, the Gauss-period product in
F_2[x]/(x^p - 1) for the normal basis), so it reads neither the index table
nor the stage bases; it yields the product's coordinates one at a time, so
a caller that folds them holds one at a time. ``packed_frobenius`` moves
coordinates as ``frobenius`` moves the basis vectors, and
``packed_inverse_misses`` is the product-equals-identity check in both
representations (for ghost-bit, up to the ring's two representatives of
each element). The per-pattern ``inverse_ok`` stays the second, separate
derivation: extended Euclid for ghost-bit.

``addition_chain`` is the Itoh-Tsujii chain: a tuple of
``MultiplierBlock``s, one per multiplication, which the inverter
synthesizes and ``itoh_tsujii_inverse`` runs on ints. The closed-form
bounds take the chain's shape from the bits of m - 1 (``_chain_shape``),
not from the chain they bound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import gcd
from operator import and_, or_, xor
from typing import Iterator, NamedTuple, Optional, Sequence, Union
from weakref import WeakSet

from .circuits import gather
from .errors import (
    ConstructionFailed,
    DegreeTooSmall,
    InvalidParams,
    NoGnbFound,
    UnsupportedDegree,
)
from .gf2poly import all_one_poly, gf2_inv_mod, gf2_mul, prime_divisors

# ---------------------------------------------------------------------------
# small number theory helpers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
GNB_MAX_TYPE = 30  # largest normal-basis type ``find_gnb_type`` tries
# Largest field degree the command line searches parameters for. The normal-
# basis search grows with m: its slowest case up to here, m = 9314 (type 30,
# u = 128170), takes 0.10 s in process (``params -m 9314`` 0.23-0.27 s) on a
# 2-vCPU x86 host, and m = 100019 (type 18) takes 0.6 s.
MAX_DEGREE = 10_000


def is_prime(n: int) -> bool:
    """Trial division by the primes below 41, then Miller-Rabin to those twelve
    bases, which is exact below 3.18 * 10^23: far above any p = t*m + 1 whose
    p - 1 ``multiplicative_order`` can factor."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def multiplicative_order(a: int, p: int) -> int:
    """Order of a in (Z/pZ)* for prime p."""
    a %= p
    if a == 0:
        raise ValueError("zero has no multiplicative order")
    order = p - 1
    for q in prime_divisors(p - 1):
        while order % q == 0 and pow(a, order // q, p) == 1:
            order //= q
    return order


def _has_order(a: int, t: int, p: int) -> bool:
    """Is t the order of a in (Z/pZ)* for prime p? a^t = 1 and a^(t/q) != 1
    for every prime q dividing t: only t is factored, never p - 1."""
    return pow(a, t, p) == 1 and all(pow(a, t // q, p) != 1 for q in prime_divisors(t))


# ---------------------------------------------------------------------------
# ghost-bit representation


def check_ghost_bit_support(m: int) -> bool:
    """True iff m+1 is prime and 2 is primitive mod m+1.

    Exactly then x^(m+1) + 1 factors as (x + 1) * f with f the irreducible
    all-one polynomial of degree m, and the redundant representation below
    carries F_{2^m}.
    """
    if m < 2:
        return False
    q = m + 1
    return is_prime(q) and multiplicative_order(2, q) == m


def phi_retract(m: int, a: int) -> int:
    """Reduce an (m+1)-bit representative mod the all-one polynomial: if the
    ghost bit (bit m) is set, complement the low m bits.

    Both representatives of a field element (a vector and its complement)
    retract to the same polynomial-basis element.
    """
    low = (1 << m) - 1
    return (a ^ low if a >> m & 1 else a) & low


def gbb_frobenius(m: int, a: int, r: int) -> int:
    """a^(2^r): bit i moves to bit i * 2^r mod (m+1)."""
    n = m + 1
    p2r = pow(2, r, n)
    return sum(1 << (i * p2r % n) for i, c in enumerate(bin(a)[:1:-1][:n]) if c == "1")


def gbb_mult(m: int, a: int, b: int) -> int:
    """Cyclic convolution mod x^(m+1) + 1: the carry-less product folded once."""
    n = m + 1
    c = gf2_mul(a, b)
    return (c ^ (c >> n)) & ((1 << n) - 1)


def _packed_image(columns: Sequence[int], a: Sequence[int], size: int) -> list[int]:
    """Packed image of a under the F_2-linear map that sends basis vector i to
    columns[i], an int whose set bits are its coordinates (of ``size``). A
    coordinate that one wire reaches is that wire's int, not a copy."""
    out = [0] * size
    for column, wire in zip(columns, a):
        while column:
            low = column & -column
            k = low.bit_length() - 1
            out[k] = out[k] ^ wire if out[k] else wire
            column ^= low
    return out


def poly_inverse(m: int, a: int) -> int:
    """Inverse of a polynomial-basis element mod the all-one polynomial
    (extended Euclid)."""
    return gf2_inv_mod(a, all_one_poly(m))


# ---------------------------------------------------------------------------
# Gaussian normal basis


@dataclass(frozen=True)
class GnbParams:
    """Parameters of a type-t Gaussian normal basis for F_{2^m}.

    p == t*m + 1 is prime, u has order t mod p, and ``f_table`` is the index
    table F(1..p-1): F(2^i * u^j mod p) == i for 0 <= i < m, 0 <= j < t.
    Only the circuits read the table (through ``gnb_stage_bases``); the
    reference product ``gnb_mult`` needs just m, t and p.
    The constructor performs no validation on purpose, so that deliberately
    corrupted tables can be fed to ``gnb_verify_isomorphism`` and reported
    false; use the factories ``make_gnb_params`` / ``find_gnb_type`` to obtain
    checked instances.
    """

    m: int
    t: int
    p: int
    u: int
    f_table: tuple[int, ...]


# The params ``make_gnb_params`` built, and so checked. ``Gnb`` takes these
# without rebuilding their index table, so a spec from ``FieldSpec.gnb``
# builds it once. Held weakly and found by value: only params equal to
# built ones skip the check, and a tampered table, u or p is not equal.
_BUILT: "WeakSet[GnbParams]" = WeakSet()


def _gnb_violation(m: int, t: int) -> Optional[str]:
    """Why no type-t Gaussian normal basis exists for m, or None if one does.

    The conditions: p = t*m + 1 is prime and the index of the subgroup
    generated by 2 mod p is coprime to m.
    """
    if m < 2:
        return "field degree must be at least 2"
    if t < 1:
        return "type must be at least 1"
    p = t * m + 1
    if not is_prime(p):
        return f"p = t*m + 1 = {p} is not prime"
    if gcd((p - 1) // multiplicative_order(2, p), m) != 1:
        return f"index of the subgroup generated by 2 mod {p} is not coprime to m={m}"
    return None


def _build_f_table(m: int, t: int, p: int, u: int) -> tuple[int, ...]:
    table: list[Optional[int]] = [None] * (p - 1)
    pi = 1  # 2^i mod p
    for i in range(m):
        idx = pi  # 2^i * u^j mod p
        for _ in range(t):
            if table[idx - 1] is not None:
                raise InvalidParams(
                    f"index table collision at residue {idx} (m={m}, t={t}, u={u})"
                )
            table[idx - 1] = i
            idx = idx * u % p
        pi = pi * 2 % p
    # m*t = p - 1 writes and no collision: every slot is filled
    return tuple(table)  # type: ignore[arg-type]


def make_gnb_params(m: int, t: int) -> GnbParams:
    """Checked construction of the type-t normal basis parameters for m.

    Picks the smallest u of order exactly t mod p = t*m + 1. A type above
    GNB_MAX_TYPE is refused before anything is built: the index table has
    p - 1 entries. ``Gnb`` takes the result without building it again.
    """
    if t > GNB_MAX_TYPE:
        raise InvalidParams(f"type t={t} is above the largest supported type {GNB_MAX_TYPE}")
    problem = _gnb_violation(m, t)
    if problem:
        raise InvalidParams(problem)
    p = t * m + 1
    u = next(c for c in range(1, p) if _has_order(c, t, p))
    params = GnbParams(m=m, t=t, p=p, u=u, f_table=_build_f_table(m, t, p, u))
    _BUILT.add(params)
    return params


def validate_gnb_params(params: GnbParams) -> None:
    """Raise InvalidParams unless params satisfy all defining conditions."""
    m, t, p, u = params.m, params.t, params.p, params.u
    problem = _gnb_violation(m, t)
    if problem:
        raise InvalidParams(problem)
    if p != t * m + 1:
        raise InvalidParams(f"p={p} is not t*m + 1 = {t * m + 1}")
    if not 1 <= u < p or not _has_order(u, t, p):
        raise InvalidParams(f"u={u} does not have order {t} mod {p}")
    if params.f_table != _build_f_table(m, t, p, u):
        raise InvalidParams("index table does not match its defining construction")


def find_gnb_type(m: int) -> GnbParams:
    """Smallest-type Gaussian normal basis for m, searching t = 1..GNB_MAX_TYPE.

    Degrees divisible by 8 never admit one (2 would have to generate a group
    of even index), so the search is guaranteed to fail there.
    """
    if m < 2:
        raise UnsupportedDegree("field degree must be at least 2")
    for t in range(1, GNB_MAX_TYPE + 1):
        if _gnb_violation(m, t) is None:
            return make_gnb_params(m, t)
    raise NoGnbFound(f"no Gaussian normal basis of type <= {GNB_MAX_TYPE} exists for m={m}")


def gnb_frobenius(m: int, a: int, r: int) -> int:
    """a^(2^r): rotate the m coordinates left by r mod m."""
    s = r % m
    return ((a << s) | (a >> (m - s))) & ((1 << m) - 1)


@lru_cache(maxsize=None)
def _gauss_period_images(m: int, t: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Images of the basis in F_2[x]/(x^p - 1), and where coordinate i is read.

    K = {k^m mod p} is the order-t subgroup of (Z/p)*; basis element i maps
    to the sum of x^(2^i * k mod p) over k in K, and coordinate i of a
    product sits at exponent 2^i mod p.
    """
    subgroup = {pow(k, m, p) for k in range(1, p)}
    positions = tuple(pow(2, i, p) for i in range(m))
    images = tuple(sum(1 << (q * k % p) for k in subgroup) for q in positions)
    return images, positions


def gnb_mult(params: GnbParams, a: int, b: int) -> int:
    """Gauss-period product in the cyclotomic ring F_2[x]/(x^p - 1).

    Both operands are mapped into the ring (the sum of the images, from
    ``_gauss_period_images``, of their set bits), multiplied carry-less and
    folded mod x^p - 1. The product is a sum of basis images plus a multiple
    of 1 = sum of all basis elements, so coordinate i is bit 2^i mod p XOR
    bit 0 (Gao, von zur Gathen, Panario and Shoup, J. Symb. Comput. 29,
    2000). Only m, t and p are read: the index table that drives the
    circuits plays no part, which keeps this an independent oracle for them.
    """
    p = params.p
    images, positions = _gauss_period_images(params.m, params.t, p)
    av = bv = 0
    for image, x in zip(images, bin(a)[:1:-1]):
        if x == "1":
            av ^= image
    for image, y in zip(images, bin(b)[:1:-1]):
        if y == "1":
            bv ^= image
    c = gf2_mul(av, bv)
    c = (c ^ (c >> p)) & ((1 << p) - 1)
    bits = format(c, f"0{p}b")[::-1]
    return sum(1 << i for i, q in enumerate(positions) if bits[q] != bits[0])


def gnb_packed_mult(params: GnbParams, a: Sequence[int], b: Sequence[int]) -> Iterator[int]:
    """``gnb_mult`` on packed coordinates, from the same definitions.

    Each operand is mapped into the p packed coordinates of F_2[x]/(x^p - 1)
    through the basis images of ``_gauss_period_images``; with C(k) the XOR
    over e of A_e & B_(k-e mod p), coordinate i of the product is
    C(2^i mod p) XOR C(0), yielded for i = 0..m-1. Only m, t and p are
    read, as in ``gnb_mult``.
    """
    p = params.p
    images, positions = _gauss_period_images(params.m, params.t, p)
    ring_a = _packed_image(images, a, p)
    back = _packed_image(images, b, p)[::-1] * 2  # back[p-1-k+e] is B_(k-e mod p)

    def coefficient(k: int) -> int:
        return reduce(xor, map(and_, ring_a, back[p - 1 - k : 2 * p - 1 - k]))

    constant = coefficient(0)
    return (coefficient(q) ^ constant for q in positions)


def gnb_stage_bases(params: GnbParams, second_shift: int = 0) -> list[tuple[str, int, int]]:
    """(label, first_base, second_base_raw) per multiplier stage, in emission order.

    This is the one place the index table becomes a product formula: main
    stages k = 1..tm-1 pair offsets F(k+1) and F(p-k) - second_shift; odd
    type appends the wrap stages pairing k-1 with k-1+m/2 both ways (odd
    type forces m even). ``second_base_raw`` is kept unreduced so delta
    displays match the index arithmetic; all wire math reduces mod m. The
    params are not validated, so a corrupted table can be certified false.
    """
    m, t, p = params.m, params.t, params.p
    ft = params.f_table
    out = [(f"k={k}", ft[k], ft[p - k - 1] - second_shift) for k in range(1, t * m)]
    if t % 2:
        half = m // 2
        for k in range(1, half + 1):
            out.append((f"tail={k}a", k - 1, k - 1 + half - second_shift))
            out.append((f"tail={k}b", k - 1 + half, k - 1 - second_shift))
    return out


# ---------------------------------------------------------------------------
# the inversion chain (addition-chain exponentiation to alpha^(2^m - 2))


@dataclass(frozen=True)
class MultiplierBlock:
    """One multiplication of a block chain: the inversion chain, or a lone
    product (``inverters.kind_structure``).

    ``self_power`` blocks compute target += source * source^(2^r); ``general``
    blocks compute target += source * operand^(2^operand_exponent). The
    inverter sets ``squared_write`` on its final forward block so the result
    lands pre-squared; ``addition_chain``'s blocks leave it False.
    """

    kind: str  # "self_power" | "general"
    source_reg: int
    target_reg: int
    r: int = 0
    operand_reg: int = -1
    operand_exponent: int = 0
    squared_write: bool = False


def addition_chain(m: int) -> tuple[MultiplierBlock, ...]:
    """The Itoh-Tsujii chain computing alpha^(2^m - 2) = alpha^(-1): its
    blocks in execution order, empty at m = 2.

    With beta_n = alpha^(2^n - 1) and k1 > k2 > ... the set bits of m - 1,
    the floor(log2(m-1)) self-power blocks come first: block j reads
    register j, which holds beta_(2^j), through 2^j squarings and writes
    beta_(2^(j+1)) to register j + 1, doubling up to beta_(2^k1) in register
    k1. Then HW(m-1) - 1 general blocks fold in beta_(2^k) for the remaining
    set bits k, each read from ladder register k through a Frobenius shift
    by the sum P of the powers already folded in (``operand_exponent``):
    beta_P * beta_(2^k)^(2^P) = beta_(P + 2^k). Each writes the register
    after its source, so the last register holds beta_(m-1), which is
    alpha^(2^(m-1) - 1). A single squaring (free in both representations)
    turns it into the inverse; circuit synthesis folds that squaring into
    the last block's write permutation.

    Register indices: 0 is the input, 1..k1 the ladder targets, then one
    register per general block; block i writes register i + 1.
    """
    if m < 2:
        raise DegreeTooSmall("inversion chains need m >= 2")
    e = m - 1
    k1 = e.bit_length() - 1
    chain = [MultiplierBlock("self_power", j, j + 1, r=1 << j) for j in range(k1)]
    partial = 1 << k1
    for k in range(k1 - 1, -1, -1):
        if e >> k & 1:
            n = len(chain)
            chain.append(MultiplierBlock("general", n, n + 1, operand_reg=k, operand_exponent=partial))
            partial += 1 << k
    return tuple(chain)


# ---------------------------------------------------------------------------
# closed-form inverter bounds (the formulas are each spec's ``inverter_bounds``)


@dataclass(frozen=True)
class ResourceBound:
    """Upper bounds for one inverter; per-kind gate splits only exist for the
    ghost-bit construction (``gate_bound`` covers both representations)."""

    m: int
    depth_bound: int
    gate_bound: int
    qubit_bound: int
    t_depth_bound: int
    t_count_bound: int
    toffoli_bound: Optional[int] = None
    cnot_bound: Optional[int] = None


def _chain_shape(m: int) -> tuple[int, int]:
    """(floor(log2(m-1)), HW(m-1)), read off the bits of m - 1 and not off
    the chain the bounds are checked against."""
    if m < 3:
        raise DegreeTooSmall("inversion bounds need m >= 3")
    return (m - 1).bit_length() - 1, (m - 1).bit_count()


# ---------------------------------------------------------------------------
# field specs: one class per representation


class Representation(enum.Enum):
    GHOST_BIT = "gbb"
    GNB = "gnb"


# A run of index gates as equal-length columns (x, y, c) on a self-power
# block's window of 2w wires, the source's coefficients 0..w-1 and then the
# output's: Toffolis on input coefficients x[i] < y[i] into window index c[i]
# = w + output coefficient, or CNOTs from x[i] into c[i] when y is None.
IndexBatch = tuple[Sequence[int], Optional[Sequence[int]], Sequence[int]]


class SelfPowerStage(NamedTuple):
    """One wire-disjoint stage of a self-power multiplier a * a^(2^r).

    ``classes`` are the stage's depth-1 color classes in emission order, each
    a tuple of index batches (one per run of a single gate kind).
    """

    label: str
    kind: str  # "toffoli" or "cnot"
    delta: Optional[int]  # raw index difference (normal basis only)
    classes: tuple[tuple[IndexBatch, ...], ...]


class FieldSpec:
    """A field degree in one circuit representation: a ``GhostBit`` or a
    ``Gnb``, built by ``ghost_bit``, ``gnb`` or ``of``. The two subclasses
    hold everything the representations do differently (see the module
    docstring); what they compute alike lives here: squaring permutes the
    coefficients in either basis, so the packed Frobenius and the squared
    write follow from each one's ``frobenius`` and ``read_permutation``."""

    m: int
    width: int  # wires per register: m+1 ghost-bit, m normal basis
    t: Optional[int]  # the normal-basis type, None for ghost-bit
    representation: Representation
    gnb_params: Optional[GnbParams]
    identity: int

    @classmethod
    def ghost_bit(cls, m: int) -> "GhostBit":
        return GhostBit(m)

    @classmethod
    def gnb(cls, m: int, t: Optional[int] = None) -> "Gnb":
        return Gnb(make_gnb_params(m, t) if t is not None else find_gnb_type(m))

    @classmethod
    def of(cls, representation: Union[Representation, str], m: int, t: Optional[int] = None) -> "FieldSpec":
        """Spec for a representation given by member or name ("gbb"/"gnb");
        a type t only applies to the normal basis."""
        if Representation(representation) is Representation.GNB:
            return cls.gnb(m, t=t)
        if t is not None:
            raise ValueError("a type t only applies to the gnb representation")
        return cls.ghost_bit(m)

    def packed_frobenius(self, a: Sequence[int], r: int) -> list[int]:
        """a^(2^r) on packed coordinates: each coordinate goes where
        ``frobenius`` sends its basis vector."""
        w = self.width
        return _packed_image([self.frobenius(1 << i, r) for i in range(w)], a, w)

    @property
    def write_permutation(self) -> tuple[int, ...]:
        """Squared write: coefficient i lands where b^2 reads it, on wire 2i
        mod (m+1) in the ghost-bit basis and i+1 mod m in the normal basis."""
        return self.read_permutation(-1)


class GhostBit(FieldSpec):
    """The ghost-bit representation: m+1 coefficients mod x^(m+1) + 1."""

    representation = Representation.GHOST_BIT
    t = gnb_params = None

    def __init__(self, m: int):
        if m < 2:
            raise UnsupportedDegree("field degree must be at least 2")
        if not check_ghost_bit_support(m):
            raise UnsupportedDegree(
                f"m={m} has no ghost-bit representation (need m+1 prime with 2 primitive)"
            )
        self.m = m
        self.width = m + 1
        self.identity = 1

    def mult(self, a: int, b: int) -> int:
        return gbb_mult(self.m, a, b)

    def frobenius(self, a: int, r: int) -> int:
        return gbb_frobenius(self.m, a, r)

    def packed_mult(self, a: Sequence[int], b: Sequence[int]) -> Iterator[int]:
        """Cyclic convolution of packed coordinates: c_k = XOR over i of
        a_i & b_(k-i mod n), yielded for k = 0..n-1."""
        n = self.width
        back = list(b[::-1]) * 2  # back[n-1-k+i] is b_(k-i mod n)
        return (reduce(xor, map(and_, a, back[n - 1 - k : 2 * n - 1 - k])) for k in range(n))

    def packed_inverse_misses(self, v: Sequence[int], got: Sequence[int]) -> int:
        """``inverse_ok`` on packed coordinates, by product-equals-identity.

        x^(m+1) + 1 = (x + 1) * f, so the vectors that retract to zero are
        the multiples of f, 0 and all ones: those with all coordinates
        equal. And c = v * got retracts to 1 iff c is 1 or its complement,
        that is iff every c_k with k >= 1 differs from c_0. The misses are
        the patterns (as set bits) where v is nonzero and some c_k equals
        c_0, or v is zero and got is not.
        """
        v0, got0 = v[0], got[0]
        nonzero = reduce(or_, (x ^ v0 for x in v), 0)
        product = self.packed_mult(v, got)
        one = next(product) ^ nonzero  # c_0, flipped where v is nonzero
        misses = reduce(or_, (c ^ one for c in product), 0)
        return misses | reduce(or_, (x ^ got0 for x in got), 0) & ~nonzero

    def inverse_ok(self, v: int, got: int) -> bool:
        """Does ``got`` retract to the inverse of what the representative v
        retracts to (extended Euclid; zero maps to zero)? Either
        representative of an element (ghost bit 0 or 1) may be given."""
        m = self.m
        a = phi_retract(m, v)
        return phi_retract(m, got) == (poly_inverse(m, a) if a else 0)

    def read_permutation(self, e: int) -> tuple[int, ...]:
        """Where coefficient x of b^(2^e) sits in b's register: x * 2^-e mod (m+1)."""
        n = self.width
        inv = pow(2, -e, n)
        return tuple(x * inv % n for x in range(n))

    def mult_stages(self) -> list[tuple[int, int, int, int]]:
        """General product stages as (a, b, c, c_step): gate j of a stage
        multiplies a_(a+j) by b_(b+j) into coefficient c + c_step*j. Stage
        sigma collects the products a_j * b_(sigma+j) hitting sigma + 2j."""
        return [(0, sigma, sigma, 2) for sigma in range(self.width)]

    def self_mult_stages(self, r: int, reverse: bool = False) -> Iterator[SelfPowerStage]:
        """Stages of a * a^(2^r), last stage first with ``reverse``; a single
        CNOT layer when 2^r == 1 mod m+1 (r in {0, m}: plain squaring).

        Stage sigma holds every product a_j * a_(sigma-j). Unordered pairs
        {j, sigma-j} contribute two Toffolis sharing both controls (distinct
        targets), one per orientation, which forces the two-coloring; the
        unique self-paired j (n is odd) degenerates to a CNOT that is
        wire-disjoint from the first color class and rides along after its
        Toffolis.

        Every column is built from ranges and slices. The lower ends x are
        the j with j < (sigma - j) mod n: for j <= sigma that is 2j < sigma,
        so j < (sigma+1)//2; for j > sigma the partner is sigma - j + n, so
        j < (sigma+n+1)//2. Hence x = (*range((sigma+1)//2),
        *range(sigma+1, (sigma+n+1)//2)), and the partners y = sigma - j
        (mod n) run down the two matching ranges, from sigma and from n-1.
        The first orientation writes j + 2^r (sigma - j) = (1 - 2^r) j +
        2^r sigma, the second sigma - j + 2^r j = (2^r - 1) j + sigma: both
        affine in j mod n. So each column is the block's table ((1-2^r) j)
        % n, or ((2^r-1) j) % n, sliced at the two ranges of x and read
        through the window's output half range(n, 2n) rotated by 2^r sigma,
        or by sigma.
        """
        n = self.width
        p2r = pow(2, r, n)
        ring = [*range(n, 2 * n)] * 2  # ring[s:s + n] is the output half rotated by s
        if p2r == 1:
            layer = (list(range(n)), None, ring[::2])  # ring[2i] = n + 2i mod n
            yield SelfPowerStage("squaring", "cnot", None, ((layer,),))
            return
        inv2 = pow(2, -1, n)
        first_table = [(1 - p2r) * j % n for j in range(n)]
        second_table = [(p2r - 1) * j % n for j in range(n)]
        for sigma in range(n - 1, -1, -1) if reverse else range(n):
            low, high = (sigma + 1) // 2, (sigma + n + 1) // 2
            x = (*range(low), *range(sigma + 1, high))
            y = (*range(sigma, sigma // 2, -1), *range(n - 1, (sigma + n) // 2, -1))
            s = p2r * sigma % n
            first_c = gather(ring[s:s + n], first_table[:low] + first_table[sigma + 1:high])
            second_c = gather(ring[sigma:sigma + n], second_table[:low] + second_table[sigma + 1:high])
            jstar = sigma * inv2 % n
            first = (x, y, first_c)
            fixed = ([jstar], None, [ring[jstar * (1 + p2r) % n]])
            second = (x, y, second_c)
            yield SelfPowerStage(f"sigma={sigma}", "toffoli", None, ((first, fixed), (second,)))

    def mult_bounds(self) -> tuple[int, int]:
        """(depth, gates) of the general multiplier."""
        return self.width, self.width * self.width

    def inverter_bounds(self) -> ResourceBound:
        """Inverter bounds: the ladder is counted twice (compute and
        uncompute) at the self-power costs, the merges twice at the general
        multiplier costs, and one register per chain value."""
        m = self.m
        log2, hw = _chain_shape(m)
        n = m + 1
        toffoli = 2 * log2 * (m * m + m) + 2 * (hw - 1) * (m * m + 2 * m + 1)
        cnot_b = 2 * log2 * n
        return ResourceBound(
            m=m,
            depth_bound=2 * log2 * (2 * m + 2) + 2 * (hw - 1) * n,
            gate_bound=toffoli + cnot_b,
            qubit_bound=(1 + log2) * n + (hw - 1) * n,
            t_depth_bound=12 * log2 * (2 * m + 2) + 12 * (hw - 1) * n,
            t_count_bound=14 * log2 * (m * m + m) + 14 * (hw - 1) * (m * m + 2 * m + 1),
            toffoli_bound=toffoli,
            cnot_bound=cnot_b,
        )


# One Gnb keeps delta colorings while their count times m stays below this;
# a coloring holds three m-long columns, so at most about 3 * 2^20 index
# entries (a few MB) are kept per basis. There are at most m - 1 deltas, so
# the cap binds only for m above about 1024.
_COLORING_CACHE = 1 << 20

Coloring = tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]


def _coset_colors(idx: list[int], d: int) -> Coloring:
    """Color the edges {f, f + d} of the shift-by-d cycles on Z_m: walk each
    cycle from its least element, alternating two colors, with a third color
    picking up the closing edge of an odd-length cycle. Returns, per
    non-empty color in order, the columns (lower end, upper end, f) in walk
    order, as tuples (``gather`` takes a tuple column without copying it).
    ``idx`` is list(range(m)); the columns share its int objects."""
    m = len(idx)
    g = gcd(d, m)
    cycle_len = m // g
    colors = ([], [], []), ([], [], []), ([], [], [])
    for v in range(g):
        f = idx[v]
        for s in range(cycle_len):
            lo, hi, at = colors[2 if (s == cycle_len - 1 and cycle_len % 2 == 1) else s % 2]
            nxt = idx[(f + d) % m]
            lo.append(f if f < nxt else nxt)
            hi.append(nxt if f < nxt else f)
            at.append(f)
            f = nxt
    return tuple(tuple(map(tuple, c)) for c in colors if c[0])


class Gnb(FieldSpec):
    """A type-t Gaussian normal basis: m coordinates, squaring is a shift.
    The params are validated here, unless ``make_gnb_params`` built them."""

    representation = Representation.GNB

    def __init__(self, params: GnbParams):
        if params not in _BUILT:
            validate_gnb_params(params)
        self.gnb_params = params
        m = params.m
        self.m = self.width = m
        self.t = params.t
        self.identity = (1 << m) - 1
        self._idx = list(range(m))  # index columns hold these int objects
        self._ring = self._idx * 2  # _ring[s:s + m] is _idx rotated by s
        self._out_ring = [*range(m, 2 * m)] * 2  # the same for the output half of a window
        self._colorings: dict[int, Coloring] = {}

    def mult(self, a: int, b: int) -> int:
        return gnb_mult(self.gnb_params, a, b)

    def frobenius(self, a: int, r: int) -> int:
        return gnb_frobenius(self.m, a, r)

    def inverse_ok(self, v: int, got: int) -> bool:
        """Is v * got the all-ones identity (zero maps to zero)?"""
        if v == 0:
            return got == 0
        return self.mult(v, got) == self.identity

    def packed_mult(self, a: Sequence[int], b: Sequence[int]) -> Iterator[int]:
        return gnb_packed_mult(self.gnb_params, a, b)

    def packed_inverse_misses(self, v: Sequence[int], got: Sequence[int]) -> int:
        """``inverse_ok`` on packed coordinates: the patterns (as set bits)
        where v * got is not all ones although v is nonzero, or got is
        nonzero although v is zero."""
        nonzero = reduce(or_, v, 0)
        product = reduce(or_, (c ^ nonzero for c in self.packed_mult(v, got)), 0)
        return product | reduce(or_, got, 0) & ~nonzero

    def read_permutation(self, e: int) -> tuple[int, ...]:
        """Where coefficient x of b^(2^e) sits in b's register: x - e mod m."""
        m = self.m
        return tuple((x - e) % m for x in range(m))

    def mult_stages(self) -> list[tuple[int, int, int, int]]:
        """General product stages as (a, b, c, c_step), one depth-1 stage per
        index-table term: gate i multiplies a_(a+i) by b_(b+i) into c_i."""
        return [(fa, fb, 0, 1) for _, fa, fb in gnb_stage_bases(self.gnb_params)]

    def self_mult_stages(self, r: int, reverse: bool = False) -> Iterator[SelfPowerStage]:
        """Stages of a * a^(2^r), colored along the cosets of each delta; last
        stage first with ``reverse``.

        A stage's products pair coefficient f with f + delta for every f, into
        output coefficient f - first (window index m + (f - first) mod m).
        A zero delta (mod m) collapses each product to a single coefficient:
        a layer of CNOTs. Otherwise the pairs are the edges of the
        shift-by-delta cycles on Z_m, colored by ``_coset_colors``; that
        coloring depends on delta mod m only, so it is kept per delta while
        colorings * m < _COLORING_CACHE (three m-long columns each, so at
        most about 3 * 2^20 index entries per basis).
        Each color's output column is its f column read through out[f] =
        m + (f - first) mod m by ``gather``.
        """
        m = self.m
        idx, ring, out_ring = self._idx, self._ring, self._out_ring
        bases = gnb_stage_bases(self.gnb_params, r)
        for label, fa, fb in reversed(bases) if reverse else bases:
            delta = fb - fa
            d = delta % m
            k = fa % m
            if d == 0:
                layer = (ring[k:k + m], None, out_ring[:m])  # f + k into m + f
                yield SelfPowerStage(label, "cnot", delta, ((layer,),))
                continue
            colors = self._colorings.get(d)
            if colors is None:
                colors = _coset_colors(idx, d)
                if len(self._colorings) * m < _COLORING_CACHE:
                    self._colorings[d] = colors
            out = out_ring[m - k:2 * m - k]  # out[f] = m + (f - fa) mod m
            classes = tuple(((x, y, gather(out, f)),) for x, y, f in colors)
            yield SelfPowerStage(label, "toffoli", delta, classes)

    def mult_bounds(self) -> tuple[int, int]:
        """(depth, gates) of the general multiplier, T = t rounded up to even."""
        T = self.t + self.t % 2
        return T * self.m - 1, T * self.m * self.m - self.m

    def inverter_bounds(self) -> ResourceBound:
        """Inverter bounds with T = t rounded up to even."""
        m, T = self.m, self.t + self.t % 2
        log2, hw = _chain_shape(m)
        per_block = T * m * m - m
        return ResourceBound(
            m=m,
            depth_bound=log2 * (6 * T * m - 6) + 2 * (hw - 1) * (T * m - 1),
            gate_bound=2 * log2 * per_block + 2 * (hw - 1) * per_block,
            qubit_bound=(1 + log2) * m + (hw - 1) * m,
            t_depth_bound=6 * log2 * (6 * T * m - 6) + (12 * hw - 6) * (T * m - 1),
            t_count_bound=14 * log2 * per_block + 14 * (hw - 1) * per_block,
        )


# ---------------------------------------------------------------------------
# the inversion chain on classical values


def itoh_tsujii_inverse(spec: FieldSpec, a: int) -> int:
    """Run the inversion chain on classical values; zero maps to zero.

    This follows the chain's blocks register by register, exactly like the
    synthesized circuit does, and serves as the reference for the chain
    itself (independent tests check it against extended-Euclid and
    product-equals-identity oracles).
    """
    chain = addition_chain(spec.m)
    regs = [a] + [0] * len(chain)
    for b in chain:
        if b.kind == "self_power":
            operand = spec.frobenius(regs[b.source_reg], b.r)
        else:
            operand = spec.frobenius(regs[b.operand_reg], b.operand_exponent)
        regs[b.target_reg] = spec.mult(regs[b.source_reg], operand)
    return spec.frobenius(regs[-1], 1)


# ---------------------------------------------------------------------------
# certification of a normal-basis parameter set


def gnb_verify_isomorphism(params: GnbParams) -> bool:
    """Certify that the circuits' index-table product is F_{2^m} multiplication.

    The stage formula (``gnb_stage_bases``) is compared with ``gnb_mult``, the
    Gauss-period product in F_2[x]/(x^p - 1), on e_0 * e_d for d = 0..m-1.
    Both products are bilinear and commute with the cyclic shift (squaring),
    so agreeing on those m products means agreeing on every pair. The stage
    side is read straight off the stage list: gate i of a stage with bases
    (fa, fb) multiplies a_(fa+i) by b_(fb+i) into c_i, so it sets bit -fa
    mod m of e_0 * e_d for d = fb - fa mod m.

    Returns False if no type-t normal basis exists for m, u does not have
    order t, or the products differ (e.g. a corrupted index table). Raises
    ConstructionFailed if the ring itself cannot be set up (p not prime or
    not t*m + 1, u not a unit, a table of the wrong length).
    """
    m, t, p, u = params.m, params.t, params.p, params.u
    if m < 2 or t < 1 or p != t * m + 1 or not is_prime(p):
        raise ConstructionFailed(f"cannot build an ambient field for m={m}, t={t}, p={p}")
    if not 1 <= u < p:
        raise ConstructionFailed(f"u={u} is not a unit mod {p}")
    if len(params.f_table) != p - 1:
        raise ConstructionFailed("index table length must be p - 1")
    if _gnb_violation(m, t) or not _has_order(u, t, p):
        return False
    stage_products = [0] * m
    for _, fa, fb in gnb_stage_bases(params):
        stage_products[(fb - fa) % m] ^= 1 << (-fa % m)
    return all(gnb_mult(params, 1, 1 << d) == stage_products[d] for d in range(m))
