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

A ``FieldSpec`` hands out its representation object (``spec.rep``, a
``GhostBit`` or a ``Gnb``). That object is the one place where the two
representations differ: register width, int-level product, Frobenius and
identity, the inverse check, the read/write wire permutations, the stage
structure of the two multiplier cores (as coefficient indices, which
``multipliers`` places on wires as column batches) and the closed-form
bounds. Everything else is shared. ``self_mult_stages(r)`` is the one
description of a self-power multiplier's stages: each ``SelfPowerStage``
carries its label, index delta (normal basis) and color classes as index
columns, and nothing rebuilds it from gates.

``addition_chain`` owns the Itoh-Tsujii chain: its ``MultiplierBlock``s,
one per multiplication, are the blocks the inverter synthesizes and the
steps ``itoh_tsujii_inverse`` and the closed-form bounds read.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd
from typing import Iterator, NamedTuple, Optional, Union

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

    def F(self, k: int) -> int:
        """The index function on 1 <= k <= p-1."""
        if not 1 <= k <= self.p - 1:
            raise ValueError(f"F is defined on 1..{self.p - 1}, got {k}")
        return self.f_table[k - 1]


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
    for i in range(m):
        pi = pow(2, i, p)
        for j in range(t):
            idx = pi * pow(u, j, p) % p
            if table[idx - 1] is not None:
                raise InvalidParams(
                    f"index table collision at residue {idx} (m={m}, t={t}, u={u})"
                )
            table[idx - 1] = i
    if any(v is None for v in table):  # cannot happen once no slot collides
        raise InvalidParams(f"index table does not cover all residues (m={m}, t={t})")
    return tuple(table)  # type: ignore[arg-type]


def make_gnb_params(m: int, t: int) -> GnbParams:
    """Checked construction of the type-t normal basis parameters for m.

    Picks the smallest u of order exactly t mod p = t*m + 1.
    """
    problem = _gnb_violation(m, t)
    if problem:
        raise InvalidParams(problem)
    p = t * m + 1
    u = next(c for c in range(1, p) if multiplicative_order(c, p) == t)
    return GnbParams(m=m, t=t, p=p, u=u, f_table=_build_f_table(m, t, p, u))


def validate_gnb_params(params: GnbParams) -> None:
    """Raise InvalidParams unless params satisfy all defining conditions."""
    m, t, p, u = params.m, params.t, params.p, params.u
    problem = _gnb_violation(m, t)
    if problem:
        raise InvalidParams(problem)
    if p != t * m + 1:
        raise InvalidParams(f"p={p} is not t*m + 1 = {t * m + 1}")
    if not 1 <= u < p or multiplicative_order(u, p) != t:
        raise InvalidParams(f"u={u} does not have order {t} mod {p}")
    if len(params.f_table) != p - 1:
        raise InvalidParams("index table length must be p - 1")
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
# inversion plan (addition-chain exponentiation to alpha^(2^m - 2))


@dataclass(frozen=True)
class MultiplierBlock:
    """One multiplication of the inversion chain.

    ``self_power`` blocks compute target += source * source^(2^r); ``general``
    blocks compute target += source * operand^(2^operand_exponent). The
    inverter sets ``squared_write`` on its final forward block so the result
    lands pre-squared; a plan's blocks leave it False.
    """

    kind: str  # "self_power" | "general"
    source_reg: int
    target_reg: int
    r: int = 0
    operand_reg: int = -1
    operand_exponent: int = 0
    squared_write: bool = False


@dataclass(frozen=True)
class InverterPlan:
    """Multiplication schedule computing alpha^(2^m - 2) = alpha^(-1).

    ``k_list`` holds the exponents of the set bits of m-1 in decreasing
    order. The ladder's self-power blocks double beta_1 = alpha up to
    beta_(2^k1); the combine's general blocks fold in beta_(2^k) for the
    remaining set bits, reading each operand through a power-of-two Frobenius
    shift. A single final squaring (free in both representations) turns
    alpha^(2^(m-1) - 1) into the inverse; circuit synthesis folds it into the
    last block's write permutation.

    Register indices: 0 is the input, 1..k1 the ladder targets, then one
    register per combine block. The overall product lands in ``output_reg``.
    """

    m: int
    k_list: tuple[int, ...]
    ladder: tuple[MultiplierBlock, ...]
    combine: tuple[MultiplierBlock, ...]

    @property
    def floor_log(self) -> int:
        return self.k_list[0]

    @property
    def hamming_weight(self) -> int:
        return len(self.k_list)

    @property
    def multiplications(self) -> int:
        return len(self.ladder) + len(self.combine)

    @property
    def register_count(self) -> int:
        return 1 + len(self.ladder) + len(self.combine)

    @property
    def output_reg(self) -> int:
        return self.register_count - 1


def addition_chain(m: int) -> InverterPlan:
    """Plan for inverting in F_{2^m}: floor(log2(m-1)) doublings plus
    HW(m-1)-1 merges, one multiplication each."""
    if m < 2:
        raise DegreeTooSmall("inversion plans need m >= 2")
    e = m - 1
    k_list = tuple(k for k in range(e.bit_length() - 1, -1, -1) if (e >> k) & 1)
    k1 = k_list[0]
    ladder = tuple(MultiplierBlock("self_power", j, j + 1, r=1 << j) for j in range(k1))
    combine = []
    partial = 1 << k1
    for s, k in enumerate(k_list[1:], start=1):
        combine.append(
            MultiplierBlock("general", k1 + s - 1, k1 + s, operand_reg=k, operand_exponent=partial)
        )
        partial += 1 << k
    assert partial == e
    return InverterPlan(m=m, k_list=k_list, ladder=ladder, combine=tuple(combine))


# ---------------------------------------------------------------------------
# closed-form inverter bounds


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
    if m < 3:
        raise DegreeTooSmall("inversion bounds need m >= 3")
    plan = addition_chain(m)
    return plan.floor_log, plan.hamming_weight


def bounds_ghost(m: int) -> ResourceBound:
    """Ghost-bit inverter bounds: the ladder is counted twice (compute and
    uncompute) at the self-power costs, the merges twice at the general
    multiplier costs, and one register per chain value."""
    if not check_ghost_bit_support(m):
        raise UnsupportedDegree(f"m={m} has no ghost-bit representation")
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


def bounds_gnb(m: int, t: int) -> ResourceBound:
    """Normal-basis inverter bounds with T = t rounded up to even."""
    log2, hw = _chain_shape(m)
    T = t + (t % 2)
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
# representation objects


class Representation(enum.Enum):
    GHOST_BIT = "gbb"
    GNB = "gnb"


def ghost_read_perm(m: int, e: int) -> tuple[int, ...]:
    """Where coefficient x of b^(2^e) sits in b's ghost-bit register: x * 2^-e."""
    n = m + 1
    inv = pow(2, -e, n)
    return tuple(x * inv % n for x in range(n))


def gnb_read_perm(m: int, e: int) -> tuple[int, ...]:
    """Where coefficient x of b^(2^e) sits in b's normal-basis register: x - e."""
    return tuple((x - e) % m for x in range(m))


# A run of index gates as equal-length columns (x, y, c): Toffolis on input
# coefficients x[i] < y[i] into output coefficient c[i], or CNOTs from x[i]
# into c[i] when y is None.
IndexBatch = tuple[list[int], Optional[list[int]], list[int]]


class SelfPowerStage(NamedTuple):
    """One wire-disjoint stage of a self-power multiplier a * a^(2^r).

    ``classes`` are the stage's depth-1 color classes in emission order, each
    a tuple of index batches (one per run of a single gate kind).
    """

    label: str
    kind: str  # "toffoli" or "cnot"
    delta: Optional[int]  # raw index difference (normal basis only)
    classes: tuple[tuple[IndexBatch, ...], ...]


class GhostBit:
    """The ghost-bit representation: m+1 coefficients mod x^(m+1) + 1."""

    representation = Representation.GHOST_BIT
    t = None

    def __init__(self, m: int, gnb_params: Optional[GnbParams] = None):
        if not check_ghost_bit_support(m):
            raise UnsupportedDegree(
                f"m={m} has no ghost-bit representation (need m+1 prime with 2 primitive)"
            )
        if gnb_params is not None:
            raise ValueError("ghost-bit spec must not carry normal-basis params")
        self.m = m
        self.width = m + 1
        self.identity = 1

    def mult(self, a: int, b: int) -> int:
        return gbb_mult(self.m, a, b)

    def frobenius(self, a: int, r: int) -> int:
        return gbb_frobenius(self.m, a, r)

    def inverse_ok(self, v: int, got: int) -> bool:
        """Does ``got`` retract to the inverse of what the representative v
        retracts to (extended Euclid; zero maps to zero)? Either
        representative of an element (ghost bit 0 or 1) may be given."""
        m = self.m
        a = phi_retract(m, v)
        return phi_retract(m, got) == (poly_inverse(m, a) if a else 0)

    def read_permutation(self, e: int) -> tuple[int, ...]:
        return ghost_read_perm(self.m, e)

    @property
    def write_permutation(self) -> tuple[int, ...]:
        """Squared write: coefficient i lands on wire 2i mod (m+1)."""
        return self.read_permutation(-1)

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
        """
        n = self.width
        p2r = pow(2, r, n)
        if p2r == 1:
            layer = (list(range(n)), None, [2 * i % n for i in range(n)])
            yield SelfPowerStage("squaring", "cnot", None, ((layer,),))
            return
        inv2 = pow(2, -1, n)
        for sigma in range(n - 1, -1, -1) if reverse else range(n):
            x = [j for j in range(n) if j < (sigma - j) % n]
            y = [(sigma - j) % n for j in x]
            jstar = sigma * inv2 % n
            first = (x, y, [(j + p2r * c) % n for j, c in zip(x, y)])
            fixed = ([jstar], None, [jstar * (1 + p2r) % n])
            second = (x, y, [(c + p2r * j) % n for j, c in zip(x, y)])
            yield SelfPowerStage(f"sigma={sigma}", "toffoli", None, ((first, fixed), (second,)))

    def mult_bounds(self) -> tuple[int, int]:
        """(depth, gates) of the general multiplier."""
        return self.width, self.width * self.width

    def inverter_bounds(self) -> ResourceBound:
        return bounds_ghost(self.m)


# One Gnb keeps delta colorings while their count times m stays below this;
# a coloring holds three m-long columns, so at most about 3 * 2^18 index
# entries (a few MB) are kept per basis.
_COLORING_CACHE = 1 << 18

Coloring = tuple[tuple[list[int], list[int], list[int]], ...]


def _coset_colors(idx: list[int], d: int) -> Coloring:
    """Color the edges {f, f + d} of the shift-by-d cycles on Z_m: walk each
    cycle from its least element, alternating two colors, with a third color
    picking up the closing edge of an odd-length cycle. Returns, per
    non-empty color in order, the columns (lower end, upper end, f) in walk
    order. ``idx`` is list(range(m)); the columns share its int objects."""
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
    return tuple(c for c in colors if c[0])


class Gnb:
    """A type-t Gaussian normal basis: m coordinates, squaring is a shift."""

    representation = Representation.GNB

    def __init__(self, m: int, gnb_params: Optional[GnbParams]):
        if gnb_params is None:
            raise InvalidParams("normal-basis spec needs GnbParams")
        if gnb_params.m != m:
            raise InvalidParams(f"params are for m={gnb_params.m}, spec says m={m}")
        validate_gnb_params(gnb_params)
        self.params = gnb_params
        self.m = self.width = m
        self.t = gnb_params.t
        self.identity = (1 << m) - 1
        self._idx = list(range(m))  # index columns hold these int objects
        self._colorings: dict[int, Coloring] = {}

    def mult(self, a: int, b: int) -> int:
        return gnb_mult(self.params, a, b)

    def frobenius(self, a: int, r: int) -> int:
        return gnb_frobenius(self.m, a, r)

    def inverse_ok(self, v: int, got: int) -> bool:
        """Is v * got the all-ones identity (zero maps to zero)?"""
        if v == 0:
            return got == 0
        return self.mult(v, got) == self.identity

    def read_permutation(self, e: int) -> tuple[int, ...]:
        return gnb_read_perm(self.m, e)

    @property
    def write_permutation(self) -> tuple[int, ...]:
        """Squared write: coefficient i lands on wire i+1 mod m."""
        return self.read_permutation(-1)

    def mult_stages(self) -> list[tuple[int, int, int, int]]:
        """General product stages as (a, b, c, c_step), one depth-1 stage per
        index-table term: gate i multiplies a_(a+i) by b_(b+i) into c_i."""
        return [(fa, fb, 0, 1) for _, fa, fb in gnb_stage_bases(self.params)]

    def self_mult_stages(self, r: int, reverse: bool = False) -> Iterator[SelfPowerStage]:
        """Stages of a * a^(2^r), colored along the cosets of each delta; last
        stage first with ``reverse``.

        A stage's products pair coefficient f with f + delta for every f, into
        output coefficient f - first. A zero delta (mod m) collapses each
        product to a single coefficient: a layer of CNOTs. Otherwise the
        pairs are the edges of the shift-by-delta cycles on Z_m, colored by
        ``_coset_colors``; that coloring depends on delta mod m only, so it is
        kept per delta while colorings * m < _COLORING_CACHE (three m-long
        columns each, so at most about 3 * 2^18 index entries per basis).
        """
        m = self.m
        idx = self._idx
        bases = gnb_stage_bases(self.params, r)
        for label, fa, fb in reversed(bases) if reverse else bases:
            delta = fb - fa
            d = delta % m
            k = fa % m
            if d == 0:
                layer = (idx[k:] + idx[:k], None, idx)
                yield SelfPowerStage(label, "cnot", delta, ((layer,),))
                continue
            colors = self._colorings.get(d)
            if colors is None:
                colors = _coset_colors(idx, d)
                if len(self._colorings) * m < _COLORING_CACHE:
                    self._colorings[d] = colors
            out = idx[m - k:] + idx[:m - k]  # out[f] = (f - fa) mod m
            classes = tuple(((x, y, list(map(out.__getitem__, f))),) for x, y, f in colors)
            yield SelfPowerStage(label, "toffoli", delta, classes)

    def mult_bounds(self) -> tuple[int, int]:
        """(depth, gates) of the general multiplier, T = t rounded up to even."""
        T = self.t + self.t % 2
        return T * self.m - 1, T * self.m * self.m - self.m

    def inverter_bounds(self) -> ResourceBound:
        return bounds_gnb(self.m, self.t)


_REPRESENTATIONS = {cls.representation: cls for cls in (GhostBit, Gnb)}


# ---------------------------------------------------------------------------
# field specification and the inversion plan on classical values


@dataclass(frozen=True)
class FieldSpec:
    """A field degree together with the chosen circuit representation;
    ``rep`` is the representation object built from them."""

    m: int
    representation: Representation
    gnb_params: Optional[GnbParams] = None
    rep: Union[GhostBit, Gnb] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 2:
            raise UnsupportedDegree("field degree must be at least 2")
        rep = _REPRESENTATIONS[self.representation](self.m, self.gnb_params)
        object.__setattr__(self, "rep", rep)

    @classmethod
    def ghost_bit(cls, m: int) -> "FieldSpec":
        return cls(m=m, representation=Representation.GHOST_BIT)

    @classmethod
    def gnb(cls, m: int, t: Optional[int] = None) -> "FieldSpec":
        params = make_gnb_params(m, t) if t is not None else find_gnb_type(m)
        return cls(m=m, representation=Representation.GNB, gnb_params=params)

    @classmethod
    def of(cls, representation: Union[Representation, str], m: int, t: Optional[int] = None) -> "FieldSpec":
        """Spec for a representation given by member or name ("gbb"/"gnb");
        a type t only applies to the normal basis."""
        if Representation(representation) is Representation.GNB:
            return cls.gnb(m, t=t)
        if t is not None:
            raise ValueError("a type t only applies to the gnb representation")
        return cls.ghost_bit(m)

    @property
    def width(self) -> int:
        """Wires per register: m+1 ghost-bit, m normal basis."""
        return self.rep.width


def itoh_tsujii_inverse(spec: FieldSpec, a: int) -> int:
    """Run the inversion plan on classical values; zero maps to zero.

    This follows the multiplication schedule register by register, exactly
    like the synthesized circuit does, and serves as the reference for the
    plan itself (independent tests check it against extended-Euclid and
    product-equals-identity oracles).
    """
    rep = spec.rep
    plan = addition_chain(spec.m)
    regs = [0] * plan.register_count
    regs[0] = a
    for b in plan.ladder + plan.combine:
        if b.kind == "self_power":
            operand = rep.frobenius(regs[b.source_reg], b.r)
        else:
            operand = rep.frobenius(regs[b.operand_reg], b.operand_exponent)
        regs[b.target_reg] = rep.mult(regs[b.source_reg], operand)
    return rep.frobenius(regs[plan.output_reg], 1)


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
    if _gnb_violation(m, t) or multiplicative_order(u, p) != t:
        return False
    stage_products = [0] * m
    for _, fa, fb in gnb_stage_bases(params):
        stage_products[(fb - fa) % m] ^= 1 << (-fa % m)
    return all(gnb_mult(params, 1, 1 << d) == stage_products[d] for d in range(m))
