"""Independent reference arithmetic and a minimal netlist interpreter.

Nothing here imports gf2synth. The benchmark uses these functions to
certify the expected outputs it records and, on every invocation, a sample
of the outputs of the circuits it runs, so that no check rests on
``gnb_mult``'s index table, which the circuits are built from as well.

* ``GnbRef``: products over a Gaussian normal basis of type t, computed in
  the cyclotomic ring F_2[x]/(x^p - 1), p = t*m + 1 (Gao, von zur Gathen,
  Panario and Shoup, "Algorithms for exponentiation in finite fields",
  J. Symb. Comput. 29, 2000). Coordinate i multiplies the Gauss period
  beta^(2^i) = sum over k in K of x^(2^i k mod p), where K is the subgroup
  of order t in (Z/p)^*. A product is folded mod x^p - 1; coordinate i of
  the result is the coefficient of x^(2^i mod p) plus the constant
  coefficient, because 1 + x + ... + x^(p-1) vanishes in the field.
* ``GhostRef``: carry-less products mod x^(m+1) + 1 (the ghost-bit ring) and
  mod the all-one polynomial 1 + x + ... + x^m (the field it represents).
* ``run_netlist``: bit-sliced interpretation of netlist text, with gate
  counts and greedy ASAP depths computed along the way.

Bit i of an int is coordinate (or coefficient) i throughout.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

T_PER_TOFFOLI = 7
T_LAYERS_PER_TOFFOLI = 6


def clmul(a: int, b: int) -> int:
    """Carry-less (GF(2)[x]) product of two bit-packed polynomials."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def poly_mod(a: int, f: int) -> int:
    """Remainder of a modulo f in GF(2)[x]."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GnbRef:
    """Type-t Gaussian normal basis arithmetic in F_2[x]/(x^p - 1)."""

    def __init__(self, m: int, t: int):
        p = t * m + 1
        if not _is_prime(p):
            raise ValueError(f"t*m + 1 = {p} is not prime")
        subgroup = [k for k in range(1, p) if pow(k, t, p) == 1]
        if len(subgroup) != t:
            raise ValueError(f"no subgroup of order {t} mod {p}")
        self.m, self.t, self.p = m, t, p
        self._mask = (1 << p) - 1
        self._period = []  # ring image of basis element i
        self._slot = []  # exponent 2^i mod p read back as coordinate i
        for i in range(m):
            two_i = pow(2, i, p)
            image = 0
            for k in subgroup:
                image |= 1 << (two_i * k % p)
            self._period.append(image)
            self._slot.append(two_i)
        if len(set(self._slot)) != m or self._covers() != self._mask ^ 1:
            raise ValueError(f"the periods of type {t} do not form a basis for m={m}")
        self.one = (1 << m) - 1
        probe = 0b1011 & self.one
        if self.mult(self.one, probe) != probe:
            raise ValueError("reference self-check failed: 1 * a != a")

    def _covers(self) -> int:
        acc = 0
        for image in self._period:
            if acc & image:
                return 0
            acc |= image
        return acc

    def to_ring(self, a: int) -> int:
        acc = 0
        i = 0
        while a:
            if a & 1:
                acc ^= self._period[i]
            a >>= 1
            i += 1
        return acc

    def from_ring(self, c: int) -> int:
        c = (c & self._mask) ^ (c >> self.p)
        c0 = c & 1
        out = 0
        for i, slot in enumerate(self._slot):
            if ((c >> slot) & 1) ^ c0:
                out |= 1 << i
        return out

    def mult(self, a: int, b: int) -> int:
        return self.from_ring(clmul(self.to_ring(a), self.to_ring(b)))

    def frobenius(self, a: int, r: int) -> int:
        """a^(2^r) by r squarings, each an independent ring product."""
        for _ in range(r):
            a = self.mult(a, a)
        return a

    def self_mult(self, a: int, r: int) -> int:
        return self.mult(a, self.frobenius(a, r))

    def is_inverse(self, a: int, b: int) -> bool:
        """b is a's inverse (0 maps to 0)."""
        if a == 0:
            return b == 0
        return self.mult(a, b) == self.one


class GhostRef:
    """Ghost-bit ring F_2[x]/(x^(m+1) + 1) over the field mod 1 + x + ... + x^m."""

    def __init__(self, m: int):
        self.m = m
        self.n = m + 1
        self._mask = (1 << self.n) - 1
        self.field_poly = self._mask  # the all-one polynomial of degree m

    def mult(self, a: int, b: int) -> int:
        c = clmul(a, b)
        return (c & self._mask) ^ (c >> self.n)

    def frobenius(self, a: int, r: int) -> int:
        for _ in range(r):
            a = self.mult(a, a)
        return a

    def self_mult(self, a: int, r: int) -> int:
        return self.mult(a, self.frobenius(a, r))

    def retract(self, a: int) -> int:
        """The polynomial-basis field element a ghost-bit vector represents."""
        return poly_mod(a, self.field_poly)

    def is_inverse(self, a: int, b: int) -> bool:
        """Ghost-bit vector b represents the inverse of polynomial-basis a."""
        if a == 0:
            return self.retract(b) == 0
        return poly_mod(clmul(a, self.retract(b)), self.field_poly) == 1


def pack(values: list[int], length: int) -> list[int]:
    """Bit-slice: entry i of the result packs bit i of every value."""
    out = [0] * length
    for b, v in enumerate(values):
        i = 0
        while v:
            if v & 1:
                out[i] |= 1 << b
            v >>= 1
            i += 1
    return out


def unpack(wires: list[int], count: int) -> list[int]:
    """Inverse of ``pack``: value b collects bit b of every wire."""
    out = [0] * count
    for i, word in enumerate(wires):
        b = 0
        while word:
            if word & 1:
                out[b] |= 1 << i
            word >>= 1
            b += 1
    return out


class NetlistRun:
    """Outcome of interpreting one netlist."""

    def __init__(self, width, registers, state, toffoli, cnot, depth, toffoli_depth):
        self.width = width
        self.registers = registers
        self.state = state
        self.toffoli = toffoli
        self.cnot = cnot
        self.depth = depth
        self.toffoli_depth = toffoli_depth

    def summary(self) -> dict[str, int]:
        """The resource figures in the key order ``synth`` prints them."""
        return {
            "toffoli": self.toffoli,
            "cnot": self.cnot,
            "depth": self.depth,
            "toffoli_depth": self.toffoli_depth,
            "qubits": self.width,
            "t_count": T_PER_TOFFOLI * self.toffoli,
            "t_depth": T_LAYERS_PER_TOFFOLI * self.toffoli_depth,
        }

    def wires(self, start: int, length: int) -> list[int]:
        return self.state[start : start + length]


def run_netlist(
    lines: Iterable[str],
    preset: Callable[[dict[str, tuple[int, int]]], dict[int, int]],
    *,
    depth: bool = False,
) -> NetlistRun:
    """Interpret netlist text on a bit-sliced state.

    Once the header has been read, ``preset(registers)`` maps wires to their
    packed initial values; every other wire starts at 0. With ``depth`` the
    greedy ASAP depth over all gates and over Toffolis only is computed as
    well (a gate lands one layer after the latest gate on any of its wires).
    """
    width: Optional[int] = None
    registers: dict[str, tuple[int, int]] = {}
    state: list[int] = []
    ready: list[int] = []
    tready: list[int] = []
    n_tof = n_cnot = d_all = d_tof = 0
    started = False
    for raw in lines:
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        op = toks[0]
        if not started and op in ("ccx", "cx"):
            started = True
            if width is None:
                raise ValueError("gate before the qubits line")
            for wire, word in preset(registers).items():
                state[wire] = word
        if op == "ccx":
            a, b, t = int(toks[1]), int(toks[2]), int(toks[3])
            state[t] ^= state[a] & state[b]
            n_tof += 1
            if depth:
                layer = max(ready[a], ready[b], ready[t]) + 1
                ready[a] = ready[b] = ready[t] = layer
                d_all = max(d_all, layer)
                layer = max(tready[a], tready[b], tready[t]) + 1
                tready[a] = tready[b] = tready[t] = layer
                d_tof = max(d_tof, layer)
        elif op == "cx":
            c, t = int(toks[1]), int(toks[2])
            state[t] ^= state[c]
            n_cnot += 1
            if depth:
                layer = max(ready[c], ready[t]) + 1
                ready[c] = ready[t] = layer
                d_all = max(d_all, layer)
        elif op == "qubits":
            width = int(toks[1])
            state = [0] * width
            ready = [0] * width
            tready = [0] * width
        elif op == "reg":
            registers[toks[1]] = (int(toks[2]), int(toks[3]))
        else:
            raise ValueError(f"unknown netlist directive {op!r}")
    if width is None:
        raise ValueError("netlist has no qubits line")
    if not started:
        for wire, word in preset(registers).items():
            state[wire] = word
    return NetlistRun(width, registers, state, n_tof, n_cnot, d_all, d_tof)
