"""Exact arithmetic substrate: prime fields and cyclotomic sums.

Two layers:

* ``F_p``  -- plain Python ints reduced mod p (p a machine prime).
* ``Cyclo`` -- elements of Z[zeta_p] stored as integer coefficient vectors
  on 1, zeta, ..., zeta^(p-1); exact, with equality modulo the relation
  1 + zeta + ... + zeta^(p-1) = 0.

Jets, elements of R_m = F_p[t]/t^(m+1), are coefficient arrays of the jet
kernel in ``counting``; the scalar ``Jet`` and the character ``psi_m`` on it
are the tests' oracles (``tests/oracles.py``).

Character values of sums over F_p-spaces always land in Z[zeta_p]; no
floating point enters except behind ``magnitude``, which returns a rigorous
enclosure computed with mpmath interval arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return p


class Cyclo:
    """Exact element of Z[zeta_p], zeta_p a primitive p-th root of unity.

    Stored as integer counts c_0..c_(p-1) meaning sum c_j * zeta^j.  Two
    vectors represent the same number iff their difference is a constant
    vector (since 1 + zeta + ... + zeta^(p-1) = 0).
    """

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts):
        self.p = p
        counts = tuple(int(c) for c in counts)
        if len(counts) != p:
            raise ValueError("need exactly p coefficients")
        self.counts = counts

    @classmethod
    def zero(cls, p: int) -> "Cyclo":
        return cls(p, (0,) * p)

    @classmethod
    def integer(cls, p: int, n: int) -> "Cyclo":
        return cls(p, (n,) + (0,) * (p - 1))

    @classmethod
    def root(cls, p: int, k: int) -> "Cyclo":
        """zeta_p^k."""
        c = [0] * p
        c[k % p] = 1
        return cls(p, c)

    def canonical(self) -> tuple[int, ...]:
        """Normal form with last coefficient 0."""
        last = self.counts[-1]
        return tuple(c - last for c in self.counts)

    def _check(self, other: "Cyclo") -> None:
        if self.p != other.p:
            raise ValueError("mismatched cyclotomic orders")

    def __add__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.p, (a + b for a, b in zip(self.counts, other.counts)))

    def __sub__(self, other: "Cyclo") -> "Cyclo":
        self._check(other)
        return Cyclo(self.p, (a - b for a, b in zip(self.counts, other.counts)))

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.p, (-a for a in self.counts))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo(self.p, (a * other for a in self.counts))
        self._check(other)
        out = [0] * self.p
        for i, a in enumerate(self.counts):
            if a == 0:
                continue
            for j, b in enumerate(other.counts):
                if b:
                    out[(i + j) % self.p] += a * b
        return Cyclo(self.p, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        cf = self.canonical()
        return not any(cf)


    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Cyclo.integer(self.p, other)
        return (
            isinstance(other, Cyclo)
            and self.p == other.p
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.p, self.canonical()))

    def __repr__(self):
        return f"Cyclo(p={self.p}, {list(self.counts)})"

    def norm_squared_profile(self) -> tuple[int, ...]:
        """Autocorrelation A_r with |self|^2 = sum_r A_r zeta^r (a real number)."""
        a = [0] * self.p
        for i, ci in enumerate(self.counts):
            if ci == 0:
                continue
            for j, cj in enumerate(self.counts):
                if cj:
                    a[(i - j) % self.p] += ci * cj
        return tuple(a)


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with floats rounded outward."""

    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _norm_sq_iv(v: Cyclo):
    """mpmath interval enclosing |v|^2 at the current iv precision."""
    prof = v.norm_squared_profile()
    iv = mpmath.iv
    total = iv.mpf(prof[0])
    for r in range(1, v.p):
        if prof[r]:
            total += prof[r] * iv.cos(2 * iv.pi * r / v.p)
    return total


def magnitude(v: Cyclo, precision_bits: int = 64) -> Interval:
    """Rigorous enclosure of |v| using interval arithmetic.

    |v|^2 = A_0 + sum_{r>0} A_r cos(2 pi r / p) with integer A_r, so the
    enclosure only needs interval cosines at rational multiples of pi.
    """
    if precision_bits < 53:
        raise ValueError("precision_bits must be at least 53")
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = precision_bits
        sq = _norm_sq_iv(v)
        # |v|^2 is a nonnegative real; clip rounding dips below zero
        lo = mpmath.sqrt(max(mpmath.mpf(0), sq.a))
        hi = mpmath.sqrt(sq.b)
        return Interval(_round_down(lo), _round_up(hi))
    finally:
        iv.prec = old


def _round_up(x) -> float:
    f = float(x)
    if mpmath.mpf(f) >= x:
        return f
    return math.nextafter(f, math.inf)


def _round_down(x) -> float:
    f = float(x)
    if mpmath.mpf(f) <= x:
        return f
    return math.nextafter(f, -math.inf)


def compare_abs_power(v: Cyclo, exponent: int, bound, precision_bits: int = 64):
    """Compare |v|^exponent against an exact nonnegative bound.

    Returns ("le" | "gt" | "undecided", ratio) where ratio is a float
    estimate of |v|^exponent / bound.  The comparison squares both sides so
    it stays rigorous: |v|^e <= b  iff  (|v|^2)^e <= b^2.
    """
    from fractions import Fraction

    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = precision_bits
        sq = _norm_sq_iv(v) ** exponent
        b2 = iv.mpf(bound.numerator) ** 2 / iv.mpf(bound.denominator) ** 2
        mid = math.sqrt(max(0.0, float(sq.mid)))
        ratio = mid / float(bound) if bound else math.inf
        if sq.b <= b2.a:
            return "le", ratio
        if sq.a > b2.b:
            return "gt", ratio
        return "undecided", ratio
    finally:
        iv.prec = old
