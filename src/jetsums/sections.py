"""Spaces of sections on the projective line, their duals, and divisors.

A degree bound r and jet order m fix the space P_{r,m}: polynomials of
degree <= r in x with coefficients in R_m = F_p[t]/t^(m+1).  Its dimension
over F_p is (r+1)(m+1).  Effective divisors on the line are a monic
polynomial (finite part) together with a multiplicity at infinity; vanishing
to order k at infinity means the top k coefficients are zero, via the local
coordinate 1/x.
"""

from __future__ import annotations

import itertools
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from .arith import Jet, check_prime
from . import linalg


class BudgetExceeded(Exception):
    """Raised when an enumeration would exceed the configured budget."""

    def __init__(self, needed: int, budget: int, what: str = "enumeration"):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{what} needs ~{needed} operations, budget is {budget}"
        )


DEFAULT_BUDGET = 10**9


def check_budget(needed: int, budget: int | None, what: str = "enumeration") -> None:
    limit = DEFAULT_BUDGET if budget is None else budget
    if needed > limit:
        raise BudgetExceeded(needed, limit, what)


class Memo:
    """The results a process reuses, keyed by tuples that begin with the
    route's name: the SIZE most recently used, the least recently used
    dropped first, with hits and misses counted per route.  A hit is not
    checked against the budget again: every route makes all of its refusals
    before ``get``, so the caller has already refused or admitted this
    call's budget, and no refusal depends on an earlier call."""

    SIZE = 32

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        """Forget every result and zero the counts."""
        self._items, self.hits, self.misses = OrderedDict(), Counter(), Counter()

    def get(self, key: tuple, build):
        """The result stored under key, or build() stored under it."""
        hit = key in self._items
        (self.hits if hit else self.misses)[key[0]] += 1
        value = self._items.pop(key) if hit else build()
        self._items[key] = value  # now the most recently used
        if len(self._items) > self.SIZE:
            self._items.popitem(last=False)
        return value


MEMO = Memo()


class JetPoly:
    """Element of P_{r,m}: coeffs[i] is the Jet multiplying x^i."""

    __slots__ = ("p", "r", "m", "coeffs")

    def __init__(self, p: int, r: int, m: int, coeffs):
        self.p = p
        self.r = r
        self.m = m
        coeffs = tuple(coeffs)
        if len(coeffs) != r + 1:
            raise ValueError("need r+1 jet coefficients")
        self.coeffs = coeffs

    @classmethod
    def zero(cls, p: int, r: int, m: int) -> "JetPoly":
        return cls(p, r, m, tuple(Jet.zero(p, m) for _ in range(r + 1)))

    @classmethod
    def from_layers(cls, p: int, r: int, m: int, layers) -> "JetPoly":
        """Build from layers[k][i] = coefficient of t^k x^i."""
        return cls(
            p, r, m,
            (Jet(p, tuple(layers[k][i] for k in range(m + 1))) for i in range(r + 1)),
        )

    @classmethod
    def from_ints(cls, p: int, r: int, m: int, ints) -> "JetPoly":
        """Build from plain F_p coefficients (t-degree zero)."""
        return cls(p, r, m, (Jet.const(p, m, int(c)) for c in ints))

    def layer(self, k: int) -> tuple[int, ...]:
        """F_p coefficient vector of t^k."""
        return tuple(c.coeffs[k] for c in self.coeffs)

    def layers(self) -> list[tuple[int, ...]]:
        return [self.layer(k) for k in range(self.m + 1)]

    def mod_t(self) -> tuple[int, ...]:
        return self.layer(0)

    def __add__(self, other: "JetPoly") -> "JetPoly":
        self._check(other)
        return JetPoly(
            self.p, self.r, self.m,
            (a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "JetPoly") -> "JetPoly":
        self._check(other)
        return JetPoly(
            self.p, self.r, self.m,
            (a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "JetPoly":
        return JetPoly(self.p, self.r, self.m, (-a for a in self.coeffs))

    def scale(self, u: Jet) -> "JetPoly":
        return JetPoly(self.p, self.r, self.m, (u * a for a in self.coeffs))

    def _check(self, other: "JetPoly") -> None:
        if (self.p, self.r, self.m) != (other.p, other.r, other.m):
            raise ValueError("mismatched section spaces")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JetPoly)
            and (self.p, self.r, self.m) == (other.p, other.r, other.m)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.r, self.m, self.coeffs))

    def __repr__(self):
        return f"JetPoly(p={self.p}, r={self.r}, m={self.m}, layers={self.layers()})"


def mul_sections(f: JetPoly, g: JetPoly) -> JetPoly:
    """Product P_{r1,m} x P_{r2,m} -> P_{r1+r2,m}, truncating at t^(m+1)."""
    if f.p != g.p or f.m != g.m:
        raise ValueError("mismatched section spaces")
    p, m = f.p, f.m
    out = [Jet.zero(p, m) for _ in range(f.r + g.r + 1)]
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return JetPoly(p, f.r + g.r, m, out)


@dataclass(frozen=True)
class DivisorP1:
    """Effective divisor: monic finite part h plus a multiplicity at infinity.

    h is stored as a coefficient tuple (c_0, ..., c_(j-1), 1); the zero
    divisor is h = (1,) with k_inf = 0.
    """

    p: int
    h: tuple[int, ...]
    k_inf: int

    def __post_init__(self):
        if not self.h or self.h[-1] != 1:
            raise ValueError("finite part must be monic")
        if self.k_inf < 0:
            raise ValueError("multiplicity at infinity must be >= 0")

    @classmethod
    def zero(cls, p: int) -> "DivisorP1":
        return cls(p, (1,), 0)

    @property
    def finite_degree(self) -> int:
        return len(self.h) - 1

    @property
    def degree(self) -> int:
        return self.finite_degree + self.k_inf

    def is_zero(self) -> bool:
        return self.degree == 0

    def __repr__(self):
        return f"DivisorP1(p={self.p}, h={list(self.h)}, k_inf={self.k_inf})"


class DualFunctional:
    """Element of P_{r,m}^dual in coordinate dual-basis form.

    parts[i] is the F_p row vector alpha_i of length r+1; the action on a
    section y returns the jet whose t^k coefficient is
    sum_{i+j=k} alpha_i(y_j).
    """

    __slots__ = ("p", "r", "m", "parts")

    def __init__(self, p: int, r: int, m: int, parts):
        self.p = p
        self.r = r
        self.m = m
        parts = tuple(tuple(int(c) % p for c in part) for part in parts)
        if len(parts) != m + 1 or any(len(part) != r + 1 for part in parts):
            raise ValueError("need m+1 parts of length r+1")
        self.parts = parts

    @classmethod
    def zero(cls, p: int, r: int, m: int) -> "DualFunctional":
        return cls(p, r, m, ((0,) * (r + 1),) * (m + 1))

    @classmethod
    def from_flat(cls, p: int, r: int, m: int, flat) -> "DualFunctional":
        flat = list(flat)
        return cls(
            p, r, m,
            (flat[i * (r + 1):(i + 1) * (r + 1)] for i in range(m + 1)),
        )

    def flat(self) -> tuple[int, ...]:
        return tuple(c for part in self.parts for c in part)

    def apply_layer(self, i: int, layer) -> int:
        return sum(a * int(b) for a, b in zip(self.parts[i], layer)) % self.p

    def __call__(self, y: JetPoly) -> Jet:
        if (self.p, self.r) != (y.p, y.r) or self.m != y.m:
            raise ValueError("functional and section live on different spaces")
        ylayers = y.layers()
        out = [
            sum(self.apply_layer(i, ylayers[k - i]) for i in range(k + 1)) % self.p
            for k in range(self.m + 1)
        ]
        return Jet(self.p, out)

    def mod_t(self) -> tuple[int, ...]:
        return self.parts[0]

    def is_zero(self) -> bool:
        return not any(any(part) for part in self.parts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DualFunctional)
            and (self.p, self.r, self.m) == (other.p, other.r, other.m)
            and self.parts == other.parts
        )

    def __hash__(self):
        return hash((self.p, self.r, self.m, self.parts))

    def __repr__(self):
        return f"DualFunctional(p={self.p}, r={self.r}, m={self.m}, parts={self.parts})"


def vanishing_basis(p: int, r: int, z: DivisorP1) -> list[tuple[int, ...]]:
    """F_p basis of sections of degree <= r vanishing on the divisor.

    Multiples of the finite part h with degree <= r - k_inf, i.e.
    { h * x^i : 0 <= i <= r - deg h - k_inf }; empty when deg Z > r.
    """
    if r < 0:
        return []
    basis = []
    dh = z.finite_degree
    for i in range(r - dh - z.k_inf + 1):
        vec = [0] * (r + 1)
        for j, c in enumerate(z.h):
            vec[i + j] = c % p
        basis.append(tuple(vec))
    return basis


def factors_through(alpha: DualFunctional, z: DivisorP1) -> bool:
    """True iff the t^0 part of alpha kills every section vanishing on Z."""
    a0 = alpha.parts[0]
    for vec in vanishing_basis(alpha.p, alpha.r, z):
        if sum(a * b for a, b in zip(a0, vec)) % alpha.p != 0:
            return False
    return True


def enumerate_divisors(p: int, degree: int):
    """All effective divisors of the given degree, k_inf then h, h by
    lexicographic coefficient order."""
    check_prime(p)
    for k_inf in range(degree + 1):
        dh = degree - k_inf
        for tail in itertools.product(range(p), repeat=dh):
            yield DivisorP1(p, tuple(tail) + (1,), k_inf)


def minimal_divisor(alpha: DualFunctional) -> tuple[DivisorP1, int, bool]:
    """Smallest-degree divisor the functional factors through.

    Scans degrees upward; returns (divisor, degree, unique) where unique
    says the minimizing degree had exactly one match.  Ties return the
    first divisor in enumeration order.
    """
    for b in range(alpha.r + 2):
        found = None
        unique = True
        for z in enumerate_divisors(alpha.p, b):
            if factors_through(alpha, z):
                if found is None:
                    found = z
                else:
                    unique = False
                    break
        if found is not None:
            return found, b, unique
    raise AssertionError("every functional factors through a degree r+1 divisor")


def _poly_trim(c: list[int], p: int) -> list[int]:
    c = [x % p for x in c]
    while c and c[-1] == 0:
        c.pop()
    return c


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of F_p polynomials given as coefficient lists."""
    a, b = _poly_trim(a, p), _poly_trim(b, p)
    while b:
        inv = linalg.inverse_mod(b[-1], p)
        r = a[:]
        while len(r) >= len(b):
            lead = r[-1] * inv % p
            shift = len(r) - len(b)
            if lead:
                for i, c in enumerate(b):
                    r[i + shift] = (r[i + shift] - lead * c) % p
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, r
    if a:
        inv = linalg.inverse_mod(a[-1], p)
        a = [c * inv % p for c in a]
    return a


def section_space_size(p: int, r: int, m: int, copies: int = 1) -> int:
    return p ** ((r + 1) * (m + 1) * copies)


def count_minimizers(alpha: DualFunctional, degree: int) -> int:
    return sum(
        1 for z in enumerate_divisors(alpha.p, degree) if factors_through(alpha, z)
    )


def check_divisor_table_budget(p: int, r: int, budget: int | None) -> None:
    """Refuse a minimal-divisor table above the budget.  The figure is the
    Hankel elimination work: p^(r+1) functionals, each with the entry-column
    work max(R, 0) * (dh + 1)^2 of every (divisor degree b, finite degree dh)."""
    work = sum(
        (r - b + 1) * (dh + 1) ** 2 for b in range(r + 1) for dh in range(b + 1)
    )
    check_budget(p ** (r + 1) * work, budget, "minimal divisor Hankel eliminations")


def minimal_divisor_table(p: int, r: int, budget: int | None = None):
    """Minimal divisor degree of every t-degree-zero functional on P_r.

    Returns (degree, multiplicity), two int64 arrays indexed by the
    little-endian coordinate code of the functional: degree[code] is the
    smallest degree of a divisor it factors through, multiplicity[code]
    counts all divisors of that degree it factors through (1 wherever the
    minimizer is unique).

    A functional a factors through Z = (h, k_inf), deg h = dh, exactly when
    sum_j a[i+j] h_j = 0 for i < R = r - deg Z + 1.  With h monic that is
    the Hankel system (a[i+j])_{i<R, j<dh} h' = -a[i+dh], consistent iff the
    augmented R x (dh+1) Hankel matrix has no pivot in its last column, and
    then solved by p^(dh - rank) monic h.  Degrees are tried upward; at each
    (degree, split) the Hankel matrices of every still-unresolved functional
    go through one ``linalg.rref_batch`` call.
    """
    check_divisor_table_budget(p, r, budget)
    total = p ** (r + 1)
    digits = np.arange(total)[:, None] // p ** np.arange(r + 1) % p
    degs = np.full(total, -1, dtype=np.int64)
    mult = np.zeros(total, dtype=np.int64)
    todo = np.arange(total)
    for b in range(r + 2):
        nrows = r - b + 1
        found = np.zeros(todo.size, dtype=np.int64)
        for dh in range(b + 1):
            if nrows <= 0:
                found += p**dh
                continue
            hankel = np.lib.stride_tricks.sliding_window_view(
                digits[todo, : nrows + dh], dh + 1, axis=1
            )
            red, rank_aug = linalg.rref_batch(hankel, p)
            rank_h = red[:, :, :dh].any(axis=2).sum(axis=1)
            ok = rank_aug == rank_h
            found[ok] += p ** (dh - rank_h[ok])
        hit = found > 0
        degs[todo[hit]] = b
        mult[todo[hit]] = found[hit]
        todo = todo[~hit]
        if todo.size == 0:
            break
    return degs, mult
