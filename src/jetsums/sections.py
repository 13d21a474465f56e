"""Spaces of sections on the projective line, their duals, and divisors.

A degree bound r and jet order m fix the space P_{r,m}: polynomials of
degree <= r in x with coefficients in R_m = F_p[t]/t^(m+1).  Its dimension
over F_p is (r+1)(m+1).  Effective divisors on the line are a monic
polynomial (finite part) together with a multiplicity at infinity; vanishing
to order k at infinity means the top k coefficients are zero, via the local
coordinate 1/x.

Sections themselves are coefficient arrays of the jet kernel in
``counting``.  This module keeps the functionals on them, the budget and
the bounded memo every route shares, and the divisor search: the Hankel
systems of ``hankel_splits`` give the table of minimal divisors of every
functional and ``expsums.classify_arc``'s minimizer of one.  The scalar
``JetPoly`` model and the divisor scan are the tests' oracles
(``tests/oracles.py``).
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

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


def check_hankel_budget(r: int, functionals: int, budget: int | None) -> None:
    """Refuse a minimal-divisor search over this many functionals on P_r
    above the budget.  The figure is the Hankel elimination work: for each
    functional, the entry-column work max(R, 0) * (dh + 1)^2 of every
    (divisor degree b, finite degree dh)."""
    work = sum(
        (r - b + 1) * (dh + 1) ** 2 for b in range(r + 1) for dh in range(b + 1)
    )
    check_budget(functionals * work, budget, "minimal divisor Hankel eliminations")


def _hankel(digits: np.ndarray, nrows: int, dh: int) -> np.ndarray:
    """The augmented Hankel matrices of every row a of digits: row i is
    (a[i+dh-1], ..., a[i], a[i+dh]), the columns of h_(dh-1), ..., h_0 in
    reverse order and then the right-hand side."""
    cols = np.append(np.arange(dh - 1, -1, -1), dh)
    return digits[:, np.arange(nrows)[:, None] + cols]


def hankel_splits(digits: np.ndarray, p: int, r: int, b: int):
    """The degree-b divisors that each functional factors through, one
    finite degree dh = b, ..., 0 at a time.

    A functional a (a row of digits, its coordinates on P_r) factors
    through Z = (h, k_inf), deg h = dh, exactly when sum_j a[i+j] h_j = 0
    for i < R = r - b + 1.  With h monic that is the Hankel system
    (a[i+j])_{i<R, j<dh} h' = -a[i+dh], consistent iff the augmented
    matrix has no pivot in its last column, and then solved by
    p^(dh - rank) monic h.  Yields (dh, red, count): red the rref stack of
    one ``linalg.rref_batch`` call, count[i] the number of monic h of
    degree dh with row i through (h, b - dh), 0 where inconsistent.
    """
    nrows = r - b + 1
    for dh in range(b, -1, -1):
        red, rank_aug = linalg.rref_batch(_hankel(digits, nrows, dh), p)
        rank_h = red[:, :, :dh].any(axis=2).sum(axis=1)
        yield dh, red, np.where(rank_aug == rank_h, p ** (dh - rank_h), 0)


def first_monic(red: np.ndarray, dh: int, p: int) -> tuple[int, ...]:
    """The monic h = (h_0, ..., h_(dh-1), 1) of one consistent reduced
    system of ``hankel_splits`` with every free coordinate 0.  The columns
    run h_(dh-1), ..., h_0, so this is the lexicographically first
    solution, h_0 most significant."""
    h = [0] * dh + [1]
    for row in red:
        lead = np.flatnonzero(row[:dh])
        if lead.size:
            h[dh - 1 - lead[0]] = -int(row[dh]) % p
    return tuple(h)


def minimal_divisor_table(p: int, r: int, budget: int | None = None):
    """Minimal divisor degree of every t-degree-zero functional on P_r.

    Returns (degree, multiplicity), two int64 arrays indexed by the
    little-endian coordinate code of the functional: degree[code] is the
    smallest degree of a divisor it factors through, multiplicity[code]
    counts all divisors of that degree it factors through (1 wherever the
    minimizer is unique).  Degrees are tried upward; at each (degree,
    split) the Hankel matrices of every still-unresolved functional go
    through one ``linalg.rref_batch`` call (``hankel_splits``).
    """
    check_hankel_budget(r, p ** (r + 1), budget)
    total = p ** (r + 1)
    digits = np.arange(total)[:, None] // p ** np.arange(r + 1) % p
    degs = np.full(total, -1, dtype=np.int64)
    mult = np.zeros(total, dtype=np.int64)
    todo = np.arange(total)
    for b in range(r + 2):
        found = sum(count for _, _, count in hankel_splits(digits[todo], p, r, b))
        hit = found > 0
        degs[todo[hit]] = b
        mult[todo[hit]] = found[hit]
        todo = todo[~hit]
        if todo.size == 0:
            break
    return degs, mult
