"""The hypersurface datum: a degree-d form as a symmetric coefficient tensor.

Forms are ingested as sparse monomial lists (exponent vector, coefficient)
and symmetrized by dividing by multinomial coefficients; this needs p > d,
which is also what makes the d! factor in the multilinear forms invertible.
Evaluation, gradients and the multilinear forms Psi_j run on the array jet
kernel in ``counting`` (``batch_eval_jets``, ``batch_gradient``,
``_psi_batch``); the scalar ``eval_form`` and ``gradient`` on ``JetPoly``
sections are the tests' oracles (``tests/oracles.py``).  The smoothness
search over F_{p^k} = F_p[theta]/(g) is the array jet kernel's
``counting.batch_gradient`` on polynomials in theta plus one reduction mod g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .arith import check_prime
from .sections import DEFAULT_BUDGET, check_budget, poly_gcd
from . import linalg


def _multiset_permutations(idx: tuple[int, ...]) -> int:
    counts = {}
    for j in idx:
        counts[j] = counts.get(j, 0) + 1
    total = math.factorial(len(idx))
    for c in counts.values():
        total //= math.factorial(c)
    return total


@dataclass(frozen=True)
class SymmetricForm:
    """Degree-d form F = sum a_{j1..jd} x_{j1}...x_{jd} on n+1 variables.

    ``tensor`` maps sorted index tuples to the tensor entry a (stored once
    per orbit); ``monomials`` maps exponent vectors to the F_p coefficient
    of the expanded monomial.
    """

    p: int
    n: int
    d: int
    tensor: dict = field(hash=False)
    monomials: dict = field(hash=False)
    name: str = "form"

    def key(self) -> tuple:
        return (self.p, self.n, self.d, tuple(sorted(self.monomials.items())))

    def __hash__(self):
        return hash(self.key())

    def __eq__(self, other):
        return isinstance(other, SymmetricForm) and self.key() == other.key()

    def tensor_entry(self, idx: tuple[int, ...]) -> int:
        return self.tensor.get(tuple(sorted(idx)), 0)


def make_form(p: int, n: int, d: int, monomial_list, name: str = "form") -> SymmetricForm:
    """Build a form from (exponent vector, coefficient) pairs.

    Requires p > d so the symmetrization divisors are invertible.
    """
    check_prime(p)
    if p <= d:
        raise ValueError(f"need p > d (got p={p}, d={d})")
    monomials: dict[tuple[int, ...], int] = {}
    for exps, c in monomial_list:
        exps = tuple(int(e) for e in exps)
        if len(exps) != n + 1 or sum(exps) != d or min(exps) < 0:
            raise ValueError(f"monomial {exps} does not have total degree {d}")
        monomials[exps] = (monomials.get(exps, 0) + int(c)) % p
    monomials = {e: c for e, c in monomials.items() if c}
    tensor: dict[tuple[int, ...], int] = {}
    for exps, c in monomials.items():
        idx = tuple(
            j for j, e in enumerate(exps) for _ in range(e)
        )
        perms = _multiset_permutations(idx)
        tensor[idx] = c * linalg.inverse_mod(perms % p, p) % p
    return SymmetricForm(p, n, d, tensor, monomials, name)


def conic_form(p: int) -> SymmetricForm:
    """x0*x2 - x1^2, the smooth plane conic (n=2, d=2)."""
    return make_form(p, 2, 2, [((1, 0, 1), 1), ((0, 2, 0), -1)], name="conic")


def fermat_form(p: int, n: int, d: int) -> SymmetricForm:
    """Sum of d-th powers of the n+1 coordinates."""
    mons = []
    for j in range(n + 1):
        e = [0] * (n + 1)
        e[j] = d
        mons.append((tuple(e), 1))
    return make_form(p, n, d, mons, name="fermat")


def parse_form_file(text: str, p: int, name: str = "form") -> SymmetricForm:
    """Text format: lines ``e0 e1 ... en c`` (coefficient c on the monomial
    with exponents e_i), ``#`` comments and blank lines ignored."""
    mons = []
    nvars = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: need exponents and a coefficient")
        *exps, c = parts
        exps = tuple(int(e) for e in exps)
        if nvars is None:
            nvars = len(exps)
        elif len(exps) != nvars:
            raise ValueError(f"line {lineno}: inconsistent variable count")
        mons.append((exps, int(c)))
    if not mons:
        raise ValueError("form file contains no monomials")
    degs = {sum(e) for e, _ in mons}
    if len(degs) != 1:
        raise ValueError(f"monomials have mixed total degrees {sorted(degs)}")
    d = degs.pop()
    return make_form(p, nvars - 1, d, mons, name=name)


def named_form(name: str, p: int, n: int | None = None, d: int | None = None) -> SymmetricForm:
    if name == "conic":
        return conic_form(p)
    if name == "fermat":
        if n is None or d is None:
            raise ValueError("fermat needs explicit n and d")
        return fermat_form(p, n, d)
    raise ValueError(f"unknown built-in form {name!r}")


# ---------------------------------------------------------------------------
# smoothness search over extension fields


def irreducible_poly(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k in lexicographic coefficient order."""
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        poly = tail + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    k = len(poly) - 1
    if poly[0] == 0:
        return False
    # trial division by all monic polys of degree <= k/2: a monic divisor
    # is its own gcd with poly
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            div = list(tail) + [1]
            if poly_gcd(div, list(poly), p) == div:
                return False
    return True


@dataclass
class SmoothnessReport:
    verified_up_to: int
    certified: bool
    singular_witness: tuple | None
    searched_points: int

    @property
    def smooth_so_far(self) -> bool:
        return self.singular_witness is None


def smoothness_check(
    F: SymmetricForm,
    k_max: int | None = None,
    budget: int | None = None,
) -> SmoothnessReport:
    """Search projective points over F_{p^k}, k <= k_max, where the whole
    gradient vanishes.

    A clean sweep up to the Bezout cap (d-1)^n certifies smoothness; short
    of the cap the result is only a partial verification.
    """
    cap = (F.d - 1) ** F.n
    explicit = k_max is not None
    if k_max is None:
        # largest extension degree whose projective scan fits the budget
        limit = DEFAULT_BUDGET if budget is None else budget
        k_max = 1
        while k_max < cap and _scan_cost(F, k_max + 1) <= limit:
            k_max += 1
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    searched = 0
    for k in range(1, k_max + 1):
        if explicit:
            check_budget(_scan_cost(F, k), budget, f"smoothness search at k={k}")
        witness = _search_singular(F, k)
        searched += _point_count(F, k)
        if witness is not None:
            return SmoothnessReport(k, False, (k, witness), searched)
    return SmoothnessReport(k_max, k_max >= cap, None, searched)


def _point_count(F: SymmetricForm, k: int) -> int:
    q = F.p**k
    return (q ** (F.n + 1) - 1) // (q - 1)


def _scan_cost(F: SymmetricForm, k: int) -> int:
    return _point_count(F, k) * (F.n + 1) * F.d * k * k


def _search_singular(F: SymmetricForm, k: int):
    """Vectorized gradient-vanishing scan over P^n(F_{p^k}).

    F_{p^k} = F_p[theta]/(g) for the chosen irreducible g, so a point is a
    stack of n+1 polynomials in theta of degree < k: the jet kernel's
    ``batch_gradient`` (one layer, degree bound k-1) gives grad F as
    polynomials of degree <= (d-1)(k-1), and one product with the table of
    theta^j mod g reduces them into the field.  The scan enumerates
    projective representatives with first nonzero coordinate 1.
    """
    from .counting import batch_digits, batch_gradient

    p, n = F.p, F.n
    red = _reduction_table(irreducible_poly(p, k), p, (F.d - 1) * (k - 1))
    q = p**k
    for lead in range(n + 1):
        free = n - lead
        total = q**free
        batch = max(1, min(total, 1 << 16))
        for start in range(0, total, batch):
            idx = np.arange(start, min(start + batch, total), dtype=np.int64)
            X = np.zeros((idx.size, n + 1, 1, k), dtype=np.int64)
            X[:, lead, 0, 0] = 1
            X[:, lead + 1 :, 0] = batch_digits(idx, p, free * k).reshape(idx.size, free, k)
            grad = batch_gradient(F, X)[:, :, 0] @ red % p
            bad = ~grad.any(axis=(1, 2))
            if bad.any():
                i = int(np.argmax(bad))
                return tuple(tuple(int(c) for c in X[i, v, 0]) for v in range(n + 1))
    return None


def _gradient_monomials(F: SymmetricForm):
    out = []
    for j in range(F.n + 1):
        mons = []
        for exps, c in F.monomials.items():
            if exps[j] == 0:
                continue
            de = list(exps)
            coeff = c * exps[j] % F.p
            de[j] -= 1
            mons.append((tuple(de), coeff))
        out.append(mons)
    return out


def _reduction_table(modpoly: tuple[int, ...], p: int, top: int) -> np.ndarray:
    """x^j mod the irreducible for j = 0..top, as rows of length k."""
    k = len(modpoly) - 1
    rows = np.zeros((top + 1, k), dtype=np.int64)
    cur = [1] + [0] * (k - 1)
    for j in range(top + 1):
        rows[j] = cur
        shifted = [0] + cur  # multiply by x
        lead = shifted[k]
        cur = [(shifted[i] - lead * modpoly[i]) % p for i in range(k)]
    return rows
