"""Independent oracles the tests check the package against.

Each function here is a slow or scalar route to a result the package
computes another way: the scalar jet model (``Jet``, ``psi_m``,
``JetPoly``, ``mul_sections``, functionals applied to sections,
``eval_form`` and ``gradient``) against the array jet kernel, scalar linear
algebra (``rref``, ``nullspace``, ``row_space``) against ``rref_batch``, the
scalar-rref keyed classes (``map_classes``) against ``counting.MapClasses``,
the divisor scan (``minimal_divisor``, ``count_minimizers``) against the
Hankel systems of the divisor table and of ``classify_arc``, enumerations
of sections, functionals and tuples against the rank counts, the lift and
the character transforms, the full value histogram against the two-part
single sums, the full-size dual layer table against the one-layer identity,
the scalar generation test against the batched mask, the z-enumeration of
the auxiliary sum's histogram against its image rule, Fraction
transcriptions against the integer cores of ``bounds``, and the certificate
sweep over every cell of its int64 grids against the one-sided searches of
``bounds._sweep``.  None of them runs in the package itself; the budget
checks they make keep a test from starting an enumeration far beyond its
size.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from jetsums import expsums
from jetsums.arith import Cyclo, check_prime
from jetsums.bounds import (
    _PAIR_TAGS,
    _PAIR_TAGS_D2,
    Certificate,
    PointCheck,
    _check_pair_pipeline,
    _check_single_pipeline,
    _dominant_term_splits,
    _pair_gain,
    _pair_gain_display,
    _shrink_exponents,
    _single_display,
    check_display_monotonicity,
    degree_floor,
    genus_slack,
)
from jetsums.counting import (
    WALK_CHUNK,
    _psi_batch,
    base_systems,
    batch_digits,
    batch_eval_jets,
    encode_digits,
    iter_base_chunks,
    walk_layers,
)
from jetsums.forms import SymmetricForm, make_form
from jetsums.linalg import inverse_mod
from jetsums.sections import (
    DivisorP1,
    DualFunctional,
    check_budget,
    poly_gcd,
    section_space_size,
)


# ---------------------------------------------------------------------------
# the scalar jet model: jets, sections of P_{r,m} and functionals on them


class Jet:
    """Element of F_p[t]/t^(m+1) with coefficients (a_0, ..., a_m)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = tuple(int(c) % p for c in coeffs)

    @property
    def m(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, p: int, m: int) -> "Jet":
        return cls(p, (0,) * (m + 1))

    @classmethod
    def const(cls, p: int, m: int, a: int) -> "Jet":
        return cls(p, (a,) + (0,) * m)

    def _check(self, other: "Jet") -> None:
        if self.p != other.p or self.m != other.m:
            raise ValueError("mismatched jet rings")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        return Jet(self.p, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Jet") -> "Jet":
        self._check(other)
        return Jet(self.p, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Jet":
        return Jet(self.p, (-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Jet(self.p, (a * other for a in self.coeffs))
        self._check(other)
        m = self.m
        out = [0] * (m + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return Jet(self.p, out)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        return f"Jet(p={self.p}, {list(self.coeffs)})"


def psi_m(u: Jet) -> Cyclo:
    """Additive character on R_m: product over layers of zeta^(a_i).

    The chosen character on F_p is a -> zeta_p^a, so the value is the unit
    zeta_p^(sum of coefficients).
    """
    return Cyclo.root(u.p, sum(u.coeffs) % u.p)


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


def apply_layer(alpha: DualFunctional, i: int, layer) -> int:
    return sum(a * int(b) for a, b in zip(alpha.parts[i], layer)) % alpha.p


def apply_functional(alpha: DualFunctional, y: JetPoly) -> Jet:
    """alpha(y): the jet whose t^k coefficient is sum_{i+j=k} alpha_i(y_j)."""
    if (alpha.p, alpha.r) != (y.p, y.r) or alpha.m != y.m:
        raise ValueError("functional and section live on different spaces")
    ylayers = y.layers()
    out = [
        sum(apply_layer(alpha, i, ylayers[k - i]) for i in range(k + 1)) % alpha.p
        for k in range(alpha.m + 1)
    ]
    return Jet(alpha.p, out)


# ---------------------------------------------------------------------------
# linalg: one matrix at a time, the oracle of ``linalg.rref_batch``


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = mat.copy() % p
    nrows, ncols = m.shape
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        nz = np.nonzero(m[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            m[[row, pr]] = m[[pr, row]]
        m[row] = (m[row] * inverse_mod(m[row, col], p)) % p
        other = np.nonzero(m[:, col])[0]
        for r in other:
            if r != row:
                m[r] = (m[r] - m[r, col] * m[row]) % p
        pivots.append(col)
        row += 1
    return m, pivots


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel, one vector per free column, in order."""
    r, pivots = rref(mat, p)
    ncols = mat.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def row_space(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical (rref) basis of the row span; usable as a subspace key."""
    r, pivots = rref(mat, p)
    return r[: len(pivots)]


def map_classes(mats: np.ndarray, p: int, lead: np.ndarray | None = None):
    """(class of each map, class images) of a (N, rows, cols) stack, one
    scalar rref per map: a map of full row rank is class 0 with the identity
    image, every other one is keyed by (lead row, rank, rref image), classes
    numbered in first-seen order."""
    images = [np.eye(mats.shape[1], dtype=np.int64)]
    index: dict = {}
    ids = []
    for i, M in enumerate(mats):
        image = row_space(np.ascontiguousarray(M.T), p)
        if image.shape[0] == M.shape[0]:
            ids.append(0)
            continue
        key = (None if lead is None else tuple(lead[i].tolist()), image.shape[0], image.tobytes())
        if key not in index:
            index[key] = len(images)
            images.append(image)
        ids.append(index[key])
    return np.array(ids, dtype=np.int64), images


def rank(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    return len(rref(mat, p)[1])


def solve(mat: np.ndarray, rhs: np.ndarray, p: int) -> np.ndarray | None:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    nrows, ncols = mat.shape
    aug = np.concatenate([mat % p, (rhs % p).reshape(-1, 1)], axis=1)
    r, pivots = rref(aug, p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols]
    return x


# ---------------------------------------------------------------------------
# sections


def globally_generates(sections: tuple[JetPoly, ...]) -> bool:
    """No common zero on the line after reducing mod t.

    Equivalent to: the gcd of the mod-t parts is a nonzero constant, and the
    top (degree bound) coefficients are not all zero.
    """
    if not sections:
        return False
    p = sections[0].p
    polys = [list(s.mod_t()) for s in sections]
    if all(poly[-1] % p == 0 for poly in polys):
        return False
    g: list[int] = []
    for poly in polys:
        g = poly_gcd(g, poly, p)
        if len(g) == 1:
            return True
    return False


def vanishing_dimension(r: int, z: DivisorP1) -> int:
    return max(0, r - z.degree + 1)


def count_divisors(p: int, degree: int) -> int:
    return sum(p**j for j in range(degree + 1))


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


def count_minimizers(alpha: DualFunctional, degree: int) -> int:
    return sum(
        1 for z in enumerate_divisors(alpha.p, degree) if factors_through(alpha, z)
    )


def enumerate_duals(p: int, r: int, m: int, budget: int | None = None):
    """All functionals on P_{r,m}, lexicographic in flat coordinates."""
    check_prime(p)
    total = p ** ((r + 1) * (m + 1))
    check_budget(total, budget, f"dual enumeration over P_({r},{m})^dual")
    for flat in itertools.product(range(p), repeat=(r + 1) * (m + 1)):
        yield DualFunctional.from_flat(p, r, m, flat)


def enumerate_sections(p: int, r: int, m: int, budget: int | None = None):
    """All sections of P_{r,m}, lexicographic in flat (layer-major) order."""
    check_prime(p)
    total = p ** ((r + 1) * (m + 1))
    check_budget(total, budget, f"section enumeration over P_({r},{m})")
    for flat in itertools.product(range(p), repeat=(r + 1) * (m + 1)):
        layers = [flat[k * (r + 1):(k + 1) * (r + 1)] for k in range(m + 1)]
        yield JetPoly.from_layers(p, r, m, layers)


# ---------------------------------------------------------------------------
# forms


def eval_form(F: SymmetricForm, x: tuple[JetPoly, ...]) -> JetPoly:
    """F applied to an (n+1)-tuple of sections of P_{e,m}; lands in P_{de,m}."""
    if len(x) != F.n + 1:
        raise ValueError(f"need a tuple of {F.n + 1} sections")
    p, e, m = x[0].p, x[0].r, x[0].m
    out = JetPoly.zero(p, F.d * e, m)
    for exps, c in F.monomials.items():
        term = None
        for j, ej in enumerate(exps):
            for _ in range(ej):
                term = x[j] if term is None else mul_sections(term, x[j])
        out = out + _scale_int(term, c)
    return out


def _scale_int(s: JetPoly, c: int) -> JetPoly:
    return JetPoly(s.p, s.r, s.m, (a * c for a in s.coeffs))


def gradient(F: SymmetricForm, x: tuple[JetPoly, ...]) -> tuple[JetPoly, ...]:
    """Tuple of partial derivatives evaluated on sections; each in P_{(d-1)e,m}."""
    if len(x) != F.n + 1:
        raise ValueError(f"need a tuple of {F.n + 1} sections")
    p, e, m = x[0].p, x[0].r, x[0].m
    r_out = (F.d - 1) * e
    grads = [JetPoly.zero(p, r_out, m) for _ in range(F.n + 1)]
    for exps, c in F.monomials.items():
        for j, ej in enumerate(exps):
            if ej == 0:
                continue
            term = None
            for k, ek in enumerate(exps):
                rep = ek - 1 if k == j else ek
                for _ in range(rep):
                    term = x[k] if term is None else mul_sections(term, x[k])
            if term is None:
                term = JetPoly.from_ints(p, 0, m, [1])
            if term.r < r_out:
                pad = tuple(Jet.zero(p, m) for _ in range(r_out - term.r))
                term = JetPoly(p, r_out, m, term.coeffs + pad)
            grads[j] = grads[j] + _scale_int(term, c * ej)
    return tuple(grads)


def transform_form(F: SymmetricForm, A) -> SymmetricForm:
    """The form F(A x) for an invertible change of coordinates A."""
    A = np.asarray(A, dtype=np.int64) % F.p
    if rank(A, F.p) != F.n + 1:
        raise ValueError("coordinate change must be invertible")
    nv = F.n + 1
    out: dict[tuple[int, ...], int] = {}
    for exps, c in F.monomials.items():
        poly = {(0,) * nv: c}
        for j, ej in enumerate(exps):
            for _ in range(ej):
                nxt: dict[tuple[int, ...], int] = {}
                for ex, cc in poly.items():
                    for k in range(nv):
                        if A[j, k]:
                            ex2 = list(ex)
                            ex2[k] += 1
                            ex2 = tuple(ex2)
                            nxt[ex2] = (nxt.get(ex2, 0) + cc * A[j, k]) % F.p
                poly = nxt
        for ex, cc in poly.items():
            out[ex] = (out.get(ex, 0) + cc) % F.p
    mons = [(ex, cc) for ex, cc in out.items() if cc]
    return make_form(F.p, F.n, F.d, mons, name=f"{F.name}-moved")


def multilinear_form(F: SymmetricForm, j: int, ys, mul, add, zero):
    """Psi_j on d-1 argument tuples over any commutative ring.

    Value is d! * sum over (d-1)-index tuples of the tensor entry times the
    product of the selected argument coordinates; ``mul``/``add``/``zero``
    supply the ring operations.
    """
    if len(ys) != F.d - 1:
        raise ValueError(f"need {F.d - 1} argument tuples")
    acc = zero
    dfact = math.factorial(F.d) % F.p
    for idx in itertools.product(range(F.n + 1), repeat=F.d - 1):
        a = F.tensor_entry(idx + (j,))
        if a == 0:
            continue
        term = None
        for slot, ji in enumerate(idx):
            term = ys[slot][ji] if term is None else mul(term, ys[slot][ji])
        if term is None:
            acc = add(acc, a * dfact)
        else:
            acc = add(acc, _ring_scale(term, a * dfact % F.p))
    return acc


def _ring_scale(v, c: int):
    if isinstance(v, JetPoly):
        return _scale_int(v, c)
    return v * c


def multilinear_psi_sections(F: SymmetricForm, ys: tuple[tuple[JetPoly, ...], ...]) -> list[JetPoly]:
    """All Psi_j evaluated on tuples of sections (cup-product multiplication)."""
    p, r, m = ys[0][0].p, ys[0][0].r, ys[0][0].m
    zero = JetPoly.zero(p, (F.d - 1) * r, m)
    return [
        multilinear_form(F, j, ys, mul_sections, lambda a, b: a + b, zero)
        for j in range(F.n + 1)
    ]


def multilinear_psi_scalars(F: SymmetricForm, ys: tuple[tuple[int, ...], ...]) -> list[int]:
    """All Psi_j on plain F_p vectors."""
    return [
        multilinear_form(
            F, j, ys,
            lambda a, b: a * b % F.p,
            lambda a, b: (a + b) % F.p,
            0,
        )
        for j in range(F.n + 1)
    ]


def difference_apply(G, ys: list, x):
    """Iterated differencing: D_y(G)(x) = G(x+y) - G(x), folded left to right.

    ``G`` maps a tuple of sections to a section; arguments add slotwise.
    """

    def shift(tup, off):
        return tuple(a + b for a, b in zip(tup, off))

    def diff(fn, y):
        return lambda t: fn(shift(t, y)) - fn(t)

    fn = G
    for y in ys:
        fn = diff(fn, y)
    return fn(x)


# ---------------------------------------------------------------------------
# counting


def mult_matrix(F: SymmetricForm, x0_coords: np.ndarray) -> np.ndarray:
    """Matrix of z -> z . grad F(x0) on degree-zero layers.

    x0_coords is (n+1, e+1); the matrix maps the (n+1)(e+1) coordinates of z
    (variable-major, then x-degree) to the de+1 coefficients of the product.
    """
    p, n = F.p, F.n
    e = x0_coords.shape[1] - 1
    de = F.d * e
    secs = tuple(JetPoly.from_ints(p, e, 0, x0_coords[j]) for j in range(n + 1))
    grads = gradient(F, secs)
    mat = np.zeros((de + 1, (n + 1) * (e + 1)), dtype=np.int64)
    for j in range(n + 1):
        g = grads[j].layer(0)
        for i in range(e + 1):
            col = j * (e + 1) + i
            for a, ga in enumerate(g):
                if ga and a + i <= de:
                    mat[a + i, col] = ga
    return mat


def unfolded_mult_matrix(F: SymmetricForm, x0: tuple[JetPoly, ...]) -> np.ndarray:
    """F_p matrix of z -> z . grad F(x0) with z and value unfolded over jet
    layers; block lower triangular since the map is R_m-linear.

    Rows: (layer k, x-degree a) of the value.  Columns: (layer k', variable
    j, x-degree i) of z.
    """
    p, n = F.p, F.n
    e, m = x0[0].r, x0[0].m
    de = F.d * e
    grads = gradient(F, x0)
    glayers = [[grads[j].layer(k) for k in range(m + 1)] for j in range(n + 1)]
    nrows = (m + 1) * (de + 1)
    ncols = (m + 1) * (n + 1) * (e + 1)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for kz in range(m + 1):
        for j in range(n + 1):
            for i in range(e + 1):
                col = (kz * (n + 1) + j) * (e + 1) + i
                for kg in range(m + 1 - kz):
                    for a, ga in enumerate(glayers[j][kg]):
                        if ga and a + i <= de:
                            mat[(kz + kg) * (de + 1) + a + i, col] = ga
    return mat


def solution_tuples(F: SymmetricForm, e: int, m: int, budget: int | None = None):
    """All gg tuples with F(x) = 0, as JetPoly tuples: the walk above every
    base point, onto or not, in base order, then in the order of the nested
    kernel enumeration."""
    for x0, system in base_systems(F, e, budget):
        for X in walk_layers(F, x0[None, :, None, :], m, system):
            for x in X.tolist():
                yield tuple(JetPoly.from_layers(F.p, e, m, layers) for layers in x)


def tangent_fiber_slow(F: SymmetricForm, x0, budget) -> int:
    """Enumerate x1 directly (oracle for the kernel count)."""
    p, n = F.p, F.n
    e, m = x0[0].r, x0[0].m
    size = section_space_size(p, e, m, n + 1)
    check_budget(size * (n + 1), budget, "tangent fiber enumeration")
    grads = gradient(F, x0)
    count = 0
    width = (e + 1) * (m + 1)
    for code in range(size):
        digits = batch_digits(np.array([code]), p, width * (n + 1))[0]
        val = None
        for j in range(n + 1):
            flat = digits[j * width : (j + 1) * width]
            layers = [flat[k * (e + 1) : (k + 1) * (e + 1)] for k in range(m + 1)]
            term = mul_sections(JetPoly.from_layers(p, e, m, layers), grads[j])
            val = term if val is None else val + term
        if val.is_zero():
            count += 1
    return count


def count_solutions_slow(F: SymmetricForm, e: int, m: int, budget: int | None) -> int:
    """Reference enumeration of every tuple of P_{e,m}^(n+1), no linear
    algebra: F by the array kernel on blocks of tuples, generation by the
    scalar ``globally_generates`` on the base layer of each zero."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    total = p ** (width * (m + 1))
    check_budget(total * (F.d + 1), budget, "slow jet enumeration")
    if m == 0:
        return len(base_solutions_slow(F, e, budget))
    count = 0
    generates: dict[bytes, bool] = {}
    for start in range(0, total, WALK_CHUNK):
        codes = np.arange(start, min(start + WALK_CHUNK, total), dtype=np.int64)
        X = batch_digits(codes, p, width * (m + 1)).reshape(-1, m + 1, n + 1, e + 1)
        X = X.transpose(0, 2, 1, 3)
        for x0 in X[~batch_eval_jets(F, X).any(axis=(1, 2)), :, 0]:
            key = x0.tobytes()
            if key not in generates:
                generates[key] = _generates(p, x0)
            count += generates[key]
    return count


def base_solutions_slow(F: SymmetricForm, e: int, budget: int | None) -> np.ndarray:
    """The same rows from the full degree-zero scan (the lift's oracle),
    generation decided by the scalar ``globally_generates`` on the F = 0
    rows rather than by the vectorized mask."""
    zeros = np.concatenate([
        coords[~values.any(axis=1)]
        for coords, values, _ in iter_base_chunks(F, e, budget)
    ])
    return zeros[np.array([_generates(F.p, x0) for x0 in zeros], dtype=bool)]


def _generates(p: int, x0: np.ndarray) -> bool:
    """The scalar generation test on one (n+1, e+1) coefficient tuple."""
    e = x0.shape[1] - 1
    return globally_generates(tuple(JetPoly.from_ints(p, e, 0, row) for row in x0))


def count_multilinear_zeros_slow(
    F: SymmetricForm, rdeg: int, k: int, cond: np.ndarray, budget: int | None = None
) -> int:
    """The same count by enumerating every (d-1)-tuple, no linear algebra
    (the rank engine's oracle)."""
    p, n, d = F.p, F.n, F.d
    nvars = (n + 1) * (k + 1) * (rdeg + 1) * (d - 1)
    total = p**nvars
    check_budget(total * (n + 1) * (d - 1), budget, "multilinear tuple enumeration")
    count = 0
    for start in range(0, total, 1 << 15):
        codes = np.arange(start, min(start + (1 << 15), total), dtype=np.int64)
        vals = _psi_batch(F, batch_digits(codes, p, nvars), k, rdeg) @ cond.T % p
        count += int((~vals.reshape(codes.size, -1).any(axis=1)).sum())
    return count


# ---------------------------------------------------------------------------
# expsums


def char_transform_roll(hist: np.ndarray, p: int, k: int) -> np.ndarray:
    """``expsums.char_transform`` by one butterfly per coordinate over every
    a, whose twiddles zeta^(a_i v_i) are coefficient rolls."""
    size = p**k
    if hist.shape != (size,):
        raise ValueError("histogram size mismatch")
    arr = np.zeros((size, p), dtype=np.int64)
    arr[:, 0] = hist
    shape = (p,) * k + (p,)
    arr = arr.reshape(shape)
    for axis in range(k):
        new = np.zeros_like(arr)
        for aval in range(p):
            dest = (slice(None),) * axis + (aval,)
            for v in range(p):
                src = (slice(None),) * axis + (v,)
                new[dest] += np.roll(arr[src], (aval * v) % p, axis=-1)
        arr = new
    return arr.reshape(size, p)


def exp_sum_slow(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
                 budget: int | None = None) -> Cyclo:
    """Direct enumeration oracle for S(alpha) (small spaces only)."""
    p, n = F.p, F.n
    size = section_space_size(p, e, m, n + 1)
    check_budget(size * (n + 1), budget, "direct exponential sum")
    acc = Cyclo.zero(p)
    for combo in itertools.product(
        list(enumerate_sections(p, e, m, budget)), repeat=n + 1
    ):
        if not globally_generates(combo):
            continue
        acc = acc + psi_m(apply_functional(alpha, eval_form(F, combo)))
    return acc


def value_histogram(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """The full value histogram, whose transform ``expsums.all_sums`` takes
    in two parts: over w-codes of F-values on gg tuples in P_{e,m}^(n+1),
    the fiber engine's onto mass spread over every code with its top digits,
    then its leaves, cell by cell.  Makes the package's refusals."""
    onto, leaves = expsums._value_leaves(F, e, m, budget)()
    p, width = F.p, F.d * e + 1
    hist = np.zeros(p ** (width * (m + 1)), dtype=np.int64)
    hist.reshape(p**width, -1)[:] += onto[:, None]  # row w_m, column the low digits
    for V, span, weight, _ in leaves:
        np.add.at(hist, expsums._in_range(expsums._w_codes(V, span, p), hist.size), weight)
    return hist


def pair_cells(data) -> dict:
    """The joint histogram of ``expsums.pair_data`` cell by cell,
    {(w-code, class): count}: the obstructed cells, plus the onto mass of
    each top value v spread over every code with top digits v, trivial
    class 0."""
    cells = dict(data.hist)
    low = data.p ** (data.m * (data.de + 1))
    for v in np.flatnonzero(data.onto).tolist():
        for code in range(v * low, (v + 1) * low):
            cells[code, 0] = cells.get((code, 0), 0) + int(data.onto[v])
    return cells


def exp_sum_pair_cells(data, alpha: DualFunctional, beta: DualFunctional, n: int) -> Cyclo:
    """S(alpha, beta) from every (w-code, class) cell of ``data``: a cell
    counts when beta lies in its class's annihilator (scalar ranks), with
    zeta^(alpha . w), and the free x1 sum multiplies by p^(dim P)."""
    p, e, m = data.p, data.e, data.m
    length = (data.de + 1) * (m + 1)
    aflat = np.array(alpha.flat(), dtype=np.int64)
    bflat = np.array(beta.flat(), dtype=np.int64)
    member = []
    for basis in data.ann_bases:
        if not basis.shape[0]:
            member.append(not bflat.any())
        else:
            member.append(rank(np.vstack([basis, bflat]), p) == rank(basis, p))
    exps = [0] * p
    for (code, k), count in pair_cells(data).items():
        if member[k]:
            w = batch_digits(np.array([code]), p, length)[0]
            exps[int(w @ aflat % p)] += count
    return Cyclo(p, exps) * p ** ((m + 1) * (n + 1) * (e + 1))


def pair_dual_sum_table(F: SymmetricForm, e: int, m: int) -> Cyclo:
    """The full dual sum of S(alpha, beta) from every (w-code, class) cell
    of ``expsums.pair_data`` against the p^((m+1)(de+1))-cell table of sums
    of zeta^(a.w) over the full dual, the transform of the all-ones
    histogram: each cell weighted by its annihilator size, the number of
    beta whose x1-sum does not vanish."""
    p = F.p
    data = expsums.pair_data(F, e, m)
    length = (m + 1) * (data.de + 1)
    table = expsums.char_transform(np.ones(p**length, dtype=np.int64), p, length)
    total = Cyclo.zero(p)
    for (code, k), count in pair_cells(data).items():
        total = total + Cyclo(p, table[code]) * (count * p ** data.ann_bases[k].shape[0])
    return total * p ** ((m + 1) * (F.n + 1) * (e + 1))


def n_count_slow(F: SymmetricForm, e: int, alpha: DualFunctional, k1: int, k2: int,
                 s: int = 0, budget: int | None = None) -> int:
    """``expsums.n_count`` by enumerating every tuple against the same
    linear conditions, no ranks (for arguments ``n_count`` accepts)."""
    cond = expsums._n_condition_matrix(F, e, alpha, k1, k2, s)
    return count_multilinear_zeros_slow(F, e - s, k1, cond, budget)


def t_value_histogram_slow(F: SymmetricForm, L: np.ndarray, budget: int | None = None) -> np.ndarray:
    """Histogram of z . grad F(y) over all degree-zero z, from the matrix L,
    by enumerating every z (the oracle of the image rule in
    ``expsums.t_vanishing_report``)."""
    p = F.p
    ncols = L.shape[1]
    width = L.shape[0]
    check_budget(p**ncols * width, budget, "auxiliary linear sum")
    codes = np.arange(p**ncols, dtype=np.int64)
    hist = np.zeros(p**width, dtype=np.int64)
    for start in range(0, codes.size, 1 << 17):
        part = codes[start : start + (1 << 17)]
        z = batch_digits(part, p, ncols)
        vals = z @ L.T % p
        hist += np.bincount(encode_digits(vals, p), minlength=p**width)
    return hist


# ---------------------------------------------------------------------------
# bounds


def single_bound_display(d: int, g: int, e: int, m: int, D: int) -> PointCheck:
    """Second pipeline: the same ratio assembled from the estimate display
    with the explicit section-count term."""
    num2, den2, nonspecial = _single_display(d, g, e, m, D, int(2 * genus_slack(g)))
    if not nonspecial:
        return PointCheck(None, False, ("e - s < 2g - 1",))
    if den2 <= 0:
        return PointCheck(None, False, ("nonpositive denominator",))
    return PointCheck(Fraction(num2, den2), True)


def pair_gain(d: int, g: int, e: int, m: int, Da: int, Db: int):
    """(gain M, case tag) for a pair of divisor degrees; the case records
    which of the two one-sided estimates is available."""
    M2, case = _pair_gain(d, g, e, m, Da, Db, int(2 * genus_slack(g)))
    return (None if M2 is None else Fraction(M2, 2)), case


def pair_gain_display(d: int, g: int, e: int, m: int, Da: int, Db: int):
    """Second pipeline for the gain: min of the two one-sided exponent drops
    recovered through the ceil/floor identity."""
    M2 = _pair_gain_display(d, g, e, m, Da, Db, int(2 * genus_slack(g)))
    return None if M2 is None else Fraction(M2, 2)


def dominant_term_split(d: int, g: int, e: int, D: int) -> bool:
    """Exact statement of which max term wins in the shrink parameter."""
    first = Fraction(D - e + 2 * g - 2, d - 1)
    second = e - Fraction(D, d - 1)
    if D > Fraction(d * e, 2) - g + 1:
        return first >= second
    return second >= first


def count_pair_cases_slow(case_counts, flags, d, g, e, Ds, minor):
    """Scalar oracle for _count_pair_cases: a walk over Fractions."""
    de = d * e
    half = Fraction(de, 2)
    for i, Da in enumerate(Ds):
        for j, Db in enumerate(Ds):
            if not minor[i, j]:
                continue
            if d == 2:
                if e + 2 - 2 * g <= Db <= e + 1:
                    tag = "d2-I"
                elif 2 * g <= Db <= e + 1 - 2 * g:
                    tag = "d2-II"
                else:
                    tag = "d2-III"
            elif e - 2 * g + 2 <= Db <= half - g + 1:
                if Db >= Fraction(int(Da), 2):
                    tag = "I.1"
                elif Da <= half - g + 1:
                    tag = "I.2.1"
                else:
                    tag = "I.2.2"
            elif half - g + 1 < Db <= half + 1:
                tag = "II"
            else:
                if Da > half - g + 1:
                    tag = "III.1"
                elif Fraction(int(Da), 2) > Db:
                    tag = "III.2.1"
                else:
                    tag = "III.2.2"
                    # the derived lower bound D_beta >= e/2 - g + 1 must
                    # follow from D_beta >= D_alpha / 2 here
                    if Db < Fraction(e, 2) - g + 1:
                        flags["derived_pair_bound_disagreements"] += 1
            case_counts[tag] = case_counts.get(tag, 0) + 1


SWEEP_BLOCK = 1 << 13  # cells per block of jet orders; a larger order runs alone


def sweep_dense(mode: str, d: int, g: int, e_span: tuple[int, int],
                m_span: tuple[int, int], n_plus_1: int) -> Certificate:
    """The certificate of ``bounds._sweep`` from whole int64 grids.

    Each degree e is one (m, cell) grid over all jet orders at once, in
    blocks of at most SWEEP_BLOCK cells: the cells are the divisor degrees
    D (canonical) or every minor pair (D_alpha, D_beta) in row-major order
    (terminal), whose case tags come from one np.select over the |Ds|^2
    grid of the degree.  Takes any jet orders m >= 0.
    """
    e_lo, e_hi = e_span
    m_lo, m_hi = m_span
    f2 = int(2 * genus_slack(g))
    cap = None if mode == "canonical" else 3  # failures kept per kind and order
    failures: list = []
    best_num, best_den = 0, 1  # running max of the ratio, cross-multiplied
    witness = None
    total_points = 0
    skipped = 0
    agreement = True
    case_counts: dict[str, int] = {}
    flags = {"derived_pair_bound_disagreements": 0}

    for e in range(e_lo, e_hi + 1):
        de = d * e
        dmax = de // 2 + 1
        if mode == "canonical":
            d_lo = e - 2 * g + 2
            if d_lo > dmax:
                continue
            Ds = np.arange(max(0, d_lo), dmax + 1, dtype=np.int64)
            for D in Ds[~_dominant_term_splits(d, g, e, Ds)]:
                failures.append({"kind": "dominant-term", "e": e, "D": int(D)})
            cells = {"D": Ds}
            ncells = Ds.size
        else:
            Ds = np.arange(0, dmax + 1, dtype=np.int64)
            minor = np.maximum(Ds[:, None], Ds[None, :]) >= e - 2 * g + 2
            count_pair_cases_grid(case_counts, flags, d, g, e, Ds, minor)
            I, J = (ix.astype(np.int32) for ix in np.nonzero(minor))  # row-major
            cells = {"D_alpha": I, "D_beta": J}  # the degrees: Ds[i] == i
            ncells = I.size
        w = e - _shrink_exponents(d, g, e, Ds) - g + 1
        ca = w >= g  # e - s >= 2g - 1
        if mode == "terminal":
            neither = ~(ca[I] | ca[J])
        step = max(1, SWEEP_BLOCK // max(1, ncells))
        for m0 in range(m_lo, m_hi + 1, step):
            ms = np.arange(m0, min(m0 + step, m_hi + 1), dtype=np.int64)[:, None]
            mp = (ms + 2) // 2
            if mode == "canonical":
                den2 = 2 * w * ((ms - mp) // (d - 1) + 1) - (ms - mp + 1) * f2
                num2 = 2 ** (d - 1) * (2 * Ds + ms * (de + 1 - g))
                bad_pre = ~ca | (den2 <= 0)
            else:
                qa = mp * f2 + 2 * w * -((ms - mp + 1) // -(d - 1))
                qb = 2 * w * -((ms + 1) // -(d - 1))
                # the larger gain of the sides with e - s >= 2g - 1: a side
                # without one enters at the least gain, so it never wins.
                # Cells where neither side has one are precondition failures.
                low = min(qa.min(), qb.min())
                qa, qb = np.where(ca, qa, low), np.where(ca, qb, low)
                den2 = np.maximum(qa[:, I], qb[:, J]) - (ms + 1) * f2
                num2 = 2 ** d * (I + J + ms * (de - g + 1))
                bad_pre = neither | (den2 <= 0)
            ok = ~bad_pre
            bad_ineq = ok & (num2 >= n_plus_1 * den2)
            total_points += bad_pre.size
            skipped += int(np.count_nonzero(bad_pre))
            # each jet order lists its precondition failures first
            for r in np.flatnonzero(bad_pre.any(axis=1) | bad_ineq.any(axis=1)):
                m = int(ms[r, 0])
                for c in np.flatnonzero(bad_pre[r])[:cap]:
                    failures.append({"kind": "precondition", "e": e, "m": m,
                                     **_dense_cell(cells, c)})
                for c in np.flatnonzero(bad_ineq[r])[:cap]:
                    failures.append({"kind": "inequality", "e": e, "m": m,
                                     **_dense_cell(cells, c),
                                     "bound": f"{num2[r, c]}/{den2[r, c]}"})
            # exact test first: few grids of a sweep beat the running best
            if (ok & (num2 * best_den > best_num * den2)).any():
                r, c = divmod(_argmax_ratio(num2.ravel(), den2.ravel(), ok.ravel()),
                              num2.shape[1])
                best_num, best_den = int(num2[r, c]), int(den2[r, c])
                witness = {"e": e, "m": int(ms[r, 0]), **_dense_cell(cells, c)}
            if m0 == m_lo:
                agreement &= (
                    _check_single_pipeline(d, g, e, m_lo, Ds, num2[0], den2[0])
                    if mode == "canonical" else
                    _check_pair_pipeline(d, g, e, m_lo, Ds, qa[0], qb[0]))

    monotonicity = check_display_monotonicity(mode, d, g, (e_lo, e_hi))
    mono_fail = [entry for entry in monotonicity if not entry["ok"]]
    verdict = "pass" if not failures and agreement and not mono_fail else "fail"
    frac = Fraction(best_num, best_den) if witness else None
    return Certificate(
        mode=mode, d=d, g=g, n_plus_1=n_plus_1,
        e_span=(e_lo, e_hi), m_span=(m_lo, m_hi),
        degree_floor=str(degree_floor(mode, d, g)),
        grid_points=total_points, skipped_points=skipped,
        verdict=verdict,
        max_bound=f"{frac.numerator}/{frac.denominator}" if frac else None,
        witness=witness,
        monotonicity=monotonicity,
        pipeline_agreement=agreement,
        case_counts=case_counts,
        flags=flags,
        failures=failures,
    )


def _dense_cell(cells: dict, c) -> dict:
    return {key: int(col[c]) for key, col in cells.items()}


def _argmax_ratio(num: np.ndarray, den: np.ndarray, ok: np.ndarray) -> int:
    ratios = np.where(ok & (den > 0), num / np.maximum(den, 1), -np.inf)
    near = np.nonzero(ratios >= ratios.max() * (1 - 1e-12))[0]
    best = near[0]
    for i in near[1:]:
        if num[i] * den[best] > num[best] * den[i]:
            best = i
    return int(best)


def count_pair_cases_grid(case_counts, flags, d, g, e, Ds, minor):
    """Array oracle for _count_pair_cases: every minor pair tagged by one
    np.select over the |Ds|^2 grid.

    The half-integer thresholds are doubled: Db <= de/2 - g + 1 is
    2 Db <= de - 2g + 2 and Db >= Da/2 is 2 Db >= Da.  A tag new to
    case_counts is inserted in the order of its first minor cell in
    row-major order, the order in which a walk of the grid meets them.
    """
    Da, Db = Ds[:, None], Ds[None, :]
    if d == 2:
        tags = _PAIR_TAGS_D2
        conds = [(e + 2 - 2 * g <= Db) & (Db <= e + 1),
                 (2 * g <= Db) & (Db <= e + 1 - 2 * g)]
    else:
        tags = _PAIR_TAGS
        h2 = d * e - 2 * g + 2  # twice de/2 - g + 1
        in_I = (e - 2 * g + 2 <= Db) & (2 * Db <= h2)
        in_II = (h2 < 2 * Db) & (2 * Db <= d * e + 2)
        a_big = 2 * Da > h2
        conds = [in_I & (2 * Db >= Da), in_I & ~a_big, in_I, in_II, a_big,
                 Da > 2 * Db]
    codes = np.select(
        [np.broadcast_to(c, minor.shape) for c in conds],
        [np.int8(t) for t in range(len(conds))], np.int8(len(conds)),
    )[minor]  # boolean indexing keeps row-major order
    counts = np.bincount(codes, minlength=len(tags))
    present = np.flatnonzero(counts)
    first = [np.argmax(codes == t) for t in present]
    for t in present[np.argsort(first)]:
        case_counts[tags[t]] = case_counts.get(tags[t], 0) + int(counts[t])
    if d != 2:
        # the derived lower bound D_beta >= e/2 - g + 1 must follow from
        # D_beta >= D_alpha / 2 in case III.2.2
        tail = np.broadcast_to(2 * Db < e - 2 * g + 2, minor.shape)[minor]
        flags["derived_pair_bound_disagreements"] += int(
            np.count_nonzero(tail & (codes == len(conds)))
        )
