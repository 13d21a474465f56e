"""Exponential sums over section spaces and the exact arc identities.

The sum attached to a functional alpha on P_{de,m} is

    S(alpha) = sum over gg x in P_{e,m}^(n+1) of psi_m(alpha(F(x))),

an exact element of Z[zeta_p].  Everything here reduces to two computable
objects:

* the value histogram of F over generating tuples, stored in "partial sum"
  coordinates w_i = v_0 + ... + v_(m-i), in which psi_m(alpha(v)) is the
  plain pairing zeta^(alpha . w); and
* an exact character transform of such histograms, which returns every
  S(alpha) at once as cyclotomic coefficient vectors.  It splits off the
  most significant coordinate a0 of alpha: a0 = 0 is the transform of a
  marginal, a0 = 1 reads that coordinate as zeta's exponent and runs an
  integer-shift butterfly over the others, and the other a0 follow from
  the scaling symmetry S(lam alpha)[lam t] = S(alpha)[t] by a gather.

The value, pair and slice histograms share one fiber engine over base
points (fiber classes, or base solutions).  Above an onto gradient map the
value layers above the base are uniform and the pair class trivial: one mass
per base value, whose single sums follow in closed form from its transform
on one layer, so only the obstructed points' histogram is transformed in
full.  Obstructed points walk their middle layers to one leaf,
``_top_layer``, that adds the image coset of the gradient map with weight
p^(dim ker), or enumerates the top layer where pair classes need it.  The
x1-sum of the pair sums goes through kernels, the full dual sums through
the one-layer identity, checked on an exact transform before each use;
slow enumerations cross-check them.  Reused results go through the bounded
``sections.MEMO``, after all refusals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .arith import Cyclo, compare_abs_power
from .counting import (
    ONTO,
    WALK_CHUNK,
    MapClasses,
    append_layer,
    base_scan,
    base_systems,
    batch_digits,
    batch_eval_form,
    batch_eval_jets,
    count_solutions,
    count_tangent_pairs,
    descend,
    encode_digits,
    fiber_classes,
    generating_fibers,
    iter_base_chunks,
    next_layer,
    walk_layers,
    _check_scan,
    count_multilinear_zeros,
)
from .forms import SymmetricForm
from .sections import (
    MEMO,
    BudgetExceeded,
    DivisorP1,
    DualFunctional,
    check_budget,
    check_hankel_budget,
    first_monic,
    hankel_splits,
    minimal_divisor_table,
    section_space_size,
)

# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    check: str
    params: dict
    lhs: object
    rhs: object
    verdict: str
    tightness: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in ("equal", "holds")

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "verdict": self.verdict,
            "tightness": self.tightness,
            **({"extra": _json_value(self.extra)} if self.extra else {}),
        }


def _json_value(v):
    if isinstance(v, Cyclo):
        return {"zeta_coeffs": list(v.canonical())}
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    if isinstance(v, np.integer):
        return int(v)
    return v


class IdentityViolation(Exception):
    def __init__(self, report: Report):
        self.report = report
        super().__init__(f"{report.check}: {report.verdict}")


# ---------------------------------------------------------------------------
# w-coordinates and the exact character transform


def w_code_from_values(values: np.ndarray, p: int, m: int) -> np.ndarray:
    """Encode value layers (N, m+1, de+1) into partial-sum coordinates.

    w_i = sum of layers j <= m-i; the code is little-endian base p over the
    concatenation (w_0, ..., w_m).  In these coordinates psi_m(alpha(v)) is
    zeta^(alpha.w) with the plain flat dot product.
    """
    N, layers, width = values.shape
    w = np.empty((N, layers, width), dtype=np.int64)
    csum = np.zeros((N, width), dtype=np.int64)
    for i in range(layers):
        csum += values[:, i]
        w[:, layers - 1 - i] = csum % p
    return encode_digits(w.reshape(N, layers * width), p)


def char_transform(hist: np.ndarray, p: int, k: int) -> np.ndarray:
    """All sums S(a) = sum_w hist[w] zeta^(a.w) for a in F_p^k, exactly.

    Returns an array (p^k, p) of cyclotomic coefficient vectors; row a holds
    the counts of w with a.w = t, t = 0..p-1.  Split a = (a0, a') on the
    most significant coordinate (flat index a0 p^(k-1) + a'):

    * a0 = 0: the transform, on k-1 coordinates, of the marginal
      sum over w0 of hist(w0, .);
    * a0 = 1: w0 is already the exponent of zeta, so hist itself, read as
      coefficient vectors, goes through one butterfly per remaining
      coordinate, whose twiddles are coefficient shifts;
    * a0 = lam in 2..p-1: S(lam a)[lam t] = S(a)[t], so the row is a gather
      of the a0 = 1 rows at lam^-1 a' and lam^-1 t.

    Only integer additions, so the sums are exact.  A histogram without an
    integer dtype is refused rather than truncated.
    """
    size = p**k
    if hist.shape != (size,):
        raise ValueError("histogram size mismatch")
    if not np.issubdtype(hist.dtype, np.integer):
        raise ValueError(f"histogram must have an integer dtype, got {hist.dtype}")
    out = np.empty((size, p), dtype=np.int64)
    _transform_into(hist.astype(np.int64, copy=False), p, k, out)
    return out


def _transform_into(hist: np.ndarray, p: int, k: int, out: np.ndarray) -> None:
    """char_transform of an int64 histogram, written into the contiguous
    (p^k, p) array out."""
    if k == 0:
        out[0] = 0
        out[0, 0] = hist[0]
        return
    rows = out.reshape(p, p ** (k - 1), p)  # rows[a0, a', t]
    _transform_into(hist.reshape(p, -1).sum(axis=0), p, k - 1, rows[0])
    rows[1] = _shift_butterfly(hist.reshape((p,) * k), p).reshape(p, -1).T
    unit = rows[1].reshape(-1)
    for lam in range(2, p):
        perm = pow(lam, -1, p) * np.arange(p) % p
        index = perm  # flat code of perm applied to every digit
        for _ in range(k - 1):
            index = np.add.outer(index * p, perm).ravel()
        np.take(unit, index, out=rows[lam].reshape(-1))


def _shift_butterfly(x: np.ndarray, p: int) -> np.ndarray:
    """sum_v x[c - a.v, v] for every (c, a): axis 0 of x holds zeta's
    exponent c and every other axis is transformed, the twiddle zeta^(a v)
    being two slab additions along axis 0."""
    src = x
    buf = [np.empty_like(x), np.empty_like(x)]
    for axis in range(1, x.ndim):
        dst = buf[axis % 2]
        dst.fill(0)
        at = (slice(None),) * axis
        for a in range(p):
            acc = dst[at + (a,)]
            for v in range(p):
                xv = src[at + (v,)]
                s = a * v % p
                acc[s:] += xv[: p - s]
                if s:
                    acc[:s] += xv[p - s:]
        src = dst
    return src


def dual_code(alpha: DualFunctional) -> int:
    """Little-endian code of the flat (layer-major) coordinates."""
    return sum(int(c) * alpha.p**i for i, c in enumerate(alpha.flat()))


def dual_from_code(p: int, r: int, m: int, code: int) -> DualFunctional:
    return DualFunctional.from_flat(p, r, m, [code // p**i % p for i in range((r + 1) * (m + 1))])


# ---------------------------------------------------------------------------
# value histograms over generating tuples


_INT64_MAX = int(np.iinfo(np.int64).max)
HIST_CELL_CAP = 1 << 24


def _check_cells(cells: int, budget: int | None, what: str) -> None:
    """Refuse a value histogram or the one-layer check above HIST_CELL_CAP
    cells at any budget: its sums take p int64 per cell, about 350 MiB for
    the 3^15 of conic(3) at e = 2, m = 2."""
    check_budget(cells, min(HIST_CELL_CAP, 10**18 if budget is None else budget), what)


def _check_mass(F: SymmetricForm, e: int, m: int, what: str) -> None:
    """Refuse int64 histograms whose total mass, the p^((m+1)(n+1)(e+1))
    tuples of P_{e,m}^(n+1), could overflow."""
    mass = F.p ** ((m + 1) * (F.n + 1) * (e + 1))
    if mass > _INT64_MAX:
        raise BudgetExceeded(mass, _INT64_MAX, f"{what} (int64 counts)")


def _check_functional(F: SymmetricForm, e: int, alpha: DualFunctional,
                      m: int | None = None) -> None:
    """Refuse a functional off P_{de,m} over F_p (any jet order when m is
    None): its code would be read as another functional."""
    if alpha.p != F.p or alpha.r != F.d * e or (m is not None and alpha.m != m):
        raise ValueError(f"functional on the wrong space: P_{alpha.r},{alpha.m} over F_{alpha.p}")


def _in_range(codes: np.ndarray, size: int) -> np.ndarray:
    """The codes, after checking they index a histogram of this size; a
    wrapped dtype would otherwise land at negative codes without an error."""
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= size):
        raise AssertionError(f"histogram code outside [0, {size})")
    return codes


def _free_layers(X: np.ndarray, top: int, p: int):
    """Extend a stack X of known layers 0..k-1 by every layer in
    F_p^((n+1)(e+1)) through layer ``top``: the ``descend`` stacks, in
    (tuple, layer code) order."""
    ncols = X.shape[1] * X.shape[3]
    every = lambda lo, hi: batch_digits(np.arange(lo, hi), p, ncols)
    yield from descend(X, top, lambda Y: append_layer(Y, p**ncols, every, None, p))


def _top_layer(F: SymmetricForm, X: np.ndarray, m: int, image: np.ndarray | None,
               ann: MapClasses | None):
    """The leaf of the walked fibers: complete a stack X of tuples known
    through layer m-1, whose base maps L share one image, by layer m.

    Yields blocks (V, span, weight, classes): row i stands for the value
    layers V[i] with each row of span added to layer m, and pair class
    classes[i].  Layer m enters only at t^m, as c_m + L x^m, so given the
    image of L, V is F with layer m zero, span the image and the weight
    p^(dim ker L), unclassed.  With ``image`` None every top layer is
    enumerated (none at m = 0) and classed by ``ann``.
    """
    p = F.p
    if image is None:
        for full in _free_layers(X, m, p):
            V = batch_eval_jets(F, full)
            yield V, np.zeros((1, V.shape[2]), dtype=np.int64), 1, ann.of(F, full)
        return
    weight, V = p ** (X.shape[1] * X.shape[3] - image.shape[0]), next_layer(F, X)
    span = linalg.span_elements(image, p)
    step = max(1, WALK_CHUNK // span.shape[0])  # blocks of about WALK_CHUNK values
    for i in range(0, V.shape[0], step):
        yield V[i : i + step], span, weight, None


def _w_codes(V: np.ndarray, span: np.ndarray, p: int) -> np.ndarray:
    """w-codes (N, len(span)) of the value layers V (N, m+1, de+1) with each
    row of span added to layer m, which only w_0, the low digits, sees."""
    w0 = V.sum(axis=1) % p
    high = w_code_from_values(V, p, V.shape[1] - 1) - encode_digits(w0, p)
    return high[:, None] + encode_digits((w0[:, None] + span) % p, p)


def _check_pair_scan(F: SymmetricForm, e: int, m: int, walks: int, budget: int | None,
                     what: str) -> None:
    """Refuse enumerating the p^((n+1)(e+1)) top layers above ``walks``
    stacks and ranking each pair map M^T, (m+1)(n+1)(e+1) rows x
    ((m+1)(de+1))^2 columns^2."""
    ncols = (F.n + 1) * (e + 1)
    work = (m + 1) * ncols * ((m + 1) * (F.d * e + 1)) ** 2
    check_budget(walks * F.p**ncols * work, budget, what)


def _base_leaves(F: SymmetricForm, e: int, m: int, ann: MapClasses | None,
                 budget: int | None):
    """A thunk for (onto, leaves) over every generating tuple of
    P_{e,m}^(n+1), classed by ``ann`` if given.  Above an onto L (fiber
    class ``ONTO``) the value layers 1..m, hence the low w-digits
    w_0..w_(m-1), are uniform and the pair class is trivial: onto[v] is the
    mass of each w-code with top digits w_m = F(x0) = v, p^(m(ncols -
    width)) per onto point.  Obstructed points walk to ``_top_layer``.  The
    refusals are made at the call, from the class sizes alone, so a memo
    hit never groups the points.
    """
    p, width, ncols = F.p, F.d * e + 1, (F.n + 1) * (e + 1)
    coords, ids, images = generating_fibers(F, e, budget)
    walked = int(np.count_nonzero(ids != ONTO))
    explicit = ann is not None and m > 0
    if m >= 2:  # charged by the obstructed points alone
        check_budget(walked * p ** (ncols * (m - 1) + width), budget, "free jet-layer walk")
    if explicit and walked:
        _check_pair_scan(F, e, m, walked * p ** (ncols * (m - 1)), budget,
                         "non-surjective pair annihilator scan")

    def leaves():
        for X, image, weight in _image_groups(coords, ids, images, explicit, m):
            for W in _free_layers(X.astype(np.int64)[:, :, None, :], m - 1, p):
                for V, span, mult, klass in _top_layer(F, W, m, image if m else None, ann):
                    yield V, span, weight * mult, klass

    def build():
        onto = np.zeros(p**width, dtype=np.int64)
        values = batch_eval_form(F, coords[ids == ONTO].astype(np.int64))
        np.add.at(onto, encode_digits(values, p), p ** (m * (ncols - width)))
        return onto, leaves()

    return build


def _image_groups(coords, ids, images, explicit: bool, m: int) -> list:
    """(points, image, weight) groups of the obstructed base points (class
    not ``ONTO``) sharing their gradient image.  At m <= 1 (no layer between
    base and top) a class enters once by its first point, weighted by its
    size (one group per image and size); above, every point enters.  When
    ``explicit``, the points come in one group instead, in scan order, with
    no image."""
    walked = ids != ONTO
    if explicit:
        return [(coords[walked], None, 1)] if walked.any() else []
    classes, first, sizes = np.unique(ids, return_index=True, return_counts=True)
    groups: dict[tuple, tuple] = {}  # (image, weight) -> (image, first points or classes)
    for k, i, size in zip(classes.tolist(), first.tolist(), sizes.tolist()):
        if k != ONTO:
            key = (images[k].tobytes(), size if m <= 1 else 1)
            groups.setdefault(key, (images[k], []))[1].append(i if m <= 1 else k)
    return [(coords[rows if m <= 1 else np.isin(ids, rows)], image, weight)
            for (_, weight), (image, rows) in groups.items()]


def _add_counts(hist: dict, codes: np.ndarray, klass: np.ndarray, weight: int) -> None:
    """hist[(code, class)] += weight for every entry of codes (N, S), with the
    class of its row."""
    for k in np.unique(klass).tolist():
        uniq, counts = np.unique(codes[klass == k], return_counts=True)
        for code, count in zip(uniq.tolist(), counts.tolist()):
            hist[(code, k)] = hist.get((code, k), 0) + count * weight


def _value_leaves(F: SymmetricForm, e: int, m: int, budget: int | None):
    """The value histogram's thunk for (onto, leaves): m = 0 streams the
    tuple space with no onto mass, higher orders take the fiber engine
    (``_base_leaves``).  Every refusal is made at the call, so ``all_sums``
    makes them before its memo lookup."""
    width = F.d * e + 1
    _check_mass(F, e, m, "value histogram")
    _check_cells(F.p ** (width * (m + 1)), budget, "value histogram")
    if m:
        return _base_leaves(F, e, m, None, budget)
    _check_scan(F, e, budget)  # every generating tuple is a base point
    zero = np.zeros((1, width), dtype=np.int64)
    return lambda: (np.zeros(F.p**width, dtype=np.int64),
                    ((values[gg][:, None], zero, 1, None)
                     for _, values, gg in iter_base_chunks(F, e, budget)))


def all_sums(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """S(alpha) for every alpha on P_{de,m}, as (p^k, p) coefficient rows:
    the rows of the value histogram's transform, from the fiber engine's
    two parts (``_single_sums``)."""
    build = _value_leaves(F, e, m, budget)  # the refusals only: the leaves are lazy
    return MEMO.get(("all_sums", F.key(), e, m), lambda: _single_sums(F, e, m, *build()))


def _single_sums(F: SymmetricForm, e: int, m: int, onto: np.ndarray, leaves) -> np.ndarray:
    """The transform of the leaves' histogram plus the onto mass in closed
    form.  onto[v] sits at every code with top digits v, so its rows are
    p^(m(de+1)) T[a_top], T the transform of onto on one layer, where alpha
    vanishes on the low m layers, and elsewhere M/p at every exponent, M
    its total mass: the low digits are uniform.  No histogram is built
    without a leaf, as above a form whose base points are all onto."""
    p, width = F.p, F.d * e + 1
    k = width * (m + 1)
    hist = None
    for V, span, weight, _ in leaves:
        if hist is None:
            hist = np.zeros(p**k, dtype=np.int64)
        np.add.at(hist, _in_range(_w_codes(V, span, p), hist.size), weight)
    sums = np.zeros((p**k, p), dtype=np.int64) if hist is None else char_transform(hist, p, k)
    if onto.any():
        low = p ** (m * width)
        share = low * int(onto.sum()) // p
        sums += share
        sums.reshape(p**width, low, p)[:, 0] += low * char_transform(onto, p, width) - share
    return sums


def exp_sum(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
            budget: int | None = None) -> Cyclo:
    """S(alpha), exact."""
    _check_functional(F, e, alpha, m)
    sums = all_sums(F, e, m, budget)
    return Cyclo(F.p, sums[dual_code(alpha)])


# ---------------------------------------------------------------------------
# divisor machinery shared by classification and identities


@dataclass
class DivisorTable:
    p: int
    de: int
    degree: np.ndarray        # alpha0-code -> minimal degree
    multiplicity: np.ndarray  # alpha0-code -> number of minimizers

    def uniqueness_bound(self) -> int:
        """Largest degree at which two distinct minimizers are impossible:
        distinct minimal divisors of degree z need 2z > de + 1."""
        return (self.de + 1) // 2


def divisor_table(p: int, de: int, budget: int | None = None) -> DivisorTable:
    check_hankel_budget(de, p ** (de + 1), budget)
    return MEMO.get(("divisor_table", p, de),
                    lambda: DivisorTable(p, de, *minimal_divisor_table(p, de, budget)))


@dataclass(frozen=True)
class ArcLabel:
    kind: str           # "major" | "minor"
    divisor: DivisorP1 | None
    degree: int
    minimizers: int = 1


def classify_arc(alpha: DualFunctional, e: int, budget: int | None = None) -> ArcLabel:
    """Major iff the minimal divisor degree is <= e + 1 (the source is P^1,
    genus 0).

    The minimal divisor comes from the Hankel systems of the divisor table
    (``sections.hankel_splits``), for this one functional: degrees upward,
    and at the least degree the split of largest finite degree with a
    solution, free coordinates 0, is the first minimizer with k_inf
    ascending and then h lexicographic.  Rechecks minimizer uniqueness
    inside the range where it is forced (two distinct minimizers of degree
    z would need 2z > de + 1); a boundary functional with several
    minimizers keeps the first one and reports the count in the label.
    """
    p, r = alpha.p, alpha.r
    check_hankel_budget(r, 1, budget)
    a0 = np.array([alpha.parts[0]], dtype=np.int64)
    for deg in range(r + 2):
        z, mult = None, 0
        for dh, red, count in hankel_splits(a0, p, r, deg):
            if count[0] and z is None:
                z = DivisorP1(p, first_monic(red[0], dh, p), deg - dh)
            mult += int(count[0])
        if mult:
            break
    if deg <= e + 1:
        if mult != 1 and 2 * deg <= r + 1:
            raise IdentityViolation(Report(
                "arc-classification", {"alpha": alpha.flat()},
                mult, 1, "non-unique minimal divisor below the forcing bound",
            ))
        return ArcLabel("major", z, deg, mult)
    return ArcLabel("minor", z, deg, mult)


def major_weighted_sums(F: SymmetricForm, e: int, budget: int | None = None) -> np.ndarray:
    """sum over pairs (Z, alpha0) with alpha0 minimally through Z and
    deg Z <= e + 1 of zeta^(alpha0.u), for every u.

    A functional with several minimizers at its minimal degree is counted
    once per minimizer, which is what the divisor-grouped double sum does.
    """
    p = F.p
    de = F.d * e
    tab = divisor_table(p, de, budget)
    width = de + 1
    weights = np.where(tab.degree <= e + 1, tab.multiplicity, 0)
    return char_transform(weights.astype(np.int64), p, width)


# ---------------------------------------------------------------------------
# the auxiliary linear sum at the heart of the major-arc collapse


def _t_histogram(image: np.ndarray, ncols: int, p: int) -> np.ndarray:
    """Histogram of z . grad F(y) over all z in F_p^ncols, given an rref basis
    (rows) of the image of z -> z . grad F(y): each image value is taken
    p^(dim ker) times."""
    hist = np.zeros(p ** image.shape[1], dtype=np.int64)
    hist[encode_digits(linalg.span_elements(image, p), p)] = p ** (ncols - image.shape[0])
    return hist


def t_vanishing_report(F: SymmetricForm, e: int, samples: int = 100, seed: int = 0,
                       budget: int | None = None) -> Report:
    """Check the collapse input: T(alpha0; y) = p^((n+1)(e+1)) for the zero
    functional and 0 for every functional of minimal degree in [1, e+1],
    over a deterministic sample of generating y.  T's value histogram comes
    from the image of y's gradient map, so points with one image share one
    transform."""
    p, n = F.p, F.n
    de = F.d * e
    width = de + 1
    ncols = (n + 1) * (e + 1)
    scan = base_scan(F, e, budget)
    gidx = np.nonzero(scan.generating)[0]
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(gidx.size), min(samples, gidx.size)))
    tab = divisor_table(p, de, budget)
    in_range = (tab.degree >= 1) & (tab.degree <= e + 1)
    ids, images = fiber_classes(F, scan.coords[gidx[chosen]].astype(np.int64))
    present = np.unique(ids).tolist()  # the onto class 0 may have no point
    # one transform per image, charged at width butterfly passes of p^(width+2)
    # additions each, above what the transform does (about p/(p-1) passes of
    # p^(width+1)); the figure is kept so that budgets refuse where they did
    check_budget(len(present) * width * p ** (width + 2), budget, "auxiliary linear sum")
    full = p**ncols
    checks = {}  # per image: (T of the zero functional is full, nonvanishing codes)
    for k in present:
        sums = char_transform(_t_histogram(images[k], ncols, p), p, width)
        bad = [
            int(code)
            for code in np.nonzero(in_range)[0]
            if not Cyclo(p, sums[code]).is_zero()
        ]
        checks[k] = (Cyclo(p, sums[0]) == Cyclo.integer(p, full), bad[:3])
    failures = []
    for ci, k in zip(chosen, ids):
        zero_ok, bad = checks[k]
        if not zero_ok:
            failures.append(("zero-functional", ci))
        if bad:
            failures.append((f"nonvanishing at y index {ci}", bad))
    verdict = "holds" if not failures else "fails"
    return Report(
        "t-vanishing",
        {"p": p, "n": n, "d": F.d, "e": e, "form": F.name, "samples": len(chosen),
         "seed": seed},
        {"functionals_in_range": int(in_range.sum()), "y_samples": len(chosen)},
        {"expected_zero_value": full},
        verdict,
        extra={"failures": failures},
    )


# ---------------------------------------------------------------------------
# pair sums: per-base annihilator structure


@dataclass
class PairData:
    """Joint histogram over (w-code of F(x0), annihilator class).

    ``hist`` holds the obstructed points' mass by (code, class), ``onto[v]``
    the onto points' mass at each code with top digits v, of class 0.
    ann_bases[k] is an rref basis (rows) of the functionals beta with
    beta . (x1 -> x1 . grad F(x0)) = 0, in flat layer-major coordinates.
    """

    p: int
    e: int
    m: int
    de: int
    hist: dict
    onto: np.ndarray
    ann_bases: list[np.ndarray]


def pair_data(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> PairData:
    """The joint histogram of the value histogram's fiber engine with pair
    classes: the onto points as their mass per base value, the obstructed
    points with their top layer enumerated and each tuple classed."""
    de = F.d * e
    _check_mass(F, e, m, "pair data")
    ann = MapClasses(F.p, (m + 1) * (de + 1))
    leaves = _base_leaves(F, e, m, ann, budget)  # refusals before the lookup

    def build():
        onto, blocks = leaves()
        hist: dict = {}
        for V, span, weight, klass in blocks:
            _add_counts(hist, _w_codes(V, span, F.p), klass, weight)
        return PairData(F.p, e, m, de, hist, onto, _annihilators(ann))

    return MEMO.get(("pair_data", F.key(), e, m), build)


def _annihilators(classes: MapClasses) -> list[np.ndarray]:
    """The pair classes' annihilators: for each class the rref basis of the
    functionals beta with beta . (x1 -> x1 . grad F(x)) = 0, read off its
    image's rref; {0} for class ``ONTO``."""
    return [linalg.annihilator(image, classes.p) for image in classes.images]


def exp_sum_pair(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
                 beta: DualFunctional, budget: int | None = None) -> Cyclo:
    """S(alpha, beta): x0 ranges over gg tuples, x1 freely; the x1-sum is
    p^(dim P) on the annihilator of the gradient multiplication map and 0
    off it.  Summed over the low digits, the onto mass of top value v (class
    0) gives p^(m(de+1)) zeta^(alpha . v) if alpha vanishes on layers
    0..m-1, and 0 otherwise."""
    p, n = F.p, F.n
    _check_functional(F, e, alpha, m)
    _check_functional(F, e, beta, m)
    data = pair_data(F, e, m, budget)
    width, low = data.de + 1, m * (data.de + 1)
    bflat = np.array(beta.flat(), dtype=np.int64)
    aflat = np.array(alpha.flat(), dtype=np.int64)
    # beta is in a class's annihilator B when rank [B; beta] = rank B
    stack = np.zeros((len(data.ann_bases), bflat.size + 1, bflat.size), dtype=np.int64)
    for k, b in enumerate(data.ann_bases):
        stack[k, : b.shape[0]] = b
        stack[k, b.shape[0]] = bflat
    member = linalg.rref_batch(stack, p)[1] == [b.shape[0] for b in data.ann_bases]
    cells = [(code, count) for (code, k), count in data.hist.items() if member[k]]
    codes, counts = np.array(cells, dtype=np.int64).reshape(-1, 2).T
    if member[ONTO] and not aflat[:low].any():
        codes = np.concatenate([codes, p**low * np.arange(p**width)])
        counts = np.concatenate([counts, data.onto * p**low])
    exps = np.zeros(p, dtype=np.int64)
    np.add.at(exps, batch_digits(codes, p, low + width) @ aflat % p, counts)
    return Cyclo(p, exps) * p ** ((m + 1) * (n + 1) * (e + 1))


# ---------------------------------------------------------------------------
# orthogonality and the major-arc collapse


def _dual_sum(F: SymmetricForm, e: int, m: int, pairs: bool,
              budget: int | None = None) -> Cyclo:
    """Sum of S(alpha), or of S(alpha, beta), over the full dual of P_{de,m}.

    Singles add up the transform rows, which the identity checks.  For
    pairs the sum over alpha is the checked one-layer origin to the power
    m + 1 at w-code 0 and zero elsewhere: only F(x) = 0 counts, each class
    weighted by its annihilator size, the number of beta whose x1-sum does
    not vanish, and the onto mass of top value 0 in the trivial class.
    """
    p = F.p
    if not pairs:
        return Cyclo(p, all_sums(F, e, m, budget).sum(axis=0))
    origin = _checked_layer_origin(p, F.d * e + 1, budget)
    data = pair_data(F, e, m, budget)
    zeros = int(data.onto[0]) + sum(count * p ** data.ann_bases[k].shape[0]
                                    for (code, k), count in data.hist.items() if code == 0)
    return Cyclo.integer(p, zeros * origin ** (m + 1) * p ** ((m + 1) * (F.n + 1) * (e + 1)))


def check_orthogonality(F: SymmetricForm, e: int, m: int, pairs: bool = False,
                        budget: int | None = None) -> Report:
    """Sum of S(alpha) over the full dual against the solution count (or the
    pair version against the tangent-pair count), both sides exact."""
    p = F.p
    params = {"p": p, "n": F.n, "d": F.d, "e": e, "m": m, "form": F.name,
              "pairs": pairs}
    lhs = _dual_sum(F, e, m, pairs, budget)
    count = (count_tangent_pairs if pairs else count_solutions)(F, e, m, budget).raw_count
    rhs = p ** ((2 if pairs else 1) * (m + 1) * (F.d * e + 1)) * count
    ok = lhs == Cyclo.integer(p, rhs)
    return Report("orthogonality", params, lhs, rhs,
                  "equal" if ok else "violated", 1.0 if ok else None)


def check_major_identity(F: SymmetricForm, e: int, m: int, pairs: bool = False,
                         budget: int | None = None) -> Report:
    """Exact two-sided evaluation of the major-arc collapse.

    Singles: sum over divisors Z of degree <= e+1 of the S(alpha) with
    alpha factoring minimally through Z equals p^((n+1)(e+1)) times the full
    dual sum one jet layer down.  Pairs: both functionals grouped, factor
    squared.  The left side comes from the slice engine at every m >= 1,
    the right side from the full dual sum at m - 1.
    """
    if m < 1:
        raise ValueError("the collapse needs m >= 1")
    p, n = F.p, F.n
    params = {"p": p, "n": n, "d": F.d, "e": e, "m": m, "form": F.name,
              "pairs": pairs}
    tab = divisor_table(p, F.d * e, budget)
    lhs = _major_lhs(F, e, m, tab, tab.degree <= e + 1, pairs, budget)
    params["factor_exponent"] = (2 if pairs else 1) * (n + 1) * (e + 1)
    rhs = _dual_sum(F, e, m - 1, pairs, budget) * p ** params["factor_exponent"]
    ok = lhs == rhs
    return Report("major-identity", params, lhs, rhs,
                  "equal" if ok else "violated", 1.0 if ok else None)


def _major_lhs(F, e, m, tab, major, pairs, budget) -> Cyclo:
    """Left side of the collapse by the slice engine.

    The sum over the m free upper layers of the functional is the checked
    one-layer origin to the power m at the origin and zero elsewhere, so
    only F(x) = t^m u survive; at m = 1 the walk below the top layer is
    the base point itself.  Each u weighs the major functionals at degree
    zero, once per minimizer; pairs also weigh the annihilator class of the
    pair map.
    """
    p, n = F.p, F.n
    width = F.d * e + 1
    origin = _checked_layer_origin(p, width, budget)
    gsum = major_weighted_sums(F, e, budget)
    kk, hist, ann_bases = slice_histogram(F, e, m, budget, with_ann=pairs)
    if pairs:
        weights = _beta_pair_weights(ann_bases, tab, major, p, width)
        terms = ((u, count * weights[k]) for (u, k), count in hist.items())
    else:
        terms = enumerate(kk.tolist())
    total = Cyclo.zero(p)
    for u, weight in terms:
        if weight:
            total = total + Cyclo(p, gsum[u]) * weight
    total = total * origin**m
    if pairs:
        total = total * p ** ((m + 1) * (n + 1) * (e + 1))
    return total


def _checked_layer_origin(p: int, width: int, budget: int | None) -> int:
    """p^width, the sum of zeta^(a.w) over a full dual layer a at w = 0,
    once the exact transform of the all-ones histogram (row w holds that
    sum) is verified to be p^width at the origin and zero elsewhere."""
    _check_cells(p**width, budget, "dual layer check")
    table = char_transform(np.ones(p**width, dtype=np.int64), p, width)
    zero = (table[1:] == table[1:, :1]).all()  # a zero row has equal coefficients
    if Cyclo(p, table[0]) != Cyclo.integer(p, p**width) or not zero:
        raise AssertionError("one-layer sums are not p^width at the origin and 0 elsewhere")
    return p**width


def _beta_pair_weights(ann_bases, tab, major, p, width):
    """Per annihilator class: number of (divisor W, beta) incidences with
    beta in the annihilator, beta minimally through W, deg W major.  The
    trivial class holds only beta = 0, whose minimizer is the zero divisor."""
    out = []
    for basis in ann_bases:
        codes = encode_digits(linalg.span_elements(basis, p)[:, :width], p)
        out.append(int(tab.multiplicity[codes][major[codes]].sum()))
    return out


def slice_histogram(F: SymmetricForm, e: int, m: int, budget: int | None = None,
                    with_ann: bool = False):
    """KK(u) = #{x gg : F(x) = t^m u}, u over P_de (degree-zero layer), m >= 1.

    Each u has p^(m dim ker L) such x above an onto L, of trivial class.
    Above obstructed solutions the middle layers walk in solution cosets of
    L to the fiber engine's leaf; ``with_ann`` splits the counts by
    annihilator class, enumerating their top layer.  Returns (array KK,
    dict {(u_code, ann_key): count}, ann_bases).
    """
    p, width = F.p, F.d * e + 1
    if m < 1:  # the base layer is the top: no closed form nor walk applies
        raise ValueError(f"the slice needs m >= 1, got m={m}")
    _check_mass(F, e, m, "slice histogram")
    systems = list(base_systems(F, e, budget))
    obstructed = [(x0, s) for x0, s in systems if not s.onto]
    if with_ann:  # at most p^(dim ker (m-1)) walks above each obstructed point
        walks = sum(p ** (s.kerdim * (m - 1)) for _, s in obstructed)
        _check_pair_scan(F, e, m, walks, budget, "explicit slice fiber")
    onto = sum(p ** (m * s.kerdim) for _, s in systems if s.onto)
    kk = np.full(p**width, onto, dtype=np.int64)
    hist = {(u, ONTO): onto for u in range(kk.size)} if with_ann and onto else {}
    ann = MapClasses(p, (m + 1) * width)
    for x0, system in obstructed:
        if not with_ann:
            check_budget(p ** (system.kerdim * (m - 1) + system.rank), budget, "slice histogram")
        image = None if with_ann else system.L[:, system.pivots].T  # pivot columns span im L
        for X in walk_layers(F, x0[None, :, None, :], m - 1, system):
            for V, span, weight, klass in _top_layer(F, X, m, image, ann):
                codes = encode_digits((V[:, None, m] + span) % p, p)
                np.add.at(kk, _in_range(codes, kk.size), weight)
                if with_ann:
                    _add_counts(hist, codes, klass, weight)
    return kk, hist, _annihilators(ann)


# ---------------------------------------------------------------------------
# auxiliary counting functions N and the inequality checks


def n_count(F: SymmetricForm, e: int, alpha: DualFunctional, k1: int, k2: int,
            s: int = 0, budget: int | None = None) -> int:
    """Count (d-1)-tuples over P_{e-s,k1}^(n+1) whose multilinear values are
    killed by alpha against every y in P_{e+(d-1)s, k2-1}, mod t^k2.

    The generation condition is dropped here on purpose.  The conditions
    are linear in the last tuple entry, so the count is a sum of
    p^(dim ker) over the first d-2 entries, by the rank engine
    ``counting.count_multilinear_zeros`` (one kernel at d = 2).
    """
    _check_functional(F, e, alpha)
    if k1 < 0:
        raise ValueError(f"need k1 >= 0, got k1={k1}")
    if k1 < k2 - 1:
        raise ValueError("need k1 >= k2 - 1")
    if not 0 <= s <= e:
        raise ValueError("need 0 <= s <= e")
    if alpha.m + 1 < k2:
        raise ValueError("functional has too few layers")
    cond = _n_condition_matrix(F, e, alpha, k1, k2, s)
    return count_multilinear_zeros(F, e - s, k1, cond, budget)


def _n_condition_matrix(F: SymmetricForm, e: int, alpha: DualFunctional,
                        k1: int, k2: int, s: int) -> np.ndarray:
    """Linear conditions on a multilinear value rho in P_{(d-1)(e-s), k1}:
    alpha(rho . y) = 0 mod t^k2 for every y-basis monomial x^b t^c.

    Columns follow the (layer k, x-degree a) flattening of rho.
    """
    p, n, d = F.p, F.n, F.d
    de = F.d * e
    rdeg = e - s
    psi_deg = (d - 1) * rdeg
    ydeg = e + (d - 1) * s
    rows = []
    for b in range(ydeg + 1):
        for c in range(k2):
            for lout in range(k2):
                row = np.zeros((k1 + 1) * (psi_deg + 1), dtype=np.int64)
                nonzero = False
                for k in range(k1 + 1):
                    i = lout - k - c
                    if not 0 <= i <= alpha.m:
                        continue
                    for a in range(psi_deg + 1):
                        if a + b <= de:
                            val = alpha.parts[i][a + b]
                            if val:
                                row[k * (psi_deg + 1) + a] = val
                                nonzero = True
                if nonzero:
                    rows.append(row)
    if not rows:
        return np.zeros((0, (k1 + 1) * (psi_deg + 1)), dtype=np.int64)
    return np.stack(rows) % p


def n_count_plain(F: SymmetricForm, e: int, alpha: DualFunctional, k: int,
                  s: int = 0, budget: int | None = None) -> int:
    """N^(k) with the usual normalization k1 = k, k2 = k + 1."""
    return n_count(F, e, alpha, k, k + 1, s, budget)


def check_shrink(F: SymmetricForm, e: int, alpha: DualFunctional, k: int,
                 s: int, budget: int | None = None) -> Report:
    """N^(k)(alpha) <= p^((k+1)(d-1)(n+1)s) N_s^(k)(alpha), exact integers."""
    p, n, d = F.p, F.n, F.d
    n_full = n_count_plain(F, e, alpha, k, 0, budget)
    n_shrunk = n_count_plain(F, e, alpha, k, s, budget)
    bound = p ** ((k + 1) * (d - 1) * (n + 1) * s)
    ok = n_full <= bound * n_shrunk
    ratio = Fraction(n_full, n_shrunk) if n_shrunk else None
    return Report(
        "shrink",
        {"p": p, "n": n, "d": d, "e": e, "k": k, "s": s, "form": F.name,
         "alpha": list(alpha.flat())},
        n_full,
        {"bound_exponent": (k + 1) * (d - 1) * (n + 1) * s, "n_shrunk": n_shrunk},
        "holds" if ok else "fails",
        float(ratio / bound) if ratio is not None else None,
    )


def check_weyl(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
               beta: DualFunctional | None = None, precision_cap: int = 256,
               budget: int | None = None) -> Report:
    """|S|^(2^(d-2)) against the squaring bound, with interval magnitudes.

    Escalates precision from 64 bits until the comparison is decided or the
    cap is hit; a cap below 64 bits is refused, since no comparison runs
    below it.
    """
    p, n, d = F.p, F.n, F.d
    if m < 1:
        raise ValueError("the squaring bound needs m >= 1")
    if precision_cap < 64:
        raise ValueError(f"precision cap must be >= 64 bits, got {precision_cap}")
    mprime = (m + 1 + 1) // 2  # ceil((m+1)/2)
    expo = 2 ** (d - 2)
    size_pm = section_space_size(p, e, m, n + 1)
    size_lower = section_space_size(p, e, m - mprime, n + 1)
    nk = n_count_plain(F, e, alpha, m - mprime, 0, budget)
    if beta is None:
        value = exp_sum(F, e, m, alpha, budget)
        rhs = Fraction(size_pm**expo * nk, size_lower ** (d - 1))
    else:
        value = exp_sum_pair(F, e, m, alpha, beta, budget)
        size_mid = section_space_size(p, e, mprime - 1, n + 1)
        nm = n_count_plain(F, e, beta, m, 0, budget)
        rhs = Fraction(size_pm ** (2 * expo), size_lower ** (d - 1)) * min(
            Fraction(nk), Fraction(nm, size_mid ** (d - 1))
        )
    bits = 64
    while True:
        verdict, ratio = compare_abs_power(value, expo, rhs, bits)
        if verdict != "undecided" or bits >= precision_cap:
            break
        bits = min(precision_cap, bits * 2)
    out = {"le": "holds", "gt": "fails", "undecided": "undecided"}[verdict]
    return Report(
        "weyl",
        {"p": p, "n": n, "d": d, "e": e, "m": m, "form": F.name,
         "alpha": list(alpha.flat()),
         "beta": list(beta.flat()) if beta is not None else None,
         "precision_bits": bits},
        value,
        rhs,
        out,
        ratio,
    )


def weyl_alpha_sample(F: SymmetricForm, e: int, m: int, max_degree: int = 2,
                      extra: int = 100, seed: int = 0,
                      budget: int | None = None) -> list[DualFunctional]:
    """Every functional of minimal degree <= max_degree plus seeded random
    draws from the rest of the dual space."""
    p = F.p
    de = F.d * e
    width = de + 1
    tab = divisor_table(p, de, budget)
    upper = p ** (m * width)
    rng = random.Random(seed)
    out = []
    small = np.nonzero(tab.degree <= max_degree)[0]
    for code0 in small:
        a1 = rng.randrange(upper)
        out.append(dual_from_code(p, de, m, int(code0) + p**width * a1))
    for _ in range(extra):
        out.append(dual_from_code(p, de, m, rng.randrange(p ** ((m + 1) * width))))
    return out
