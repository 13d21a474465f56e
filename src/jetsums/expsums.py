"""Exponential sums over section spaces and the exact arc identities.

The sum attached to a functional alpha on P_{de,m} is

    S(alpha) = sum over gg x in P_{e,m}^(n+1) of psi_m(alpha(F(x))),

an exact element of Z[zeta_p].  Everything here reduces to two computable
objects:

* the value histogram of F over generating tuples, stored in "partial sum"
  coordinates w_i = v_i + ... + v_(m-i), in which psi_m(alpha(v)) is the
  plain pairing zeta^(alpha . w); and
* an exact character transform of such histograms: one integer-shift
  butterfly per coordinate, which returns every S(alpha) at once as
  cyclotomic coefficient vectors.

The value, pair and slice histograms share one fiber engine at every jet
order: base points (fiber classes computed once per (F, e), or base
solutions), middle layers run freely or in solution cosets, and one
top-layer leaf, ``_top_layer``, that adds the image coset of the gradient
map with weight p^(dim ker), or enumerates the top layer where pair classes
need it.  The x1-sum of the pair sums and the full dual layer sums go
through kernels and small tables; slow enumerations cross-check them.
Reused results go through the bounded ``sections.MEMO``, after all refusals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .arith import Cyclo, compare_abs_power
from .counting import (
    FIBER_CHUNK,
    WALK_CHUNK,
    append_layer,
    base_scan,
    base_systems,
    batch_digits,
    batch_eval_jets,
    count_solutions,
    count_tangent_pairs,
    descend,
    encode_digits,
    generating_fibers,
    image_keys,
    iter_base_chunks,
    mult_matrix_batch,
    next_layer,
    unfolded_mult_matrix_batch,
    walk_layers,
    _check_scan,
    _count_multilinear_zeros_slow,
    count_multilinear_zeros,
)
from .forms import SymmetricForm
from .sections import (
    MEMO,
    BudgetExceeded,
    DivisorP1,
    DualFunctional,
    JetPoly,
    check_budget,
    check_divisor_table_budget,
    globally_generates,
    minimal_divisor,
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

    Returns an array (p^k, p) of cyclotomic coefficient vectors.  One
    butterfly per coordinate; the twiddles zeta^(a_i v_i) are coefficient
    rolls, so everything stays in integer arithmetic.
    """
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


def dual_code(alpha: DualFunctional) -> int:
    """Little-endian code of the flat (layer-major) coordinates."""
    code = 0
    for i, c in enumerate(alpha.flat()):
        code += int(c) * alpha.p**i
    return code


def dual_from_code(p: int, r: int, m: int, code: int) -> DualFunctional:
    length = (r + 1) * (m + 1)
    flat = []
    for _ in range(length):
        flat.append(code % p)
        code //= p
    return DualFunctional.from_flat(p, r, m, flat)


# ---------------------------------------------------------------------------
# value histograms over generating tuples


_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_mass(F: SymmetricForm, e: int, m: int, what: str) -> None:
    """Refuse int64 histograms whose total mass, the p^((m+1)(n+1)(e+1))
    tuples of P_{e,m}^(n+1), could overflow."""
    mass = F.p ** ((m + 1) * (F.n + 1) * (e + 1))
    if mass > _INT64_MAX:
        raise BudgetExceeded(mass, _INT64_MAX, f"{what} (int64 counts)")


def _in_range(codes: np.ndarray, size: int) -> np.ndarray:
    """The codes, after checking they index a histogram of this size; a
    wrapped dtype would otherwise land at negative codes without an error."""
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= size):
        raise AssertionError(f"histogram code outside [0, {size})")
    return codes


class _AnnClasses:
    """Annihilator classes of pair maps in first-seen order, each kept as an
    rref basis (rows) in ``bases``; class 0 (``TRIVIAL``) is {0}.  Each
    distinct image has its annihilator computed once."""

    TRIVIAL = 0

    def __init__(self, p: int, rows: int):
        self.p = p
        self.bases = [np.zeros((0, rows), dtype=np.int64)]
        self._index = {b"": self.TRIVIAL}  # rref basis -> class
        self._seen: dict[bytes, int] = {}   # image key -> class

    def of(self, F: SymmetricForm, X: np.ndarray) -> np.ndarray:
        """Class of the unfolded pair map z -> z . grad F(x) for every tuple
        x of a (N, n+1, m+1, e+1) stack, in order, FIBER_CHUNK at a time."""
        p, out = self.p, np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], FIBER_CHUNK):
            M = unfolded_mult_matrix_batch(F, X[start : start + FIBER_CHUNK])
            image, rank, keys, first, inverse = image_keys(M, p)
            ids = np.empty(first.size, dtype=np.int64)
            for u in np.argsort(first):
                sig = keys[first[u]].tobytes()
                if sig not in self._seen:
                    ann = linalg.annihilator(image[first[u], : rank[first[u]]], M.shape[1], p)
                    basis = linalg.row_space(ann, p) if ann.size else ann
                    k = self._seen[sig] = self._index.setdefault(basis.tobytes(), len(self.bases))
                    if k == len(self.bases):
                        self.bases.append(basis)
                ids[u] = self._seen[sig]
            out[start : start + rank.size] = ids[inverse]
        return out


def _free_layers(X: np.ndarray, top: int, p: int):
    """Extend a stack X of known layers 0..k-1 by every layer in
    F_p^((n+1)(e+1)) through layer ``top``: the ``descend`` stacks, in
    (tuple, layer code) order."""
    ncols = X.shape[1] * X.shape[3]
    every = lambda lo, hi: batch_digits(np.arange(lo, hi), p, ncols)
    yield from descend(X, top, lambda Y: append_layer(Y, p**ncols, every, None, p))


def _top_layer(F: SymmetricForm, X: np.ndarray, m: int, image: np.ndarray | None,
               ann: _AnnClasses | None):
    """The leaf of every fiber route: complete a stack X of tuples known
    through layer m-1, whose base maps L share one image, by layer m.

    Yields blocks (V, span, weight, classes): row i stands for the value
    layers V[i] with each row of span added to layer m, and pair class
    classes[i].  Layer m enters only at t^m, as c_m + L x^m, so given the
    image of L, V is F with layer m zero, span the image, the weight
    p^(dim ker L), and the pair map of an onto L has trivial annihilator
    (block triangular).  With ``image`` None every top layer is enumerated
    (none at m = 0: the base layer is the top) and classed by ``ann``.
    """
    p = F.p
    if image is None:
        for full in _free_layers(X, m, p):
            V = batch_eval_jets(F, full)
            yield V, np.zeros((1, V.shape[2]), dtype=np.int64), 1, ann.of(F, full)
        return
    V, span = next_layer(F, X), linalg.span_elements(image, p)
    kerdim = X.shape[1] * X.shape[3] - image.shape[0]
    step = max(1, WALK_CHUNK // span.shape[0])  # about WALK_CHUNK values per block
    for i in range(0, V.shape[0], step):
        block = V[i : i + step]
        yield block, span, p**kerdim, None if ann is None else np.full(len(block), ann.TRIVIAL)


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


def _base_leaves(F: SymmetricForm, e: int, m: int, ann: _AnnClasses | None,
                 budget: int | None):
    """``_top_layer`` blocks over every generating tuple of P_{e,m}^(n+1),
    classed by ``ann`` if given.  The refusals are made at the call, from
    the class sizes alone; the points are grouped (``_image_groups``) only
    when the blocks are first asked for, so a memo hit never groups them.
    """
    p, width, ncols = F.p, F.d * e + 1, (F.n + 1) * (e + 1)
    coords, ids, images = generating_fibers(F, e, budget)
    pairs = ann is not None and m > 0
    explicit = np.array([pairs and im.shape[0] < width for im in images], dtype=bool)
    if m >= 2:
        check_budget(ids.size * p ** (ncols * (m - 1) + width), budget, "free jet-layer walk")
    if explicit.any():
        _check_pair_scan(F, e, m, int(explicit[ids].sum()) * p ** (ncols * (m - 1)), budget,
                         "non-surjective pair annihilator scan")

    def leaves():
        for X, image, weight in _image_groups(coords, ids, images, explicit, m):
            for W in _free_layers(X.astype(np.int64)[:, :, None, :], m - 1, p):
                for V, span, mult, klass in _top_layer(F, W, m, image, ann):
                    yield V, span, weight * mult, klass

    return leaves()


def _image_groups(coords, ids, images, explicit, m: int) -> list:
    """(points, image, weight) groups of the base points sharing their
    gradient image.  With no layer between base and top (m <= 1) a coset
    depends only on the fiber class, so each class enters once by its first
    point, weighted by its size (one group per image and size); above that
    every point enters.  The points whose pairs need the top layer
    enumerated (``explicit`` classes) come last, in scan order, with no
    image."""
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    by_image: dict[tuple, list] = {}
    for k in np.flatnonzero(~explicit).tolist():
        by_image.setdefault((images[k].tobytes(), int(counts[k]) if m <= 1 else 1), []).append(k)
    return [
        (coords[first[ks] if m <= 1 else np.isin(ids, ks)], images[ks[0]] if m else None, weight)
        for (_, weight), ks in by_image.items()
    ] + ([(coords[explicit[ids]], None, 1)] if explicit.any() else [])


def _add_counts(hist: dict, codes: np.ndarray, klass: np.ndarray, weight: int) -> None:
    """hist[(code, class)] += weight for every entry of codes (N, S), with the
    class of its row."""
    for k in np.unique(klass).tolist():
        uniq, counts = np.unique(codes[klass == k], return_counts=True)
        for code, count in zip(uniq.tolist(), counts.tolist()):
            hist[(code, k)] = hist.get((code, k), 0) + count * weight


def _value_leaves(F: SymmetricForm, e: int, m: int, budget: int | None):
    """The value histogram's leaves: m = 0 streams the tuple space, higher
    orders take the fiber engine (``_base_leaves``).  Every refusal is made
    at the call, so ``all_sums`` makes them before its memo lookup."""
    _check_mass(F, e, m, "value histogram")
    check_budget(F.p ** ((F.d * e + 1) * (m + 1)), budget, "value histogram")
    if m:
        return _base_leaves(F, e, m, None, budget)
    _check_scan(F, e, budget)  # every generating tuple is a base point
    zero = np.zeros((1, F.d * e + 1), dtype=np.int64)
    return ((values[gg][:, None], zero, 1, None)
            for _, _, values, gg in iter_base_chunks(F, e, budget))


def value_histogram(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """Histogram over w-codes of F-values on gg tuples in P_{e,m}^(n+1)."""
    leaves = _value_leaves(F, e, m, budget)
    p, size = F.p, F.p ** ((F.d * e + 1) * (m + 1))
    hist = np.zeros(size, dtype=np.int64)
    for V, span, weight, _ in leaves:
        np.add.at(hist, _in_range(_w_codes(V, span, p), size), weight)
    return hist


def all_sums(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """S(alpha) for every alpha on P_{de,m}, as (p^k, p) coefficient rows."""
    _value_leaves(F, e, m, budget)  # the refusals only: the leaves are lazy
    return MEMO.get(("all_sums", F.key(), e, m), lambda: char_transform(
        value_histogram(F, e, m, budget), F.p, (F.d * e + 1) * (m + 1)))


def exp_sum(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
            budget: int | None = None) -> Cyclo:
    """S(alpha), exact."""
    if alpha.r != F.d * e or alpha.m != m:
        raise ValueError("functional lives on the wrong space")
    sums = all_sums(F, e, m, budget)
    return Cyclo(F.p, sums[dual_code(alpha)])


def exp_sum_slow(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
                 budget: int | None = None) -> Cyclo:
    """Direct enumeration oracle for S(alpha) (small spaces only)."""
    import itertools

    from .arith import psi_m
    from .forms import eval_form
    from .sections import enumerate_sections

    p, n = F.p, F.n
    size = section_space_size(p, e, m, n + 1)
    check_budget(size * (n + 1), budget, "direct exponential sum")
    acc = Cyclo.zero(p)
    for combo in itertools.product(
        list(enumerate_sections(p, e, m, budget)), repeat=n + 1
    ):
        if not globally_generates(combo):
            continue
        acc = acc + psi_m(alpha(eval_form(F, combo)))
    return acc


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
    check_divisor_table_budget(p, de, budget)
    return MEMO.get(("divisor_table", p, de),
                    lambda: DivisorTable(p, de, *minimal_divisor_table(p, de, budget)))


@dataclass(frozen=True)
class ArcLabel:
    kind: str           # "major" | "minor"
    divisor: DivisorP1 | None
    degree: int
    minimizers: int = 1


def classify_arc(alpha: DualFunctional, e: int, g: int = 0,
                 budget: int | None = None) -> ArcLabel:
    """Major iff the minimal divisor degree is <= e - 2g + 1.

    Rechecks minimizer uniqueness inside the range where it is forced
    (two distinct minimizers of degree z would need 2z > de + 1); a
    boundary functional with several minimizers keeps the first one and
    reports the count in the label.
    """
    from .sections import count_minimizers

    z, deg, unique = minimal_divisor(alpha)
    mult = 1 if unique else count_minimizers(
        DualFunctional(alpha.p, alpha.r, 0, (alpha.parts[0],)), deg
    )
    if deg <= e - 2 * g + 1:
        if mult != 1 and 2 * deg <= alpha.r + 1:
            raise IdentityViolation(Report(
                "arc-classification", {"alpha": alpha.flat()},
                mult, 1, "non-unique minimal divisor below the forcing bound",
            ))
        return ArcLabel("major", z, deg, mult)
    return ArcLabel("minor", z, deg, mult)


def classify_arc_pair(alpha: DualFunctional, beta: DualFunctional, e: int,
                      g: int = 0) -> str:
    la = classify_arc(alpha, e, g)
    lb = classify_arc(beta, e, g)
    return "major" if la.kind == lb.kind == "major" else "minor"


def layer_sum_table(p: int, width: int) -> np.ndarray:
    """sum over a full dual layer of zeta^(a.w) for every w, computed by a
    small exact transform of the all-ones histogram."""
    ones = np.ones(p**width, dtype=np.int64)
    return char_transform(ones, p, width)


def major_weighted_sums(F: SymmetricForm, e: int, g: int = 0,
                        budget: int | None = None) -> np.ndarray:
    """sum over pairs (Z, alpha0) with alpha0 minimally through Z and
    deg Z <= e - 2g + 1 of zeta^(alpha0.u), for every u.

    A functional with several minimizers at its minimal degree is counted
    once per minimizer, which is what the divisor-grouped double sum does.
    """
    p = F.p
    de = F.d * e
    tab = divisor_table(p, de, budget)
    width = de + 1
    weights = np.where(tab.degree <= e - 2 * g + 1, tab.multiplicity, 0)
    return char_transform(weights.astype(np.int64), p, width)


# ---------------------------------------------------------------------------
# the auxiliary linear sum at the heart of the major-arc collapse


def t_inner_sum(F: SymmetricForm, e: int, alpha0: DualFunctional,
                y: tuple[JetPoly, ...], method: str = "histogram",
                budget: int | None = None) -> Cyclo:
    """T = sum over z in P_e^(n+1) of psi(alpha0(z . grad F(y mod t))).

    Requires y globally generating.  The histogram method tabulates the
    linear form over all z (vectorized); the rank method evaluates the same
    sum through the kernel of the composed functional.
    """
    if method not in ("histogram", "rank"):
        raise ValueError(f"unknown method {method!r}")
    p, n = F.p, F.n
    if alpha0.m != 0 or alpha0.r != F.d * e:
        raise ValueError("alpha0 must be a t-degree-zero functional on P_de")
    if not globally_generates(y):
        raise ValueError("y must globally generate")
    x0 = np.array([[jet.coeffs[0] for jet in s.coeffs] for s in y], dtype=np.int64)
    L = mult_matrix_batch(F, x0[None])[0]
    if method == "rank":
        functional = np.array(alpha0.parts[0], dtype=np.int64) @ L % p
        if functional.any():
            return Cyclo.zero(p)
        return Cyclo.integer(p, p ** L.shape[1])
    hist = t_value_histogram(F, L, budget)
    exps = np.zeros(p, dtype=np.int64)
    a0 = np.array(alpha0.parts[0], dtype=np.int64)
    width = F.d * e + 1
    vdigits = batch_digits(np.arange(p**width, dtype=np.int64), p, width)
    klass = vdigits @ a0 % p
    for c in range(p):
        exps[c] = hist[klass == c].sum()
    return Cyclo(p, exps)


def t_value_histogram(F: SymmetricForm, L: np.ndarray, budget: int | None = None) -> np.ndarray:
    """Histogram of z . grad F(y) over all degree-zero z, from the matrix L."""
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


def t_vanishing_report(F: SymmetricForm, e: int, g: int = 0, samples: int = 100,
                       seed: int = 0, budget: int | None = None) -> Report:
    """Check the collapse input: T(alpha0; y) = p^((n+1)(e+1)) for the zero
    functional and 0 for every functional of minimal degree in [1, e-2g+1],
    over a deterministic sample of generating y."""
    p, n = F.p, F.n
    de = F.d * e
    width = de + 1
    scan = base_scan(F, e, budget)
    gidx = np.nonzero(scan.generating)[0]
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(gidx.size), min(samples, gidx.size)))
    tab = divisor_table(p, de, budget)
    in_range = (tab.degree >= 1) & (tab.degree <= e - 2 * g + 1)
    failures = []
    full = p ** ((n + 1) * (e + 1))
    for ci in chosen:
        x0 = scan.coords[gidx[ci]].astype(np.int64)
        L = mult_matrix_batch(F, x0[None])[0]
        hist = t_value_histogram(F, L, budget)
        sums = char_transform(hist, p, width)
        zero_val = Cyclo(p, sums[0])
        if zero_val != Cyclo.integer(p, full):
            failures.append(("zero-functional", ci))
        bad = [
            int(code)
            for code in np.nonzero(in_range)[0]
            if not Cyclo(p, sums[code]).is_zero()
        ]
        if bad:
            failures.append((f"nonvanishing at y index {ci}", bad[:3]))
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

    ann_bases[k] is an rref basis (rows) of the functionals beta with
    beta . (x1 -> x1 . grad F(x0)) = 0, in flat layer-major coordinates.
    """

    p: int
    e: int
    m: int
    de: int
    hist: dict
    ann_bases: list[np.ndarray]


def pair_data(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> PairData:
    """The joint histogram of ``value_histogram``'s fiber engine with pair
    classes: a base map that is onto gives cosets in the trivial class, any
    other has its top layer enumerated and each tuple classed."""
    de = F.d * e
    ann = _AnnClasses(F.p, (m + 1) * (de + 1))
    leaves = _base_leaves(F, e, m, ann, budget)  # refusals before the lookup

    def build():
        hist: dict = {}
        for V, span, weight, klass in leaves:
            _add_counts(hist, _w_codes(V, span, F.p), klass, weight)
        return PairData(F.p, e, m, de, hist, ann.bases)

    return MEMO.get(("pair_data", F.key(), e, m), build)


def exp_sum_pair(F: SymmetricForm, e: int, m: int, alpha: DualFunctional,
                 beta: DualFunctional, budget: int | None = None) -> Cyclo:
    """S(alpha, beta): x0 ranges over gg tuples, x1 freely; the x1-sum is
    p^(dim P) on the annihilator of the gradient multiplication map and 0
    off it."""
    p, n = F.p, F.n
    data = pair_data(F, e, m, budget)
    width = data.de + 1
    bflat = np.array(beta.flat(), dtype=np.int64)
    aflat = np.array(alpha.flat(), dtype=np.int64)
    full = p ** ((m + 1) * (n + 1) * (e + 1))
    member = [
        (not b.size and not bflat.any()) or (b.size and linalg.in_row_span(b, bflat, p))
        for b in data.ann_bases
    ]
    exps = np.zeros(p, dtype=np.int64)
    digits_cache: dict[int, np.ndarray] = {}
    for (code, k), count in data.hist.items():
        if not member[k]:
            continue
        if code not in digits_cache:
            digits_cache[code] = batch_digits(
                np.array([code]), p, width * (m + 1)
            )[0]
        wflat = digits_cache[code]
        exps[int(wflat @ aflat % p)] += count
    return Cyclo(p, exps) * full


# ---------------------------------------------------------------------------
# orthogonality and the major-arc collapse


def _dual_sum(F: SymmetricForm, e: int, m: int, pairs: bool,
              budget: int | None = None) -> Cyclo:
    """Sum of S(alpha), or of S(alpha, beta), over the full dual of P_{de,m}.

    Singles add up the transform rows; pairs weight the full-layer sum table
    at each w-code by the annihilator size, the number of beta for which the
    x1-sum does not vanish.
    """
    p = F.p
    if not pairs:
        return Cyclo(p, all_sums(F, e, m, budget).sum(axis=0))
    data = pair_data(F, e, m, budget)
    table = layer_sum_table(p, (data.de + 1) * (m + 1))
    total = Cyclo.zero(p)
    for (code, k), count in data.hist.items():
        total = total + Cyclo(p, table[code]) * (count * p ** data.ann_bases[k].shape[0])
    return total * p ** ((m + 1) * (F.n + 1) * (e + 1))


def check_orthogonality(F: SymmetricForm, e: int, m: int, pairs: bool = False,
                        budget: int | None = None) -> Report:
    """Sum of S(alpha) over the full dual against the solution count (or the
    pair version against the tangent-pair count), both sides exact."""
    p, n = F.p, F.n
    de = F.d * e
    params = {"p": p, "n": n, "d": F.d, "e": e, "m": m, "form": F.name,
              "pairs": pairs}
    lhs = _dual_sum(F, e, m, pairs, budget)
    if not pairs:
        rhs = p ** ((m + 1) * (de + 1)) * count_solutions(F, e, m, budget).raw_count
    else:
        rhs = (
            p ** (2 * (m + 1) * (de + 1))
            * count_tangent_pairs(F, e, m, budget).raw_count
        )
    ok = lhs == Cyclo.integer(p, rhs)
    report = Report("orthogonality", params, lhs, rhs,
                    "equal" if ok else "violated", 1.0 if ok else None)
    return report


def _major_mask(tab: DivisorTable, e: int, g: int = 0) -> np.ndarray:
    return tab.degree <= e - 2 * g + 1


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
    lhs = _major_lhs(F, e, m, tab, _major_mask(tab, e), pairs, budget)
    params["factor_exponent"] = (2 if pairs else 1) * (n + 1) * (e + 1)
    rhs = _dual_sum(F, e, m - 1, pairs, budget) * p ** params["factor_exponent"]
    ok = lhs == rhs
    return Report("major-identity", params, lhs, rhs,
                  "equal" if ok else "violated", 1.0 if ok else None)


def _major_lhs(F, e, m, tab, major, pairs, budget) -> Cyclo:
    """Left side of the collapse by the slice engine.

    The sum over the free upper parts of the functional is a precomputed
    full-layer table, which vanishes away from the origin, so only values
    F(x) = t^m u survive; at m = 1 the walk below the top layer is the base
    point itself.  Each u weighs the major functionals at degree zero, once
    per minimizer; pairs also weigh the annihilator class of the pair map.
    """
    p, n = F.p, F.n
    width = F.d * e + 1
    origin = Cyclo(p, _checked_layer_table(p, width)[0])
    gsum = major_weighted_sums(F, e, 0, budget)
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
    for _ in range(m):
        total = total * origin
    if pairs:
        total = total * p ** ((m + 1) * (n + 1) * (e + 1))
    return total


def _checked_layer_table(p: int, width: int) -> np.ndarray:
    """Full-dual layer sums, verified to be p^width at the origin and zero
    elsewhere before the slice contraction relies on that."""
    table = layer_sum_table(p, width)
    if Cyclo(p, table[0]) != Cyclo.integer(p, p**width):
        raise AssertionError("layer table origin value is wrong")
    for row in table[1:]:
        if not Cyclo(p, row).is_zero():
            raise AssertionError("layer table does not vanish off the origin")
    return table


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
    """KK(u) = #{x gg : F(x) = t^m u}, u over P_de (degree-zero layer).

    Base solutions, middle layers walked in solution cosets of the gradient
    map, then the fiber engine's leaf; ``with_ann`` splits the counts by
    annihilator class, enumerating the top layer above maps not onto.
    Returns (array KK, dict {(u_code, ann_key): count}, ann_bases).
    """
    p, width = F.p, F.d * e + 1
    _check_mass(F, e, m, "slice histogram")
    systems = list(base_systems(F, e, budget))
    if with_ann:  # at most p^(dim ker (m-1)) walks above each map not onto
        walks = sum(p ** (s.kerdim * (m - 1)) for _, s in systems if s.rank < width)
        _check_pair_scan(F, e, m, walks, budget, "explicit slice fiber")
    kk = np.zeros(p**width, dtype=np.int64)
    hist: dict = {}
    ann = _AnnClasses(p, (m + 1) * width)
    for x0, system in systems:
        explicit = with_ann and system.rank < width
        if not explicit:
            check_budget(p ** (system.kerdim * (m - 1) + system.rank), budget, "slice histogram")
        image = None if explicit else system.L[:, system.pivots].T  # pivot columns span im L
        for X in walk_layers(F, x0[None, :, None, :], m - 1, system):
            for V, span, weight, klass in _top_layer(F, X, m, image, ann):
                codes = encode_digits((V[:, None, m] + span) % p, p)
                np.add.at(kk, _in_range(codes, kk.size), weight)
                if with_ann:
                    _add_counts(hist, codes, klass, weight)
    return kk, hist, ann.bases


# ---------------------------------------------------------------------------
# auxiliary counting functions N and the inequality checks


def n_count(F: SymmetricForm, e: int, alpha: DualFunctional, k1: int, k2: int,
            s: int = 0, budget: int | None = None, method: str = "auto") -> int:
    """Count (d-1)-tuples over P_{e-s,k1}^(n+1) whose multilinear values are
    killed by alpha against every y in P_{e+(d-1)s, k2-1}, mod t^k2.

    The generation condition is dropped here on purpose.  The conditions
    are linear in the last tuple entry, so the count is a sum of
    p^(dim ker) over the first d-2 entries, by the rank engine
    ``counting.count_multilinear_zeros`` (one kernel at d = 2);
    method="enumerate" enumerates every tuple instead, as the oracle.
    """
    if method not in ("auto", "enumerate"):
        raise ValueError(f"unknown method {method!r}")
    if alpha.r != F.d * e:
        raise ValueError("functional lives on the wrong space")
    if k1 < 0:
        raise ValueError(f"need k1 >= 0, got k1={k1}")
    if k1 < k2 - 1:
        raise ValueError("need k1 >= k2 - 1")
    if not 0 <= s <= e:
        raise ValueError("need 0 <= s <= e")
    if alpha.m + 1 < k2:
        raise ValueError("functional has too few layers")
    cond = _n_condition_matrix(F, e, alpha, k1, k2, s)
    if method == "enumerate":
        return _count_multilinear_zeros_slow(F, e - s, k1, cond, budget)
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
               beta: DualFunctional | None = None, precision_bits: int = 64,
               precision_cap: int = 256, budget: int | None = None) -> Report:
    """|S|^(2^(d-2)) against the squaring bound, with interval magnitudes.

    Escalates precision until the comparison is decided or the cap is hit.
    """
    p, n, d = F.p, F.n, F.d
    if m < 1:
        raise ValueError("the squaring bound needs m >= 1")
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
    bits = precision_bits
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
