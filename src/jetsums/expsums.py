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

Inner linear sums (the auxiliary z-sum, the x1-sum of the pair sums, the
functional sums over a full dual layer) are evaluated through kernels and
small precomputed tables rather than per-element enumeration; slow
enumerations cross-check them in the test suite.
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
    append_layer,
    base_scan,
    batch_digits,
    batch_eval_jets,
    count_solutions,
    count_tangent_pairs,
    encode_digits,
    fiber_chunks,
    fiber_classes,
    iter_base_chunks,
    mult_matrix,
    next_layer,
    unfolded_mult_matrix_batch,
    walk_layers,
    LayerSystem,
    _base_solutions,
    _count_multilinear_zeros_slow,
    count_multilinear_zeros,
)
from .forms import SymmetricForm
from .sections import (
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
    w = np.empty_like(values)
    csum = np.cumsum(values, axis=1) % p
    for i in range(layers):
        w[:, i, :] = csum[:, layers - 1 - i, :]
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


_HIST_CACHE: dict[tuple, np.ndarray] = {}
_TRANSFORM_CACHE: dict[tuple, np.ndarray] = {}

_INT64_MAX = int(np.iinfo(np.int64).max)


def _check_mass(F: SymmetricForm, e: int, m: int, what: str) -> None:
    """Refuse int64 histograms whose total mass, the p^((m+1)(n+1)(e+1))
    tuples of P_{e,m}^(n+1), could overflow."""
    mass = F.p ** ((m + 1) * (F.n + 1) * (e + 1))
    if mass > _INT64_MAX:
        raise BudgetExceeded(mass, _INT64_MAX, f"{what} (int64 counts)")


def _check_histogram(F: SymmetricForm, e: int, m: int, budget: int | None) -> None:
    """The value histogram's refusals, made before any cache lookup so that
    they do not depend on what ran earlier in the process."""
    _check_mass(F, e, m, "value histogram")
    check_budget(F.p ** ((F.d * e + 1) * (m + 1)), budget, "value histogram")


def _in_range(codes: np.ndarray, size: int) -> np.ndarray:
    """The codes, after checking they index a histogram of this size; a
    wrapped dtype would otherwise land at negative codes without an error."""
    if codes.size and (int(codes.min()) < 0 or int(codes.max()) >= size):
        raise AssertionError(f"histogram code outside [0, {size})")
    return codes


def _coset_codes(v0: np.ndarray, im: np.ndarray, p: int) -> np.ndarray:
    """m = 1 w-codes above a base value v0: layer-1 values u run over the
    span of im, and w_0 = v0 + u, w_1 = v0."""
    w0 = (v0[None, :] + linalg.span_elements(im, p)) % p
    return encode_digits(w0, p) + int(encode_digits(v0[None, :], p)[0]) * p ** v0.size


def _ann_registry(ann_bases: list, p: int):
    """Index annihilator classes in first-seen order.

    Returns key(ann): the index in ``ann_bases`` of the span of the rows of
    ``ann``, keyed by its rref basis (appended when new).
    """
    index: dict[bytes, int] = {}

    def key(ann: np.ndarray) -> int:
        basis = linalg.row_space(ann, p) if ann.size else ann
        sig = basis.tobytes() if basis.size else b""
        if sig not in index:
            index[sig] = len(ann_bases)
            ann_bases.append(basis)
        return index[sig]

    return key


def _pair_classes(F: SymmetricForm, X: np.ndarray, ann_key, seen: dict) -> np.ndarray:
    """Annihilator class of the unfolded pair map z -> z . grad F(x) for
    every tuple x of a (N, n+1, m+1, e+1) stack, in the stack's order.

    Tuples are keyed by the rref of their image, FIBER_CHUNK at a time, as
    ``fiber_classes`` does; each image not in ``seen`` (image key -> class)
    gets its annihilator computed once and registered through ``ann_key``,
    in the order of the first tuple that has it.
    """
    p = F.p
    out = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], FIBER_CHUNK):
        M = unfolded_mult_matrix_batch(F, X[start : start + FIBER_CHUNK])
        image, rank = linalg.rref_batch(M.transpose(0, 2, 1), p)
        keys = np.concatenate([rank[:, None], image.reshape(rank.size, -1)], axis=1)
        flat = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
        _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
        ids = np.empty(first.size, dtype=np.int64)
        for u in np.argsort(first):
            i = first[u]
            sig = flat[i].tobytes()
            if sig not in seen:
                ann = linalg.annihilator(image[i, : rank[i]], M.shape[1], p)
                seen[sig] = ann_key(ann)
            ids[u] = seen[sig]
        out[start : start + rank.size] = ids[inverse.ravel()]
    return out


def _free_top_layer(F: SymmetricForm, X: np.ndarray):
    """Complete each tuple of a stack X of layers 0..m-1 by every top layer
    in F_p^((n+1)(e+1)), in (tuple, top-layer code) order.  Yields blocks
    (tuples, their F-values)."""
    p = F.p
    ncols = X.shape[1] * X.shape[3]

    def tops(lo, hi):
        return batch_digits(np.arange(lo, hi, dtype=np.int64), p, ncols)

    for full in append_layer(X, p**ncols, tops, None, p):
        yield full, batch_eval_jets(F, full)


def _add_counts(hist: dict, keys) -> None:
    """hist[key] += 1 for each key of an iterable of hashable keys."""
    for key in keys:
        hist[key] = hist.get(key, 0) + 1


def value_histogram(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """Histogram over w-codes of F-values on gg tuples in P_{e,m}^(n+1).

    m = 0 streams the tuple space; m = 1 fibers over the base layer, where
    the top layer contributes one image coset of the gradient multiplication
    map with multiplicity p^(dim ker).  Base points are grouped by value and
    image first, so each coset is spanned once per class.
    """
    _check_histogram(F, e, m, budget)
    key = (F.key(), e, m)
    if key in _HIST_CACHE:
        return _HIST_CACHE[key]
    p, n = F.p, F.n
    de = F.d * e
    width = de + 1
    size = p ** (width * (m + 1))
    if m == 0:
        hist = np.zeros(size, dtype=np.int64)
        for _, _, values, gg in iter_base_chunks(F, e, budget):
            codes = encode_digits(values[gg], p)
            hist += np.bincount(_in_range(codes, size), minlength=size)
    elif m == 1:
        hist = np.zeros(size, dtype=np.int64)
        scan = base_scan(F, e, budget)
        gg = scan.generating
        ncols = (n + 1) * (e + 1)
        classes, _ = fiber_classes(F, scan.coords[gg], scan.values[gg])
        for v0, im, count in classes:
            codes = _in_range(_coset_codes(v0, im, p), size)
            np.add.at(hist, codes, count * p ** (ncols - im.shape[0]))
    else:
        raise NotImplementedError("value histograms cover m <= 1")
    _HIST_CACHE[key] = hist
    return hist


def all_sums(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> np.ndarray:
    """S(alpha) for every alpha on P_{de,m}, as (p^k, p) coefficient rows."""
    _check_histogram(F, e, m, budget)
    key = (F.key(), e, m)
    if key not in _TRANSFORM_CACHE:
        hist = value_histogram(F, e, m, budget)
        k = (F.d * e + 1) * (m + 1)
        _TRANSFORM_CACHE[key] = char_transform(hist, F.p, k)
    return _TRANSFORM_CACHE[key]


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


_DIVTAB_CACHE: dict[tuple, DivisorTable] = {}


def divisor_table(p: int, de: int, budget: int | None = None) -> DivisorTable:
    # checked before the lookup, so a refusal does not depend on earlier calls
    check_divisor_table_budget(p, de, budget)
    key = (p, de)
    if key not in _DIVTAB_CACHE:
        _DIVTAB_CACHE[key] = DivisorTable(p, de, *minimal_divisor_table(p, de, budget))
    return _DIVTAB_CACHE[key]


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
    p, n = F.p, F.n
    if alpha0.m != 0 or alpha0.r != F.d * e:
        raise ValueError("alpha0 must be a t-degree-zero functional on P_de")
    if not globally_generates(y):
        raise ValueError("y must globally generate")
    x0 = np.array([[jet.coeffs[0] for jet in s.coeffs] for s in y], dtype=np.int64)
    L = mult_matrix(F, x0)
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
        L = mult_matrix(F, x0)
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


_PAIR_CACHE: dict[tuple, PairData] = {}


def pair_data(F: SymmetricForm, e: int, m: int, budget: int | None = None) -> PairData:
    key = (F.key(), e, m)
    if key in _PAIR_CACHE:
        return _PAIR_CACHE[key]
    p, n = F.p, F.n
    de = F.d * e
    width = de + 1
    ncols = (n + 1) * (e + 1)
    hist: dict = {}
    ann_bases: list[np.ndarray] = []
    ann_key = _ann_registry(ann_bases, p)

    scan = base_scan(F, e, budget)
    gg = scan.generating
    coords, values = scan.coords[gg], scan.values[gg]
    if m == 0:
        classes, _ = fiber_classes(F, coords, values)
        for v0, im, count in classes:
            # annihilator of the image = left kernel of L
            k = ann_key(linalg.annihilator(im, width, p))
            code = int(encode_digits(v0[None], p)[0])
            hist[(code, k)] = hist.get((code, k), 0) + count
    elif m == 1:
        trivial = ann_key(np.zeros((0, 2 * width), dtype=np.int64))
        classes, ranks = fiber_classes(F, coords, values)
        for v0, im, count in classes:
            if im.shape[0] < width:
                continue
            # block-triangular with surjective diagonal: annihilator is 0
            # for every lift x0 + t*x1, so the layer-1 value can be
            # grouped into image cosets
            weight = count * p ** (ncols - width)
            for code in _coset_codes(v0, im, p):
                key2 = (int(code), trivial)
                hist[key2] = hist.get(key2, 0) + weight
        explicit = np.nonzero(ranks < width)[0]
        if explicit.size:
            check_budget(
                int(ranks.size) * p**ncols,
                budget,
                "non-surjective pair annihilator scan",
            )
            seen: dict = {}
            bases = coords[explicit].astype(np.int64)[:, :, None, :]
            for full, vals in _free_top_layer(F, bases):
                klass = _pair_classes(F, full, ann_key, seen)
                codes = w_code_from_values(vals, p, 1)
                _add_counts(hist, zip(codes.tolist(), klass.tolist()))
    else:
        raise NotImplementedError("pair data covers m <= 1")
    data = PairData(p, e, m, de, hist, ann_bases)
    _PAIR_CACHE[key] = data
    return data


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

    Fibered: base solutions, middle layers walked in solution cosets of the
    gradient multiplication map, top layer contributing one image coset
    with multiplicity p^(dim ker).  With ``with_ann`` the counts are split
    by the annihilator class of the pair map; a surjective base map forces
    the trivial annihilator for the whole fiber (block triangular), other
    bases fall back to explicit enumeration of the top layer, under the
    budget.

    Returns (array KK, dict {(u_code, ann_key): count}, ann_bases).
    """
    p, n = F.p, F.n
    de = F.d * e
    width = de + 1
    ncols = (n + 1) * (e + 1)
    _check_mass(F, e, m, "slice histogram")
    kk = np.zeros(p**width, dtype=np.int64)
    hist: dict = {}
    ann_bases: list[np.ndarray] = []
    ann_key = _ann_registry(ann_bases, p)
    seen: dict = {}

    trivial = ann_key(np.zeros((0, (m + 1) * width), dtype=np.int64))
    x0s = _base_solutions(F, e, budget)
    for rows, Ls, images, ranks in fiber_chunks(F, x0s):
        for x0, L, image, rank in zip(x0s[rows], Ls, images, ranks):
            system = LayerSystem.of(L, p)
            walks = walk_layers(F, x0[None, :, None, :], m - 1, system)
            if with_ann and rank < width:
                for X in walks:
                    check_budget(p**ncols * ncols, budget, "explicit slice fiber")
                    for full, vals in _free_top_layer(F, X):
                        codes = _in_range(encode_digits(vals[:, m], p), kk.size)
                        kk += np.bincount(codes, minlength=kk.size)
                        klass = _pair_classes(F, full, ann_key, seen)
                        _add_counts(hist, zip(codes.tolist(), klass.tolist()))
                continue
            imspan = linalg.span_elements(image[:rank], p)
            weight = p**system.kerdim
            check_budget(
                p ** (system.kerdim * (m - 1)) * imspan.shape[0], budget, "slice histogram"
            )
            for X in walks:
                c = next_layer(F, X)
                codes = encode_digits((c[:, None, :] + imspan[None]) % p, p).ravel()
                kk += np.bincount(_in_range(codes, kk.size), minlength=kk.size) * weight
                if with_ann:
                    uniq, counts = np.unique(codes, return_counts=True)
                    for code, count in zip(uniq.tolist(), counts.tolist()):
                        key = (code, trivial)
                        hist[key] = hist.get(key, 0) + count * weight
    return kk, hist, ann_bases


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
    if alpha.r != F.d * e:
        raise ValueError("functional lives on the wrong space")
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
