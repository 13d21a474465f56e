import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from jetsums import linalg
from jetsums.arith import Cyclo, psi_m
from jetsums.counting import (
    base_scan,
    batch_digits,
    batch_eval_jets,
    count_psi_zero_sections,
    count_solutions,
    encode_digits,
    generating_fibers,
    mult_matrix,
    unfolded_mult_matrix,
)
from jetsums.expsums import (
    IdentityViolation,
    _major_lhs,
    all_sums,
    char_transform,
    check_major_identity,
    check_orthogonality,
    check_shrink,
    check_weyl,
    classify_arc,
    classify_arc_pair,
    divisor_table,
    dual_from_code,
    dual_code,
    exp_sum,
    exp_sum_pair,
    exp_sum_slow,
    layer_sum_table,
    major_weighted_sums,
    n_count,
    n_count_plain,
    pair_data,
    slice_histogram,
    t_inner_sum,
    t_vanishing_report,
    value_histogram,
    weyl_alpha_sample,
)
from jetsums.forms import conic_form, eval_form, fermat_form, make_form
from jetsums.sections import (
    MEMO,
    BudgetExceeded,
    DualFunctional,
    JetPoly,
    enumerate_sections,
    globally_generates,
    section_space_size,
)


def _x0x1(n):
    return make_form(3, n, 2, [((1, 1) + (0,) * (n - 1), 1)], name="x0x1")


def _x0sq(n):
    return make_form(3, n, 2, [((2,) + (0,) * n, 1)], name="x0sq")


def test_char_transform_is_exact_dft():
    # brute-force comparison on a tiny histogram
    p, k = 3, 2
    rng = random.Random(0)
    hist = np.array([rng.randrange(5) for _ in range(p**k)], dtype=np.int64)
    out = char_transform(hist, p, k)
    for code in range(p**k):
        a = (code % p, code // p)
        acc = [0] * p
        for w in range(p**k):
            wd = (w % p, w // p)
            acc[(a[0] * wd[0] + a[1] * wd[1]) % p] += hist[w]
        assert Cyclo(p, out[code]) == Cyclo(p, acc)


@pytest.mark.slow
def test_exp_sum_matches_slow_oracle():
    F = conic_form(3)
    rng = random.Random(1)
    zero = DualFunctional.zero(3, 4, 0)
    assert exp_sum(F, 2, 0, zero) == exp_sum_slow(F, 2, 0, zero)
    for _ in range(4):
        a = dual_from_code(3, 4, 0, rng.randrange(3**5))
        assert exp_sum(F, 2, 0, a) == exp_sum_slow(F, 2, 0, a)


def test_exp_sum_jet_layer_matches_slow_oracle():
    # degree bound 0 keeps the direct double loop affordable at m = 1
    F = fermat_form(3, 2, 2)
    rng = random.Random(2)
    for _ in range(3):
        a = dual_from_code(3, 0, 1, rng.randrange(3**2))
        assert exp_sum(F, 0, 1, a) == exp_sum_slow(F, 0, 1, a)


def test_exp_sum_scaling_orbit():
    # S is constant along x -> c x combined with the matching rescale of the
    # functional (the form is homogeneous of degree d)
    F = conic_form(3)
    rng = random.Random(3)
    for _ in range(5):
        a = dual_from_code(3, 4, 0, rng.randrange(3**5))
        c = rng.choice((1, 2))
        scaled = DualFunctional(
            3, 4, 0, (tuple(v * pow(c, F.d, 3) % 3 for v in a.parts[0]),)
        )
        assert exp_sum(F, 2, 0, a) == exp_sum(F, 2, 0, scaled) or c == 1
        # equality of the full sums: rescaling x permutes the gg tuples
        assert exp_sum(F, 2, 0, scaled) == exp_sum(F, 2, 0, a)


def test_pair_sum_matches_brute_force():
    # degree bound 0: both tuple spaces have 27 points, so the double sum
    # over (x0, x1) is directly computable
    F = conic_form(3)
    p, e, m = 3, 0, 0
    secs = list(enumerate_sections(p, e, m))
    tuples = [t for t in itertools.product(secs, repeat=3)]
    rng = random.Random(4)
    from jetsums.forms import gradient
    from jetsums.sections import mul_sections

    for _ in range(4):
        alpha = dual_from_code(p, 0, 0, rng.randrange(p))
        beta = dual_from_code(p, 0, 0, rng.randrange(p))
        brute = Cyclo.zero(p)
        for x0 in tuples:
            if not globally_generates(x0):
                continue
            g = gradient(F, x0)
            for x1 in tuples:
                inner = None
                for j in range(3):
                    term = mul_sections(x1[j], g[j])
                    inner = term if inner is None else inner + term
                val = alpha(eval_form(F, x0)) + beta(inner)
                brute = brute + psi_m(val)
        assert exp_sum_pair(F, e, m, alpha, beta) == brute


def test_pair_sum_with_zero_beta_is_free_x1():
    F = conic_form(3)
    e, m = 2, 0
    alpha = dual_from_code(3, 4, 0, 17)
    full = 3 ** (3 * 3)
    assert exp_sum_pair(F, e, m, alpha, DualFunctional.zero(3, 4, 0)) == exp_sum(
        F, e, m, alpha
    ) * full


def test_t_inner_sum_rank_vs_histogram():
    F = conic_form(3)
    scan_y = (
        JetPoly.from_ints(3, 2, 0, (1, 0, 0)),
        JetPoly.from_ints(3, 2, 0, (0, 1, 0)),
        JetPoly.from_ints(3, 2, 0, (0, 0, 1)),
    )
    for code in range(0, 3**5, 17):
        a0 = dual_from_code(3, 4, 0, code)
        hist_val = t_inner_sum(F, 2, a0, scan_y, method="histogram")
        rank_val = t_inner_sum(F, 2, a0, scan_y, method="rank")
        assert hist_val == rank_val


def test_t_inner_sum_values():
    F = conic_form(3)
    y = (
        JetPoly.from_ints(3, 2, 0, (1, 0, 0)),
        JetPoly.from_ints(3, 2, 0, (0, 1, 0)),
        JetPoly.from_ints(3, 2, 0, (0, 0, 1)),
    )
    assert t_inner_sum(F, 2, DualFunctional.zero(3, 4, 0), y) == Cyclo.integer(
        3, 3**9
    )
    a0 = DualFunctional(3, 4, 0, ((1, 0, 0, 0, 0),))
    assert t_inner_sum(F, 2, a0, y).is_zero()


def test_t_inner_sum_requires_generation():
    F = conic_form(3)
    bad = tuple(JetPoly.from_ints(3, 2, 0, (0, 1, 0)) for _ in range(3))
    with pytest.raises(ValueError):
        t_inner_sum(F, 2, DualFunctional.zero(3, 4, 0), bad)


def test_unknown_method_names_are_refused():
    """Each ``method`` parameter takes only its own names, and refuses any
    other before any work (budget 1 would refuse the work itself): an
    oracle's name given to another route must not run the fast route."""
    F = conic_form(3)
    y = tuple(JetPoly.from_ints(3, 2, 0, row) for row in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    calls = {
        "enumerate": lambda m: count_solutions(F, 2, 0, budget=1, method=m),
        "slow": lambda m: n_count(F, 2, DualFunctional.zero(3, 4, 1), 0, 1, budget=1, method=m),
        "auto": lambda m: t_inner_sum(F, 2, DualFunctional.zero(3, 4, 0), y, m, budget=1),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="unknown method"):
            call(name)


def test_t_vanishing_sample():
    rep = t_vanishing_report(conic_form(3), 2, samples=25, seed=3)
    assert rep.verdict == "holds"


def test_orthogonality_small_cases():
    F = fermat_form(3, 2, 2)
    assert check_orthogonality(F, 1, 0).verdict == "equal"
    assert check_orthogonality(F, 1, 1).verdict == "equal"
    assert check_orthogonality(F, 1, 0, pairs=True).verdict == "equal"
    # empty solution set: both sides vanish
    empty = check_orthogonality(conic_form(3), 1, 0)
    assert empty.verdict == "equal" and empty.rhs == 0
    # on singular forms some base maps are not onto, so the full dual pair
    # sum weighs those classes by their annihilator size
    forms = [form(n) for n in (1, 2) for form in (_x0x1, _x0sq)]
    for F in forms:
        for e, m in itertools.product((0, 1), repeat=2):
            assert check_orthogonality(F, e, m, pairs=True).verdict == "equal", (F.name, F.n, e, m)
    assert any(b.shape[0] for F in forms for b in pair_data(F, 1, 0).ann_bases)


def test_major_identity_small():
    F = fermat_form(3, 2, 2)
    assert check_major_identity(F, 1, 1).verdict == "equal"
    assert check_major_identity(F, 1, 1, pairs=True).verdict == "equal"


def test_major_identity_rejects_base_order():
    with pytest.raises(ValueError):
        check_major_identity(conic_form(3), 2, 0)


@pytest.mark.parametrize("p,e,codes", [
    (3, 2, None),
    (5, 3, random.Random(56).sample(range(5**7), 200)),
])
def test_classify_arc_matches_divisor_table(p, e, codes):
    # classify_arc scans divisors per functional, the identities read the
    # batched table: the two routes must give the same degree and count
    de = 2 * e
    tab = divisor_table(p, de)
    for code in codes if codes is not None else range(p ** (de + 1)):
        label = classify_arc(dual_from_code(p, de, 0, code), e)
        assert label.degree == tab.degree[code]
        assert label.minimizers == tab.multiplicity[code]


def _single_lhs_transform_oracle(F, e, tab, major):
    """m = 1 left side summed straight off the transform of all_sums(F, e, 1):
    every (divisor, functional) pair, a boundary functional with several
    minimizers once for each."""
    p = F.p
    width = F.d * e + 1
    sums = all_sums(F, e, 1)
    offsets = p**width * np.arange(p**width, dtype=np.int64)
    agg = [0] * p
    for code0 in np.nonzero(major)[0]:
        row = sums[int(code0) + offsets].sum(axis=0)
        for c in range(p):
            agg[c] += int(tab.multiplicity[code0]) * int(row[c])
    return Cyclo(p, agg)


def _pair_lhs_entry_oracle(F, e, tab, major):
    """m = 1 pair left side, one pair_data(F, e, 1) entry at a time: the
    degree-zero part of alpha through the major weights, its upper layer
    through the full-layer sum table, beta through a per-vector count over
    each annihilator span."""
    p, n = F.p, F.n
    width = F.d * e + 1
    data = pair_data(F, e, 1)
    gsum = major_weighted_sums(F, e)
    table = layer_sum_table(p, width)
    weights = []
    for basis in data.ann_bases:
        weight = 0
        for vec in linalg.span_elements(basis, p):
            code0 = sum(int(c) * p**i for i, c in enumerate(vec[:width]))
            if major[code0]:
                weight += int(tab.multiplicity[code0])
        weights.append(weight)
    total = Cyclo.zero(p)
    for (code, k), count in data.hist.items():
        w0, w1 = code % p**width, code // p**width
        term = Cyclo(p, gsum[w0]) * Cyclo(p, table[w1])
        total = total + term * (count * weights[k])
    return total * p ** (2 * (n + 1) * (e + 1))


# the singular forms have non-surjective base maps, so the pair side also
# runs the explicit top-layer branch of the slice engine
_M1_LHS_CASES = [
    (conic_form(3), 1), (conic_form(3), 2), (fermat_form(3, 2, 2), 1),
    (fermat_form(5, 1, 3), 1),
] + [(form(n), e) for form in (_x0x1, _x0sq) for n in (1, 2) for e in (0, 1)]


def test_single_lhs_transform_vs_slice_routes():
    # at m = 1 the transform of the jet-order-1 histogram is affordable, an
    # independent route to the left side the slice engine evaluates
    for F, e in _M1_LHS_CASES:
        tab = divisor_table(F.p, F.d * e)
        major = tab.degree <= e + 1
        via_slice = _major_lhs(F, e, 1, tab, major, False, None)
        assert via_slice == _single_lhs_transform_oracle(F, e, tab, major), (F.name, F.n, e)


def test_pair_lhs_entry_vs_slice_routes():
    for F, e in _M1_LHS_CASES:
        tab = divisor_table(F.p, F.d * e)
        major = tab.degree <= e + 1
        via_slice = _major_lhs(F, e, 1, tab, major, True, None)
        assert via_slice == _pair_lhs_entry_oracle(F, e, tab, major), (F.name, F.n, e)


def test_classify_arc():
    label = classify_arc(DualFunctional.zero(3, 4, 1), 2)
    assert label.kind == "major" and label.degree == 0 and label.divisor.is_zero()
    # boundary functional with several minimizers stays major, with count
    boundary = DualFunctional(3, 4, 1, ((0, 0, 1, 0, 0), (0, 0, 0, 0, 0)))
    label = classify_arc(boundary, 2)
    assert label.kind == "major" and label.degree == 3 and label.minimizers == 4
    # minor functionals exist once the half-degree cap exceeds e - 2g + 1
    F5 = fermat_form(5, 1, 3)
    found_minor = False
    for code in range(200):
        lab = classify_arc(dual_from_code(5, 6, 0, 81 * code + 7), 2)
        if lab.kind == "minor":
            found_minor = True
            assert lab.degree > 3
            break
    assert found_minor
    pair = classify_arc_pair(
        DualFunctional.zero(3, 4, 1), boundary, 2
    )
    assert pair == "major"


def test_n_count_rank_matches_enumeration():
    F = conic_form(3)
    rng = random.Random(5)
    for _ in range(5):
        a = dual_from_code(3, 4, 1, rng.randrange(3**10))
        assert n_count(F, 2, a, 0, 1, 0) == n_count(
            F, 2, a, 0, 1, 0, method="enumerate"
        )
    zero = DualFunctional.zero(3, 4, 1)
    assert n_count_plain(F, 2, zero, 0) == 3**9


@pytest.mark.parametrize("p,n,k1,k2,s", [
    (5, 1, 0, 1, 0), (5, 1, 0, 1, 1), (5, 1, 1, 1, 1), (7, 2, 0, 1, 1),
])
def test_n_count_rank_matches_enumeration_d3(p, n, k1, k2, s):
    # d = 3, e = 1: the rank route sums kernels over the first tuple entry
    F = fermat_form(p, n, 3)
    rng = random.Random(11 * p + k1 + s)
    for _ in range(3):
        a = dual_from_code(p, 3, 1, rng.randrange(p**8))
        assert n_count(F, 1, a, k1, k2, s) == n_count(
            F, 1, a, k1, k2, s, method="enumerate"
        )


def test_n_count_rejects_functional_off_the_value_space():
    # conic(3) at e = 2 has values in P_4; a functional on P_6 used to be
    # counted as the zero functional and one on P_2 raised IndexError
    F = conic_form(3)
    for a in (dual_from_code(3, 6, 1, 3**6), dual_from_code(3, 2, 1, 5)):
        for method in ("auto", "enumerate"):
            with pytest.raises(ValueError, match="wrong space"):
                n_count(F, 2, a, 0, 1, 0, method=method)


def test_n_count_rejects_negative_jet_order():
    # k1 = -1 once reached the rank engine with a slot of 0 and divided by it
    F = conic_form(3)
    a = dual_from_code(3, 4, 0, 5)
    for method in ("auto", "enumerate"):
        with pytest.raises(ValueError, match="k1 >= 0"):
            n_count(F, 2, a, -1, 0, 0, method=method)


def test_n_count_factorization():
    F = conic_form(3)
    rng = random.Random(6)
    for s in (0, 1):
        for _ in range(4):
            a = dual_from_code(3, 4, 1, rng.randrange(3**10))
            big = n_count(F, 2, a, 1, 1, s)
            small = n_count(F, 2, a, 0, 1, s)
            assert big == 3 ** (3 * (2 - s + 1)) * small


def test_n_count_d3_factorization():
    # shrink to constants so the k1 = 1 tuple space stays enumerable
    F = fermat_form(5, 1, 3)
    rng = random.Random(7)
    for _ in range(2):
        a = dual_from_code(5, 3, 1, rng.randrange(5**8))
        big = n_count(F, 1, a, 1, 1, 1)
        small = n_count(F, 1, a, 0, 1, 1)
        assert big == 5 ** (2 * 2 * 1) * small


def test_shrunk_count_forces_multilinear_vanishing():
    # with the prescribed shrink the counted tuples have identically zero
    # multilinear values, so the count collapses to the section count
    from jetsums.bounds import shrink_exponent

    F = conic_form(3)
    e = 2
    for code in (1, 40, 200):
        a = dual_from_code(3, 4, 0, code)
        label = classify_arc(a.__class__(3, 4, 0, a.parts), e)
        s = shrink_exponent(2, 0, e, label.degree)
        if not 0 <= s <= e:
            continue
        assert n_count(F, e, a, 0, 1, s) == count_psi_zero_sections(F, e, s, 0)


def test_weyl_trivial_and_pair_reduction():
    F = conic_form(3)
    zero = DualFunctional.zero(3, 4, 1)
    assert check_weyl(F, 2, 1, zero).verdict == "holds"
    a = dual_from_code(3, 4, 1, 7)
    single = check_weyl(F, 2, 1, a)
    assert single.verdict == "holds"
    pair = check_weyl(F, 2, 1, a, zero)
    assert pair.verdict == "holds"
    # with beta = 0 the min in the pair bound picks the alpha branch
    p, e, m = 3, 2, 1
    mprime = 1
    nk = n_count_plain(F, e, a, m - mprime)
    nm_beta = n_count_plain(F, e, zero, m)
    size_mid = section_space_size(p, e, mprime - 1, 3)
    assert Fraction(nk) <= Fraction(nm_beta, size_mid ** (F.d - 1))


def test_weyl_requires_jet_layer():
    with pytest.raises(ValueError):
        check_weyl(conic_form(3), 2, 0, DualFunctional.zero(3, 4, 0))


def test_weyl_sample_composition():
    F = conic_form(3)
    alphas = weyl_alpha_sample(F, 2, 1, max_degree=1, extra=7, seed=1)
    tab = divisor_table(3, 4)
    small = int((tab.degree <= 1).sum())
    assert len(alphas) == small + 7
    # deterministic for a fixed seed
    again = weyl_alpha_sample(F, 2, 1, max_degree=1, extra=7, seed=1)
    assert [a.flat() for a in alphas] == [a.flat() for a in again]


def test_shrink_check():
    F = conic_form(3)
    zero = DualFunctional.zero(3, 4, 0)
    rep = check_shrink(F, 2, zero, 0, 1)
    assert rep.verdict == "holds" and rep.tightness == 1.0
    rng = random.Random(8)
    for _ in range(5):
        a = dual_from_code(3, 4, 0, rng.randrange(3**5))
        assert check_shrink(F, 2, a, 0, 1).verdict == "holds"
    assert check_shrink(F, 2, zero, 0, 0).verdict == "holds"


def test_pair_annihilators_trivial_on_conic():
    data = pair_data(conic_form(3), 2, 0)
    assert all(b.size == 0 for b in data.ann_bases)


def test_report_serialization():
    rep = check_orthogonality(fermat_form(3, 2, 2), 1, 0)
    payload = rep.to_json()
    assert payload["check"] == "orthogonality"
    assert payload["verdict"] == "equal"
    assert "zeta_coeffs" in payload["lhs"]


def _per_point_fiber_reference(F, e):
    """value_histogram(F, e, 1) and the pair_data(F, e, 0) classes, one base
    point at a time with the scalar kernels."""
    p, n = F.p, F.n
    width = F.d * e + 1
    ncols = (n + 1) * (e + 1)
    scan = base_scan(F, e)
    hist = np.zeros(p ** (2 * width), dtype=np.int64)
    pairs: dict = {}
    for bi in np.nonzero(scan.generating)[0]:
        x0 = scan.coords[bi].astype(np.int64)
        v0 = scan.values[bi].astype(np.int64)
        L = mult_matrix(F, x0)
        im = linalg.row_space(L.T, p)
        u = linalg.span_elements(im, p)
        codes = encode_digits((v0 + u) % p, p) + encode_digits(v0[None], p)[0] * p**width
        hist[codes] += p ** (ncols - im.shape[0])
        ann = linalg.nullspace(np.ascontiguousarray(L.T), p)
        basis = linalg.row_space(ann, p) if ann.size else ann
        key = (int(encode_digits(v0[None], p)[0]), basis.tobytes())
        pairs[key] = pairs.get(key, 0) + 1
    return hist, pairs


@pytest.mark.parametrize("F,e", [
    (conic_form(3), 1), (conic_form(3), 2), (fermat_form(5, 1, 3), 1),
    (fermat_form(3, 2, 2), 1),
])
def test_grouped_fiber_routes_match_per_point_reference(F, e):
    hist, pairs = _per_point_fiber_reference(F, e)
    assert (value_histogram(F, e, 1) == hist).all()
    data = pair_data(F, e, 0)
    grouped = {
        (code, data.ann_bases[k].tobytes()): count
        for (code, k), count in data.hist.items()
    }
    assert grouped == pairs


def test_value_histogram_large_prime_matches_python_reference():
    # p > 127: base values no longer fit int8, which used to wrap into
    # negative histogram codes without any error
    F = fermat_form(137, 1, 2)
    p = F.p
    grads = [
        [(ex, c * ex[j], j) for ex, c in F.monomials.items() if ex[j]]
        for j in range(F.n + 1)
    ]

    def monomial(x, ex, drop=None):
        out = 1
        for k, ek in enumerate(ex):
            out *= x[k] ** (ek - (k == drop))
        return out

    ref = [0] * p**2
    for x in itertools.product(range(p), repeat=F.n + 1):
        if not any(x):
            continue
        v0 = sum(c * monomial(x, ex) for ex, c in F.monomials.items()) % p
        row = [sum(c * monomial(x, ex, j) for ex, c, j in g) % p for g in grads]
        image = range(p) if any(row) else [0]
        for u in image:
            ref[(v0 + u) % p + p * v0] += p ** (F.n + 1 - (1 if any(row) else 0))
    assert value_histogram(F, 0, 1).tolist() == ref


def test_all_sums_spot_checks_against_direct_sum():
    # every tuple of P_{1,1}^3 (3^12) evaluated by the array kernel, with
    # generation decided by the scalar test on the 3^6 base layers; the
    # character psi_1(alpha(v)) has exponent alpha_0.v_0 + alpha_0.v_1 +
    # alpha_1.v_0, independent of the w-coordinates of the transform
    F = conic_form(3)
    p, e, m = 3, 1, 1
    width = F.d * e + 1
    ncols = (F.n + 1) * (e + 1)
    gen = np.array([
        globally_generates(tuple(JetPoly.from_ints(p, e, 0, row) for row in x0))
        for x0 in batch_digits(np.arange(p**ncols), p, ncols).reshape(-1, F.n + 1, e + 1)
    ])
    codes = np.arange(p ** (2 * ncols), dtype=np.int64)
    layers = batch_digits(codes, p, 2 * ncols).reshape(-1, 2, F.n + 1, e + 1)
    values = batch_eval_jets(F, layers.transpose(0, 2, 1, 3))[gen[codes % p**ncols]]
    sums = all_sums(F, e, m)
    rng = random.Random(12)
    for code in [0] + [rng.randrange(p ** (2 * width)) for _ in range(12)]:
        a = np.array(dual_from_code(p, F.d * e, m, code).parts)
        expo = (values[:, 0] @ (a[0] + a[1]) + values[:, 1] @ a[0]) % p
        assert (sums[code] == np.bincount(expo, minlength=p)).all()


def test_histogram_budget_is_checked_before_the_cache():
    # a refusal must not depend on an earlier unbudgeted call of the route,
    # which left its result in the memo
    F = conic_form(3)
    for fn, args, budget, what in (
        (all_sums, (F, 1, 0), 10, "value histogram"),
        (all_sums, (F, 1, 0), 1000, "degree-zero tuple scan"),
        (value_histogram, (F, 1, 0), 10, "value histogram"),
        (pair_data, (F, 1, 0), 10, "materialized tuple scan"),
        (base_scan, (F, 2), 10, "materialized tuple scan"),
        (generating_fibers, (F, 2), 10, "materialized tuple scan"),
        (divisor_table, (3, 4), 10, "minimal divisor Hankel"),
    ):
        fn(*args)
        with pytest.raises(BudgetExceeded, match=what):
            fn(*args, budget=budget)


def test_all_sums_builds_one_histogram_per_key(monkeypatch):
    from jetsums import expsums

    calls = []
    real = expsums.value_histogram
    monkeypatch.setattr(expsums, "value_histogram", lambda *a: calls.append(1) or real(*a))
    MEMO.clear()
    F = conic_form(3)
    assert (all_sums(F, 1, 0) == all_sums(F, 1, 0)).all()
    assert len(calls) == 1
    assert (MEMO.hits["all_sums"], MEMO.misses["all_sums"]) == (1, 1)


def test_memo_hits_never_group_the_base_points(monkeypatch):
    # a hit of all_sums or pair_data makes the refusals from the class sizes
    # alone; the grouping of the points by image runs on a miss only
    from jetsums import expsums

    calls = []
    real = expsums._image_groups
    monkeypatch.setattr(expsums, "_image_groups", lambda *a: calls.append(1) or real(*a))
    MEMO.clear()
    F = conic_form(3)
    for build in (all_sums, pair_data):
        first = build(F, 1, 1)
        assert len(calls) == 1
        assert build(F, 1, 1) is first
        assert len(calls) == 1
        calls.clear()
    assert MEMO.hits["all_sums"] == MEMO.hits["pair_data"] == 1
    with pytest.raises(BudgetExceeded, match="free jet-layer walk"):
        all_sums(F, 1, 2, budget=10**6)
    assert calls == []


def test_histogram_mass_beyond_int64_is_refused():
    with pytest.raises(BudgetExceeded, match="int64"):
        value_histogram(fermat_form(137, 1, 2), 2, 1, budget=10**40)
    with pytest.raises(BudgetExceeded, match="int64"):
        slice_histogram(fermat_form(137, 1, 2), 2, 2, budget=10**40)


def _direct_histograms_m2(F):
    """value_histogram(F, 0, 2) and the pair_data(F, 0, 2) classes by direct
    enumeration of every tuple of P_{0,2}^(n+1): generation by the scalar
    test on the base layer, annihilators from the scalar unfolded matrix,
    w-codes spelled out from the partial sums of the value layers."""
    p, n, m = F.p, F.n, 2
    size = (m + 1) * (n + 1)
    X = batch_digits(np.arange(p**size), p, size).reshape(-1, n + 1, m + 1, 1)
    values = batch_eval_jets(F, X)[:, :, 0]  # (N, m+1): degree bound 0
    w = np.cumsum(values, axis=1)[:, ::-1] % p  # w_i = v_0 + ... + v_(m-i)
    codes = w @ p ** np.arange(m + 1)
    hist = np.zeros(p ** (m + 1), dtype=np.int64)
    pairs: dict = {}
    for x, code in zip(X, codes.tolist()):
        jets = tuple(JetPoly.from_layers(p, 0, m, row.tolist()) for row in x)
        if not globally_generates(tuple(JetPoly.from_ints(p, 0, 0, row[0]) for row in x)):
            continue
        hist[code] += 1
        M = unfolded_mult_matrix(F, jets)
        ann = linalg.nullspace(np.ascontiguousarray(M.T), p)
        basis = linalg.row_space(ann, p) if ann.size else ann
        key = (code, basis.tobytes())
        pairs[key] = pairs.get(key, 0) + 1
    return hist, pairs


@pytest.mark.parametrize("F", [conic_form(3), _x0x1(2), _x0sq(1), _x0sq(2)],
                         ids=["conic", "x0x1", "x0sq-n1", "x0sq-n2"])
def test_jet_order_two_histograms_match_direct_enumeration(F):
    # the singular forms have base maps that are not onto, so pair_data runs
    # the explicit leaf above its free middle layer
    hist, pairs = _direct_histograms_m2(F)
    assert (value_histogram(F, 0, 2) == hist).all()
    data = pair_data(F, 0, 2)
    assert data.ann_bases[0].size == 0
    grouped = {
        (code, data.ann_bases[k].tobytes()): count for (code, k), count in data.hist.items()
    }
    assert grouped == pairs


def test_exp_sum_jet_order_two_matches_slow_oracle():
    rng = random.Random(13)
    for F, draws in ((fermat_form(3, 1, 2), 3), (conic_form(3), 1)):
        for _ in range(draws):
            a = dual_from_code(3, 0, 2, rng.randrange(3**3))
            assert exp_sum(F, 0, 2, a) == exp_sum_slow(F, 0, 2, a)


@pytest.mark.parametrize("e", [0, 1])
@pytest.mark.parametrize("pairs", [False, True])
def test_orthogonality_m2_and_major_identity_m3(e, pairs):
    F = conic_form(3)
    assert check_orthogonality(F, e, 2, pairs=pairs).verdict == "equal"
    assert check_major_identity(F, e, 3, pairs=pairs).verdict == "equal"


def test_fiber_classes_run_once_per_form_and_degree(monkeypatch):
    from jetsums import counting

    calls = []
    real = counting.fiber_classes
    monkeypatch.setattr(counting, "fiber_classes", lambda *a: calls.append(1) or real(*a))
    MEMO.clear()
    F = conic_form(3)
    value_histogram(F, 2, 1)
    pair_data(F, 2, 0)
    assert len(calls) == 1
