import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from jetsums import linalg
from jetsums.arith import Cyclo
from jetsums.cli import random_smooth_form
from jetsums.counting import (
    base_scan,
    batch_digits,
    batch_eval_jets,
    count_psi_zero_sections,
    encode_digits,
    fiber_classes,
    generating_fibers,
)
from jetsums.expsums import (
    _dual_sum,
    _major_lhs,
    _t_histogram,
    all_sums,
    char_transform,
    check_major_identity,
    check_orthogonality,
    check_shrink,
    check_weyl,
    classify_arc,
    divisor_table,
    dual_from_code,
    exp_sum,
    exp_sum_pair,
    major_weighted_sums,
    n_count,
    n_count_plain,
    pair_data,
    slice_histogram,
    t_vanishing_report,
    weyl_alpha_sample,
)
from jetsums.forms import conic_form, fermat_form, make_form
from jetsums.sections import (
    MEMO,
    BudgetExceeded,
    DualFunctional,
    section_space_size,
)
from oracles import (
    JetPoly,
    apply_functional,
    char_transform_roll,
    count_minimizers,
    enumerate_sections,
    eval_form,
    exp_sum_pair_cells,
    exp_sum_slow,
    globally_generates,
    gradient,
    minimal_divisor,
    mult_matrix,
    mul_sections,
    n_count_slow,
    nullspace,
    pair_cells,
    pair_dual_sum_table,
    psi_m,
    row_space,
    t_value_histogram_slow,
    unfolded_mult_matrix,
    value_histogram,
)


def _x0x1(n):
    return make_form(3, n, 2, [((1, 1) + (0,) * (n - 1), 1)], name="x0x1")


def _x0sq(n):
    return make_form(3, n, 2, [((2,) + (0,) * n, 1)], name="x0sq")


def test_char_transform_is_exact_dft():
    # brute-force comparison on tiny histograms, coefficient for coefficient
    rng = random.Random(0)
    for p, k in ((2, 3), (3, 2), (5, 2), (7, 2)):
        hist = np.array([rng.randrange(-5, 5) for _ in range(p**k)], dtype=np.int64)
        out = char_transform(hist, p, k)
        digits = [[(code // p**i) % p for i in range(k)] for code in range(p**k)]
        for code in range(p**k):
            acc = [0] * p
            for w in range(p**k):
                acc[sum(a * v for a, v in zip(digits[code], digits[w])) % p] += hist[w]
            assert out[code].tolist() == acc


# the largest k at which the roll oracle takes about 0.2 s
_ROLL_ORACLE_KMAX = {2: 19, 3: 11, 5: 7, 7: 6}


@pytest.mark.parametrize("p", sorted(_ROLL_ORACLE_KMAX))
def test_char_transform_matches_roll_oracle(p):
    rng = np.random.default_rng(p)
    for k in range(_ROLL_ORACLE_KMAX[p] + 1):
        for hist in (rng.integers(-9, 10, p**k), rng.integers(-2**40, 2**40, p**k)):
            assert np.array_equal(char_transform(hist, p, k), char_transform_roll(hist, p, k))


def test_char_transform_matches_roll_oracle_on_a_value_histogram():
    # fermat(5,1,3) at e = 1, m = 1: the Weyl sweep's transform, k = 8
    hist = value_histogram(fermat_form(5, 1, 3), 1, 1)
    assert hist.shape == (5**8,)
    out = char_transform(hist, 5, 8)
    assert out.dtype == np.int64
    assert np.array_equal(out, char_transform_roll(hist, 5, 8))


def test_char_transform_refuses_a_histogram_without_integer_dtype():
    for hist in (np.ones(9), np.full(9, 1.5), np.ones(9, dtype=bool)):
        with pytest.raises(ValueError, match="integer dtype"):
            char_transform(hist, 3, 2)
    hist = np.arange(9)
    for dtype in (np.int8, np.int32, np.uint16):
        assert np.array_equal(char_transform(hist.astype(dtype), 3, 2), char_transform(hist, 3, 2))


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
                val = apply_functional(alpha, eval_form(F, x0)) + apply_functional(beta, inner)
                brute = brute + psi_m(val)
        assert exp_sum_pair(F, e, m, alpha, beta) == brute


def test_pair_sum_with_zero_beta_is_free_x1():
    # at m >= 1 one alpha vanishes on layers 0..m-1 (the low w-digits) and
    # one does not, so the onto mass is read both ways
    cases = [(conic_form(3), 2, 0, [17])]
    cases += [(conic_form(3), 1, m, [2 * 3 ** (3 * m), 3 ** (3 * m) + 5]) for m in (1, 2)]
    cases += [(_x0x1(2), 0, 2, [3**2, 3**2 + 1, 4])]
    for F, e, m, codes in cases:
        r = F.d * e
        full = F.p ** ((m + 1) * (F.n + 1) * (e + 1))
        for code in codes:
            alpha = dual_from_code(F.p, r, m, code)
            beta = DualFunctional.zero(F.p, r, m)
            assert exp_sum_pair(F, e, m, alpha, beta) == exp_sum(F, e, m, alpha) * full


@pytest.mark.parametrize("F,orders", [
    (conic_form(3), list(itertools.product((0, 1), (0, 1, 2)))),
    (_x0x1(2), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]),
    (_x0sq(2), [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]),
], ids=["conic3", "x0x1-n2", "x0sq-n2"])
def test_pair_sum_matches_every_cell(F, orders):
    # exp_sum_pair against the cell-by-cell evaluation of pair_data at
    # seeded (alpha, beta): beta zero, in a drawn class's annihilator, or
    # drawn from the whole dual; x0*x1 and x0^2 at e = 1, m = 2 are refused
    rng = random.Random(23)
    for e, m in orders:
        r, p = F.d * e, F.p
        data = pair_data(F, e, m)
        size = p ** ((m + 1) * (r + 1))
        for _ in range(4):
            alpha = dual_from_code(p, r, m, rng.randrange(size))
            basis = data.ann_bases[rng.randrange(len(data.ann_bases))]
            inside = rng.randrange(p ** basis.shape[0])
            bflat = batch_digits(np.array([inside]), p, basis.shape[0])[0] @ basis % p
            drawn = [0, int(encode_digits(bflat[None], p)[0]), rng.randrange(size)]
            for code in drawn:
                beta = dual_from_code(p, r, m, code)
                assert exp_sum_pair(F, e, m, alpha, beta) == exp_sum_pair_cells(
                    data, alpha, beta, F.n)


@pytest.mark.parametrize("F,e,onto", [
    (conic_form(3), 1, True),
    (conic_form(3), 2, True),
    (_x0x1(2), 1, False),
    (_x0x1(2), 2, False),
    (_x0sq(2), 1, False),
    (_x0sq(2), 2, False),
    (conic_form(5), 1, True),
    (fermat_form(5, 1, 3), 1, True),
], ids=["conic3-e1", "conic3-e2", "x0x1-e1", "x0x1-e2", "x0sq-e1", "x0sq-e2",
        "conic5-e1", "fermat513-e1"])
def test_t_histogram_is_the_image_of_the_gradient_map(F, e, onto):
    # T's value histogram from the image classes of z -> z . grad F(y),
    # against the enumeration of every z, at a seeded sample of 200
    # generating y (every one where there are fewer); x0*x1 and x0^2 have
    # maps that are not onto, so there the image rule weighs proper images
    scan = base_scan(F, e)
    coords = scan.coords[scan.generating].astype(np.int64)
    rows = sorted(random.Random(11).sample(range(len(coords)), min(200, len(coords))))
    coords = coords[rows]
    ids, images = fiber_classes(F, coords)
    ncols, width = (F.n + 1) * (e + 1), F.d * e + 1
    assert all(image.shape[0] == width for image in images) == onto
    for x0, k in zip(coords, ids):
        expected = t_value_histogram_slow(F, mult_matrix(F, x0))
        assert np.array_equal(_t_histogram(images[k], ncols, F.p), expected)


def test_t_values_at_the_standard_point():
    # y = (1, s, s^2) on conic(3) at e = 2: T is 3^9 at the zero functional
    # and 0 at alpha0 = (1, 0, 0, 0, 0) (code 1), a functional of minimal
    # degree 1
    F = conic_form(3)
    _, (image,) = fiber_classes(F, np.eye(3, dtype=np.int64)[None])
    sums = char_transform(_t_histogram(image, 9, 3), 3, 5)
    assert Cyclo(3, sums[0]) == Cyclo.integer(3, 3**9)
    assert Cyclo(3, sums[1]).is_zero()
    assert divisor_table(3, 4).degree[1] == 1


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
    # its slice engine too, which gave a wrong histogram at m = 0
    with pytest.raises(ValueError, match="m >= 1"):
        slice_histogram(conic_form(3), 2, 0)


_PAIR_DUAL_CASES = (
    [(conic_form(3), e, m) for e in (0, 1, 2) for m in (0, 1)]
    + [(fermat_form(3, 2, 2), 1, m) for m in (0, 1)]
    + [(form(n), e, m) for form in (_x0x1, _x0sq) for n in (1, 2)
       for e in (0, 1) for m in (0, 1)]
)


def test_pair_dual_sum_matches_full_layer_table():
    # the one-layer identity against the full p^((m+1)(de+1))-cell table,
    # cell by cell; the singular forms carry non-trivial annihilator classes
    assert len(_PAIR_DUAL_CASES) == 24
    for F, e, m in _PAIR_DUAL_CASES:
        assert _dual_sum(F, e, m, True) == pair_dual_sum_table(F, e, m), (F.name, F.n, e, m)


def test_functional_from_another_space_is_refused():
    # an F_5 code read over F_3 gave (-24, 0, 0); a beta of the wrong jet
    # order or degree gave 0
    F = conic_form(3)
    alpha, other_field = dual_from_code(3, 2, 1, 7), dual_from_code(5, 2, 1, 7)
    for wrong in (other_field, dual_from_code(3, 2, 0, 7), dual_from_code(3, 4, 1, 7)):
        with pytest.raises(ValueError, match="wrong space"):
            exp_sum(F, 1, 1, wrong)
        with pytest.raises(ValueError, match="wrong space"):
            exp_sum_pair(F, 1, 1, wrong, alpha)
        with pytest.raises(ValueError, match="wrong space"):
            exp_sum_pair(F, 1, 1, alpha, wrong)
    for wrong in (other_field, dual_from_code(3, 4, 1, 7)):
        with pytest.raises(ValueError, match="wrong space"):
            n_count(F, 1, wrong, 1, 2)
    with pytest.raises(ValueError, match="wrong space"):
        exp_sum(F, 1, 0, dual_from_code(5, 2, 0, 7))
    with pytest.raises(ValueError, match="wrong space"):
        check_weyl(F, 1, 1, alpha, other_field)
    with pytest.raises(ValueError, match="wrong space"):
        check_shrink(F, 1, other_field, 1, 1)


@pytest.mark.parametrize("p,e,codes", [
    (3, 2, None),
    (5, 3, random.Random(56).sample(range(5**7), 200)),
])
def test_classify_arc_matches_divisor_table(p, e, codes):
    # classify_arc solves the Hankel systems of the divisor table for one
    # functional; the divisor scan, the table's oracle too, is its reference
    _check_classify_against_scan(p, 2 * e, e, codes)


@pytest.mark.parametrize("p,r,sample", [
    (2, 6, False), (3, 5, False), (5, 3, False), (7, 2, False),
    (7, 5, True), (3, 8, True), (2, 10, True),
])
def test_classify_arc_matches_divisor_scan_across_primes(p, r, sample):
    # every functional of the small spaces, 200 seeded ones of the larger,
    # with the arcs split at e = r // 2; (3, 4) and (5, 6) are the cells of
    # test_classify_arc_matches_divisor_table
    codes = random.Random(1000 * p + r).sample(range(p ** (r + 1)), 200) if sample else None
    _check_classify_against_scan(p, r, r // 2, codes)


def _check_classify_against_scan(p, r, e, codes):
    """classify_arc against the scan oracle: the same first minimizer (k_inf
    ascending, then h lexicographic), degree, minimizer count and kind."""
    for code in codes if codes is not None else range(p ** (r + 1)):
        alpha = dual_from_code(p, r, 0, code)
        z, deg, unique = minimal_divisor(alpha)
        label = classify_arc(alpha, e)
        assert (label.divisor, label.degree) == (z, deg), code
        assert label.minimizers == (1 if unique else count_minimizers(alpha, deg)), code
        assert label.kind == ("major" if deg <= e + 1 else "minor"), code


def test_classify_arc_budget():
    # the per-functional Hankel figure on P_4 is 182, the table's 3^5 * 182
    alpha = dual_from_code(3, 4, 0, 17)
    with pytest.raises(BudgetExceeded) as err:
        classify_arc(alpha, 2, budget=181)
    assert err.value.needed == 182
    assert "minimal divisor Hankel eliminations" in str(err.value)
    assert classify_arc(alpha, 2, budget=182) == classify_arc(alpha, 2)


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
    through the full-layer sum table (the all-ones transform), beta through
    a per-vector count over each annihilator span."""
    p, n = F.p, F.n
    width = F.d * e + 1
    data = pair_data(F, e, 1)
    gsum = major_weighted_sums(F, e)
    table = char_transform(np.ones(p**width, dtype=np.int64), p, width)
    weights = []
    for basis in data.ann_bases:
        weight = 0
        for vec in linalg.span_elements(basis, p):
            code0 = sum(int(c) * p**i for i, c in enumerate(vec[:width]))
            if major[code0]:
                weight += int(tab.multiplicity[code0])
        weights.append(weight)
    total = Cyclo.zero(p)
    for (code, k), count in pair_cells(data).items():
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
    # the pair (zero, boundary) is major: both of its functionals are
    assert classify_arc(DualFunctional.zero(3, 4, 1), 2).kind == "major"
    assert classify_arc(boundary, 2).kind == "major"


def test_n_count_rank_matches_enumeration():
    F = conic_form(3)
    rng = random.Random(5)
    for _ in range(5):
        a = dual_from_code(3, 4, 1, rng.randrange(3**10))
        assert n_count(F, 2, a, 0, 1, 0) == n_count_slow(F, 2, a, 0, 1, 0)
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
        assert n_count(F, 1, a, k1, k2, s) == n_count_slow(F, 1, a, k1, k2, s)


def test_n_counts_share_one_psi_stack():
    # the N counts of a sweep differ only in their condition matrices: the
    # Psi values of a one-block prefix range are built once per (F, rdeg, k)
    F = fermat_form(5, 1, 3)
    MEMO.clear()
    rng = random.Random(25)
    for _ in range(3):
        a = dual_from_code(5, 3, 1, rng.randrange(5**8))
        assert n_count(F, 1, a, 0, 1) == n_count_slow(F, 1, a, 0, 1)
    assert (MEMO.misses["psi_units"], MEMO.hits["psi_units"]) == (1, 2)
    # 7^4 prefixes of fermat(7,1,3) at k = 1 take two blocks, built per call
    assert count_psi_zero_sections(fermat_form(7, 1, 3), 0, 0, 1) == 17689
    assert MEMO.misses["psi_units"] == 1


def test_n_count_rejects_functional_off_the_value_space():
    # conic(3) at e = 2 has values in P_4; a functional on P_6 used to be
    # counted as the zero functional and one on P_2 raised IndexError
    F = conic_form(3)
    for a in (dual_from_code(3, 6, 1, 3**6), dual_from_code(3, 2, 1, 5)):
        with pytest.raises(ValueError, match="wrong space"):
            n_count(F, 2, a, 0, 1, 0)


def test_n_count_rejects_negative_jet_order():
    # k1 = -1 once reached the rank engine with a slot of 0 and divided by it
    F = conic_form(3)
    a = dual_from_code(3, 4, 0, 5)
    with pytest.raises(ValueError, match="k1 >= 0"):
        n_count(F, 2, a, -1, 0, 0)


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


@pytest.mark.parametrize("cap", [63, 10, 0, -64])
def test_weyl_refuses_a_precision_cap_below_64_bits(cap):
    # the comparison starts at 64 bits: a lower cap once ran there anyway
    with pytest.raises(ValueError, match=f"precision cap must be >= 64 bits, got {cap}"):
        check_weyl(conic_form(3), 2, 1, DualFunctional.zero(3, 4, 1), precision_cap=cap)
    assert check_weyl(conic_form(3), 2, 1, DualFunctional.zero(3, 4, 1),
                      precision_cap=64).params["precision_bits"] == 64


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
        im = row_space(L.T, p)
        u = linalg.span_elements(im, p)
        codes = encode_digits((v0 + u) % p, p) + encode_digits(v0[None], p)[0] * p**width
        hist[codes] += p ** (ncols - im.shape[0])
        ann = nullspace(np.ascontiguousarray(L.T), p)
        basis = row_space(ann, p) if ann.size else ann
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
        for (code, k), count in pair_cells(data).items()
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


@pytest.fixture(scope="module")
def single_sum_forms():
    """Seeded smooth forms for p in {5, 7}, n <= 2, d in {2, 3} (the
    smoothness search of the plane cubic over F_7 runs to F_(7^4), so both
    caps share one draw), and the singular x0*x1 and x0^2 over F_3 and F_5,
    whose obstructed base points leave leaves next to the onto mass."""
    rng = random.Random(25)
    forms = [random_smooth_form(p, n, d, rng.randrange(1000))
             for p in (5, 7) for n in (1, 2) for d in (2, 3)]
    for p in (3, 5):
        for n in (1, 2):
            forms.append(make_form(p, n, 2, [((1, 1) + (0,) * (n - 1), 1)], name="x0x1"))
            forms.append(make_form(p, n, 2, [((2,) + (0,) * n, 1)], name="x0sq"))
    return forms


@pytest.mark.parametrize("cells, budget", [
    (5**8, 10**7),
    pytest.param(5**9, 2 * 10**7, marks=pytest.mark.slow),
])
def test_all_sums_match_the_full_histogram_transform(single_sum_forms, cells, budget):
    # every (e, m) with at most `cells` histogram cells (e <= 2, the reach of
    # the generation mask) whose scan and walk the budget admits, refusals
    # skipped; entry for entry and dtype, with no constant-vector drift
    MEMO.clear()
    checked = 0
    for F in single_sum_forms:
        for e in range(3):
            width = F.d * e + 1
            for m in itertools.takewhile(lambda m: F.p ** (width * (m + 1)) <= cells,
                                         itertools.count()):
                try:
                    want = char_transform(value_histogram(F, e, m, budget), F.p, width * (m + 1))
                except BudgetExceeded:
                    continue
                got = all_sums(F, e, m, budget)
                assert got.dtype == want.dtype and np.array_equal(got, want), (F.name, F.p, e, m)
                checked += 1
    assert checked >= 140
    MEMO.clear()


def test_all_sums_transform_only_the_obstructed_histogram(monkeypatch):
    # above a form whose base points are all onto, only the one-layer onto
    # mass is transformed; x0*x1 (n = 2) has obstructed points, whose leaves
    # take the full-size transform
    from jetsums import expsums

    sizes = []
    real = expsums.char_transform
    monkeypatch.setattr(expsums, "char_transform",
                        lambda hist, p, k: sizes.append(hist.size) or real(hist, p, k))
    MEMO.clear()
    for F, e, m in ((conic_form(3), 2, 1), (conic_form(3), 1, 2), (fermat_form(5, 1, 3), 1, 1)):
        sizes.clear()
        all_sums(F, e, m)
        assert sizes == [F.p ** (F.d * e + 1)]
    sizes.clear()
    all_sums(_x0x1(2), 1, 1)
    assert sizes == [3**6, 3**3]


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
        # one image, one transform: 4 butterflies of 5^2 rolls over 5^5 entries
        (t_vanishing_report, (fermat_form(5, 1, 3), 1), 60_000, "auxiliary linear sum"),
    ):
        fn(*args)
        with pytest.raises(BudgetExceeded, match=what):
            fn(*args, budget=budget)


def test_all_sums_builds_one_histogram_per_key(monkeypatch):
    from jetsums import expsums

    calls = []
    real = expsums._single_sums
    monkeypatch.setattr(expsums, "_single_sums", lambda *a: calls.append(1) or real(*a))
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
    # x0*x1 (n = 2) at e = 1: 192 obstructed base maps, charged 192 * 3^9 > 10^6
    with pytest.raises(BudgetExceeded, match="free jet-layer walk"):
        all_sums(_x0x1(2), 1, 2, budget=10**6)
    assert calls == []


def test_histogram_mass_beyond_int64_is_refused():
    with pytest.raises(BudgetExceeded, match="int64"):
        value_histogram(fermat_form(137, 1, 2), 2, 1, budget=10**40)
    with pytest.raises(BudgetExceeded, match="int64"):
        slice_histogram(fermat_form(137, 1, 2), 2, 2, budget=10**40)
    # the onto mass of the pair data is int64 too: conic(3) at e = 2, m = 4
    # holds 3^45 tuples, refused before the scan
    with pytest.raises(BudgetExceeded, match=r"pair data \(int64 counts\)"):
        pair_data(conic_form(3), 2, 4, budget=10**40)


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
        ann = nullspace(np.ascontiguousarray(M.T), p)
        basis = row_space(ann, p) if ann.size else ann
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
        (code, data.ann_bases[k].tobytes()): count for (code, k), count in pair_cells(data).items()
    }
    assert grouped == pairs


def test_exp_sum_jet_order_two_matches_slow_oracle():
    rng = random.Random(13)
    for F, draws in ((fermat_form(3, 1, 2), 3), (conic_form(3), 1)):
        for _ in range(draws):
            a = dual_from_code(3, 0, 2, rng.randrange(3**3))
            assert exp_sum(F, 0, 2, a) == exp_sum_slow(F, 0, 2, a)


# the singles at e = 2 hold 3^15 transform rows (about 350 MiB), so the test
# clears the memo rather than keep them for the rest of the session
@pytest.mark.parametrize("pairs, e", [(False, 0), (False, 1), (True, 0), (True, 1), (True, 2),
                                      (False, 2)])
def test_orthogonality_m2_and_major_identity_m3(pairs, e):
    F = conic_form(3)
    assert check_orthogonality(F, e, 2, pairs=pairs).verdict == "equal"
    assert check_major_identity(F, e, 3, pairs=pairs).verdict == "equal"
    MEMO.clear()


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


# Pair classes pinned by annihilator basis, not by class number: a digest of
# the sorted bases (shape and bytes) and of the histogram cells keyed by
# (code, basis), taken from the classes before onto maps went unkeyed.
PAIR_FORMS = {"conic3": conic_form(3), "fermat322": fermat_form(3, 2, 2), "x0x1-n1": _x0x1(1),
              "x0x1-n2": _x0x1(2), "x0sq-n1": _x0sq(1), "x0sq-n2": _x0sq(2)}
PINNED_PAIR_DATA = [
    ("conic3", 2, 0, 1, "46a42a68792f8d58"),
    ("conic3", 1, 1, 1, "a64ac52247cc1783"),
    ("fermat322", 1, 0, 1, "0f9030063abe726d"),
    ("x0x1-n2", 0, 0, 2, "8a0d3672996ac27e"),
    ("x0x1-n2", 0, 1, 3, "ed69f62f0451e7a5"),
    ("x0x1-n2", 0, 2, 4, "ad669847db683d4a"),
    ("x0x1-n2", 1, 0, 5, "ad925e013eee6318"),
    ("x0x1-n2", 1, 1, 17, "7f561c6375872e1a"),
    ("x0x1-n1", 0, 1, 1, "35a18baec10e8a72"),
    ("x0x1-n1", 1, 1, 1, "a85bbe90e49110e2"),
    ("x0x1-n1", 0, 2, 1, "b22b3f0371e6cf82"),
    ("x0sq-n1", 0, 1, 3, "0b7c5f0ad85c045e"),
    ("x0sq-n1", 1, 1, 13, "4f6d054cd04a5d7d"),
    ("x0sq-n1", 0, 2, 4, "5944745522391824"),
    ("x0sq-n2", 0, 0, 2, "efc5c45a977a7b12"),
    ("x0sq-n2", 0, 1, 3, "3f77b46e5bbe8e67"),
    ("x0sq-n2", 0, 2, 4, "15463bc1794e5321"),
    ("x0sq-n2", 1, 0, 6, "30e99f6ced9f7fab"),
    ("x0sq-n2", 1, 1, 18, "9d6793f336d26576"),
]
PINNED_SLICES = [
    ("conic3", 2, 2, 1, "7d1279394fad5007"),
    ("x0x1-n2", 0, 2, 4, "f75ccddebbdbf2cc"),
    ("x0x1-n2", 1, 1, 17, "c7cbb1c29a11fdea"),
    ("x0sq-n1", 2, 1, 1, "87b19a01b29ba024"),
    ("x0sq-n2", 1, 1, 6, "33297e46ee060a67"),
    ("x0sq-n1", 1, 2, 1, "31273d726245077a"),
]


def _by_basis(bases, hist, *arrays) -> str:
    key = [repr(b.shape).encode() + b.astype(np.int64).tobytes() for b in bases]
    digest = hashlib.sha256(b"".join(sorted(key)))
    digest.update(repr(sorted((code, key[k], count) for (code, k), count in hist.items())).encode())
    for a in arrays:
        digest.update(a.astype(np.int64).tobytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name,e,m,classes,pinned", PINNED_PAIR_DATA,
                         ids=[f"{r[0]}-e{r[1]}-m{r[2]}" for r in PINNED_PAIR_DATA])
def test_pair_data_classes_are_pinned(name, e, m, classes, pinned):
    data = pair_data(PAIR_FORMS[name], e, m)
    assert data.ann_bases[0].shape[0] == 0 and len(data.ann_bases) == classes
    assert _by_basis(data.ann_bases, data.hist, data.onto) == pinned


@pytest.mark.parametrize("name,e,m,classes,pinned", PINNED_SLICES,
                         ids=[f"{r[0]}-e{r[1]}-m{r[2]}" for r in PINNED_SLICES])
def test_slice_classes_are_pinned(name, e, m, classes, pinned):
    kk, hist, bases = slice_histogram(PAIR_FORMS[name], e, m, with_ann=True)
    assert len(bases) == classes
    assert _by_basis(bases, hist, kk) == pinned
