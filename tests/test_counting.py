import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jetsums import counting
from jetsums.cli import random_smooth_form
from jetsums.counting import (
    FIBER_CHUNK,
    ONTO,
    MapClasses,
    _base_solutions,
    base_scan,
    batch_digits,
    batch_eval_form,
    batch_generating_mask,
    count_jet_multilinear,
    count_psi_zero_sections,
    count_solutions,
    count_tangent_pairs,
    fiber_classes,
    generating_fibers,
    iter_base_chunks,
    lw_trend,
    moduli_dimension,
    mult_matrix_batch,
    unfolded_mult_matrix_batch,
)
from jetsums.forms import conic_form, fermat_form, make_form
from jetsums.sections import BudgetExceeded
from oracles import (
    JetPoly,
    base_solutions_slow,
    count_multilinear_zeros_slow,
    count_solutions_slow,
    globally_generates,
    map_classes,
    mult_matrix,
    multilinear_psi_sections,
    rank,
    solution_tuples,
    tangent_fiber_slow,
    transform_form,
    unfolded_mult_matrix,
)


def quadric(p):
    return fermat_form(p, 2, 2)  # x0^2 + x1^2 + x2^2, smooth for p > 2


def test_conic_base_counts():
    assert count_solutions(conic_form(3), 2, 0).raw_count == 48
    assert count_solutions(conic_form(3), 1, 0).raw_count == 0
    assert count_solutions(conic_form(5), 1, 0).raw_count == 0


def test_conic_count_p5():
    rec = count_solutions(conic_form(5), 2, 0)
    assert rec.raw_count == 480
    assert rec.normalized == rec.raw_count / 5 ** rec.exponent or True
    assert rec.exponent == (moduli_dimension(2, 2, 2) + 1)


def test_conic_jet_counts_affine_bundle():
    # the count picks up a factor p^4 per jet layer over the smooth base,
    # whose gradient maps are all onto: the high orders come in closed form,
    # at the default budget and in well under a second
    assert count_solutions(conic_form(3), 2, 1).raw_count == 48 * 3**4
    assert count_solutions(conic_form(3), 2, 2).raw_count == 48 * 3**8
    start = time.perf_counter()
    rec = count_solutions(conic_form(3), 2, 4)
    assert (rec.raw_count, rec.normalized) == (2_066_242_608, Fraction(16, 27))
    assert count_solutions(conic_form(5), 2, 3).normalized == Fraction(96, 125)
    assert time.perf_counter() - start < 1


def test_count_solutions_refuses_worker_counts_below_one(monkeypatch):
    # each of these once ran the count on one worker without a word
    for workers in (0, -5):
        with pytest.raises(ValueError, match="workers >= 1"):
            count_solutions(conic_form(3), 2, 0, workers=workers)
    for env in ("abc", "0", "-3"):
        monkeypatch.setenv("JETSUMS_WORKERS", env)
        with pytest.raises(ValueError, match="JETSUMS_WORKERS"):
            count_solutions(conic_form(3), 2, 0)
    monkeypatch.setenv("JETSUMS_WORKERS", "2")
    assert count_solutions(conic_form(3), 2, 0).raw_count == 48
    assert count_solutions(conic_form(3), 2, 0, workers=1).raw_count == 48


def test_fibered_count_matches_slow_enumeration():
    # degree bound 0 keeps the slow oracle tiny; jet layers still in play
    F = quadric(3)
    for m in (1, 2):
        fast = count_solutions(F, 0, m).raw_count
        slow = count_solutions_slow(F, 0, m, None)
        assert fast == slow


@pytest.mark.slow
def test_fibered_count_matches_slow_enumeration_e1():
    F = quadric(3)
    fast = count_solutions(F, 1, 1).raw_count
    slow = count_solutions_slow(F, 1, 1, None)
    assert fast == slow


def test_fibered_count_matches_slow_enumeration_with_solutions():
    # quadric(3) has no generating solutions at e = 1; the line pair x0 x1
    # has, and its base maps are not surjective: all 3^12 tuples enumerated
    F = make_form(3, 2, 2, [((1, 1, 0), 1)])
    fast = count_solutions(F, 1, 1).raw_count
    assert fast == count_solutions_slow(F, 1, 1, None) == 7776


def test_generation_in_characteristic_two():
    # x0 + x1 = 0 over F_2 at e = 2: the tuples (h, h, x2) with h = x^2 + x + 1
    # (irreducible over F_2, so without a rational root) share the common
    # factor h when x2 is a multiple of it; the count is 24, not 27
    F = make_form(2, 2, 1, [((1, 0, 0), 1), ((0, 1, 0), 1)])
    assert count_solutions(F, 2, 0).raw_count == 24
    assert count_solutions_slow(F, 2, 0, None) == 24


def _all_tuples(p, nv, e):
    codes = np.arange(p ** (nv * (e + 1)), dtype=np.int64)
    return counting.batch_digits(codes, p, nv * (e + 1)).reshape(-1, nv, e + 1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generating_mask_matches_scalar_oracle_small_primes(p):
    # every (n+1, e+1) coefficient tuple with n+1 in {2, 3} and e <= 2,
    # except 5^9 rows at p = 5, n+1 = 3, e = 2, where 20000 seeded rows
    rng = np.random.default_rng(11)
    for nv, e in itertools.product((2, 3), (0, 1, 2)):
        if p ** (nv * (e + 1)) <= 2 * 10**4:
            coords = _all_tuples(p, nv, e)
        else:
            coords = rng.integers(0, p, size=(2 * 10**4, nv, e + 1))
        mask = batch_generating_mask(coords, p)
        for row, flag in zip(coords, mask):
            secs = tuple(JetPoly.from_ints(p, e, 0, row[j]) for j in range(nv))
            assert globally_generates(secs) == bool(flag)


def test_slow_count_does_not_share_the_mask(monkeypatch):
    def accept_all(coords, p):
        return np.ones(coords.shape[0], dtype=bool)

    monkeypatch.setattr(counting, "batch_generating_mask", accept_all)
    assert count_solutions_slow(conic_form(3), 2, 0, None) == 48
    assert count_solutions_slow(conic_form(3), 1, 1, None) == 0


def test_lift_budget_is_sized_by_its_stages():
    # conic(11) at e = 2: the cone Z has 121 points, so the stages hold at
    # most 121 * 11^3 * 121 rows, far below the 11^9 tuples of a full scan
    F = conic_form(11)
    assert count_solutions(F, 2, 0).raw_count == 13200
    with pytest.raises(BudgetExceeded, match="lift") as err:
        count_solutions(F, 2, 0, budget=10**4)
    assert err.value.needed == 6 * (11**3 + 121 * 11**3 * 121)
    # the scan for the cone is charged before it runs
    with pytest.raises(BudgetExceeded, match="lift") as err:
        count_solutions(F, 2, 0, budget=10**3)
    assert err.value.needed == 6 * 11**3


def test_tangent_pairs_conic():
    rec = count_tangent_pairs(conic_form(3), 2, 0)
    assert rec.raw_count == 48 * 3**4
    assert rec.exponent == 2 * (moduli_dimension(2, 2, 2) + 1)


def test_tangent_pairs_kernel_vs_enumeration():
    F = conic_form(3)
    gen = solution_tuples(F, 2, 0)
    for _ in range(2):
        x0 = next(gen)
        M = unfolded_mult_matrix(F, x0)
        kernel_count = 3 ** (M.shape[1] - rank(M, 3))
        assert kernel_count == tangent_fiber_slow(F, x0, None) == 3**4


def test_tangent_kernel_sizes_are_p_powers():
    F = conic_form(3)
    base = count_solutions(F, 2, 0).raw_count
    pairs = count_tangent_pairs(F, 2, 0).raw_count
    assert pairs % base == 0
    ratio = pairs // base
    while ratio % 3 == 0:
        ratio //= 3
    assert ratio == 1


def test_counts_invariant_under_coordinate_change():
    F = conic_form(3)
    A = [[1, 1, 2], [0, 1, 1], [0, 0, 1]]  # unipotent, so invertible mod 3
    G = transform_form(F, A)
    assert count_solutions(G, 2, 0).raw_count == 48
    assert count_tangent_pairs(G, 2, 0).raw_count == 48 * 3**4


def test_generating_mask_matches_scalar_oracle():
    p = 3
    for e in (0, 1, 2):
        F = conic_form(p)
        total_checked = 0
        for coords, _, gg in iter_base_chunks(F, e):
            for row, flag in zip(coords, gg):
                secs = tuple(
                    JetPoly.from_ints(p, e, 0, row[j]) for j in range(3)
                )
                assert globally_generates(secs) == bool(flag)
                total_checked += 1
        assert total_checked == p ** (3 * (e + 1))


def test_quadratic_factor_exclusion():
    # (h, 2h, h) for irreducible h has no rational common zero but is not
    # generating; the vectorized mask must reject it
    p = 3
    h = (1, 0, 1)  # x^2 + 1, irreducible mod 3
    coords = np.array([[h, [2 * c % p for c in h], h]], dtype=np.int64)
    assert not batch_generating_mask(coords, p)[0]
    assert not globally_generates(
        tuple(JetPoly.from_ints(p, 2, 0, coords[0][j]) for j in range(3))
    )


def test_lw_trend_rows():
    # p = 7 joins in the acceptance suite; keep the module test light
    records = lw_trend(conic_form, 2, 0, [3, 5])
    vals = [(r.params["p"], r.raw_count, r.normalized) for r in records]
    assert vals[0][1] == 48 and vals[1][1] == 480
    assert vals[0][2] < vals[1][2] < 1


def test_lw_trend_jet_layer():
    from fractions import Fraction

    rec = lw_trend(conic_form, 2, 1, [3])[0]
    assert rec.normalized == Fraction(rec.raw_count, 3**8)
    assert rec.raw_count == 3888 and rec.normalized == Fraction(48, 81)


def test_jet_multilinear_counts():
    F = conic_form(3)
    for k in (0, 1, 2):
        assert count_jet_multilinear(F, k) == 1
    cubic = fermat_form(5, 1, 3)
    assert count_jet_multilinear(cubic, 0) == (2 * 5 - 1) ** 2


def test_psi_zero_section_counts():
    F = conic_form(3)
    assert count_psi_zero_sections(F, 2, 2, 0) == 1
    assert count_psi_zero_sections(F, 1, 0, 0) == 1
    cubic = fermat_form(5, 1, 3)
    assert count_psi_zero_sections(cubic, 1, 1, 0) == 81
    assert count_jet_multilinear(cubic, 1) == 4225
    assert count_jet_multilinear(fermat_form(7, 1, 3), 1) == 17689


@pytest.mark.parametrize("F,e,s,k,expected", [
    (conic_form(3), 1, 0, 1, 1),
    (fermat_form(5, 1, 3), 1, 1, 0, 81),
    (fermat_form(5, 1, 3), 1, 0, 0, 2401),
    (fermat_form(5, 1, 3), 0, 0, 1, 4225),
    (fermat_form(5, 1, 3), 1, 1, 1, 4225),
    (fermat_form(7, 2, 3), 1, 1, 0, 2197),
])
def test_psi_zero_sections_match_enumeration(F, e, s, k, expected):
    identity = np.eye((k + 1) * ((F.d - 1) * (e - s) + 1), dtype=np.int64)
    assert count_psi_zero_sections(F, e, s, k) == expected
    assert count_multilinear_zeros_slow(F, e - s, k, identity) == expected


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        count_solutions(fermat_form(7, 4, 3), 3, 2, budget=10**6)
    with pytest.raises(BudgetExceeded) as err:
        count_jet_multilinear(fermat_form(7, 4, 3), 3, budget=10**6)
    assert err.value.needed > 10**6


def test_worker_shards_are_deterministic():
    for F, expected in ((conic_form(3), 48), (conic_form(5), 480)):
        counts = {count_solutions(F, 2, 0, workers=w).raw_count for w in (1, 2, 3)}
        assert counts == {expected}


def test_small_characteristic_rejected():
    F = make_form(5, 1, 2, [((2, 0), 1)])
    object.__setattr__(F, "p", 2)  # simulate a corrupted modulus
    with pytest.raises(ValueError):
        count_solutions(F, 1, 0)


@pytest.mark.parametrize("e,m", [(-1, 0), (2, -1), (-1, -1)])
def test_negative_degree_or_order_rejected(e, m):
    # m = -1 once counted the m = 0 solutions with exponent 0, and e = -1
    # ended in an IndexError
    for count in (count_solutions, count_tangent_pairs):
        with pytest.raises(ValueError, match="need e >= 0 and m >= 0"):
            count(conic_form(3), e, m)


def _draw_form(draw, p, n, d):
    """A random nonzero form of the given shape, possibly singular."""
    exps = [ex for ex in itertools.product(range(d + 1), repeat=n + 1) if sum(ex) == d]
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(exps), max_size=len(exps)))
    mons = [(ex, c) for ex, c in zip(exps, coeffs) if c]
    if not mons:
        mons = [(exps[0], 1)]
    return make_form(p, n, d, mons)


@st.composite
def forms_and_points(draw):
    """A random form with (p, n, d, e) small, and a few base points."""
    d = draw(st.integers(2, 3))
    p = draw(st.sampled_from([q for q in (3, 5, 7) if q > d]))
    n = draw(st.integers(1, 2))
    e = draw(st.integers(0, 2))
    F = _draw_form(draw, p, n, d)
    count = draw(st.integers(1, 5))
    entries = draw(st.lists(
        st.integers(0, p - 1),
        min_size=count * (n + 1) * (e + 1), max_size=count * (n + 1) * (e + 1),
    ))
    return F, np.array(entries, dtype=np.int64).reshape(count, n + 1, e + 1)


@given(forms_and_points())
def test_mult_matrix_batch_matches_scalar(case):
    F, coords = case
    batch = mult_matrix_batch(F, coords)
    for x0, mat in zip(coords, batch):
        assert (mat == mult_matrix(F, x0)).all()


@st.composite
def forms_and_psi_tuples(draw):
    """A random form with d in {2, 3, 4} and a few (d-1)-tuples of
    P_{rdeg,k}^(n+1), k <= 1 and rdeg <= 2, as ``_psi_batch``'s flat rows."""
    d = draw(st.sampled_from([3, 4, 2]))
    p = draw(st.sampled_from([q for q in (3, 5, 7) if q > d]))
    n = draw(st.integers(1, 2))
    k = draw(st.integers(0, 1))
    rdeg = draw(st.integers(0, 2))
    count = draw(st.integers(1, 3))
    size = count * (d - 1) * (n + 1) * (k + 1) * (rdeg + 1)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    flat = np.array(entries, dtype=np.int64).reshape(count, -1)
    return _draw_form(draw, p, n, d), k, rdeg, flat


@given(forms_and_psi_tuples())
def test_psi_batch_matches_scalar_psi(case):
    """The rank count and its enumeration oracle share ``_psi_batch``, so it
    is checked here against Psi_j on JetPoly tuples, flattened by (jet
    layer, x-degree)."""
    F, k, rdeg, flat = case
    values = counting._psi_batch(F, flat, k, rdeg)
    for row, value in zip(flat, values):
        ys = tuple(
            tuple(JetPoly.from_layers(F.p, rdeg, k, x.tolist()) for x in y)
            for y in row.reshape(F.d - 1, F.n + 1, k + 1, rdeg + 1)
        )
        psis = multilinear_psi_sections(F, ys)
        assert value.tolist() == [[c for layer in s.layers() for c in layer] for s in psis]


def test_base_scan_dtype_holds_large_primes():
    scan = base_scan(fermat_form(137, 1, 2), 0)
    assert scan.values.dtype == np.int16
    assert scan.coords.min() >= 0 and scan.values.min() >= 0
    assert scan.values.max() == 136
    assert base_scan(conic_form(3), 1).values.dtype == np.int8


def _assert_lift_matches_scan(F, e):
    """Count and ordered rows of the lift against the full tuple scan."""
    slow = base_solutions_slow(F, e, None)
    fast = _base_solutions(F, e, None)
    assert fast.shape == slow.shape and (fast == slow).all()
    assert count_solutions(F, e, 0).raw_count == len(slow)


@pytest.mark.parametrize("F", [
    conic_form(3), conic_form(5), fermat_form(5, 1, 3), fermat_form(3, 2, 2),
    *(random_smooth_form(5, 2, 3, seed) for seed in (1, 2, 3)),
], ids=lambda F: f"{F.name}-p{F.p}-n{F.n}-d{F.d}")
def test_lift_matches_full_scan(F):
    for e in (0, 1, 2):
        _assert_lift_matches_scan(F, e)


def test_lift_layer_zero_is_the_cone_in_code_order():
    # fermat(5, 5, 2) has 5^6 layer codes, so [lo, hi) spans several blocks
    # and starts and ends inside one
    F = fermat_form(5, 5, 2)
    lo, hi = 1000, 13000
    vecs = batch_digits(np.arange(lo, hi), F.p, F.n + 1)
    cone = vecs[~batch_eval_form(F, vecs[:, :, None]).any(axis=1)]
    lifted = np.concatenate(list(counting._lift(F, 0, lo, hi)))
    assert lifted.shape == cone.shape + (1,)
    assert (lifted[:, :, 0] == cone).all()


@pytest.mark.parametrize("F,e", [
    (conic_form(5), 2), (fermat_form(5, 1, 3), 2), (make_form(3, 2, 2, [((1, 1, 0), 1)]), 1),
], ids=["conic5", "fermat5-cubic", "x0x1"])
def test_lift_over_a_split_of_layer_zero_is_the_whole_lift(F, e):
    codes = F.p ** (F.n + 1)
    whole = np.concatenate(list(counting._lift_solutions(F, e, 0, codes)))
    for edges in ([0, 1, codes // 3, codes // 3, codes - 1, codes], [0, codes // 2, codes]):
        parts = [counting._lift_solutions(F, e, lo, hi) for lo, hi in zip(edges, edges[1:])]
        union = np.concatenate([rows for part in parts for rows in part])
        assert union.shape == whole.shape and (union == whole).all()


def test_slow_count_does_not_use_the_lift(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle ran the lift")

    monkeypatch.setattr(counting, "_lift_solutions", refuse)
    assert count_solutions_slow(conic_form(3), 2, 0, None) == 48


@st.composite
def forms_and_degree_bounds(draw):
    """A random form, possibly singular, with p^((n+1)(e+1)) <= 2e5."""
    d = draw(st.integers(2, 3))
    p = draw(st.sampled_from([q for q in (3, 5, 7) if q > d]))
    n = draw(st.integers(1, 2))
    e = draw(st.sampled_from([e for e in (0, 1, 2) if p ** ((n + 1) * (e + 1)) <= 2e5]))
    return _draw_form(draw, p, n, d), e


# the gradient of each example vanishes at a nonzero point of its cone:
# x0^2 along x0 = 0, the line pair x0 x1 at (0, 0, 1) and the cuspidal
# cubic x0^2 x2 - x1^3 at (0, 0, 1)
@example((make_form(3, 2, 2, [((2, 0, 0), 1)]), 2))
@example((make_form(5, 2, 2, [((1, 1, 0), 1)]), 1))
@example((make_form(5, 2, 3, [((2, 0, 1), 1), ((0, 3, 0), 4)]), 1))
@given(forms_and_degree_bounds())
def test_lift_matches_full_scan_on_random_forms(case):
    F, e = case
    _assert_lift_matches_scan(F, e)


# ---------------------------------------------------------------------------
# the one classifier of stacks of F_p maps, against scalar-rref keyed classes


def _x0x1(n):
    return make_form(3, n, 2, [((1, 1) + (0,) * (n - 1), 1)], name="x0x1")


def _x0sq(n):
    return make_form(3, n, 2, [((2,) + (0,) * n, 1)], name="x0sq")


def _check_classes(F, X, lead, ids, images):
    """ids and images equal the scalar classes of the unfolded maps of X:
    onto maps class 0 with the identity image, the others numbered in
    first-seen order."""
    ref_ids, ref_images = map_classes(unfolded_mult_matrix_batch(F, X), F.p, lead)
    assert ids.tolist() == ref_ids.tolist()
    assert len(images) == len(ref_images)
    assert all(a.shape == b.shape and (a == b).all() for a, b in zip(images, ref_images))
    assert (images[ONTO] == np.eye(images[ONTO].shape[0])).all()
    seen = list(dict.fromkeys(k for k in ids.tolist() if k != ONTO))
    assert seen == list(range(1, len(images)))


CLASS_FORMS = [conic_form(3), _x0x1(1), _x0x1(2), _x0sq(1), _x0sq(2)]
CLASS_IDS = ["conic3", "x0x1-n1", "x0x1-n2", "x0sq-n1", "x0sq-n2"]


@pytest.mark.parametrize("F", CLASS_FORMS, ids=CLASS_IDS)
def test_fiber_classes_match_scalar_classes(F):
    # gradient maps of the generating base points at e = 1, keyed with their
    # value layer; x0^2 with n = 2 has no onto point and more points than
    # one FIBER_CHUNK
    scan = base_scan(F, 1)
    coords = scan.coords[scan.generating].astype(np.int64)
    values = scan.values[scan.generating].astype(np.int64)
    ids, images = fiber_classes(F, coords, values)
    _check_classes(F, coords[:, :, None, :], values, ids, images)
    if F.name == "x0sq" and F.n == 2:
        assert len(coords) > FIBER_CHUNK and (ids != ONTO).all()


@pytest.mark.parametrize("F", CLASS_FORMS, ids=CLASS_IDS)
@pytest.mark.parametrize("e,m", [(1, 1), (0, 2)])
def test_pair_map_classes_match_scalar_classes(F, e, m):
    # unfolded pair maps of a seeded stack of tuples of P_{e,m}^(n+1), longer
    # than one FIBER_CHUNK, with repeated rows on both sides of its boundary
    rng = np.random.default_rng(17)
    X = rng.integers(0, F.p, size=(FIBER_CHUNK + 60, F.n + 1, m + 1, e + 1))
    X = np.concatenate([X, X[rng.permutation(len(X))[:100]]])
    classes = MapClasses(F.p, (m + 1) * (F.d * e + 1))
    ids = np.concatenate([classes.of(F, X[:300]), classes.of(F, X[300:])])
    _check_classes(F, X, None, ids, classes.images)


def test_every_base_point_of_conic3_at_e2_is_onto():
    coords, ids, images = generating_fibers(conic_form(3), 2)
    assert len(coords) == 16_848
    assert (ids == ONTO).all() and len(images) == 1
