import functools
import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetsums import bounds
from jetsums.bounds import (
    UncoveredCase,
    calibration_passed,
    calibration_report,
    certify,
    default_e_span,
    degree_floor,
    expected_dims,
    genus_slack,
    minimal_variables,
    pair_bound,
    shrink_exponent,
    single_bound,
    thresholds,
    variable_threshold,
)
from jetsums.sections import BudgetExceeded
from oracles import (
    count_pair_cases_slow,
    dominant_term_split,
    pair_gain,
    pair_gain_display,
    single_bound_display,
    sweep_dense,
)


def test_genus_slack_values():
    assert genus_slack(0) == 0 and genus_slack(1) == 0
    assert genus_slack(2) == Fraction(3, 2)
    assert genus_slack(7) == 4
    with pytest.raises(ValueError):
        genus_slack(-1)


def test_expected_dims():
    assert expected_dims(3, 2, 3, 0) == (8, 5)
    assert expected_dims(2, 2, 2, 0)[0] == 3


def test_thresholds_and_degree_floors():
    assert thresholds(2, 1, "canonical") == (6, 16)
    assert thresholds(2, 1, "terminal") == (11, 24)
    assert degree_floor("canonical", 3, 1) == 114
    assert degree_floor("canonical", 3, 0) == 0
    assert degree_floor("canonical", 2, 2) == Fraction(91, 2)
    with pytest.raises(UncoveredCase):
        thresholds(2, 0, "canonical")
    with pytest.raises(UncoveredCase):
        degree_floor("terminal", 2, 0)


def test_variable_threshold_small_degree_rows():
    assert variable_threshold("canonical", 4, 0, e=1) == 2**2 * 4 * 9
    assert variable_threshold("canonical", 4, 0, e=2) == 2**3 * 3 * 10
    assert variable_threshold("canonical", 3, 0, e=5) == 2**2 * 2 * 7 - 1
    assert variable_threshold("terminal", 3, 0, e=2) == 2**2 * 2 * (
        1 + Fraction(2, 5) + Fraction(2 * 2 * 7, 3)
    )
    assert minimal_variables("canonical", 3, 0) == 56
    assert minimal_variables("canonical", 3, 1) == 57
    assert minimal_variables("terminal", 2, 1) == 12


def test_shrink_exponent_cases():
    assert shrink_exponent(3, 0, 4, 6) == 2
    assert shrink_exponent(2, 1, 10, 11) == 2
    assert shrink_exponent(2, 2, 20, 20) == 2 * 2 - 1
    assert shrink_exponent(2, 1, 10, 10) == 2  # inner-range genus-1 value


def test_single_bound_examples():
    assert single_bound(3, 0, 4, 1, 6).value == Fraction(50, 3)
    assert single_bound(2, 1, 30, 1, 31).value == Fraction(61, 14)
    pc = single_bound(2, 2, 4, 1, 5)  # tiny degree at genus 2: e - s < 2g - 1
    assert not pc.ok_preconditions and pc.value is None


def test_single_bound_pipelines_agree():
    for (d, g, e, m, D) in [
        (3, 0, 4, 1, 6), (2, 1, 30, 1, 31), (3, 1, 120, 7, 130),
        (4, 1, 950, 11, 1000), (2, 2, 50, 3, 51),
    ]:
        a = single_bound(d, g, e, m, D)
        b = single_bound_display(d, g, e, m, D)
        assert a.ok_preconditions == b.ok_preconditions
        if a.ok_preconditions:
            assert a.value == b.value


def test_pair_quantities():
    M, case = pair_gain(2, 1, 30, 1, 31, 31)
    assert M == 56 and case == "both"
    assert pair_bound(2, 1, 30, 1, 31, 31).value == Fraction(61, 14)
    assert pair_bound(2, 1, 30, 1, 31, 31).value < 12


def test_positive_numerator_positive_bound():
    pc = single_bound(3, 0, 10, 4, 12)
    assert pc.ok_preconditions and pc.value > 0


# Fraction transcriptions of the shrink parameter and the bound ratios,
# kept as oracles for the integer cores behind the public functions.


@functools.lru_cache(maxsize=1 << 12)  # a degree's D at every jet order
def _frac_shrink_exponent(d, g, e, D):
    t1 = math.floor(Fraction(D - e + 2 * g - 2, d - 1))
    t2 = math.floor(e - Fraction(D, d - 1))
    base = max(t1, t2)
    if g >= 1:
        base = max(base, 2 * g - 2, 1)
    return base + 1


def _frac_single_bound(d, g, e, m, D):
    f = genus_slack(g)
    s = _frac_shrink_exponent(d, g, e, D)
    mp = (m + 2) // 2
    notes = []
    if e - s < 2 * g - 1:
        notes.append("e - s < 2g - 1")
    den = (e - s - g + 1) * ((m - mp) // (d - 1) + 1) - (m - mp + 1) * f
    if den <= 0:
        notes.append("nonpositive denominator")
    if notes:
        return bounds.PointCheck(None, False, tuple(notes))
    num = 2 ** (d - 2) * (2 * D + m * (d * e + 1 - g))
    return bounds.PointCheck(Fraction(num) / den, True)


def _frac_single_bound_display(d, g, e, m, D):
    f = genus_slack(g)
    s = _frac_shrink_exponent(d, g, e, D)
    mp = (m + 2) // 2
    if e - s < 2 * g - 1:
        return bounds.PointCheck(None, False, ("e - s < 2g - 1",))
    h0 = e - s - g + 1
    drop = (m - mp + 1) * ((d - 1) * (s - (e - g + 1)) + f) + h0 * (
        (m - mp + 1) * (d - 1) - ((m - mp) // (d - 1) + 1)
    )
    if drop >= 0:
        return bounds.PointCheck(None, False, ("nonpositive denominator",))
    num = 2 ** (d - 2) * (2 * D + m * (d * e + 1 - g))
    return bounds.PointCheck(Fraction(num) / (-drop), True)


def _frac_pair_gain(d, g, e, m, Da, Db):
    f = genus_slack(g)
    sa = _frac_shrink_exponent(d, g, e, Da)
    sb = _frac_shrink_exponent(d, g, e, Db)
    mp = (m + 2) // 2
    ca = e - sa >= 2 * g - 1
    cb = e - sb >= 2 * g - 1
    qa = mp * f + (e - sa - g + 1) * math.ceil(Fraction(m - mp + 1, d - 1))
    qb = (e - sb - g + 1) * math.ceil(Fraction(m + 1, d - 1))
    if ca and not cb:
        return qa, "alpha-only"
    if cb and not ca:
        return qb, "beta-only"
    if ca and cb:
        return max(qa, qb), "both"
    return None, "neither"


def _frac_pair_bound(d, g, e, m, Da, Db):
    f = genus_slack(g)
    M, case = _frac_pair_gain(d, g, e, m, Da, Db)
    if M is None:
        return bounds.PointCheck(None, False, ("neither side nonspecial",))
    den = M - (m + 1) * f
    if den <= 0:
        return bounds.PointCheck(None, False, (f"nonpositive denominator ({case})",))
    num = 2 ** (d - 1) * (Da + Db + m * (d * e - g + 1))
    return bounds.PointCheck(Fraction(num) / den, True, (case,))


def _frac_pair_gain_display(d, g, e, m, Da, Db):
    f = genus_slack(g)
    sa = _frac_shrink_exponent(d, g, e, Da)
    sb = _frac_shrink_exponent(d, g, e, Db)
    mp = (m + 2) // 2
    ca = e - sa >= 2 * g - 1
    cb = e - sb >= 2 * g - 1
    qa = (m - mp + 1) * f - (e - sa - g + 1) * ((m - mp) // (d - 1) + 1)
    qb = (m + 1) * f - (e - sb - g + 1) * (m // (d - 1) + 1)
    opts = [q for q, ok in ((qa, ca), (qb, cb)) if ok]
    return (m + 1) * f - min(opts) if opts else None


def _halves(value, doubled) -> bool:
    """value (a Fraction, an int or None) is doubled[0] / doubled[1]."""
    if value is None:
        return doubled is None
    return value.numerator * doubled[1] == doubled[0] * value.denominator


@pytest.mark.parametrize("d", range(2, 8))
def test_integer_cores_match_fraction_oracles(d):
    """Every g <= 3, e < 40, 1 <= m <= 6 and D in [0, de/2 + 1] (D up to
    3e + 4 for the shrink parameter); the pairs (D, de/2 + 1 - D) put every
    degree on both sides.  The public functions, notes included, are
    compared on e < 12."""
    for g in range(4):
        f2 = int(2 * genus_slack(g))
        for e in range(1, 40):
            for D in range(3 * e + 5):
                assert shrink_exponent(d, g, e, D) == _frac_shrink_exponent(d, g, e, D)
            dmax = d * e // 2 + 1
            for m, D in itertools.product(range(1, 7), range(dmax + 1)):
                args, pair = (d, g, e, m, D), (d, g, e, m, D, dmax - D)
                for core, oracle in ((bounds._single, _frac_single_bound),
                                     (bounds._single_display, _frac_single_bound_display)):
                    num2, den2, nonspecial = core(*args, f2)
                    pc = oracle(*args)
                    assert pc.ok_preconditions == (nonspecial and den2 > 0)
                    assert _halves(pc.value, (num2, den2) if pc.ok_preconditions else None)
                M2, case = bounds._pair_gain(*pair, f2)
                M, oracle_case = _frac_pair_gain(*pair)
                assert case == oracle_case and _halves(M, None if M2 is None else (M2, 2))
                M2 = bounds._pair_gain_display(*pair, f2)
                assert _halves(_frac_pair_gain_display(*pair),
                               None if M2 is None else (M2, 2))
                if e < 12:
                    assert single_bound(*args) == _frac_single_bound(*args)
                    assert single_bound_display(*args) == _frac_single_bound_display(*args)
                    assert pair_gain(*pair) == (M, case)
                    assert pair_bound(*pair) == _frac_pair_bound(*pair)
                    assert pair_gain_display(*pair) == _frac_pair_gain_display(*pair)


def test_certify_canonical_small():
    cert = certify("canonical", 2, 1, (17, 40), (1, 10))
    assert cert.passed and cert.n_plus_1 == 7
    assert Fraction(*map(int, cert.max_bound.split("/"))) < 7
    assert cert.pipeline_agreement
    assert all(entry["ok"] for entry in cert.monotonicity)


def test_certify_terminal_small():
    cert = certify("terminal", 2, 1, (25, 40), (1, 8))
    assert cert.passed and cert.n_plus_1 == 12
    assert cert.case_counts and cert.flags["derived_pair_bound_disagreements"] == 0


def test_certify_rejects_bad_spans():
    with pytest.raises(ValueError):
        certify("canonical", 2, 1, (10, 20))  # starts below the threshold
    with pytest.raises(ValueError):
        certify("canonical", 2, 1, (40, 20))
    with pytest.raises(ValueError):
        certify("smooth", 2, 1)
    with pytest.raises(ValueError, match="jet orders must be >= 1"):
        certify("terminal", 2, 1, (25, 26), m_span=(0, 3))
    for n_plus_1 in (1, 0, -3):  # a configuration error, not a failed inequality
        with pytest.raises(ValueError, match="variable count must be >= 2"):
            certify("canonical", 2, 1, n_plus_1=n_plus_1)


def test_certify_fails_below_threshold():
    cert = certify("canonical", 2, 1, (17, 30), (1, 5), n_plus_1=6)
    assert not cert.passed
    assert any(f["kind"] == "inequality" for f in cert.failures)


def test_default_span_fractional_floor():
    lo, hi = default_e_span("canonical", 2, 2)
    assert lo == 46 and hi == 145


def test_certificates_reproducible():
    a = certify("canonical", 2, 1, (17, 25), (1, 5))
    b = certify("canonical", 2, 1, (17, 25), (1, 5))
    assert json.dumps(a.to_json()) == json.dumps(b.to_json())


def test_calibration_report_defaults():
    items = calibration_report(g_max=12, d_max=6)
    assert calibration_passed(items)
    names = {i["name"] for i in items}
    assert "degree2-canonical-exact-seven" in names
    assert "canonical-threshold-calibration" in names
    assert "terminal-pair-tail-bound-at-threshold" in names


@pytest.mark.parametrize("g_max,d_max", [(0, 10), (50, 3), (0, 0)])
def test_calibration_report_refuses_a_range_without_checks(g_max, d_max):
    with pytest.raises(ValueError, match="g_max >= 1 and d_max >= 4"):
        calibration_report(g_max, d_max)


def test_calibration_evaluates_the_registered_forms(monkeypatch):
    """The equality items read the display forms that
    check_display_monotonicity reads: each form moved up by one fails its
    item, and no other."""
    real = bounds._display_registry
    moved = {"top-degree-bound", "case-I-bound", "pair-II-bound"}

    def shifted(mode, d, g):
        return [(name, (lambda e, fn=fn: fn(e) + 1) if name in moved else fn, direction)
                for name, fn, direction in real(mode, d, g)]

    monkeypatch.setattr(bounds, "_display_registry", shifted)
    failed = {item["name"] for item in calibration_report(g_max=3, d_max=5) if not item["ok"]}
    assert failed == {"degree2-canonical-exact-seven", "canonical-threshold-calibration",
                      "degree2-terminal-II-exact", "degree2-terminal-II-above"}


@given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 400))
def test_shrink_arrays_match_scalar(d, g, e):
    Ds = np.arange(0, d * e + 3, dtype=np.int64)
    shrink = bounds._shrink_exponents(d, g, e, Ds)
    split = bounds._dominant_term_splits(d, g, e, Ds)
    for D in range(Ds.size):
        assert shrink[D] == shrink_exponent(d, g, e, D)
        assert split[D] == dominant_term_split(d, g, e, D)


def _minor_grid(d, g, e):
    """The divisor degrees of a pair sweep and its minor-pair mask."""
    Ds = np.arange(0, d * e // 2 + 2, dtype=np.int64)
    return Ds, np.maximum(Ds[:, None], Ds[None, :]) >= e - 2 * g + 2


@given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 45),
       st.integers(1, 3))
def test_pair_cases_match_scalar_walker(d, g, e_lo, width):
    """Same counts, flags and key order as the scalar walk, accumulated
    over consecutive degrees as certify does."""
    fast, slow = {}, {}
    fast_flags = {"derived_pair_bound_disagreements": 0}
    slow_flags = dict(fast_flags)
    for e in range(e_lo, e_lo + width):
        bounds._count_pair_cases(fast, fast_flags, d, g, e)
        count_pair_cases_slow(slow, slow_flags, d, g, e, *_minor_grid(d, g, e))
    assert list(fast.items()) == list(slow.items())
    assert fast_flags == slow_flags


def _scalar_sweep(monkeypatch):
    """Route certify through the scalar case walker and the scalar shrink
    parameter instead of the integer-array versions."""
    monkeypatch.setattr(bounds, "_count_pair_cases", lambda case_counts, flags, d, g, e:
                        count_pair_cases_slow(case_counts, flags, d, g, e,
                                              *_minor_grid(d, g, e)))
    monkeypatch.setattr(bounds, "_shrink_exponents", lambda d, g, e, Ds: np.array(
        [_frac_shrink_exponent(d, g, e, int(D)) for D in Ds], dtype=np.int64))
    monkeypatch.setattr(bounds, "_dominant_term_splits", lambda d, g, e, Ds: np.array(
        [dominant_term_split(d, g, e, int(D)) for D in Ds], dtype=bool))


SWEEP_GRID = [
    ("terminal", 2, 1, (25, 30)), ("terminal", 2, 2, (75, 77)),
    ("terminal", 3, 0, (1, 12)), ("terminal", 3, 1, (220, 221)),
    ("terminal", 4, 0, (1, 10)), ("canonical", 2, 1, (17, 30)),
    ("canonical", 2, 2, (46, 52)), ("canonical", 3, 0, (1, 20)),
    ("canonical", 3, 1, (115, 120)), ("canonical", 4, 0, (1, 12)),
    ("canonical", 4, 1, (940, 942)),
]


@pytest.mark.parametrize("mode,d,g,e_span", SWEEP_GRID)
def test_certify_matches_scalar_sweep(monkeypatch, mode, d, g, e_span):
    # json strings, not dicts: the key order of case_counts is output too
    fast = json.dumps(certify(mode, d, g, e_span, (1, 4)).to_json())
    with monkeypatch.context() as patch:
        _scalar_sweep(patch)
        slow = json.dumps(certify(mode, d, g, e_span, (1, 4)).to_json())
    assert fast == slow


def test_single_pipeline_disagreement_fails(monkeypatch):
    def off_by_one(*args):
        num2, den2, nonspecial = bounds._single(*args)
        return num2 + den2, den2, nonspecial  # the ratio plus one

    monkeypatch.setattr(bounds, "_single_display", off_by_one)
    cert = certify("canonical", 2, 1, (17, 30), (1, 5))
    assert not cert.pipeline_agreement and cert.verdict == "fail"


def test_single_pipeline_needs_positive_grid_denominators():
    # negating both doubled terms keeps every ratio but not the sign of its
    # denominator, which the sweep's comparisons rely on
    d, g, e, m = 2, 1, 30, 1
    Ds = np.arange(e, d * e // 2 + 2, dtype=np.int64)
    num2, den2 = np.array([bounds._single(d, g, e, m, D, 0)[:2] for D in Ds.tolist()]).T
    assert bounds._check_single_pipeline(d, g, e, m, Ds, num2, den2)
    assert not bounds._check_single_pipeline(d, g, e, m, Ds, -num2, -den2)


def test_pair_pipeline_disagreement_fails(monkeypatch):
    real = bounds._pair_gain_display

    def off_by_one(*args):
        M2 = real(*args)
        return None if M2 is None else M2 + 2  # the gain plus one

    monkeypatch.setattr(bounds, "_pair_gain_display", off_by_one)
    cert = certify("terminal", 2, 1, (25, 30), (1, 4))
    assert not cert.pipeline_agreement and cert.verdict == "fail"


def _scalar_walk(mode, d, g, e_span, m_span, n_plus_1):
    """The failures, skipped count, maximum and witness of a sweep, from
    the Fraction transcriptions of single_bound or pair_bound in
    (e, m, cell) order."""
    fails, skipped, best, witness = [], 0, Fraction(0), None
    cap = None if mode == "canonical" else 3
    for e in range(e_span[0], e_span[1] + 1):
        dmax = d * e // 2 + 1
        if mode == "canonical":
            Ds = range(max(0, e - 2 * g + 2), dmax + 1)
            fails += [{"kind": "dominant-term", "e": e, "D": D} for D in Ds
                      if not dominant_term_split(d, g, e, D)]
            cells = [{"D": D} for D in Ds]
        else:
            cells = [{"D_alpha": a, "D_beta": b} for a in range(dmax + 1)
                     for b in range(dmax + 1) if max(a, b) >= e - 2 * g + 2]
        for m in range(m_span[0], m_span[1] + 1):
            bound = _frac_single_bound if mode == "canonical" else _frac_pair_bound
            checks = [(c, bound(d, g, e, m, *c.values())) for c in cells]
            pre = [c for c, pc in checks if not pc.ok_preconditions]
            ineq = [(c, pc.value) for c, pc in checks
                    if pc.ok_preconditions and pc.value >= n_plus_1]
            skipped += len(pre)
            fails += [{"kind": "precondition", "e": e, "m": m, **c} for c in pre[:cap]]
            fails += [{"kind": "inequality", "e": e, "m": m, **c, "bound": v}
                      for c, v in ineq[:cap]]
            for c, pc in checks:
                if pc.ok_preconditions and pc.value > best:
                    best, witness = pc.value, {"e": e, "m": m, **c}
    return fails, skipped, best, witness


@pytest.mark.parametrize("mode,d,g,e_span,m_span,n_plus_1", [
    ("canonical", 2, 2, (46, 60), (0, 30), 5),
    ("canonical", 2, 3, (69, 75), (0, 10), 4),
    ("terminal", 2, 1, (25, 27), (0, 6), 11),
    ("terminal", 2, 2, (75, 77), (0, 8), 8),
])
def test_certify_failures_match_scalar_walk(mode, d, g, e_span, m_span, n_plus_1):
    """Failing sweeps with precondition failures: each jet order lists its
    precondition failures before its inequality failures (pair sweeps the
    first 3 of each), every bound is the exact ratio, and the witness is
    the first cell attaining the maximum.  Only the jet order m = 0, which
    certify refuses, has precondition failures here, so these run the
    sweep behind it."""
    cert = bounds._sweep(mode, d, g, e_span, m_span, n_plus_1)
    fails, skipped, best, witness = _scalar_walk(mode, d, g, e_span, m_span, n_plus_1)
    got = [{**f, "bound": Fraction(f["bound"])} if "bound" in f else f
           for f in cert.failures]
    assert got == fails and any(f["kind"] == "precondition" for f in fails)
    assert cert.skipped_points == skipped > 0 and not cert.passed
    assert Fraction(cert.max_bound) == best and cert.witness == witness


def test_certify_budget():
    start = time.time()
    with pytest.raises(BudgetExceeded):
        certify("terminal", 5, 1, budget=10**7)  # charged 69,410,050
    assert time.time() - start < 1
    # terminal (2,1) at e = 25..26: one pass over the 27 + 28 divisor
    # degrees, and two candidates for each of the 23 + 24 distinct shrink
    # weights of the sides with e - s >= 2g - 1 at each of 3 orders: 337
    with pytest.raises(BudgetExceeded):
        certify("terminal", 2, 1, (25, 26), (1, 3), budget=336)
    assert certify("terminal", 2, 1, (25, 26), (1, 3), budget=337).passed


def test_certify_budget_charges_the_failure_listing():
    """At n + 1 = 10 the order m = 2 fails at e = 25 and 26: their full
    27^2 + 28^2 pair grids are charged on top of the 337 search cells,
    after the searches and before any grid is built."""
    args = ("terminal", 2, 1, (25, 26), (1, 3))
    with pytest.raises(BudgetExceeded) as exc:
        certify(*args, n_plus_1=10, budget=1849)
    assert exc.value.needed == 337 + 27**2 + 28**2
    cert = certify(*args, n_plus_1=10, budget=1850)
    assert not cert.passed and {(f["e"], f["m"]) for f in cert.failures} == {(25, 2), (26, 2)}


def _counted_cells(monkeypatch):
    """Count the cells a pair sweep evaluates, in the units of
    _grid_cells: each divisor degree once (the search tables and case
    tags) plus every candidate the searches return."""
    counted = [0]
    real_candidates, real_search = bounds._PairSearch.candidates, bounds._PairSearch.__init__

    def candidates(self, ms):
        out = real_candidates(self, ms)
        counted[0] += out[0].size
        return out

    def search(self, d, g, e, w, *rest):
        counted[0] += w.size
        real_search(self, d, g, e, w, *rest)

    monkeypatch.setattr(bounds._PairSearch, "candidates", candidates)
    monkeypatch.setattr(bounds._PairSearch, "__init__", search)
    return counted


@pytest.mark.parametrize("mode,d,g,e_span", SWEEP_GRID)
def test_certify_work_within_charged_cells(monkeypatch, mode, d, g, e_span):
    """The budget figure bounds the cells a sweep evaluates, and k = 1
    here: a single sweep evaluates its |Ds| degrees at each order, which
    grid_points counts, and a passing pair sweep evaluates exactly what
    _grid_cells charges, a pass over its divisor degrees and two
    candidates per distinct shrink weight at each order (the minor pairs
    at every order, which the dense pass evaluated, are 2 to 150 times
    this figure on this grid)."""
    counted = _counted_cells(monkeypatch)
    cert = certify(mode, d, g, e_span, (1, 4))
    charged = bounds._grid_cells(mode, d, g, e_span, (1, 4))
    work = cert.grid_points if mode == "canonical" else counted[0]
    assert cert.passed and work <= charged <= 1 * work


COVERED = [(mode, d, g) for mode in ("terminal", "canonical")
           for d in (2, 3, 4) for g in range(4) if not (d == 2 and g == 0)]


@st.composite
def sweep_args(draw):
    """A sweep that the dense pass runs in well under a second: 1-3
    degrees just above the floor where its pair grid has at most 120,000
    cells (every single sweep, and terminal (2, g), (3, 0), (3, 1), (4, 0)),
    else 1-3 degrees in 1..60, below the floor; jet orders from 0, 1 or 2
    (m = 0 has precondition failures), and n + 1 from 2 (many inequality
    failures) to two above the least admitted count."""
    mode, d, g = draw(st.sampled_from(COVERED))
    e_lo = math.floor(degree_floor(mode, d, g)) + 1
    if mode == "terminal" and (d * e_lo // 2 + 2) ** 2 > 120_000:
        e_lo = draw(st.integers(1, 60))
    else:
        e_lo += draw(st.integers(0, 2))
    e_span = (e_lo, e_lo + draw(st.integers(0, 2)))
    m_lo = draw(st.integers(0, 2))
    m_span = (m_lo, m_lo + draw(st.integers(0, 5)))
    n_plus_1 = draw(st.integers(2, minimal_variables(mode, d, g) + 2))
    return mode, d, g, e_span, m_span, n_plus_1


@settings(max_examples=150)  # 5-9 s
@given(sweep_args())
def test_sweep_matches_dense_pass(args):
    """The searched sweep against the dense pass over every cell: the whole
    certificate as a json string (the key order of case_counts is output
    too) and the full failure list, of which the json keeps 20."""
    mode, d, g, e_span, m_span, _ = args
    try:  # below the floor a display form may divide by zero
        bounds.check_display_monotonicity(mode, d, g, e_span)
    except ZeroDivisionError:
        assume(False)
    fast, dense = bounds._sweep(*args), sweep_dense(*args)
    assert json.dumps(fast.to_json()) == json.dumps(dense.to_json())
    assert fast.failures == dense.failures


@pytest.mark.parametrize("d,g,max_bound,e_span,m_span", [
    (3, 2, "9584/89", (1257, 1258), (1, 4)),
    (4, 1, "124848/205", (1847, 1848), (3, 6)),
])
def test_certify_terminal_sweeps_past_the_old_grid_budget(d, g, max_bound, e_span, m_span):
    """The default terminal (3, 2) and (4, 1) sweeps, whose minor-pair grids
    (1.1e10 and 5.5e10 cells) the default budget refused, pass at it.  Two
    degrees x 4 orders around each maximum's witness match the dense pass,
    and their maximum is the sweep's."""
    cert = certify("terminal", d, g)
    assert cert.passed and cert.max_bound == max_bound
    assert cert.witness["e"] in range(e_span[0], e_span[1] + 1)
    assert cert.witness["m"] in range(m_span[0], m_span[1] + 1)
    window = ("terminal", d, g, e_span, m_span, cert.n_plus_1)
    fast = bounds._sweep(*window)
    assert json.dumps(fast.to_json()) == json.dumps(sweep_dense(*window).to_json())
    assert fast.max_bound == max_bound and fast.witness == cert.witness
