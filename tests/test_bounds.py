import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetsums import bounds
from jetsums.bounds import (
    UncoveredCase,
    calibration_passed,
    calibration_report,
    certificate_to_json_str,
    certify,
    default_e_span,
    degree_floor,
    expected_dims,
    genus_slack,
    minimal_variables,
    pair_bound,
    pair_gain,
    shrink_exponent,
    single_bound,
    single_bound_display,
    thresholds,
    variable_threshold,
)
from jetsums.sections import BudgetExceeded


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
    assert certificate_to_json_str(a) == certificate_to_json_str(b)
    with_time = certificate_to_json_str(a, timestamp="2026-01-01T00:00:00Z")
    assert "timestamp" in with_time


def test_calibration_report_defaults():
    items = calibration_report(g_max=12, d_max=6)
    assert calibration_passed(items)
    names = {i["name"] for i in items}
    assert "degree2-canonical-exact-seven" in names
    assert "canonical-threshold-calibration" in names
    assert "terminal-pair-tail-bound-at-threshold" in names


@given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 400))
def test_shrink_arrays_match_scalar(d, g, e):
    Ds = np.arange(0, d * e + 3, dtype=np.int64)
    shrink = bounds._shrink_exponents(d, g, e, Ds)
    split = bounds._dominant_term_splits(d, g, e, Ds)
    for D in range(Ds.size):
        assert shrink[D] == shrink_exponent(d, g, e, D)
        assert split[D] == bounds._dominant_term_split(d, g, e, D)


@given(st.integers(2, 4), st.integers(0, 2), st.integers(1, 45),
       st.integers(1, 3))
def test_pair_cases_match_scalar_walker(d, g, e_lo, width):
    """Same counts, flags and key order as the scalar walk, accumulated
    over consecutive degrees as certify does."""
    fast, slow = {}, {}
    fast_flags = {"derived_pair_bound_disagreements": 0}
    slow_flags = dict(fast_flags)
    for e in range(e_lo, e_lo + width):
        Ds = np.arange(0, d * e // 2 + 2, dtype=np.int64)
        minor = np.maximum(Ds[:, None], Ds[None, :]) >= e - 2 * g + 2
        bounds._count_pair_cases(fast, fast_flags, d, g, e, Ds, minor)
        bounds._count_pair_cases_slow(slow, slow_flags, d, g, e, Ds, minor)
    assert list(fast.items()) == list(slow.items())
    assert fast_flags == slow_flags


def _scalar_sweep(monkeypatch):
    """Route certify through the scalar case walker and the scalar shrink
    parameter instead of the integer-array versions."""
    monkeypatch.setattr(bounds, "_count_pair_cases", bounds._count_pair_cases_slow)
    monkeypatch.setattr(bounds, "_shrink_exponents", lambda d, g, e, Ds: np.array(
        [shrink_exponent(d, g, e, int(D)) for D in Ds], dtype=np.int64))
    monkeypatch.setattr(bounds, "_dominant_term_splits", lambda d, g, e, Ds: np.array(
        [bounds._dominant_term_split(d, g, e, int(D)) for D in Ds], dtype=bool))


@pytest.mark.parametrize("mode,d,g,e_span", [
    ("terminal", 2, 1, (25, 30)), ("terminal", 2, 2, (75, 77)),
    ("terminal", 3, 0, (1, 12)), ("terminal", 3, 1, (220, 221)),
    ("terminal", 4, 0, (1, 10)), ("canonical", 2, 1, (17, 30)),
    ("canonical", 2, 2, (46, 52)), ("canonical", 3, 0, (1, 20)),
    ("canonical", 3, 1, (115, 120)), ("canonical", 4, 0, (1, 12)),
    ("canonical", 4, 1, (940, 942)),
])
def test_certify_matches_scalar_sweep(monkeypatch, mode, d, g, e_span):
    # json strings, not dicts: the key order of case_counts is output too
    fast = json.dumps(certify(mode, d, g, e_span, (1, 4)).to_json())
    with monkeypatch.context() as patch:
        _scalar_sweep(patch)
        slow = json.dumps(certify(mode, d, g, e_span, (1, 4)).to_json())
    assert fast == slow


def test_single_pipeline_disagreement_fails(monkeypatch):
    def off_by_one(*args):
        pc = single_bound(*args)
        return bounds.PointCheck(pc.value + 1, True) if pc.ok_preconditions else pc

    monkeypatch.setattr(bounds, "single_bound_display", off_by_one)
    cert = certify("canonical", 2, 1, (17, 30), (1, 5))
    assert not cert.pipeline_agreement and cert.verdict == "fail"


def test_pair_pipeline_disagreement_fails(monkeypatch):
    real = bounds.pair_gain_display

    def off_by_one(*args):
        M = real(*args)
        return None if M is None else M + 1

    monkeypatch.setattr(bounds, "pair_gain_display", off_by_one)
    cert = certify("terminal", 2, 1, (25, 30), (1, 4))
    assert not cert.pipeline_agreement and cert.verdict == "fail"


def _scalar_walk(mode, d, g, e_span, m_span, n_plus_1):
    """The failures, skipped count, maximum and witness of a sweep, from
    single_bound or pair_bound over Fractions in (e, m, cell) order."""
    fails, skipped, best, witness = [], 0, Fraction(0), None
    cap = None if mode == "canonical" else 3
    for e in range(e_span[0], e_span[1] + 1):
        dmax = d * e // 2 + 1
        if mode == "canonical":
            Ds = range(max(0, e - 2 * g + 2), dmax + 1)
            fails += [{"kind": "dominant-term", "e": e, "D": D} for D in Ds
                      if not bounds._dominant_term_split(d, g, e, D)]
            cells = [{"D": D} for D in Ds]
        else:
            cells = [{"D_alpha": a, "D_beta": b} for a in range(dmax + 1)
                     for b in range(dmax + 1) if max(a, b) >= e - 2 * g + 2]
        for m in range(m_span[0], m_span[1] + 1):
            checks = [(c, single_bound(d, g, e, m, *c.values()) if mode == "canonical"
                       else pair_bound(d, g, e, m, *c.values())) for c in cells]
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
    the first cell attaining the maximum."""
    cert = certify(mode, d, g, e_span, m_span, n_plus_1)
    fails, skipped, best, witness = _scalar_walk(mode, d, g, e_span, m_span, n_plus_1)
    got = [{**f, "bound": Fraction(f["bound"])} if "bound" in f else f
           for f in cert.failures]
    assert got == fails and any(f["kind"] == "precondition" for f in fails)
    assert cert.skipped_points == skipped > 0 and not cert.passed
    assert Fraction(cert.max_bound) == best and cert.witness == witness


def test_certify_budget():
    start = time.time()
    with pytest.raises(BudgetExceeded):
        certify("terminal", 5, 1)  # 26,824^2-cell pair grids at every degree
    assert time.time() - start < 1
    # terminal (2,1) at e = 25..26: (27^2 + 28^2) cells at each of 3 orders
    with pytest.raises(BudgetExceeded):
        certify("terminal", 2, 1, (25, 26), (1, 3), budget=3 * (27**2 + 28**2) - 1)
    assert certify("terminal", 2, 1, (25, 26), (1, 3),
                   budget=3 * (27**2 + 28**2)).passed
