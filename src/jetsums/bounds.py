"""Exact rational certification of the minor-arc bound analysis.

Everything here is exact: the shrink parameter s, the single and pair
bound ratios that the variable count n+1 must exceed, the degree
thresholds with their calibration identities, and finite sweep
certificates over (e, m, D) grids.  The thresholds and the public bound
functions return Fractions; the bound ratios are computed as integer
numerators and denominators, doubled so that the half-integer genus slack
(g+1)/2 becomes the integer g+1, and the sweeps compare those integers
over int64 arrays.

Two transcription pipelines are kept deliberately, each as private
integer cores: compact closed forms (``_single``, ``_pair_gain``), which
``single_bound``, ``pair_bound`` and the sweeps use, and a literal
rendering of the displayed case expressions (``_single_display``,
``_pair_gain_display``); certificates assert their exact agreement, by
cross-multiplying Python integers, at the first jet order of every degree
(every divisor degree for singles, an 8 x 8 sample of the minor pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .sections import check_budget


def genus_slack(g: int) -> Fraction:
    """0 for genus 0 and 1, (g+1)/2 beyond."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    return Fraction(0) if g <= 1 else Fraction(g + 1, 2)


def expected_dims(n: int, d: int, e: int, g: int) -> tuple[int, int]:
    """(dimension of the space of maps with a fixed line bundle, dimension
    of the full moduli problem)."""
    mu = (n + 1) * (e - g + 1) - (d * e - g + 1) - 1
    mu_bar = (n + 1) * (e - g + 1) - (d * e - g + 1) + g - 1 + (3 * g - 3)
    return mu, mu_bar


class UncoveredCase(ValueError):
    pass


def degree_floor(mode: str, d: int, g: int) -> Fraction:
    """The threshold e0 beyond which the sweep inequalities are calibrated."""
    f = genus_slack(g)
    if mode == "canonical":
        if g == 0 and d >= 3:
            return Fraction(0)
        if g >= 1 and d >= 3:
            return Fraction(
                (g - 1) * (2 ** (d - 1) * (d - 1) ** 2 * (2 * d - 1) + 2)
            ) + (d - 1) * (g + (d - 1) * f) * (
                2 ** (d - 1) * (d - 1) * (d * d - d + 1) + 1
            )
        if g >= 1 and d == 2:
            return 19 * g + 7 * f - 3
        raise UncoveredCase(f"no canonical threshold for d={d}, g={g}")
    if mode == "terminal":
        if g == 0 and d >= 3:
            return Fraction(0)
        if g >= 1 and d >= 3:
            return (
                2 ** (d - 2)
                * (d - 1) ** 2
                * (
                    4 * d * d * g
                    + (4 * d**3 - 8 * d * d + 7 * d - 3) * f
                    + 4 * d * (g - 2)
                    - g
                    + 4
                )
                - 1
                + (d + 1) * g
                + (d - 1) ** 2 * f
            )
        if g >= 1 and d == 2:
            return 29 * g + 14 * f - 5
        raise UncoveredCase(f"no terminal threshold for d={d}, g={g}")
    raise ValueError(f"unknown mode {mode!r}")


def variable_threshold(mode: str, d: int, g: int, e: int | None = None) -> Fraction:
    """The bound that n+1 must strictly exceed, per theorem case row."""
    if mode == "canonical":
        if g >= 1 and d >= 2:
            return Fraction(2 ** (d - 1) * (d - 1) * (d * d - d + 1))
        if g == 0 and d >= 3:
            if e is not None and e == 1 and d >= 4:
                return Fraction(2 ** (d - 2) * d * (2 * d + 1))
            if e is not None and 2 <= e <= d - 2:
                return Fraction(2 ** (d - 1) * (d - 1) * (d * e + 2))
            return Fraction(2 ** (d - 1) * (d - 1) * (d * d - d + 1) - 1)
        raise UncoveredCase(f"no canonical variable bound for d={d}, g={g}")
    if mode == "terminal":
        if g >= 1 and d >= 2:
            return Fraction(2 ** (d - 2) * (d - 1) * (4 * d * d - 4 * d + 3))
        if g == 0 and d >= 3:
            if e is not None and e == 1 and d >= 4:
                return Fraction(2 ** (d - 2) * d * (2 * d + 1))
            if e is not None and 2 <= e <= d - 1:
                return 2 ** (d - 1) * (d - 1) * (
                    1
                    + Fraction(d - 1, 2 * d - 1)
                    + Fraction(2 * (d - 1) * (d * e + 1), d)
                )
            return Fraction(2 ** (d - 2) * (d - 1) * (4 * d * d - 4 * d + 3) - 1)
        raise UncoveredCase(f"no terminal variable bound for d={d}, g={g}")
    raise ValueError(f"unknown mode {mode!r}")


def thresholds(d: int, g: int, mode: str, e: int | None = None) -> tuple[Fraction, Fraction]:
    """(exact bound on n+1, degree threshold e0) for the applicable case."""
    return variable_threshold(mode, d, g, e), degree_floor(mode, d, g)


def minimal_variables(mode: str, d: int, g: int) -> int:
    """Smallest integer n+1 admitted by the large-degree theorem row."""
    bound = variable_threshold(mode, d, g)
    return math.floor(bound) + 1


# ---------------------------------------------------------------------------
# shrink parameter and the bound ratios


def shrink_exponent(d: int, g: int, e: int, D: int) -> int:
    """The degree drop s attached to a divisor degree D.

    Case-split maximum plus one, with both floors taken by integer floor
    division: floor(e - D/(d-1)) = e + floor(-D/(d-1)).
    """
    if D < 0:
        raise ValueError("divisor degree must be >= 0")
    base = max((D - e + 2 * g - 2) // (d - 1), e + (-D) // (d - 1))
    if g >= 1:
        base = max(base, 2 * g - 2, 1)
    return base + 1


def _mprime(m: int) -> int:
    return (m + 2) // 2  # ceil((m+1)/2)


@dataclass
class PointCheck:
    value: Fraction | None
    ok_preconditions: bool
    notes: tuple[str, ...] = ()


# The integer cores below take f2 = 2 * genus_slack(g), an integer, and
# return doubled numerators, denominators and gains: half of each is the
# ratio or gain the core names.


def _single(d: int, g: int, e: int, m: int, D: int, f2: int) -> tuple[int, int, bool]:
    """(2 num, 2 den, e - s >= 2g - 1) of single_bound."""
    s = shrink_exponent(d, g, e, D)
    mp = _mprime(m)
    den2 = 2 * (e - s - g + 1) * ((m - mp) // (d - 1) + 1) - (m - mp + 1) * f2
    return 2 ** (d - 1) * (2 * D + m * (d * e + 1 - g)), den2, e - s >= 2 * g - 1


def _single_display(d: int, g: int, e: int, m: int, D: int,
                    f2: int) -> tuple[int, int, bool]:
    """(2 num, 2 den, e - s >= 2g - 1) of the second pipeline's single
    ratio: the ratio of _single, assembled from the estimate display with
    the explicit section-count term."""
    s = shrink_exponent(d, g, e, D)
    mp = _mprime(m)
    h0 = e - s - g + 1  # degree e-s sections, nonspecial range
    drop2 = (m - mp + 1) * (2 * (d - 1) * (s - (e - g + 1)) + f2) + 2 * h0 * (
        (m - mp + 1) * (d - 1) - ((m - mp) // (d - 1) + 1)
    )
    return 2 ** (d - 1) * (2 * D + m * (d * e + 1 - g)), -drop2, e - s >= 2 * g - 1


def single_bound(d: int, g: int, e: int, m: int, D: int) -> PointCheck:
    """Ratio the variable count must exceed for one minor divisor degree.

    Requires e - s >= 2g - 1 and a positive denominator; failures are
    reported, not raised.
    """
    num2, den2, nonspecial = _single(d, g, e, m, D, int(2 * genus_slack(g)))
    notes = []
    if not nonspecial:
        notes.append("e - s < 2g - 1")
    if den2 <= 0:
        notes.append("nonpositive denominator")
    if notes:
        return PointCheck(None, False, tuple(notes))
    return PointCheck(Fraction(num2, den2), True)


def _pair_gain(d: int, g: int, e: int, m: int, Da: int, Db: int,
               f2: int) -> tuple[int | None, str]:
    """(2M, case): the gain M for a pair of divisor degrees, and which of
    the two one-sided estimates is available; 2M is None in case
    "neither"."""
    sa = shrink_exponent(d, g, e, Da)
    sb = shrink_exponent(d, g, e, Db)
    mp = _mprime(m)
    ca = e - sa >= 2 * g - 1
    cb = e - sb >= 2 * g - 1
    qa = mp * f2 + 2 * (e - sa - g + 1) * -(-(m - mp + 1) // (d - 1))
    qb = 2 * (e - sb - g + 1) * -(-(m + 1) // (d - 1))
    if ca and not cb:
        return qa, "alpha-only"
    if cb and not ca:
        return qb, "beta-only"
    if ca and cb:
        return max(qa, qb), "both"
    return None, "neither"


def pair_bound(d: int, g: int, e: int, m: int, Da: int, Db: int) -> PointCheck:
    """Ratio the variable count must exceed for a minor pair of degrees."""
    f2 = int(2 * genus_slack(g))
    M2, case = _pair_gain(d, g, e, m, Da, Db, f2)
    if M2 is None:
        return PointCheck(None, False, ("neither side nonspecial",))
    den2 = M2 - (m + 1) * f2
    if den2 <= 0:
        return PointCheck(None, False, (f"nonpositive denominator ({case})",))
    num2 = 2 ** d * (Da + Db + m * (d * e - g + 1))
    return PointCheck(Fraction(num2, den2), True, (case,))


def _pair_gain_display(d: int, g: int, e: int, m: int, Da: int, Db: int,
                       f2: int) -> int | None:
    """2M of the second pipeline's gain, or None: the min of the two
    one-sided exponent drops recovered through the ceil/floor identity."""
    sa = shrink_exponent(d, g, e, Da)
    sb = shrink_exponent(d, g, e, Db)
    mp = _mprime(m)
    ca = e - sa >= 2 * g - 1
    cb = e - sb >= 2 * g - 1
    qa = (m - mp + 1) * f2 - 2 * (e - sa - g + 1) * ((m - mp) // (d - 1) + 1)
    qb = (m + 1) * f2 - 2 * (e - sb - g + 1) * (m // (d - 1) + 1)
    opts = []
    if ca:
        opts.append(qa)
    if cb:
        opts.append(qb)
    if not opts:
        return None
    return (m + 1) * f2 - min(opts)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    mode: str
    d: int
    g: int
    n_plus_1: int
    e_span: tuple[int, int]
    m_span: tuple[int, int]
    degree_floor: str
    grid_points: int
    skipped_points: int
    verdict: str
    max_bound: str | None
    witness: dict | None
    monotonicity: list
    pipeline_agreement: bool
    case_counts: dict
    flags: dict
    failures: list
    version: str = __version__

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "d": self.d,
            "g": self.g,
            "n_plus_1": self.n_plus_1,
            "e_span": list(self.e_span),
            "m_span": list(self.m_span),
            "degree_floor": self.degree_floor,
            "grid_points": self.grid_points,
            "skipped_points": self.skipped_points,
            "verdict": self.verdict,
            "max_bound": self.max_bound,
            "witness": self.witness,
            "monotonicity": self.monotonicity,
            "pipeline_agreement": self.pipeline_agreement,
            "case_counts": self.case_counts,
            "flags": self.flags,
            "failures": self.failures[:20],
            "version": self.version,
        }


def default_e_span(mode: str, d: int, g: int) -> tuple[int, int]:
    """The 100 degree bounds just above the mode's degree floor."""
    lo = math.floor(degree_floor(mode, d, g)) + 1
    return lo, lo + 99


def _shrink_exponents(d: int, g: int, e: int, Ds: np.ndarray) -> np.ndarray:
    """shrink_exponent at every divisor degree of Ds (all >= 0), by integer
    floor division: floor(e - D/(d-1)) = e + floor(-D/(d-1))."""
    base = np.maximum((Ds - e + 2 * g - 2) // (d - 1), e + (-Ds) // (d - 1))
    if g >= 1:
        base = np.maximum(base, max(2 * g - 2, 1))
    return base + 1


def _dominant_term_splits(d: int, g: int, e: int, Ds: np.ndarray) -> np.ndarray:
    """_dominant_term_split at every degree of Ds, with both max terms and
    the threshold D = de/2 - g + 1 scaled by d - 1 and 2 respectively."""
    first = Ds - e + 2 * g - 2
    second = e * (d - 1) - Ds
    return np.where(2 * Ds > d * e - 2 * g + 2, first >= second, second >= first)


def _grid_cells(mode: str, d: int, g: int, e_span, m_span) -> int:
    """Cells the sweep evaluates before it lists any failure: per degree,
    |Ds| divisor degrees at each jet order (singles); for pairs, one pass
    over the |Ds| divisor degrees (shrink weights, search tables and case
    tags) and two candidate cells per distinct shrink weight of a side
    with e - s >= 2g - 1 at each jet order.  A pair sweep adds the full
    |Ds|^2 grid of each jet order it lists failures for, which _sweep
    charges once its searches have found those orders."""
    orders = m_span[1] - m_span[0] + 1
    cells = 0
    for e in range(e_span[0], e_span[1] + 1):
        dmax = d * e // 2 + 1
        if mode == "canonical":
            cells += orders * max(0, dmax - max(0, e - 2 * g + 2) + 1)
        else:
            Ds = np.arange(0, dmax + 1, dtype=np.int64)
            w = e - _shrink_exponents(d, g, e, Ds) - g + 1
            cells += Ds.size + 2 * orders * np.unique(w[w >= g]).size
    return cells


SWEEP_BLOCK = 1 << 13  # cells per block of jet orders or pair-grid rows


def _check_int64(mode: str, d: int, g: int, e_hi: int, m_span, n_plus_1: int) -> None:
    """Refuse a sweep whose doubled bounds could pass 2^63.

    For D <= de/2 + 1 the shrink parameter lies in [0, e + 2g + 1], so
    |e - s - g + 1| <= max(e + 1, 3g), and every jet-order factor of the
    doubled numerators and denominators is at most m + 1 (m >= 1).  The
    sweep multiplies a denominator by n+1 or by a numerator, never more:
    the pair searches compare candidates by the same cross-products, and
    their limits on the shrink weight are quotients of doubled gains.
    """
    mm = m_span[1] + 1
    den = mm * (2 * max(e_hi + 1, 3 * g) + int(4 * genus_slack(g)))
    num = 2 ** (d - 1 if mode == "canonical" else d) * (
        2 * (d * e_hi // 2 + 1) + mm * (d * e_hi + 1 + g))
    worst = max(abs(n_plus_1), num) * den
    if worst >= 2**63:
        raise ValueError(f"certificate products may reach {worst:.3e}, "
                         "past the int64 limit 2^63")


def certify(
    mode: str,
    d: int,
    g: int,
    e_span: tuple[int, int] | None = None,
    m_span: tuple[int, int] = (1, 50),
    n_plus_1: int | None = None,
    budget: int | None = None,
) -> Certificate:
    """Sweep the admissible grid and assert the strict variable-count
    inequality at every point, in exact integer arithmetic.

    Half-integer thresholds are doubled so that every comparison runs on
    int64 arrays.  Singles evaluate each degree e as one (m, D) grid over
    all jet orders at once, in blocks of at most SWEEP_BLOCK cells.  Pairs
    never build the (D_alpha, D_beta) grid of a passing jet order: two
    one-sided searches find, among at most 2|Ds| candidate cells per
    order, every cell that can attain the order's maximum or fail it (see
    _sweep).  The charged cell count is checked against the budget, and
    the largest product against int64, before the sweep starts.  Jet
    orders start at m = 1: the theorem covers no other.

    Also asserts: the two transcription pipelines agree, the shrink
    parameter's max-term domination switches where predicted, and the
    registered display expressions move monotonically across the swept
    degrees.
    """
    if mode not in ("canonical", "terminal"):
        raise ValueError("mode must be canonical or terminal")
    if n_plus_1 is None:
        n_plus_1 = minimal_variables(mode, d, g)
    if e_span is None:
        e_span = default_e_span(mode, d, g)
    e_lo, e_hi = e_span
    m_lo, m_hi = m_span
    if e_lo > e_hi or m_lo > m_hi:
        raise ValueError("empty span")
    if m_lo < 1:
        raise ValueError(f"jet orders must be >= 1, got m = {m_lo}")
    if n_plus_1 < 2:
        raise ValueError(f"variable count must be >= 2, got n + 1 = {n_plus_1}")
    e0 = degree_floor(mode, d, g)
    if Fraction(e_lo) <= e0:
        raise ValueError(f"degree span must start above the threshold {e0}")
    check_budget(_grid_cells(mode, d, g, e_span, m_span), budget,
                 "certificate grid")
    _check_int64(mode, d, g, e_hi, m_span, n_plus_1)
    return _sweep(mode, d, g, (e_lo, e_hi), (m_lo, m_hi), n_plus_1, budget)


def _sweep(mode: str, d: int, g: int, e_span: tuple[int, int],
           m_span: tuple[int, int], n_plus_1: int,
           budget: int | None = None) -> Certificate:
    """The sweep of certify, on spans it has checked.

    It takes any jet orders m >= 0, so that tests can reach the
    precondition failures: sweeps of m >= 1 above the threshold have shown
    none.

    A pair cell (i, j) = (D_alpha, D_beta) has the doubled bound
    2^d (i + j + mK) / (max(a_i, b_j) - (m+1) f2), where a_i and b_j are
    the one-sided gains, nondecreasing in the shrink weight w because
    their jet-order factors are >= 0, and a side without e - s >= 2g - 1
    enters at -inf.  Where a_i <= b_j the denominator is b_j's, and the
    numerator grows with i, so the largest such i is the only cell of row
    b_j that can attain the maximum, fail the inequality or have a
    denominator <= 0 when any cell there does; where b_j < a_i the same
    holds for the largest such j.  The minor condition
    max(i, j) >= e - 2g + 2 keeps that largest index if it keeps any.
    Equal weights give equal gains, so one sort of the weights and one
    searchsorted per degree (_PairSearch) find these candidates, at most
    2|Ds| per jet order.  They give the exact maximum and its
    witness (the first (e, m) at the maximum and there the least cell in
    row-major order), and tell which jet orders have a failure.  Only
    those orders are evaluated cell by cell, in row blocks, to list their
    failures and count their skipped cells, after the grid figure plus
    their |Ds|^2 cells has passed the budget.  case_counts come from
    intervals in D_beta (_count_pair_cases) and grid_points in closed
    form.
    """
    e_lo, e_hi = e_span
    m_lo, m_hi = m_span
    f2 = int(2 * genus_slack(g))
    failures: list = []
    best_num, best_den = 0, 1  # running max of the ratio, cross-multiplied
    witness = None
    total_points = 0
    skipped = 0
    agreement = True
    case_counts: dict[str, int] = {}
    flags = {"derived_pair_bound_disagreements": 0}
    listed: list[tuple[int, int]] = []  # pair orders (e, m) with a failure

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
        else:
            Ds = np.arange(0, dmax + 1, dtype=np.int64)
            _count_pair_cases(case_counts, flags, d, g, e)
            side_lo = min(max(0, e - 2 * g + 2), dmax + 1)
            total_points += (m_hi - m_lo + 1) * ((dmax + 1) ** 2 - side_lo**2)
        w = e - _shrink_exponents(d, g, e, Ds) - g + 1
        ca = w >= g  # e - s >= 2g - 1
        if mode == "canonical":
            width = Ds.size
        else:
            agreement &= _check_pair_pipeline(d, g, e, m_lo, Ds,
                                              *_side_gains(d, m_lo, w, ca, f2))
            search = _PairSearch(d, g, e, w, ca, f2)
            width = max(1, 2 * search.weights.size)
        step = max(1, SWEEP_BLOCK // width)
        for m0 in range(m_lo, m_hi + 1, step):
            ms = np.arange(m0, min(m0 + step, m_hi + 1), dtype=np.int64)[:, None]
            if mode == "canonical":
                num2, den2, ok = _single_block(failures, d, g, e, Ds, w, ca, ms,
                                               n_plus_1, f2)
                total_points += ok.size
                skipped += int(np.count_nonzero(~ok))
                cells = {"D": np.broadcast_to(Ds, num2.shape)}
                if m0 == m_lo:
                    agreement &= _check_single_pipeline(d, g, e, m_lo, Ds,
                                                        num2[0], den2[0])
            else:
                I, J, num2, den2, valid = search.candidates(ms)
                ok = valid & (den2 > 0)
                failing = (valid & (den2 <= 0)) | (ok & (num2 >= n_plus_1 * den2))
                failing = failing.any(axis=1) | search.neither
                listed += [(e, int(m)) for m in ms[failing, 0]]
                cells = {"D_alpha": I, "D_beta": J}
            top = _top_cell(num2, den2, ok, cells, best_num, best_den)
            if top is not None:
                best_num, best_den, r, c = top
                witness = {"e": e, "m": int(ms[r, 0]), **_cell(cells, r, c)}

    if listed:
        check_budget(_grid_cells(mode, d, g, e_span, m_span)
                     + sum((d * e // 2 + 2) ** 2 for e, _ in listed),
                     budget, "certificate grid")
        for e, m in listed:
            skipped += _list_pair_failures(failures, d, g, e, m, n_plus_1, f2)

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


def _cell(cells: dict, r, c) -> dict:
    return {key: int(col[r, c]) for key, col in cells.items()}


def _single_block(failures: list, d: int, g: int, e: int, Ds: np.ndarray,
                  w: np.ndarray, ca: np.ndarray, ms: np.ndarray, n_plus_1: int,
                  f2: int):
    """(doubled numerators, doubled denominators, preconditions hold) of a
    single sweep's (m, D) grid at the jet orders ms (a column); each order
    appends all of its precondition failures and then all of its
    inequality failures to failures."""
    mp = (ms + 2) // 2
    den2 = 2 * w * ((ms - mp) // (d - 1) + 1) - (ms - mp + 1) * f2
    num2 = 2 ** (d - 1) * (2 * Ds + ms * (d * e + 1 - g))
    bad_pre = ~ca | (den2 <= 0)
    bad_ineq = ~bad_pre & (num2 >= n_plus_1 * den2)
    for r in np.flatnonzero(bad_pre.any(axis=1) | bad_ineq.any(axis=1)):
        m = int(ms[r, 0])
        for c in np.flatnonzero(bad_pre[r]):
            failures.append({"kind": "precondition", "e": e, "m": m, "D": int(Ds[c])})
        for c in np.flatnonzero(bad_ineq[r]):
            failures.append({"kind": "inequality", "e": e, "m": m, "D": int(Ds[c]),
                             "bound": f"{num2[r, c]}/{den2[r, c]}"})
    return num2, den2, ~bad_pre


def _top_cell(num2: np.ndarray, den2: np.ndarray, ok: np.ndarray, cells: dict,
              best_num: int, best_den: int):
    """(num, den, r, c) of the largest ratio num2/den2 over the cells where
    ok (den2 > 0 there), at its first row r and there its least cell c in
    row-major order, when it beats best_num/best_den >= 0; else None.

    The exact test comes first, since few blocks of a sweep beat the
    running best.  Floats then only pick the few cells near the top, which
    are compared exactly."""
    beat = ok & (num2 * best_den > best_num * den2)
    if not beat.any():
        return None
    ratios = np.where(beat, num2 / np.maximum(den2, 1), -np.inf).ravel()
    for i in np.flatnonzero(ratios >= ratios.max() * (1 - 1e-12)).tolist():
        if int(num2.flat[i]) * best_den > best_num * int(den2.flat[i]):
            best_num, best_den = int(num2.flat[i]), int(den2.flat[i])
    at = beat & (num2 * best_den == best_num * den2)
    r = int(np.flatnonzero(at.any(axis=1))[0])
    cs = np.flatnonzero(at[r])
    c = int(cs[np.lexsort([col[r, cs] for col in reversed(cells.values())])[0]])
    return best_num, best_den, r, c


def _gain_factors(d: int, m):
    """(m', A, B) at the jet order(s) m: the doubled one-sided gains of a
    divisor degree with shrink weight w are a = m' f2 + 2 A w and
    b = 2 B w, with A = ceil((m - m' + 1)/(d - 1)) >= 0 and
    B = ceil((m + 1)/(d - 1)) >= 1 for m >= 0."""
    mp = (m + 2) // 2
    return mp, -((m - mp + 1) // -(d - 1)), -((m + 1) // -(d - 1))


def _side_gains(d: int, m: int, w: np.ndarray, ca: np.ndarray, f2: int):
    """The doubled one-sided gains (a, b) of every divisor degree at jet
    order m, each side without e - s >= 2g - 1 at the least gain of the
    order, so that it never wins a max."""
    mp, A, B = _gain_factors(d, m)
    qa, qb = mp * f2 + 2 * A * w, 2 * B * w
    low = min(qa.min(), qb.min())
    return np.where(ca, qa, low), np.where(ca, qb, low)


class _PairSearch:
    """The one-sided searches of one degree's pair grid (see _sweep).

    A gain depends on its divisor degree only through the shrink weight w,
    so divisor degrees with equal w share their partner and their
    denominator, and only the largest of them can attain or fail: each
    search runs over the distinct weights of the sides with
    e - s >= 2g - 1, each with the largest divisor degree that has it.
    The weights are integers in a range of about e, so one searchsorted
    over their sorted list, with the running maximum of those degrees,
    tabulates the largest index whose w is at most each limit in that
    range.  The other sides enter at -inf, below every gain: the largest
    of them bounds every search from below.
    """

    def __init__(self, d: int, g: int, e: int, w: np.ndarray, ca: np.ndarray, f2: int):
        self.d, self.f2 = d, f2
        self.K = d * e - g + 1
        self.T = e - 2 * g + 2  # minor: max(D_alpha, D_beta) >= T
        sides = np.flatnonzero(ca)
        by_w = sides[np.argsort(w[sides], kind="stable")]  # ties by index
        ws = w[by_w]
        last = np.flatnonzero(np.diff(ws, append=ws[-1:] + 1))  # each weight's top
        self.weights, self.top = ws[last], by_w[last]
        reach = np.concatenate(([-1], np.maximum.accumulate(self.top)))
        free = np.flatnonzero(~ca)
        top_free = int(free[-1]) if free.size else -1
        # a cell with neither side is a precondition failure at every order
        self.neither = top_free >= max(self.T, 0)
        # limits at most lo reach no side, limits at least hi reach all
        self.lo, self.hi = (int(ws[0]) - 1, int(ws[-1])) if ws.size else (0, 0)
        limits = np.arange(self.lo, self.hi + 1)
        self.table = np.maximum(
            reach[np.searchsorted(self.weights, limits, side="right")], top_free)

    def _largest(self, limit: np.ndarray) -> np.ndarray:
        """The largest index whose side fails the test or whose w is at
        most limit, -1 where none is."""
        return self.table[np.clip(limit, self.lo, self.hi) - self.lo]

    def candidates(self, ms: np.ndarray):
        """(D_alpha, D_beta, doubled numerator, doubled denominator, valid)
        of the candidate cells at each jet order of ms (a column), two per
        distinct weight: first, for its D_beta, the largest D_alpha with
        a <= b; then, for its D_alpha, the largest D_beta with b < a.
        valid marks the candidates that exist and are minor."""
        w = self.weights
        mp, A, B = _gain_factors(self.d, ms)
        qa, qb = mp * self.f2 + 2 * A * w, 2 * B * w
        # a_i <= b_j  <=>  2 A w_i <= b_j - mp f2; with A = 0, all i or none
        room = qb - mp * self.f2
        limit = np.where(A > 0, room // (2 * np.maximum(A, 1)),
                         np.where(room >= 0, self.hi, self.lo))
        # b_j < a_i  <=>  2 B w_j <= a_i - 1
        top = np.broadcast_to(self.top, qa.shape)
        I = np.concatenate((self._largest(limit), top), axis=1)
        J = np.concatenate((top, self._largest((qa - 1) // (2 * B))), axis=1)
        valid = (I >= 0) & (J >= 0) & (np.maximum(I, J) >= self.T)
        den2 = np.concatenate((qb, qa), axis=1) - (ms + 1) * self.f2
        num2 = 2 ** self.d * (I + J + ms * self.K)
        return I, J, num2, den2, valid


def _list_pair_failures(failures: list, d: int, g: int, e: int, m: int,
                        n_plus_1: int, f2: int) -> int:
    """Evaluate one jet order's minor pairs cell by cell, in blocks of at
    most SWEEP_BLOCK cells, append its first 3 precondition failures and
    then its first 3 inequality failures (row-major order) to failures,
    and return its count of precondition failures."""
    Ds = np.arange(0, d * e // 2 + 2, dtype=np.int64)
    w = e - _shrink_exponents(d, g, e, Ds) - g + 1
    ca = w >= g
    qa, qb = _side_gains(d, m, w, ca, f2)
    pre, ineq, skipped = [], [], 0
    rows = max(1, SWEEP_BLOCK // Ds.size)
    for i0 in range(0, Ds.size, rows):
        I = Ds[i0:i0 + rows, None]
        minor = np.maximum(I, Ds) >= e - 2 * g + 2
        den2 = np.maximum(qa[I], qb) - (m + 1) * f2
        num2 = 2 ** d * (I + Ds + m * (d * e - g + 1))
        bad_pre = minor & (~(ca[I] | ca) | (den2 <= 0))
        bad_ineq = minor & ~bad_pre & (num2 >= n_plus_1 * den2)
        skipped += int(np.count_nonzero(bad_pre))
        for r, c in zip(*np.nonzero(bad_pre)):
            if len(pre) == 3:
                break
            pre.append({"kind": "precondition", "e": e, "m": m,
                        "D_alpha": int(I[r, 0]), "D_beta": int(c)})
        for r, c in zip(*np.nonzero(bad_ineq)):
            if len(ineq) == 3:
                break
            ineq.append({"kind": "inequality", "e": e, "m": m,
                         "D_alpha": int(I[r, 0]), "D_beta": int(c),
                         "bound": f"{num2[r, c]}/{den2[r, c]}"})
    failures += pre + ineq
    return skipped


def _check_single_pipeline(d, g, e, m, Ds, num2, den2) -> bool:
    """_single against _single_display, cross-multiplied, and against the
    grid's doubled (num2, den2) at every degree of Ds."""
    f2 = int(2 * genus_slack(g))
    for D, grid_num, grid_den in zip(Ds.tolist(), num2.tolist(), den2.tolist()):
        num, den, nonspecial = _single(d, g, e, m, D, f2)
        dnum, dden, dnonspecial = _single_display(d, g, e, m, D, f2)
        ok = nonspecial and den > 0
        if ok != (dnonspecial and dden > 0):
            return False
        if ok and not (num * dden == dnum * den and grid_den > 0
                       and num * grid_den == grid_num * den):
            return False
    return True


def _check_pair_pipeline(d, g, e, m, Ds, qa, qb) -> bool:
    """_pair_gain against _pair_gain_display and the doubled one-sided
    gains of the sweep, whose max at (i, j) is 2M, on an 8 x 8 sample of
    the minor cells (max(i, j) >= e - 2g + 2)."""
    f2 = int(2 * genus_slack(g))
    degrees, qa, qb = Ds.tolist(), qa.tolist(), qb.tolist()
    step = max(1, len(degrees) // 8)
    for i in range(0, len(degrees), step):
        for j in range(0, len(degrees), step):
            if max(i, j) < e - 2 * g + 2:
                continue
            M2 = _pair_gain(d, g, e, m, degrees[i], degrees[j], f2)[0]
            disp = _pair_gain_display(d, g, e, m, degrees[i], degrees[j], f2)
            if M2 is None:
                if disp is not None:
                    return False
                continue
            if disp != M2 or M2 != max(qa[i], qb[j]):
                return False
    return True


_PAIR_TAGS_D2 = ("d2-I", "d2-II", "d2-III")
_PAIR_TAGS = ("I.1", "I.2.1", "I.2.2", "II", "III.1", "III.2.1", "III.2.2")


def _count_pair_cases(case_counts, flags, d, g, e):
    """Tag every minor pair (D_alpha, D_beta) with its case of the pair
    analysis and add the tag counts to case_counts.

    The half-integer thresholds are doubled: Db <= de/2 - g + 1 is
    2 Db <= de - 2g + 2 and Db >= Da/2 is 2 Db >= Da.  Each condition,
    the minor one max(Da, Db) >= e - 2g + 2 among them, holds on an
    interval of D_beta in each row, so every row is cut at the ends of
    those intervals and each piece is tagged once, at its first D_beta,
    and weighted by its length.  A tag new to case_counts is inserted in
    the order of its first minor cell in row-major order, the order in
    which a walk of the grid meets them.
    """
    dmax = d * e // 2 + 1
    T = e - 2 * g + 2
    h2 = d * e - 2 * g + 2  # twice de/2 - g + 1
    Da = np.arange(dmax + 1, dtype=np.int64)[:, None]
    ends = [0, T, h2 // 2 + 1, (Da + 1) // 2, (T + 1) // 2, 2 * g, dmax + 1]
    cuts = np.sort(np.clip(np.hstack(np.broadcast_arrays(*ends)), 0, dmax + 1), axis=1)
    Db, weight = cuts[:, :-1], np.diff(cuts, axis=1) * ((Da >= T) | (cuts[:, :-1] >= T))
    if d == 2:
        tags = _PAIR_TAGS_D2
        conds = [(e + 2 - 2 * g <= Db) & (Db <= e + 1),
                 (2 * g <= Db) & (Db <= e + 1 - 2 * g)]
    else:
        tags = _PAIR_TAGS
        in_I = (e - 2 * g + 2 <= Db) & (2 * Db <= h2)
        in_II = (h2 < 2 * Db) & (2 * Db <= d * e + 2)
        a_big = 2 * Da > h2
        conds = [in_I & (2 * Db >= Da), in_I & ~a_big, in_I, in_II,
                 np.broadcast_to(a_big, Db.shape), Da > 2 * Db]
    codes = np.select(conds, range(len(conds)), len(conds))
    present, first = np.unique(codes[weight > 0], return_index=True)  # row-major
    for t in present[np.argsort(first)]:
        case_counts[tags[t]] = case_counts.get(tags[t], 0) + int(weight[codes == t].sum())
    if d != 2:
        # the derived lower bound D_beta >= e/2 - g + 1 must follow from
        # D_beta >= D_alpha / 2 in case III.2.2
        flags["derived_pair_bound_disagreements"] += int(
            weight[(2 * Db < T) & (codes == len(conds))].sum())


# ---------------------------------------------------------------------------
# displayed case expressions, their directions, and calibration checks


def _display_registry(mode: str, d: int, g: int):
    """Named closed forms from the case analysis with the monotone
    direction in the swept degree that the tail arguments rely on."""
    f = genus_slack(g)
    de = lambda e: d * e  # noqa: E731
    out = []
    if mode == "canonical" and d >= 3:
        def rain(e):
            return (
                2 ** (d - 1)
                * (d - 1)
                * Fraction(e - 2 * g + 2 + (d - 1) * (d * e + 1 - g))
                / (e - 2 * g + 2 - g * (d - 1) - (d - 1) ** 2 * f)
            )

        def hcase2(e):
            return (
                2 ** (d - 2)
                * (d - 1)
                * Fraction(d * e + 2 + 2 * (d - 1) * (d * e + 1 - g))
                / (Fraction(d * e, 2) - 2 * g + 1 - g * (d - 1) - f * (d - 1) ** 2)
            )

        out.append(("case-I-bound", rain, "increasing" if g == 0 else "decreasing"))
        if g >= 1:
            out.append(("case-II-bound", hcase2, "decreasing"))
    if mode == "canonical" and d == 2 and g >= 1:
        def h2(e):
            return 2 * Fraction(3 * e + 2 - g) / (e - 3 * g + 1 - f)

        out.append(("top-degree-bound", h2, "decreasing"))
    if mode == "terminal" and d >= 3 and g >= 1:
        for name, fn in _terminal_display_forms(d, g).items():
            out.append((name, fn, "decreasing"))
    if mode == "terminal" and d == 2 and g >= 1:
        out.append((
            "pair-I-bound",
            lambda e: Fraction(4 * e + 3 - g) / (e - 3 * g + 1 - f),
            "decreasing",
        ))
        out.append((
            "pair-II-bound",
            lambda e: Fraction(11 * e + 2 * f - 7 * g + 7) / (e - 3 * g + 1 - f),
            "decreasing",
        ))
        out.append((
            "pair-III-bound",
            lambda e: 2 * Fraction(5 * e + 2) / (e - 3 * g + 1 - f),
            "decreasing",
        ))
    return out


def _terminal_display_forms(d: int, g: int):
    f = genus_slack(g)

    def S(e):
        return (
            2 ** (d - 1) * (d - 1)
            * Fraction(3 * (e - 2 * g + 2) + (d - 2) * (d * e - g + 1))
            / (e - 2 * g + 2 - (d - 1) * g - (d - 1) ** 2 * f)
        )

    def S_eq(e):
        return (
            3 * 2 ** (d - 1) * (d - 1) ** 2
            * Fraction(d * e - g + 1)
            / (d * e - g + 1 - 3 * (d - 1) * g - 3 * (d - 1) ** 2 * f)
        )

    def S_lt(e):
        return (
            2 ** (d - 1) * (d - 1) ** 2
            * Fraction(d * e - g + 1)
            / (e - 2 * g + 2 - (d - 1) * g - (d - 1) ** 2 * f)
        )

    def C(e):
        return (
            2 ** (d - 2) * (d - 1)
            * (3 * (Fraction(d * e, 2) + 1) + 4 * (d - 1) * (d * e - g + 1))
            / (Fraction(d * e, 2) - g + 1 - g * d - (d - 1) ** 2 * f)
        )

    def Cp(e):
        return (
            2 ** (d - 1) * (d - 1)
            * (Fraction(d * e, 2) + 1 + e - 2 * g + 1 + 2 * (d - 1) * (d * e - g + 1))
            / (Fraction(d * e, 2) + 1 - (d + 1) * g - (d - 1) ** 2 * f)
        )

    def E1(e):
        return (
            2 ** (d - 1) * (d - 1)
            * (Fraction(3 * (e - 2 * g + 2), 2) + 2 * (d - 1) * (d * e - g + 1))
            / (e - 2 * g + 2 - (d - 1) * g - (d - 1) ** 2 * f)
        )

    def E2(e):
        return (
            2 ** (d - 1) * (d - 1)
            * (3 * (Fraction(e, 2) - g + 1) + (d - 2) * (d * e - g + 1))
            / (Fraction(e, 2) - g + 1 - (d - 1) * g - (d - 1) ** 2 * f)
        )

    def tail22(e):
        return (
            2 ** (d - 1) * (d - 1)
            * Fraction(d * e - g + 1)
            / (Fraction(e, 2) - g + 1 - (d - 1) * g - (d - 1) ** 2 * f)
        )

    return {
        "pair-S-bound": S,
        "pair-S-eq-bound": S_eq,
        "pair-S-lt-bound": S_lt,
        "pair-C-bound": C,
        "pair-Cprime-bound": Cp,
        "pair-E1-bound": E1,
        "pair-E2-bound": E2,
        "pair-tail-bound": tail22,
    }


def check_display_monotonicity(mode: str, d: int, g: int,
                               e_span: tuple[int, int]) -> list[dict]:
    out = []
    e_lo, e_hi = e_span
    for name, fn, direction in _display_registry(mode, d, g):
        ok = True
        prev = None
        for e in range(e_lo, e_hi + 1):
            val = fn(e)
            if prev is not None:
                if direction == "decreasing" and val > prev:
                    ok = False
                    break
                if direction == "increasing" and val < prev:
                    ok = False
                    break
            prev = val
        out.append({"expression": name, "direction": direction, "ok": ok})
    return out


# ---------------------------------------------------------------------------
# the explicitly calibrated identities and inequalities


def calibration_report(g_max: int = 50, d_max: int = 10) -> list[dict]:
    """Exact verification of the closed-form identities and the
    evaluated-at-threshold inequalities behind the sweeps.

    Each check evaluates the registered display form at the threshold
    ``degree_floor`` gives, against ``variable_threshold``.  Every check
    needs a genus g >= 1 and a degree d >= 4 in range; a smaller range
    would pass having checked nothing, so it raises ValueError.
    """
    if g_max < 1 or d_max < 4:
        raise ValueError(f"need g_max >= 1 and d_max >= 4, got g_max={g_max}, d_max={d_max}")
    items: list[dict] = []

    def record(name, ok, detail=""):
        items.append({"name": name, "ok": bool(ok), "detail": detail})

    def display(mode, d, g, name):
        return next(fn for key, fn, _ in _display_registry(mode, d, g) if key == name)

    # (1) degree-2 exactness: the top-degree bound collapses to exactly 7
    ok = all(
        display("canonical", 2, g, "top-degree-bound")(degree_floor("canonical", 2, g))
        == variable_threshold("canonical", 2, g) + 1
        for g in range(1, g_max + 1)
    )
    record("degree2-canonical-exact-seven", ok, f"g in [1,{g_max}]")

    # (2) the case-I bound at the degree threshold is exactly one above the
    # variable bound, for every d and genus
    bad = []
    for d in range(3, d_max + 1):
        for g in range(1, g_max + 1):
            e0 = degree_floor("canonical", d, g)
            rain = display("canonical", d, g, "case-I-bound")(e0)
            if rain != variable_threshold("canonical", d, g) + 1:
                bad.append((d, g))
    record("canonical-threshold-calibration", not bad, f"first failures: {bad[:3]}")

    # (3) the case-II bound at the threshold stays within the variable bound
    bad = []
    for d in range(3, d_max + 1):
        for g in range(1, g_max + 1):
            e0 = degree_floor("canonical", d, g)
            h = display("canonical", d, g, "case-II-bound")(e0)
            if not h <= variable_threshold("canonical", d, g):
                bad.append((d, g))
    record("canonical-caseII-at-threshold", not bad, f"first failures: {bad[:3]}")

    # (4) terminal pair-case bounds evaluated at the terminal threshold
    target_small = lambda d: 2 ** (d - 1) * (d - 1) * (d * d - 2 * d + 3) + 1  # noqa: E731
    for name, strictness in [
        ("pair-S-bound", "lt-small"), ("pair-S-eq-bound", "lt"),
        ("pair-S-lt-bound", "lt"), ("pair-C-bound", "lt"),
        ("pair-Cprime-bound", "lt"), ("pair-E1-bound", "lt"),
        ("pair-E2-bound", "lt"), ("pair-tail-bound", "le"),
    ]:
        bad = []
        for d in range(3, d_max + 1):
            for g in range(1, g_max + 1):
                e0 = degree_floor("terminal", d, g)
                val = display("terminal", d, g, name)(e0)
                tgt = (target_small(d) if strictness == "lt-small"
                       else variable_threshold("terminal", d, g) + 1)
                ok = val <= tgt if strictness == "le" else val < tgt
                if not ok:
                    bad.append((d, g, str(val), str(tgt)))
        record(f"terminal-{name}-at-threshold", not bad, f"first failures: {bad[:2]}")

    # (5) the two sub-case bounds behind the degree-one merged estimate
    ok1 = all(d + 2 + (d - 2) * (d + 1) == d * d for d in range(4, d_max + 1))
    ok2 = all((d - 1) * (d + 1) < d * d for d in range(4, d_max + 1))
    ok3 = all(
        2 ** (d - 1) * d * d <= 2 ** (d - 2) * d * (2 * d + 1)
        for d in range(4, d_max + 1)
    )
    record("degree-one-subcase-square", ok1)
    record("degree-one-subcase-off-by-one", ok2 and ok3)

    # (6) degree-2 terminal bounds at the threshold: case I and III strictly
    # inside, case II calibrated to land exactly on the target
    for g_probe in ("I", "II-exact", "II-above", "III"):
        bad = []
        for g in range(1, g_max + 1):
            e0 = degree_floor("terminal", 2, g)
            target = variable_threshold("terminal", 2, g) + 1
            bound = display("terminal", 2, g, f"pair-{g_probe.split('-')[0]}-bound")
            if g_probe == "II-exact":
                ok = bound(e0) == target
            elif g_probe == "II-above":
                ok = bound(e0 + 1) < target
            else:
                ok = bound(e0) < target
            if not ok:
                bad.append(g)
        record(f"degree2-terminal-{g_probe}", not bad, f"failures: {bad[:5]}")

    return items


def calibration_passed(items: list[dict]) -> bool:
    return all(item["ok"] for item in items)
