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
    """Cells the sweep evaluates: per degree, |Ds| divisor degrees
    (singles) or the minor pairs (pairs) at each jet order, and for pairs
    the |Ds|^2 grid of the minor mask and the case tags once."""
    orders = m_span[1] - m_span[0] + 1
    cells = 0
    for e in range(e_span[0], e_span[1] + 1):
        dmax = d * e // 2 + 1
        if mode == "canonical":
            cells += orders * max(0, dmax - max(0, e - 2 * g + 2) + 1)
        else:
            full = (dmax + 1) ** 2  # the non-minor pairs: both below e - 2g + 2
            cells += full + orders * (full - min(max(0, e - 2 * g + 2), dmax + 1) ** 2)
    return cells


SWEEP_BLOCK = 1 << 13  # cells per block of jet orders; a larger order runs alone


def _check_int64(mode: str, d: int, g: int, e_hi: int, m_span, n_plus_1: int) -> None:
    """Refuse a sweep whose doubled bounds could pass 2^63.

    For D <= de/2 + 1 the shrink parameter lies in [0, e + 2g + 1], so
    |e - s - g + 1| <= max(e + 1, 3g), and every jet-order factor of the
    doubled numerators and denominators is at most m + 1 (m >= 1).  The
    sweep multiplies a denominator by n+1 or by a numerator, never more.
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
    whole int64 arrays.  Each degree e is one (m, cell) grid over all jet
    orders at once, in blocks of at most SWEEP_BLOCK cells: the cells are
    the divisor degrees D (canonical) or only the minor pairs
    (D_alpha, D_beta) in row-major order (terminal).  The total cell count
    is checked against the budget, and the largest product against int64,
    before any grid is built.  Jet orders start at m = 1: the theorem
    covers no other.

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
    return _sweep(mode, d, g, (e_lo, e_hi), (m_lo, m_hi), n_plus_1)


def _sweep(mode: str, d: int, g: int, e_span: tuple[int, int],
           m_span: tuple[int, int], n_plus_1: int) -> Certificate:
    """The sweep of certify, on spans it has checked.

    It takes any jet orders, so that tests can reach the precondition
    failures: sweeps of m >= 1 above the threshold have shown none.
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
            _count_pair_cases(case_counts, flags, d, g, e, Ds, minor)
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
                                     **_cell(cells, c)})
                for c in np.flatnonzero(bad_ineq[r])[:cap]:
                    failures.append({"kind": "inequality", "e": e, "m": m,
                                     **_cell(cells, c),
                                     "bound": f"{num2[r, c]}/{den2[r, c]}"})
            # exact test first: few grids of a sweep beat the running best
            if (ok & (num2 * best_den > best_num * den2)).any():
                r, c = divmod(_argmax_ratio(num2.ravel(), den2.ravel(), ok.ravel()),
                              num2.shape[1])
                best_num, best_den = int(num2[r, c]), int(den2[r, c])
                witness = {"e": e, "m": int(ms[r, 0]), **_cell(cells, c)}
            if m0 == m_lo:
                agreement &= (
                    _check_single_pipeline(d, g, e, m_lo, Ds, num2[0], den2[0])
                    if mode == "canonical" else
                    _check_pair_pipeline(d, g, e, m_lo, Ds, minor, qa[0], qb[0]))

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


def _cell(cells: dict, c) -> dict:
    return {key: int(col[c]) for key, col in cells.items()}


def _argmax_ratio(num: np.ndarray, den: np.ndarray, ok: np.ndarray) -> int:
    ratios = np.where(ok & (den > 0), num / np.maximum(den, 1), -np.inf)
    near = np.nonzero(ratios >= ratios.max() * (1 - 1e-12))[0]
    best = near[0]
    for i in near[1:]:
        if num[i] * den[best] > num[best] * den[i]:
            best = i
    return int(best)


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


def _check_pair_pipeline(d, g, e, m, Ds, minor, qa, qb) -> bool:
    """_pair_gain against _pair_gain_display and the doubled one-sided
    gains of the sweep, whose max at (i, j) is 2M, on an 8 x 8 sample of
    cells."""
    f2 = int(2 * genus_slack(g))
    degrees, qa, qb = Ds.tolist(), qa.tolist(), qb.tolist()
    step = max(1, len(degrees) // 8)
    for i in range(0, len(degrees), step):
        for j in range(0, len(degrees), step):
            if not minor[i, j]:
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


def _count_pair_cases(case_counts, flags, d, g, e, Ds, minor):
    """Tag every minor pair (D_alpha, D_beta) with its case of the pair
    analysis and add the tag counts to case_counts.

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
