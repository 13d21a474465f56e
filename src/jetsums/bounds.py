"""Exact rational certification of the minor-arc bound analysis.

Everything here is closed-form arithmetic over Fraction: the shrink
parameter s, the single and pair bound ratios that the variable count n+1
must exceed, the degree thresholds with their calibration identities, and
finite sweep certificates over (e, m, D) grids.

Two transcription pipelines are kept deliberately: compact closed forms,
and a literal rendering of the displayed case expressions; certificates
assert their exact agreement at every grid point.
"""

from __future__ import annotations

import json
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

    Case-split maximum plus one; floors are exact on rationals.
    """
    if D < 0:
        raise ValueError("divisor degree must be >= 0")
    t1 = math.floor(Fraction(D - e + 2 * g - 2, d - 1))
    t2 = math.floor(e - Fraction(D, d - 1))
    base = max(t1, t2)
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


def single_bound(d: int, g: int, e: int, m: int, D: int) -> PointCheck:
    """Ratio the variable count must exceed for one minor divisor degree.

    Requires e - s >= 2g - 1 and a positive denominator; failures are
    reported, not raised.
    """
    f = genus_slack(g)
    s = shrink_exponent(d, g, e, D)
    mp = _mprime(m)
    notes = []
    if e - s < 2 * g - 1:
        notes.append("e - s < 2g - 1")
    den = (e - s - g + 1) * ((m - mp) // (d - 1) + 1) - (m - mp + 1) * f
    if den <= 0:
        notes.append("nonpositive denominator")
    if notes:
        return PointCheck(None, False, tuple(notes))
    num = 2 ** (d - 2) * (2 * D + m * (d * e + 1 - g))
    return PointCheck(Fraction(num) / den, True)


def single_bound_display(d: int, g: int, e: int, m: int, D: int) -> PointCheck:
    """Second pipeline: the same ratio assembled from the estimate display
    with the explicit section-count term."""
    f = genus_slack(g)
    s = shrink_exponent(d, g, e, D)
    mp = _mprime(m)
    if e - s < 2 * g - 1:
        return PointCheck(None, False, ("e - s < 2g - 1",))
    h0 = e - s - g + 1  # degree e-s sections, nonspecial range
    drop = (m - mp + 1) * ((d - 1) * (s - (e - g + 1)) + f) + h0 * (
        (m - mp + 1) * (d - 1) - ((m - mp) // (d - 1) + 1)
    )
    if drop >= 0:
        return PointCheck(None, False, ("nonpositive denominator",))
    num = 2 ** (d - 2) * (2 * D + m * (d * e + 1 - g))
    return PointCheck(Fraction(num) / (-drop), True)


def pair_gain(d: int, g: int, e: int, m: int, Da: int, Db: int):
    """(gain M, case tag) for a pair of divisor degrees; the case records
    which of the two one-sided estimates is available."""
    f = genus_slack(g)
    sa = shrink_exponent(d, g, e, Da)
    sb = shrink_exponent(d, g, e, Db)
    mp = _mprime(m)
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


def pair_bound(d: int, g: int, e: int, m: int, Da: int, Db: int) -> PointCheck:
    """Ratio the variable count must exceed for a minor pair of degrees."""
    f = genus_slack(g)
    M, case = pair_gain(d, g, e, m, Da, Db)
    if M is None:
        return PointCheck(None, False, ("neither side nonspecial",))
    den = M - (m + 1) * f
    if den <= 0:
        return PointCheck(None, False, (f"nonpositive denominator ({case})",))
    num = 2 ** (d - 1) * (Da + Db + m * (d * e - g + 1))
    return PointCheck(Fraction(num) / den, True, (case,))


def pair_gain_display(d: int, g: int, e: int, m: int, Da: int, Db: int):
    """Second pipeline for the gain: min of the two one-sided exponent drops
    recovered through the ceil/floor identity."""
    f = genus_slack(g)
    sa = shrink_exponent(d, g, e, Da)
    sb = shrink_exponent(d, g, e, Db)
    mp = _mprime(m)
    ca = e - sa >= 2 * g - 1
    cb = e - sb >= 2 * g - 1
    qa = (m - mp + 1) * f - (e - sa - g + 1) * ((m - mp) // (d - 1) + 1)
    qb = (m + 1) * f - (e - sb - g + 1) * (m // (d - 1) + 1)
    opts = []
    if ca:
        opts.append(qa)
    if cb:
        opts.append(qb)
    if not opts:
        return None
    return (m + 1) * f - min(opts)


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


def default_e_span(mode: str, d: int, g: int, width: int = 100) -> tuple[int, int]:
    e0 = degree_floor(mode, d, g)
    lo = math.floor(e0) + 1
    return lo, lo + width - 1


def _dominant_term_split(d: int, g: int, e: int, D: int) -> bool:
    """Exact statement of which max term wins in the shrink parameter."""
    first = Fraction(D - e + 2 * g - 2, d - 1)
    second = e - Fraction(D, d - 1)
    if D > Fraction(d * e, 2) - g + 1:
        return first >= second
    return second >= first


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
    """Cells the sweep allocates: |Ds| (singles) or |Ds|^2 (pairs) per
    degree, once per jet order."""
    cells = 0
    for e in range(e_span[0], e_span[1] + 1):
        dmax = d * e // 2 + 1
        if mode == "canonical":
            cells += max(0, dmax - max(0, e - 2 * g + 2) + 1)
        else:
            cells += (dmax + 1) ** 2
    return cells * (m_span[1] - m_span[0] + 1)


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
    whole integer arrays over the divisor degrees of one (e, m).  The total
    cell count is checked against the budget before any grid is built.

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
    e0 = degree_floor(mode, d, g)
    if Fraction(e_lo) <= e0:
        raise ValueError(f"degree span must start above the threshold {e0}")
    check_budget(_grid_cells(mode, d, g, e_span, m_span), budget,
                 "certificate grid")
    f2 = int(2 * genus_slack(g))
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
            svals = _shrink_exponents(d, g, e, Ds)
            for D in Ds[~_dominant_term_splits(d, g, e, Ds)]:
                failures.append({"kind": "dominant-term", "e": e, "D": int(D)})
            for m in range(m_lo, m_hi + 1):
                mp = _mprime(m)
                den2 = 2 * (e - svals - g + 1) * ((m - mp) // (d - 1) + 1) - (
                    m - mp + 1
                ) * f2
                num2 = 2 * 2 ** (d - 2) * (2 * Ds + m * (de + 1 - g))
                bad_pre = (e - svals < 2 * g - 1) | (den2 <= 0)
                bad_ineq = ~bad_pre & (num2 >= n_plus_1 * den2)
                total_points += Ds.size
                skipped += int(bad_pre.sum())
                for i in np.nonzero(bad_pre)[0]:
                    failures.append(
                        {"kind": "precondition", "e": e, "m": m, "D": int(Ds[i])}
                    )
                for i in np.nonzero(bad_ineq)[0]:
                    failures.append(
                        {"kind": "inequality", "e": e, "m": m, "D": int(Ds[i]),
                         "bound": f"{num2[i]}/{den2[i]}"}
                    )
                ok = ~bad_pre
                # exact test first: few grids of a sweep beat the running best
                if (ok & (num2 * best_den > best_num * den2)).any():
                    i = _argmax_ratio(num2, den2, ok)
                    best_num, best_den = int(num2[i]), int(den2[i])
                    witness = {"e": e, "m": m, "D": int(Ds[i])}
                if m == m_lo:
                    agreement &= _check_single_pipeline(d, g, e, m, Ds, num2, den2)
        else:
            Ds = np.arange(0, dmax + 1, dtype=np.int64)
            svals = _shrink_exponents(d, g, e, Ds)
            ca = e - svals >= 2 * g - 1
            minor = np.maximum(Ds[:, None], Ds[None, :]) >= e - 2 * g + 2
            _count_pair_cases(case_counts, flags, d, g, e, Ds, minor)
            # the masks do not depend on the jet order m
            neither = ~(ca[:, None] | ca[None, :])
            valid = minor & ~neither
            uncovered = minor & neither
            n_minor = int(minor.sum())
            scale = 2 * 2 ** (d - 1)
            for m in range(m_lo, m_hi + 1):
                mp = _mprime(m)
                qa2 = mp * f2 + 2 * (e - svals - g + 1) * (
                    -((m - mp + 1) // -(d - 1))
                )
                qb2 = 2 * (e - svals - g + 1) * (-((m + 1) // -(d - 1)))
                # the larger gain of the sides with e - s >= 2g - 1: a side
                # without one enters at the least gain, so it never wins.
                # Where neither side has one, M2 is never read: those cells
                # are precondition failures.
                low = min(qa2.min(), qb2.min())
                M2 = np.maximum(np.where(ca, qa2, low)[:, None],
                                np.where(ca, qb2, low)[None, :])
                den2 = M2 - (m + 1) * f2
                # 2^d (Da + Db + m(de - g + 1)) as one broadcast sum
                num2 = (scale * Ds)[:, None] + (
                    scale * (Ds + m * (de - g + 1)))[None, :]
                ok = valid & (den2 > 0)
                bad_pre = uncovered | (minor & (den2 <= 0))
                bad_ineq = ok & (num2 >= n_plus_1 * den2)
                total_points += n_minor
                skipped += int(bad_pre.sum())
                if bad_pre.any():
                    ii = np.argwhere(bad_pre)[:3]
                    for i, j in ii:
                        failures.append(
                            {"kind": "precondition", "e": e, "m": m,
                             "D_alpha": int(Ds[i]), "D_beta": int(Ds[j])}
                        )
                if bad_ineq.any():
                    ii = np.argwhere(bad_ineq)[:3]
                    for i, j in ii:
                        failures.append(
                            {"kind": "inequality", "e": e, "m": m,
                             "D_alpha": int(Ds[i]), "D_beta": int(Ds[j]),
                             "bound": f"{num2[i, j]}/{den2[i, j]}"}
                        )
                if (ok & (num2 * best_den > best_num * den2)).any():
                    i, j = np.unravel_index(
                        _argmax_ratio(num2.ravel(), den2.ravel(), ok.ravel()),
                        ok.shape,
                    )
                    best_num, best_den = int(num2[i, j]), int(den2[i, j])
                    witness = {
                        "e": e, "m": m, "D_alpha": int(Ds[i]),
                        "D_beta": int(Ds[j]),
                    }
                if m == m_lo:
                    agreement &= _check_pair_pipeline(
                        d, g, e, m, Ds, minor, M2, f2
                    )

    monotonicity = check_display_monotonicity(mode, d, g, (e_lo, e_hi))
    mono_fail = [entry for entry in monotonicity if not entry["ok"]]
    verdict = "pass" if not failures and agreement and not mono_fail else "fail"
    frac = Fraction(best_num, best_den) if witness else None
    return Certificate(
        mode=mode, d=d, g=g, n_plus_1=n_plus_1,
        e_span=(e_lo, e_hi), m_span=(m_lo, m_hi),
        degree_floor=str(e0),
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


def _argmax_ratio(num: np.ndarray, den: np.ndarray, ok: np.ndarray) -> int:
    ratios = np.where(ok & (den > 0), num / np.maximum(den, 1), -np.inf)
    near = np.nonzero(ratios >= ratios.max() * (1 - 1e-12))[0]
    best = near[0]
    for i in near[1:]:
        if num[i] * den[best] > num[best] * den[i]:
            best = i
    return int(best)


def _check_single_pipeline(d, g, e, m, Ds, num2, den2) -> bool:
    for idx, D in enumerate(Ds):
        direct = single_bound(d, g, e, m, int(D))
        display = single_bound_display(d, g, e, m, int(D))
        if direct.ok_preconditions != display.ok_preconditions:
            return False
        if direct.ok_preconditions:
            if direct.value != display.value:
                return False
            if direct.value != Fraction(int(num2[idx]), int(den2[idx])):
                return False
    return True


def _check_pair_pipeline(d, g, e, m, Ds, minor, M2, f2) -> bool:
    step = max(1, Ds.size // 8)
    for i in range(0, Ds.size, step):
        for j in range(0, Ds.size, step):
            if not minor[i, j]:
                continue
            M, case = pair_gain(d, g, e, m, int(Ds[i]), int(Ds[j]))
            disp = pair_gain_display(d, g, e, m, int(Ds[i]), int(Ds[j]))
            if M is None:
                if disp is not None:
                    return False
                continue
            if disp != M or 2 * M != M2[i, j]:
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
    row-major order, as _count_pair_cases_slow walks the grid.
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


def _count_pair_cases_slow(case_counts, flags, d, g, e, Ds, minor):
    """Scalar oracle for _count_pair_cases: a walk over Fractions."""
    de = d * e
    half = Fraction(de, 2)
    for i, Da in enumerate(Ds):
        for j, Db in enumerate(Ds):
            if not minor[i, j]:
                continue
            if d == 2:
                if e + 2 - 2 * g <= Db <= e + 1:
                    tag = "d2-I"
                elif 2 * g <= Db <= e + 1 - 2 * g:
                    tag = "d2-II"
                else:
                    tag = "d2-III"
            elif e - 2 * g + 2 <= Db <= half - g + 1:
                if Db >= Fraction(int(Da), 2):
                    tag = "I.1"
                elif Da <= half - g + 1:
                    tag = "I.2.1"
                else:
                    tag = "I.2.2"
            elif half - g + 1 < Db <= half + 1:
                tag = "II"
            else:
                if Da > half - g + 1:
                    tag = "III.1"
                elif Fraction(int(Da), 2) > Db:
                    tag = "III.2.1"
                else:
                    tag = "III.2.2"
                    # the derived lower bound D_beta >= e/2 - g + 1 must
                    # follow from D_beta >= D_alpha / 2 here
                    if Db < Fraction(e, 2) - g + 1:
                        flags["derived_pair_bound_disagreements"] += 1
            case_counts[tag] = case_counts.get(tag, 0) + 1


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
    evaluated-at-threshold inequalities behind the sweeps."""
    items: list[dict] = []

    def record(name, ok, detail=""):
        items.append({"name": name, "ok": bool(ok), "detail": detail})

    # (1) degree-2 exactness: the top-degree bound collapses to exactly 7
    ok = all(
        2 * Fraction(56 * g + 21 * genus_slack(g) - 7)
        / (16 * g + 6 * genus_slack(g) - 2)
        == 7
        for g in range(1, g_max + 1)
    )
    record("degree2-canonical-exact-seven", ok, f"g in [1,{g_max}]")

    # (2) the case-I bound at the degree threshold is exactly one above the
    # variable bound, for every d and genus
    bad = []
    for d in range(3, d_max + 1):
        for g in range(1, g_max + 1):
            f = genus_slack(g)
            e0 = degree_floor("canonical", d, g)
            rain = (
                2 ** (d - 1) * (d - 1)
                * (e0 - 2 * g + 2 + (d - 1) * (d * e0 + 1 - g))
                / (e0 - 2 * g + 2 - g * (d - 1) - (d - 1) ** 2 * f)
            )
            target = 2 ** (d - 1) * (d - 1) * (d * d - d + 1) + 1
            if rain != target:
                bad.append((d, g))
    record("canonical-threshold-calibration", not bad, f"first failures: {bad[:3]}")

    # (3) the case-II bound at the threshold stays within the variable bound
    bad = []
    for d in range(3, d_max + 1):
        for g in range(1, g_max + 1):
            f = genus_slack(g)
            e0 = degree_floor("canonical", d, g)
            h = (
                2 ** (d - 2) * (d - 1)
                * (d * e0 + 2 + 2 * (d - 1) * (d * e0 + 1 - g))
                / (d * e0 / 2 - 2 * g + 1 - g * (d - 1) - f * (d - 1) ** 2)
            )
            if not h <= 2 ** (d - 1) * (d - 1) * (d * d - d + 1):
                bad.append((d, g))
    record("canonical-caseII-at-threshold", not bad, f"first failures: {bad[:3]}")

    # (4) terminal pair-case bounds evaluated at the terminal threshold
    target_small = lambda d: 2 ** (d - 1) * (d - 1) * (d * d - 2 * d + 3) + 1  # noqa: E731
    target_big = lambda d: 2 ** (d - 2) * (d - 1) * (4 * d * d - 4 * d + 3) + 1  # noqa: E731
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
                fn = _terminal_display_forms(d, g)[name]
                val = fn(e0)
                tgt = target_small(d) if strictness == "lt-small" else target_big(d)
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
            f = genus_slack(g)
            e0 = 29 * g + 14 * f - 5
            den = e0 - 3 * g + 1 - f
            if g_probe == "I":
                ok = Fraction(4 * e0 + 3 - g) / den < 12
            elif g_probe == "II-exact":
                ok = Fraction(11 * e0 + 2 * f - 7 * g + 7) / den == 12
            elif g_probe == "II-above":
                e1 = e0 + 1
                ok = Fraction(11 * e1 + 2 * f - 7 * g + 7) / (e1 - 3 * g + 1 - f) < 12
            else:
                ok = 2 * Fraction(5 * e0 + 2) / den < 12
            if not ok:
                bad.append(g)
        record(f"degree2-terminal-{g_probe}", not bad, f"failures: {bad[:5]}")

    return items


def calibration_passed(items: list[dict]) -> bool:
    return all(item["ok"] for item in items)


def certificate_to_json_str(cert: Certificate, timestamp: str | None = None) -> str:
    payload = cert.to_json()
    if timestamp is not None:
        payload["timestamp"] = timestamp
    return json.dumps(payload, indent=2, sort_keys=False)
