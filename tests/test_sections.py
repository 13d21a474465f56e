import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from jetsums.expsums import divisor_table, dual_from_code
from jetsums.sections import (
    MEMO,
    BudgetExceeded,
    DivisorP1,
    DualFunctional,
    Memo,
    minimal_divisor_table,
)
from oracles import (
    JetPoly,
    apply_functional,
    count_divisors,
    count_minimizers,
    enumerate_divisors,
    enumerate_duals,
    enumerate_sections,
    factors_through,
    globally_generates,
    minimal_divisor,
    mul_sections,
    vanishing_basis,
    vanishing_dimension,
)


def sec(p, r, ints, m=0):
    return JetPoly.from_ints(p, r, m, ints)


def test_mul_identity_and_plain():
    g = sec(3, 1, (2, 1))
    one = sec(3, 0, (1,))
    assert mul_sections(one, g).layers() == g.layers()
    f = sec(3, 1, (0, 1))   # x
    h = sec(3, 1, (1, 1))   # x + 1
    assert mul_sections(f, h).layer(0) == (0, 1, 1)  # x^2 + x


def test_mul_truncates_jets():
    f = JetPoly.from_layers(3, 0, 1, [[1], [1]])  # 1 + t
    assert mul_sections(f, f).layers() == [(1,), (2,)]


def test_vanishing_basis_examples():
    z = DivisorP1(3, (0, 1), 0)  # (x)
    assert vanishing_basis(3, 2, z) == [(0, 1, 0), (0, 0, 1)]
    z_inf = DivisorP1(3, (1,), 1)
    assert vanishing_basis(3, 2, z_inf) == [(1, 0, 0), (0, 1, 0)]
    z_big = DivisorP1(3, (1, 0, 1), 1)  # deg 3 > r = 2
    assert vanishing_basis(3, 2, z_big) == []


def test_vanishing_dimension_matches_basis():
    p = 3
    for r in range(4):
        for b in range(r + 2):
            for z in enumerate_divisors(p, b):
                basis = vanishing_basis(p, r, z)
                assert len(basis) == vanishing_dimension(r, z)


def test_factors_through_examples():
    p, r = 3, 2
    z = DivisorP1(p, (0, 1), 0)
    zero = DualFunctional.zero(p, r, 0)
    at0 = DualFunctional(p, r, 0, ((1, 0, 0),))
    top = DualFunctional(p, r, 0, ((0, 0, 1),))
    for div in enumerate_divisors(p, 1):
        assert factors_through(zero, div)
    assert factors_through(at0, z)
    assert not factors_through(top, z)


def test_factoring_kills_multiples():
    # whenever alpha factors through Z, it kills h times anything that fits
    p, r = 3, 4
    z = DivisorP1(p, (1, 1), 0)  # (x + 1)
    for flat in itertools.product(range(p), repeat=r + 1):
        alpha = DualFunctional(p, r, 0, (flat,))
        if not factors_through(alpha, z):
            continue
        for q in itertools.product(range(p), repeat=r - z.degree + 1):
            prod = mul_sections(sec(p, 1, z.h), sec(p, r - 1, q))
            assert apply_functional(alpha, prod).is_zero()


def test_minimal_divisor_zero_functional():
    z, deg, unique = minimal_divisor(DualFunctional.zero(3, 2, 0))
    assert z.is_zero() and deg == 0 and unique


def test_minimal_divisor_evaluation_functional():
    alpha = DualFunctional(3, 2, 0, ((1, 0, 0),))  # f -> f(0)
    z, deg, unique = minimal_divisor(alpha)
    assert deg == 1 and z.h == (0, 1) and z.k_inf == 0 and unique


def test_dirichlet_bound_exhaustive():
    # every functional on P_de factors through degree <= de/2 + 1
    p = 3
    for de in (2, 3, 4):
        for flat in itertools.product(range(p), repeat=de + 1):
            alpha = DualFunctional(p, de, 0, (flat,))
            _, deg, _ = minimal_divisor(alpha)
            assert 2 * deg <= de + 2


def test_uniqueness_in_forcing_range():
    # distinct minimizers of degree z need 2z > de + 1: below that, unique
    p, de = 3, 4
    for flat in itertools.product(range(p), repeat=de + 1):
        alpha = DualFunctional(p, de, 0, (flat,))
        _, deg, unique = minimal_divisor(alpha)
        if 2 * deg <= de + 1:
            assert unique


def test_uniqueness_on_full_major_range_degree_three():
    # with d = 3, e = 1 the whole major range sits inside the forcing bound
    p, de, e = 3, 3, 1
    for flat in itertools.product(range(p), repeat=de + 1):
        alpha = DualFunctional(p, de, 0, (flat,))
        _, deg, unique = minimal_divisor(alpha)
        if deg <= e + 1:
            assert unique


def test_boundary_multiplicity_counterexample():
    # the coefficient-of-x^2 functional on P_4 factors minimally through
    # several coprime degree-3 divisors; pinned so the grouped identities
    # keep counting it once per minimizer
    alpha = DualFunctional(3, 4, 0, ((0, 0, 1, 0, 0),))
    z, deg, unique = minimal_divisor(alpha)
    assert deg == 3 and not unique
    assert count_minimizers(alpha, 3) == 4
    for h in ((0, 0, 0, 1), (1, 0, 0, 1)):
        assert factors_through(alpha, DivisorP1(3, h, 0))


def test_globally_generates():
    one_first = (sec(3, 0, (1,)), sec(3, 0, (0,)), sec(3, 0, (2,)))
    assert globally_generates(one_first)
    common_zero = (sec(3, 2, (0, 1, 0)), sec(3, 2, (0, 0, 1)), sec(3, 2, (0, 0, 0)))
    assert not globally_generates(common_zero)
    jets = (
        JetPoly.from_layers(3, 1, 1, [[0, 1], [0, 0]]),
        JetPoly.from_layers(3, 1, 1, [[1, 1], [0, 0]]),
        JetPoly.from_layers(3, 1, 1, [[1, 0], [0, 1]]),
    )
    assert globally_generates(jets)
    # all top coefficients zero: common zero at infinity
    at_inf = (sec(3, 1, (1, 0)), sec(3, 1, (2, 0)), sec(3, 1, (1, 0)))
    assert not globally_generates(at_inf)


def test_enumerations():
    assert sum(1 for _ in enumerate_duals(3, 1, 0)) == 9
    divisors = list(enumerate_divisors(3, 1))
    assert [(z.h, z.k_inf) for z in divisors] == [
        ((0, 1), 0), ((1, 1), 0), ((2, 1), 0), ((1,), 1),
    ]
    divs2 = list(enumerate_divisors(2, 2))
    assert [(z.h, z.k_inf) for z in divs2] == [
        ((0, 0, 1), 0), ((0, 1, 1), 0), ((1, 0, 1), 0), ((1, 1, 1), 0),
        ((0, 1), 1), ((1, 1), 1), ((1,), 2),
    ]
    for b in range(4):
        assert sum(1 for _ in enumerate_divisors(3, b)) == count_divisors(3, b)
    assert sum(1 for _ in enumerate_sections(3, 1, 1)) == 81


def test_enumeration_budget():
    with pytest.raises(BudgetExceeded) as err:
        list(enumerate_duals(3, 5, 2, budget=100))
    assert err.value.needed == 3**18


def test_dual_action_convolution():
    p, r, m = 3, 1, 1
    alpha = DualFunctional(p, r, m, ((1, 2), (0, 1)))
    y = JetPoly.from_layers(p, r, m, [[1, 1], [2, 0]])
    # t^0: a0(y0) = 1*1 + 2*1 = 3 = 0; t^1: a0(y1) + a1(y0) = 2 + 1 = 3 = 0
    assert apply_functional(alpha, y).coeffs == (0, 0)


def scan_divisor_table(p, r, codes):
    """Per-functional divisor scan over the given codes: the oracle for the
    batched Hankel route of minimal_divisor_table."""
    degs, mult = [], []
    for code in codes:
        alpha = dual_from_code(p, r, 0, int(code))
        _, deg, unique = minimal_divisor(alpha)
        degs.append(deg)
        mult.append(1 if unique else count_minimizers(alpha, deg))
    return np.array(degs, dtype=np.int64), np.array(mult, dtype=np.int64)


EXHAUSTIVE = sorted(
    {(p, r) for p in (2, 3, 5, 7) for r in range(12)
     if p ** (r + 1) * count_divisors(p, r + 1) <= 2_500_000} | {(5, 4)}
)


@pytest.mark.parametrize("p,r", EXHAUSTIVE)
def test_divisor_table_matches_scan_exhaustive(p, r):
    degs, mult = minimal_divisor_table(p, r)
    want_degs, want_mult = scan_divisor_table(p, r, range(p ** (r + 1)))
    assert degs.dtype == mult.dtype == np.int64
    np.testing.assert_array_equal(degs, want_degs)
    np.testing.assert_array_equal(mult, want_mult)


@pytest.mark.parametrize("p,r", [(5, 5), (5, 6), (3, 8), (7, 5)])
def test_divisor_table_matches_scan_sample(p, r):
    tab = divisor_table(p, r)
    codes = random.Random(1000 * p + r).sample(range(p ** (r + 1)), 200)
    want_degs, want_mult = scan_divisor_table(p, r, codes)
    np.testing.assert_array_equal(tab.degree[codes], want_degs)
    np.testing.assert_array_equal(tab.multiplicity[codes], want_mult)
    # Dirichlet bound and forced uniqueness over the whole table
    assert int(tab.degree.max()) <= r // 2 + 1
    assert (tab.multiplicity[tab.degree <= tab.uniqueness_bound()] == 1).all()


@given(st.sampled_from([(2, 8), (3, 5), (5, 3), (7, 3), (3, 7), (5, 5)]),
       st.integers(min_value=0, max_value=10**9))
def test_divisor_table_matches_scan_property(pr, draw):
    p, r = pr
    tab = divisor_table(p, r)
    code = draw % p ** (r + 1)
    want_degs, want_mult = scan_divisor_table(p, r, [code])
    assert tab.degree[code] == want_degs[0]
    assert tab.multiplicity[code] == want_mult[0]


def test_divisor_table_budget():
    # start from an empty memo, so the first call below builds the table
    MEMO.clear()
    with pytest.raises(BudgetExceeded) as err:
        divisor_table(5, 6, budget=10**4)
    assert err.value.needed == 5**7 * 714
    with pytest.raises(BudgetExceeded):
        divisor_table(5, 8)
    assert int(divisor_table(5, 6).degree.max()) == 4


def test_divisor_table_budget_does_not_depend_on_the_cache():
    divisor_table(3, 4)
    with pytest.raises(BudgetExceeded) as err:
        divisor_table(3, 4, budget=10**4)
    assert err.value.needed == 3**5 * 182


def test_memo_drops_the_least_recently_used_at_its_bound():
    memo, builds = Memo(), []

    def get(i):
        return memo.get(("route", i), lambda: builds.append(i) or -i)

    for i in range(Memo.SIZE):
        assert get(i) == -i
    assert get(0) == 0  # 0 is now the most recently used, 1 the least
    get(Memo.SIZE)
    assert builds == list(range(Memo.SIZE + 1))
    get(0)
    get(1)
    assert builds[-1] == 1 and builds.count(0) == 1
    assert (memo.hits["route"], memo.misses["route"]) == (2, Memo.SIZE + 2)
