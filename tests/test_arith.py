import itertools
import random

import mpmath
import pytest

from jetsums.arith import (
    Cyclo,
    check_prime,
    compare_abs_power,
    magnitude,
)
from oracles import Jet, psi_m


def test_prime_check():
    check_prime(7)
    with pytest.raises(ValueError):
        check_prime(9)


def test_psi_at_zero():
    assert psi_m(Jet.zero(3, 1)) == Cyclo.integer(3, 1)


def test_psi_exponents_sum_mod_p():
    assert psi_m(Jet(3, (1, 2))) == Cyclo.integer(3, 1)  # zeta^3 = 1


def test_psi_product_formula():
    assert psi_m(Jet(5, (2, 0, 1))) == Cyclo.root(5, 3)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2), (5, 1)])
def test_psi_multiplicative(p, m):
    jets = [Jet(p, c) for c in itertools.product(range(p), repeat=m + 1)]
    for u in jets:
        for v in jets:
            assert psi_m(u + v) == psi_m(u) * psi_m(v)


def test_character_orthogonality_over_jets():
    p, m = 3, 1
    jets = [Jet(p, c) for c in itertools.product(range(p), repeat=m + 1)]
    for a in jets:
        total = Cyclo.zero(p)
        for u in jets:
            total = total + psi_m(a * u)
        if a.is_zero():
            assert total == Cyclo.integer(p, p ** (m + 1))
        else:
            assert total.is_zero()


def test_jet_truncation():
    u = Jet(3, (1, 1))  # 1 + t
    assert (u * u).coeffs == (1, 2)  # t^2 truncated


def test_root_relation_and_canonical():
    z = Cyclo.root(3, 0) + Cyclo.root(3, 1) + Cyclo.root(3, 2)
    assert z.is_zero()
    v = Cyclo(5, (4, 1, 0, 2, 3))
    assert Cyclo(5, v.canonical()).canonical() == v.canonical()
    assert v == v + Cyclo(5, (2, 2, 2, 2, 2))  # constant vectors vanish


def test_accumulate():
    acc = Cyclo.zero(3) + Cyclo.root(3, 1) * 3
    assert acc == Cyclo(3, (0, 3, 0))
    acc = Cyclo.root(5, 2) * 2 + Cyclo.root(5, 2) * -2
    assert acc.is_zero()


def test_magnitude_zero_and_integer():
    iv = magnitude(Cyclo.zero(3))
    assert iv.lo == iv.hi == 0.0
    iv = magnitude(Cyclo.integer(7, 9))
    assert iv.contains(9.0) and iv.width < 2**-40


def test_magnitude_unit_sum():
    # |1 + zeta_3| = 1 exactly
    iv = magnitude(Cyclo.root(3, 0) + Cyclo.root(3, 1))
    assert iv.contains(1.0) and iv.width < 1e-12


def test_magnitude_contains_high_precision_value():
    rng = random.Random(11)
    for p in (3, 5, 7):
        for _ in range(10):
            coeffs = [0] * p
            for j in rng.sample(range(p), 3):
                coeffs[j] = rng.randrange(-9, 10)
            v = Cyclo(p, coeffs)
            iv = magnitude(v, 64)
            with mpmath.workprec(300):
                exact = abs(
                    mpmath.fsum(
                        c * mpmath.e ** (2j * mpmath.pi * k / p)
                        for k, c in enumerate(coeffs)
                    )
                )
            assert iv.lo <= float(exact) + 1e-15
            assert float(exact) <= iv.hi + 1e-15


def test_magnitude_precision_floor():
    with pytest.raises(ValueError):
        magnitude(Cyclo.zero(3), 16)


def test_compare_abs_power():
    v = Cyclo.integer(3, 4)
    assert compare_abs_power(v, 2, 16)[0] == "le"
    assert compare_abs_power(v, 2, 15)[0] == "gt"
    v = Cyclo.root(5, 1) + Cyclo.root(5, 4)  # 2cos(2pi/5) ~ 0.618, irrational
    verdict, ratio = compare_abs_power(v, 2, 1)
    assert verdict == "le" and 0 < ratio < 1
    w = Cyclo.root(5, 0) + Cyclo.root(5, 1)  # |1 + zeta_5| ~ 1.618
    verdict, ratio = compare_abs_power(w, 2, 1)
    assert verdict == "gt" and ratio > 1
