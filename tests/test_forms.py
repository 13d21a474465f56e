import itertools
import random

import numpy as np
import pytest

from jetsums.forms import (
    _gradient_monomials,
    _is_irreducible,
    _reduction_table,
    _search_singular,
    conic_form,
    fermat_form,
    irreducible_poly,
    make_form,
    named_form,
    parse_form_file,
    smoothness_check,
)
from oracles import (
    Jet,
    JetPoly,
    difference_apply,
    eval_form,
    gradient,
    mul_sections,
    multilinear_psi_scalars,
    multilinear_psi_sections,
)


def sec(p, r, ints, m=0):
    return JetPoly.from_ints(p, r, m, ints)


def veronese(p, e=2, m=0):
    return (sec(p, e, (1, 0, 0), m), sec(p, e, (0, 1, 0), m), sec(p, e, (0, 0, 1), m))


def test_eval_zero():
    F = conic_form(3)
    xs = tuple(JetPoly.zero(3, 2, 0) for _ in range(3))
    assert eval_form(F, xs).is_zero()


def test_eval_veronese_relation():
    F = conic_form(3)
    assert eval_form(F, veronese(3)).is_zero()


def test_eval_jet_perturbation():
    # x = (1, x, x^2 + t): value is t exactly
    F = conic_form(3)
    x2t = JetPoly.from_layers(3, 2, 1, [[0, 0, 1], [1, 0, 0]])
    xs = (sec(3, 2, (1, 0, 0), 1), sec(3, 2, (0, 1, 0), 1), x2t)
    val = eval_form(F, xs)
    assert val.layer(0) == (0, 0, 0, 0, 0)
    assert val.layer(1) == (1, 0, 0, 0, 0)


def test_gradient_on_veronese():
    # partials live in P_{(d-1)e} = P_2 here
    F = conic_form(3)
    g = gradient(F, veronese(3))
    assert g[0].layer(0) == (0, 0, 1)       # x^2
    assert g[1].layer(0) == (0, (-2) % 3, 0)  # -2x
    assert g[2].layer(0) == (1, 0, 0)       # 1


def test_gradient_at_zero():
    F = fermat_form(5, 2, 3)
    xs = tuple(JetPoly.zero(5, 1, 0) for _ in range(3))
    assert all(g.is_zero() for g in gradient(F, xs))


def test_euler_identity():
    rng = random.Random(5)
    for F in (conic_form(5), fermat_form(7, 2, 3)):
        p = F.p
        for _ in range(5):
            xs = tuple(
                sec(p, 2, [rng.randrange(p) for _ in range(3)]) for _ in range(3)
            )
            lhs = None
            for j, g in enumerate(gradient(F, xs)):
                pad = mul_sections(xs[j], g)
                lhs = pad if lhs is None else lhs + pad
            rhs_val = eval_form(F, xs)
            rhs = JetPoly(
                p, lhs.r, 0,
                tuple(c * F.d for c in rhs_val.coeffs)
                + tuple(Jet.zero(p, 0) for _ in range(lhs.r - rhs_val.r)),
            )
            assert lhs == rhs


def test_multilinear_quadratic_is_gradient():
    # d = 2: Psi agrees with the gradient of the quadratic form
    F = conic_form(5)
    for y in itertools.product(range(5), repeat=3):
        psi = multilinear_psi_scalars(F, (y,))
        xs = tuple(sec(5, 0, (c,)) for c in y)
        grads = [g.layer(0)[0] for g in gradient(F, xs)]
        assert psi == grads


def test_multilinear_zero_argument():
    F = fermat_form(7, 2, 3)
    y = (1, 2, 3)
    zero = (0, 0, 0)
    assert multilinear_psi_scalars(F, (y, zero)) == [0, 0, 0]


def test_multilinear_diagonal_cubic():
    F = fermat_form(7, 2, 3)
    y = (1, 2, 3)
    z = (4, 5, 6)
    psi = multilinear_psi_scalars(F, (y, z))
    assert psi == [6 * a * b % 7 for a, b in zip(y, z)]


def test_multilinear_symmetric_in_arguments():
    F = fermat_form(5, 1, 3)
    rng = random.Random(2)
    for _ in range(10):
        y = tuple(rng.randrange(5) for _ in range(2))
        z = tuple(rng.randrange(5) for _ in range(2))
        assert multilinear_psi_scalars(F, (y, z)) == multilinear_psi_scalars(F, (z, y))


def test_difference_empty_and_linear():
    F = conic_form(3)
    xs = veronese(3)

    def G(t):
        return eval_form(F, t)

    assert difference_apply(G, [], xs) == G(xs)

    def lin(t):
        return t[0] + t[1] + t[2]

    y = veronese(3)
    zero = tuple(JetPoly.zero(3, 2, 0) for _ in range(3))
    assert difference_apply(lin, [y], zero) == lin(y)
    assert difference_apply(lin, [y], xs) == lin(y)  # constant in the base point


def _diff_identity_case(F, e, rng):
    """The exact differencing identity: subtracting the value at the zero
    tuple removes the terms that do not involve the last argument."""
    p, d = F.p, F.d
    n = F.n

    def rand_tuple():
        return tuple(
            sec(p, e, [rng.randrange(p) for _ in range(e + 1)]) for _ in range(n + 1)
        )

    z = rand_tuple()
    ys = [rand_tuple() for _ in range(d - 2)]
    last = rand_tuple()
    grads_at = lambda t: gradient(F, t)  # noqa: E731

    def G(t):
        out = None
        for j, g in enumerate(grads_at(t)):
            term = mul_sections(z[j], g)
            out = term if out is None else out + term
        return out

    zero = tuple(JetPoly.zero(p, e, 0) for _ in range(n + 1))
    lhs = difference_apply(G, ys, last) - difference_apply(G, ys, zero)
    psis = multilinear_psi_sections(F, tuple(ys) + (last,))
    rhs = None
    for j in range(n + 1):
        term = mul_sections(z[j], psis[j])
        rhs = term if rhs is None else rhs + term
    assert lhs == rhs


def test_differencing_identity_quadratic_and_cubic():
    rng = random.Random(9)
    for _ in range(5):
        _diff_identity_case(conic_form(5), 2, rng)
        _diff_identity_case(fermat_form(7, 2, 3), 1, rng)
        mixed = make_form(
            7, 1, 3, [((3, 0), 2), ((2, 1), 5), ((0, 3), 1)], name="mixed-cubic"
        )
        _diff_identity_case(mixed, 1, rng)


def test_full_differencing_is_constant_in_base_point():
    # after d-1 differences nothing depends on the evaluation point
    rng = random.Random(4)
    F = fermat_form(7, 1, 3)
    p, e = 7, 1

    def rand_tuple():
        return tuple(sec(p, e, [rng.randrange(p) for _ in range(e + 1)]) for _ in range(2))

    z = rand_tuple()

    def G(t):
        out = None
        for j, g in enumerate(gradient(F, t)):
            term = mul_sections(z[j], g)
            out = term if out is None else out + term
        return out

    ys = [rand_tuple(), rand_tuple()]
    v1 = difference_apply(G, ys, rand_tuple())
    v2 = difference_apply(G, ys, rand_tuple())
    assert v1 == v2


def test_sparse_round_trip():
    # symmetrized tensor re-expansion matches the monomial evaluation
    p, n, d = 7, 2, 3
    F = make_form(p, n, d, [((2, 1, 0), 3), ((1, 1, 1), 4), ((0, 0, 3), 6)])
    for pt in itertools.product(range(p), repeat=n + 1):
        direct = (
            3 * pt[0] ** 2 * pt[1] + 4 * pt[0] * pt[1] * pt[2] + 6 * pt[2] ** 3
        ) % p
        via_tensor = 0
        for idx in itertools.product(range(n + 1), repeat=d):
            a = F.tensor_entry(idx)
            if a:
                prod = 1
                for j in idx:
                    prod = prod * pt[j] % p
                via_tensor += a * prod
        assert via_tensor % p == direct


def test_requires_large_characteristic():
    with pytest.raises(ValueError):
        make_form(3, 1, 3, [((3, 0), 1)])


def test_smoothness_witness_for_squared_coordinate():
    F = make_form(5, 1, 2, [((2, 0), 1)])  # x0^2 on two variables
    rep = smoothness_check(F)
    assert rep.singular_witness is not None


def test_smoothness_conic_certified():
    rep = smoothness_check(conic_form(3))
    assert rep.certified and rep.singular_witness is None
    assert rep.verified_up_to == 1  # Bezout cap (d-1)^n = 1


def test_smoothness_fermat_partial():
    rep = smoothness_check(fermat_form(5, 2, 3), k_max=2)
    assert rep.singular_witness is None and not rep.certified


@pytest.mark.slow
def test_smoothness_fermat_full_cap():
    rep = smoothness_check(fermat_form(5, 2, 3))
    assert rep.certified and rep.singular_witness is None
    assert rep.verified_up_to == 4


def test_irreducible_poly_choice():
    assert irreducible_poly(3, 1) == (0, 1)
    c0, c1, one = irreducible_poly(3, 2)
    assert one == 1 and (c1 * c1 - 4 * c0) % 3 == 2  # non-square discriminant


# ---------------------------------------------------------------------------
# the smoothness search against independent oracles


def _random_forms(seed, per_shape=4):
    """Seeded random forms, d in {2, 3}, n in {1, 2}, p in {3, 5, 7}; about
    a third of the coefficients are zero, so singular forms occur too."""
    rng = random.Random(seed)
    for p in (3, 5, 7):
        for n in (1, 2):
            for d in (2, 3):
                if p <= d:
                    continue
                exps = [c for c in itertools.product(range(d + 1), repeat=n + 1) if sum(c) == d]
                for _ in range(per_shape):
                    mons = [(ex, rng.randrange(p) if rng.random() < 0.7 else 0) for ex in exps]
                    yield make_form(p, n, d, mons)


def _poly_product(*factors):
    """Product of polynomials given as {exponent vector: coefficient}."""
    out = {(0, 0, 0): 1}
    for f in factors:
        nxt = {}
        for ea, ca in out.items():
            for eb, cb in f.items():
                ex = tuple(a + b for a, b in zip(ea, eb))
                nxt[ex] = nxt.get(ex, 0) + ca * cb
        out = nxt
    return list(out.items())


def _line_times_conic(seed, count=6):
    """L Q on P^2 for seeded random linear L and quadratic Q: singular
    where L meets Q, sometimes only in a conjugate pair over F_{p^2}."""
    rng = random.Random(seed)
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    quads = [tuple(a + b for a, b in zip(u, v)) for u, v in
             itertools.combinations_with_replacement(units, 2)]
    for p in (5, 7):
        for _ in range(count):
            L = {u: rng.randrange(p) for u in units}
            Q = {u: rng.randrange(p) for u in quads}
            yield make_form(p, 2, 3, _poly_product(L, Q))


def _scalar_search(F):
    """First point of P^n(F_p) in scan order (lead coordinate 1, the next
    coordinate the fastest digit) where every oracles.gradient vanishes."""
    p, n = F.p, F.n
    for lead in range(n + 1):
        for code in range(p ** (n - lead)):
            x = [0] * (n + 1)
            x[lead] = 1
            for v in range(lead + 1, n + 1):
                x[v], code = code % p, code // p
            grads = gradient(F, tuple(sec(p, 0, (c,)) for c in x))
            if all(g.is_zero() for g in grads):
                return tuple((c,) for c in x)
    return None


def _ext_mul_oracle(a, b, red, p, k):
    """The removed per-product F_{p^k} multiply: reduce after each product."""
    conv = np.zeros(a.shape[:-1] + (2 * k - 1,), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            conv[..., i + j] += a[..., i] * b[..., j]
    conv %= p
    return np.tensordot(conv, red, axes=([-1], [0])) % p


def _search_oracle(F, k):
    """The removed search: F_{p^k} arithmetic per gradient monomial, with an
    early exit once no point of a batch survives."""
    p, n = F.p, F.n
    red = _reduction_table(irreducible_poly(p, k), p, 2 * k - 2)
    grad_mons = _gradient_monomials(F)
    q = p**k
    for lead in range(n + 1):
        total = q ** (n - lead)
        batch = max(1, min(total, 1 << 16))
        for start in range(0, total, batch):
            idx = np.arange(start, min(start + batch, total), dtype=np.int64)
            coords = np.zeros((idx.size, n + 1, k), dtype=np.int64)
            coords[:, lead, 0] = 1
            rem = idx.copy()
            for v in range(lead + 1, n + 1):
                code = rem % q
                rem //= q
                for c in range(k):
                    coords[:, v, c] = code % p
                    code //= p
            ones = np.zeros((idx.size, k), dtype=np.int64)
            ones[:, 0] = 1
            mask = np.ones(idx.size, dtype=bool)
            for mons in grad_mons:
                val = np.zeros((idx.size, k), dtype=np.int64)
                for exps, c in mons:
                    term = ones.copy()
                    for v, ev in enumerate(exps):
                        for _ in range(ev):
                            term = _ext_mul_oracle(term, coords[:, v, :], red, p, k)
                    val = (val + c * term) % p
                mask &= ~val.any(axis=1)
                if not mask.any():
                    break
            if mask.any():
                i = int(np.nonzero(mask)[0][0])
                return tuple(tuple(int(c) for c in coords[i, v]) for v in range(n + 1))
    return None


def test_search_over_prime_field_matches_scalar_gradient_scan():
    outcomes = set()
    for F in _random_forms(11):
        witness = _search_singular(F, 1)
        assert witness == _scalar_search(F), F.monomials
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_search_over_extension_fields_matches_removed_search():
    outcomes = set()
    cases = extension_only = 0
    for F in itertools.chain(_random_forms(12), _line_times_conic(13)):
        for k in range(2, (F.d - 1) ** F.n + 1):
            if (F.p**k) ** F.n > 3 * 10**5:
                break
            witness = _search_singular(F, k)
            assert witness == _search_oracle(F, k), (F.monomials, k)
            outcomes.add(witness is None)
            cases += 1
            if k == 2 and witness is not None and _search_singular(F, 1) is None:
                extension_only += 1
    assert cases >= 20 and outcomes == {True, False}
    assert extension_only >= 2


def test_quartic_singular_only_over_quadratic_extension():
    # (x0^2 + x1^2)^2 over F_7: -1 is not a square mod 7, so the double
    # roots x0 = +-i x1 live in F_49 only
    F = parse_form_file("4 0 1\n2 2 2\n0 4 1\n", 7)
    assert smoothness_check(F, k_max=1).singular_witness is None
    assert smoothness_check(F).singular_witness == (2, ((1, 0), (0, 1)))


def _poly_divides_oracle(div, poly, p):
    r = list(poly)
    while len(r) >= len(div):
        lead = r[-1] % p
        shift = len(r) - len(div)
        if lead:
            for i, c in enumerate(div):
                r[i + shift] = (r[i + shift] - lead * c) % p
        r.pop()
        while r and r[-1] % p == 0:
            r.pop()
    return not r


def _irreducible_poly_oracle(p, k):
    """The removed trial division, over the same lexicographic order."""
    if k == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=k):
        poly = tail + (1,)
        if poly[0] and not any(
            _poly_divides_oracle(dt + (1,), poly, p)
            for deg in range(1, k // 2 + 1)
            for dt in itertools.product(range(p), repeat=deg)
        ):
            return poly


def test_irreducible_poly_unchanged():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 5):
            assert irreducible_poly(p, k) == _irreducible_poly_oracle(p, k), (p, k)


def _moebius(e):
    out, f = 1, 2
    while f * f <= e:
        if e % f == 0:
            e //= f
            if e % f == 0:
                return 0
            out = -out
        f += 1
    return -out if e > 1 else out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducible_count_is_gauss_count(p):
    # (1/k) sum_{e | k} mu(e) p^(k/e) monic irreducibles of degree k; at
    # k = 1 _is_irreducible rejects x, so the count starts at k = 2
    for k in range(2, 5):
        found = sum(
            _is_irreducible(tail + (1,), p) for tail in itertools.product(range(p), repeat=k)
        )
        gauss = sum(_moebius(e) * p ** (k // e) for e in range(1, k + 1) if k % e == 0)
        assert found * k == gauss, (p, k)


def test_form_file_parsing():
    text = """
    # the plane conic
    1 0 1  1
    0 2 0 -1
    """
    F = parse_form_file(text, 3)
    assert F.monomials == conic_form(3).monomials
    with pytest.raises(ValueError):
        parse_form_file("1 0 1 1\n2 0 0 1\n0 0 1 1", 5)  # mixed degrees
    with pytest.raises(ValueError):
        parse_form_file("# nothing", 5)


def test_named_forms():
    assert named_form("conic", 3).monomials == conic_form(3).monomials
    assert named_form("fermat", 5, 2, 3).monomials == fermat_form(5, 2, 3).monomials
    with pytest.raises(ValueError):
        named_form("cubic-surface", 5)
