"""The array jet kernel and the batched jet-layer walker against the jet
objects and the per-candidate recursions they replaced.

The recursions below (``_extend_layer_counts``, ``_extend_tuples``,
``_slice_recurse`` and ``_slice_recurse_explicit``) are the former library
routes, kept here as oracles: they lift one candidate at a time through
``JetPoly`` tuples, ``oracles.eval_form`` and a scalar ``oracles.solve``.
"""

import itertools
import random
import time
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jetsums import counting, expsums, linalg
from jetsums.cli import random_smooth_form
from jetsums.counting import (
    FIBER_CHUNK,
    ONTO,
    WALK_CHUNK,
    _base_solutions,
    base_scan,
    _solution_fibers,
    batch_digits,
    batch_eval_form,
    batch_eval_jets,
    batch_gradient,
    count_solutions,
    count_tangent_pairs,
    encode_digits,
    lift_fibers,
    unfolded_mult_matrix_batch,
    walk_layers,
)
from jetsums.expsums import (
    all_sums,
    check_orthogonality,
    pair_data,
    slice_histogram,
    w_code_from_values,
)
from jetsums.forms import conic_form, fermat_form, make_form
from jetsums.sections import MEMO, BudgetExceeded
from oracles import (
    JetPoly,
    base_systems,
    count_solutions_slow,
    eval_form,
    gradient,
    mult_matrix,
    nullspace,
    pair_cells,
    rank,
    row_space,
    solution_tuples,
    solve,
    tangent_fiber_slow,
    unfolded_mult_matrix,
    value_histogram,
)


def x0x1(n=2, p=3):
    return make_form(p, n, 2, [((1, 1) + (0,) * (n - 1), 1)], name="x0x1")


def x0sq(n=1, p=3):
    return make_form(p, n, 2, [((2,) + (0,) * n, 1)], name="x0sq")


def cone():
    # x0^2 + x1^2 + x2^2 in P^3, singular at (0:0:0:1): at e = 2 over F_3,
    # 1,296 of its 3,024 base solutions have an onto gradient map
    return make_form(3, 3, 2, [((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1), ((0, 0, 2, 0), 1)],
                     name="cone")


def _jets(p, X):
    """A (n+1, m+1, e+1) array as a tuple of JetPoly."""
    m, e = X.shape[1] - 1, X.shape[2] - 1
    return tuple(JetPoly.from_layers(p, e, m, row.tolist()) for row in X)


# ---------------------------------------------------------------------------
# the kernel against the jet objects


@st.composite
def forms_and_tuples(draw):
    # d = 1 has a constant gradient: the unit-jet monomial of the kernel
    d = draw(st.sampled_from([2, 3, 4, 1]))
    p = draw(st.sampled_from([q for q in (3, 5, 7) if q > d]))
    n = draw(st.integers(1, 2))
    e = draw(st.integers(0, 2))
    m = draw(st.integers(0, 2))
    exps = [ex for ex in itertools.product(range(d + 1), repeat=n + 1) if sum(ex) == d]
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(exps), max_size=len(exps)))
    mons = [(ex, c) for ex, c in zip(exps, coeffs) if c] or [(exps[0], 1)]
    count = draw(st.integers(1, 4))
    size = count * (n + 1) * (m + 1) * (e + 1)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))
    X = np.array(entries, dtype=np.int64).reshape(count, n + 1, m + 1, e + 1)
    return make_form(p, n, d, mons), X


@given(forms_and_tuples())
def test_kernel_matches_jet_objects(case):
    F, X = case
    _, nv, mc, ec = X.shape
    width = F.d * (ec - 1) + 1
    for Y in (X, X[:0]):  # each example also runs the empty stack of its shape
        N = len(Y)
        assert batch_eval_jets(F, Y).shape == (N, mc, width)
        assert batch_gradient(F, Y).shape == (N, nv, mc, (F.d - 1) * (ec - 1) + 1)
        assert unfolded_mult_matrix_batch(F, Y).shape == (N, mc * width, mc * nv * ec)
        assert batch_eval_form(F, Y[:, :, 0]).shape == (N, width)
    values = batch_eval_jets(F, X)
    grads = batch_gradient(F, X)
    mats = unfolded_mult_matrix_batch(F, X)
    assert (batch_eval_form(F, X[:, :, 0]) == values[:, 0]).all()
    for x, value, grad, mat in zip(X, values, grads, mats):
        jets = _jets(F.p, x)
        assert value.tolist() == [list(layer) for layer in eval_form(F, jets).layers()]
        assert grad.tolist() == [
            [list(layer) for layer in g.layers()] for g in gradient(F, jets)
        ]
        assert (mat == unfolded_mult_matrix(F, jets)).all()


# ---------------------------------------------------------------------------
# the former per-candidate recursions, as oracles


def _taylor_layer(F, e, m, layers, depth):
    """t^depth coefficient of F on the tuple with the given known layers."""
    stack = np.zeros((F.n + 1, m + 1, e + 1), dtype=np.int64)
    for k, layer in enumerate(layers):
        stack[:, k] = layer
    return np.array(eval_form(F, _jets(F.p, stack)).layer(depth), dtype=np.int64)


def _extend_layer_counts(F, e, m, layers, L, ker, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    part = solve(L, (-c) % p, p)
    if part is None:
        return
    if depth == m:
        yield p ** ker.shape[0]
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        yield from _extend_layer_counts(F, e, m, layers + [layer], L, ker, depth + 1)


def _extend_tuples(F, e, m, layers, L, ker, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    part = solve(L, (-c) % p, p)
    if part is None:
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        if depth == m:
            stack = np.stack(layers + [layer], axis=1)
            yield _jets(p, stack)
        else:
            yield from _extend_tuples(F, e, m, layers + [layer], L, ker, depth + 1)


def _slice_recurse(F, e, m, layers, L, ker, imspan, kerdim, kk, hist, annk, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    if depth == m:
        codes = encode_digits((c[None, :] + imspan) % p, p)
        np.add.at(kk, codes, p**kerdim)
        if hist is not None:
            for code in codes:
                key = (int(code), annk)
                hist[key] = hist.get(key, 0) + p**kerdim
        return
    part = solve(L, (-c) % p, p)
    if part is None:
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        _slice_recurse(F, e, m, layers + [layer], L, ker, imspan, kerdim, kk,
                       hist, annk, depth + 1)


def _slice_recurse_explicit(F, e, m, layers, L, ker, kk, hist, ann_key, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    if depth == m:
        ncols = L.shape[1]
        for code in range(p**ncols):
            xm = batch_digits(np.array([code]), p, ncols)[0].reshape(layers[0].shape)
            u = (c + L @ xm.reshape(-1)) % p
            M = unfolded_mult_matrix(F, _jets(p, np.stack(layers + [xm], axis=1)))
            k = ann_key(nullspace(np.ascontiguousarray(M.T), p))
            ucode = int(encode_digits(u[None], p)[0])
            kk[ucode] += 1
            hist[(ucode, k)] = hist.get((ucode, k), 0) + 1
        return
    part = solve(L, (-c) % p, p)
    if part is None:
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        _slice_recurse_explicit(F, e, m, layers + [layer], L, ker, kk, hist,
                                ann_key, depth + 1)


def _registry(ann_bases, p):
    index = {}

    def key(ann):
        basis = row_space(ann, p) if ann.size else ann
        sig = basis.tobytes() if basis.size else b""
        if sig not in index:
            index[sig] = len(ann_bases)
            ann_bases.append(basis)
        return index[sig]

    return key


def oracle_fiber_counts(F, e, m):
    out = []
    for x0 in _base_solutions(F, e, None):
        L = mult_matrix(F, x0)
        ker = nullspace(L, F.p)
        out.append(sum(_extend_layer_counts(F, e, m, [x0], L, ker, 1)))
    return out


def oracle_tuples(F, e, m):
    for x0 in _base_solutions(F, e, None):
        L = mult_matrix(F, x0)
        ker = nullspace(L, F.p)
        yield from _extend_tuples(F, e, m, [x0], L, ker, 1)


def oracle_slice_histogram(F, e, m, with_ann):
    p = F.p
    width = F.d * e + 1
    kk = np.zeros(p**width, dtype=np.int64)
    hist, ann_bases = {}, []
    ann_key = _registry(ann_bases, p)
    trivial = ann_key(np.zeros((0, (m + 1) * width), dtype=np.int64))
    for x0 in _base_solutions(F, e, None):
        L = mult_matrix(F, x0)
        ker = nullspace(L, p)
        image = row_space(L.T, p)
        if with_ann and image.shape[0] < width:
            _slice_recurse_explicit(F, e, m, [x0], L, ker, kk, hist, ann_key, 1)
            continue
        imspan = linalg.span_elements(image, p)
        _slice_recurse(F, e, m, [x0], L, ker, imspan, ker.shape[0], kk,
                       hist if with_ann else None, trivial, 1)
    return kk, hist, ann_bases


# ---------------------------------------------------------------------------
# the walker against the oracles

CASES = [
    (conic_form(3), 2, 1), (conic_form(3), 2, 2), (conic_form(5), 1, 2),
    (fermat_form(3, 2, 2), 0, 1), (fermat_form(3, 2, 2), 0, 3),
    (fermat_form(5, 1, 3), 0, 2), (x0x1(), 0, 2), (x0x1(), 1, 1), (x0x1(), 0, 3),
    (x0sq(), 0, 2), (x0sq(), 2, 1), (x0sq(2), 1, 2),
]
IDS = [f"{F.name}-p{F.p}-n{F.n}-e{e}-m{m}" for F, e, m in CASES]


@pytest.mark.parametrize("F,e,m", CASES, ids=IDS)
def test_fiber_counts_match_recursion(F, e, m):
    fibers = [count for _, count in _solution_fibers(F, e, m, None)]
    assert fibers == oracle_fiber_counts(F, e, m)
    assert count_solutions(F, e, m).raw_count == sum(fibers)


# the cases whose tuples the oracle can list one by one in about a second
TUPLE_CASES = [case for case in CASES if case[1:] not in ((2, 2), (1, 2))]


@pytest.mark.parametrize("F,e,m", TUPLE_CASES,
                         ids=[f"{F.name}-p{F.p}-n{F.n}-e{e}-m{m}" for F, e, m in TUPLE_CASES])
def test_solution_tuples_match_recursion(F, e, m):
    assert list(solution_tuples(F, e, m)) == list(oracle_tuples(F, e, m))


def _assert_same_slices(fast, slow):
    kk, hist, bases = fast
    kk0, hist0, bases0 = slow
    assert (kk == kk0).all()
    assert hist == hist0
    assert len(bases) == len(bases0)
    assert all(b.shape == b0.shape and (b == b0).all() for b, b0 in zip(bases, bases0))


@pytest.mark.parametrize("with_ann", [False, True])
@pytest.mark.parametrize("F,e,m", [
    (conic_form(3), 2, 2), (conic_form(3), 1, 3), (fermat_form(3, 2, 2), 0, 2),
    (x0x1(), 0, 2), (x0x1(), 0, 3), (x0sq(), 0, 2), (x0sq(), 0, 1),
    (x0sq(2), 0, 2),
    # its pairs case takes most of the suite's slice time, in the oracle; a
    # mark belongs to the value, so the fast singles case carries it too
    pytest.param(x0x1(), 1, 1, marks=pytest.mark.slow),
], ids=lambda v: getattr(v, "name", str(v)))
def test_slice_histogram_matches_recursion(F, e, m, with_ann):
    _assert_same_slices(
        slice_histogram(F, e, m, with_ann=with_ann),
        oracle_slice_histogram(F, e, m, with_ann),
    )


def test_onto_closed_form_matches_the_walk():
    # the values the walk above every base point gave before onto points
    # had a closed form, on a form with both kinds of point (and against
    # the recursions) and on conic(5) at orders the walk took seconds at
    F = cone()
    x0s, ids, _ = lift_fibers(F, 2)
    assert (len(x0s), int((ids == ONTO).sum())) == (3024, 1296)
    assert count_solutions(F, 2, 0).raw_count == 3024
    assert count_solutions(F, 2, 1).raw_count == 36_846_576 == sum(oracle_fiber_counts(F, 2, 1))
    assert count_tangent_pairs(F, 2, 0).raw_count == 36_846_576
    kk = slice_histogram(F, 2, 1)[0]
    assert (kk == oracle_slice_histogram(F, 2, 1, False)[0]).all()
    assert (int(kk.sum()), int(kk[0])) == (1_607_077_584, 36_846_576)
    # 100 values of P_4 are reached from the onto points alone, 3^7 times each
    assert kk.min() == 1296 * 3**7 and (kk == kk.min()).sum() == 100
    F = conic_form(5)
    assert count_solutions(F, 2, 2).raw_count == 187_500_000
    assert count_tangent_pairs(F, 2, 1).raw_count == 117_187_500_000


def test_only_obstructed_points_walk(monkeypatch):
    # the smooth conic is onto everywhere and walks nothing; every base map
    # of x0*x1 and x0^2 (n = 2) at e = 1 is obstructed, and each one walks
    walked, leaves = [], []
    real_walk, real_leaf = counting.walk_layers, expsums._top_layer

    def walk(F, X, top, system):
        walked.append(system.rank == system.L.shape[0])
        return real_walk(F, X, top, system)

    monkeypatch.setattr(counting, "walk_layers", walk)
    monkeypatch.setattr(expsums, "walk_layers", walk)
    monkeypatch.setattr(expsums, "_top_layer", lambda *a: leaves.append(1) or real_leaf(*a))
    F = conic_form(3)
    count_solutions(F, 2, 3)
    count_tangent_pairs(F, 2, 2)
    slice_histogram(F, 2, 3, with_ann=True)
    value_histogram(F, 1, 2)
    pair_data(F, 1, 2)
    assert walked == leaves == []
    for F, points in ((x0x1(), 96), (x0sq(2), 48)):
        walked.clear()
        count_solutions(F, 1, 2)
        count_tangent_pairs(F, 1, 1)
        slice_histogram(F, 1, 2)
        assert walked == [False] * 3 * points
    leaves.clear()
    value_histogram(x0x1(), 0, 2)  # 2 of its 26 generating base maps are obstructed
    assert leaves


def test_one_lift_serves_counts_pairs_and_slices():
    # each of the three ran its own lift and its own onto test per point
    MEMO.clear()
    F = x0x1()
    count_solutions(F, 1, 1)
    count_tangent_pairs(F, 1, 1)
    slice_histogram(F, 1, 1)
    assert (MEMO.misses["lift_fibers"], MEMO.hits["lift_fibers"]) == (1, 2)


def test_walks_hold_one_kernel_span_at_a_time(monkeypatch):
    # the memory contract of the walks: a kernel span (p^(dim ker L) rows)
    # lives only while its walk runs, so a route over many obstructed points
    # never holds two.  Every one of the 96 base maps of x0*x1 at e = 1 is
    # obstructed, and each walk through a middle layer spans its kernel once
    F, e = x0x1(), 1
    ncols = (F.n + 1) * (e + 1)
    live, counts = [], []
    real = linalg.span_elements

    def spy(basis, p):
        out = real(basis, p)
        if basis.shape[1] == ncols:  # a kernel; the images of L lie in P_de
            live[:] = [ref for ref in live if ref() is not None] + [weakref.ref(out)]
            counts.append(len(live))
        return out

    monkeypatch.setattr(linalg, "span_elements", spy)
    count_tangent_pairs(F, e, 1)
    slice_histogram(F, e, 2)
    assert len(counts) == 2 * 96 and max(counts) == 1


def test_explicit_branches_are_reached():
    # the singular forms exercise the non-surjective branch, with several
    # annihilator classes, and conic(3) at e = 2 does not
    assert len(slice_histogram(x0x1(), 0, 2, with_ann=True)[2]) > 2
    assert len(slice_histogram(conic_form(3), 2, 2, with_ann=True)[2]) == 1


def _oracle_pair_data(F, e):
    """pair_data(F, e, 1) one point at a time: surjective base maps by their
    image cosets, the others by enumerating x1 with the jet objects."""
    p, n = F.p, F.n
    width = F.d * e + 1
    ncols = (n + 1) * (e + 1)
    hist, ann_bases = {}, []
    ann_key = _registry(ann_bases, p)
    trivial = ann_key(np.zeros((0, 2 * width), dtype=np.int64))
    scan = base_scan(F, e)
    explicit = []
    for bi in np.nonzero(scan.generating)[0]:
        x0 = scan.coords[bi].astype(np.int64)
        v0 = scan.values[bi].astype(np.int64)
        L = mult_matrix(F, x0)
        im = row_space(L.T, p)
        if im.shape[0] < width:
            explicit.append(x0)
            continue
        for u in linalg.span_elements(im, p):
            code = int(encode_digits(((v0 + u) % p)[None], p)[0]
                       + encode_digits(v0[None], p)[0] * p**width)
            key = (code, trivial)
            hist[key] = hist.get(key, 0) + p ** (ncols - width)
    for x0 in explicit:
        for x1code in range(p**ncols):
            x1 = batch_digits(np.array([x1code]), p, ncols)[0].reshape(n + 1, e + 1)
            jets = _jets(p, np.stack([x0, x1], axis=1))
            M = unfolded_mult_matrix(F, jets)
            k = ann_key(nullspace(np.ascontiguousarray(M.T), p))
            vals = np.array(eval_form(F, jets).layers(), dtype=np.int64)
            key = (int(w_code_from_values(vals[None], p, 1)[0]), k)
            hist[key] = hist.get(key, 0) + 1
    return hist, ann_bases


@pytest.mark.parametrize("F,e", [(x0x1(), 0), (x0sq(), 0), (x0sq(), 1)],
                         ids=["x0x1-e0", "x0sq-e0", "x0sq-e1"])
def test_pair_data_explicit_matches_per_point(F, e):
    hist, bases = _oracle_pair_data(F, e)
    data = pair_data(F, e, 1)
    assert pair_cells(data) == hist
    assert len(data.ann_bases) == len(bases)
    assert all((b == b0).all() for b, b0 in zip(data.ann_bases, bases))


# ---------------------------------------------------------------------------
# per-base-point fibers by plain enumeration: no linear algebra


@pytest.mark.parametrize("F,samples", [(x0x1(), 3), (x0sq(2), 2)],
                         ids=["x0x1", "x0sq"])
def test_fiber_counts_match_enumeration_m2_e1(F, samples):
    e, m = 1, 2
    p, n = F.p, F.n
    ncols = (n + 1) * (e + 1)
    fibers = list(_solution_fibers(F, e, m, None))
    rng = random.Random(7)
    for x0, count in rng.sample(fibers, samples):
        total = 0
        step = 1 << 14
        for start in range(0, p ** (2 * ncols), step):
            codes = np.arange(start, min(start + step, p ** (2 * ncols)), dtype=np.int64)
            upper = batch_digits(codes, p, 2 * ncols).reshape(-1, 2, n + 1, e + 1)
            X = np.empty((codes.size, n + 1, m + 1, e + 1), dtype=np.int64)
            X[:, :, 0] = x0
            X[:, :, 1:] = upper.transpose(0, 2, 1, 3)
            total += int((~batch_eval_jets(F, X).any(axis=(1, 2))).sum())
        assert count == total


def test_tangent_pairs_match_kernel_per_tuple():
    # the batched ranks against one scalar rank per solution tuple
    # conic(5) at e = 2 has 480 base solutions, more than one FIBER_CHUNK
    for F, e, m in ((conic_form(3), 2, 0), (x0x1(), 0, 2), (x0x1(), 1, 1),
                    (conic_form(5), 2, 0)):
        total = 0
        for x0 in solution_tuples(F, e, m):
            M = unfolded_mult_matrix(F, x0)
            total += F.p ** (M.shape[1] - rank(M, F.p))
        assert count_tangent_pairs(F, e, m).raw_count == total


def test_fibers_cross_the_chunk_boundary():
    # conic(5) at e = 2: 480 base solutions, reduced FIBER_CHUNK at a time
    F, e = conic_form(5), 2
    x0s = _base_solutions(F, e, None)
    assert len(x0s) > FIBER_CHUNK
    fibers = list(_solution_fibers(F, e, 1, None))
    assert [x0.tolist() for x0, _ in fibers] == x0s.tolist()
    for x0, count in fibers:
        L = mult_matrix(F, x0)
        assert count == F.p ** (L.shape[1] - rank(L, F.p))
    # the counts depend on ranks alone, which agree at every point of the
    # smooth conic; the tuples also need each point's own system
    X = np.concatenate([X for x0, system in base_systems(F, e, None)
                        for X in walk_layers(F, x0[None, :, None, :], 1, system)])
    assert X.shape[0] == sum(count for _, count in fibers)
    assert (X[:, :, 0].reshape(len(x0s), -1, *x0s.shape[1:]) == x0s[:, None]).all()
    assert not batch_eval_jets(F, X).any()
    # m = 2 against the scalar-solve recursion, on both sides of the boundary
    fibers = [count for _, count in _solution_fibers(F, e, 2, None)]
    rng = random.Random(11)
    for i in sorted(rng.sample(range(len(x0s)), 4) + [FIBER_CHUNK - 1, FIBER_CHUNK]):
        L = mult_matrix(F, x0s[i])
        ker = nullspace(L, F.p)
        assert fibers[i] == sum(_extend_layer_counts(F, e, 2, [x0s[i]], L, ker, 1))


def test_every_walk_block_is_within_walk_chunk(monkeypatch):
    # the memory contract of the one layer walk: every block the lift,
    # walk_layers and the free layers hold or yield has at most WALK_CHUNK
    # rows, at every stage (the spy) and at the last (the yields)
    staged = []
    real = counting.append_layer

    def spy(*args):
        for block in real(*args):
            staged.append(block.shape[0])
            yield block

    monkeypatch.setattr(counting, "append_layer", spy)
    monkeypatch.setattr(expsums, "append_layer", spy)
    F = conic_form(7)  # e = 2: 7^3 codes per middle layer, a cone of 49 at the top
    lift = [len(X) for X in counting._lift(F, 2, 0, 7**3)]
    F = conic_form(3)  # e = 2, m = 2: a kernel of 81 at both layers
    walk = [len(X) for x0, system in base_systems(F, 2, None)
            for X in walk_layers(F, x0[None, :, None, :], 2, system)]
    X = base_scan(F, 2).coords[:2].astype(np.int64)[:, :, None, :]
    free = [len(X) for X in expsums._free_layers(X, 1, 3)]  # 3^9 codes each
    assert sum(walk) == count_solutions(F, 2, 2).raw_count
    assert sum(free) == 2 * 3**9
    for sizes in (lift, walk, free, staged):
        assert len(sizes) > 1 and max(sizes) <= WALK_CHUNK
    assert max(free) == WALK_CHUNK


def test_m0_stacks_and_m1_counts_build_no_kernel(monkeypatch):
    # the m = 0 stacks need no reduction at all, the m = 1 count one rank
    # per base point, of L^T in the lift's classes; neither builds a kernel
    # or its span
    MEMO.clear()
    calls = []
    for name in ("rref_batch", "_kernel_basis", "span_elements"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a))
    F = conic_form(5)
    assert sum(len(X) for x0, system in base_systems(F, 2, None)
               for X in walk_layers(F, x0[None, :, None, :], 0, system)) == 480
    assert calls == []
    assert sum(count for _, count in _solution_fibers(F, 2, 1, None)) == 480 * 5**4
    assert calls == ["rref_batch"] * 2
    # every base map of conic(5) is onto: at any order its counts take the
    # class ranks alone, from the classes the m = 1 count left in the memo
    calls.clear()
    assert count_solutions(F, 2, 3).raw_count == 480 * 5**12
    assert count_tangent_pairs(F, 2, 2).raw_count == 480 * 5**8 * 5**12
    assert calls == []


def test_pair_scan_is_charged_by_its_eliminations():
    # x0*x1 at e = 1, m = 2: 192 base maps are not onto, each with 3^12 top
    # tuples whose 18 x 9 pair maps M^T are ranked; refused at once, above
    # even the forced 1e11
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="non-surjective pair annihilator scan") as err:
        pair_data(x0x1(), 1, 2, budget=10**11)
    assert err.value.needed == 192 * 3**12 * 18 * 9**2
    assert time.perf_counter() - start < 1


def test_walker_budget_figures():
    # each route charges its obstructed points alone.  x0^2 on three
    # variables at e = 1: each of its 48 base maps is zero (kernel dimension
    # 6), above a lift charged (27 + 9 * 9) * 6 = 648
    F = x0sq(2)
    with pytest.raises(BudgetExceeded, match="jet-layer fiber enumeration") as err:
        count_solutions(F, 1, 2, budget=3**6 * 3 - 1)
    assert err.value.needed == 3**6 * 3
    with pytest.raises(BudgetExceeded, match="solution tuple enumeration") as err:
        count_tangent_pairs(F, 1, 2, budget=3**12 * 3 - 1)
    assert err.value.needed == 3**12 * 3
    with pytest.raises(BudgetExceeded, match="slice histogram") as err:
        slice_histogram(F, 1, 2, budget=3**6 - 1)
    assert err.value.needed == 3**6
    # above its 3^6 middle-layer walks the 3^6 top tuples are enumerated and
    # each pair map ranked, charged 18 rows x 9^2 columns^2
    with pytest.raises(BudgetExceeded, match="explicit slice fiber") as err:
        slice_histogram(F, 1, 2, budget=48 * 3**12 * 1458 - 1, with_ann=True)
    assert err.value.needed == 48 * 3**12 * 1458
    # the free middle layer of the m = 2 sums: x0*x1 at e = 1 has 192 of its
    # 624 generating base maps obstructed, 3^6 middle layers each, and an
    # image coset of at most 3^3 values
    with pytest.raises(BudgetExceeded, match="free jet-layer walk") as err:
        all_sums(x0x1(), 1, 2, budget=192 * 3**9 - 1)
    assert err.value.needed == 192 * 3**9
    # the onto classes of the pair histogram are one mass per base value,
    # charged nothing: conic(3) at e = 2, m = 2 keeps no cell in its dict,
    # and each of its 16,848 generating base points has 3^18 jets above it,
    # 3^8 for each of the 3^10 settings of the low digits
    data = pair_data(conic_form(3), 2, 2)
    assert data.hist == {} and data.onto.sum() == 16848 * 3**8
    # the pair orthogonality builds no table of the full dual, only the
    # checked one-layer origin: conic(3) at e = 1, m = 5, whose full table
    # would hold 3^18 cells, runs at the default budget
    assert check_orthogonality(conic_form(3), 1, 5, pairs=True).verdict == "equal"
    # that one-layer check is itself capped by its cells, before any scan:
    # 5^13 for the cubic on P^1 over F_5 at e = 4, whose base scan of 5^10
    # tuples the default budget admits
    with pytest.raises(BudgetExceeded, match="dual layer check") as err:
        check_orthogonality(fermat_form(5, 1, 3), 4, 0, pairs=True)
    assert err.value.needed == 5**13
    # and a value histogram above 2^24 cells: 3^18 for conic(3) at e = 1,
    # m = 5, whose free walk is no longer charged
    with pytest.raises(BudgetExceeded, match="value histogram") as err:
        all_sums(conic_form(3), 1, 5, budget=10**11)
    assert err.value.needed == 3**18
    # conic(3) at e = 2 is onto at every point: its lift, charged
    # (27 + 9 * 27 * 9) * 6, is all the walker routes charge
    F, lift = conic_form(3), (27 + 9 * 27 * 9) * 6
    assert count_solutions(F, 2, 4, budget=lift).raw_count == 48 * 3**16
    assert count_tangent_pairs(F, 2, 2, budget=lift).raw_count == 48 * 3**8 * 3**12
    assert (slice_histogram(F, 2, 3, budget=lift, with_ann=True)[0] == 48 * 3**12).all()


# ---------------------------------------------------------------------------
# the counts against their slow oracles beyond p = 3

F5_FORMS = [x0x1(1, 5), x0x1(2, 5), x0sq(1, 5), x0sq(2, 5), conic_form(5),
            random_smooth_form(5, 1, 3, 1)]
# The oracle work admitted per (form, e, m) case, fixed before the draw: array
# rows of the slow count (about 0.13 us each on a 2-core host) and scalar
# items of the recursions and enumerations (50-130 us each: candidate layers
# evaluated, x1 enumerated, top layers ranked).
ROW_CAP, SCALAR_CAP = 2 * 10**7, 2 * 10**4


def _recursion_work(F, e, m, top=None):
    """Candidate layers the recursions evaluate at depths 1..m above the base
    solutions, plus, with ``top``, the items each walk's last layer costs:
    top(class, rank) per walk of that class."""
    p, ncols = F.p, (F.n + 1) * (e + 1)
    _, ids, images = counting.lift_fibers(F, e)
    sizes, ranks = np.bincount(ids, minlength=len(images)), [len(im) for im in images]
    work = 0
    for k, (size, rank) in enumerate(zip(sizes, ranks)):
        work += size * sum(p ** ((ncols - rank) * j) for j in range(m))
        if top is not None:
            work += size * p ** ((ncols - rank) * (m - 1)) * top(k, rank)
    return work


def _f5_cases(route):
    """The (F, e, m, extra) cases of one route whose oracle work fits its cap."""
    for F, e in itertools.product(F5_FORMS, range(3)):
        p, ncols = F.p, (F.n + 1) * (e + 1)
        if route == "count":
            yield from ((F, e, m, None) for m in (1, 2) if p ** (ncols * (m + 1)) <= ROW_CAP)
        elif route == "fibers":
            yield from ((F, e, m, None) for m in (1, 2) if _recursion_work(F, e, m) <= SCALAR_CAP)
        elif route == "tangent":
            for m in (0, 1):
                if count_solutions(F, e, m).raw_count * p ** (ncols * (m + 1)) <= SCALAR_CAP:
                    yield F, e, m, None
        else:  # slices: with annihilators the oracle enumerates the obstructed top layers
            for m, with_ann in itertools.product((1, 2), (False, True)):
                top = lambda k, rank: p ** (ncols if k != ONTO else rank)
                if _recursion_work(F, e, m, top if with_ann else None) <= SCALAR_CAP:
                    yield F, e, m, with_ann


# the cases each route admits, pinned so that a change of the work figures
# cannot drop cases unseen
F5_CASES = {"count": 15, "fibers": 30, "tangent": 21, "slices": 54}


@pytest.mark.parametrize("route", list(F5_CASES))
def test_counts_match_slow_oracles_beyond_p3(route):
    ran = 0
    for F, e, m, with_ann in _f5_cases(route):
        ran += 1
        case = (F.name, F.n, e, m, with_ann)
        if route == "count":
            assert count_solutions(F, e, m).raw_count == count_solutions_slow(F, e, m, None), case
        elif route == "fibers":
            fibers = [count for _, count in _solution_fibers(F, e, m, None)]
            assert fibers == oracle_fiber_counts(F, e, m), case
        elif route == "tangent":
            slow = sum(tangent_fiber_slow(F, x, None) for x in solution_tuples(F, e, m))
            assert count_tangent_pairs(F, e, m).raw_count == slow, case
        else:
            _assert_same_slices(slice_histogram(F, e, m, with_ann=with_ann),
                                oracle_slice_histogram(F, e, m, with_ann))
    assert ran == F5_CASES[route]
