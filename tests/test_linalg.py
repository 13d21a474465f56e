import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from jetsums.counting import LayerSystem
from jetsums.linalg import annihilator, rref_batch, solve_stack
from oracles import nullspace, row_space, rref, solve


@st.composite
def matrix_stacks(draw):
    """A stack with random matrices plus a zero, a full-rank and a repeated
    one, entries drawn a little outside [0, p) to exercise the reduction."""
    p = draw(st.sampled_from([2, 3, 5, 7, 137]))
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    count = draw(st.integers(1, 6))
    entries = draw(st.lists(
        st.integers(-p, 2 * p - 1),
        min_size=count * nrows * ncols, max_size=count * nrows * ncols,
    ))
    mats = np.array(entries, dtype=np.int64).reshape(count, nrows, ncols)
    # full rank: a scaled identity with its rows and columns permuted
    perm_r = draw(st.permutations(range(nrows)))
    perm_c = draw(st.permutations(range(ncols)))
    scale = draw(st.integers(1, p - 1))
    full = (scale * np.eye(nrows, ncols, dtype=np.int64))[perm_r][:, perm_c]
    extra = np.stack([np.zeros((nrows, ncols), dtype=np.int64), full, mats[0]])
    return p, np.concatenate([mats, extra])


@given(matrix_stacks())
def test_rref_batch_matches_scalar_rref(case):
    p, mats = case
    reduced, ranks = rref_batch(mats, p)
    assert reduced.shape == mats.shape
    for b, mat in enumerate(mats):
        ref, pivots = rref(mat, p)
        assert (reduced[b] == ref).all()
        assert ranks[b] == len(pivots)
        lead = [int(np.nonzero(row)[0][0]) for row in reduced[b][: ranks[b]]]
        assert lead == pivots
        assert not reduced[b][ranks[b]:].any()
    assert ranks[-3] == 0
    assert ranks[-2] == min(mats.shape[1:])
    assert (reduced[-1] == reduced[0]).all()


@given(matrix_stacks())
def test_annihilator_matches_scalar_kernel(case):
    # the functionals vanishing on a row span: the rref of the scalar kernel,
    # with the full-rank and the zero matrices at the ends of the stack
    p, mats = case
    for mat in mats:
        expected = row_space(nullspace(mat, p), p)
        ann = annihilator(row_space(mat, p), p)
        assert ann.shape == expected.shape and (ann == expected).all()


def test_rref_batch_leaves_input_alone():
    mats = np.array([[[2, 4], [1, 3]]], dtype=np.int64)
    before = mats.copy()
    reduced, ranks = rref_batch(mats, 5)
    assert (mats == before).all()
    assert ranks.tolist() == [2] and (reduced[0] == np.eye(2)).all()


@given(matrix_stacks(), st.integers(0, 2**32))
def test_solve_stack_matches_scalar_solve(case, seed):
    # systems from the batched reduction of the stacked [L | I]; right-hand
    # sides from the image (consistent) and at random
    p, mats = case
    rng = np.random.default_rng(seed)
    for mat, system in zip(mats, LayerSystem.batch(mats % p, p)):
        nrows, ncols = mat.shape
        E = system.R[:, ncols:]
        ref, pivots = rref(mat, p)
        assert (E @ mat % p == ref).all()
        assert system.pivots == pivots and system.rank == len(pivots)
        assert (system.ker == nullspace(mat, p)).all()
        image = row_space(system.L[:, system.pivots].T, p)
        assert image.shape == (len(pivots), nrows)
        assert (image == row_space(np.ascontiguousarray(mat.T), p)).all()
        rhs = np.concatenate([
            rng.integers(0, p, size=(4, ncols)) @ mat.T % p,
            rng.integers(0, p, size=(4, nrows)),
        ])
        ok, x = solve_stack(E, system.pivots, ncols, rhs, p)
        for b, flag, sol in zip(rhs, ok, x):
            ref = solve(mat, b, p)
            assert flag == (ref is not None)
            if flag:
                assert (sol == ref).all()
