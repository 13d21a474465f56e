"""Small dense linear algebra over a prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything here
is exact integer arithmetic; p is small (a machine prime) and dimensions are
in the dozens.

One elimination serves every caller.  ``rref_batch`` row-reduces a whole
stack of matrices at once, one column step across the batch axis at a time:
the gradient and pair maps that ``counting.MapClasses`` sorts by image, the
stacked [L | I] of each block of base solutions of the jet-layer lifts
(after which ``solve_stack`` solves L x = b for a stack of right-hand sides
with one matrix product), the Hankel matrices of ``sections.hankel_splits``
(the divisor table and ``classify_arc``), the last-slot maps of
``counting.count_multilinear_zeros``, the annihilator of each pair class and
the membership tests against it.  A single matrix is a stack of one.  The
scalar elimination in ``tests/oracles.py`` is the oracle it is tested
against.
"""

from __future__ import annotations

import numpy as np


def inverse_mod(a: int, p: int) -> int:
    return pow(int(a) % p, p - 2, p)


def inverse_table(p: int) -> np.ndarray:
    """inv[a] = a^(-1) mod p for a = 1..p-1; inv[0] = 0."""
    inv = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        inv[a] = pow(a, p - 2, p)
    return inv


def rref_batch(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of every matrix of a (N, rows, cols) stack.

    Returns the rref stack and the rank of each matrix; the first rank[b]
    rows of matrix b are its nonzero ones.  Each column step picks, per
    matrix, the first nonzero entry at or below that matrix's current row (a
    masked argmax) and eliminates the column from every other row of the
    matrices that have a pivot there.
    """
    a = np.array(mats, dtype=np.int64) % p
    n, nrows, ncols = a.shape
    inv = inverse_table(p)
    rank = np.zeros(n, dtype=np.int64)
    row_ids = np.arange(nrows)
    for col in range(ncols):
        cand = (a[:, :, col] != 0) & (row_ids[None, :] >= rank[:, None])
        b = np.nonzero(cand.any(axis=1))[0]
        if b.size == 0:
            continue
        piv = cand[b].argmax(axis=1)
        top = rank[b]
        prow = a[b, piv]
        a[b, piv] = a[b, top]
        prow = prow * inv[prow[:, col]][:, None] % p
        a[b, top] = prow
        factors = a[b, :, col]
        factors[np.arange(b.size), top] = 0
        # earlier columns of the pivot row are zero already
        a[b, :, col:] = (a[b, :, col:] - factors[:, :, None] * prow[:, None, col:]) % p
        rank[b] += 1
    return a, rank


def _kernel_basis(r: np.ndarray, pivots: list[int], ncols: int, p: int) -> np.ndarray:
    """Kernel basis read off an rref: one vector per free column, in order."""
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-r[i, fc]) % p
    return basis


def solve_stack(E: np.ndarray, pivots: list[int], ncols: int, rhs: np.ndarray,
                p: int) -> tuple[np.ndarray, np.ndarray]:
    """One solution of mat @ x = b for every row b of rhs at once, from the
    I part E of the rref of [mat | I] (so E @ mat is the rref of mat) and
    mat's pivots.

    Returns (consistent, x): row b is consistent when (E b)[rank:] vanishes,
    and then x[b] is the solution with zero free coordinates, (E b)[:rank]
    at the pivot columns.
    """
    rank = len(pivots)
    y = rhs % p @ E.T % p
    x = np.zeros((rhs.shape[0], ncols), dtype=np.int64)
    x[:, pivots] = y[:, :rank]
    return ~y[:, rank:].any(axis=1), x


def span_elements(basis: np.ndarray, p: int) -> np.ndarray:
    """All p**k vectors in the span of k basis rows (k kept small by callers)."""
    k, n = basis.shape
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = np.indices((p,) * k).reshape(k, -1).T
    return (coeffs @ basis) % p


def annihilator(basis: np.ndarray, p: int) -> np.ndarray:
    """The rref basis of the functionals vanishing on the span of an rref
    basis (rows): the kernel vectors read off its pivots, reduced."""
    pivots = (basis != 0).argmax(axis=1).tolist()
    reduced, rank = rref_batch(_kernel_basis(basis, pivots, basis.shape[1], p)[None], p)
    return reduced[0, : rank[0]]
