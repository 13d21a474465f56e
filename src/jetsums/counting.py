"""Exact point counts for jet spaces of section tuples on a hypersurface.

* ``count_solutions``    -- tuples x in P_{e,m}^(n+1), globally generating
  mod t, with F(x) = 0 in P_{de,m} (any jet order m).
* ``count_tangent_pairs`` -- pairs (x0, x1) with x0 as above and
  x1 . grad F(x0) = 0, x1 counted through kernels, never enumerated.
* ``count_multilinear_zeros`` -- (d-1)-tuples killed by linear conditions
  on the multilinear forms Psi_j attached to F, by ranks; it gives
  ``count_psi_zero_sections``, ``count_jet_multilinear`` and N(alpha).

The degree-zero solutions come from a lift through the coefficient layers
(``_lift``), the full scan (``iter_base_chunks``) serving the value
histograms and the lift's oracle.  Above a base point whose gradient map L
is onto (coker L = H^1(f*T_X) vanishes) the jets form an affine bundle,
counted in closed form; only the obstructed points are walked, through the
solution cosets of L (``walk_layers``), on the array jet kernel.  Every
operation computes the size of its search space first and refuses above
the budget before any lookup in ``sections.MEMO``, the one bounded memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import linalg
from .forms import SymmetricForm, _gradient_monomials
from .sections import MEMO, check_budget

CHUNK = 1 << 17
# Base points per batched fiber step.  Each step holds a few temporaries of
# this many small matrices.  For the m = 1 value histogram and m = 0 pair data
# of conic(3), e = 2 (16,848 base points), the peak RSS rose above that of the
# base scan by 0 MiB at 512 points, 4 MiB at 2048 and 33 MiB with all points in
# one step.  At 512 a later step of the m = 1 major identity also peaked
# 0.6 MiB higher than at 256 or 128, most likely because the step's arrays
# then pass glibc's 128 KiB mmap threshold and freeing them raises it.
FIBER_CHUNK = 256
# Candidate rows per block of every layer walk (``descend``).  For the m = 0
# counts of conic(5) and four seeded smooth cubics over F_5 at e = 2, the
# peak RSS of the degree-zero lift rose above its post-import level by
# 7.6-19.8 MiB with CHUNK-row blocks (growing with the cone of the cubic), by
# 1.9-2.5 MiB at 4096 rows and 0.8 MiB at 1024, at the same speed;
# conic(11), e = 2, took 2.3 s at 4096 and 2.5 s at 1024.
WALK_CHUNK = 1 << 12

# ---------------------------------------------------------------------------
# coefficient-array plumbing (degree-zero jet layer)


def batch_digits(codes: np.ndarray, p: int, length: int) -> np.ndarray:
    """Little-endian base-p digits, shape (len(codes), length)."""
    out = np.empty((codes.size, length), dtype=np.int64)
    rem = codes.copy()
    for i in range(length):
        out[:, i] = rem % p
        rem //= p
    return out


def encode_digits(digits: np.ndarray, p: int) -> np.ndarray:
    weights = p ** np.arange(digits.shape[-1], dtype=np.int64)
    return digits.astype(np.int64) @ weights


def batch_eval_form(F: SymmetricForm, coords: np.ndarray) -> np.ndarray:
    """F on batched coefficient tuples; coords has shape (N, n+1, e+1).

    Returns (N, de+1) coefficient arrays of the value, entries mod p: the
    jet order 0 case of ``batch_eval_jets``.
    """
    return _eval_batch_last(F, _batch_last(coords[:, :, None]))[0].T


def batch_generating_mask(coords: np.ndarray, p: int) -> np.ndarray:
    """Global generation of the mod-t coefficient tuples, vectorized.

    A tuple fails iff all sections vanish at some point of the line: a
    rational point (including infinity, i.e. all top coefficients zero) or a
    conjugate pair of quadratic points; the latter is only possible when
    every section is a scalar multiple of one monic irreducible quadratic h.
    With h reducible such a tuple already fails at a root of h, so every
    tuple of that shape is refused without testing h.
    Exact for degree bounds up to 2; for e >= 3 (where a common factor can
    also have higher degree) it raises NotImplementedError, which the CLI
    reports as an unsupported configuration (exit 2).
    """
    coords = coords.astype(np.int64)
    N, nv, ec = coords.shape
    e = ec - 1
    if e > 2:
        raise NotImplementedError("vectorized generation test covers e <= 2")
    a = np.arange(p, dtype=np.int64)
    vander = a[None, :] ** np.arange(ec, dtype=np.int64)[:, None] % p  # (e+1, p)
    vals = np.tensordot(coords, vander, axes=([2], [0])) % p  # (N, nv, p)
    common_aff = (vals == 0).all(axis=1).any(axis=1)
    common_inf = (coords[:, :, e] == 0).all(axis=1)
    ok = ~(common_aff | common_inf)
    if e == 2:
        # a common irreducible quadratic factor h forces x_j = top(x_j) * h,
        # so the only candidate h comes from the first section with a unit
        # top coefficient
        lam = coords[:, :, 2]
        rows = np.arange(N)
        jstar = (lam != 0).argmax(axis=1)
        lj = lam[rows, jstar]
        inv = linalg.inverse_table(p)[lj]  # 0 stays 0, those rows are already out
        h0 = coords[rows, jstar, 0] * inv % p
        h1 = coords[rows, jstar, 1] * inv % p
        match = (
            (coords[:, :, 0] == lam * h0[:, None] % p)
            & (coords[:, :, 1] == lam * h1[:, None] % p)
        ).all(axis=1)
        ok &= ~match
    return ok


def _check_scan(F: SymmetricForm, e: int, budget: int | None) -> int:
    """Refuse the degree-zero scan above the budget; returns its row count."""
    total = F.p ** ((F.n + 1) * (e + 1))
    check_budget(total * (F.d + F.n + 2), budget, "degree-zero tuple scan")
    return total


def iter_base_chunks(F: SymmetricForm, e: int, budget: int | None = None):
    """Stream (coords, values, generating) over the degree-zero space."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    total = _check_scan(F, e, budget)
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        coords = batch_digits(codes, p, width).reshape(-1, n + 1, e + 1)
        values = batch_eval_form(F, coords)
        gg = batch_generating_mask(coords, p)
        yield coords, values, gg


@dataclass
class BaseScan:
    """Materialized degree-zero layer (small spaces only)."""

    coords: np.ndarray      # (N, n+1, e+1), smallest signed dtype holding p-1
    values: np.ndarray      # (N, de+1), same dtype
    generating: np.ndarray  # (N,) bool


SCAN_ROW_CAP = 2_200_000  # rows of the largest scan ``base_scan`` materializes


def base_scan(F: SymmetricForm, e: int, budget: int | None = None) -> BaseScan:
    # both refusals come before the lookup, so they do not depend on earlier calls
    limit = min(SCAN_ROW_CAP, 10**18 if budget is None else budget)
    check_budget(F.p ** ((F.n + 1) * (e + 1)), limit, "materialized tuple scan")
    _check_scan(F, e, budget)

    def build():
        # int8 would wrap for p > 128 and send every later code negative
        dtype = np.min_scalar_type(-F.p)
        cs, vs, gs = [], [], []
        for coords, values, gg in iter_base_chunks(F, e, budget):
            cs.append(coords.astype(dtype))
            vs.append(values.astype(dtype))
            gs.append(gg)
        return BaseScan(np.concatenate(cs), np.concatenate(vs), np.concatenate(gs))

    return MEMO.get(("base_scan", F.key(), e), build)


# ---------------------------------------------------------------------------
# the one layer walk: coefficient layers in F_p^(n+1) for the degree-zero
# lift, jet layers in F_p^((n+1)(e+1)) for the walker and the free layers


def descend(X: np.ndarray, top: int, children):
    """Grow a stack X of known layers 0..k-1 depth first through layer top.

    ``children(X)`` yields X's blocks with layer k appended (``append_layer``
    blocks, some rows possibly dropped).  Yields the non-empty finished
    stacks, of layers 0..top.
    """
    if X.shape[2] <= top:
        for block in children(X):
            yield from descend(block, top, children)
    elif X.shape[0]:
        yield X


def append_layer(X: np.ndarray, size: int, layers, offsets: np.ndarray | None, p: int):
    """Append one layer to each tuple of a stack X (N, n+1, k, *shape), once
    for each of ``size`` candidate layers, in (tuple, candidate) order.

    ``layers(lo, hi)`` returns candidates lo..hi-1 as flat (hi-lo,
    (n+1) prod(shape)) rows; with ``offsets`` tuple i gets offsets[i] +
    candidate (mod p).  Yields (M, n+1, k+1, *shape) blocks of at most
    WALK_CHUNK rows.
    """
    N, nv, k, *shape = X.shape
    lstep = max(1, min(size, WALK_CHUNK))
    pstep = WALK_CHUNK // lstep
    for i in range(0, N, pstep):
        parents = X[i : i + pstep]
        for lo in range(0, size, lstep):
            layer = layers(lo, min(lo + lstep, size))[None]
            if offsets is not None:
                layer = (offsets[i : i + pstep, None] + layer) % p
            P, L = parents.shape[0], layer.shape[1]
            both = (np.broadcast_to(parents[:, None], (P, L, nv, k, *shape)),
                    np.broadcast_to(layer.reshape(-1, L, nv, 1, *shape), (P, L, nv, 1, *shape)))
            # the block is left unbound here, so a caller that filters it frees it
            yield np.concatenate(both, axis=3).reshape(-1, nv, k + 1, *shape)


# ---------------------------------------------------------------------------
# array jet kernel: tuples of P_{e,m} as (N, n+1, m+1, e+1) int64 arrays,
# indexed (tuple, variable, jet layer t^k, x-degree); the arithmetic runs
# on one batch-last copy, (n+1, m+1, e+1, N)


def _batch_last(X: np.ndarray) -> np.ndarray:
    """A contiguous int64 copy of a stack with its batch axis moved last."""
    return np.moveaxis(np.asarray(X), 0, -1).astype(np.int64, order="C")


def _section_mul_batch(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of batch-last section stacks (m+1, ra+1, *batch) x
    (m+1, rb+1, *batch): truncated convolution in the jet layer, full
    convolution in x-degree.

    The loops run over the jet layer and x-degree of the factor of lower
    degree, each step one slice add over the other factor's layers and
    degrees, on contiguous runs of the batch.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    k, ra, rb = a.shape[0] - 1, a.shape[1] - 1, b.shape[1] - 1
    out = np.zeros((k + 1, ra + rb + 1) + a.shape[2:], dtype=np.int64)
    for ka in range(k + 1):
        for i in range(ra + 1):
            out[ka:, i : i + rb + 1] += a[ka, i] * b[: k + 1 - ka]
    out %= p
    return out


def _monomial_batch(X: np.ndarray, exps, p: int) -> np.ndarray:
    """prod_j X[j]^exps[j] on a batch-last (n+1, m+1, e+1, N) stack; the
    empty product is the unit jet, of x-degree 0."""
    term = None
    for j, ej in enumerate(exps):
        for _ in range(ej):
            term = X[j] if term is None else _section_mul_batch(term, X[j], p)
    if term is None:
        term = np.zeros((X.shape[1], 1, X.shape[-1]), dtype=np.int64)
        term[0, 0] = 1
    return term


def _eval_batch_last(F: SymmetricForm, X: np.ndarray) -> np.ndarray:
    """F on a batch-last stack: (n+1, m+1, e+1, N) -> (m+1, de+1, N)."""
    _, mc, ec, N = X.shape
    out = np.zeros((mc, F.d * (ec - 1) + 1, N), dtype=np.int64)
    for exps, c in F.monomials.items():
        out += c * _monomial_batch(X, exps, F.p)
    out %= F.p
    return out


def batch_eval_jets(F: SymmetricForm, X: np.ndarray) -> np.ndarray:
    """F on a stack of tuples of P_{e,m}: (N, n+1, m+1, e+1) -> (N, m+1, de+1),
    the array form of the scalar ``eval_form`` oracle in ``tests/oracles.py``."""
    return np.moveaxis(_eval_batch_last(F, _batch_last(X)), -1, 0)


def batch_gradient(F: SymmetricForm, X: np.ndarray) -> np.ndarray:
    """The partial derivatives of F on a stack of tuples:
    (N, n+1, m+1, e+1) -> (N, n+1, m+1, (d-1)e+1), as the scalar
    ``gradient`` oracle in ``tests/oracles.py``."""
    X = _batch_last(X)
    nv, mc, ec, N = X.shape
    out = np.zeros((nv, mc, (F.d - 1) * (ec - 1) + 1, N), dtype=np.int64)
    for j, mons in enumerate(_gradient_monomials(F)):
        for exps, c in mons:
            out[j] += c * _monomial_batch(X, exps, F.p)
    out %= F.p
    return np.moveaxis(out, -1, 0)


def unfolded_mult_matrix_batch(F: SymmetricForm, X: np.ndarray) -> np.ndarray:
    """F_p matrices of z -> z . grad F(x) with z and value unfolded over
    jet layers, for every tuple x of a (N, n+1, m+1, e+1) stack:
    (N, (m+1)(de+1), (m+1)(n+1)(e+1)), block lower triangular since the
    map is R_m-linear.

    Rows are (layer k, x-degree a) of the value, columns (layer k',
    variable j, x-degree i) of z: entry (row (kz + kg, a + i), column
    (kz, j, i)) is the t^kg x^a coefficient of the j-th partial derivative.
    """
    g = batch_gradient(F, X)
    N, nv, mc, gc = g.shape
    ec = X.shape[3]
    width = gc + ec - 1
    gt = g.transpose(0, 2, 3, 1)  # (N, kg, a, j)
    mat = np.zeros((N, mc, width, mc, nv, ec), dtype=np.int64)
    for kz in range(mc):
        for i in range(ec):
            mat[:, kz:, i : i + gc, kz, :, i] = gt[:, : mc - kz]
    return mat.reshape(N, mc * width, mc * nv * ec)


def mult_matrix_batch(F: SymmetricForm, coords: np.ndarray) -> np.ndarray:
    """Matrices of z -> z . grad F(x0) on degree-zero layers, for every
    base point x0 of a stack.

    coords has shape (N, n+1, e+1); each of the (N, de+1, (n+1)(e+1))
    matrices maps the coordinates of z (variable-major, then x-degree) to
    the de+1 coefficients of the product (the jet order 0 case of
    ``unfolded_mult_matrix_batch``).
    """
    return unfolded_mult_matrix_batch(F, np.asarray(coords)[:, :, None, :])


ONTO = 0  # the class of every map of full row rank


class MapClasses:
    """Classes of the maps z -> z . grad F(x) (``unfolded_mult_matrix_batch``)
    of a stream of tuple stacks, by image, in first-seen order.

    ``images[k]`` is the rref basis (rows) of class k's image.  Every map of
    full row rank is class ``ONTO``, whose image is the identity, and is
    never keyed: the coker H^1(f*T_X) vanishes there, which the counts take
    in closed form.  Every other map is keyed by (lead, rank, image), each
    FIBER_CHUNK maps read off one ``rref_batch`` of their transposes.
    """

    def __init__(self, p: int, rows: int):
        self.p = p
        self.images = [np.eye(rows, dtype=np.int64)]
        self._index: dict[bytes, int] = {}

    def of(self, F: SymmetricForm, X: np.ndarray, lead: np.ndarray | None = None) -> np.ndarray:
        """The class of every tuple of a (N, n+1, m+1, e+1) stack X, keyed
        with its row of ``lead`` too where given."""
        ids = np.full(X.shape[0], ONTO, dtype=np.int64)
        for start in range(0, X.shape[0], FIBER_CHUNK):
            M = unfolded_mult_matrix_batch(F, X[start : start + FIBER_CHUNK])
            image, rank = linalg.rref_batch(M.transpose(0, 2, 1), self.p)
            rows = np.flatnonzero(rank < M.shape[1])
            if not rows.size:
                continue
            cols = [rank[rows, None], image[rows].reshape(rows.size, -1)]
            if lead is not None:
                cols.insert(0, lead[start + rows].astype(np.int64))
            # each key row as one opaque bytes item, far cheaper to sort than
            # rows along axis 0
            keys = np.concatenate(cols, axis=1)
            keys = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            local = np.empty(first.size, dtype=np.int64)
            for u in np.argsort(first):
                local[u] = self._index.setdefault(keys[first[u]].tobytes(), len(self.images))
                if local[u] == len(self.images):
                    i = rows[first[u]]
                    self.images.append(image[i, : rank[i]].copy())
            ids[start + rows] = local[inverse.ravel()]
        return ids


def fiber_classes(F: SymmetricForm, coords: np.ndarray, values: np.ndarray | None = None):
    """Group base points by (value layer, image of z -> z . grad F(x0)), on
    which alone an obstructed point's top-layer coset depends, or by image
    alone when ``values`` is None: the ``MapClasses`` of the degree-zero
    maps, onto points in class ``ONTO`` whatever their value.  Returns (the
    class of each point; each class's image basis)."""
    classes = MapClasses(F.p, F.d * (coords.shape[2] - 1) + 1)
    return classes.of(F, coords[:, :, None, :], values), classes.images


def generating_fibers(F: SymmetricForm, e: int, budget: int | None = None):
    """(coords, ids, images): the generating points of ``base_scan`` and their
    ``fiber_classes`` (value and image, onto points class ``ONTO``), computed
    once per (F, e) into the memo; the scan's refusals come before the
    lookup."""
    scan = base_scan(F, e, budget)
    gg = scan.generating
    return MEMO.get(("generating_fibers", F.key(), e), lambda: (
        scan.coords[gg], *fiber_classes(F, scan.coords[gg], scan.values[gg])))


# ---------------------------------------------------------------------------
# records


@dataclass
class CountRecord:
    params: dict
    raw_count: int
    exponent: int
    normalized: Fraction

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "raw_count": str(self.raw_count),
            "normalized": f"{self.normalized.numerator}/{self.normalized.denominator}",
            "exponent": self.exponent,
        }


def moduli_dimension(n: int, d: int, e: int) -> int:
    """Expected dimension of the space of maps at genus zero."""
    return (n + 1) * (e + 1) - (d * e + 1) - 1


def _record(F: SymmetricForm, e: int, m: int, raw: int, exponent: int, kind: str) -> CountRecord:
    params = {
        "kind": kind, "p": F.p, "n": F.n, "d": F.d, "e": e, "m": m, "form": F.name,
    }
    return CountRecord(params, raw, exponent, raw / Fraction(F.p) ** exponent)


# ---------------------------------------------------------------------------
# solution counts


def count_solutions(
    F: SymmetricForm,
    e: int,
    m: int,
    budget: int | None = None,
    workers: int | None = None,
) -> CountRecord:
    """#{x in P_{e,m}^(n+1) : x gg mod t, F(x) = 0}, normalized by
    p^((m+1)(mu+1)).

    At m = 0 the solutions come from the coefficient-layer lift, sharded
    into one contiguous slice of the cone (by the code of layer 0) per
    worker; shards are independent and reduce by integer addition, so
    worker count cannot change the result.  A worker count below 1, given or
    from JETSUMS_WORKERS, is refused at every m.
    """
    from .parallel import map_reduce, resolve_workers

    _check_count_inputs(F, e, m)
    workers = resolve_workers(workers)
    mu = moduli_dimension(F.n, F.d, e)
    exponent = (m + 1) * (mu + 1)
    if m == 0:
        p, n = F.p, F.n
        _check_lift_budget(F, e, budget)
        layers = p ** (n + 1)
        nshards = min(layers, workers)
        edges = np.linspace(0, layers, nshards + 1, dtype=np.int64)
        shards = [
            (F, e, int(lo), int(hi)) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo
        ]
        raw = map_reduce(_count_lift, shards, lambda a, b: a + b, 0, workers)
    else:
        raw = sum(count for _, count in _solution_fibers(F, e, m, budget))
    return _record(F, e, m, raw, exponent, "solutions")


def _check_count_inputs(F: SymmetricForm, e: int, m: int) -> None:
    """The counts' refusals: p must exceed d, and e and m be non-negative."""
    if F.p <= F.d:
        raise ValueError("need p > d")
    if e < 0 or m < 0:
        raise ValueError(f"need e >= 0 and m >= 0, got e={e}, m={m}")


def _count_lift(shard) -> int:
    F, e, lo, hi = shard
    return sum(len(rows) for rows in _lift_solutions(F, e, lo, hi))


def _base_solutions(F: SymmetricForm, e: int, budget: int | None) -> np.ndarray:
    """Coordinates of the gg degree-zero solutions, stacked in code order
    (the order of the full scan)."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    _check_lift_budget(F, e, budget)
    x0s = np.concatenate([
        np.zeros((0, n + 1, e + 1), dtype=np.int64),
        *_lift_solutions(F, e, 0, p ** (n + 1)),
    ])
    return x0s[np.argsort(encode_digits(x0s.reshape(-1, width), p))]


def _check_lift_budget(F: SymmetricForm, e: int, budget: int | None) -> None:
    """Charge the lift by its stage sizes: the scan of F_p^(n+1) for the
    affine cone Z, then at most |Z| rows at layer 0, p^(n+1) candidates per
    row at each middle layer and |Z| per row at layer e."""
    p, n = F.p, F.n
    per_row = F.d + n + 2
    what = "degree-zero coefficient lift"
    check_budget(p ** (n + 1) * per_row, budget, what)
    cone = sum(len(block) for block in _lift(F, 0, 0, p ** (n + 1)))
    stages = cone * p ** ((n + 1) * max(e - 1, 0)) * (cone if e else 1)
    check_budget((p ** (n + 1) + stages) * per_row, budget, what)


def _lift(F: SymmetricForm, e: int, lo: int, hi: int):
    """The (N, n+1, e+1) degree-zero tuples whose layer 0 has its code in
    [lo, hi) and whose F has zero s^0..s^(e-1) and s^(de) coefficients, in
    non-empty stacks in lift order (layer 0 first, each layer by code).

    Layer 0 runs over the codes [lo, hi) and each middle layer k over
    F_p^(n+1); a candidate survives when the s^k coefficient of F, a
    function of the layers 0..k only, vanishes (F(x[:, 0]) at k = 0, so
    layer 0 is the affine cone).  Layer e > 0 runs over the whole cone,
    stage 0 of the lift over every code, since the s^(de) coefficient is
    F(x[:, e]).  The stages are ``append_layer`` blocks run by ``descend``.
    """
    p, nv = F.p, F.n + 1
    cone = np.concatenate(list(_lift(F, 0, 0, p**nv)))[:, :, 0] if e else None

    def children(X):
        k = X.shape[2]
        if e and k == e:
            return append_layer(X, len(cone), lambda a, b: cone[a:b], None, p)
        start, size = (lo, hi - lo) if k == 0 else (0, p**nv)
        codes = lambda a, b: batch_digits(np.arange(start + a, start + b, dtype=np.int64), p, nv)
        keep = lambda Y: Y[batch_eval_form(F, Y)[:, k] == 0]
        return map(keep, append_layer(X, size, codes, None, p))  # holds no unfiltered block

    yield from descend(np.zeros((1, nv, 0), dtype=np.int64), e, children)


def _lift_solutions(F: SymmetricForm, e: int, lo: int, hi: int):
    """Generating solutions whose layer 0 has its code in [lo, hi), one
    array per last-stage block of the lift (lift order, not code order):
    the rows with F = 0 first, then the generation mask on those alone."""
    p, n = F.p, F.n
    # the generation mask refuses e >= 3; refuse before any work, also when
    # no candidate reaches the last stage
    batch_generating_mask(np.zeros((0, n + 1, e + 1), dtype=np.int64), p)
    for coords in _lift(F, e, lo, hi):
        zeros = coords[~batch_eval_form(F, coords).any(axis=1)]
        yield zeros[batch_generating_mask(zeros, p)]


# ---------------------------------------------------------------------------
# the jet-layer walker: layers x^1..x^m above one base point
#
# Layer x^k of a tuple enters its F-value first at t^k, as L x^k + c_k, where
# L is the gradient multiplication map at the base point and c_k, the t^k
# coefficient of F on the layers below k, is the same for every x^k.  So the
# lifts of a base point through layer k are the solutions of L x^k = -c_k:
# a coset of ker L, or nothing; where L is onto, always a coset.

@dataclass
class _Block:
    """A (N, rows, cols) stack of maps and, once a system of it asks, the
    rref R of each [L | I] and the rank of each L, by one ``rref_batch``."""

    L: np.ndarray
    p: int

    @cached_property
    def reduced(self) -> tuple[np.ndarray, list]:
        N, nrows, ncols = self.L.shape
        eye = np.broadcast_to(np.eye(nrows, dtype=np.int64), (N, nrows, nrows))
        R, _ = linalg.rref_batch(np.concatenate([self.L, eye], axis=2), self.p)
        return R, R[:, :, :ncols].any(axis=2).sum(axis=1).tolist()


@dataclass
class LayerSystem:
    """L x = b above one base point, for stacks of right-hand sides, from the
    rref R of [L | I]: its first rank rows carry the rref of L and its I part
    E has E L = rref(L).  R, pivots, kernel and span wait until asked."""

    block: _Block
    i: int

    @classmethod
    def batch(cls, L: np.ndarray, p: int) -> list["LayerSystem"]:
        """The systems of a (N, rows, cols) stack of maps, sharing one block."""
        block = _Block(L, p)
        return [cls(block, i) for i in range(len(L))]

    @property
    def L(self) -> np.ndarray:
        return self.block.L[self.i]

    @property
    def R(self) -> np.ndarray:
        return self.block.reduced[0][self.i]

    @property
    def rank(self) -> int:
        return self.block.reduced[1][self.i]

    @property
    def kerdim(self) -> int:
        return self.L.shape[1] - self.rank

    @property
    def onto(self) -> bool:  # then every layer above the point solves
        return self.rank == self.L.shape[0]

    @cached_property
    def pivots(self) -> list:
        return (self.R[: self.rank, : self.L.shape[1]] != 0).argmax(axis=1).tolist()

    @cached_property
    def ker(self) -> np.ndarray:
        return linalg._kernel_basis(self.R, self.pivots, self.L.shape[1], self.block.p)

    @cached_property
    def span(self) -> np.ndarray:
        """Every kernel vector, in ``linalg.span_elements`` order."""
        return linalg.span_elements(self.ker, self.block.p)

    def solve(self, c: np.ndarray):
        """(consistent, particular solution) of L x = -c for each row of c."""
        ncols = self.L.shape[1]
        return linalg.solve_stack(self.R[:, ncols:], self.pivots, ncols, -c, self.block.p)


def base_systems(F: SymmetricForm, e: int, budget: int | None):
    """Yield (x0, its LayerSystem) over the gg base solutions, in
    ``_base_solutions`` order, FIBER_CHUNK systems per reduction."""
    x0s = _base_solutions(F, e, budget)
    for start in range(0, x0s.shape[0], FIBER_CHUNK):
        block = x0s[start : start + FIBER_CHUNK]
        yield from zip(block, LayerSystem.batch(mult_matrix_batch(F, block), F.p))


def next_layer(F: SymmetricForm, X: np.ndarray) -> np.ndarray:
    """F on a stack X of known layers 0..k-1, shape (N, n+1, k, e+1), with
    layer k zero: (N, k+1, de+1), whose last layer is c_k."""
    N, nv, k, ec = X.shape
    Y = np.zeros((N, nv, k + 1, ec), dtype=np.int64)
    Y[:, :, :k] = X
    return batch_eval_jets(F, Y)


def walk_layers(F: SymmetricForm, X: np.ndarray, top: int, system: LayerSystem):
    """Lift a stack X of known layers 0..k-1 through the layers k..top.

    Layer j of a candidate is its particular solution of L x^j = -c_j plus
    each kernel vector in turn, so the lifts come out in the order of the
    nested kernel enumeration; inconsistent candidates drop out.  Yields
    the non-empty (N, n+1, top+1, e+1) stacks of ``descend``.
    """
    def children(Y):
        ok, part = system.solve(next_layer(F, Y)[:, -1])
        span = system.span
        return append_layer(Y[ok], span.shape[0], lambda lo, hi: span[lo:hi], part[ok], F.p)

    yield from descend(X, top, children)


def _solution_fibers(F: SymmetricForm, e: int, m: int, budget: int | None):
    """Yield (base point, fiber count) over gg solutions mod t^(m+1), m >= 1.

    An onto L solves every layer, so its fiber has p^(m dim ker L) points,
    as every fiber at m = 1 (c_1 = 0).  Above an obstructed point the layers
    below m are walked in the solution cosets of L, and each walk whose top
    constraint is consistent adds p^(dim ker L).
    """
    p = F.p
    for x0, system in base_systems(F, e, budget):
        kerdim = system.kerdim
        if m == 1 or system.onto:
            yield x0, p ** (m * kerdim)
            continue
        check_budget(p ** (kerdim * (m - 1)) * (m + 1), budget, "jet-layer fiber enumeration")
        walks = 0
        for X in walk_layers(F, x0[None, :, None, :], m - 1, system):
            walks += int(system.solve(next_layer(F, X)[:, -1])[0].sum())
        yield x0, walks * p**kerdim


def count_tangent_pairs(
    F: SymmetricForm,
    e: int,
    m: int,
    budget: int | None = None,
) -> CountRecord:
    """#{(x0, x1) : x0 gg solution, x1 . grad F(x0) = 0 in P_{de,m}}.

    Normalization exponent is 2(m+1)(mu+1); x1 ranges over P_{e,m}^(n+1),
    counted by kernel dimensions: an onto L has p^(m dim ker L) lifts whose
    pair maps (block triangular, L on the diagonal) have full row rank, and
    at m = 0 the pair map is L; only obstructed lifts at m >= 1 are ranked.
    """
    _check_count_inputs(F, e, m)
    mu = moduli_dimension(F.n, F.d, e)
    exponent = 2 * (m + 1) * (mu + 1)
    p, ncols = F.p, (m + 1) * (F.n + 1) * (e + 1)
    total, obstructed = 0, []
    for x0, system in base_systems(F, e, budget):
        if system.onto or not m:
            total += p ** (m * system.kerdim + ncols - (m + 1) * system.rank)
        else:
            obstructed.append((x0, system))
    for x0, system in obstructed:
        check_budget(p ** (system.kerdim * m) * (m + 1), budget, "solution tuple enumeration")
        for X in walk_layers(F, x0[None, :, None, :], m, system):
            for i in range(0, X.shape[0], FIBER_CHUNK):
                M = unfolded_mult_matrix_batch(F, X[i : i + FIBER_CHUNK])
                _, ranks = linalg.rref_batch(M.transpose(0, 2, 1), p)
                for rank, count in zip(*np.unique(ranks, return_counts=True)):
                    total += int(count) * p ** (ncols - int(rank))
    return _record(F, e, m, total, exponent, "tangent_pairs")


def lw_trend(form_family, e: int, m: int, primes: list[int],
             budget: int | None = None, workers: int | None = None) -> list[CountRecord]:
    """One exact solution count per prime; the normalized column's trend
    toward 1 reflects the expected dimension (reported, not asserted)."""
    return [count_solutions(form_family(p), e, m, budget, workers=workers)
            for p in primes]


# ---------------------------------------------------------------------------
# multilinear zero counts
#
# Psi_j is linear in its last slot, so above a fixed prefix (the first d-2
# slots) the last slots with cond . Psi_j = 0 for every j form the kernel of
# one F_p-linear map, and a count is the sum over prefixes of p^(dim ker).

# Matrix entries per block of prefixes.  An N count on fermat(7,2,3), e = 1,
# k1 = 0 (7^6 prefixes), then count_jet_multilinear(fermat(7,1,3), 1), took
# 1.2-1.4 s at 2^14..2^20 entries; peak RSS rose above the post-import level
# by 0.3, 3.3, 10.9 and 41 MiB at 2^14, 2^16, 2^18 and 2^20.
RANK_CHUNK = 1 << 16


def count_multilinear_zeros(
    F: SymmetricForm, rdeg: int, k: int, cond: np.ndarray, budget: int | None = None
) -> int:
    """#{(x^(1)..x^(d-1)) in (P_{rdeg,k}^(n+1))^(d-1) : cond . Psi_j = 0 for
    every j}, cond acting on the (jet layer, x-degree) flattening of Psi_j.

    For a block of prefix codes (one empty prefix at d = 2), Psi_j(prefix, u)
    is evaluated at every unit vector u of the last slot, composed with cond
    and stacked over j into ((n+1) len(cond) x slot) matrices, which one
    ``linalg.rref_batch`` call ranks.  Only cond differs between the counts
    of one (F, rdeg, k), so when the prefixes fit one block their Psi values
    are kept in ``sections.MEMO``.  The budget figure counts the Psi
    entries and the entry-column work of the eliminations.
    """
    p, n, d = F.p, F.n, F.d
    slot = (n + 1) * (k + 1) * (rdeg + 1)
    entries = (n + 1) * (k + 1) * ((d - 1) * rdeg + 1)  # of Psi_0..Psi_n
    rows = (n + 1) * cond.shape[0]
    prefixes = p ** ((d - 2) * slot)
    check_budget(prefixes * slot * (entries + rows * slot), budget, "multilinear rank count")
    step = max(1, RANK_CHUNK // (slot * (entries + rows)))
    total = 0
    for start in range(0, prefixes, step):
        codes = np.arange(start, min(start + step, prefixes), dtype=np.int64)
        build = lambda: _psi_units(F, codes, slot, k, rdeg)
        psi = MEMO.get(("psi_units", F.key(), rdeg, k), build) if step >= prefixes else build()
        vals = psi @ cond.T % p
        mats = vals.reshape(codes.size, slot, rows).transpose(0, 2, 1)
        _, ranks = linalg.rref_batch(mats, p)
        for rank, count in zip(*np.unique(ranks, return_counts=True)):
            total += int(count) * p ** (slot - int(rank))
    return total


def _psi_units(F: SymmetricForm, codes: np.ndarray, slot: int, k: int, rdeg: int) -> np.ndarray:
    """Psi_j at each prefix code followed by each unit vector of the last
    slot, as ``_psi_batch`` rows (read-only, since the memo shares them)."""
    heads = np.repeat(batch_digits(codes, F.p, (F.d - 2) * slot), slot, axis=0)
    units = np.tile(np.eye(slot, dtype=np.int64), (codes.size, 1))
    psi = _psi_batch(F, np.concatenate([heads, units], axis=1), k, rdeg)
    psi.flags.writeable = False
    return psi


def count_jet_multilinear(F: SymmetricForm, k: int, budget: int | None = None) -> int:
    """#{(x^(1)..x^(d-1)) over (F_p[t]/t^(k+1))^(n+1) : all Psi_j = 0}.

    Plain affine jet coordinates, no section structure: the sections of
    degree bound 0, i.e. ``count_psi_zero_sections(F, 0, 0, k)``.
    """
    return count_psi_zero_sections(F, 0, 0, k, budget)


def count_psi_zero_sections(
    F: SymmetricForm, e: int, s: int, k: int, budget: int | None = None
) -> int:
    """#{(x^(1)..x^(d-1)) in (P_{e-s,k}^(n+1))^(d-1) : all Psi_j = 0 as
    sections}: ``count_multilinear_zeros`` with the identity as condition."""
    if not 0 <= s <= e:
        raise ValueError("need 0 <= s <= e")
    width = (k + 1) * ((F.d - 1) * (e - s) + 1)
    return count_multilinear_zeros(F, e - s, k, np.eye(width, dtype=np.int64), budget)


def _psi_batch(F: SymmetricForm, flat: np.ndarray, k: int, rdeg: int) -> np.ndarray:
    """Psi_0..Psi_n on (d-1)-tuples of P_{rdeg,k}^(n+1), given as flat rows
    ordered (slot, variable, jet layer, x-degree): (N, n+1, width), each
    value flattened by (jet layer, x-degree)."""
    p, n, d = F.p, F.n, F.d
    pts = _batch_last(flat.reshape(-1, d - 1, n + 1, k + 1, rdeg + 1))
    N = pts.shape[-1]
    out = np.zeros((n + 1, k + 1, (d - 1) * rdeg + 1, N), dtype=np.int64)
    for idx in itertools.product(range(n + 1), repeat=d - 1):
        coeffs = [F.tensor_entry(idx + (j,)) for j in range(n + 1)]
        if not any(coeffs):
            continue
        term = pts[0, idx[0]]
        for slot in range(1, d - 1):
            term = _section_mul_batch(term, pts[slot, idx[slot]], p)
        for j, a in enumerate(coeffs):
            out[j] += a * term
    out = out % p * (math.factorial(d) % p) % p
    return np.moveaxis(out, -1, 0).reshape(N, n + 1, -1)
