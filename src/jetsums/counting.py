"""Exact point counts for jet spaces of section tuples on a hypersurface.

The main counts:

* ``count_solutions``    -- tuples x in P_{e,m}^(n+1), globally generating
  mod t, with F(x) = 0 in P_{de,m} (any jet order m).
* ``count_tangent_pairs`` -- pairs (x0, x1) with x0 as above and
  x1 . grad F(x0) = 0; x1 is counted through the kernel of an F_p-linear
  map, never enumerated (a slow enumeration mode exists as an oracle).
* ``count_jet_multilinear`` / ``count_psi_zero_sections`` -- auxiliary
  counts of zeros of the multilinear forms attached to F.

Enumeration runs over the degree-zero jet layer in numpy batches.  Its
solutions come from a lift through the coefficient layers x[:, k] of the
tuple: the s^k coefficient of F(x) depends only on the layers 0..k, the end
coefficients are F of the end layers, so layer 0 and layer e run over the
affine cone {a : F(a) = 0} and each middle layer keeps only the candidates
whose s^k coefficient vanishes; the full p^((n+1)(e+1)) scan
(``iter_base_chunks``) remains for the value histograms, which need every
generating tuple, and as the lift's oracle.  Higher jet layers enter
through exact linear algebra (image / kernel of the multiplication-by-
gradient map), which is what makes jet orders m >= 1 affordable.  Every
operation computes the size of its search space first and refuses to start
above the configured budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .arith import Jet
from .forms import SymmetricForm, _gradient_monomials, eval_form, gradient
from .sections import (
    JetPoly,
    check_budget,
    section_space_size,
)

CHUNK = 1 << 17
# Base points per batched fiber step.  Each step holds a few temporaries of
# this many small matrices.  For the m = 1 value histogram and m = 0 pair data
# of conic(3), e = 2 (16,848 base points), the peak RSS rose above that of the
# base scan by 0 MiB at 512 points, 4 MiB at 2048 and 33 MiB with all points in
# one step.  At 512 a later step of the m = 1 major identity also peaked
# 0.6 MiB higher than at 256 or 128, most likely because the step's arrays
# then pass glibc's 128 KiB mmap threshold and freeing them raises it.
FIBER_CHUNK = 256
# Candidate rows per block of the degree-zero lift.  For the m = 0 counts of
# conic(5) and four seeded smooth cubics over F_5 at e = 2, the peak RSS rose
# above its post-import level by 7.6-19.8 MiB with CHUNK-row blocks (growing
# with the cone of the cubic), by 1.9-2.5 MiB at 4096 rows and 0.8 MiB at
# 1024, at the same speed; conic(11), e = 2, took 2.3 s at 4096 and 2.5 s at
# 1024.
LIFT_CHUNK = 1 << 12

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


def batch_poly_mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Coefficient-array product of polynomial batches (..., da+1) x (..., db+1)."""
    da = a.shape[-1] - 1
    db = b.shape[-1] - 1
    out = np.zeros(a.shape[:-1] + (da + db + 1,), dtype=np.int64)
    for i in range(da + 1):
        for j in range(db + 1):
            out[..., i + j] += a[..., i] * b[..., j]
    return out % p


def batch_eval_form(F: SymmetricForm, coords: np.ndarray) -> np.ndarray:
    """F on batched coefficient tuples; coords has shape (N, n+1, e+1).

    Returns (N, de+1) coefficient arrays of the value, entries mod p.
    """
    coords = coords.astype(np.int64)
    N = coords.shape[0]
    e = coords.shape[2] - 1
    out = np.zeros((N, F.d * e + 1), dtype=np.int64)
    for exps, c in F.monomials.items():
        term = None
        for j, ej in enumerate(exps):
            for _ in range(ej):
                pj = coords[:, j, :]
                term = pj.copy() if term is None else batch_poly_mul(term, pj, F.p)
        out[:, : term.shape[1]] += c * term
    return out % F.p


_IRRED_QUAD_CACHE: dict[int, list[tuple[int, int]]] = {}


def monic_irreducible_quadratics(p: int) -> list[tuple[int, int]]:
    """(c0, c1) with x^2 + c1 x + c0 irreducible over F_p."""
    if p not in _IRRED_QUAD_CACHE:
        squares = {(a * a) % p for a in range(p)}
        out = []
        for c1 in range(p):
            for c0 in range(p):
                if (c1 * c1 - 4 * c0) % p not in squares:
                    out.append((c0, c1))
        _IRRED_QUAD_CACHE[p] = out
    return _IRRED_QUAD_CACHE[p]


def _irreducible_quad_table(p: int) -> np.ndarray:
    table = np.zeros((p, p), dtype=bool)
    for c0, c1 in monic_irreducible_quadratics(p):
        table[c0, c1] = True
    return table


def batch_generating_mask(coords: np.ndarray, p: int) -> np.ndarray:
    """Global generation of the mod-t coefficient tuples, vectorized.

    A tuple fails iff all sections vanish at some point of the line: a
    rational point (including infinity, i.e. all top coefficients zero) or a
    conjugate pair of quadratic points; the latter is only possible when
    every section is a scalar multiple of one monic irreducible quadratic.
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
        ok &= ~(match & _irreducible_quad_table(p)[h0, h1])
    return ok


def iter_base_chunks(F: SymmetricForm, e: int, budget: int | None = None):
    """Stream (codes, coords, values, generating) over the degree-zero space."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    total = p**width
    check_budget(total * (F.d + n + 2), budget, "degree-zero tuple scan")
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        coords = batch_digits(codes, p, width).reshape(-1, n + 1, e + 1)
        values = batch_eval_form(F, coords)
        gg = batch_generating_mask(coords, p)
        yield codes, coords, values, gg


@dataclass
class BaseScan:
    """Materialized degree-zero layer (small spaces only)."""

    p: int
    e: int
    coords: np.ndarray      # (N, n+1, e+1), smallest signed dtype holding p-1
    values: np.ndarray      # (N, de+1), same dtype
    generating: np.ndarray  # (N,) bool


_BASE_CACHE: dict[tuple, BaseScan] = {}
_BASE_CACHE_LIMIT = 2_200_000


def base_scan(F: SymmetricForm, e: int, budget: int | None = None) -> BaseScan:
    key = (F.key(), e)
    if key not in _BASE_CACHE:
        p, n = F.p, F.n
        total = p ** ((n + 1) * (e + 1))
        check_budget(
            total, min(_BASE_CACHE_LIMIT, 10**18 if budget is None else budget),
            "materialized tuple scan",
        )
        # int8 would wrap for p > 128 and send every later code negative
        dtype = np.min_scalar_type(-p)
        cs, vs, gs = [], [], []
        for _, coords, values, gg in iter_base_chunks(F, e, budget):
            cs.append(coords.astype(dtype))
            vs.append(values.astype(dtype))
            gs.append(gg)
        _BASE_CACHE[key] = BaseScan(
            p, e, np.concatenate(cs), np.concatenate(vs), np.concatenate(gs)
        )
    return _BASE_CACHE[key]


def mult_matrix(F: SymmetricForm, x0_coords: np.ndarray) -> np.ndarray:
    """Matrix of z -> z . grad F(x0) on degree-zero layers.

    x0_coords is (n+1, e+1); the matrix maps the (n+1)(e+1) coordinates of z
    (variable-major, then x-degree) to the de+1 coefficients of the product.
    """
    p, n = F.p, F.n
    e = x0_coords.shape[1] - 1
    de = F.d * e
    secs = tuple(JetPoly.from_ints(p, e, 0, x0_coords[j]) for j in range(n + 1))
    grads = gradient(F, secs)
    mat = np.zeros((de + 1, (n + 1) * (e + 1)), dtype=np.int64)
    for j in range(n + 1):
        g = grads[j].layer(0)
        for i in range(e + 1):
            col = j * (e + 1) + i
            for a, ga in enumerate(g):
                if ga and a + i <= de:
                    mat[a + i, col] = ga
    return mat


def mult_matrix_batch(F: SymmetricForm, coords: np.ndarray) -> np.ndarray:
    """``mult_matrix`` of every base point of a stack, without jet objects.

    coords has shape (N, n+1, e+1); the result (N, de+1, (n+1)(e+1)) holds
    each matrix in the same row and column order.  The partial derivatives
    are evaluated on the coefficient arrays directly from the gradient
    monomials.
    """
    p, n = F.p, F.n
    coords = coords.astype(np.int64)
    N, _, ec = coords.shape
    gdeg = (F.d - 1) * (ec - 1)
    mat = np.zeros((N, F.d * (ec - 1) + 1, n + 1, ec), dtype=np.int64)
    for j, mons in enumerate(_gradient_monomials(F)):
        g = np.zeros((N, gdeg + 1), dtype=np.int64)
        for exps, c in mons:
            term = np.ones((N, 1), dtype=np.int64)
            for k, ek in enumerate(exps):
                for _ in range(ek):
                    term = batch_poly_mul(term, coords[:, k, :], p)
            g += c * term
        g %= p
        for i in range(ec):
            mat[:, i : i + gdeg + 1, j, i] = g
    return mat.reshape(N, -1, (n + 1) * ec)


def fiber_chunks(F: SymmetricForm, coords: np.ndarray):
    """Stream (rows, L, image, rank) over a stack of base points, FIBER_CHUNK
    at a time.

    rows is the slice of ``coords`` covered; L the batched gradient maps;
    image the rref of each L^T, whose first rank rows are the canonical basis
    of the image of L (a subspace key), so dim ker L = L.shape[2] - rank.
    """
    for start in range(0, coords.shape[0], FIBER_CHUNK):
        rows = slice(start, start + FIBER_CHUNK)
        L = mult_matrix_batch(F, coords[rows])
        image, rank = linalg.rref_batch(L.transpose(0, 2, 1), F.p)
        yield rows, L, image, rank


def fiber_classes(F: SymmetricForm, coords: np.ndarray, values: np.ndarray):
    """Group base points by (value layer, image of z -> z . grad F(x0)).

    A base point's fiber enters the value and pair histograms only through
    its value v0 and the image of its gradient map (the kernel dimension and
    the annihilator are fixed by the image), so callers handle each class
    once, weighted by its size.  Returns ([(v0, image rref basis, count)],
    per-point image rank).
    """
    width = values.shape[1]
    classes: dict[bytes, list] = {}
    ranks = []
    for rows, _, image, rank in fiber_chunks(F, coords):
        keys = np.concatenate(
            [values[rows].astype(np.int64), rank[:, None], image.reshape(rank.size, -1)],
            axis=1,
        )
        # one opaque bytes item per row: far cheaper to sort than axis=0
        flat = keys.view(np.dtype((np.void, keys.shape[1] * keys.itemsize))).ravel()
        _, first, counts = np.unique(flat, return_index=True, return_counts=True)
        for i, count in zip(first, counts):
            entry = classes.setdefault(flat[i].tobytes(), [keys[i], 0])
            entry[1] += int(count)
        ranks.append(rank)
    out = []
    for key, count in classes.values():
        rank = int(key[width])
        out.append((key[:width], key[width + 1 :].reshape(-1, width)[:rank], count))
    return out, np.concatenate(ranks) if ranks else np.zeros(0, dtype=np.int64)


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
    method: str = "auto",
    workers: int | None = None,
) -> CountRecord:
    """#{x in P_{e,m}^(n+1) : x gg mod t, F(x) = 0}, normalized by
    p^((m+1)(mu+1)).

    At m = 0 the solutions come from the coefficient-layer lift, sharded
    into one contiguous slice of the cone (by the code of layer 0) per
    worker; shards are independent and reduce by integer addition, so
    worker count cannot change the result.
    """
    if F.p <= F.d:
        raise ValueError("need p > d")
    mu = moduli_dimension(F.n, F.d, e)
    exponent = (m + 1) * (mu + 1)
    if method == "slow":
        raw = _count_solutions_slow(F, e, m, budget)
    elif m == 0:
        from .parallel import default_workers, map_reduce

        p, n = F.p, F.n
        width = (n + 1) * (e + 1)
        total = p**width
        check_budget(total * (F.d + n + 2), budget, "degree-zero tuple scan")
        layers = p ** (n + 1)
        nshards = min(layers, default_workers() if workers is None else max(1, workers))
        edges = np.linspace(0, layers, nshards + 1, dtype=np.int64)
        shards = [
            (F.monomials_key(), F.p, F.n, F.d, e, int(lo), int(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        ]
        raw = map_reduce(_count_lift, shards, lambda a, b: a + b, 0, workers)
    else:
        raw = sum(count for _, count in _solution_fibers(F, e, m, budget))
    return _record(F, e, m, raw, exponent, "solutions")


def _count_lift(shard) -> int:
    mons, p, n, d, e, lo, hi = shard
    F = _form_from_key(mons, p, n, d)
    return sum(len(rows) for rows in _lift_solutions(F, e, lo, hi))


def _form_from_key(mons, p, n, d):
    from .forms import make_form

    return make_form(p, n, d, list(mons))


def _base_solutions(F: SymmetricForm, e: int, budget: int | None) -> np.ndarray:
    """Coordinates of the gg degree-zero solutions, stacked in code order
    (the order of the full scan)."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    check_budget(p**width * (F.d + n + 2), budget, "degree-zero tuple scan")
    x0s = np.concatenate([
        np.zeros((0, n + 1, e + 1), dtype=np.int64),
        *_lift_solutions(F, e, 0, p ** (n + 1)),
    ])
    return x0s[np.argsort(encode_digits(x0s.reshape(-1, width), p))]


def _base_solutions_slow(F: SymmetricForm, e: int, budget: int | None) -> np.ndarray:
    """The same rows from the full degree-zero scan (the lift's oracle)."""
    return np.concatenate([
        coords[gg & ~values.any(axis=1)]
        for _, coords, values, gg in iter_base_chunks(F, e, budget)
    ])


def _cone_blocks(F: SymmetricForm, lo: int, hi: int):
    """Stream the affine cone {a in F_p^(n+1) : F(a) = 0} over the layer
    codes [lo, hi), in code order, LIFT_CHUNK codes at a time."""
    for start in range(lo, hi, LIFT_CHUNK):
        codes = np.arange(start, min(start + LIFT_CHUNK, hi), dtype=np.int64)
        vecs = batch_digits(codes, F.p, F.n + 1)
        yield vecs[~batch_eval_form(F, vecs[:, :, None]).any(axis=1)]


def _lift(F: SymmetricForm, e: int, top: np.ndarray | None, rows: np.ndarray):
    """Extend (N, n+1, k) stacks of known layers 0..k-1 to all e+1 layers.

    Layer k < e runs over F_p^(n+1) and a candidate survives when the s^k
    coefficient of F, a function of the layers 0..k only, vanishes; layer e
    runs over the cone ``top``, since the s^(de) coefficient is F(x[:, e]).
    Parents expand in blocks, so no candidate stack exceeds LIFT_CHUNK rows,
    and the stages run depth first.  Yields the last-stage (N, n+1, e+1)
    stacks.
    """
    p, n = F.p, F.n
    k = rows.shape[2]
    if k > e:
        yield rows
        return
    size = top.shape[0] if k == e else p ** (n + 1)
    lstep = min(size, LIFT_CHUNK)
    pstep = LIFT_CHUNK // lstep
    for i in range(0, rows.shape[0], pstep):
        parents = rows[i : i + pstep]
        for lo in range(0, size, lstep):
            hi = min(lo + lstep, size)
            if k == e:
                layer = top[lo:hi]
            else:
                layer = batch_digits(np.arange(lo, hi, dtype=np.int64), p, n + 1)
            cand = np.empty((len(parents), hi - lo, n + 1, k + 1), dtype=np.int64)
            cand[..., :k] = parents[:, None]
            cand[..., k] = layer
            cand = cand.reshape(-1, n + 1, k + 1)
            if k < e:
                cand = cand[batch_eval_form(F, cand)[:, k] == 0]
            yield from _lift(F, e, top, cand)


def _lift_solutions(F: SymmetricForm, e: int, lo: int, hi: int):
    """Generating solutions whose layer 0 has its code in [lo, hi), one
    array per last-stage block of the lift (lift order, not code order)."""
    p, n = F.p, F.n
    # the generation mask refuses e >= 3; refuse before any work, also when
    # no candidate reaches the last stage
    batch_generating_mask(np.zeros((0, n + 1, e + 1), dtype=np.int64), p)
    top = np.concatenate(list(_cone_blocks(F, 0, p ** (n + 1)))) if e else None
    for base in _cone_blocks(F, lo, hi):
        for coords in _lift(F, e, top, base[:, :, None]):
            values = batch_eval_form(F, coords)
            gg = batch_generating_mask(coords, p)
            yield coords[gg & ~values.any(axis=1)]


def _solution_fibers(F: SymmetricForm, e: int, m: int, budget: int | None):
    """Yield (base point, fiber count) over gg solutions mod t^(m+1).

    Solutions are fibered over the degree-zero layer: layer x^j must solve
    L(x^j) = -c_j with L the multiplication-by-gradient map at the base and
    c_j the t^j coefficient of F on the lower layers.  Middle layers are
    enumerated inside the solution coset of L; the top layer contributes
    p^(dim ker L) whenever its constraint is consistent.
    """
    p = F.p
    x0s = _base_solutions(F, e, budget)
    for rows, Ls, _, ranks in fiber_chunks(F, x0s):
        for x0, L, rank in zip(x0s[rows], Ls, ranks):
            kerdim = L.shape[1] - int(rank)
            if m == 1:
                # the only layer-1 constraint is L(x^1) = 0
                yield x0, p**kerdim
                continue
            check_budget(
                p ** (kerdim * (m - 1)) * (m + 1), budget, "jet-layer fiber enumeration"
            )
            ker = linalg.nullspace(L, p)
            total = 0
            for count in _extend_layer_counts(F, e, m, [x0], L, ker, 1):
                total += count
            yield x0, total


def _extend_layer_counts(F, e, m, layers, L, ker, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    part = linalg.solve(L, (-c) % p, p)
    if part is None:
        return
    if depth == m:
        yield p ** ker.shape[0]
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        yield from _extend_layer_counts(F, e, m, layers + [layer], L, ker, depth + 1)


def _taylor_layer(F, e, m, layers, depth) -> np.ndarray:
    """t^depth coefficient of F on the tuple with the given known layers."""
    jets = _coords_to_jets(F, np.stack(layers), e, m)
    return np.array(eval_form(F, jets).layer(depth), dtype=np.int64)


def _coords_to_jets(F, layer_stack: np.ndarray, e: int, m: int) -> tuple[JetPoly, ...]:
    """Stack of (n+1, e+1) layer arrays -> tuple of JetPoly in P_{e,m}."""
    p, n = F.p, F.n
    nlay = layer_stack.shape[0]
    out = []
    for j in range(n + 1):
        jet_coeffs = []
        for i in range(e + 1):
            coeffs = [int(layer_stack[k, j, i]) for k in range(nlay)]
            coeffs += [0] * (m + 1 - nlay)
            jet_coeffs.append(Jet(p, coeffs))
        out.append(JetPoly(p, e, m, jet_coeffs))
    return tuple(out)


def _count_solutions_slow(F: SymmetricForm, e: int, m: int, budget: int | None) -> int:
    """Reference enumeration with exact jet arithmetic; exponential in m."""
    p, n = F.p, F.n
    width = (n + 1) * (e + 1)
    total = p ** (width * (m + 1))
    check_budget(total * (F.d + 1), budget, "slow jet enumeration")
    if m == 0:
        return len(_base_solutions_slow(F, e, budget))
    count = 0
    upper = p ** (width * m)
    for _, coords, _, gg in iter_base_chunks(F, e, budget):
        for x0 in coords[gg].astype(np.int64):
            for code in range(upper):
                digits = batch_digits(np.array([code]), p, width * m)[0]
                stack = [x0] + [
                    digits[k * width : (k + 1) * width].reshape(n + 1, e + 1)
                    for k in range(m)
                ]
                jets = _coords_to_jets(F, np.stack(stack), e, m)
                if eval_form(F, jets).is_zero():
                    count += 1
    return count


def solution_tuples(F: SymmetricForm, e: int, m: int, budget: int | None = None):
    """All gg tuples with F(x) = 0, as JetPoly tuples."""
    p = F.p
    if m == 0:
        for x0 in _base_solutions(F, e, budget):
            yield _coords_to_jets(F, x0[None], e, 0)
        return
    for x0 in _base_solutions(F, e, budget):
        L = mult_matrix(F, x0)
        ker = linalg.nullspace(L, p)
        check_budget(
            p ** (ker.shape[0] * m) * (m + 1), budget, "solution tuple enumeration"
        )
        yield from _extend_tuples(F, e, m, [x0], L, ker, 1)


def _extend_tuples(F, e, m, layers, L, ker, depth):
    p = F.p
    c = _taylor_layer(F, e, m, layers, depth)
    part = linalg.solve(L, (-c) % p, p)
    if part is None:
        return
    for kv in linalg.span_elements(ker, p):
        layer = ((part + kv) % p).reshape(layers[0].shape)
        if depth == m:
            yield _coords_to_jets(F, np.stack(layers + [layer]), e, m)
        else:
            yield from _extend_tuples(F, e, m, layers + [layer], L, ker, depth + 1)


def unfolded_mult_matrix(F: SymmetricForm, x0: tuple[JetPoly, ...]) -> np.ndarray:
    """F_p matrix of z -> z . grad F(x0) with z and value unfolded over jet
    layers; block lower triangular since the map is R_m-linear.

    Rows: (layer k, x-degree a) of the value.  Columns: (layer k', variable
    j, x-degree i) of z.
    """
    p, n = F.p, F.n
    e, m = x0[0].r, x0[0].m
    de = F.d * e
    grads = gradient(F, x0)
    glayers = [[grads[j].layer(k) for k in range(m + 1)] for j in range(n + 1)]
    nrows = (m + 1) * (de + 1)
    ncols = (m + 1) * (n + 1) * (e + 1)
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for kz in range(m + 1):
        for j in range(n + 1):
            for i in range(e + 1):
                col = (kz * (n + 1) + j) * (e + 1) + i
                for kg in range(m + 1 - kz):
                    for a, ga in enumerate(glayers[j][kg]):
                        if ga and a + i <= de:
                            mat[(kz + kg) * (de + 1) + a + i, col] = ga
    return mat


def count_tangent_pairs(
    F: SymmetricForm,
    e: int,
    m: int,
    budget: int | None = None,
    method: str = "auto",
) -> CountRecord:
    """#{(x0, x1) : x0 gg solution, x1 . grad F(x0) = 0 in P_{de,m}}.

    Normalization exponent is 2(m+1)(mu+1); x1 ranges over P_{e,m}^(n+1)
    and is counted through kernel dimensions.
    """
    if F.p <= F.d:
        raise ValueError("need p > d")
    mu = moduli_dimension(F.n, F.d, e)
    exponent = 2 * (m + 1) * (mu + 1)
    total = 0
    for x0 in solution_tuples(F, e, m, budget):
        if method == "slow":
            total += _tangent_fiber_slow(F, x0, budget)
        else:
            M = unfolded_mult_matrix(F, x0)
            total += F.p ** (M.shape[1] - linalg.rank(M, F.p))
    return _record(F, e, m, total, exponent, "tangent_pairs")


def _tangent_fiber_slow(F: SymmetricForm, x0, budget) -> int:
    """Enumerate x1 directly (oracle for the kernel count)."""
    from .sections import mul_sections

    p, n = F.p, F.n
    e, m = x0[0].r, x0[0].m
    size = section_space_size(p, e, m, n + 1)
    check_budget(size * (n + 1), budget, "tangent fiber enumeration")
    grads = gradient(F, x0)
    count = 0
    width = (e + 1) * (m + 1)
    for code in range(size):
        digits = batch_digits(np.array([code]), p, width * (n + 1))[0]
        val = None
        for j in range(n + 1):
            flat = digits[j * width : (j + 1) * width]
            layers = [flat[k * (e + 1) : (k + 1) * (e + 1)] for k in range(m + 1)]
            term = mul_sections(JetPoly.from_layers(p, e, m, layers), grads[j])
            val = term if val is None else val + term
        if val.is_zero():
            count += 1
    return count


def lw_trend(
    form_family,
    e: int,
    m: int,
    primes: list[int],
    budget: int | None = None,
    kind: str = "solutions",
) -> list[CountRecord]:
    """One exact count per prime; the normalized column is the quantity whose
    trend toward 1 reflects the expected dimension (reported, not asserted)."""
    out = []
    for p in primes:
        F = form_family(p)
        if kind == "tangent_pairs":
            out.append(count_tangent_pairs(F, e, m, budget))
        else:
            out.append(count_solutions(F, e, m, budget))
    return out


# ---------------------------------------------------------------------------
# multilinear-variety counts


def count_jet_multilinear(F: SymmetricForm, k: int, budget: int | None = None) -> int:
    """#{(x^(1)..x^(d-1)) over (F_p[t]/t^(k+1))^(n+1) : all Psi_j = 0}.

    Plain affine jet coordinates, no section structure.
    """
    p, n, d = F.p, F.n, F.d
    nvars = (k + 1) * (n + 1) * (d - 1)
    total = p**nvars
    check_budget(total * (n + 1) * (d - 1), budget, "jet multilinear count")
    count = 0
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        pts = batch_digits(codes, p, nvars).reshape(-1, d - 1, n + 1, k + 1)
        good = np.ones(codes.size, dtype=bool)
        for j in range(n + 1):
            good &= ~_psi_jet_batch(F, j, pts, k).any(axis=1)
            if not good.any():
                break
        count += int(good.sum())
    return count


def _psi_jet_batch(F: SymmetricForm, j: int, pts: np.ndarray, k: int) -> np.ndarray:
    """Psi_j on batched jet points; pts is (N, d-1, n+1, k+1) -> (N, k+1)."""
    import itertools as it

    p, n, d = F.p, F.n, F.d
    dfact = math.factorial(d) % p
    out = np.zeros((pts.shape[0], k + 1), dtype=np.int64)
    for idx in it.product(range(n + 1), repeat=d - 1):
        a = F.tensor_entry(idx + (j,))
        if a == 0:
            continue
        term = pts[:, 0, idx[0], :]
        for slot in range(1, d - 1):
            term = _jet_mul_batch(term, pts[:, slot, idx[slot], :], p)
        out = (out + a * term) % p
    return out * dfact % p


def _jet_mul_batch(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Truncated jet product on (..., k+1) coefficient arrays."""
    k = a.shape[-1] - 1
    out = np.zeros_like(a)
    for i in range(k + 1):
        for j2 in range(k + 1 - i):
            out[..., i + j2] += a[..., i] * b[..., j2]
    return out % p


def count_psi_zero_sections(
    F: SymmetricForm, e: int, s: int, k: int, budget: int | None = None
) -> int:
    """#{(x^(1)..x^(d-1)) in (P_{e-s,k}^(n+1))^(d-1) : all Psi_j = 0 as
    sections}."""
    p, n, d = F.p, F.n, F.d
    if not 0 <= s <= e:
        raise ValueError("need 0 <= s <= e")
    rdeg = e - s
    width = (n + 1) * (rdeg + 1) * (k + 1)
    nvars = width * (d - 1)
    total = p**nvars
    check_budget(total * (n + 1) * (d - 1), budget, "section multilinear count")
    count = 0
    for start in range(0, total, CHUNK):
        codes = np.arange(start, min(start + CHUNK, total), dtype=np.int64)
        pts = batch_digits(codes, p, nvars).reshape(-1, d - 1, n + 1, k + 1, rdeg + 1)
        good = np.ones(codes.size, dtype=bool)
        for j in range(n + 1):
            good &= ~_psi_section_batch(F, j, pts, k, rdeg).any(axis=(1, 2))
            if not good.any():
                break
        count += int(good.sum())
    return count


def _psi_section_batch(
    F: SymmetricForm, j: int, pts: np.ndarray, k: int, rdeg: int
) -> np.ndarray:
    """Psi_j on batched section tuples -> (N, k+1, (d-1)*rdeg+1)."""
    import itertools as it

    p, n, d = F.p, F.n, F.d
    dfact = math.factorial(d) % p
    out = np.zeros((pts.shape[0], k + 1, (d - 1) * rdeg + 1), dtype=np.int64)
    for idx in it.product(range(n + 1), repeat=d - 1):
        a = F.tensor_entry(idx + (j,))
        if a == 0:
            continue
        term = pts[:, 0, idx[0], :, :]
        for slot in range(1, d - 1):
            term = _section_mul_batch(term, pts[:, slot, idx[slot], :, :], p)
        out[:, : term.shape[1], : term.shape[2]] += a * term
        out %= p
    return out * dfact % p


def _section_mul_batch(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Product of section batches: convolution in x-degree, truncated
    convolution in the jet layer."""
    k = a.shape[-2] - 1
    ra = a.shape[-1] - 1
    rb = b.shape[-1] - 1
    out = np.zeros(a.shape[:-2] + (k + 1, ra + rb + 1), dtype=np.int64)
    for ka in range(k + 1):
        for kb in range(k + 1 - ka):
            for i in range(ra + 1):
                for j2 in range(rb + 1):
                    out[..., ka + kb, i + j2] += a[..., ka, i] * b[..., kb, j2]
    return out % p
