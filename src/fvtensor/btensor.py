"""Function-valued tensors: unfoldings, mode products, Tucker machinery.

A function-valued tensor of shape ``(n_1, ..., n_d)`` over a Hilbert space
of coefficient dimension ``h`` is a :class:`~fvtensor.bmatrix.BTensor`,
stored as an ndarray of shape ``dims + (h,)``; a function-valued matrix is
the case ``d = 2``, and every function here serves it too.  Composite
("long") indices are big-endian everywhere: the first tensor index varies
slowest, which is numpy's C order, so unfoldings are plain reshapes.
"""

import math
import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .bmatrix import (
    BTensor,
    DEFAULT_TOL,
    _canonical_index_set,
    _fiber_rows,
    _grid_indices,
    _pinv_solve,
    _r_factor,
    _sigma_v,
)

SLAB = 1 << 16  # floats per slab (512 KB): a slab and its copies stay in L2


def _cuts(A, m):
    """Slices of mode ``m`` that cut ``A`` into slabs of about ``SLAB``
    floats each (at least one index), in index order.  Every pass over a
    dense tensor reads it slab by slab, so its temporaries are slab-sized,
    never the size of the tensor.  A 1-way tensor has no other mode to cut
    its mode-0 pass along: ``m = d`` names none, and gives one slab, the
    whole tensor."""
    if m == A.d:
        return [slice(None)]
    n = A.dims[m]
    step = max(1, SLAB * n // max(A.data.size, 1))
    return [slice(s, s + step) for s in range(0, n, step)]


def _whitened_slabs(A, m):
    """The slabs of ``A`` cut along mode ``m``, each whitened as it is cut."""
    head = (slice(None),) * m
    for cut in _cuts(A, m):
        yield A.ip.whiten(A.data[head + (cut,)])


def fro_norm(A):
    """l2(H) norm: root of the sum of squared entry H-norms, added as
    ``w @ w`` over the whitened slabs ``w`` of ``A``."""
    sq = 0.0
    for w in _whitened_slabs(A, 0):
        w = w.reshape(-1)
        sq += float(w @ w)
    return float(np.sqrt(sq))


def unfold(A, k):
    """Mode-``k`` unfolding as an ``n_k x prod(other dims)`` 2-way BTensor.

    Columns are the mode-``k`` fibers, ordered by the big-endian composite
    of the remaining indices in their original mode order.
    """
    d = A.d
    if not 0 <= k < d:
        raise IndexError(f"mode {k} out of range for order {d}")
    nk = A.dims[k]
    mat = np.moveaxis(A.data, k, 0).reshape(nk, -1, A.h)
    return BTensor(mat, A.ip)


def _mode_matmul(T, k, B):
    """Mode-``k`` product of the array ``T`` with the scalar matrix ``B``:
    one batched ``matmul`` on the ``(N, n_k, rest)`` view of ``T``, which
    transposes nothing."""
    n = T.shape
    view = T.reshape(math.prod(n[:k]), n[k], math.prod(n[k + 1:]))
    return np.matmul(B, view).reshape(n[:k] + (len(B),) + n[k + 1:])


def mode_mul(A, k, B):
    """Mode-``k`` product with a scalar matrix ``B`` of shape ``(p, n_k)``."""
    B = np.asarray(B, dtype=float)
    if not 0 <= k < A.d:
        raise IndexError(f"mode {k} out of range for order {A.d}")
    if B.ndim != 2 or B.shape[1] != A.dims[k]:
        raise ValueError(
            f"matrix of shape {B.shape} cannot act on mode {k} of size {A.dims[k]}"
        )
    return BTensor(_mode_matmul(A.data, k, B), A.ip)


def tucker_rank(A, tol_rel=DEFAULT_TOL):
    """Tuple of the numerical ranks of the mode unfoldings, read off the
    factor passes of :func:`hosvd`: ``sigmas[k]`` is the spectrum of ``A``
    projected on the factors of the modes before ``k``, which at the
    ``tol_rel`` ranks drops nothing above ``tol_rel`` times the largest
    singular value, so its numerical rank is the unfolding's.  For a
    matrix this is its (row rank, column rank)."""
    return tuple(s.size for s in _st_hosvd(A, tol_rel)[0])


@dataclass
class TuckerDecomp:
    """Tucker decomposition: a core tensor and per-mode scalar factors."""

    core: BTensor
    factors: list


@dataclass
class TuckerCrossModel:
    """Tucker-cross approximation: core subtensor plus solved factors.

    ``index_sets`` are canonically sorted; ``core`` equals the sampled
    subtensor at those sets and ``factors[k]`` has shape
    ``(n_k, len(index_sets[k]))`` with the sampled rows pinned to unit
    vectors, so the assembled approximant interpolates the core exactly.

    ``r_factors[k]`` is the triangular factor of the whitened mode-``k``
    fiber slab that :func:`tucker_cross` folded in, at most
    ``n_k x n_k``; a later call given this model as ``prev`` folds only
    the new fibers into it.  ``ranks[k]`` is the numerical rank of
    ``r_factors[k][:, index_sets[k]]``, the truncation of the
    pseudoinverse that solved factor ``k``.  That matrix has the singular
    values of the whitened core's mode-``k`` matrix, so ``ranks`` is the
    core's :func:`tucker_rank` at the same ``tol_rel``, and
    :func:`~fvtensor.aca.abc_sweeps` reports it as ``rank_history``.
    Both are ``None`` on a model built otherwise (e.g. loaded from disk),
    are not saved, and take no part in comparisons.
    """

    index_sets: tuple
    core: BTensor
    factors: list
    dims: tuple
    r_factors: list = field(default=None, repr=False, compare=False)
    ranks: tuple = field(default=None, repr=False, compare=False)

    @property
    def ip(self):
        return self.core.ip


def _fresh_grids(sets, old):
    """Disjoint product grids covering the product of ``sets`` minus the
    product of ``old``.

    ``old is None`` stands for the empty product, so the one grid is the
    whole of ``sets``.  Otherwise the grids are, for each mode ``m``, the
    product of ``old`` before ``m``, ``sets[m] - old[m]`` at ``m`` and
    ``sets`` after it; a mode whose set did not grow contributes none.
    With the whole mode-``k`` range at ``k`` in both, the grids hold the
    mode-``k`` fibers over ``sets`` that are not fibers over ``old``.
    """
    if old is None:
        return [list(sets)]
    grids = []
    for m in range(len(sets)):
        fresh = sorted(set(sets[m]) - set(old[m]))
        if fresh:
            grids.append([old[l] if l < m else fresh if l == m else sets[l]
                          for l in range(len(sets))])
    return grids


def _grown_core(source, sets, prev, old):
    """Core subtensor at ``sets``: ``prev``'s core where it lies inside,
    and one gather per :func:`_fresh_grids` grid elsewhere."""
    blocks = [] if prev is None else [(old, prev.core.data)]
    blocks += [(g, source.gather(g)) for g in _fresh_grids(sets, old)]
    data = np.empty(tuple(len(I) for I in sets) + (source.ip.h,))
    for grids, block in blocks:
        at = [np.searchsorted(I, g) for I, g in zip(sets, grids)]
        data[np.ix_(*at)] = block
    return BTensor(data, source.ip)


def _old_sets(prev, source, sets):
    """Index sets of ``prev``, checked to be foldable into ``sets``."""
    if prev is None:
        return None
    if prev.r_factors is None:
        raise ValueError("prev carries no folded R factors; pass a model "
                         "tucker_cross returned")
    if tuple(prev.dims) != tuple(source.dims) or prev.ip != source.ip:
        raise ValueError("prev was built on a different tensor or geometry")
    for k, (I0, I) in enumerate(zip(prev.index_sets, sets)):
        if not set(I0) <= set(I):
            raise ValueError(f"prev mode-{k} index set is not a subset "
                             "of the new one")
    return prev.index_sets


def tucker_cross(source, index_sets, tol_rel=DEFAULT_TOL, prev=None):
    """Tucker-cross approximation of ``source`` at the given index sets.

    The core is the sampled subtensor.  Factor ``k`` solves the
    transposed core unfolding against the mode-``k`` fiber slab through
    the applied pseudoinverse.  In whitened coordinates the core
    unfolding is the slab's own columns at ``index_sets[k]``, so with the
    slab ``Q R`` the factor is ``pinv(R[:, I_k]) R`` (truncated as in
    :func:`~fvtensor.bmatrix.pinv_apply`), and only the triangular factor
    ``R`` is kept.  Each entry is read once: given the model ``prev`` of
    smaller index sets, only the fibers that are new at ``index_sets``
    are gathered, whitened and folded into ``prev``'s ``R`` by TSQR over
    ``R`` and their rows, read block by block as they are gathered
    (:func:`~fvtensor.bmatrix._r_factor`; the stack is never formed), and
    the core is ``prev``'s core plus the entries with a new index in some
    mode.  Without ``prev`` every fiber is folded into an empty ``R``.
    Only entries inside the cross (the core and the per-mode slabs) are
    accessed, so ``source`` may be a lazy oracle.  The solve of factor
    ``k`` counts the numerical rank of ``R[:, I_k]``; the model keeps the
    counts as ``ranks``.  A ``prev`` whose sets are not subsets of
    ``index_sets``, or that carries no ``R``, is a ``ValueError``.
    """
    dims = tuple(source.dims)
    sets = tuple(tuple(_canonical_index_set(I, dims[k], f"mode-{k}"))
                 for k, I in enumerate(index_sets))
    old = _old_sets(prev, source, sets)
    core = _grown_core(source, sets, prev, old)
    factors = []
    r_factors = []
    ranks = []
    for k, n_k in enumerate(dims):
        R = np.empty((0, n_k)) if prev is None else prev.r_factors[k]
        full = (range(n_k),)
        fibers = _fresh_grids(
            sets[:k] + full + sets[k + 1:],
            None if old is None else old[:k] + full + old[k + 1:])
        if fibers:
            R = _r_factor(chain([R], (
                _fiber_rows(source.ip.whiten(source.gather(grids)), k)
                for grids in fibers)))
        I = list(sets[k])
        solved, rank = _pinv_solve(R[:, I], R, tol_rel)
        Fk = np.ascontiguousarray(solved.T)
        Fk[I] = np.eye(len(I))
        factors.append(Fk)
        r_factors.append(R)
        ranks.append(rank)
    return TuckerCrossModel(index_sets=sets, core=core, factors=factors,
                            dims=dims, r_factors=r_factors,
                            ranks=tuple(ranks))


def _contract(T, mats):
    """``T`` times ``mats[k]`` along each mode ``k`` whose ``mats[k]`` is
    not ``None``, each by :func:`_mode_matmul`: the one chain of mode
    products.  Contracting mode ``k`` scales the array by
    ``len(mats[k]) / r_k`` for its size ``r_k`` there, so the modes are
    contracted in ascending order of that ratio (ties in mode order; a
    rank-0 mode last, the array being empty until then), and no
    intermediate is larger than both ``T`` and the result."""
    ratio = {k: len(M) / T.shape[k] if T.shape[k] else np.inf
             for k, M in enumerate(mats) if M is not None}
    for k in sorted(ratio, key=ratio.__getitem__):
        T = _mode_matmul(T, k, mats[k])
    return T


def model_gather(model, grids):
    """Entries of the assembled model on a product grid, without assembling.

    ``grids`` holds one index list per mode; the result has shape
    ``(len(grids[0]), ..., len(grids[d-1]), h)``: the core contracted
    with the factor rows at the grids (:func:`_contract`), so a single
    fiber against a large core never forms the core's full width at the
    fiber's length.  The grid is checked as in :meth:`BTensor.gather`.
    """
    rows = _grid_indices(grids, [F.shape[0] for F in model.factors])
    return _contract(model.core.data,
                     [F[g] for F, g in zip(model.factors, rows)])


def assemble(model):
    """Materialize a Tucker(-cross) model as a dense BTensor."""
    full = [np.arange(F.shape[0]) for F in model.factors]
    return BTensor(model_gather(model, full), model.core.ip)


@dataclass
class HosvdResult:
    """HOSVD output: decomposition, per-mode spectra, achieved ranks."""

    decomp: TuckerDecomp
    sigmas: list
    ranks: tuple
    clamped: bool


def _st_hosvd(A, tol_rel):
    """Spectra and factors of the sequentially truncated HOSVD of ``A`` at
    the ``tol_rel`` ranks, and the buffer its core is read from.

    The modes are taken in index order, and mode ``k`` is factored from
    ``A`` already projected on the factors of the modes before it
    (Vannieuwenhoven, Vandebril & Meerbergen, SISC 34(2), 2012), by TSQR
    (:func:`~fvtensor.bmatrix._sigma_v`).  Below the last mode that
    projection is never stored: each slab cut along the last mode holds
    whole mode-``k`` fibers, and is contracted with the transposed factors
    found so far (:func:`_contract`), whitened and read as row blocks of
    its mode-``k`` matrix.  The one buffer is ``A`` contracted with every
    factor but the last, so it has ``n_(d-1)`` at mode ``d-1`` and the
    ranks elsewhere; it is filled slab by slab, and the last factor is
    read off its TSQR over slabs cut along mode 0.  A 1-way tensor has no
    other mode, and its buffer is the tensor itself.  Only a zero tensor
    has a mode of rank 0; it leaves nothing to factor, so every later mode
    gets an empty spectrum and factor.
    """
    d = A.d
    m = d - 1
    head = (slice(None),) * m
    Vt = [None] * d
    sigmas = []

    def factor(k, rows):
        if sigmas and not sigmas[-1].size:
            sigma, V = sigmas[-1], np.empty((A.dims[k], 0))
        else:
            sigma, V = _sigma_v(rows, tol_rel)
        sigmas.append(sigma)
        Vt[k] = V.T

    def projected():
        for cut in _cuts(A, m):
            yield cut, _contract(A.data[head + (cut,)], Vt)

    for k in range(m):
        factor(k, (_fiber_rows(A.ip.whiten(P), k) for _, P in projected()))
    buf = A.data
    if m:
        buf = np.empty([len(V) for V in Vt[:m]] + [A.dims[m], A.h])
        for cut, P in projected():
            buf[head + (cut,)] = P
    factor(m, (_fiber_rows(w, m) for w in
               _whitened_slabs(BTensor(buf, A.ip), 0 if m else d)))
    return sigmas, [V.T for V in Vt], buf


def _check_ranks(ranks, d):
    """``ranks`` as a list of one nonnegative integer per mode of a
    ``d``-way tensor; anything else is a ``ValueError``."""
    try:
        ranks = [operator.index(r) for r in ranks]
    except TypeError:
        raise ValueError(f"ranks must be integers, got {ranks!r}") from None
    if len(ranks) != d or any(r < 0 for r in ranks):
        raise ValueError(f"need {d} nonnegative ranks, got {tuple(ranks)}")
    return ranks


def hosvd(A, ranks=None, tol_rel=DEFAULT_TOL):
    """Higher-order SVD truncated to the requested rank tuple.

    The factors, spectra and core are those of the sequentially truncated
    HOSVD at the ``tol_rel`` ranks (:func:`_st_hosvd`), cut to the
    requested ranks, so they are the truncated factors of the untruncated
    HOSVD.  ``sigmas[k]`` is the spectrum of ``A`` projected on the
    factors of the modes before ``k``.  Those factors drop only singular
    values at or below ``tol_rel`` times the largest one, so at the
    default ``tol_rel`` the spectra, factors and core equal the plain
    HOSVD's, whose spectra are the unfoldings', up to round-off.  Each
    mode's factor collects the leading right singular vectors of the
    transposed unfolding, taken with its singular values from the
    triangular factor of the whitened matrix (no left singular vectors
    are formed), and each factor column has its entry of largest magnitude
    positive, so the factors do not depend on the QR path.  The core is
    the tensor contracted with the transposed factors: the buffer's
    leading block times the last factor, one product.  So no product the
    size of a large share of the tensor is formed.
    Requested ranks above the numerical rank are clamped (and reported),
    never an error; ranks that are not one nonnegative integer per mode
    are a ``ValueError``.  The per-mode
    singular value vectors are returned whole, so the quasi-optimality
    bound can be evaluated.
    """
    d = A.d
    ranks = _check_ranks(A.dims if ranks is None else ranks, d)
    sigmas, factors, buf = _st_hosvd(A, tol_rel)
    achieved = [min(r, s.size) for r, s in zip(ranks, sigmas)]
    factors = [V[:, :r] for V, r in zip(factors, achieved)]
    kept = tuple(slice(r) for r in achieved[:-1])
    core = _contract(buf[kept], [None] * (d - 1) + [factors[-1].T])
    decomp = TuckerDecomp(core=BTensor(core, A.ip), factors=factors)
    return HosvdResult(decomp=decomp, sigmas=sigmas, ranks=tuple(achieved),
                       clamped=achieved != ranks)


def hosvd_error(res, ranks):
    """l2(H) error of the HOSVD ``res`` truncated to ``ranks``, from its core.

    ``res`` is an untruncated HOSVD, ``hosvd(A)``.  Its factors are
    orthonormal, so the error of keeping the leading ``ranks`` block is
    the l2(H) norm of the core outside that block (De Lathauwer, De Moor
    & Vandewalle, SIMAX 21(4), 2000): the sum of the squared entry norms
    over the ``d`` disjoint slabs ``C[:r_1, ..., :r_(k-1), r_k:, ...]``.
    It is exact up to the numerical-rank tail that ``hosvd`` drops, and
    no entry of ``A`` is read.  Ranks above the core's size keep the
    whole mode.  ``fvt compare`` scores its sweep models against the same
    reference: :func:`error_norm` of the core and the model's factors
    mapped by ``U_k^T``, so both of its error columns share it.
    """
    C = res.decomp.core
    ranks = _check_ranks(ranks, C.d)
    sq = 0.0
    for k in range(C.d):
        kept = tuple(slice(r) for r in ranks[:k])
        slab = C.data[kept + (slice(ranks[k], None),)]
        sq += float(np.sum(C.ip.pair(slab, slab)))
    return float(np.sqrt(sq))


def hosvd_error_bound(sigmas, ranks):
    """Root of the summed squared discarded singular values.

    ``sigmas`` are :func:`hosvd`'s: ``sigmas[k]`` is the spectrum of the
    tensor projected on the factors of the modes before ``k``, which at
    the default ``tol_rel`` equals the mode-``k`` unfolding's up to
    round-off, so this is the bound of De Lathauwer, De Moor &
    Vandewalle on the error of the truncated HOSVD.  ``ranks`` must be
    one nonnegative integer per mode, as for :func:`hosvd`."""
    tail = 0.0
    for s, r in zip(sigmas, _check_ranks(ranks, len(sigmas))):
        t = s[r:]
        tail += float(t @ t)
    return float(np.sqrt(tail))


def error_norm(A, model):
    """l2(H) norm of ``A`` minus a Tucker(-cross) model.

    The difference is formed one slab of ``A`` cut along the second mode
    at a time (:func:`_cuts`), so the approximant is never materialized
    at full size.  For the slab at the mode-1 indices ``b`` the core is
    contracted with the factors, ``F_1[b]`` at mode 1 (:func:`_contract`),
    into one slab-sized array, from which the slab of ``A`` is subtracted
    in place.  Each slab adds ``w @ w`` for its whitened difference ``w``:
    one BLAS dot, and no Gram product once the Gram is the identity.
    A model whose factor rows or coefficient length differ from ``A``'s
    dims or ``h`` is a ``ValueError``; the Gram is not compared, so a
    model may be scored under another geometry than its own.
    """
    shape = tuple(len(F) for F in model.factors) + (model.core.h,)
    if shape != A.data.shape:
        raise ValueError(f"model of shape {shape} cannot be scored against "
                         f"a tensor of shape {A.data.shape}")
    sq = 0.0
    for cut in _cuts(A, 1):
        M = _contract(model.core.data, [F[cut] if k == 1 else F
                                        for k, F in enumerate(model.factors)])
        np.subtract(M, A.data[:, cut], out=M)
        w = A.ip.whiten(M).reshape(-1)
        sq += float(w @ w)
    return float(np.sqrt(sq))


def relative_error(A, model):
    """Relative l2(H) error of a Tucker(-cross) model against ``A``."""
    den = fro_norm(A)
    if den <= 0.0:
        raise ValueError("reference tensor is zero")
    return error_norm(A, model) / den
