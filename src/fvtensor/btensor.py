"""Function-valued tensors: unfoldings, mode products, Tucker machinery.

A function-valued tensor of shape ``(n_1, ..., n_d)`` over a Hilbert space
of coefficient dimension ``h`` is a :class:`~fvtensor.bmatrix.BTensor`,
stored as an ndarray of shape ``dims + (h,)``; a function-valued matrix is
the case ``d = 2``, and every function here serves it too.  Composite
("long") indices are big-endian everywhere: the first tensor index varies
slowest, which is numpy's C order, so unfoldings are plain reshapes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bmatrix import (
    BTensor,
    DEFAULT_TOL,
    _canonical_sets,
    _fold,
    _grid_indices,
    _integer,
    _pinv_solve,
    _sigma_v,
    _tolerance,
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


def _slabs(A, m):
    """The slabs of ``A`` cut along mode ``m`` (:func:`_cuts`), in order."""
    head = (slice(None),) * m
    for cut in _cuts(A, m):
        yield A.data[head + (cut,)]


def fro_norm(A):
    """l2(H) norm: root of the sum of squared entry H-norms, added as
    ``w @ w`` over the whitened slabs ``w`` of ``A``."""
    sq = 0.0
    for slab in _slabs(A, 0):
        w = A.ip.whiten(slab).reshape(-1)
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
    factor passes of :func:`hosvd` (:func:`_st_hosvd`, whose buffer it
    fills, and no core): ``sigmas[k]`` is the spectrum of ``A``
    projected on the factors of the modes before ``k``, which at the
    ``tol_rel`` ranks drops nothing above ``tol_rel`` times the largest
    singular value, so its numerical rank is the unfolding's.  For a
    matrix this is its (row rank, column rank).  A ``tol_rel`` outside
    ``[0, 1)`` is a ``ValueError``
    (:func:`~fvtensor.bmatrix._tolerance`)."""
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

    ``fiber_sets[l]``, a subset of ``index_sets[l]``, holds the mode-``l``
    indices the fibers were read through: ``r_factors[k]``, at most
    ``n_k x n_k``, is the triangular factor that :func:`tucker_cross`
    folded the whitened slab of the mode-``k`` fibers into, those whose
    index in every other mode ``l`` lies in ``fiber_sets[l]``, on top of
    the factor it started from (its ``r_factors`` argument, which holds
    any other mode-``k`` fibers, such as a scan's); a later call given
    this model as ``prev`` folds only the new fibers into it.
    ``ranks[k]`` is the numerical rank of ``r_factors[k][:, index_sets[k]]``
    over every fiber folded into it, the truncation of the pseudoinverse
    that solved factor ``k``.  With the slab alone its rows are those of
    the whitened core's mode-``k`` matrix through ``fiber_sets``, so
    ``ranks[k]`` is at most the core's :func:`tucker_rank` at the same
    ``tol_rel``, and equal to it when the fibers run through the whole
    ``index_sets`` or when ``ranks[k] == len(index_sets[k])``.  Fibers off
    the core can raise it past the core's Tucker rank, never past
    ``len(index_sets[k])``; :func:`~fvtensor.aca.abc_sweeps` reports it as
    ``rank_history``.
    The three are ``None`` on a model built otherwise (e.g. loaded from
    disk), are not saved, and take no part in comparisons.
    """

    index_sets: tuple
    core: BTensor
    factors: list
    dims: tuple
    r_factors: list = field(default=None, repr=False, compare=False)
    ranks: tuple = field(default=None, repr=False, compare=False)
    fiber_sets: tuple = field(default=None, repr=False, compare=False)

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


def _subsets(small, large, what):
    """``ValueError`` unless each ``small[k]`` is a subset of ``large[k]``;
    ``what`` names the two for the message."""
    for k, (S, L) in enumerate(zip(small, large)):
        if not set(S) <= set(L):
            raise ValueError(f"mode-{k} {what}")


def _old_sets(prev, source, sets, fibers):
    """Index and fiber sets of ``prev``, checked to be foldable into
    ``sets`` and ``fibers``; ``(None, None)`` without ``prev``."""
    if prev is None:
        return None, None
    if prev.r_factors is None or prev.fiber_sets is None:
        raise ValueError("prev carries no folded R factors or fiber sets; "
                         "pass a model tucker_cross returned")
    if tuple(prev.dims) != tuple(source.dims) or prev.ip != source.ip:
        raise ValueError("prev was built on a different tensor or geometry")
    _subsets(prev.index_sets, sets,
             "index set of prev is not a subset of the new one")
    _subsets(prev.fiber_sets, fibers,
             "fiber set of prev is not a subset of the new one")
    return prev.index_sets, prev.fiber_sets


def _start_factors(r_factors, prev, dims):
    """The triangular factors the new fibers are folded onto: ``r_factors``,
    else ``prev``'s, else empty ones; a ``ValueError`` unless there is one
    real matrix with ``n_k`` columns per mode."""
    if r_factors is None:
        return ([np.empty((0, n)) for n in dims] if prev is None
                else prev.r_factors)
    r_factors = list(r_factors)
    if len(r_factors) != len(dims) or not all(
            isinstance(R, np.ndarray) and R.ndim == 2 and R.shape[1] == n
            and np.isrealobj(R) for R, n in zip(r_factors, dims)):
        raise ValueError("r_factors must hold one real matrix with n_k "
                         "columns per mode")
    return r_factors


def tucker_cross(source, index_sets, tol_rel=DEFAULT_TOL, prev=None,
                 fiber_sets=None, r_factors=None):
    """Tucker-cross approximation of ``source`` at the given index sets.

    The core is the sampled subtensor.  Factor ``k`` solves the
    transposed core unfolding against the mode-``k`` fiber slab through
    the applied pseudoinverse.  The slab holds the mode-``k`` fibers
    whose index in every other mode ``l`` lies in ``fiber_sets[l]``, a
    subset ``J_l`` of ``index_sets[l]`` (``None``: the index sets
    themselves, every fiber through the core), and the core unfolding is
    cut to the same rows (Caiafa & Cichocki, LAA 433, 2010).  In whitened
    coordinates those rows are the slab's own columns at ``index_sets[k]``,
    so with the slab ``Q R`` the factor is ``pinv(R[:, I_k]) R``
    (truncated as in :func:`~fvtensor.bmatrix.pinv_apply`), and only the
    triangular factor ``R`` is kept.  The factor holds for any set of
    mode-``k`` fibers, so ``R`` may fold fibers read elsewhere too: given
    ``r_factors``, one real matrix with ``n_k`` columns per mode (the
    triangular factor of such fibers' whitened rows), the slab is folded
    onto ``r_factors[k]``.  Each entry is read once: given the model
    ``prev`` of smaller index and fiber sets, only the fibers that are
    new through ``fiber_sets`` are gathered and folded into ``prev``'s
    ``R``, or into ``r_factors[k]`` in its place (which should then hold
    ``prev``'s fibers), one gathered block at a time
    (:func:`~fvtensor.bmatrix._fold`), and the core is ``prev``'s core
    plus the entries with a new index in some mode.  Without ``prev``
    every slab fiber is folded into ``r_factors[k]``, or into an empty
    ``R``.  The same arguments give
    the same bytes.  Only entries inside the cross (the core and the
    per-mode slabs) are accessed, so ``source`` may be a lazy oracle.  The
    solve of factor ``k`` counts the numerical rank of ``R[:, I_k]``; the
    model keeps the counts as ``ranks``, and the fiber sets as
    ``fiber_sets``.  Index sets not one per mode, a fiber set that is not
    a subset of its index set, a ``prev`` whose index or fiber sets are
    not subsets of the new ones, a ``prev`` that carries no ``R`` or
    fiber sets, ``r_factors`` not one real matrix with ``n_k`` columns
    per mode, or a ``tol_rel`` outside ``[0, 1)``
    (:func:`~fvtensor.bmatrix._tolerance`), is a ``ValueError`` before
    any read.
    """
    tol_rel = _tolerance(tol_rel)
    dims = tuple(source.dims)
    sets = _canonical_sets(index_sets, dims, "index")
    J = (sets if fiber_sets is None
         else _canonical_sets(fiber_sets, dims, "fiber"))
    _subsets(J, sets, "fiber set is not a subset of its index set")
    old, old_J = _old_sets(prev, source, sets, J)
    start = _start_factors(r_factors, prev, dims)
    core = _grown_core(source, sets, prev, old)
    factors = []
    folded = []
    ranks = []
    for k, n_k in enumerate(dims):
        R = start[k]
        full = (range(n_k),)
        fibers = _fresh_grids(
            J[:k] + full + J[k + 1:],
            None if old is None else old_J[:k] + full + old_J[k + 1:])
        if fibers:
            R = _fold(R, source.ip, k, map(source.gather, fibers))
        I = list(sets[k])
        solved, rank = _pinv_solve(R[:, I], R, tol_rel)
        Fk = np.ascontiguousarray(solved.T)
        Fk[I] = np.eye(len(I))
        factors.append(Fk)
        folded.append(R)
        ranks.append(rank)
    return TuckerCrossModel(index_sets=sets, core=core, factors=factors,
                            dims=dims, r_factors=folded,
                            ranks=tuple(ranks), fiber_sets=J)


def _contract(T, mats):
    """``T`` times ``mats[k]`` along each mode ``k`` whose ``mats[k]`` is
    not ``None``, each by :func:`_mode_matmul`: the one chain of mode
    products that keeps the modes in order (the HOSVD's, which also move
    a mode first, are :func:`_leading`'s).  Contracting mode ``k`` scales
    the array by
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


def _leading(T, k, Vt, out=None):
    """The slab ``T`` with mode ``k`` moved first and each mode ``l < k``
    contracted with ``Vt[l]``: shape ``(n_k, r_0, ..., r_(k-1), ...)``
    for the size ``n_k`` of ``T`` at mode ``k``.  The modes are contracted
    in index order, mode ``l`` by one ``np.matmul`` broadcast over mode
    ``l + 1`` on a transposed view, whose output has mode ``l + 1``
    leading; so no axis is moved by a copy, and at ``k = 0`` this is
    ``T`` itself.  (The first product's view is a copy only where a slab
    is cut along a mode behind another kept one, which takes order 4.)
    The last product is written into ``out`` when it is given."""
    for l in range(k):
        n = T.shape
        p, q, r = math.prod(n[1:l + 1]), math.prod(n[l + 2:]), len(Vt[l])
        lead = out if l == k - 1 and out is not None else np.empty(
            (n[l + 1],) + n[1:l + 1] + (r,) + n[l + 2:])
        np.matmul(Vt[l], T.reshape(n[0], p, n[l + 1], q).transpose(2, 1, 0, 3),
                  out=lead.reshape(n[l + 1], p, r, q))
        T = lead
    return T


def _st_hosvd(A, tol_rel):
    """Spectra and factors of the sequentially truncated HOSVD of ``A`` at
    the ``tol_rel`` ranks, and the buffer its core is read from.

    The modes are taken in index order, and mode ``k`` is factored from
    ``A`` already projected on the factors of the modes before it
    (Vannieuwenhoven, Vandebril & Meerbergen, SISC 34(2), 2012): its slabs,
    each with mode ``k`` leading, are folded at mode 0 into an empty
    triangular factor (:func:`~fvtensor.bmatrix._fold`), whose spectrum
    and right singular vectors :func:`~fvtensor.bmatrix._sigma_v` reads.
    So every row block TSQR reads is a view of a whitened slab, and no
    slab is copied only to put the mode first.  Below the last mode the
    projection is never stored: mode ``k`` reads the slabs cut along mode
    ``k + 1``, which hold whole fibers of modes ``0 ... k``, each
    contracted with the transposed factors found so far, mode ``k`` first
    (:func:`_leading`; mode 0 reads ``A``'s own slabs).  The one buffer is
    ``A`` contracted with every factor but the last, stored with the last
    mode leading, ``(n_(d-1), r_0, ..., r_(d-2), h)``, and filled slab by
    slab; the last factor is read off its slabs cut along its axis 1.  A
    1-way tensor has no other mode, and its buffer is the tensor itself,
    read as one slab.  Only a
    zero tensor has a mode of rank 0; it leaves nothing to factor, so every
    later mode gets an empty spectrum and factor.  A ``tol_rel`` outside
    ``[0, 1)`` is a ``ValueError`` before any pass
    (:func:`~fvtensor.bmatrix._tolerance`).
    """
    tol_rel = _tolerance(tol_rel)
    d = A.d
    m = d - 1
    Vt = [None] * d
    sigmas = []

    def factor(k, slabs):
        if sigmas and not sigmas[-1].size:
            sigma, V = sigmas[-1], np.empty((A.dims[k], 0))
        else:
            R = _fold(np.empty((0, A.dims[k])), A.ip, 0, slabs)
            sigma, V = _sigma_v(R, tol_rel)
        sigmas.append(sigma)
        Vt[k] = V.T

    for k in range(m):
        factor(k, (_leading(slab, k, Vt) for slab in _slabs(A, k + 1)))
    buf = A.data
    if m:
        buf = np.empty([A.dims[m]] + [len(V) for V in Vt[:m]] + [A.h])
        for cut, slab in zip(_cuts(A, m), _slabs(A, m)):
            _leading(slab, m, Vt, out=buf[cut])
    factor(m, _slabs(BTensor(buf, A.ip), 1))
    return sigmas, [V.T for V in Vt], buf


def _check_ranks(ranks, d):
    """``ranks`` as a list of one nonnegative integer per mode of a
    ``d``-way tensor; anything else is a ``ValueError``."""
    if len(ranks) != d:
        raise ValueError(f"need {d} nonnegative ranks, got {tuple(ranks)}")
    return [_integer(r, "ranks must be nonnegative integers", 0)
            for r in ranks]


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
    the tensor contracted with the transposed factors: the last factor's
    transpose times the buffer's leading block, whose last mode leads.
    It is formed one slab of that block at a time, cut along its axis 1,
    by one ``np.matmul`` broadcast over the slab's other ranks and written
    into the core in core order, so neither a transposed copy of the core
    nor a product the size of a large share of the tensor is formed.
    Requested ranks above the numerical rank are clamped (and reported),
    never an error; ranks that are not one nonnegative integer per mode,
    or a ``tol_rel`` outside ``[0, 1)``, are a ``ValueError``.  The
    per-mode singular value vectors are returned whole, so the
    quasi-optimality bound can be evaluated.
    """
    d = A.d
    ranks = _check_ranks(A.dims if ranks is None else ranks, d)
    sigmas, factors, buf = _st_hosvd(A, tol_rel)
    achieved = [min(r, s.size) for r, s in zip(ranks, sigmas)]
    factors = [V[:, :r] for V, r in zip(factors, achieved)]
    B = BTensor(buf[(slice(None),) + tuple(slice(r) for r in achieved[:-1])],
                A.ip)
    core = np.empty(tuple(achieved) + (A.h,))
    for cut in _cuts(B, 1):
        np.matmul(factors[-1].T, np.moveaxis(B.data[:, cut], 0, -2),
                  out=core[cut])
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
