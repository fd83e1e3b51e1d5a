"""Function-valued tensors: unfoldings, mode products, Tucker machinery.

A function-valued tensor of shape ``(n_1, ..., n_d)`` over a Hilbert space
of coefficient dimension ``h`` is stored as an ndarray of shape
``dims + (h,)``.  Composite ("long") indices are big-endian everywhere:
the first tensor index varies slowest, which is numpy's C order, so
unfoldings are plain reshapes.
"""

from dataclasses import dataclass

import numpy as np

from . import bmatrix
from .bmatrix import (
    BMatrix,
    DEFAULT_TOL,
    _canonical_index_set,
    column_rank,
    pinv_apply,
    transpose,
)


class BTensor:
    """Dense d-way array of Hilbert-space elements.

    The data array has shape ``dims + (h,)`` and is treated as immutable.
    """

    __slots__ = ("data", "ip")

    def __init__(self, data, ip):
        data = np.asarray(data, dtype=float)
        if data.ndim < 2:
            raise ValueError("BTensor data must have shape dims + (h,)")
        if data.shape[-1] != ip.h:
            raise ValueError(
                f"entry length {data.shape[-1]} does not match ip.h={ip.h}"
            )
        self.data = data
        self.ip = ip

    @property
    def dims(self):
        return self.data.shape[:-1]

    @property
    def d(self):
        return self.data.ndim - 1

    @property
    def h(self):
        return self.data.shape[-1]

    def entry(self, idx):
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.d:
            raise IndexError(f"expected {self.d} indices, got {len(idx)}")
        return self.data[idx]

    def gather(self, grids):
        """Subtensor on the product of per-mode index lists."""
        arrs = [np.asarray(g, dtype=int) for g in grids]
        if len(arrs) != self.d:
            raise IndexError("need one index list per mode")
        return self.data[np.ix_(*arrs)]

    @classmethod
    def zeros(cls, dims, ip):
        return cls(np.zeros(tuple(dims) + (ip.h,)), ip)

    def __repr__(self):
        return f"BTensor({'x'.join(map(str, self.dims))} over R^{self.h})"


def fro_norm(A):
    """l2(H) norm: root of the sum of squared entry H-norms."""
    return float(np.sqrt(np.sum(A.ip.pair(A.data, A.data).clip(min=0.0))))


def unfold(A, k):
    """Mode-``k`` unfolding as a ``n_k x prod(other dims)`` BMatrix.

    Columns are the mode-``k`` fibers, ordered by the big-endian composite
    of the remaining indices in their original mode order.
    """
    d = A.d
    if not 0 <= k < d:
        raise IndexError(f"mode {k} out of range for order {d}")
    nk = A.dims[k]
    mat = np.moveaxis(A.data, k, 0).reshape(nk, -1, A.h)
    return BMatrix(mat, A.ip)


def refold(M, k, dims):
    """Inverse of :func:`unfold` for the given target ``dims``."""
    dims = tuple(int(n) for n in dims)
    d = len(dims)
    if not 0 <= k < d:
        raise IndexError(f"mode {k} out of range for order {d}")
    rest = [dims[l] for l in range(d) if l != k]
    if M.shape != (dims[k], int(np.prod(rest, dtype=np.int64))):
        raise ValueError(f"matrix of shape {M.shape} cannot refold to {dims}")
    cube = M.data.reshape([dims[k]] + rest + [M.h])
    return BTensor(np.moveaxis(cube, 0, k), M.ip)


def mode_mul(A, k, B):
    """Mode-``k`` product with a scalar matrix ``B`` of shape ``(p, n_k)``."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != A.dims[k]:
        raise ValueError(
            f"matrix of shape {B.shape} cannot act on mode {k} of size {A.dims[k]}"
        )
    new_dims = list(A.dims)
    new_dims[k] = B.shape[0]
    return refold(bmatrix.left_mul(B, unfold(A, k)), k, new_dims)


def tucker_rank(A, tol_rel=DEFAULT_TOL):
    """Tuple of row-ranks of the mode unfoldings."""
    return tuple(
        column_rank(transpose(unfold(A, k)), tol_rel) for k in range(A.d)
    )


def row_matrix(source, index_sets, k):
    """Residual-style row matrix: mode-``k`` fibers over the other sets.

    Rows are indexed by the big-endian composite over the retained modes'
    index-set positions, columns by the full mode-``k`` range.  ``source``
    may be a :class:`BTensor` or any object with ``dims``, ``ip`` and a
    ``gather`` method (e.g. a cached oracle).
    """
    dims = source.dims
    d = len(dims)
    if not 0 <= k < d:
        raise IndexError(f"mode {k} out of range for order {d}")
    grids = [np.arange(n) if l == k
             else _canonical_index_set(index_sets[l], n, f"mode-{l}")
             for l, n in enumerate(dims)]
    slab = BTensor(source.gather(grids), source.ip)
    return transpose(unfold(slab, k))


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
    """

    index_sets: tuple
    core: BTensor
    factors: list
    dims: tuple

    @property
    def ip(self):
        return self.core.ip

    @property
    def rank(self):
        return tuple(len(I) for I in self.index_sets)


def tucker_cross(source, index_sets, tol_rel=DEFAULT_TOL):
    """Tucker-cross approximation of ``source`` at the given index sets.

    The core is the sampled subtensor; every factor solves the transposed
    core unfolding against the corresponding fiber slab through the
    applied pseudoinverse.  Only entries inside the cross (the core and
    the per-mode slabs) are accessed, so ``source`` may be a lazy oracle.
    """
    dims = tuple(source.dims)
    sets = tuple(tuple(_canonical_index_set(I, dims[k], f"mode-{k}"))
                 for k, I in enumerate(index_sets))
    core = BTensor(source.gather([np.asarray(I) for I in sets]), source.ip)
    factors = []
    for k in range(len(dims)):
        Rk = row_matrix(source, sets, k)
        Gk_t = transpose(unfold(core, k))
        Fk = np.ascontiguousarray(pinv_apply(Gk_t, Rk, tol_rel).T)
        Fk[list(sets[k])] = np.eye(len(sets[k]))
        factors.append(Fk)
    return TuckerCrossModel(index_sets=sets, core=core, factors=factors, dims=dims)


def model_gather(model, grids):
    """Entries of the assembled model on a product grid, without assembling.

    ``grids`` holds one index list per mode; the result has shape
    ``(len(grids[0]), ..., len(grids[d-1]), h)``.
    """
    T = model.core.data
    d = T.ndim - 1
    for k in range(d):
        rows = np.asarray(grids[k], dtype=int)
        Fk = model.factors[k][rows]
        T = np.moveaxis(np.tensordot(Fk, T, axes=(1, k)), 0, k)
    return T


def assemble(model):
    """Materialize a Tucker(-cross) model as a dense BTensor."""
    out = model.core
    for k, Fk in enumerate(model.factors):
        out = mode_mul(out, k, Fk)
    return out


@dataclass
class HosvdResult:
    """HOSVD output: decomposition, per-mode spectra, achieved ranks."""

    decomp: TuckerDecomp
    sigmas: list
    ranks: tuple
    clamped: bool


def hosvd(A, ranks=None, tol_rel=DEFAULT_TOL):
    """Higher-order SVD truncated to the requested rank tuple.

    Each mode's factor collects the leading right singular vectors of the
    transposed unfolding, taken with its singular values from the
    triangular factor of the whitened unfolding (no left singular vectors
    are formed); the core is the tensor contracted with the
    transposed factors.  Requested ranks above the numerical rank are
    clamped (and reported), never an error.  The full per-mode singular
    value vectors are returned so the quasi-optimality bound can be
    evaluated.
    """
    d = A.d
    if ranks is None:
        ranks = A.dims
    ranks = [int(r) for r in ranks]
    if len(ranks) != d:
        raise ValueError(f"expected {d} ranks, got {len(ranks)}")

    factors = []
    sigmas = []
    achieved = []
    clamped = False
    for k in range(d):
        sigma, V = bmatrix._sigma_v(transpose(unfold(A, k)), tol_rel)
        sigmas.append(sigma)
        rk = min(ranks[k], sigma.size)
        if rk < ranks[k]:
            clamped = True
        rk = max(rk, 0)
        factors.append(V[:, :rk])
        achieved.append(rk)

    core = A
    for k in range(d):
        core = mode_mul(core, k, factors[k].T)
    decomp = TuckerDecomp(core=core, factors=factors)
    return HosvdResult(
        decomp=decomp, sigmas=sigmas, ranks=tuple(achieved), clamped=clamped
    )


def hosvd_error_bound(sigmas, ranks):
    """Root of the summed squared discarded singular values."""
    tail = 0.0
    for s, r in zip(sigmas, ranks):
        t = s[int(r):]
        tail += float(t @ t)
    return float(np.sqrt(tail))


def error_norm(A, model):
    """l2(H) norm of ``A`` minus a Tucker(-cross) model.

    The difference is accumulated slice by slice along the first mode, so
    the approximant is never materialized at full size.
    """
    n0 = A.dims[0]
    rest = int(np.prod(A.dims[1:], dtype=np.int64)) * A.h
    chunk = max(1, int(8_000_000 // max(rest, 1)))
    tail_grids = [np.arange(n) for n in A.dims[1:]]
    sq = 0.0
    for start in range(0, n0, chunk):
        rows = np.arange(start, min(start + chunk, n0))
        diff = A.data[rows] - model_gather(model, [rows] + tail_grids)
        sq += float(np.sum(A.ip.pair(diff, diff)))
    return float(np.sqrt(max(sq, 0.0)))


def relative_error(A, model):
    """Relative l2(H) error of a Tucker(-cross) model against ``A``."""
    den = fro_norm(A)
    if den <= 0.0:
        raise ValueError("reference tensor is zero")
    return error_norm(A, model) / den
