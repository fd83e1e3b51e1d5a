"""Function-valued matrices over a shared inner product.

A function-valued tensor stores one coefficient vector of length ``h``
per entry, as a :class:`BTensor` over a ``dims + (h,)`` array; the class
lives here, below the tensor layer, which imports it.  A function-valued
matrix is the 2-way case, an ``(m, n, h)`` array: scalar matrices act on
it through :func:`~fvtensor.btensor.mode_mul`, its cross approximation
is :func:`~fvtensor.btensor.tucker_cross` at two index sets, and
:func:`~fvtensor.btensor.tucker_rank` gives its (row rank, column rank).
The functions here take 2-way tensors only.

Whitening each entry (:meth:`~fvtensor.hilbert.InnerProduct.whiten`) maps
a function-valued array isometrically onto a real one, whose mode-``k``
matrix (:func:`_fiber_rows`) has the singular values and right singular
vectors of the transposed mode-``k`` unfolding.  Every factorization, here
and in the tensor layer, reads that one matrix: SVD, numerical rank and
the applied pseudoinverse are each one LAPACK call on it, the adjoint
product is one product of two such matrices, and numerical rank counts
the singular values above ``tol_rel`` times the largest one.  Each
public function that takes ``tol_rel``, here and in the tensor layer,
checks it with :func:`_tolerance` before any work; the private helpers
take it checked.
Singular values and right singular vectors alone are read off its
triangular factor, and :func:`_fold` is the one way whitened fibers reach
such a factor, by TSQR above ``TSQR_BLOCK`` rows.  The block is 1024
rows, so that a block of a mode matrix with 100 columns (0.8 MB) stays in
a 2 MB L2 cache while LAPACK factors it; a 4096-row block (3.2 MB) does
not, and measured slower (see :func:`_r_factor`).
"""

import numbers
import operator
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_TOL = 1e-12
TSQR_BLOCK = 1024  # rows of the whitened matrix per TSQR block


def _integer(value, what, low=None):
    """``value`` as an int; a ``ValueError`` naming ``what`` and the value
    if it is not one (a float is not truncated, and a bool, Python's or
    numpy's, is not an integer) or is below ``low``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what}, got {value!r}") from None
    if low is not None and n < low:
        raise ValueError(f"{what}, got {value!r} < {low}")
    return n


def _tolerance(tol_rel):
    """``tol_rel`` as a float; a ``ValueError`` unless it is a real number
    in ``[0, 1)`` (a NaN, or a string such as ``"0.5"``, is refused)."""
    if not (isinstance(tol_rel, numbers.Real) and 0.0 <= tol_rel < 1.0):
        raise ValueError(f"tol_rel must be a real number in [0, 1), "
                         f"got {tol_rel!r}")
    return float(tol_rel)


def _int_indices(a):
    """``a`` as an int64 array; ``IndexError`` if it holds an index of a
    dtype other than integer (a float is refused, not truncated, and a
    bool array is a mask, not the indices 0 and 1)."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise IndexError(f"indices must be integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


def _grid_indices(grids, dims):
    """One int64 index vector per mode of ``dims``, from one index list
    per mode: a product grid, or the columns of a batch of multi-indices.
    ``IndexError`` unless there is one list per mode, of integers (see
    :func:`_int_indices`) in ``[0, dims[k])``; every index read is
    range-checked here."""
    if len(grids) != len(dims):
        raise IndexError("need one index list per mode")
    arrs = [_int_indices(g).reshape(-1) for g in grids]
    for k, (a, n) in enumerate(zip(arrs, dims)):
        if a.size and (a.min() < 0 or a.max() >= n):
            raise IndexError(f"mode {k} index out of range for size {n}")
    return arrs


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

    def gather(self, grids):
        """Subtensor on the product of per-mode index lists, checked by
        :func:`_grid_indices` (an ``IndexError`` if one is bad)."""
        return self.data[np.ix_(*_grid_indices(grids, self.dims))]

    def __repr__(self):
        return f"BTensor({'x'.join(map(str, self.dims))} over R^{self.h})"


def _matrix(A):
    """``A``, checked to be a function-valued matrix: a 2-way BTensor."""
    if A.d != 2:
        raise ValueError(f"expected a 2-way BTensor, got order {A.d}")
    return A


def _same_rows(A, B):
    """Check that the matrices ``A`` and ``B`` share rows and geometry."""
    _matrix(A)
    _matrix(B)
    if A.ip != B.ip:
        raise ValueError("operands use different inner products")
    if A.dims[0] != B.dims[0]:
        raise ValueError(f"row mismatch: {A.dims[0]} vs {B.dims[0]}")


@dataclass
class SVDFactors:
    """SVD ``A = U diag(sigma) V^T`` with function-valued ``U``.

    ``U`` is an ``m x r`` 2-way BTensor with H-orthonormal columns,
    ``sigma`` is positive nonincreasing, and ``V`` is a real ``n x r``
    matrix with orthonormal columns.
    """

    U: BTensor
    sigma: np.ndarray
    V: np.ndarray


def adjoint_apply(A, B):
    """Columnwise adjoint product ``A* B`` as a real ``(n, k)`` matrix.

    Entry ``(j, l)`` sums the H-inner products of column ``l`` of ``B``
    against column ``j`` of ``A``: one product of the whitened matrices
    (:func:`_whitened`) that :func:`svd` and :func:`pinv_apply` factor.
    """
    _same_rows(A, B)
    return _whitened(A).T @ _whitened(B)


def _fiber_rows(w, k):
    """Mode-``k`` matrix of the whitened array ``w`` (shape ``dims + (h,)``):
    column ``j`` stacks the entries at mode-``k`` index ``j``, big-endian
    over the other indices and then ``h``.  It is column-major, the layout
    LAPACK reads, and the reshape copies nothing at ``k = 0``."""
    return np.moveaxis(w, k, 0).reshape(w.shape[k], -1).T


def _whitened(A):
    """``A`` as the real ``(m*h, n)`` matrix of its whitened columns, whose
    Euclidean geometry is its H-geometry."""
    return _fiber_rows(_matrix(A).ip.whiten(A.data), 1)


def _rank(s, tol_rel):
    """Number of singular values above ``tol_rel`` times the largest."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))


def _matrix_rank(X, tol_rel):
    """Numerical rank of a real matrix under the rule of :func:`_rank`."""
    return _rank(np.linalg.svd(X, compute_uv=False), tol_rel)


def _truncated_scalar_svd(X, tol_rel):
    Uh, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = _rank(s, tol_rel)
    return Uh[:, :k], s[:k], Vh[:k]


def _leaves(blocks):
    """The ``TSQR_BLOCK``-row leaves of the matrix that the row ``blocks``
    stack to, in order; the last one may be shorter.  A leaf that lies
    inside one block is a view of it, and only a leaf that spans blocks
    is copied, so the leaves do not depend on where the blocks end."""
    leaf, rows = [], 0
    for B in blocks:
        while len(B):
            take = TSQR_BLOCK - rows
            leaf.append(B[:take])
            rows += len(leaf[-1])
            B = B[take:]
            if rows == TSQR_BLOCK:
                yield leaf[0] if len(leaf) == 1 else np.concatenate(leaf)
                leaf, rows = [], 0
    if leaf:
        yield leaf[0] if len(leaf) == 1 else np.concatenate(leaf)


def _r_factor(X):
    """Triangular factor of the QR factorization of a tall real matrix.

    ``X`` is an iterable of row blocks that stack to the matrix (the
    blocks are read one at a time, so a generator never holds it), as
    :func:`_fold`, its one caller, streams them.  Its rows are read in
    leaves of ``TSQR_BLOCK`` rows (:func:`_leaves`): the leaves of the
    stacked matrix, whatever the blocks, so a stream and the matrix it
    stacks to give the same bits.  One leaf, at most
    ``TSQR_BLOCK`` rows in all, is factored by one QR; more are factored by
    TSQR (Demmel, Grigori, Hoemmen & Langou, SISC 34(1), 2012): every leaf
    is reduced to its triangular factor, and one QR of the stacked factors
    gives ``R``.  Each leaf QR works in cache, where a single tall QR
    streams the whole matrix once per reflector.
    Measured with one BLAS thread on a 2 MB-L2 Xeon (medians of five
    passes): the HOSVD of a whitened 40^3, h=144 gaussian_bump tensor,
    three TSQRs of 40 columns and up to 230400 rows, took 0.24, 0.22,
    0.23 and 0.26 s at 512-, 1024-, 2048- and 4096-row leaves.  Of the
    two equal sizes the smaller leaves wider matrices in cache.
    """
    R = [np.linalg.qr(leaf, mode="r") for leaf in _leaves(X)]
    return R[0] if len(R) == 1 else np.linalg.qr(np.vstack(R), mode="r")


def _fold(R, ip, k, blocks):
    """Triangular factor of the rows of ``R`` stacked on the whitened
    mode-``k`` rows (:func:`_fiber_rows`) of each array in ``blocks``.

    This is the one way a fiber reaches a triangular factor: each block,
    shaped ``dims + (h,)`` under ``ip``, is whitened and laid out as its
    mode-``k`` matrix as it is read, and the rows are streamed into TSQR
    (:func:`_r_factor`) below ``R``, one block at a time, so the stack is
    never formed.  ``R`` may have no rows; a block's rows are a view of
    its whitened copy at ``k = 0``.
    """
    return _r_factor(chain([R], (_fiber_rows(ip.whiten(b), k)
                                 for b in blocks)))


def _sigma_v(R, tol_rel=DEFAULT_TOL):
    """Truncated singular values and right singular vectors of a real
    matrix, read off its triangular factor ``R`` (:func:`_fold`), so the
    tall left singular factor is never formed.

    Singular vectors are fixed only up to sign, and the sign LAPACK
    returns depends on how ``R`` was reached; each column of ``V`` is
    therefore turned so that its entry of largest magnitude (the first
    such, on a tie) is positive.
    """
    _, s, Vh = _truncated_scalar_svd(R, tol_rel)
    lead = Vh[np.arange(s.size), np.argmax(np.abs(Vh), axis=1)]
    return s, (Vh * np.sign(lead)[:, None]).T


def svd(A, tol_rel=DEFAULT_TOL):
    """SVD of a function-valued matrix from one SVD of its whitened matrix.

    The left singular vectors of the whitened matrix are mapped back to
    coefficient vectors, which makes the columns of ``U`` H-orthonormal.
    Singular values at or below ``tol_rel`` times the largest one are
    discarded; a ``tol_rel`` outside ``[0, 1)`` is a ``ValueError``
    (:func:`_tolerance`).  A zero matrix yields empty factors.
    """
    tol_rel = _tolerance(tol_rel)
    Uw, s, Vh = _truncated_scalar_svd(_whitened(A), tol_rel)
    m, _, h = A.data.shape
    U = A.ip.unwhiten(np.moveaxis(Uw.reshape(m, h, s.size), 1, 2))
    return SVDFactors(U=BTensor(U, A.ip), sigma=s, V=Vh.T)


def pinv_apply(A, B, tol_rel=DEFAULT_TOL):
    """Apply the pseudoinverse of ``A`` to the columns of ``B``.

    Returns the real ``(n, k)`` matrix ``V diag(sigma)^-1 (U* B)``, the
    minimum-norm H-least-squares solution ``X`` of ``A X ~ B``.  Both
    operands are whitened, so ``U* B`` is a single product with the left
    singular factor of one SVD of the whitened ``A``, truncated as in
    :func:`svd`, whose ``tol_rel`` rule it shares.  A zero ``A`` maps
    everything to zero.
    """
    _same_rows(A, B)
    return _pinv_solve(_whitened(A), _whitened(B), _tolerance(tol_rel))[0]


def _pinv_solve(X, Y, tol_rel=DEFAULT_TOL):
    """``pinv(X) @ Y`` for real matrices, with ``pinv`` truncated as in
    :func:`svd`: singular values at or below ``tol_rel`` times the
    largest one are dropped.  Returns the product and the number of
    singular values kept, the numerical rank of ``X``."""
    Uw, s, Vh = _truncated_scalar_svd(X, tol_rel)
    return Vh.T @ ((Uw.T @ Y) / s[:, None]), s.size


def _canonical_index_set(I, size, what):
    """Sorted distinct indices of ``I``; ``ValueError``, naming the set
    ``what``, unless integers in ``[0, size)``."""
    idx = sorted(set(_integer(i, f"{what} holds a non-integer") for i in I))
    if not idx:
        raise ValueError(f"empty {what}")
    if idx[0] < 0 or idx[-1] >= size:
        raise ValueError(f"{what} out of range for size {size}")
    return idx


def _canonical_sets(sets, dims, what):
    """One canonical ``what`` set (:func:`_canonical_index_set`) per mode
    of ``dims``, as a tuple of tuples; ``ValueError`` unless there is one
    per mode."""
    if len(sets) != len(dims):
        raise ValueError(f"need one {what} set per mode")
    return tuple(tuple(_canonical_index_set(I, n, f"mode-{k} {what} set"))
                 for k, (I, n) in enumerate(zip(sets, dims)))
