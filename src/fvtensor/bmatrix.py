"""Function-valued matrices over a shared inner product.

A function-valued matrix stores one coefficient vector of length ``h`` per
entry, as an ``(m, n, h)`` array.  Scalar matrices act on it from the left
and right, and the adjoint contracts against the Hilbert-space inner product.

Whitening each entry (:meth:`~fvtensor.hilbert.InnerProduct.whiten`) maps
an ``(m, n)`` function-valued matrix isometrically onto a real
``(m*h, n)`` matrix with the same singular values and right singular
vectors.  SVD, numerical column-rank and the applied pseudoinverse are
therefore each one LAPACK call on the whitened matrix, and numerical rank
is everywhere the count of singular values above ``tol_rel`` times the
largest one.  Cross approximation is built on the pseudoinverse.  A
column-pivoted Gram-Schmidt QR is kept as a standalone factorization.
"""

from dataclasses import dataclass

import numpy as np

from .hilbert import InnerProduct

DEFAULT_TOL = 1e-12


class BMatrix:
    """Matrix with entries in H, stored as an ``(m, n, h)`` float array.

    The data array is treated as immutable; operations return new
    instances and never write into their inputs.
    """

    __slots__ = ("data", "ip")

    def __init__(self, data, ip):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3:
            raise ValueError("BMatrix data must have shape (m, n, h)")
        if data.shape[2] != ip.h:
            raise ValueError(
                f"entry length {data.shape[2]} does not match ip.h={ip.h}"
            )
        self.data = data
        self.ip = ip

    @property
    def m(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]

    @property
    def h(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape[:2]

    def entry(self, i, j):
        return self.data[i, j]

    @classmethod
    def zeros(cls, m, n, ip):
        return cls(np.zeros((m, n, ip.h)), ip)

    def __repr__(self):
        return f"BMatrix({self.m}x{self.n} over R^{self.h}, {self.ip.kind})"


@dataclass
class QRFactors:
    """Pivoted thin QR of a function-valued matrix.

    ``Q`` has ``rank`` H-orthonormal columns, ``R`` is ``rank x n`` in
    pivoted column order (upper-trapezoidal on the accepted columns), and
    ``perm`` lists original column indices in pivot order, accepted
    columns first.
    """

    Q: BMatrix
    R: np.ndarray
    perm: np.ndarray
    rank: int


@dataclass
class SVDFactors:
    """SVD ``A = U diag(sigma) V^T`` with function-valued ``U``.

    ``U`` is ``m x r`` with H-orthonormal columns, ``sigma`` is positive
    nonincreasing, and ``V`` is a real ``n x r`` matrix with orthonormal
    columns.
    """

    U: BMatrix
    sigma: np.ndarray
    V: np.ndarray


def column_norms(A):
    """H-norms of the columns of ``A`` as a length-``n`` vector."""
    return np.sqrt(np.sum(A.ip.pair(A.data, A.data), axis=0).clip(min=0.0))


def transpose(A):
    return BMatrix(np.swapaxes(A.data, 0, 1), A.ip)


def left_mul(B, A):
    """Product of a scalar ``(k, m)`` matrix with a function-valued one."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[1] != A.m:
        raise ValueError(f"cannot multiply {B.shape} with {A.m}x{A.n}")
    return BMatrix(np.einsum("ik,kjh->ijh", B, A.data), A.ip)


def right_mul(A, C):
    """Product of a function-valued matrix with a scalar ``(n, l)`` one."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != A.n:
        raise ValueError(f"cannot multiply {A.m}x{A.n} with {C.shape}")
    return BMatrix(np.einsum("ikh,kl->ilh", A.data, C), A.ip)


def adjoint_apply(A, B):
    """Columnwise adjoint product ``A* B`` as a real ``(n, k)`` matrix.

    Entry ``(j, l)`` sums the H-inner products of column ``l`` of ``B``
    against column ``j`` of ``A``.
    """
    if A.ip != B.ip:
        raise ValueError("operands use different inner products")
    if A.m != B.m:
        raise ValueError(f"row mismatch: {A.m} vs {B.m}")
    return np.einsum("ijh,ilh->jl", A.data, A.ip.apply(B.data))


def mgs_qr(A, tol_rel=DEFAULT_TOL):
    """Column-pivoted modified Gram-Schmidt QR with rank detection.

    At every step the remaining column of largest residual H-norm is
    selected (ties go to the smallest index) and orthogonalized; one
    reorthogonalization pass is run when the residual norm has dropped
    below 1/sqrt(2) of the column's original norm.  The process stops
    once the largest remaining residual norm falls to ``tol_rel`` times
    the largest original column norm.

    The process runs on whitened entries, where every H-inner product is
    a Euclidean one, and maps the orthonormal columns back to coefficient
    vectors at the end.  Accepted columns are swapped to the front of the
    workspace, so the active block stays a contiguous slice.
    """
    ip = A.ip
    m, n, h = A.data.shape
    work = np.array(ip.whiten(A.data))
    cols = np.arange(n)
    orig = column_norms(A)
    max_orig = float(orig.max()) if n else 0.0
    cap = min(n, m * h)

    Rfull = np.zeros((cap, n))
    n_active = n  # columns in [t, n_active) are candidates; beyond, dropped
    t = 0
    drop = 1.0 / np.sqrt(2.0)

    def _swap(a, b):
        if a == b:
            return
        work[:, [a, b]] = work[:, [b, a]]
        cols[[a, b]] = cols[[b, a]]

    if max_orig > 0.0:
        threshold = tol_rel * max_orig
        while t < cap and t < n_active:
            sq = np.einsum("mjh,mjh->j", work[:, t:n_active],
                           work[:, t:n_active])
            ties = np.flatnonzero(sq == sq.max())
            p_rel = int(ties[np.argmin(cols[t:n_active][ties])])
            vnorm = float(np.sqrt(sq[p_rel]))
            if vnorm <= threshold:
                break
            _swap(t, t + p_rel)
            v = work[:, t]
            if vnorm < drop * orig[cols[t]]:
                for i in range(t):
                    c = float(np.sum(work[:, i] * v))
                    v -= c * work[:, i]
                    Rfull[i, cols[t]] += c
                vnorm = float(np.sqrt(np.sum(v * v)))
                if vnorm <= threshold:
                    # dependent after reorthogonalization: keep the reduced
                    # residual for reconstruction, never pivot on it again
                    n_active -= 1
                    _swap(t, n_active)
                    continue
            work[:, t] /= vnorm
            Rfull[t, cols[t]] = vnorm
            if t + 1 < n:
                coef = np.einsum("mh,mjh->j", work[:, t], work[:, t + 1:])
                Rfull[t, cols[t + 1:]] = coef
                work[:, t + 1:] -= work[:, t][:, None, :] * coef[None, :, None]
            t += 1

    r = t
    rejected = sorted(cols[r:].tolist())
    perm = np.array(cols[:r].tolist() + rejected, dtype=int)
    Q = BMatrix(ip.unwhiten(work[:, :r].copy()), ip)
    R = Rfull[:r][:, perm] if n else np.zeros((0, 0))
    return QRFactors(Q=Q, R=R, perm=perm, rank=r)


def _whitened(A):
    """``A`` as a real ``(m*h, n)`` matrix whose Euclidean geometry is its
    H-geometry: the column ``j`` stacks the whitened entries of column
    ``j`` of ``A``, so both have the same singular values and right
    singular vectors.

    The result is column-major, the layout LAPACK reads; the reshape
    copies nothing when ``A`` is the transpose of a contiguous matrix, as
    unfoldings are.
    """
    m, n, h = A.data.shape
    return A.ip.whiten(np.swapaxes(A.data, 0, 1)).reshape(n, m * h).T


def _rank(s, tol_rel):
    """Number of singular values above ``tol_rel`` times the largest."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.count_nonzero(s > tol_rel * s[0]))


def _truncated_scalar_svd(X, tol_rel):
    Uh, s, Vh = np.linalg.svd(X, full_matrices=False)
    k = _rank(s, tol_rel)
    return Uh[:, :k], s[:k], Vh[:k]


def _sigma_v(A, tol_rel=DEFAULT_TOL):
    """Truncated singular values and right singular vectors of ``A``.

    They are read off the triangular factor of the whitened matrix, so
    the tall left singular factor is never formed.
    """
    R = np.linalg.qr(_whitened(A), mode="r")
    _, s, Vh = _truncated_scalar_svd(R, tol_rel)
    return s, Vh.T


def svd(A, tol_rel=DEFAULT_TOL):
    """SVD of a function-valued matrix from one SVD of its whitened matrix.

    The left singular vectors of the whitened matrix are mapped back to
    coefficient vectors, which makes the columns of ``U`` H-orthonormal.
    Singular values at or below ``tol_rel`` times the largest one are
    discarded.  A zero matrix yields empty factors.
    """
    m, _, h = A.data.shape
    Uw, s, Vh = _truncated_scalar_svd(_whitened(A), tol_rel)
    U = A.ip.unwhiten(np.moveaxis(Uw.reshape(m, h, s.size), 1, 2))
    return SVDFactors(U=BMatrix(U, A.ip), sigma=s, V=Vh.T)


def pinv_apply(A, B, tol_rel=DEFAULT_TOL):
    """Apply the pseudoinverse of ``A`` to the columns of ``B``.

    Returns the real ``(n, k)`` matrix ``V diag(sigma)^-1 (U* B)``, the
    minimum-norm H-least-squares solution ``X`` of ``A X ~ B``.  Both
    operands are whitened, so ``U* B`` is a single product with the left
    singular factor of one SVD of the whitened ``A``, truncated as in
    :func:`svd`.  A zero ``A`` maps everything to zero.
    """
    if A.ip != B.ip:
        raise ValueError("operands use different inner products")
    if A.m != B.m:
        raise ValueError(f"row mismatch: {A.m} vs {B.m}")
    Uw, s, Vh = _truncated_scalar_svd(_whitened(A), tol_rel)
    return Vh.T @ ((Uw.T @ _whitened(B)) / s[:, None])


def column_rank(A, tol_rel=DEFAULT_TOL):
    """Numerical column-rank: the number of singular values of ``A``
    above ``tol_rel`` times the largest one."""
    return _rank(np.linalg.svd(_whitened(A), compute_uv=False), tol_rel)


def _canonical_index_set(I, size, what):
    """Sorted distinct indices of ``I``; ``ValueError`` unless in ``[0, size)``."""
    idx = sorted(set(int(i) for i in I))
    if not idx:
        raise ValueError(f"empty {what} index set")
    if idx[0] < 0 or idx[-1] >= size:
        raise ValueError(f"{what} index set out of range for size {size}")
    return idx


def cross_matrix(A, I, J, tol_rel=DEFAULT_TOL):
    """Cross approximation of ``A`` at row set ``I`` and column set ``J``.

    Returns ``(F, core, Pt)`` with ``core = A(I, J)``, the right factor
    ``Pt`` solving against the row slab ``A(I, :)`` and the left factor
    ``F`` solving against the transposed column slab; transposition and
    pseudoinversion do not commute for function-valued matrices, so the
    left factor goes through the transposed core.  The assembled product
    ``F core Pt`` reproduces ``A`` on ``I x J``; the sampled rows and
    columns of the factors are pinned to exact unit vectors, which is an
    identity in exact arithmetic and keeps the interpolation property
    exact in floating point.
    """
    I = _canonical_index_set(I, A.m, "row")
    J = _canonical_index_set(J, A.n, "column")
    core = BMatrix(A.data[np.ix_(I, J)], A.ip)
    row_slab = BMatrix(A.data[I], A.ip)
    col_slab = BMatrix(A.data[:, J], A.ip)

    Pt = pinv_apply(core, row_slab, tol_rel)
    F = pinv_apply(transpose(core), transpose(col_slab), tol_rel).T
    F[I] = np.eye(len(I))
    Pt[:, J] = np.eye(len(J))
    return F, core, Pt


def assemble_cross(F, core, Pt):
    """Materialize the cross approximant ``F core Pt`` as a BMatrix."""
    return right_mul(left_mul(F, core), Pt)
