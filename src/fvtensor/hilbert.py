"""Hilbert-space geometry for coefficient vectors.

An element of the (finite-dimensional) Hilbert space H is represented by a
real coefficient vector of fixed length ``h``.  The geometry of H enters
exclusively through a Gram specification: identity, diagonal weights, or a
dense SPD matrix.  Every other module is parameterized over an
:class:`InnerProduct`.

With the Cholesky factorization ``G = L L^T`` of the Gram matrix, the map
``x -> L^T x`` is an isometry from H onto Euclidean R^h.  It carries a
function-valued matrix onto an ordinary real matrix with the same
singular values, so rank-revealing linear algebra runs in LAPACK on
whitened coordinates.
"""

import numpy as np

SYMMETRY_RTOL = 1e-12


class InnerProductError(ValueError):
    """Invalid Gram specification."""


class NonSymmetricError(InnerProductError):
    pass


class NonSPDError(InnerProductError):
    pass


class NonPositiveWeightError(InnerProductError):
    pass


class InnerProduct:
    """Inner product on R^h defined by a Gram specification.

    Parameters
    ----------
    h : int
        Coefficient dimension of the space.
    kind : str
        One of ``"identity"``, ``"diagonal"``, ``"dense"``.
    weights : ndarray, optional
        Strictly positive weights of length ``h`` (diagonal kind).
    gram : ndarray, optional
        Symmetric positive-definite ``h x h`` matrix (dense kind).

    Instances are immutable after construction; the stored arrays are
    marked read-only so they can be shared freely across threads.
    ``chol`` holds the Cholesky factor of the Gram matrix: ``None`` for
    the identity, the vector ``sqrt(weights)`` for the diagonal kind, and
    the lower-triangular ``L`` with ``gram = L L^T`` for the dense kind.
    """

    __slots__ = ("h", "kind", "weights", "gram", "chol")

    def __init__(self, h, kind="identity", weights=None, gram=None):
        if h < 1:
            raise InnerProductError("coefficient dimension must be positive")
        self.h = int(h)
        self.kind = kind
        if kind == "identity":
            self.weights = None
            self.gram = None
        elif kind == "diagonal":
            w = np.asarray(weights, dtype=float).reshape(-1)
            self.weights = w
            self.gram = None
        elif kind == "dense":
            g = np.array(gram, dtype=float)
            self.gram = g
            self.weights = None
        else:
            raise InnerProductError(f"unknown Gram kind {kind!r}")
        self.chol = validate(self)
        if self.kind == "dense":
            # symmetrize after validation so file round-trips stay SPD
            self.gram = 0.5 * (self.gram + self.gram.T)
            self.gram.flags.writeable = False
        if self.weights is not None:
            self.weights.flags.writeable = False
        if self.chol is not None:
            self.chol.flags.writeable = False

    @classmethod
    def identity(cls, h):
        return cls(h, "identity")

    @classmethod
    def diagonal(cls, weights):
        w = np.asarray(weights, dtype=float).reshape(-1)
        return cls(len(w), "diagonal", weights=w)

    @classmethod
    def dense(cls, gram):
        g = np.asarray(gram, dtype=float)
        return cls(g.shape[0], "dense", gram=g)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.h:
            raise ValueError(
                f"coefficient length {x.shape[-1]} does not match h={self.h}"
            )
        return x

    def apply(self, x):
        """Apply the Gram matrix along the last axis of ``x``."""
        x = self._check(x)
        if self.kind == "identity":
            return x
        if self.kind == "diagonal":
            return x * self.weights
        return x @ self.gram

    def whiten(self, x):
        """Apply ``L^T`` along the last axis of ``x``.

        Euclidean inner products of whitened vectors are the H-inner
        products of the originals.
        """
        x = self._check(x)
        if self.kind == "identity":
            return x
        return x * self.chol if self.kind == "diagonal" else x @ self.chol

    def unwhiten(self, y):
        """Inverse of :meth:`whiten`: solve ``L^T x = y`` along the last axis."""
        y = self._check(y)
        if self.kind == "identity":
            return y
        if self.kind == "diagonal":
            return y / self.chol
        x = np.linalg.solve(self.chol.T, y.reshape(-1, self.h).T)
        return x.T.reshape(y.shape)

    def pair(self, x, y):
        """Entrywise H-inner products; contracts the last axis."""
        return np.sum(np.asarray(x, dtype=float) * self.apply(y), axis=-1)

    def norms(self, x):
        """Entrywise H-norms along the last axis."""
        # SPD Gram makes the quadratic form nonnegative up to round-off
        return np.sqrt(np.maximum(self.pair(x, x), 0.0))

    def __eq__(self, other):
        if not isinstance(other, InnerProduct):
            return NotImplemented
        if self.h != other.h or self.kind != other.kind:
            return False
        if self.kind == "diagonal":
            return np.array_equal(self.weights, other.weights)
        if self.kind == "dense":
            return np.array_equal(self.gram, other.gram)
        return True

    def __repr__(self):
        return f"InnerProduct(h={self.h}, kind={self.kind!r})"


def validate(ip):
    """Check the Gram specification; raise a typed error on violation.

    Diagonal weights must be strictly positive and finite.  A dense Gram
    must be symmetric to within a 1e-12 relative tolerance and admit a
    Cholesky factorization.  Returns the Cholesky factor in the form
    :attr:`InnerProduct.chol` stores it.
    """
    if ip.kind == "identity":
        return None
    if ip.kind == "diagonal":
        w = ip.weights
        if w.shape != (ip.h,):
            raise InnerProductError("weight vector length does not match h")
        if not np.all(np.isfinite(w)):
            raise NonPositiveWeightError("weights must be finite")
        if np.any(w <= 0.0):
            raise NonPositiveWeightError("weights must be strictly positive")
        return np.sqrt(w)
    g = ip.gram
    if g.shape != (ip.h, ip.h):
        raise InnerProductError("Gram matrix shape does not match h")
    if not np.all(np.isfinite(g)):
        raise NonSPDError("Gram matrix must be finite")
    scale = np.max(np.abs(g))
    if scale == 0.0:
        raise NonSPDError("Gram matrix is zero")
    if np.max(np.abs(g - g.T)) > SYMMETRY_RTOL * scale:
        raise NonSymmetricError("Gram matrix is not symmetric")
    try:
        return np.linalg.cholesky(0.5 * (g + g.T))
    except np.linalg.LinAlgError:
        raise NonSPDError("Gram matrix is not positive definite") from None


def _check_pair(u, v, ip):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (ip.h,) or v.shape != (ip.h,):
        raise ValueError(
            f"expected coefficient vectors of length {ip.h}, "
            f"got {u.shape} and {v.shape}"
        )
    return u, v


def dot(u, v, ip):
    """H-inner product of two coefficient vectors."""
    u, v = _check_pair(u, v, ip)
    out = float(u @ ip.apply(v))
    if not np.isfinite(out):
        raise ValueError("inner product is not finite")
    return out


def norm(u, ip):
    """H-norm of a coefficient vector."""
    return np.sqrt(max(dot(u, u, ip), 0.0))

