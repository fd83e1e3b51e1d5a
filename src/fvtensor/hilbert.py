"""Hilbert-space geometry for coefficient vectors.

An element of the (finite-dimensional) Hilbert space H is represented by a
real coefficient vector of fixed length ``h``.  The geometry of H enters
exclusively through a Gram specification: identity, diagonal weights, or a
dense SPD matrix.  Every other module is parameterized over an
:class:`InnerProduct`.

With the Cholesky factorization ``G = L L^T`` of the Gram matrix, the map
``x -> L^T x`` is an isometry from H onto Euclidean R^h, and the only way
the geometry enters a computation.  Inner products and norms are
Euclidean ones of whitened coefficients, and a function-valued matrix is
carried onto an ordinary real matrix with the same singular values, so
rank-revealing linear algebra runs in LAPACK on whitened coordinates.
The Gram product :meth:`InnerProduct.apply` has no caller in the library.
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
        Strictly positive finite weights of length ``h`` (diagonal kind).
    gram : ndarray, optional
        ``h x h`` matrix (dense kind): finite, symmetric to within a 1e-12
        relative tolerance and positive definite.  The stored ``gram`` is
        its symmetric part, so file round-trips stay SPD.

    The constructor checks the specification, raising a typed
    :class:`InnerProductError` on a violation, and takes the Cholesky
    factor ``chol`` in the same step: ``None`` for the identity, the
    vector ``sqrt(weights)`` for the diagonal kind, and the
    lower-triangular ``L`` with ``gram = L L^T`` for the dense kind.
    Instances are immutable after construction; the stored arrays are
    copies of the arguments, marked read-only, so they can be shared
    freely across threads.
    """

    __slots__ = ("h", "kind", "weights", "gram", "chol")

    def __init__(self, h, kind="identity", weights=None, gram=None):
        if h < 1:
            raise InnerProductError("coefficient dimension must be positive")
        self.h = int(h)
        self.kind = kind
        self.weights = self.gram = self.chol = None
        if kind == "identity":
            return
        if kind == "diagonal":
            w = np.array(weights, dtype=float).reshape(-1)
            if w.shape != (self.h,):
                raise InnerProductError("weight vector length does not match h")
            if not np.all(np.isfinite(w)):
                raise NonPositiveWeightError("weights must be finite")
            if np.any(w <= 0.0):
                raise NonPositiveWeightError("weights must be strictly positive")
            self.weights, self.chol = w, np.sqrt(w)
        elif kind == "dense":
            g = np.asarray(gram, dtype=float)
            if g.shape != (self.h, self.h):
                raise InnerProductError("Gram matrix shape does not match h")
            if not np.all(np.isfinite(g)):
                raise NonSPDError("Gram matrix must be finite")
            scale = np.max(np.abs(g))
            if scale == 0.0:
                raise NonSPDError("Gram matrix is zero")
            if np.max(np.abs(g - g.T)) > SYMMETRY_RTOL * scale:
                raise NonSymmetricError("Gram matrix is not symmetric")
            self.gram = 0.5 * (g + g.T)
            try:
                self.chol = np.linalg.cholesky(self.gram)
            except np.linalg.LinAlgError:
                raise NonSPDError(
                    "Gram matrix is not positive definite") from None
        else:
            raise InnerProductError(f"unknown Gram kind {kind!r}")
        for a in (self.weights, self.gram, self.chol):
            if a is not None:
                a.flags.writeable = False

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

    def _times(self, x, vec, mat):
        """``x`` times the diagonal ``vec`` or the dense ``mat`` of this
        kind along the last axis; the identity returns ``x`` itself.

        The dense product is one flat ``(N, h) @ mat``: a stacked matmul
        takes another BLAS path when the second-to-last axis has length
        1, so the last bits of an entry would depend on its grid's shape.
        It is written into an array of ``x``'s shape, not returned as a
        reshaped view: numpy reuses an owning temporary in place in
        :meth:`pair`'s product of two arrays.
        """
        x = self._check(x)
        if self.kind == "identity":
            return x
        if self.kind == "diagonal":
            return x * vec
        out = np.empty(x.shape)
        np.matmul(x.reshape(-1, self.h), mat, out=out.reshape(-1, self.h))
        return out

    def apply(self, x):
        """Apply the Gram matrix along the last axis of ``x``."""
        return self._times(x, self.weights, self.gram)

    def whiten(self, x):
        """Apply ``L^T`` along the last axis of ``x``.

        Euclidean inner products of whitened vectors are the H-inner
        products of the originals.  The identity returns ``x`` itself,
        so whitening costs nothing once the Gram is the identity.
        """
        return self._times(x, self.chol, self.chol)

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
        """Entrywise H-inner products: the Euclidean products of the
        whitened vectors along the last axis (``x`` is whitened once when
        ``y is x``, and squared in place if that made an array of its own),
        so a squared norm is a sum of squares."""
        xw = self.whiten(x)
        if y is not x:
            return np.sum(xw * self.whiten(y), axis=-1)
        own = xw is not x and xw.flags.owndata
        return np.sum(np.multiply(xw, xw, out=xw if own else None), axis=-1)

    def norms(self, x):
        """Entrywise H-norms along the last axis."""
        return np.sqrt(self.pair(x, x))

    def __eq__(self, other):
        if not isinstance(other, InnerProduct):
            return NotImplemented
        return (self.h == other.h and self.kind == other.kind
                and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.gram, other.gram))

    def __repr__(self):
        return f"InnerProduct(h={self.h}, kind={self.kind!r})"

