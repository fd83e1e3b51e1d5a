"""Synthetic parametric solution-map oracles and snapshot ingestion.

Three families stand in for expensive PDE solvers.  ``separable`` builds a
sum of per-mode smooth profiles times fixed space vectors, so its exact
Tucker rank is known by construction.  ``lowrank_plus_decay`` appends
geometrically damped extra terms for a controllable singular-value decay.
``gaussian_bump`` samples the smoothed field of a two-center-parameter,
one-width-parameter Gaussian forcing on a spatial grid (the smoothing is
a closed-form heat-kernel convolution, standing in for a PDE solve) with
a trapezoidal-quadrature Gram.  Space vectors and bump fields sample
fixed analytic functions, so the same spec at two different ``h`` yields
two discretizations of one family.

Each family's entry formula is written once and accepts either one
multi-index or broadcastable index arrays: :func:`make_oracle` evaluates
it entry by entry, :func:`make_tensor` over the whole grid, and the two
agree bit for bit, so the dense tensor is the oracle's exact reference.

Each family has one geometry: ``separable`` and ``lowrank_plus_decay``
the identity Gram, ``gaussian_bump`` its quadrature weights.  To study a
family under another Gram, put that inner product on the tensor or the
oracle the family gave, ``BTensor(A.data, ip)`` or
``EntryOracle(oracle.dims, ip, oracle.fn)``, as ``--gram`` does.

Externally computed snapshot tensors enter through the FVT format
(:func:`fvtensor.fvt.load_fvt` / :func:`fvtensor.fvt.save_fvt`).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bmatrix import _integer
from .btensor import BTensor
from .hilbert import InnerProduct
from .sampler import EntryOracle

# each family and the ``params`` keys it reads
FAMILY_PARAMS = {
    "separable": ("rank",),
    "lowrank_plus_decay": ("rank", "rho", "n_noise"),
    "gaussian_bump": (),
}
FAMILIES = tuple(FAMILY_PARAMS)

GAUSSIAN_RANGES = ((-0.8, 0.8), (-0.8, 0.8), (0.001, 0.1))  # alpha, beta, gamma
GAUSSIAN_SMOOTHING = 0.2  # heat-kernel width added to each gamma


@dataclass
class FamilySpec:
    """Recipe for a synthetic parametric family.

    ``dims`` and ``h`` are integers of at least 1, ``seed`` one of at
    least 0.
    ``params`` may set only the keys its family reads: ``rank`` (default
    3) for ``separable``; ``rank``, ``rho`` (0.5) and ``n_noise`` (6) for
    ``lowrank_plus_decay``; none for ``gaussian_bump``.  When the family
    is made, ``rank`` must be an integer of at least 1, ``n_noise`` one of
    at least 0 and ``rho`` a real number in (0, 1).  A float is refused,
    not truncated, and a string is not parsed.
    """

    family: str
    dims: tuple
    h: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims = tuple(_integer(n, "dims must be integers", 1)
                          for n in self.dims)
        self.h = _integer(self.h, "h must be an integer", 1)
        self.seed = _integer(self.seed, "seed must be an integer", 0)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "gaussian_bump" and len(self.dims) != 3:
            raise ValueError("gaussian_bump is a three-parameter family")
        for key in self.params:
            if key not in FAMILY_PARAMS[self.family]:
                raise ValueError(f"{self.family} reads no params key {key!r}")


def _trapezoid_weights(x):
    x = np.asarray(x, dtype=float)
    if x.size == 1:
        return np.array([1.0])
    w = np.empty_like(x)
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    return w


def _chebyshev_profile(weights, xi):
    """Evaluate a fixed Chebyshev series on grid points in [-1, 1]."""
    theta = np.arccos(np.clip(xi, -1.0, 1.0))
    out = np.zeros_like(xi)
    for p, w in enumerate(weights):
        out += w * np.cos(p * theta)
    return out


def _space_vectors(rng, n_terms, h):
    """Samples of seeded smooth functions on an h-point grid in [-1, 1].

    The series coefficients do not depend on h, so different resolutions
    sample the same analytic functions.
    """
    degree = max(n_terms + 2, 6)
    coeffs = rng.standard_normal((n_terms, degree))
    xi = np.linspace(-1.0, 1.0, h) if h > 1 else np.zeros(1)
    return np.stack([_chebyshev_profile(c, xi) for c in coeffs], axis=1)


def _mode_profiles(rng, grids, n_terms):
    """Smooth per-mode coefficient profiles on the given parameter grids."""
    out = []
    for x in grids:
        C = np.empty((x.size, n_terms))
        for t in range(n_terms):
            a = rng.standard_normal(3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            C[:, t] = a[0] + a[1] * x + a[2] * np.cos(np.pi * (t + 1) * x + phase)
        out.append(C)
    return out


def _sum_of_terms(spec):
    """Inner product and entry formula ``terms(idx)`` of a sum-of-terms
    family; ``idx`` is one multi-index or broadcastable index arrays."""
    amplitudes = _amplitudes(spec)
    rng = np.random.default_rng([spec.seed, 0])
    profiles = _mode_profiles(rng, param_grids(spec), len(amplitudes))
    V = _space_vectors(rng, len(amplitudes), spec.h) * amplitudes

    def terms(idx):
        W = profiles[0][idx[0]]
        for C, i in zip(profiles[1:], idx[1:]):
            W = W * C[i]
        return np.einsum("...t,ht->...h", W, V)

    return InnerProduct.identity(spec.h), terms


def _amplitudes(spec):
    get = spec.params.get
    R = _integer(get("rank", 3), "rank must be an integer", 1)
    if spec.family == "separable":
        return np.ones(R)
    n_noise = _integer(get("n_noise", 6), "n_noise must be an integer", 0)
    rho = get("rho", 0.5)
    if not isinstance(rho, numbers.Real) or not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be a real number in (0, 1), got {rho!r}")
    return np.concatenate([np.ones(R), rho ** np.arange(1, n_noise + 1)])


def _bump(spec):
    """Inner product, center grids and field formula ``bump(a, b, k)`` of
    gaussian_bump; the centers ``a``, ``b`` may be broadcastable arrays.

    A square ``h`` >= 4 samples the plane on a tensor-product grid, any
    other ``h`` samples a line.
    """
    alpha, beta, gamma = param_grids(spec)
    side = math.isqrt(spec.h)
    if spec.h >= 4 and side * side == spec.h:
        x = _spatial_axis(side)
        wx = _trapezoid_weights(x)
        weights = np.kron(wx, wx)
        X, Y = np.meshgrid(x, x, indexing="ij")
        px, py, sdim = X.ravel(), Y.ravel(), 2
    else:
        px = _spatial_axis(spec.h)
        weights = _trapezoid_weights(px)
        py, sdim = np.zeros_like(px), 1

    def bump(a, b, k):
        ge = gamma[k] + GAUSSIAN_SMOOTHING
        amp = (gamma[k] / ge) ** (0.5 * sdim)
        return amp * np.exp(-((px - a) ** 2 + (py - b) ** 2) / ge)

    return InnerProduct.diagonal(weights), alpha, beta, bump


def _spatial_axis(n):
    """Chebyshev-Lobatto points on [-1, 1]."""
    if n == 1:
        return np.zeros(1)
    return -np.cos(np.linspace(0.0, np.pi, n))


def param_grids(spec):
    """Per-mode parameter node vectors associated with a family."""
    if spec.family == "gaussian_bump":
        return [np.linspace(*r, n) for r, n in zip(GAUSSIAN_RANGES, spec.dims)]
    return _unit_grids(spec.dims)


def _unit_grids(dims):
    """One node vector per mode of ``dims`` on [0, 1]: ``n`` equispaced
    nodes, or the single node 0 when ``n == 1``."""
    return [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
            for n in dims]


def make_oracle(spec):
    """Entry oracle for a family: pure, seed-deterministic, uncounted.

    ``fn`` is the family's entry formula at one multi-index, so it agrees
    bit for bit with :func:`make_tensor`.
    """
    if spec.family != "gaussian_bump":
        ip, terms = _sum_of_terms(spec)
        return EntryOracle(spec.dims, ip, terms)
    ip, alpha, beta, bump = _bump(spec)

    def fn(idx):
        i, j, k = idx
        return bump(alpha[i], beta[j], k)

    return EntryOracle(spec.dims, ip, fn)


def make_tensor(spec):
    """Materialize a family densely: its entry formula over the whole grid,
    so every entry is bitwise equal to ``make_oracle(spec).fn`` there."""
    if spec.family != "gaussian_bump":
        ip, terms = _sum_of_terms(spec)
        return BTensor(terms(np.indices(spec.dims, sparse=True)), ip)
    ip, alpha, beta, bump = _bump(spec)
    out = np.empty(spec.dims + (spec.h,))
    for k in range(spec.dims[2]):
        out[:, :, k] = bump(alpha[:, None, None], beta[None, :, None], k)
    return BTensor(out, ip)
