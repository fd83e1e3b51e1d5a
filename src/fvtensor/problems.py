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

Externally computed snapshot tensors enter through the FVT format
(:func:`fvtensor.fvt.load_fvt` / :func:`fvtensor.fvt.save_fvt`).
"""

from dataclasses import dataclass, field

import numpy as np

from .btensor import BTensor
from .hilbert import InnerProduct
from .sampler import EntryOracle

FAMILIES = ("separable", "lowrank_plus_decay", "gaussian_bump")

GAUSSIAN_ALPHA_RANGE = (-0.8, 0.8)
GAUSSIAN_BETA_RANGE = (-0.8, 0.8)
GAUSSIAN_GAMMA_RANGE = (0.001, 0.1)


@dataclass
class FamilySpec:
    """Recipe for a synthetic parametric family."""

    family: str
    dims: tuple
    h: int
    gram: str | None = None
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims = tuple(int(n) for n in self.dims)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if any(n < 1 for n in self.dims) or self.h < 1:
            raise ValueError("dims and h must be positive")
        if self.family == "gaussian_bump" and len(self.dims) != 3:
            raise ValueError("gaussian_bump is a three-parameter family")


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


def _mode_profiles(rng, dims, n_terms):
    """Smooth per-mode coefficient profiles on uniform grids over [0, 1]."""
    out = []
    for n in dims:
        x = np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
        C = np.empty((n, n_terms))
        for t in range(n_terms):
            a = rng.standard_normal(3)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            C[:, t] = a[0] + a[1] * x + a[2] * np.cos(np.pi * (t + 1) * x + phase)
        out.append(C)
    return out


def _gram_for(spec, default_weights=None):
    rng = np.random.default_rng([int(spec.seed), 7919])
    kind = spec.gram
    if kind is None:
        if default_weights is not None:
            return InnerProduct.diagonal(default_weights)
        kind = "identity"
    if kind == "identity":
        return InnerProduct.identity(spec.h)
    if kind == "diagonal":
        if default_weights is not None:
            return InnerProduct.diagonal(default_weights)
        return InnerProduct.diagonal(0.5 + rng.random(spec.h))
    if kind == "dense":
        M = rng.standard_normal((spec.h, spec.h))
        G = (M @ M.T + spec.h * np.eye(spec.h)) / spec.h
        return InnerProduct.dense(G)
    raise ValueError(f"unknown gram kind {kind!r}")


def _sum_of_terms(spec, amplitudes):
    rng = np.random.default_rng([int(spec.seed), 0])
    n_terms = len(amplitudes)
    profiles = _mode_profiles(rng, spec.dims, n_terms)
    V = _space_vectors(rng, n_terms, spec.h) * np.asarray(amplitudes)
    return profiles, V


def _amplitudes(spec):
    if spec.family == "separable":
        R = int(spec.params.get("rank", 3))
        if R < 1:
            raise ValueError("rank must be positive")
        return np.ones(R)
    R = int(spec.params.get("rank", 3))
    rho = float(spec.params.get("rho", 0.5))
    n_noise = int(spec.params.get("n_noise", 6))
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    if R < 1 or n_noise < 0:
        raise ValueError("rank must be positive and n_noise nonnegative")
    return np.concatenate([np.ones(R), rho ** np.arange(1, n_noise + 1)])


def _gaussian_setup(spec):
    n1, n2, n3 = spec.dims
    grids = [
        np.linspace(*GAUSSIAN_ALPHA_RANGE, n1),
        np.linspace(*GAUSSIAN_BETA_RANGE, n2),
        np.linspace(*GAUSSIAN_GAMMA_RANGE, n3),
    ]
    spatial_dim = int(spec.params.get("spatial_dim", 2 if _is_square(spec.h) else 1))
    grid_kind = spec.params.get("spatial_grid", "chebyshev")
    tau = float(spec.params.get("smoothing", 0.2))
    if tau < 0.0:
        raise ValueError("smoothing width must be nonnegative")
    if spatial_dim == 2:
        side = int(round(np.sqrt(spec.h)))
        if side * side != spec.h:
            raise ValueError("2-D spatial grid needs a square h")
        x = _spatial_axis(side, grid_kind)
        y = x
        wx = _trapezoid_weights(x)
        weights = np.kron(wx, wx)
        X, Y = np.meshgrid(x, y, indexing="ij")
        points = (X.ravel(), Y.ravel())
    elif spatial_dim == 1:
        x = _spatial_axis(spec.h, grid_kind)
        weights = _trapezoid_weights(x)
        points = (x, np.zeros_like(x))
    else:
        raise ValueError("spatial_dim must be 1 or 2")
    return grids, points, weights, tau, spatial_dim


def _is_square(h):
    side = int(round(np.sqrt(h)))
    return side * side == h and h >= 4


def _spatial_axis(n, kind):
    if n == 1:
        return np.zeros(1)
    if kind == "uniform":
        return np.linspace(-1.0, 1.0, n)
    if kind == "chebyshev":
        return -np.cos(np.linspace(0.0, np.pi, n))
    raise ValueError(f"unknown spatial grid {kind!r}")


def param_grids(spec):
    """Per-mode parameter node vectors associated with a family."""
    if spec.family == "gaussian_bump":
        return _gaussian_setup(spec)[0]
    return [np.linspace(0.0, 1.0, n) if n > 1 else np.zeros(1)
            for n in spec.dims]


def make_oracle(spec):
    """Entry oracle for a family: pure, seed-deterministic, uncounted."""
    if spec.family in ("separable", "lowrank_plus_decay"):
        profiles, V = _sum_of_terms(spec, _amplitudes(spec))
        ip = _gram_for(spec)

        def fn(idx):
            w = np.ones(V.shape[1])
            for k, i in enumerate(idx):
                w = w * profiles[k][int(i)]
            return V @ w

        return EntryOracle(spec.dims, ip, fn)

    grids, (px, py), weights, tau, sdim = _gaussian_setup(spec)
    ip = _gram_for(spec, default_weights=weights) if spec.gram in (None, "diagonal") \
        else _gram_for(spec)
    alpha, beta, gamma = grids

    def fn(idx):
        i, j, k = (int(t) for t in idx)
        ge = gamma[k] + tau
        amp = (gamma[k] / ge) ** (0.5 * sdim)
        return amp * np.exp(-((px - alpha[i]) ** 2 + (py - beta[j]) ** 2) / ge)

    return EntryOracle(spec.dims, ip, fn)


def make_tensor(spec):
    """Materialize a family densely (vectorized), mainly for testing."""
    if spec.family in ("separable", "lowrank_plus_decay"):
        profiles, V = _sum_of_terms(spec, _amplitudes(spec))
        ip = _gram_for(spec)
        d = len(spec.dims)
        term_ax, space_ax = d, d + 1
        operands = []
        for k, C in enumerate(profiles):
            operands.extend([C, [k, term_ax]])
        operands.extend([V, [space_ax, term_ax]])
        out = np.einsum(*operands, [*range(d), space_ax])
        return BTensor(out, ip)

    grids, (px, py), weights, tau, sdim = _gaussian_setup(spec)
    ip = _gram_for(spec, default_weights=weights) if spec.gram in (None, "diagonal") \
        else _gram_for(spec)
    alpha, beta, gamma = grids
    n1, n2, n3 = spec.dims
    out = np.empty((n1, n2, n3, spec.h))
    for k in range(n3):
        ge = gamma[k] + tau
        amp = (gamma[k] / ge) ** (0.5 * sdim)
        Ax = np.exp(-np.subtract.outer(alpha, px) ** 2 / ge)
        Ay = np.exp(-np.subtract.outer(beta, py) ** 2 / ge)
        out[:, :, k, :] = amp * (Ax[:, None, :] * Ay[None, :, :])
    return BTensor(out, ip)
