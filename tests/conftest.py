"""Shared helpers: seeded geometry generators and independent oracles.

The scalar oracles are deliberately plain numpy reimplementations (pinv,
per-mode SVDs, explicit mode products) so the library paths they check
are never exercised to produce the expected values.
"""

import numpy as np
import pytest

from fvtensor.hilbert import InnerProduct

GRAM_KINDS = ("identity", "diagonal", "dense")


def make_ip(kind, h, rng):
    if kind == "identity":
        return InnerProduct.identity(h)
    if kind == "diagonal":
        return InnerProduct.diagonal(0.5 + rng.random(h))
    M = rng.standard_normal((h, h))
    return InnerProduct.dense((M @ M.T + h * np.eye(h)) / h)


def gram_matrix(ip):
    if ip.kind == "identity":
        return np.eye(ip.h)
    return np.diag(ip.weights) if ip.kind == "diagonal" else ip.gram


def whitened_rank(M_w, tol_rel=1e-12):
    """Rank of a real matrix under the rule sigma_i > tol_rel * sigma_1."""
    s1 = np.linalg.svd(M_w, compute_uv=False)[0]
    return int(np.linalg.matrix_rank(M_w, tol=tol_rel * s1))


@pytest.fixture
def rng():
    return np.random.default_rng(20240823)


# --- independent scalar-tensor oracles -----------------------------------

def scalar_unfold(T, k):
    return np.moveaxis(T, k, 0).reshape(T.shape[k], -1)


def scalar_mode_mul(T, k, B):
    return np.moveaxis(np.tensordot(B, T, axes=(1, k)), 0, k)


def scalar_cross(A, I, J):
    return A[:, J] @ np.linalg.pinv(A[np.ix_(I, J)]) @ A[I, :]


def scalar_tucker_cross(A, sets):
    G = A[np.ix_(*sets)]
    B = G
    for k, I in enumerate(sets):
        grids = [list(s) for s in sets]
        grids[k] = list(range(A.shape[k]))
        Rk = scalar_unfold(A[np.ix_(*grids)], k).T
        Gk_t = scalar_unfold(G, k).T
        Fk = (np.linalg.pinv(Gk_t) @ Rk).T
        B = scalar_mode_mul(B, k, Fk)
    return B


def scalar_hosvd(T, ranks):
    factors = []
    for k, r in enumerate(ranks):
        U, _, _ = np.linalg.svd(scalar_unfold(T, k), full_matrices=False)
        factors.append(U[:, :r])
    core = T
    for k, U in enumerate(factors):
        core = scalar_mode_mul(core, k, U.T)
    B = core
    for k, U in enumerate(factors):
        B = scalar_mode_mul(B, k, U)
    return B
