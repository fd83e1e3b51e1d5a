"""Shared helpers: seeded geometry generators and independent oracles.

The scalar oracles are deliberately plain numpy reimplementations (pinv,
per-mode SVDs, explicit mode products) so the library paths they check
are never exercised to produce the expected values.
"""

import numpy as np
import pytest

from fvtensor.btensor import BTensor
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import make_tensor

GRAM_KINDS = ("identity", "diagonal", "dense")


def make_ip(kind, h, rng):
    if kind == "identity":
        return InnerProduct.identity(h)
    if kind == "diagonal":
        return InnerProduct.diagonal(0.5 + rng.random(h))
    M = rng.standard_normal((h, h))
    return InnerProduct.dense((M @ M.T + h * np.eye(h)) / h)


def tensor_under(spec, kind):
    """``make_tensor(spec)`` with its Gram replaced by ``make_ip(kind)``,
    drawn from an rng seeded by the spec's seed."""
    ip = make_ip(kind, spec.h, np.random.default_rng([int(spec.seed), 7919]))
    return BTensor(make_tensor(spec).data, ip)


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


def cross_size(sets, dims, fibers=None):
    """Number of multi-indices in cross_J(sets): those in ``sets[l]`` in
    every mode, and for each mode ``k`` those outside ``sets[k]`` at ``k``
    and in ``fibers[l]`` (a subset of ``sets[l]``; ``None``: ``sets``)
    at every other mode ``l``."""
    s = [len(S) for S in sets]
    j = s if fibers is None else [len(F) for F in fibers]
    others = [int(np.prod(j[:k] + j[k + 1:])) for k in range(len(j))]
    return int(np.prod(s)) + sum((n - s[k]) * others[k]
                                 for k, n in enumerate(dims))


def in_cross(idx, sets, fibers=None):
    """Whether ``idx`` lies in cross_J(sets), as in :func:`cross_size`."""
    outside = [k for k, (i, S) in enumerate(zip(idx, sets)) if i not in S]
    if len(outside) != 1 or fibers is None:
        return len(outside) <= 1
    k = outside[0]
    return all(i in F for l, (i, F) in enumerate(zip(idx, fibers)) if l != k)


def fiber_slab(T, sets, k):
    """Mode-``k`` fibers of ``T`` (shape ``dims + (h,)``) whose other
    indices lie in ``sets``, as an ``(m, n_k, h)`` array: row ``i`` is the
    fiber at the ``i``-th big-endian combination of the other sets."""
    grids = [list(s) for s in sets]
    grids[k] = list(range(T.shape[k]))
    return np.moveaxis(T[np.ix_(*grids)], k, -2).reshape(
        -1, T.shape[k], T.shape[-1])


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
