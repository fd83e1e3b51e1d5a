import numpy as np
import pytest

from fvtensor.bmatrix import (
    BMatrix,
    adjoint_apply,
    assemble_cross,
    column_rank,
    cross_matrix,
    left_mul,
    mgs_qr,
    pinv_apply,
    right_mul,
    svd,
    transpose,
)
from fvtensor.btensor import fro_norm
from fvtensor.hilbert import InnerProduct

from conftest import GRAM_KINDS, gram_matrix, make_ip, scalar_cross, whitened_rank


def rand_bm(rng, m, n, h, ip=None):
    ip = ip or InnerProduct.identity(h)
    return BMatrix(rng.standard_normal((m, n, h)), ip)


# --- transpose and scalar products ----------------------------------------

def test_transpose(rng):
    A = rand_bm(rng, 3, 4, 2)
    assert np.array_equal(transpose(transpose(A)).data, A.data)
    assert np.array_equal(transpose(A).data[2, 1], A.data[1, 2])
    one = rand_bm(rng, 1, 1, 2)
    assert np.array_equal(transpose(one).data, one.data)


def test_left_right_mul(rng):
    A = rand_bm(rng, 3, 4, 2)
    assert np.allclose(left_mul(np.eye(3), A).data, A.data)
    assert np.array_equal(left_mul(np.zeros((2, 3)), A).data,
                          np.zeros((2, 4, 2)))
    # h = 1 reduces to the ordinary matrix product
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((2, 2))
    N = rng.standard_normal((2, 2))
    out = left_mul(M, BMatrix(N[:, :, None], ip1))
    assert np.allclose(out.data[:, :, 0], M @ N)
    out2 = right_mul(BMatrix(N[:, :, None], ip1), M)
    assert np.allclose(out2.data[:, :, 0], N @ M)
    with pytest.raises(ValueError):
        left_mul(np.eye(5), A)


def test_adjoint_apply(rng):
    # orthonormal columns give the identity
    A = rand_bm(rng, 6, 3, 4)
    q = mgs_qr(A)
    assert np.abs(adjoint_apply(q.Q, q.Q) - np.eye(q.rank)).max() < 1e-10
    # h=1 identity reduces to A^T B
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((4, 3))
    N = rng.standard_normal((4, 2))
    out = adjoint_apply(BMatrix(M[:, :, None], ip1), BMatrix(N[:, :, None], ip1))
    assert np.allclose(out, M.T @ N)
    # scaling the inner product scales the result
    ip2 = InnerProduct.diagonal([2.0])
    out2 = adjoint_apply(BMatrix(M[:, :, None], ip2), BMatrix(N[:, :, None], ip2))
    assert np.allclose(out2, 2.0 * (M.T @ N))
    with pytest.raises(ValueError):
        adjoint_apply(BMatrix(M[:, :, None], ip1), BMatrix(N[:, :, None], ip2))


# --- pivoted QR -------------------------------------------------------------

def test_mgs_qr_zero():
    ip = InnerProduct.identity(3)
    q = mgs_qr(BMatrix(np.zeros((3, 3, 3)), ip))
    assert q.rank == 0
    assert q.Q.data.shape == (3, 0, 3)
    assert sorted(q.perm.tolist()) == [0, 1, 2]


def test_mgs_qr_proportional_columns(rng):
    ip = InnerProduct.identity(3)
    col = rng.standard_normal((4, 1, 3))
    A = BMatrix(np.concatenate([col, -2.5 * col], axis=1), ip)
    assert mgs_qr(A).rank == 1


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_mgs_qr_reconstruction(kind):
    rng = np.random.default_rng(31)
    ip = make_ip(kind, 8, rng)
    A = rand_bm(rng, 6, 4, 8, ip)
    q = mgs_qr(A)
    assert q.rank == 4
    assert np.abs(adjoint_apply(q.Q, q.Q) - np.eye(4)).max() < 1e-10
    recon = right_mul(q.Q, q.R)
    err = fro_norm(BMatrix(recon.data - A.data[:, q.perm], ip))
    assert err <= 1e-9 * fro_norm(A)
    # upper-trapezoidal in pivoted order
    assert np.allclose(np.tril(q.R[:, :q.rank], k=-1), 0.0)


def test_mgs_qr_rank_deficient_reconstruction(rng):
    ip = InnerProduct.identity(5)
    B = rand_bm(rng, 6, 2, 5, ip)
    C = rng.standard_normal((2, 5))
    A = right_mul(B, C)  # rank <= 2 with 5 columns
    q = mgs_qr(A)
    assert q.rank == 2
    recon = right_mul(q.Q, q.R)
    assert fro_norm(BMatrix(recon.data - A.data[:, q.perm], ip)) \
        <= 1e-9 * fro_norm(A)


# --- SVD ---------------------------------------------------------------------

def test_svd_rank_one_closed_form(rng):
    ip = InnerProduct.identity(5)
    c = rng.standard_normal(4)
    d = rng.standard_normal(6)
    v = rng.standard_normal(5)
    A = BMatrix(c[:, None, None] * d[None, :, None] * v[None, None, :], ip)
    fac = svd(A)
    assert fac.sigma.size == 1
    expected = np.linalg.norm(c) * np.linalg.norm(d) * np.linalg.norm(v)
    assert fac.sigma[0] == pytest.approx(expected, rel=1e-12)


def test_svd_scalar_oracle():
    rng = np.random.default_rng(5)
    ip1 = InnerProduct.identity(1)
    for _ in range(5):
        M = rng.standard_normal((5, 7))
        fac = svd(BMatrix(M[:, :, None], ip1))
        s_ref = np.linalg.svd(M, compute_uv=False)
        assert np.abs(fac.sigma - s_ref).max() < 1e-10 * s_ref[0]


def test_svd_zero():
    ip = InnerProduct.identity(2)
    fac = svd(BMatrix(np.zeros((3, 4, 2)), ip))
    assert fac.sigma.size == 0
    assert fac.V.shape == (4, 0)


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_svd_invariants_seeded(kind):
    rng = np.random.default_rng(11)
    for trial in range(17):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 7))
        h = int(rng.integers(1, 6))
        ip = make_ip(kind, h, rng)
        A = rand_bm(rng, m, n, h, ip)
        fac = svd(A)
        assert np.all(fac.sigma > 0)
        assert np.all(np.diff(fac.sigma) <= 0)
        r = fac.sigma.size
        assert np.abs(adjoint_apply(fac.U, fac.U) - np.eye(r)).max() < 1e-10
        assert np.abs(fac.V.T @ fac.V - np.eye(r)).max() < 1e-10
        recon = right_mul(right_mul(fac.U, np.diag(fac.sigma)), fac.V.T)
        assert fro_norm(BMatrix(recon.data - A.data, ip)) <= 1e-9 * fro_norm(A)


# --- pseudoinverse application ----------------------------------------------

def test_pinv_zero_maps_to_zero(rng):
    ip = InnerProduct.identity(3)
    Z = BMatrix(np.zeros((4, 2, 3)), ip)
    B = rand_bm(rng, 4, 5, 3, ip)
    assert np.array_equal(pinv_apply(Z, B), np.zeros((2, 5)))


def test_pinv_full_rank_identity(rng):
    ip = make_ip("dense", 4, rng)
    A = rand_bm(rng, 6, 3, 4, ip)
    assert np.abs(pinv_apply(A, A) - np.eye(3)).max() < 1e-9


def test_pinv_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((4, 3))
    B = rng.standard_normal((4, 2))
    out = pinv_apply(BMatrix(M[:, :, None], ip1), BMatrix(B[:, :, None], ip1))
    assert np.abs(out - np.linalg.pinv(M) @ B).max() < 1e-9


def test_pinv_projector_identity(rng):
    # A^dagger A equals V V^T, the projector onto the right singular space
    ip = make_ip("diagonal", 5, rng)
    B = rand_bm(rng, 6, 2, 5, ip)
    C = rng.standard_normal((2, 4))
    A = right_mul(B, C)  # rank 2 with 4 columns
    fac = svd(A)
    out = pinv_apply(A, A)
    assert np.abs(out - fac.V @ fac.V.T).max() < 1e-9


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_pinv_normal_equations(kind):
    # X = A^dagger B is the H-least-squares fit, A* (B - A X) = 0, of
    # minimum norm, X = V V^T X, also when A is rank-deficient
    rng = np.random.default_rng(23)
    ip = make_ip(kind, 5, rng)
    full = rand_bm(rng, 6, 3, 5, ip)
    deficient = right_mul(rand_bm(rng, 6, 2, 5, ip),
                          rng.standard_normal((2, 4)))
    for A in (full, deficient):
        B = rand_bm(rng, 6, 4, 5, ip)
        X = pinv_apply(A, B)
        resid = BMatrix(B.data - right_mul(A, X).data, ip)
        assert np.abs(adjoint_apply(A, resid)).max() \
            <= 1e-10 * fro_norm(A) * fro_norm(B)
        V = svd(A).V
        assert np.abs(X - V @ (V.T @ X)).max() <= 1e-10 * np.abs(X).max()


# --- column rank -------------------------------------------------------------

def test_column_rank_cases(rng):
    ip = InnerProduct.identity(2)
    assert column_rank(BMatrix(np.zeros((3, 3, 2)), ip)) == 0
    # a 1 x 3 matrix over R^2 cannot exceed rank 2
    A = rand_bm(rng, 1, 3, 2, ip)
    assert column_rank(A) <= 2
    # generic 2 x 3 over R^5: column-rank 3, row-rank 2
    ip5 = InnerProduct.identity(5)
    B = rand_bm(rng, 2, 3, 5, ip5)
    assert column_rank(B) == 3
    assert column_rank(transpose(B)) == 2


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_column_rank_is_whitened_matrix_rank(kind):
    # A 4 x 5 matrix over R^3 whose whitened (12, 5) matrix has singular
    # values (1, 0.3, tiny): 1e-11 lies above the 1e-12 cut, 1e-13 below
    rng = np.random.default_rng(29)
    m, n, h = 4, 5, 3
    ip = make_ip(kind, h, rng)
    L = np.linalg.cholesky(gram_matrix(ip))
    for tiny, expected in ((1e-11, 3), (1e-13, 2)):
        sigma = np.array([1.0, 0.3, tiny])
        Q, _ = np.linalg.qr(rng.standard_normal((m * h, 3)))
        P, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        W = ((Q * sigma) @ P.T).reshape(m, h, n).transpose(0, 2, 1)
        data = np.linalg.solve(L.T, W.reshape(-1, h).T).T.reshape(m, n, h)
        A = BMatrix(data, ip)
        M_w = (data @ L).transpose(0, 2, 1).reshape(m * h, n)
        assert column_rank(A) == whitened_rank(M_w) == expected


# --- cross approximation -----------------------------------------------------

def test_cross_rank_one_recovery(rng):
    ip = InnerProduct.identity(2)
    c = rng.standard_normal(5)
    d = rng.standard_normal(6)
    v = rng.standard_normal(2)
    A = BMatrix(c[:, None, None] * d[None, :, None] * v[None, None, :], ip)
    F, core, Pt = cross_matrix(A, [2], [4])
    B = assemble_cross(F, core, Pt)
    assert np.abs(B.data - A.data).max() <= 1e-10 * np.abs(A.data).max()


def test_cross_exactness_when_ranks_match(rng):
    # A = F K P^T with unit blocks at the sampled rows/columns, so the
    # sampled submatrix preserves both ranks of A
    ip = make_ip("dense", 3, rng)
    I, J = [1, 4], [0, 3, 5]
    K = BMatrix(rng.standard_normal((2, 3, 3)), ip)
    F = rng.standard_normal((6, 2))
    F[I] = np.eye(2)
    P = rng.standard_normal((7, 3))
    P[J] = np.eye(3)
    A = right_mul(left_mul(F, K), P.T)
    Fc, core, Pt = cross_matrix(A, I, J)
    B = assemble_cross(Fc, core, Pt)
    assert fro_norm(BMatrix(B.data - A.data, ip)) <= 1e-9 * fro_norm(A)


def test_cross_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((5, 6))
    I, J = [0, 2], [1, 4]
    # make the sampled block invertible but A full rank
    F, core, Pt = cross_matrix(BMatrix(M[:, :, None], ip1), I, J)
    B = assemble_cross(F, core, Pt)
    ref = scalar_cross(M, I, J)
    assert np.abs(B.data[:, :, 0] - ref).max() < 1e-10 * np.abs(M).max()


def test_cross_interpolation_invariant():
    rng = np.random.default_rng(13)
    for trial in range(12):
        h = int(rng.integers(1, 5))
        ip = make_ip(GRAM_KINDS[trial % 3], h, rng)
        m, n = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        A = rand_bm(rng, m, n, h, ip)
        I = sorted(rng.choice(m, size=2, replace=False).tolist())
        J = sorted(rng.choice(n, size=2, replace=False).tolist())
        F, core, Pt = cross_matrix(A, I, J)
        B = assemble_cross(F, core, Pt)
        diff = B.data[np.ix_(I, J)] - A.data[np.ix_(I, J)]
        assert ip.norms(diff).max() <= 1e-9 * fro_norm(A)


def test_cross_empty_index_set_errors(rng):
    A = rand_bm(rng, 3, 3, 2)
    with pytest.raises(ValueError):
        cross_matrix(A, [], [0])


def test_cross_inner_product_sensitivity():
    # fixed seeded instance: same index sets, different Gram, different B
    rng = np.random.default_rng(99)
    ip_id = InnerProduct.identity(6)
    ip_dense = make_ip("dense", 6, rng)
    data = rng.standard_normal((4, 5, 6))
    I, J = [0, 2], [1, 3]
    B_id = assemble_cross(*cross_matrix(BMatrix(data, ip_id), I, J))
    B_dense = assemble_cross(*cross_matrix(BMatrix(data, ip_dense), I, J))
    diff = fro_norm(BMatrix(B_id.data - B_dense.data, ip_id))
    assert diff > 1e-6


def test_cross_left_factor_uses_transposed_core():
    # pseudoinversion and transposition do not commute; the left factor
    # must come from the transposed sampled block
    rng = np.random.default_rng(41)
    ip = make_ip("dense", 6, rng)
    A = BMatrix(rng.standard_normal((4, 5, 6)), ip)
    I, J = [0, 2], [1, 3]
    core = BMatrix(A.data[np.ix_(I, J)], ip)
    col_slab_t = transpose(BMatrix(A.data[:, J], ip))
    F_eq = pinv_apply(transpose(core), col_slab_t).T
    F_naive = pinv_apply(core, col_slab_t).T
    assert np.abs(F_eq - F_naive).max() > 1e-6
    F_impl, _, _ = cross_matrix(A, I, J)
    mask = [i for i in range(4) if i not in I]
    assert np.array_equal(F_impl[mask], F_eq[mask])
    assert np.abs(F_impl[I] - F_eq[I]).max() < 1e-9
