import numpy as np
import pytest

from fvtensor import bmatrix
from fvtensor.bmatrix import (
    TSQR_BLOCK,
    BTensor,
    _fold,
    _r_factor,
    _sigma_v,
    _whitened,
    adjoint_apply,
    pinv_apply,
    svd,
)
from fvtensor.btensor import (
    assemble,
    fro_norm,
    mode_mul,
    tucker_cross,
    tucker_rank,
    unfold,
)
from fvtensor.hilbert import InnerProduct

from conftest import GRAM_KINDS, gram_matrix, make_ip, scalar_cross, whitened_rank


def rand_bm(rng, m, n, h, ip=None):
    ip = ip or InnerProduct.identity(h)
    return BTensor(rng.standard_normal((m, n, h)), ip)


def cross(A, I, J):
    """The matrix cross approximant at rows ``I`` and columns ``J``."""
    return assemble(tucker_cross(A, [I, J]))


# --- transpose, scalar products and the adjoint -------------------------------

def test_transpose(rng):
    # a matrix's transpose is its mode-1 unfolding
    A = rand_bm(rng, 3, 4, 2)
    assert np.array_equal(unfold(unfold(A, 1), 1).data, A.data)
    assert np.array_equal(unfold(A, 1).data[2, 1], A.data[1, 2])
    one = rand_bm(rng, 1, 1, 2)
    assert np.array_equal(unfold(one, 1).data, one.data)


def test_left_and_right_products(rng):
    # a left product acts on mode 0, a right product on mode 1
    A = rand_bm(rng, 3, 4, 2)
    assert np.allclose(mode_mul(A, 0, np.eye(3)).data, A.data)
    assert np.array_equal(mode_mul(A, 0, np.zeros((2, 3))).data,
                          np.zeros((2, 4, 2)))
    # h = 1 reduces to the ordinary matrix product
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((2, 2))
    N = rng.standard_normal((2, 2))
    out = mode_mul(BTensor(N[:, :, None], ip1), 0, M)
    assert np.allclose(out.data[:, :, 0], M @ N)
    out2 = mode_mul(BTensor(N[:, :, None], ip1), 1, M.T)
    assert np.allclose(out2.data[:, :, 0], N @ M)
    with pytest.raises(ValueError):
        mode_mul(A, 0, np.eye(5))


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_left_product_matches_entrywise_sum(kind):
    # the reference sums B[i, k] A[k, j] entry by entry, also for an
    # operand that is a strided view
    rng = np.random.default_rng(31)
    ip = make_ip(kind, 4, rng)
    A = BTensor(np.swapaxes(rng.standard_normal((5, 3, 4)), 0, 1), ip)
    B = rng.standard_normal((2, 3))
    ref = np.zeros((2, 5, 4))
    for i in range(2):
        for k in range(3):
            ref[i] += B[i, k] * A.data[k]
    out = mode_mul(A, 0, B)
    assert out.ip is ip
    assert np.abs(out.data - ref).max() <= 1e-14 * np.abs(ref).max()


def test_adjoint_apply(rng):
    # orthonormal columns give the identity
    U = svd(rand_bm(rng, 6, 3, 4)).U
    assert np.abs(adjoint_apply(U, U) - np.eye(3)).max() < 1e-10
    # h=1 identity reduces to A^T B
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((4, 3))
    N = rng.standard_normal((4, 2))
    out = adjoint_apply(BTensor(M[:, :, None], ip1), BTensor(N[:, :, None], ip1))
    assert np.allclose(out, M.T @ N)
    # scaling the inner product scales the result
    ip2 = InnerProduct.diagonal([2.0])
    out2 = adjoint_apply(BTensor(M[:, :, None], ip2), BTensor(N[:, :, None], ip2))
    assert np.allclose(out2, 2.0 * (M.T @ N))
    with pytest.raises(ValueError):
        adjoint_apply(BTensor(M[:, :, None], ip1), BTensor(N[:, :, None], ip2))
    # the whitened product is the Gram route under every kind of Gram
    for kind in GRAM_KINDS:
        ip = make_ip(kind, 5, rng)
        A, B = rand_bm(rng, 6, 3, 5, ip), rand_bm(rng, 6, 4, 5, ip)
        want = np.einsum("ijh,ilh->jl", A.data, ip.apply(B.data))
        assert np.allclose(adjoint_apply(A, B), want, rtol=1e-12, atol=1e-12)


def test_matrix_functions_reject_other_orders(rng):
    # the matrix functions take a 2-way BTensor and nothing else
    ip = InnerProduct.identity(2)
    M = rand_bm(rng, 4, 3, 2)
    for other in (BTensor(rng.standard_normal((4, 2)), ip),
                  BTensor(rng.standard_normal((4, 3, 2, 2)), ip)):
        for call in (lambda: svd(other),
                     lambda: pinv_apply(other, M),
                     lambda: pinv_apply(M, other),
                     lambda: adjoint_apply(other, M),
                     lambda: adjoint_apply(M, other)):
            with pytest.raises(ValueError, match="2-way"):
                call()


def test_btensor_shape_and_matrix_rows_are_checked(rng):
    # a BTensor's data is dims + (h,): at least two axes, the last ip.h
    ip = InnerProduct.identity(2)
    with pytest.raises(ValueError, match=r"shape dims \+ \(h,\)"):
        BTensor(np.ones(2), ip)
    with pytest.raises(ValueError, match="entry length 3 does not match"):
        BTensor(np.ones((4, 3)), ip)
    # the two operands of a matrix product share their rows
    A, B = rand_bm(rng, 4, 3, 2), rand_bm(rng, 5, 3, 2)
    with pytest.raises(ValueError, match="row mismatch: 4 vs 5"):
        pinv_apply(A, B)
    with pytest.raises(ValueError, match="row mismatch: 5 vs 4"):
        adjoint_apply(B, A)


# --- SVD ---------------------------------------------------------------------

def test_svd_rank_one_closed_form(rng):
    ip = InnerProduct.identity(5)
    c = rng.standard_normal(4)
    d = rng.standard_normal(6)
    v = rng.standard_normal(5)
    A = BTensor(c[:, None, None] * d[None, :, None] * v[None, None, :], ip)
    fac = svd(A)
    assert fac.sigma.size == 1
    expected = np.linalg.norm(c) * np.linalg.norm(d) * np.linalg.norm(v)
    assert fac.sigma[0] == pytest.approx(expected, rel=1e-12)


def test_svd_scalar_oracle():
    rng = np.random.default_rng(5)
    ip1 = InnerProduct.identity(1)
    for _ in range(5):
        M = rng.standard_normal((5, 7))
        fac = svd(BTensor(M[:, :, None], ip1))
        s_ref = np.linalg.svd(M, compute_uv=False)
        assert np.abs(fac.sigma - s_ref).max() < 1e-10 * s_ref[0]


def test_svd_zero():
    ip = InnerProduct.identity(2)
    fac = svd(BTensor(np.zeros((3, 4, 2)), ip))
    assert fac.sigma.size == 0
    assert fac.U.data.shape == (3, 0, 2)
    assert fac.V.shape == (4, 0)


def test_proportional_columns_rank_one(rng):
    ip = InnerProduct.identity(3)
    col = rng.standard_normal((4, 1, 3))
    A = BTensor(np.concatenate([col, -2.5 * col], axis=1), ip)
    assert svd(A).sigma.size == 1
    assert tucker_rank(A)[1] == 1


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_svd_rank_deficient_reconstruction(kind):
    rng = np.random.default_rng(31)
    ip = make_ip(kind, 5, rng)
    A = mode_mul(rand_bm(rng, 6, 2, 5, ip), 1, rng.standard_normal((5, 2)))
    fac = svd(A)  # rank 2 with 5 columns
    assert fac.sigma.size == tucker_rank(A)[1] == 2
    recon = mode_mul(mode_mul(fac.U, 1, np.diag(fac.sigma)), 1, fac.V)
    assert fro_norm(BTensor(recon.data - A.data, ip)) <= 1e-9 * fro_norm(A)


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
        recon = mode_mul(mode_mul(fac.U, 1, np.diag(fac.sigma)), 1, fac.V)
        assert fro_norm(BTensor(recon.data - A.data, ip)) <= 1e-9 * fro_norm(A)


def _whitened_test_matrix(rng, ip, m, n, sigma):
    """``(m, n)`` matrix over ``ip`` whose whitened ``(m*h, n)`` matrix
    ``M_w`` has the singular values ``sigma``; returns ``(A, M_w)``."""
    h = ip.h
    L = np.linalg.cholesky(gram_matrix(ip))
    Q, _ = np.linalg.qr(rng.standard_normal((m * h, sigma.size)))
    P, _ = np.linalg.qr(rng.standard_normal((n, sigma.size)))
    W = ((Q * sigma) @ P.T).reshape(m, h, n).transpose(0, 2, 1)
    data = np.linalg.solve(L.T, W.reshape(-1, h).T).T.reshape(m, n, h)
    return BTensor(data, ip), (data @ L).transpose(0, 2, 1).reshape(m * h, n)


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_sigma_v_tsqr_matches_whitened_svd(kind):
    # entries of h = 7 making 1.5 TSQR blocks of whitened rows: one full
    # block and an uneven last one.  1e-11 lies above the 1e-12 cut,
    # 1e-13 below.
    rng = np.random.default_rng(37)
    ip = make_ip(kind, 7, rng)
    sigma = np.array([1.0, 0.5, 0.1, 1e-3, 1e-11, 1e-13])
    A, M_w = _whitened_test_matrix(rng, ip, 3 * TSQR_BLOCK // 14, 6, sigma)
    assert TSQR_BLOCK < M_w.shape[0] < 2 * TSQR_BLOCK
    assert np.allclose(_whitened(A), M_w, rtol=0.0, atol=1e-12)
    s, V = _sigma_v(_r_factor([M_w]))
    _, s_ref, Vh_ref = np.linalg.svd(M_w, full_matrices=False)
    assert s.size == whitened_rank(M_w) == 5
    assert np.abs(s - s_ref[:5]).max() <= 1e-14 * s_ref[0]
    # well-separated singular values pin their vectors up to sign
    assert np.abs(np.abs(V[:, :4]) - np.abs(Vh_ref[:4].T)).max() <= 1e-10
    # the 1e-11 vector is fixed only to about eps / 1e-11
    assert abs(V[:, 4] @ Vh_ref[4]) >= 1.0 - 1e-6
    assert np.abs(V.T @ V - np.eye(5)).max() <= 1e-12


def test_sigma_v_sign_convention(monkeypatch):
    # the entry of largest magnitude in each column of V is positive, so
    # TSQR and a single tall QR give the same factor, not a sign-flipped one
    rng = np.random.default_rng(41)
    ip = make_ip("dense", 9, rng)
    _, M_w = _whitened_test_matrix(rng, ip, 600, 8, 0.7 ** np.arange(8))
    s_tsqr, V_tsqr = _sigma_v(_r_factor([M_w]))
    monkeypatch.setattr(bmatrix, "TSQR_BLOCK", 10**9)
    s_one, V_one = _sigma_v(_r_factor([M_w]))
    for V in (V_tsqr, V_one):
        lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
        assert np.all(lead > 0.0)
    assert np.abs(s_tsqr - s_one).max() <= 1e-14 * s_one[0]
    assert np.abs(V_tsqr - V_one).max() <= 1e-10


def test_r_factor_of_a_stream_is_the_r_factor_of_its_stack():
    # ragged row blocks of a 2.5-leaf matrix: empty blocks, blocks that
    # cross a leaf boundary and one that ends on it.  The stream is read in
    # the leaves of the stacked matrix, so R has the same bits as the TSQR
    # of those leaves written out here, and as the matrix as one block.
    rng = np.random.default_rng(43)
    X = rng.standard_normal((5 * TSQR_BLOCK // 2, 6))
    sizes = [0, 700, 1, 0, 600, 747, 300, 0, X.shape[0] - 2348]
    assert sum(sizes[:6]) == 2 * TSQR_BLOCK
    blocks = np.split(X, np.cumsum(sizes)[:-1])
    leaves = [np.linalg.qr(X[i:i + TSQR_BLOCK], mode="r")
              for i in range(0, X.shape[0], TSQR_BLOCK)]
    want = np.linalg.qr(np.vstack(leaves), mode="r").tobytes()
    assert _r_factor(iter(blocks)).tobytes() == want
    assert _r_factor([X]).tobytes() == want
    # a stream of at most one leaf is one QR of its stack
    head = X[:TSQR_BLOCK]
    one = np.linalg.qr(head, mode="r").tobytes()
    assert _r_factor(iter([head[:0], head[:300], head[300:]])).tobytes() == one
    assert _r_factor([head]).tobytes() == one


@pytest.mark.parametrize("start", ["empty", "triangular"])
@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_fold_adds_the_whitened_mode_gram(monkeypatch, kind, k, start):
    # R^T R is the start's Gram plus the blocks' whitened mode-k Gram.  The
    # blocks are cut along the slowest other mode, so they stack to the
    # rows of the whole array; 16-row leaves make several leaves, some
    # spanning two blocks
    monkeypatch.setattr(bmatrix, "TSQR_BLOCK", 16)
    rng = np.random.default_rng(47)
    ip = make_ip(kind, 3, rng)
    T = rng.standard_normal((5, 4, 6, 3))
    n_k = T.shape[k]
    R0 = (np.empty((0, n_k)) if start == "empty"
          else np.triu(rng.standard_normal((n_k, n_k))))
    T_w = T @ np.linalg.cholesky(gram_matrix(ip))
    other = [a for a in range(4) if a != k]
    want = R0.T @ R0 + np.tensordot(T_w, T_w, axes=(other, other))
    R = _fold(R0, ip, k, [T])
    assert np.abs(R.T @ R - want).max() <= 1e-12 * np.abs(want).max()
    # whitening entrywise, the blocks give the bytes of the whole
    cut = 1 if k == 0 else 0
    blocks = np.array_split(T, [1, 2, 4], axis=cut)
    if kind != "dense":
        assert _fold(R0, ip, k, iter(blocks)).tobytes() == R.tobytes()


# --- pseudoinverse application ----------------------------------------------

def test_pinv_zero_maps_to_zero(rng):
    ip = InnerProduct.identity(3)
    Z = BTensor(np.zeros((4, 2, 3)), ip)
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
    out = pinv_apply(BTensor(M[:, :, None], ip1), BTensor(B[:, :, None], ip1))
    assert np.abs(out - np.linalg.pinv(M) @ B).max() < 1e-9


def test_pinv_projector_identity(rng):
    # A^dagger A equals V V^T, the projector onto the right singular space
    ip = make_ip("diagonal", 5, rng)
    B = rand_bm(rng, 6, 2, 5, ip)
    C = rng.standard_normal((2, 4))
    A = mode_mul(B, 1, C.T)  # rank 2 with 4 columns
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
    deficient = mode_mul(rand_bm(rng, 6, 2, 5, ip), 1,
                         rng.standard_normal((4, 2)))
    for A in (full, deficient):
        B = rand_bm(rng, 6, 4, 5, ip)
        X = pinv_apply(A, B)
        resid = BTensor(B.data - mode_mul(A, 1, X.T).data, ip)
        assert np.abs(adjoint_apply(A, resid)).max() \
            <= 1e-10 * fro_norm(A) * fro_norm(B)
        V = svd(A).V
        assert np.abs(X - V @ (V.T @ X)).max() <= 1e-10 * np.abs(X).max()


# --- row and column rank ------------------------------------------------------

def test_matrix_tucker_rank_cases(rng):
    # a matrix's Tucker rank is its (row rank, column rank)
    ip = InnerProduct.identity(2)
    assert tucker_rank(BTensor(np.zeros((3, 3, 2)), ip)) == (0, 0)
    # a 1 x 3 matrix over R^2 cannot exceed column rank 2
    A = rand_bm(rng, 1, 3, 2, ip)
    assert tucker_rank(A)[1] <= 2
    # generic 2 x 3 over R^5: column-rank 3, row-rank 2
    ip5 = InnerProduct.identity(5)
    B = rand_bm(rng, 2, 3, 5, ip5)
    assert tucker_rank(B) == (2, 3)
    assert tucker_rank(BTensor(np.swapaxes(B.data, 0, 1), ip5)) == (3, 2)


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_matrix_ranks_are_whitened_matrix_ranks(kind):
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
        M_w = (data @ L).transpose(0, 2, 1).reshape(m * h, n)
        rows_w = (data @ L).reshape(m, n * h)
        assert tucker_rank(BTensor(data, ip)) \
            == (whitened_rank(rows_w), whitened_rank(M_w))
        assert whitened_rank(M_w) == expected


# --- cross approximation: tucker_cross at two index sets ----------------------

def test_cross_rank_one_recovery(rng):
    ip = InnerProduct.identity(2)
    c = rng.standard_normal(5)
    d = rng.standard_normal(6)
    v = rng.standard_normal(2)
    A = BTensor(c[:, None, None] * d[None, :, None] * v[None, None, :], ip)
    B = cross(A, [2], [4])
    assert np.abs(B.data - A.data).max() <= 1e-10 * np.abs(A.data).max()


def test_cross_exactness_when_ranks_match(rng):
    # A = F K P^T with unit blocks at the sampled rows/columns, so the
    # sampled submatrix preserves both ranks of A
    ip = make_ip("dense", 3, rng)
    I, J = [1, 4], [0, 3, 5]
    K = BTensor(rng.standard_normal((2, 3, 3)), ip)
    F = rng.standard_normal((6, 2))
    F[I] = np.eye(2)
    P = rng.standard_normal((7, 3))
    P[J] = np.eye(3)
    A = mode_mul(mode_mul(K, 0, F), 1, P)
    B = cross(A, I, J)
    assert fro_norm(BTensor(B.data - A.data, ip)) <= 1e-9 * fro_norm(A)


def test_cross_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((5, 6))
    I, J = [0, 2], [1, 4]
    B = cross(BTensor(M[:, :, None], ip1), I, J)
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
        B = cross(A, I, J)
        diff = B.data[np.ix_(I, J)] - A.data[np.ix_(I, J)]
        assert ip.norms(diff).max() <= 1e-9 * fro_norm(A)


def test_cross_empty_index_set_errors(rng):
    A = rand_bm(rng, 3, 3, 2)
    with pytest.raises(ValueError):
        tucker_cross(A, [[], [0]])


def test_cross_inner_product_sensitivity():
    # fixed seeded instance: same index sets, different Gram, different B
    rng = np.random.default_rng(99)
    ip_id = InnerProduct.identity(6)
    ip_dense = make_ip("dense", 6, rng)
    data = rng.standard_normal((4, 5, 6))
    I, J = [0, 2], [1, 3]
    B_id = cross(BTensor(data, ip_id), I, J)
    B_dense = cross(BTensor(data, ip_dense), I, J)
    diff = fro_norm(BTensor(B_id.data - B_dense.data, ip_id))
    assert diff > 1e-6


def test_cross_left_factor_uses_transposed_core():
    # pseudoinversion and transposition do not commute; the left factor
    # must come from the transposed sampled block
    rng = np.random.default_rng(41)
    ip = make_ip("dense", 6, rng)
    A = BTensor(rng.standard_normal((4, 5, 6)), ip)
    I, J = [0, 2], [1, 3]
    core = BTensor(A.data[np.ix_(I, J)], ip)
    core_t = BTensor(np.swapaxes(core.data, 0, 1), ip)
    col_slab_t = BTensor(np.swapaxes(A.data[:, J], 0, 1), ip)
    F_eq = pinv_apply(core_t, col_slab_t).T
    F_naive = pinv_apply(core, col_slab_t).T
    assert np.abs(F_eq - F_naive).max() > 1e-6
    F_impl = tucker_cross(A, [I, J]).factors[0]
    mask = [i for i in range(4) if i not in I]
    assert np.abs(F_impl[mask] - F_eq[mask]).max() \
        <= 1e-10 * np.abs(F_eq[mask]).max()
    assert np.abs(F_impl[I] - F_eq[I]).max() < 1e-9
