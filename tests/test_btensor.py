import numpy as np
import pytest

from fvtensor.bmatrix import BMatrix, column_rank, left_mul, right_mul, transpose
from fvtensor.btensor import (
    BTensor,
    TuckerCrossModel,
    TuckerDecomp,
    assemble,
    error_norm,
    fro_norm,
    hosvd,
    hosvd_error_bound,
    mode_mul,
    model_gather,
    refold,
    relative_error,
    row_matrix,
    tucker_cross,
    tucker_rank,
    unfold,
)
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import (
    GRAM_KINDS,
    gram_matrix,
    make_ip,
    scalar_hosvd,
    scalar_tucker_cross,
    scalar_unfold,
    whitened_rank,
)


def rand_bt(rng, dims, h, ip=None):
    ip = ip or InnerProduct.identity(h)
    return BTensor(rng.standard_normal(tuple(dims) + (h,)), ip)


def exact_rank_tensor(rng, dims, ranks, h, ip=None):
    """Tensor with Tucker rank exactly ``ranks``, index sets known."""
    ip = ip or InnerProduct.identity(h)
    core = BTensor(rng.standard_normal(tuple(ranks) + (h,)), ip)
    factors = []
    sets = []
    for n, r in zip(dims, ranks):
        F = rng.standard_normal((n, r))
        I = sorted(rng.choice(n, size=r, replace=False).tolist())
        F[I] = np.eye(r)
        factors.append(F)
        sets.append(I)
    return assemble(TuckerDecomp(core=core, factors=factors)), sets


def direct_rel_error(A, B):
    return fro_norm(BTensor(A.data - B.data, A.ip)) / fro_norm(A)


# --- unfold / refold ---------------------------------------------------------

def test_unfold_big_endian_digits():
    ip = InnerProduct.identity(1)
    T = np.zeros((2, 2, 2, 1))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                T[i, j, k, 0] = 100 * (i + 1) + 10 * (j + 1) + (k + 1)
    A = BTensor(T, ip)
    assert unfold(A, 0).data[0, :, 0].tolist() == [111, 112, 121, 122]
    assert unfold(A, 1).data[0, :, 0].tolist() == [111, 112, 211, 212]
    assert unfold(A, 2).data[0, :, 0].tolist() == [111, 121, 211, 221]


def test_unfold_matrix_case(rng):
    A = rand_bt(rng, (3, 4), 2)
    assert np.array_equal(unfold(A, 0).data, A.data)
    assert np.array_equal(unfold(A, 1).data, np.swapaxes(A.data, 0, 1))


def test_refold_roundtrip(rng):
    A = rand_bt(rng, (3, 4, 2), 3)
    for k in range(3):
        assert np.array_equal(refold(unfold(A, k), k, A.dims).data, A.data)
    with pytest.raises(IndexError):
        unfold(A, 3)
    Z = refold(BMatrix(np.zeros((4, 6, 3)), A.ip), 1, (3, 4, 2))
    assert not Z.data.any()
    v = rand_bt(rng, (5,), 2)
    assert np.array_equal(refold(unfold(v, 0), 0, (5,)).data, v.data)


# --- mode products ----------------------------------------------------------

def test_mode_mul_identity_and_commutativity(rng):
    A = rand_bt(rng, (3, 3, 3), 2)
    assert np.allclose(mode_mul(A, 1, np.eye(3)).data, A.data)
    B1 = rng.standard_normal((4, 3))
    B2 = rng.standard_normal((2, 3))
    X = mode_mul(mode_mul(A, 0, B1), 1, B2)
    Y = mode_mul(mode_mul(A, 1, B2), 0, B1)
    assert np.abs(X.data - Y.data).max() < 1e-12
    with pytest.raises(ValueError):
        mode_mul(A, 0, np.eye(5))


def test_mode_unfolding_kronecker_identity(rng):
    # C_(k) = B_k A_(k) (kron of the others, big-endian order)^T
    A = rand_bt(rng, (2, 3, 2), 2)
    Bs = [rng.standard_normal((4, 2)), rng.standard_normal((5, 3)),
          rng.standard_normal((3, 2))]
    C = A
    for k, B in enumerate(Bs):
        C = mode_mul(C, k, B)
    for k in range(3):
        others = [Bs[l] for l in range(3) if l != k]
        kron = np.kron(others[0], others[1])
        rhs = right_mul(left_mul(Bs[k], unfold(A, k)), kron.T)
        assert np.abs(unfold(C, k).data - rhs.data).max() < 1e-10


# --- Tucker rank -------------------------------------------------------------

def test_tucker_rank_zero_and_constructed(rng):
    ip = InnerProduct.identity(3)
    assert tucker_rank(BTensor(np.zeros((2, 3, 4, 3)), ip)) == (0, 0, 0)
    A, _ = exact_rank_tensor(rng, (7, 6, 8), (2, 3, 2), 4)
    assert tucker_rank(A) == (2, 3, 2)


def test_tucker_rank_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 5))
    A = BTensor(M[:, :, None], ip1)
    r = np.linalg.matrix_rank(M)
    assert tucker_rank(A) == (r, r)


def test_rank_monotonicity_and_subtensor_bound(rng):
    for _ in range(5):
        core = rand_bt(rng, (2, 3, 2), 3)
        factors = [rng.standard_normal((5, 2)), rng.standard_normal((6, 3)),
                   rng.standard_normal((4, 2))]
        A = assemble(TuckerDecomp(core=core, factors=factors))
        ra = tucker_rank(A)
        rg = tucker_rank(core)
        assert all(x <= y for x, y in zip(ra, rg))
        sub = BTensor(A.data[np.ix_([0, 2, 4], [1, 3], [0, 3])], A.ip)
        assert all(x <= y for x, y in zip(tucker_rank(sub), ra))


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_tucker_rank_is_whitened_matrix_rank(kind):
    # mode k of a 4 x 5 x 3 tensor over R^3 gets whitened unfolding
    # singular values (1, 0.3, tiny): 1e-11 is kept, 1e-13 dropped
    rng = np.random.default_rng(37)
    dims, h = (4, 5, 3), 3
    ip = make_ip(kind, h, rng)
    L = np.linalg.cholesky(gram_matrix(ip))
    for k in range(3):
        for tiny, expected in ((1e-11, 3), (1e-13, 2)):
            sigma = np.array([1.0, 0.3, tiny])
            rest = [dims[l] for l in range(3) if l != k]
            Q, _ = np.linalg.qr(rng.standard_normal((dims[k], 3)))
            P, _ = np.linalg.qr(rng.standard_normal((rest[0] * rest[1] * h, 3)))
            T_w = np.moveaxis(((Q * sigma) @ P.T).reshape(
                [dims[k]] + rest + [h]), 0, k)
            data = np.linalg.solve(L.T, T_w.reshape(-1, h).T).T.reshape(T_w.shape)
            ranks = tucker_rank(BTensor(data, ip))
            for l in range(3):
                M_w = np.moveaxis(data @ L, l, 0).reshape(dims[l], -1)
                assert ranks[l] == whitened_rank(M_w)
            assert ranks[k] == expected


# --- row matrices ------------------------------------------------------------

def test_row_matrix_matrix_case(rng):
    A = rand_bt(rng, (5, 6), 2)
    J = [1, 4]
    R1 = row_matrix(A, [None, J], 0)
    assert R1.shape == (2, 5)
    assert np.array_equal(R1.data, np.swapaxes(A.data[:, J], 0, 1))


def test_row_matrix_singletons_and_core_slice(rng):
    A = rand_bt(rng, (4, 5, 6), 3)
    R2 = row_matrix(A, [[2], None, [3]], 1)
    assert R2.shape == (1, 5)
    assert np.array_equal(R2.data[0], A.data[2, :, 3])
    # R_k at the sampled columns is the transposed core unfolding
    sets = [[0, 2], [1, 3], [2, 5]]
    core = BTensor(A.data[np.ix_(*sets)], A.ip)
    for k in range(3):
        Rk = row_matrix(A, sets, k)
        lhs = Rk.data[:, sets[k]]
        rhs = transpose(unfold(core, k)).data
        assert np.array_equal(lhs, rhs)
    with pytest.raises(ValueError):
        row_matrix(A, [[], None, [0]], 1)


@pytest.mark.parametrize("source", ["tensor", "oracle"])
def test_row_matrix_rejects_out_of_range_sets(rng, source):
    # a negative index must not wrap round to the end of the mode, and an
    # index past the end fails the way tucker_cross does, before any read
    A = rand_bt(rng, (4, 5, 6), 3)
    src = A if source == "tensor" else CachedOracle(EntryOracle.from_tensor(A))
    for sets in ([[-1], [0], [0]], [[4], [0], [0]], [[0], [0], [6]]):
        with pytest.raises(ValueError):
            row_matrix(src, sets, 1)
        with pytest.raises(ValueError):
            tucker_cross(src, sets)
    if source == "oracle":
        assert src.count == 0


# --- Tucker-cross ------------------------------------------------------------

def test_tucker_cross_matches_matrix_cross(rng):
    from fvtensor.bmatrix import assemble_cross, cross_matrix
    ip = InnerProduct.identity(4)
    A2 = rand_bt(rng, (5, 6), 4, ip)
    I, J = [0, 3], [2, 5]
    model = tucker_cross(A2, [I, J])
    B_t = assemble(model)
    F, core, Pt = cross_matrix(BMatrix(A2.data, ip), I, J)
    B_m = assemble_cross(F, core, Pt)
    assert np.abs(B_t.data - B_m.data).max() < 1e-12 * np.abs(A2.data).max()


def test_tucker_cross_exact_recovery(rng):
    for kind in GRAM_KINDS:
        ip = make_ip(kind, 5, rng)
        A, sets = exact_rank_tensor(rng, (8, 7, 9), (2, 3, 2), 5, ip)
        model = tucker_cross(A, sets)
        assert direct_rel_error(A, assemble(model)) <= 1e-8


def test_tucker_cross_core_interpolation(rng):
    A = rand_bt(rng, (6, 5, 7), 3)
    sets = [[1, 4], [0, 2], [3, 6]]
    model = tucker_cross(A, sets)
    B = assemble(model)
    scale = max(A.ip.norms(model.core.data).max(), 1.0)
    diff = B.data[np.ix_(*sets)] - model.core.data
    assert A.ip.norms(diff).max() <= 1e-9 * scale
    assert np.array_equal(model.core.data, A.data[np.ix_(*sets)])


def test_tucker_cross_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    T = rng.standard_normal((5, 4, 6, 1))
    A = BTensor(T, ip1)
    sets = [[0, 2], [1, 3], [2, 5]]
    B = assemble(tucker_cross(A, sets))
    ref = scalar_tucker_cross(T[..., 0], sets)
    assert np.abs(B.data[..., 0] - ref).max() < 1e-9 * np.abs(T).max()


def test_slab_reproduction_and_exactness_conditions(rng):
    # positive: exact-rank sets reproduce the fiber slabs and the tensor
    ip = InnerProduct.identity(4)
    A, sets = exact_rank_tensor(rng, (7, 6, 8), (2, 2, 2), 4, ip)
    model = tucker_cross(A, sets)
    B = assemble(model)
    for k in range(3):
        Rk_a = row_matrix(A, sets, k)
        Rk_b = row_matrix(B, sets, k)
        core_unf = unfold(model.core, k)
        assert column_rank(transpose(core_unf)) == column_rank(Rk_a)
        assert fro_norm(BMatrix(Rk_a.data - Rk_b.data, ip)) \
            <= 1e-9 * fro_norm(Rk_a)
    assert direct_rel_error(A, B) <= 1e-8
    # negative: undersized sets leave rank behind, slabs not reproduced
    small = [I[:1] for I in sets]
    m2 = tucker_cross(A, small)
    B2 = assemble(m2)
    assert direct_rel_error(A, B2) > 1e-3
    slab_gap = max(
        fro_norm(BMatrix(row_matrix(A, small, k).data
                         - row_matrix(B2, small, k).data, ip))
        for k in range(3))
    assert slab_gap > 1e-6


# --- assemble / entry ---------------------------------------------------------

def test_model_gather_entry_matches_assemble(rng):
    A = rand_bt(rng, (6, 5, 4), 3)
    sets = [[0, 3], [1, 4], [0, 2]]
    model = tucker_cross(A, sets)
    B = assemble(model)
    for _ in range(20):
        idx = tuple(int(rng.integers(n)) for n in A.dims)
        val = model_gather(model, [[i] for i in idx]).reshape(-1)
        assert np.abs(val - B.data[idx]).max() < 1e-12
    grids = [[0, 5], [2], [1, 3]]
    gathered = model_gather(model, grids)
    assert np.allclose(gathered, B.data[np.ix_(*grids)], atol=1e-12)


def test_model_gather_rank_one_and_zero_core(rng):
    ip = InnerProduct.identity(3)
    core = BTensor(rng.standard_normal((1, 1, 3)), ip)
    factors = [rng.standard_normal((4, 1)), rng.standard_normal((5, 1))]
    dec = TuckerDecomp(core=core, factors=factors)
    val = model_gather(dec, [[2], [3]])
    assert val.shape == (1, 1, 3)
    assert np.allclose(val[0, 0],
                       factors[0][2, 0] * factors[1][3, 0] * core.data[0, 0])
    zero = TuckerDecomp(core=BTensor(np.zeros((1, 1, 3)), ip), factors=factors)
    assert not model_gather(zero, [[1], [1]]).any()


# --- HOSVD --------------------------------------------------------------------

def test_hosvd_exact_rank_one(rng):
    ip = InnerProduct.identity(4)
    A, _ = exact_rank_tensor(rng, (5, 4, 6), (1, 1, 1), 4, ip)
    res = hosvd(A, (1, 1, 1))
    assert direct_rel_error(A, assemble(res.decomp)) <= 1e-10


def test_hosvd_bound_seeded():
    rng = np.random.default_rng(17)
    for trial in range(10):
        kind = GRAM_KINDS[trial % 3]
        h = int(rng.integers(1, 6))
        ip = make_ip(kind, h, rng)
        A = rand_bt(rng, (6, 5, 4), h, ip)
        ranks = tuple(int(rng.integers(1, n)) for n in (6, 5, 4))
        res = hosvd(A, ranks)
        err = fro_norm(BTensor(A.data - assemble(res.decomp).data, ip))
        bound = hosvd_error_bound(res.sigmas, res.ranks)
        assert err <= bound * (1.0 + 1e-8) + 1e-12


def test_hosvd_matrix_case_matches_truncated_svd(rng):
    ip1 = InnerProduct.identity(1)
    M = rng.standard_normal((8, 7))
    A = BTensor(M[:, :, None], ip1)
    for r in (1, 3, 5):
        res = hosvd(A, (r, r))
        err = fro_norm(BTensor(A.data - assemble(res.decomp).data, ip1))
        s = np.linalg.svd(M, compute_uv=False)
        expected = np.sqrt(np.sum(s[r:] ** 2))
        assert err == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_hosvd_scalar_oracle(rng):
    ip1 = InnerProduct.identity(1)
    T = rng.standard_normal((5, 4, 6))
    A = BTensor(T[..., None], ip1)
    ranks = (2, 3, 2)
    res = hosvd(A, ranks)
    B = assemble(res.decomp)
    ref = scalar_hosvd(T, ranks)
    err_lib = np.linalg.norm((B.data[..., 0] - T).ravel())
    err_ref = np.linalg.norm((ref - T).ravel())
    assert err_lib == pytest.approx(err_ref, rel=1e-9)


def test_hosvd_clamps_requested_rank(rng):
    A, _ = exact_rank_tensor(rng, (6, 6, 6), (2, 2, 2), 4)
    res = hosvd(A, (5, 5, 5))
    assert res.clamped
    assert res.ranks == (2, 2, 2)


def test_fro_norm_cases(rng):
    ip = InnerProduct.identity(3)
    assert fro_norm(BTensor(np.zeros((2, 2, 3)), ip)) == 0.0
    v = rng.standard_normal(3)
    single = BTensor(v.reshape(1, 1, 3), ip)
    assert fro_norm(single) == pytest.approx(np.linalg.norm(v))
    M = rng.standard_normal((4, 5))
    A = BTensor(M[:, :, None], InnerProduct.identity(1))
    assert fro_norm(A) == pytest.approx(np.linalg.norm(M.ravel()))


def test_relative_error_matches_direct(rng):
    ip = make_ip("diagonal", 4, rng)
    A = rand_bt(rng, (6, 5, 7), 4, ip)
    model = tucker_cross(A, [[0, 2], [1, 3], [2, 4]])
    B = assemble(model)
    direct = direct_rel_error(A, B)
    assert relative_error(A, model) == pytest.approx(direct, rel=1e-10)
    diff = fro_norm(BTensor(A.data - B.data, ip))
    assert error_norm(A, model) == pytest.approx(diff, rel=1e-10)
    assert error_norm(A, model) / fro_norm(A) == relative_error(A, model)
    with pytest.raises(ValueError):
        relative_error(BTensor(np.zeros_like(A.data), ip), model)


def test_scalar_consistency_all_ops(rng):
    # h = 1 with identity Gram must match plain dense scalar computations
    ip1 = InnerProduct.identity(1)
    T = rng.standard_normal((4, 5, 3))
    A = BTensor(T[..., None], ip1)
    for k in range(3):
        assert np.array_equal(unfold(A, k).data[..., 0], scalar_unfold(T, k))
    B = rng.standard_normal((6, 5))
    assert np.allclose(mode_mul(A, 1, B).data[..., 0],
                       np.moveaxis(np.tensordot(B, T, axes=(1, 1)), 0, 1))
    r = tucker_rank(A)
    assert r == tuple(np.linalg.matrix_rank(scalar_unfold(T, k))
                      for k in range(3))
