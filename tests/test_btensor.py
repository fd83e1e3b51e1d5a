import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvtensor import btensor
from fvtensor.btensor import (
    BTensor,
    TuckerCrossModel,
    TuckerDecomp,
    assemble,
    error_norm,
    fro_norm,
    hosvd,
    hosvd_error,
    hosvd_error_bound,
    mode_mul,
    model_gather,
    relative_error,
    tucker_cross,
    tucker_rank,
    unfold,
)
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import (
    GRAM_KINDS,
    fiber_slab,
    gram_matrix,
    make_ip,
    scalar_cross,
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


# --- unfold ------------------------------------------------------------------

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


def refold(M, k, dims):
    """Numpy inverse of ``unfold``: the rows of ``M`` back at mode ``k``."""
    rest = [n for l, n in enumerate(dims) if l != k]
    return np.moveaxis(M.data.reshape([dims[k]] + rest + [M.h]), 0, k)


def test_refold_roundtrip(rng):
    A = rand_bt(rng, (3, 4, 2), 3)
    for k in range(3):
        assert np.array_equal(refold(unfold(A, k), k, A.dims), A.data)
    with pytest.raises(IndexError):
        unfold(A, 3)
    v = rand_bt(rng, (5,), 2)
    assert np.array_equal(refold(unfold(v, 0), 0, (5,)), v.data)


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
    # a negative mode must not reach the coefficient axis
    with pytest.raises(IndexError):
        mode_mul(rand_bt(rng, (3, 2), 2), -1, np.eye(2))


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
        rhs = mode_mul(mode_mul(unfold(A, k), 0, Bs[k]), 1, kron)
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


# --- Tucker-cross ------------------------------------------------------------

@pytest.mark.parametrize("source", ["tensor", "oracle"])
def test_tucker_cross_rejects_out_of_range_sets(rng, monkeypatch, source):
    # an empty set, a negative index (which must not wrap round to the end
    # of the mode) and an index past the end all fail before any read
    A = rand_bt(rng, (4, 5, 6), 3)
    src = A if source == "tensor" else CachedOracle(EntryOracle.from_tensor(A))
    reads = []
    real_gather = type(src).gather

    def gather(self, grids):
        reads.append(grids)
        return real_gather(self, grids)

    monkeypatch.setattr(type(src), "gather", gather)
    for sets in ([[], [0], [0]], [[-1], [0], [0]], [[4], [0], [0]],
                 [[0], [0], [6]]):
        with pytest.raises(ValueError):
            tucker_cross(src, sets)
    assert reads == []
    if source == "oracle":
        assert src.count == 0


@pytest.mark.parametrize("source", ["tensor", "oracle"])
@pytest.mark.parametrize("bad", [0.9, np.nan, "1"], ids=["float", "nan", "string"])
def test_tucker_cross_rejects_non_integer_sets(rng, source, bad):
    # 0.9 is not truncated to index 0, nor "1" parsed as index 1
    A = rand_bt(rng, (4, 5, 6), 3)
    src = A if source == "tensor" else CachedOracle(EntryOracle.from_tensor(A))
    with pytest.raises(ValueError, match="mode-0 index set holds a non-integer"):
        tucker_cross(src, [[bad], [1], [2]])
    if source == "oracle":
        assert src.count == 0


def test_tucker_cross_matches_matrix_cross(rng):
    # d = 2 is matrix cross approximation: the scalar F pinv(core) Pt at
    # h = 1, and under a dense Gram the same with both factors solved in
    # whitened coordinates, the left one through the transposed core
    I, J = [0, 3], [2, 5]
    M = rng.standard_normal((5, 6))
    B = assemble(tucker_cross(BTensor(M[:, :, None], InnerProduct.identity(1)),
                              [I, J]))
    assert np.abs(B.data[:, :, 0] - scalar_cross(M, I, J)).max() \
        < 1e-12 * np.abs(M).max()

    h = 4
    ip = make_ip("dense", h, rng)
    A = rand_bt(rng, (5, 6), h, ip)
    W = A.data @ np.linalg.cholesky(gram_matrix(ip))

    def cols(X):  # whitened (p, q, h) block as the (p*h, q) column matrix
        return np.moveaxis(X, 2, 1).reshape(-1, X.shape[1])

    Pt = np.linalg.pinv(cols(W[np.ix_(I, J)])) @ cols(W[I])
    Wt = np.swapaxes(W, 0, 1)
    F = (np.linalg.pinv(cols(Wt[np.ix_(J, I)])) @ cols(Wt[J])).T
    ref = np.einsum("ri,ijh,jl->rlh", F, A.data[np.ix_(I, J)], Pt)
    B = assemble(tucker_cross(A, [I, J]))
    assert np.abs(B.data - ref).max() <= 1e-10 * np.abs(A.data).max()


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
        Rk_a = fiber_slab(A.data, sets, k)
        Rk_b = fiber_slab(B.data, sets, k)
        assert whitened_rank(scalar_unfold(model.core.data, k)) \
            == whitened_rank(scalar_unfold(Rk_a, 1))
        assert np.linalg.norm(Rk_a - Rk_b) <= 1e-9 * np.linalg.norm(Rk_a)
    assert direct_rel_error(A, B) <= 1e-8
    # negative: undersized sets leave rank behind, slabs not reproduced
    small = [I[:1] for I in sets]
    m2 = tucker_cross(A, small)
    B2 = assemble(m2)
    assert direct_rel_error(A, B2) > 1e-3
    slab_gap = max(
        np.linalg.norm(fiber_slab(A.data, small, k)
                       - fiber_slab(B2.data, small, k))
        for k in range(3))
    assert slab_gap > 1e-6


class CountingOracle(CachedOracle):
    """Cached oracle that counts every entry requested, hit or miss."""

    requested = 0

    def get_many(self, indices):
        self.requested += len(indices)
        return super().get_many(indices)


def grown_reads(dims, S0, S):
    """Entries ``tucker_cross`` at ``S`` reads given the model at ``S0``:
    the core entries with a new index in some mode, and per mode the full
    fibers that are new at ``S``."""
    s0 = [len(I) for I in S0]
    s = [len(I) for I in S]
    new_fibers = [int(np.prod(s[:k] + s[k + 1:]))
                  - int(np.prod(s0[:k] + s0[k + 1:])) for k in range(len(s))]
    return int(np.prod(s)) - int(np.prod(s0)) + sum(
        n * f for n, f in zip(dims, new_fibers))


@pytest.mark.parametrize("kind", GRAM_KINDS)
@pytest.mark.parametrize("dims, h, S0, S", [
    # mode 1's set does not grow
    ((7, 6, 8), 4, [[0, 3], [1], [2, 5]], [[0, 3, 5], [1], [2, 4, 5, 7]]),
    # h < n_k and few fibers: every R is wide
    ((9, 8, 10), 2, [[1], [2], [3]], [[1, 4], [2], [3, 6]]),
])
def test_tucker_cross_prev_matches_from_scratch(rng, kind, dims, h, S0, S):
    A = rand_bt(rng, dims, h, make_ip(kind, h, rng))
    ref = assemble(tucker_cross(A, S))
    model = tucker_cross(A, S, prev=tucker_cross(A, S0))
    assert model.index_sets == tuple(tuple(I) for I in S)
    assert np.array_equal(model.core.data, A.data[np.ix_(*S)])
    assert direct_rel_error(ref, assemble(model)) <= 1e-12


def test_tucker_cross_prev_reads_only_new_fibers(rng):
    A = rand_bt(rng, (7, 6, 8), 3)
    S0 = [[0, 3], [1], [2, 5]]
    S = [[0, 3, 5], [1], [2, 4, 5, 7]]
    c = CountingOracle(EntryOracle.from_tensor(A))
    prev = tucker_cross(c, S0)
    c.requested = 0
    tucker_cross(c, S, prev=prev)
    # the core grows from prev's: only its entries at a new index are read
    assert c.requested == grown_reads(A.dims, S0, S)


@st.composite
def set_growth(draw):
    """Dims, ``h``, a Gram kind and nested index sets ``S0 <= S``; a mode's
    set may not grow at all."""
    dims = draw(st.lists(st.integers(2, 6), min_size=2, max_size=3))
    S0, S = [], []
    for n in dims:
        I = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                          unique=True))
        cut = draw(st.integers(1, len(I)))
        S0.append(sorted(I[:cut]))
        S.append(sorted(I))
    h = draw(st.integers(1, 4))
    return dims, h, draw(st.sampled_from(GRAM_KINDS)), S0, S


@settings(max_examples=40, deadline=None)
@given(set_growth(), st.integers(0, 2**32 - 1))
# no set grows
@example(((5, 4, 3), 2, "dense", [[0, 3], [1], [2]], [[0, 3], [1], [2]]), 0)
# mode 1's set does not grow
@example(((5, 4, 3), 3, "diagonal", [[1], [0, 2], [1]],
          [[1, 4], [0, 2], [0, 1]]), 1)
def test_tucker_cross_prev_property(case, seed):
    dims, h, kind, S0, S = case
    rng = np.random.default_rng(seed)
    A = rand_bt(rng, dims, h, make_ip(kind, h, rng))
    c = CountingOracle(EntryOracle.from_tensor(A))
    prev = tucker_cross(c, S0)
    c.requested = 0
    model = tucker_cross(c, S, prev=prev)
    scratch = tucker_cross(A, S)
    assert model.index_sets == scratch.index_sets
    assert model.core.data.tobytes() == scratch.core.data.tobytes()
    ref = assemble(scratch)
    assert fro_norm(BTensor(assemble(model).data - ref.data, A.ip)) <= (
        1e-10 * max(fro_norm(ref), fro_norm(A)))
    assert c.requested == grown_reads(dims, S0, S)
    if S == S0:
        # nothing is read and no R changes
        assert c.requested == 0
        assert all(R is R0 for R, R0 in zip(model.r_factors, prev.r_factors))


def test_tucker_cross_rejects_unfoldable_prev(rng):
    A = rand_bt(rng, (6, 5, 4), 2)
    c = CachedOracle(EntryOracle.from_tensor(A))
    prev = tucker_cross(c, [[0, 2], [1], [3]])
    count = c.count
    with pytest.raises(ValueError):
        # mode 0 drops index 2
        tucker_cross(c, [[0, 1], [1, 2], [3]], prev=prev)
    loaded = TuckerCrossModel(index_sets=prev.index_sets, core=prev.core,
                              factors=prev.factors, dims=prev.dims)
    with pytest.raises(ValueError):
        tucker_cross(c, [[0, 2, 4], [1], [3]], prev=loaded)
    assert c.count == count


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


DENSE_GATHERS = {
    "BTensor.gather": lambda A, model, grids: A.gather(grids),
    "model_gather": lambda A, model, grids: model_gather(model, grids),
}


@pytest.mark.parametrize("gather", sorted(DENSE_GATHERS))
@pytest.mark.parametrize("bad, named", [
    (0.7, "indices must be integers"),
    (np.nan, "indices must be integers"),
    (-1, "mode 0 index out of range for size 6"),
    (6, "mode 0 index out of range for size 6"),
])
def test_dense_gather_refuses_a_bad_grid(rng, gather, bad, named):
    # the same index rule as CachedOracle.gather: a float is not truncated
    # to entry 0 and a negative index does not wrap to the last entry
    A = rand_bt(rng, (6, 5, 4), 3)
    model = tucker_cross(A, [[0, 3], [1, 4], [0, 2]])
    read = DENSE_GATHERS[gather]
    with pytest.raises(IndexError, match=named):
        read(A, model, [[bad], [1], [2]])
    with pytest.raises(IndexError, match="one index list per mode"):
        read(A, model, [[0], [1]])
    assert read(A, model, [[], [1], [2]]).shape == (0, 1, 1, 3)


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


def _einsum_gather(model, grids):
    """``model_gather`` reference: one einsum in a fixed order."""
    d = len(grids)
    letters = "abcdefg"[:d]
    spec = ",".join(f"{letters[k].upper()}{letters[k]}" for k in range(d))
    spec += f",{letters}z->{letters.upper()}z"
    rows = [F[np.asarray(g, dtype=int)] for F, g in zip(model.factors, grids)]
    return np.einsum(spec, *rows, model.core.data)


@pytest.mark.parametrize("shape", ["single", "aux", "full"])
@pytest.mark.parametrize("pos", [0, 1, 2])
def test_model_gather_matches_einsum_in_any_order(rng, shape, pos):
    # the contraction order follows the grid sizes; the values must not
    dims, h = (9, 8, 7), 5
    A = rand_bt(rng, dims, h, make_ip("dense", h, rng))
    model = tucker_cross(A, [[0, 3, 5, 8], [1, 2, 6], [0, 4]])
    pick = {"single": lambda n: [n // 2], "aux": lambda n: [0, 2, n - 1],
            "full": lambda n: list(range(n))}
    for rest in ("single", "aux", "full"):
        grids = [pick[shape if k == pos else rest](n)
                 for k, n in enumerate(dims)]
        ref = _einsum_gather(model, grids)
        got = model_gather(model, grids)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("pos", [0, 1, 2])
def test_model_gather_rank_zero_mode(rng, pos):
    ranks = [2, 3, 2]
    ranks[pos] = 0
    dims = (5, 4, 6)
    ip = InnerProduct.identity(3)
    dec = TuckerDecomp(core=BTensor(np.zeros(tuple(ranks) + (3,)), ip),
                       factors=[rng.standard_normal((n, r))
                                for n, r in zip(dims, ranks)])
    grids = [[1], [0, 2, 3], list(range(6))]
    got = model_gather(dec, grids)
    assert got.shape == (1, 3, 6, 3)
    assert np.array_equal(got, _einsum_gather(dec, grids))
    assert not got.any()


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


def test_hosvd_rejects_negative_ranks(rng):
    A = rand_bt(rng, (4, 3, 5), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        hosvd(A, (-1, 2, 2))
    with pytest.raises(ValueError, match="integers"):
        hosvd(A, (1.5, 2, 2))
    res = hosvd(A, (0, 2, 2))
    assert res.ranks == (0, 2, 2) and not res.clamped
    assert res.decomp.core.dims == (0, 2, 2)


@pytest.mark.parametrize("dims, cases", [
    ((5,), [(0,), (1,), (2,)]),
    ((6, 5), [(0, 3), (2, 0), (3, 2)]),
    ((4, 3, 5, 3), [(0, 2, 3, 2), (2, 2, 0, 1), (3, 2, 4, 0), (2, 1, 3, 2)]),
])
def test_hosvd_any_order_and_zero_rank_match_scalar_oracle(rng, dims, cases):
    # a tensor over R^2 under the identity Gram is a scalar tensor with
    # one more mode, which the oracle keeps whole; a requested rank of 0
    # gives an empty core and a zero approximant
    T = rng.standard_normal(dims + (2,))
    A = BTensor(T, InnerProduct.identity(2))
    for ranks in cases:
        res = hosvd(A, ranks)
        assert res.ranks == res.decomp.core.dims == ranks
        assert not res.clamped
        ref = scalar_hosvd(T, ranks + (2,))
        assert np.abs(assemble(res.decomp).data - ref).max() <= 1e-10


@pytest.mark.parametrize("dims", [(3,), (3, 4), (2, 3, 4, 3)])
def test_hosvd_of_a_zero_tensor_is_empty(dims):
    # mode 0 has rank 0, so every later mode has nothing left to factor
    A = BTensor(np.zeros(dims + (2,)), InnerProduct.identity(2))
    zeros = (0,) * len(dims)
    for ranks in (None, (1,) * len(dims), zeros):
        res = hosvd(A, ranks)
        assert res.ranks == res.decomp.core.dims == zeros
        assert res.clamped == (ranks != zeros)
        assert [s.size for s in res.sigmas] == list(zeros)
        assert [F.shape for F in res.decomp.factors] == [(n, 0) for n in dims]
    assert tucker_rank(A) == zeros


@pytest.mark.parametrize("kind", ["diagonal", "dense"])
def test_hosvd_and_tucker_rank_read_one_slab_stream(monkeypatch, kind):
    # both run the same passes, each whitening slabs as they are cut and
    # none the whole tensor: modes 0 and 1 from 8 last-mode slabs of one
    # index, mode 1's contracted with the mode-0 factor first, then mode
    # 2 from the (2, 3, 8) buffer in 2 first-mode slabs; the reference
    # whitens with the Cholesky factor and takes each unfolding's SVD
    rng = np.random.default_rng(53)
    ranks = (2, 3, 2)
    ip = make_ip(kind, 4, rng)
    A, _ = exact_rank_tensor(rng, (7, 6, 8), ranks, 4, ip)
    calls = []
    real_whiten = InnerProduct.whiten

    def whiten(self, x):
        calls.append(x.shape)
        return real_whiten(self, x)

    monkeypatch.setattr(btensor, "SLAB", 3 * 8 * 4)
    monkeypatch.setattr(InnerProduct, "whiten", whiten)
    res = hosvd(A)
    passes = [(7, 6, 1, 4)] * 8 + [(2, 6, 1, 4)] * 8 + [(1, 3, 8, 4)] * 2
    assert calls == passes
    assert all(math.prod(c) < A.data.size for c in calls)
    calls.clear()
    assert tucker_rank(A) == res.ranks == ranks
    assert calls == passes
    T_w = A.data @ np.linalg.cholesky(gram_matrix(ip))
    for k, r in enumerate(ranks):
        M_w = scalar_unfold(T_w, k)
        U, s, _ = np.linalg.svd(M_w, full_matrices=False)
        assert whitened_rank(M_w) == r == res.sigmas[k].size
        assert np.abs(res.sigmas[k] - s[:r]).max() <= 1e-12 * s[0]
        # each column's entry of largest magnitude is positive
        U = U[:, :r] * np.sign(U[np.argmax(np.abs(U[:, :r]), axis=0),
                                 np.arange(r)])
        assert np.abs(res.decomp.factors[k] - U).max() <= 1e-10


@pytest.mark.parametrize("kind", GRAM_KINDS)
@pytest.mark.parametrize("dims", [(7, 6), (6, 5, 4), (4, 3, 5, 3), (5,)])
def test_hosvd_error_matches_error_norm(kind, dims):
    # the core outside the kept block carries the truncation error; compare
    # with the full-tensor error of the HOSVD truncated to the same ranks
    rng = np.random.default_rng(43)
    ip = make_ip(kind, 3, rng)
    A = rand_bt(rng, dims, 3, ip)
    full = hosvd(A)
    tol = 1e-12 * fro_norm(A)
    cases = [full.ranks, tuple(max(1, r // 2) for r in full.ranks),
             tuple(int(rng.integers(1, r + 1)) for r in full.ranks)]
    cases += [full.ranks[:k] + (0,) + full.ranks[k + 1:]
              for k in range(len(dims))]
    for ranks in cases:
        truncated = hosvd(A, ranks)
        assert truncated.ranks == ranks
        assert abs(hosvd_error(full, ranks)
                   - error_norm(A, truncated.decomp)) <= tol
    assert hosvd_error(full, full.ranks) == 0.0
    zero_mode = (0,) + full.ranks[1:]
    assert hosvd_error(full, zero_mode) == pytest.approx(fro_norm(A),
                                                         rel=1e-12)
    # ranks past the core keep the whole mode
    assert hosvd_error(full, [r + 2 for r in full.ranks]) == 0.0
    # the bound reads the same rank tuple: a short one does not drop a
    # mode, and a negative rank does not count from the end
    for bad in (full.ranks[:-1], (-1,) + full.ranks[1:]):
        with pytest.raises(ValueError, match="nonnegative"):
            hosvd_error(full, bad)
        with pytest.raises(ValueError, match="nonnegative"):
            hosvd_error_bound(full.sigmas, bad)


def test_fro_norm_cases(rng):
    ip = InnerProduct.identity(3)
    assert fro_norm(BTensor(np.zeros((2, 2, 3)), ip)) == 0.0
    v = rng.standard_normal(3)
    single = BTensor(v.reshape(1, 1, 3), ip)
    assert fro_norm(single) == pytest.approx(np.linalg.norm(v))
    M = rng.standard_normal((4, 5))
    A = BTensor(M[:, :, None], InnerProduct.identity(1))
    assert fro_norm(A) == pytest.approx(np.linalg.norm(M.ravel()))


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_relative_error_matches_direct(rng, kind, monkeypatch):
    ip = make_ip(kind, 4, rng)
    A = rand_bt(rng, (6, 5, 7), 4, ip)
    model = tucker_cross(A, [[0, 2], [1, 3], [2, 4]])
    B = assemble(model)
    direct = direct_rel_error(A, B)
    assert relative_error(A, model) == pytest.approx(direct, rel=1e-10)
    diff = fro_norm(BTensor(A.data - B.data, ip))
    whole = error_norm(A, model)
    assert whole == pytest.approx(diff, rel=1e-10)
    assert whole / fro_norm(A) == relative_error(A, model)
    # slabs of 2 second-mode slices of 6 * 7 * 4 floats: 2, 2 and a ragged 1
    monkeypatch.setattr(btensor, "SLAB", 2 * 6 * 7 * 4)
    assert [len(range(5)[c]) for c in btensor._cuts(A, 1)] == [2, 2, 1]
    assert error_norm(A, model) == pytest.approx(diff, rel=1e-10)
    with pytest.raises(ValueError):
        relative_error(BTensor(np.zeros_like(A.data), ip), model)


def test_error_norm_refuses_a_model_of_another_shape(rng):
    # a model of a (5, 5, 5), h=3 tensor broadcast against a (5, 5, 1)
    # tensor once returned a number; the Gram is not compared, so a model
    # under the identity Gram is still scored against a dense-Gram tensor
    A = rand_bt(rng, (5, 5, 5), 3)
    model = hosvd(A).decomp
    for dims, h in (((5, 5, 1), 3), ((5, 5, 5), 2), ((5, 5), 3),
                    ((5, 5, 5, 1), 3)):
        B = rand_bt(rng, dims, h)
        shapes = rf"\(5, 5, 5, 3\).*{re.escape(str(B.data.shape))}"
        with pytest.raises(ValueError, match=shapes):
            error_norm(B, model)
        with pytest.raises(ValueError, match=shapes):
            relative_error(B, model)
    dense = BTensor(A.data, make_ip("dense", 3, rng))
    assert error_norm(dense, model) == pytest.approx(
        fro_norm(BTensor(A.data - assemble(model).data, dense.ip)),
        abs=1e-12 * fro_norm(dense))


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
