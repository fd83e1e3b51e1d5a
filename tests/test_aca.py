from types import SimpleNamespace

import numpy as np
import pytest

from fvtensor.aca import (
    AbcConfig,
    _ResidualRowView,
    _round_robin_stride,
    draw,
    leverage_scores,
    rook_pivot,
    tucker_abc,
)
from fvtensor.bmatrix import BMatrix, svd
from fvtensor.btensor import BTensor, assemble, fro_norm, tucker_rank
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import GRAM_KINDS, make_ip


def tensor_oracle(A, threads=1):
    return CachedOracle(EntryOracle.from_tensor(A), threads=threads)


def exact_rank_tensor(rng, dims, ranks, h, ip=None):
    from fvtensor.btensor import TuckerDecomp
    ip = ip or InnerProduct.identity(h)
    core = BTensor(rng.standard_normal(tuple(ranks) + (h,)), ip)
    factors = []
    for n, r in zip(dims, ranks):
        F = rng.standard_normal((n, r))
        F[sorted(np.random.default_rng(0).choice(n, r, replace=False))] = np.eye(r)
        factors.append(F)
    return assemble(TuckerDecomp(core=core, factors=factors))


# --- rook pivoting -----------------------------------------------------------

def matrix_view(data, ip):
    """Residual view of an (m, n, h) array as a 2-way tensor, empty model.

    With full auxiliary sets and rows indexed by mode 0, the view's
    entries are exactly the matrix entries.
    """
    m, n = data.shape[:2]
    return _ResidualRowView(BTensor(data, ip), None,
                            [list(range(m)), list(range(n))], 1)


def test_rook_finds_global_max(rng):
    # seeded 4x5 instance whose global max is a rook-stable point: the
    # max's row dominates every column, so every walk funnels into it
    ip = InnerProduct.identity(1)
    M = rng.random((4, 5)) * 0.4
    M[2] = 1.0 + rng.random(5) * 0.3
    M[2, 3] = 10.0
    view = matrix_view(M[:, :, None], ip)
    assert view.shape == (4, 5)
    for j_start in range(5):
        i, j = rook_pivot(view, j_start, 2)
        assert j == 3
        assert i == 2
    # brute-force confirmation that (2, 3) is the max entry
    assert np.unravel_index(np.argmax(np.abs(M)), M.shape) == (2, 3)


def test_rook_zero_rounds():
    ip = InnerProduct.identity(1)
    view = matrix_view(np.ones((3, 4, 1)), ip)
    i, j = rook_pivot(view, 2, 0)
    assert i is None and j == 2
    assert view.max_seen == 0.0


def test_rook_tie_break_smallest_index():
    ip = InnerProduct.identity(1)
    i, j = rook_pivot(matrix_view(np.ones((3, 4, 1)), ip), 0, 1)
    assert (i, j) == (0, 0)


def test_rook_final_row_argmax_contract(rng):
    ip = InnerProduct.identity(2)
    data = rng.standard_normal((6, 7, 2))
    i, j = rook_pivot(matrix_view(data, ip), 4, 3)
    row = ip.norms(data[i])
    assert row[j] == row.max()
    with pytest.raises(ValueError):
        rook_pivot(SimpleNamespace(shape=(0, 3)), 0, 1)


# --- draw rules --------------------------------------------------------------

def test_draw_single_column():
    rng = np.random.default_rng(0)
    for rule in ("uniform", "round_robin", "leverage"):
        out = draw(rule, 1, rng, iteration=3, scores=np.array([1.0]))
        assert out == 0


def test_draw_uniform_reproducible():
    a = [draw("uniform", 10, np.random.default_rng(42)) for _ in range(5)]
    b = [draw("uniform", 10, np.random.default_rng(42)) for _ in range(5)]
    assert a == b


def test_draw_leverage_degenerate():
    rng = np.random.default_rng(1)
    p = np.zeros(6)
    p[0] = 1.0
    assert all(draw("leverage", 6, rng, scores=p) == 0 for _ in range(10))
    with pytest.raises(ValueError):
        draw("leverage", 3, rng, scores=np.array([0.5, 0.2, 0.2]))
    with pytest.raises(ValueError):
        draw("leverage", 3, rng, scores=np.array([1.2, -0.2, 0.0]))


def test_round_robin_stride_and_coverage():
    assert _round_robin_stride(1) == 1
    assert _round_robin_stride(30) == 13
    for n in (2, 5, 8, 30):
        s = _round_robin_stride(n)
        assert s <= -(-n // 2) and np.gcd(s, n) == 1
        rng = np.random.default_rng(0)
        hits = {draw("round_robin", n, rng, iteration=it)
                for it in range(1, n + 1)}
        assert hits == set(range(n))


# --- leverage scores ---------------------------------------------------------

def test_leverage_uniform_for_orthonormal_square(rng):
    # slab whose right singular factor is (up to sign) the identity
    ip = InnerProduct.identity(3)
    diag = np.zeros((4, 4, 3))
    for i in range(4):
        diag[i, i] = (i + 1.0) * np.array([1.0, 0.0, 0.0])
    p = leverage_scores(BMatrix(diag, ip))
    assert np.allclose(p, 0.25)


def test_leverage_rank_one_closed_form():
    # rank-1 slab with fiber weights (2, 1): scores (4/5, 1/5)
    ip = InnerProduct.identity(3)
    v = np.array([0.3, -1.2, 0.5])
    w = np.array([2.0, 1.0])
    slab = np.zeros((3, 2, 3))
    for t in range(3):
        slab[t] = (t + 1.0) * w[:, None] * v[None, :]
    p = leverage_scores(BMatrix(slab, ip))
    assert np.allclose(p, [0.8, 0.2])


def test_leverage_normalization_and_zero(rng):
    ip = make_ip("dense", 4, rng)
    slab = BMatrix(rng.standard_normal((3, 7, 4)), ip)
    p = leverage_scores(slab)
    assert p.min() >= 0.0
    assert abs(p.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        leverage_scores(BMatrix(np.zeros((2, 3, 4)), ip))


# --- the adaptive loop ---------------------------------------------------------

def test_abc_exact_recovery_constructed(rng):
    for kind in GRAM_KINDS:
        ip = make_ip(kind, 6, rng)
        A = exact_rank_tensor(rng, (9, 10, 8), (2, 3, 2), 6, ip)
        c = tensor_oracle(A)
        cfg = AbcConfig(n_iter=3, init_aux=[[0, 5], [2, 7], [1, 4]],
                        n_rook=1, seed=3)
        model, report = tucker_abc(c, cfg)
        err = fro_norm(BTensor(assemble(model).data - A.data, ip)) / fro_norm(A)
        assert err <= 1e-8
        assert all(r <= 3 for r in tucker_rank(model.core))


def test_abc_rank_bound_and_growth(rng):
    A = BTensor(rng.standard_normal((7, 7, 7, 4)),
                InnerProduct.identity(4))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=5, init_aux=[[1], [2], [3]], n_rook=1, seed=0)
    model, report = tucker_abc(c, cfg)
    for s, rk in enumerate(report.rank_history, start=1):
        assert all(r <= s for r in rk)
    for s, sets in enumerate(report.index_set_history, start=1):
        assert all(len(I) <= s for I in sets)
        for I, aux in zip(sets, report.aux_sets):
            assert set(I) <= set(aux)


def test_abc_rank_one_early_stop(rng):
    ip = InnerProduct.identity(5)
    A = exact_rank_tensor(rng, (6, 7, 5), (1, 1, 1), 5, ip)
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=4, init_aux=[[0], [0], [0]], n_rook=1, seed=1,
                    early_stop_tol=1e-12)
    model, report = tucker_abc(c, cfg)
    assert report.converged
    assert report.n_iter_run <= 2
    err = fro_norm(BTensor(assemble(model).data - A.data, ip)) / fro_norm(A)
    assert err <= 1e-10


def test_abc_interpolates_core_every_iteration(rng):
    A = BTensor(rng.standard_normal((6, 6, 6, 3)), InnerProduct.identity(3))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=4, init_aux=[[0, 3], [1, 4], [2, 5]], seed=9)
    _, report = tucker_abc(c, cfg)
    from fvtensor.btensor import tucker_cross
    for sets in report.index_set_history:
        model = tucker_cross(A, sets)
        B = assemble(model)
        assert np.array_equal(model.core.data, A.data[np.ix_(*sets)])
        diff = B.data[np.ix_(*sets)] - model.core.data
        assert A.ip.norms(diff).max() <= 1e-9 * A.ip.norms(A.data).max()


def test_abc_determinism_across_threads(rng):
    A = BTensor(rng.standard_normal((8, 8, 8, 4)), InnerProduct.identity(4))
    cfg = AbcConfig(n_iter=4, init_aux=[[0, 4], [1, 5], [2, 6]],
                    n_rook=2, seed=11, draw="round_robin")
    m1, r1 = tucker_abc(tensor_oracle(A, threads=1), cfg)
    m4, r4 = tucker_abc(tensor_oracle(A, threads=4), cfg)
    assert r1.index_sets == r4.index_sets
    assert np.array_equal(m1.core.data, m4.core.data)
    for F1, F4 in zip(m1.factors, m4.factors):
        assert np.array_equal(F1, F4)


def test_abc_budget_accounting(rng):
    A = BTensor(rng.standard_normal((6, 5, 7, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=3, init_aux=[[0], [1], [2]], seed=5)
    _, report = tucker_abc(c, cfg)
    assert report.evals_by_iter[-1] == c.count
    assert c.count <= 6 * 5 * 7


def test_abc_leverage_rule_runs(rng):
    A = BTensor(rng.standard_normal((8, 7, 6, 3)), InnerProduct.identity(3))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=3, init_aux=[[0, 3], [1, 4], [2, 5]],
                    draw="leverage", seed=2)
    model, report = tucker_abc(c, cfg)
    assert report.n_iter_run == 3
    assert all(len(I) == 3 for I in report.index_sets)


def test_abc_leverage_footprint(rng):
    # the leverage estimate reads fibers through the auxiliary sets only,
    # so every evaluation lies in cross(aux): at most one index per
    # multi-index outside the final auxiliary sets
    A = BTensor(rng.standard_normal((12, 11, 10, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=2, init_aux=[[0, 6], [1, 7], [2, 8]],
                    draw="leverage", seed=3)
    _, report = tucker_abc(c, cfg)
    aux = [set(S) for S in report.aux_sets]
    assert all(sum(i not in S for i, S in zip(idx, aux)) <= 1
               for idx in c.cache)
    s = [len(S) for S in aux]
    cross = int(np.prod(s)) + sum(
        (n - s[k]) * int(np.prod(s[:k] + s[k + 1:]))
        for k, n in enumerate(A.dims))
    assert c.count <= cross


def test_abc_mode_saturation_skips(rng):
    # one mode of size 2 saturates; later sweeps skip it without error
    A = BTensor(rng.standard_normal((2, 8, 8, 3)), InnerProduct.identity(3))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=4, init_aux=[[0], [1, 3], [2, 4]], seed=4)
    model, report = tucker_abc(c, cfg)
    assert len(report.index_sets[0]) == 2
    assert len(report.index_sets[1]) == 4


def test_abc_config_validation(rng):
    A = BTensor(rng.standard_normal((4, 4, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    with pytest.raises(ValueError):
        tucker_abc(c, AbcConfig(n_iter=0, init_aux=[[0], [0]]))
    with pytest.raises(ValueError):
        tucker_abc(c, AbcConfig(n_iter=1, init_aux=[[], [0]]))
    with pytest.raises(ValueError):
        tucker_abc(c, AbcConfig(n_iter=1, init_aux=[[0], [0]], draw="magic"))
