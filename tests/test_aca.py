from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fvtensor import aca, cli, problems
from fvtensor.aca import (
    FIBER_OVERSAMPLE,
    KEEP_RATIO,
    TIE_RTOL,
    AbcConfig,
    _new_index,
    _ResidualRowView,
    abc_sweeps,
    rook_pivot,
    tucker_abc,
)
from fvtensor.bmatrix import (
    DEFAULT_TOL,
    _fiber_rows,
    _r_factor,
    _truncated_scalar_svd,
    pinv_apply,
    svd,
)
from fvtensor.btensor import (
    BTensor,
    assemble,
    fro_norm,
    hosvd,
    tucker_cross,
    tucker_rank,
)
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import GRAM_KINDS, cross_size, in_cross, make_ip, tensor_under


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
    # a scan of no rounds would pick an index without reading an entry, so
    # it is refused before any read: the view below has no entries at all
    with pytest.raises(ValueError, match="n_rook"):
        rook_pivot(SimpleNamespace(shape=(3, 4)), 2, 0)
    c = tensor_oracle(BTensor(np.ones((3, 4, 1)), InnerProduct.identity(1)))
    with pytest.raises(ValueError, match="n_rook"):
        tucker_abc(c, AbcConfig(n_iter=1, init_aux=[[0], [0]], n_rook=0))
    assert c.count == 0
    # so is a start column outside the matrix
    for j_start in (-1, 4):
        with pytest.raises(IndexError,
                           match=f"start column {j_start} out of range"):
            rook_pivot(SimpleNamespace(shape=(3, 4)), j_start, 1)


def test_rook_tie_break_smallest_index():
    ip = InnerProduct.identity(1)
    i, j = rook_pivot(matrix_view(np.ones((3, 4, 1)), ip), 0, 1)
    assert (i, j) == (0, 0)


def test_rook_tie_within_round_off_goes_to_smallest_index():
    # two column norms 1 ulp apart tie under TIE_RTOL, so the smaller
    # row index wins although plain argmax would take the larger norm
    ip = InnerProduct.identity(1)
    M = np.full((4, 3), 0.5)
    M[1, 0] = 2.0
    M[3, 0] = np.nextafter(2.0, 3.0)
    view = matrix_view(M[:, :, None], ip)
    norms = view.col_norms(0)
    assert norms[3] == np.nextafter(norms[1], 3.0)
    assert norms[3] - norms[1] <= TIE_RTOL * norms[3]
    i, _ = rook_pivot(view, 0, 1)
    assert i == 1


def test_rook_final_row_argmax_contract(rng):
    ip = InnerProduct.identity(2)
    data = rng.standard_normal((6, 7, 2))
    i, j = rook_pivot(matrix_view(data, ip), 4, 3)
    row = ip.norms(data[i])
    assert row[j] == row.max()
    with pytest.raises(ValueError):
        rook_pivot(SimpleNamespace(shape=(0, 3)), 0, 1)


# --- the new index of a mode -------------------------------------------------

def test_new_index_none_when_index_set_carries_the_stack():
    # rank one: column 0 carries every row, the fiber's included
    M = np.outer([1.0, 2.0, -1.0], [1.0, 3.0, 0.5, 2.0])
    for j in (0, 1, 3):
        assert _new_index(M, [0], j, DEFAULT_TOL) is None
    # two columns carry a rank-two stack, whichever the rook found
    M = np.array([[1.0, 0.0, 1.0, 2.0],
                  [0.0, 1.0, 1.0, -1.0],
                  [1.0, 1.0, 2.0, 1.0]])
    assert _new_index(M, [0, 1], 2, DEFAULT_TOL) is None
    assert _new_index(M, [2, 3], 3, DEFAULT_TOL) is None


def test_new_index_keeps_the_rook_pick_within_the_ratio():
    # off the span of column 0 the columns 1, 2, 3 have norms 3, 2, 1
    M = np.array([[1.0, 1.0, 1.0, 1.0],
                  [0.0, 3.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    assert _new_index(M, [0], 1, DEFAULT_TOL) == 1  # the largest
    assert _new_index(M, [0], 2, DEFAULT_TOL) == 2  # 2 >= KEEP_RATIO * 3
    assert KEEP_RATIO * 3 > 1.0
    # below the ratio, or a pick in I: the largest
    assert _new_index(M, [0], 3, DEFAULT_TOL) == 1
    assert _new_index(M, [0], 0, DEFAULT_TOL) == 1
    # a projected norm at the ratio exactly still keeps the pick
    M[2, 2] = KEEP_RATIO * 3.0
    assert _new_index(M, [0], 2, DEFAULT_TOL) == 2


def test_new_index_ties_go_to_the_smallest_index():
    # columns 1 and 3 tie off the span of column 2, the latter by 1 ulp
    M = np.array([[1.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 2.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, np.nextafter(2.0, 3.0), 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.5]])
    assert _new_index(M, [2], 2, DEFAULT_TOL) == 1
    assert _new_index(M, [2], 4, DEFAULT_TOL) == 1
    M[3, 3] = 2.0
    assert _new_index(M, [2], 3, DEFAULT_TOL) == 3  # a tie keeps the pick


def test_new_index_takes_the_largest_projected_column(rng):
    # against the residual of a least-squares fit on M[:, I]
    for _ in range(20):
        M = rng.standard_normal((6, 7)) * rng.uniform(0.1, 2.0, 7)
        I = [1, 4]
        coef = np.linalg.lstsq(M[:, I], M, rcond=None)[0]
        norms = np.linalg.norm(M - M[:, I] @ coef, axis=0)
        norms[I] = -1.0
        assert _new_index(M, I, I[0], DEFAULT_TOL) == int(np.argmax(norms))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.integers(1, 9), st.integers(1, 9),
       st.integers(0, 2**32 - 1))
# full rank, tall and wide
@example(12, 6, 9, 0)
@example(3, 7, 9, 1)
# rank-deficient: rank 2 in a 10 x 6 stack
@example(10, 6, 2, 2)
def test_new_index_reads_only_the_column_geometry(rows, n, rank, seed):
    # M^T M = R^T R for R the triangular factor of M, so the rank test and
    # the projected norms, and with them the decision, are the same on
    # the stack and on its R, which is what the scans pass
    g = np.random.default_rng(seed)
    r = min(rank, rows, n)
    M = (g.standard_normal((rows, r)) @ g.standard_normal((r, n))
         * g.uniform(0.1, 2.0, n))
    I = sorted(g.choice(n, g.integers(1, n + 1), replace=False).tolist())
    j = int(g.integers(n))
    assert _new_index(M, I, j, DEFAULT_TOL) \
        == _new_index(_r_factor([M]), I, j, DEFAULT_TOL)


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


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_abc_rank_one_stops_once_saturated(rng, kind):
    # the first sweep's one column per mode carries a rank-one tensor, so
    # no mode grows in the second sweep and the run stops there
    ip = make_ip(kind, 5, rng)
    A = exact_rank_tensor(rng, (6, 7, 5), (1, 1, 1), 5, ip)
    cfg = AbcConfig(n_iter=4, init_aux=[[0], [0], [0]], n_rook=1, seed=1)
    converged = []
    for model, report in abc_sweeps(tensor_oracle(A), cfg):
        converged.append(report.converged)
    assert converged[-1] and not any(converged[:-1])
    assert len(converged) <= 2
    err = fro_norm(BTensor(assemble(model).data - A.data, ip)) / fro_norm(A)
    assert err <= 1e-10
    # before stopping, the last sweep drew one fresh auxiliary index per
    # mode and scanned again
    for a, a0, I in zip(report.aux_sets, cfg.init_aux, report.index_sets):
        assert len(a) == len(set(a0) | set(I)) + 1


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


def record_folds(monkeypatch):
    """Record the whitened rows of every fiber the scans read, in a dict
    by mode, and each ``tucker_cross`` call of the sweeps as ``(sets,
    fiber_sets, r_factors)`` in a list; return the two."""
    scanned, calls = {}, []

    class RecordingView(_ResidualRowView):
        def row_norms(self, i):
            norms = super().row_norms(i)
            scanned.setdefault(self.k, []).append(
                _fiber_rows(self.cached.ip.whiten(self.fibers[-1]), self.k))
            return norms

    def recording_cross(source, sets, tol_rel, prev, fiber_sets, r_factors):
        calls.append((sets, fiber_sets, list(r_factors)))
        return tucker_cross(source, sets, tol_rel, prev=prev,
                            fiber_sets=fiber_sets, r_factors=r_factors)

    monkeypatch.setattr(aca, "_ResidualRowView", RecordingView)
    monkeypatch.setattr(aca, "tucker_cross", recording_cross)
    return scanned, calls


def test_abc_sweeps_yield_each_sweep_model(rng, monkeypatch):
    # each sweep's model folds the new slab fibers onto the factors its
    # scans left, the last model's R with the scanned fibers folded in, so
    # (a) a replay of that chain on a fresh oracle, given the same
    # starting factors, gives the same bytes, and (b) the from-scratch
    # model at the same sets, started from the scanned fibers alone,
    # agrees to round-off; from sweep 2 on the sets outgrow
    # FIBER_OVERSAMPLE, so the fibers run through proper subsets of them
    A = BTensor(rng.standard_normal((7, 6, 5, 3)), make_ip("dense", 3, rng))
    cfg = AbcConfig(n_iter=6, init_aux=[[0, 3], [1, 4], [2]], seed=6)
    scanned, calls = record_folds(monkeypatch)
    c = tensor_oracle(A)
    replay_oracle = tensor_oracle(A)
    replay = None
    yielded = 0
    for model, report in abc_sweeps(c, cfg):
        yielded += 1
        assert report.n_iter_run == yielded
        assert report.index_sets == report.index_set_history[-1]
        sets = report.index_set_history[yielded - 1]
        J = model.fiber_sets
        assert all(len(Jk) == min(len(I), FIBER_OVERSAMPLE)
                   for Jk, I in zip(J, sets))
        for call_sets, call_J, start in calls:
            replay = tucker_cross(replay_oracle, call_sets, prev=replay,
                                  fiber_sets=call_J, r_factors=start)
        calls.clear()
        assert model.index_sets == replay.index_sets
        assert model.core.data.tobytes() == replay.core.data.tobytes()
        for F, F_ref in zip(model.factors, replay.factors):
            assert F.tobytes() == F_ref.tobytes()
        start = [_r_factor(scanned[k]) for k in range(A.d)]
        scratch = tucker_cross(tensor_oracle(A), sets, fiber_sets=J,
                               r_factors=start)
        assert model.index_sets == scratch.index_sets
        assert model.core.data.tobytes() == scratch.core.data.tobytes()
        B, B_ref = assemble(model), assemble(scratch)
        diff = BTensor(B.data - B_ref.data, A.ip)
        assert fro_norm(diff) <= 1e-10 * fro_norm(B_ref)
    assert yielded == 6 and max(map(len, sets)) > FIBER_OVERSAMPLE
    last, _ = tucker_abc(tensor_oracle(A), cfg)
    assert last.core.data.tobytes() == model.core.data.tobytes()
    for F, F_last in zip(model.factors, last.factors):
        assert F.tobytes() == F_last.tobytes()


@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_abc_r_factors_fold_the_slab_and_every_scanned_fiber(rng,
                                                             monkeypatch,
                                                             kind):
    # after each sweep R_k^T R_k is the Gram of the whitened slab through
    # the fiber sets plus that of every fiber mode k's scans read, the
    # witness scans of a converging run included, so the fold drops none
    ip = make_ip(kind, 3, rng)
    A = exact_rank_tensor(rng, (9, 8, 7), (2, 3, 2), 3, ip)
    cfg = AbcConfig(n_iter=10, init_aux=[[0], [1], [2]], seed=5)
    scanned, _ = record_folds(monkeypatch)
    for model, report in abc_sweeps(tensor_oracle(A), cfg):
        for k, R in enumerate(model.r_factors):
            grids = [range(n) if l == k else J
                     for l, (n, J) in enumerate(zip(A.dims, model.fiber_sets))]
            slab = _fiber_rows(ip.whiten(A.data[np.ix_(*grids)]), k)
            gram = slab.T @ slab + sum(F.T @ F for F in scanned[k])
            assert np.abs(R.T @ R - gram).max() <= 1e-12 * np.abs(gram).max()
    assert report.converged and len(scanned[0]) > report.n_iter_run


@pytest.mark.parametrize("family, dims, h", [
    ("gaussian_bump", (16, 14, 12), 32),
    ("lowrank_plus_decay", (14, 12, 10), 16),
    ("separable", (12, 10, 8), 4),
])
def test_abc_rank_history_is_core_tucker_rank(family, dims, h):
    # rank_history holds the ranks tucker_cross counted in its factor
    # solves over the slab and the scanned fibers; on these families each
    # reaches its set size, and so does the core's Tucker rank
    spec = problems.FamilySpec(family, dims, h, seed=0)
    c = CachedOracle(problems.make_oracle(spec))
    cfg = AbcConfig(n_iter=8, init_aux=[[0, 5, 9], [1, 6], [2, 7]], seed=4)
    sweeps = 0
    for model, report in abc_sweeps(c, cfg):
        sweeps += 1
        assert report.rank_history[-1] == model.ranks \
            == tucker_rank(model.core, cfg.tol_rel)
    assert sweeps >= 3 and max(report.rank_history[-1]) >= 3


def test_abc_determinism_across_threads(rng):
    A = BTensor(rng.standard_normal((8, 8, 8, 4)), InnerProduct.identity(4))
    cfg = AbcConfig(n_iter=4, init_aux=[[0, 4], [1, 5], [2, 6]],
                    n_rook=2, seed=11)
    # mode 0 of B has rank 2, so it saturates while the others grow
    B = exact_rank_tensor(rng, (8, 8, 8), (2, 8, 8), 4)
    for T in (A, B):
        sweeps1 = abc_sweeps(tensor_oracle(T, threads=1), cfg)
        sweeps4 = abc_sweeps(tensor_oracle(T, threads=4), cfg)
        for (m1, r1), (m4, r4) in zip(sweeps1, sweeps4):
            assert r1.index_sets == r4.index_sets
            assert m1.core.data.tobytes() == m4.core.data.tobytes()
            for F1, F4 in zip(m1.factors, m4.factors):
                assert F1.tobytes() == F4.tobytes()
        assert r1.index_set_history == r4.index_set_history
        assert r1.converged == r4.converged
        assert r1.n_iter_run == r4.n_iter_run == 4
    assert len(r1.index_sets[0]) == 2 < len(r1.index_sets[1])


def test_abc_budget_accounting(rng, monkeypatch):
    # scan_evals_by_iter counts, cumulatively, the evaluations the scans
    # of each sweep caused, the witness scan of a sweep that grew nothing
    # included; the rest of evals_by_iter is the model updates'
    scanned = []

    def counting_scan(cached, *args):
        before = cached.count
        grown = scan(cached, *args)
        scanned.append(cached.count - before)
        return grown

    scan = aca._scan
    monkeypatch.setattr(aca, "_scan", counting_scan)
    A = BTensor(rng.standard_normal((6, 5, 7, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=3, init_aux=[[0], [1], [2]], seed=5)
    _, report = tucker_abc(c, cfg)
    assert report.evals_by_iter[-1] == c.count
    assert c.count <= 6 * 5 * 7
    assert report.scan_evals_by_iter[-1] == sum(scanned)

    A = exact_rank_tensor(rng, (9, 8, 7), (2, 3, 2), 2)
    c = tensor_oracle(A)
    cfg = AbcConfig(n_iter=10, init_aux=[[0], [1], [2]], seed=5)
    scanned.clear()
    expected = []
    for _, report in abc_sweeps(c, cfg):
        expected.append(sum(scanned))
    assert report.converged and len(scanned) > report.n_iter_run
    assert report.scan_evals_by_iter == expected
    model_evals = np.subtract(report.evals_by_iter, expected)
    assert np.all(np.diff(model_evals) >= 0) and model_evals[0] > 0


def test_abc_mode_saturation_skips(rng, monkeypatch):
    # one mode of size 2 uses both columns after two sweeps; later sweeps
    # never scan it again
    views = []

    class RecordingView(_ResidualRowView):
        def __init__(self, cached, model, aux, k):
            views.append(k)
            super().__init__(cached, model, aux, k)

    monkeypatch.setattr(aca, "_ResidualRowView", RecordingView)
    for n in (8, 6):
        A = BTensor(rng.standard_normal((2, n, n, 3)), InnerProduct.identity(3))
        cfg = AbcConfig(n_iter=4, init_aux=[[0], [1, 3], [2, 4]], seed=4)
        scanned = []
        for _, report in abc_sweeps(tensor_oracle(A), cfg):
            scanned.append(sorted(set(views)))
            views.clear()
        assert len(report.index_set_history[1][0]) == 2
        assert len(report.index_sets[1]) == 4
        assert scanned == [[0, 1, 2], [0, 1, 2], [1, 2], [1, 2]]
        assert report.n_iter_run == 4 and not report.converged


def test_abc_pick_inside_the_index_set_is_not_redrawn(rng, monkeypatch):
    # a later sweep whose rook pick lands in I_k scans that mode once, and
    # the mode grows by the largest column of M off the span of M[:, I_k]
    picks, grown = [], []

    def counting_rook(view, j_start, n_rook):
        i, j = rook_pivot(view, j_start, n_rook)
        picks.append((view.model, view.k, j))
        return i, j

    def recording_new_index(M, I, j, tol_rel):
        coef = np.linalg.lstsq(M[:, I], M, rcond=None)[0]
        norms = np.linalg.norm(M - M[:, I] @ coef, axis=0)
        norms[I] = -1.0
        new = _new_index(M, I, j, tol_rel)
        grown.append((I, j, new, int(np.argmax(norms))))
        return new

    monkeypatch.setattr(aca, "rook_pivot", counting_rook)
    monkeypatch.setattr(aca, "_new_index", recording_new_index)
    A = BTensor(rng.standard_normal((6, 6, 6, 3)), InnerProduct.identity(3))
    cfg = AbcConfig(n_iter=4, init_aux=[[0, 3], [1, 4], [2, 5]], seed=0)
    tucker_abc(tensor_oracle(A), cfg)
    inside = [(model, k) for model, k, j in picks
              if model is not None and j in model.index_sets[k]]
    assert inside
    for model, k in inside:
        assert [m is model and l == k for m, l, _ in picks].count(True) == 1
    # each later scan's pick reaches _new_index, in scan order
    assert [j for model, _, j in picks if model is not None] \
        == [j for _, j, _, _ in grown]
    redrawn = [(I, new, best) for I, j, new, best in grown if j in I]
    assert len(redrawn) == len(inside)
    for I, new, best in redrawn:
        assert new == best and new not in I


def test_abc_set_sizes_equal_ranks_every_sweep():
    # each new index adds rank to its mode, so no mode holds an index its
    # model's rank does not count (the rook's pick alone left mode 2 at
    # 12 indices and rank 8 here)
    dims = (40, 40, 40)
    c = CachedOracle(problems.make_oracle(
        problems.FamilySpec("gaussian_bump", dims, 64, seed=0)))
    cfg = AbcConfig(n_iter=12, init_aux=cli._draw_aux(dims, 3, 0))
    for model, report in abc_sweeps(c, cfg):
        assert tuple(len(I) for I in report.index_sets) == model.ranks
    assert report.n_iter_run == 12 and model.ranks[2] < 12


def test_abc_fiber_sets_widen_until_the_rows_carry_the_rank(rng,
                                                           monkeypatch):
    # d = 2, h = 1, a rank-6 matrix.  Each new index adds rank to the
    # folded R, whose rows are the slab and every scanned fiber, so each
    # mode's rank is its set size every sweep and the fiber sets stay at
    # FIBER_OVERSAMPLE = 1 index.  With the scanned fibers withheld from
    # the models, mode k's fibers through that one index are one row, so
    # the sweep widens the fiber sets until each mode's rank reaches its
    # set size.  Both runs recover the matrix.
    assert FIBER_OVERSAMPLE < 6
    A = exact_rank_tensor(rng, (12, 11), (6, 6), 1)
    cfg = AbcConfig(n_iter=10, init_aux=[[0, 5], [3, 7]], seed=2)

    def slab_only(source, sets, tol_rel, prev, fiber_sets, r_factors):
        return tucker_cross(source, sets, tol_rel, prev=prev,
                            fiber_sets=fiber_sets)

    for withheld in (False, True):
        if withheld:
            monkeypatch.setattr(aca, "tucker_cross", slab_only)
        widened = False
        for model, report in abc_sweeps(tensor_oracle(A), cfg):
            assert model.ranks == tuple(len(I) for I in report.index_sets)
            widened |= any(len(J) > FIBER_OVERSAMPLE
                           for J in model.fiber_sets)
        assert widened == withheld and report.converged
        if withheld:
            assert model.fiber_sets == model.index_sets
        assert tuple(len(I) for I in model.index_sets) == (6, 6)
        err = fro_norm(BTensor(assemble(model).data - A.data, A.ip))
        assert err <= 1e-10 * fro_norm(A)


def test_abc_fiber_sets_widen_on_a_noisy_rank_one_matrix():
    # a natural draw, no fiber withheld: an 8 x 6 rank-1 matrix over R^4
    # plus noise at 1e-11 of its largest entry, above tol_rel = 1e-12, so
    # the sweeps chase the noise until the sets are whole.  At sweep 8 the
    # slab through one index per mode no longer carries mode 0's rank, and
    # the loop widens the fiber sets to 2 indices, after which each rank
    # is its set size; the run then converges on the matrix
    rng = np.random.default_rng(16)
    core, a, b = (rng.standard_normal(n) for n in (4, 8, 6))
    data = a[:, None, None] * b[None, :, None] * core
    data += 1e-11 * np.abs(data).max() * rng.standard_normal(data.shape)
    A = BTensor(data, InnerProduct.identity(4))
    cfg = AbcConfig(n_iter=20, init_aux=[[1], [5]], seed=453)
    widths = []
    for model, report in abc_sweeps(tensor_oracle(A), cfg):
        widths.append(max(len(J) for J in model.fiber_sets))
        assert model.ranks == tuple(len(I) for I in report.index_sets)
    assert widths == [FIBER_OVERSAMPLE] * 7 + [2, 2]
    assert report.converged and model.ranks == (8, 6)
    err = fro_norm(BTensor(assemble(model).data - A.data, A.ip))
    assert err <= 1e-10 * fro_norm(A)


def test_abc_scans_read_through_the_fiber_sets(monkeypatch):
    # mode k's scan reads each other mode l through base_l (the initial
    # auxiliary set; this run draws no witness), the fiber set J_l in use
    # and the index l gained earlier in the sweep, so a chosen index
    # beyond FIBER_OVERSAMPLE that l did not just gain is left out
    scans = []

    class RecordingView(_ResidualRowView):
        def __init__(self, cached, model, aux, k):
            scans.append((model, k, [set(a) for a in aux]))
            super().__init__(cached, model, aux, k)

    monkeypatch.setattr(aca, "_ResidualRowView", RecordingView)
    dims = (20, 20, 20)
    c = CachedOracle(problems.make_oracle(
        problems.FamilySpec("gaussian_bump", dims, 16, seed=0)))
    base = cli._draw_aux(dims, 3, 0)
    cfg = AbcConfig(n_iter=8, init_aux=base)
    prev, left_out = [set() for _ in dims], 0
    for model, report in abc_sweeps(c, cfg):
        sets = [set(I) for I in report.index_sets]
        assert report.aux_sets == tuple(
            tuple(sorted(set(b) | I)) for b, I in zip(base, sets))
        for scan_model, k, scan in scans:
            J = (scan_model.fiber_sets if scan_model is not None
                 else [()] * len(dims))
            for l in range(len(dims)):
                if l == k:
                    continue
                allowed = set(base[l]) | set(J[l]) | (sets[l] - prev[l])
                assert scan[l] <= allowed
                left_out += len(prev[l] - allowed)
        scans.clear()
        prev = sets
    assert max(len(I) for I in prev) > FIBER_OVERSAMPLE and left_out > 0


def test_abc_sets_stop_at_exact_rank(rng):
    # a mode stops growing once its chosen columns carry the rank of its
    # slab and of the fibers its scans read, and the run stops after a
    # sweep in which no mode grows
    ranks = (1, 3, 2)
    aux = [[0, 5], [2, 7], [1, 4]]
    for kind in GRAM_KINDS:
        ip = make_ip(kind, 5, rng)
        A = exact_rank_tensor(rng, (9, 10, 8), ranks, 5, ip)
        cfg = AbcConfig(n_iter=10, init_aux=aux, seed=3)
        model, report = tucker_abc(tensor_oracle(A), cfg)
        assert tuple(len(I) for I in report.index_sets) == ranks
        assert report.converged
        assert report.n_iter_run < 10
        err = fro_norm(BTensor(assemble(model).data - A.data, ip)) / fro_norm(A)
        assert err <= 1e-10


@pytest.mark.parametrize("h", [1, 3])
def test_abc_slab_rank_below_unfolding_rank_does_not_saturate(rng, h):
    # g (x) w with g of Tucker rank (2, 2, 2): each first-sweep slab is h
    # proportional rows, whose rank one column carries although the
    # unfoldings have rank 2; the fibers the next scans read show it
    g = exact_rank_tensor(rng, (9, 8, 7), (2, 2, 2), 1).data
    ip = InnerProduct.identity(h)
    A = BTensor(g * rng.standard_normal(h), ip)
    model, report = tucker_abc(
        tensor_oracle(A), AbcConfig(n_iter=6, init_aux=[[0], [1], [2]]))
    assert tuple(len(I) for I in report.index_sets) == (2, 2, 2)
    assert report.converged and 1 < report.n_iter_run < 6
    err = fro_norm(BTensor(assemble(model).data - A.data, ip)) / fro_norm(A)
    assert err <= 1e-10


def test_abc_scanned_fiber_off_the_cross_keeps_mode_growing(rng):
    # rank one plus a small term on the auxiliary fiber (:, 7, 4), off the
    # first sweep's cross through (3, 2, 1): every slab then has rank one,
    # but mode 0's next scan reads that fiber, which the one chosen column
    # does not carry, so mode 0 still grows
    u, v, x = (rng.uniform(0.5, 1.0, 9) for _ in range(3))
    u[3], v[2], x[1] = 2.0, 2.0, 2.0
    w = rng.standard_normal((2, 2))
    data = np.einsum("i,j,l,c->ijlc", u, v, x, w[0])
    data[:, 7, 4] += 1e-3 * np.outer(rng.standard_normal(9), w[1])
    A = BTensor(data, InnerProduct.identity(2))
    cfg = AbcConfig(n_iter=2, init_aux=[[0, 5], [2, 7], [1, 4]])
    report = tucker_abc(tensor_oracle(A), cfg)[1]
    assert report.index_set_history[0] == ((3,), (2,), (1,))
    assert len(report.index_sets[0]) == 2


def test_abc_config_validation(rng):
    A = BTensor(rng.standard_normal((4, 4, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    with pytest.raises(ValueError):
        tucker_abc(c, AbcConfig(n_iter=0, init_aux=[[0], [0]]))
    with pytest.raises(ValueError):
        tucker_abc(c, AbcConfig(n_iter=1, init_aux=[[], [0]]))
    for aux in ([[0]], [[0], [0], [0]]):
        with pytest.raises(ValueError,
                           match="need one auxiliary index set per mode"):
            tucker_abc(c, AbcConfig(n_iter=1, init_aux=aux))
    # a non-integer or negative knob is named, with its value; a bool is
    # not an integer
    for knob in ("n_iter", "n_rook", "seed"):
        for bad in (1.5, True, np.True_, -1):
            msg = f"{knob} must be an integer, got {bad!r}"
            with pytest.raises(ValueError, match=msg):
                tucker_abc(c, AbcConfig(**{"n_iter": 1,
                                           "init_aux": [[0], [0]],
                                           knob: bad}))
    assert c.count == 0


# each function that takes tol_rel, given a 4 x 4 tensor A, an oracle c
# that counts reads of it, and the tolerance
TOL_TAKERS = {
    "svd": lambda A, c, tol: svd(A, tol),
    "pinv_apply": lambda A, c, tol: pinv_apply(A, A, tol),
    "tucker_cross": lambda A, c, tol: tucker_cross(c, [[0], [1]], tol),
    "tucker_rank": lambda A, c, tol: tucker_rank(A, tol),
    "hosvd": lambda A, c, tol: hosvd(A, None, tol),
    "AbcConfig": lambda A, c, tol: tucker_abc(
        c, AbcConfig(n_iter=1, init_aux=[[0], [0]], tol_rel=tol)),
}


@pytest.mark.parametrize("take", sorted(TOL_TAKERS))
@pytest.mark.parametrize("tol", [float("nan"), -1, 1, 1.5, "0.5"])
def test_tolerance_outside_0_1_is_refused(rng, take, tol):
    # one rule wherever a tolerance is taken: a NaN or a tolerance of 1 or
    # more would keep no singular value, and a string is not parsed; the
    # oracle is not read first, since each read may be a PDE solve
    A = BTensor(rng.standard_normal((4, 4, 2)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    with pytest.raises(ValueError,
                       match=r"tol_rel must be a real number in \[0, 1\)"):
        TOL_TAKERS[take](A, c, tol)
    assert c.count == 0


CONFIG_FAULTS = ("n_iter", "n_rook", "tol_rel", "aux_count", "aux_set",
                 "non_integer")


@st.composite
def invalid_configs(draw):
    """Dims and an AbcConfig with at least one invalid knob."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    kw = dict(
        n_iter=draw(st.integers(1, 3)),
        n_rook=draw(st.integers(1, 2)),
        tol_rel=draw(st.floats(0.0, 1.0, exclude_max=True)),
        init_aux=[draw(st.lists(st.integers(0, n - 1), min_size=1))
                  for n in dims],
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    faults = draw(st.sets(st.sampled_from(CONFIG_FAULTS), min_size=1))
    if "n_iter" in faults:
        kw["n_iter"] = draw(st.integers(max_value=0))
    if "n_rook" in faults:
        kw["n_rook"] = draw(st.integers(max_value=0))
    if "tol_rel" in faults:
        kw["tol_rel"] = draw(st.floats(max_value=0.0, exclude_max=True)
                             | st.floats(min_value=1.0)
                             | st.just(float("nan")))
    if "aux_set" in faults:
        k = draw(st.integers(0, len(dims) - 1))
        bad = st.integers(max_value=-1) | st.integers(min_value=dims[k])
        kw["init_aux"][k] = draw(
            st.just([]) | st.lists(bad, min_size=1).map(
                lambda out: kw["init_aux"][k] + out))
    if "non_integer" in faults:
        knob = draw(st.sampled_from(["n_iter", "n_rook", "seed"]))
        kw[knob] = draw(st.floats() | st.sampled_from([None, "1", [1], True]))
    if "aux_count" in faults:
        m = draw(st.integers(0, 4).filter(lambda m: m != len(dims)))
        kw["init_aux"] = (kw["init_aux"] + [[0]] * m)[:m]
    return dims, AbcConfig(**kw)


@settings(max_examples=80, deadline=None)
@given(invalid_configs())
def test_invalid_config_raises_before_any_read(case):
    dims, cfg = case
    A = BTensor(np.ones(tuple(dims) + (2,)), InnerProduct.identity(2))
    c = tensor_oracle(A)
    with pytest.raises(ValueError):
        tucker_abc(c, cfg)
    assert c.count == 0


# --- the sweep's contract on random instances -------------------------------

INSTANCE = dict(dims=st.lists(st.integers(3, 9), min_size=2, max_size=4),
                h=st.integers(1, 6), kind=st.sampled_from(GRAM_KINDS),
                rank=st.integers(1, 3), seed=st.integers(0, 1000),
                n_aux=st.integers(1, 3))


def family_sweeps(dims, h, kind, rank, n_noise, seed, n_aux, n_rook, n_iter,
                  threads=1):
    """A ``lowrank_plus_decay`` tensor under a ``kind`` Gram, its cached
    oracle, and the sweeps on it, configured as ``fvt compare`` would."""
    A = tensor_under(problems.FamilySpec(
        "lowrank_plus_decay", dims, h, seed=seed,
        params={"rank": rank, "n_noise": n_noise}), kind)
    c = tensor_oracle(A, threads)
    cfg = AbcConfig(n_iter=n_iter, init_aux=cli._draw_aux(dims, n_aux, seed),
                    n_rook=n_rook, seed=seed)
    return A, c, abc_sweeps(c, cfg)


# Each sweep crosses its new core entries where the scans found the
# residual large (mode k scans each mode l < k that grew in the sweep
# through its fiber set and its new index), so every sweep's model stays
# within a few |A|.
# The last two draws are ROADMAP item 17's near-singular later cores.
@settings(max_examples=40, deadline=None)
@given(**INSTANCE, n_noise=st.integers(0, 12), n_rook=st.sampled_from([1, 2]))
@example(dims=[3, 3, 3, 7], h=1, kind="identity", rank=2, n_noise=3,
         seed=39, n_aux=2, n_rook=1)
@example(dims=[6, 5], h=1, kind="dense", rank=3, n_noise=10,
         seed=113, n_aux=2, n_rook=1)
@example(dims=[4, 7], h=1, kind="identity", rank=2, n_noise=7,
         seed=676, n_aux=2, n_rook=1)
def test_abc_every_sweep_model_error_is_bounded(dims, h, kind, rank, n_noise,
                                                seed, n_aux, n_rook):
    A, _, sweeps = family_sweeps(dims, h, kind, rank, n_noise, seed, n_aux,
                                 n_rook, n_iter=6)
    for model, report in sweeps:
        err = fro_norm(BTensor(A.data - assemble(model).data, A.ip))
        assert err <= 10.0 * fro_norm(A)
        # ranks[k] is the rank of the folded R[:, I_k], over the slab and
        # the scanned fibers; off the slab it may pass the core's Tucker
        # rank, as (3, 4) against (3, 3) on the second draw below
        assert report.rank_history[-1] == model.ranks == tuple(
            _truncated_scalar_svd(R[:, I], DEFAULT_TOL)[1].size
            for R, I in zip(model.r_factors, model.index_sets))
        assert all(r <= len(I) for r, I in zip(model.ranks, model.index_sets))


@settings(max_examples=10, deadline=None)
@given(**INSTANCE, n_noise=st.just(0), n_rook=st.sampled_from([1, 2]))
# ROADMAP item 17's two draws: without the fresh auxiliary index of a
# sweep that grows nothing, both stopped after sweep 3 at ranks (2, 2),
# at relative errors 9.38e-4 and 0.318
@example(dims=[5, 3], h=1, kind="dense", rank=3, n_noise=0, seed=180,
         n_aux=1, n_rook=2)
@example(dims=[4, 5], h=1, kind="dense", rank=3, n_noise=0, seed=972,
         n_aux=1, n_rook=2)
# a full-rank 3 x 3 draw: once both auxiliary sets were the whole range it
# drew no witness, and its last scan of mode 1 started in I_1, where the
# model interpolates, so it stopped at ranks (2, 2), relative error 3.1e-2
@example(dims=[3, 3], h=1, kind="identity", rank=3, n_noise=0, seed=0,
         n_aux=1, n_rook=1)
def test_abc_recovers_exact_rank_within_12_sweeps(dims, h, kind, rank,
                                                  n_noise, seed, n_aux,
                                                  n_rook):
    # without noise terms the tensor has Tucker rank at most `rank`, and
    # the run stops only after a scan through one fresh auxiliary index
    # per mode also grew nothing
    A, _, sweeps = family_sweeps(dims, h, kind, rank, n_noise, seed, n_aux,
                                 n_rook, n_iter=12)
    for model, report in sweeps:
        pass
    assert report.converged
    err = fro_norm(BTensor(A.data - assemble(model).data, A.ip))
    assert err <= 1e-10 * fro_norm(A)


def test_witnesses_come_from_the_unscanned_chosen_indices_once_aux_is_full():
    rng = np.random.default_rng(0)
    # outside the auxiliary set while it has room
    base, chosen = [[0], [1]], [[2], [3]]
    assert aca._add_witnesses((3, 5), base, chosen, 1, rng)
    assert base[0] == [0, 1] and len(base[1]) == 2
    assert set(base[1]) - {1} <= {0, 2, 4}
    # mode 0's auxiliary set is the whole range: its witness is the chosen
    # index past the fiber set chosen[0][:1]; mode 1's scans read through
    # every index, so it draws none
    base, chosen = [[0], [0, 1]], [[2, 1], [2]]
    assert aca._add_witnesses((3, 3), base, chosen, 1, rng)
    assert base == [[0, 1], [0, 1]]
    assert not aca._add_witnesses((3, 3), base, chosen, 1, rng)
    assert base == [[0, 1], [0, 1]]


def test_witness_scans_start_outside_the_index_sets(monkeypatch):
    # the scan of a sweep that grew nothing starts each mode's rook at a
    # column the model does not interpolate; the first scans start anywhere
    starts = []
    scan = aca._scan

    def recording_scan(cached, model, R, base, chosen, m, rng, cfg,
                       witness=False):
        starts.append((witness, []))
        return scan(cached, model, R, base, chosen, m, rng, cfg, witness)

    def recording_rook(view, j_start, n_rook):
        model = view.model
        starts[-1][1].append(
            None if model is None else j_start in model.index_sets[view.k])
        return rook_pivot(view, j_start, n_rook)

    monkeypatch.setattr(aca, "_scan", recording_scan)
    monkeypatch.setattr(aca, "rook_pivot", recording_rook)
    for seed in range(4):
        _, _, sweeps = family_sweeps([3, 3], 1, "identity", 3, 0, seed, 1, 1,
                                     n_iter=12)
        for model, report in sweeps:
            pass
        assert report.converged
    witness = [inside for w, scans in starts if w for inside in scans]
    first = [inside for w, scans in starts if not w for inside in scans]
    assert witness and not any(witness)
    assert any(first)


@settings(max_examples=40, deadline=None)
@given(**INSTANCE, n_noise=st.integers(0, 12), n_rook=st.sampled_from([1, 2]))
# the sets outgrow FIBER_OVERSAMPLE in sweep 2, so J is a proper subset
@example(dims=[9, 8, 7], h=2, kind="dense", rank=3, n_noise=12, seed=5,
         n_aux=2, n_rook=1)
@example(dims=[9, 9], h=1, kind="identity", rank=3, n_noise=12, seed=8,
         n_aux=1, n_rook=2)
def test_abc_reads_cross_of_index_sets_within_cross_of_aux(
        dims, h, kind, rank, n_noise, seed, n_aux, n_rook):
    # criterion 6 on random instances, after every sweep:
    # cross_J(I) <= evaluated <= cross(aux), for J the model's fiber sets;
    # and the same sweeps on two threads give the same sets and model bytes
    args = (dims, h, kind, rank, n_noise, seed, n_aux, n_rook, 6)
    _, c, sweeps = family_sweeps(*args)
    _, _, sweeps2 = family_sweeps(*args, threads=2)
    for (model, report), (model2, report2) in zip(sweeps, sweeps2):
        index_sets = [set(S) for S in report.index_sets]
        fiber_sets = [set(S) for S in model.fiber_sets]
        aux_sets = [set(S) for S in report.aux_sets]
        assert sum(in_cross(idx, index_sets, fiber_sets) for idx in c.cache) \
            == cross_size(report.index_sets, c.dims, model.fiber_sets)
        assert all(in_cross(idx, aux_sets) for idx in c.cache)
        assert report2.index_set_history == report.index_set_history
        assert model2.core.data.tobytes() == model.core.data.tobytes()
        for F2, F in zip(model2.factors, model.factors):
            assert F2.tobytes() == F.tobytes()
    assert (report2.n_iter_run, report2.converged) \
        == (report.n_iter_run, report.converged)
