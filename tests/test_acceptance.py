"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

The heavy 50x50x50, h=256 bump instance and its two full command-line
comparison runs (single- and multi-threaded) are shared across the tests
that need them through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from fvtensor.aca import AbcConfig, tucker_abc
from fvtensor.bmatrix import svd
from fvtensor.btensor import (
    BTensor,
    TuckerCrossModel,
    TuckerDecomp,
    assemble,
    fro_norm,
    hosvd,
    hosvd_error_bound,
    mode_mul,
    model_gather,
    relative_error,
    tucker_cross,
    unfold,
)
from fvtensor.cli import main as cli_main
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec, make_oracle, make_tensor
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import (
    GRAM_KINDS,
    cross_size,
    in_cross,
    make_ip,
    scalar_cross,
    scalar_hosvd,
    scalar_tucker_cross,
    tensor_under,
)


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _exact_rank_tensor(rng, dims, ranks, h, ip):
    core = BTensor(rng.standard_normal(tuple(ranks) + (h,)), ip)
    factors = [rng.standard_normal((n, r)) for n, r in zip(dims, ranks)]
    return assemble(TuckerDecomp(core=core, factors=factors))


def _direct_rel_error(A, B):
    return fro_norm(BTensor(A.data - B.data, A.ip)) / fro_norm(A)


# --- shared heavy artifacts ---------------------------------------------------

GAUSS_ARGS = ["--family", "gaussian_bump", "--dims", "50,50,50",
              "--h", "256", "--seed", "0"]


@pytest.fixture(scope="module")
def gauss_tensor():
    return make_tensor(FamilySpec("gaussian_bump", (50, 50, 50), 256, seed=0))


@pytest.fixture(scope="module")
def gauss_compare(tmp_path_factory):
    base = tmp_path_factory.mktemp("compare")
    paths = {}
    elapsed = {}
    for threads in (1, 4):
        out = str(base / f"gauss_t{threads}.tsv")
        t0 = time.perf_counter()
        code = cli_main(["compare", *GAUSS_ARGS, "--iters", "10",
                         "--rook", "1", "--aux", "3",
                         "--threads", str(threads), "--out", out])
        elapsed[threads] = time.perf_counter() - t0
        assert code == 0
        paths[threads] = out
    return paths, elapsed


@pytest.fixture(scope="module")
def crit1_results():
    rng = np.random.default_rng(20250801)
    results = []
    t0 = time.perf_counter()
    for trial in range(25):
        ranks = tuple(int(rng.integers(1, 5)) for _ in range(3))
        dims = tuple(int(rng.integers(max(r + 2, 8), 13))
                     for r in ranks)
        h = int(rng.integers(2, 17))
        ip = make_ip(GRAM_KINDS[trial % 3], h, rng)
        A = _exact_rank_tensor(rng, dims, ranks, h, ip)
        cached = CachedOracle(EntryOracle.from_tensor(A))
        aux = [sorted(rng.choice(n, size=2, replace=False).tolist())
               for n in dims]
        cfg = AbcConfig(n_iter=max(ranks), init_aux=aux, n_rook=1,
                        seed=100 + trial)
        model, report = tucker_abc(cached, cfg)
        err = _direct_rel_error(A, assemble(model))
        results.append((A, model, err))
    return results, time.perf_counter() - t0


def test_criterion_1_exact_recovery(crit1_results):
    results, elapsed = crit1_results
    worst = max(err for _, _, err in results)
    ok = worst <= 1e-8 and elapsed <= 60.0
    assert _report(1, ok, f"25 runs, worst rel err {worst:.2e}, "
                          f"{elapsed:.1f}s <= 60s")


def test_criterion_2_subgrid_interpolation(crit1_results):
    results, _ = crit1_results
    t0 = time.perf_counter()
    rng = np.random.default_rng(20250802)
    models = [(A, m) for A, m, _ in results]
    for trial in range(25):
        spec = FamilySpec(
            "lowrank_plus_decay",
            tuple(int(rng.integers(6, 12)) for _ in range(3)),
            int(rng.integers(2, 13)),
            seed=300 + trial,
            params={"rank": 3, "rho": 0.6, "n_noise": 5},
        )
        A = tensor_under(spec, GRAM_KINDS[trial % 3])
        cached = CachedOracle(EntryOracle.from_tensor(A))
        aux = [sorted(rng.choice(n, size=2, replace=False).tolist())
               for n in A.dims]
        cfg = AbcConfig(n_iter=3, init_aux=aux, n_rook=1, seed=trial)
        model, _ = tucker_abc(cached, cfg)
        models.append((A, model))
    worst = 0.0
    for A, model in models:
        grids = [list(I) for I in model.index_sets]
        B_core = model_gather(model, grids)
        scale = max(float(A.ip.norms(model.core.data).max()), 1e-300)
        gap = float(A.ip.norms(B_core - model.core.data).max()) / scale
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 30.0
    assert _report(2, ok, f"50 models, worst core gap {worst:.2e}, "
                          f"{elapsed:.1f}s <= 30s")


def test_criterion_3_hosvd_bound():
    rng = np.random.default_rng(20250803)
    t0 = time.perf_counter()
    worst_ratio = 0.0
    checks = 0
    for trial in range(50):
        dims = (int(rng.integers(6, 16)), int(rng.integers(5, 13)),
                int(rng.integers(4, 11)))
        h = int(rng.integers(2, 21))
        spec = FamilySpec(
            "lowrank_plus_decay", dims, h, seed=500 + trial,
            params={"rank": int(rng.integers(1, 4)),
                    "rho": float(rng.uniform(0.3, 0.7)),
                    "n_noise": int(rng.integers(3, 8))},
        )
        A = tensor_under(spec, GRAM_KINDS[trial % 3])
        full = hosvd(A)
        avail = tuple(s.size for s in full.sigmas)
        for _ in range(5):
            ranks = tuple(int(rng.integers(1, r + 1)) for r in avail)
            if ranks == avail:
                ranks = (max(ranks[0] - 1, 1),) + ranks[1:]
            res = hosvd(A, ranks)
            err = fro_norm(BTensor(A.data - assemble(res.decomp).data, A.ip))
            bound = hosvd_error_bound(full.sigmas, res.ranks)
            worst_ratio = max(worst_ratio, err / max(bound, 1e-300))
            checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 1.0 + 1e-8 and elapsed <= 120.0
    assert _report(3, ok, f"{checks} rank tuples, worst err/bound "
                          f"{worst_ratio:.12f}, {elapsed:.1f}s <= 120s")


def test_criterion_4_scalar_consistency():
    rng = np.random.default_rng(20250804)
    ip1 = InnerProduct.identity(1)
    worst = 0.0
    for _ in range(20):
        M = rng.standard_normal((int(rng.integers(3, 8)),
                                 int(rng.integers(3, 8))))
        fac = svd(BTensor(M[:, :, None], ip1))
        recon = mode_mul(mode_mul(fac.U, 1, np.diag(fac.sigma)), 1, fac.V)
        worst = max(worst, np.abs(recon.data[:, :, 0] - M).max()
                    / np.abs(M).max())
        s_ref = np.linalg.svd(M, compute_uv=False)
        worst = max(worst, np.abs(fac.sigma - s_ref).max() / s_ref[0])
    for _ in range(20):
        T = rng.standard_normal((5, 4, 6))
        A = BTensor(T[..., None], ip1)
        ranks = tuple(int(rng.integers(1, 4)) for _ in range(3))
        B = assemble(hosvd(A, ranks).decomp)
        ref = scalar_hosvd(T, ranks)
        worst = max(worst, np.abs(B.data[..., 0] - ref).max()
                    / np.abs(T).max())
    for _ in range(20):
        M = rng.standard_normal((6, 7))
        I = sorted(rng.choice(6, size=2, replace=False).tolist())
        J = sorted(rng.choice(7, size=2, replace=False).tolist())
        B = assemble(tucker_cross(BTensor(M[:, :, None], ip1), [I, J]))
        ref = scalar_cross(M, I, J)
        worst = max(worst, np.abs(B.data[:, :, 0] - ref).max()
                    / np.abs(M).max())
    for _ in range(20):
        T = rng.standard_normal((5, 6, 4))
        sets = [sorted(rng.choice(n, size=2, replace=False).tolist())
                for n in T.shape]
        B = assemble(tucker_cross(BTensor(T[..., None], ip1), sets))
        ref = scalar_tucker_cross(T, sets)
        worst = max(worst, np.abs(B.data[..., 0] - ref).max()
                    / np.abs(T).max())
    ok = worst <= 1e-9
    assert _report(4, ok, f"80 instances, worst rel gap {worst:.2e}")


def test_criterion_5_kronecker_identity():
    rng = np.random.default_rng(20250805)
    ip = InnerProduct.identity(2)
    worst = 0.0
    for _ in range(10):
        A = BTensor(rng.standard_normal((2, 3, 2, 2)), ip)
        Bs = [rng.standard_normal((int(rng.integers(2, 5)), n))
              for n in (2, 3, 2)]
        C = A
        for k, Bk in enumerate(Bs):
            C = mode_mul(C, k, Bk)
        for k in range(3):
            others = [Bs[l] for l in range(3) if l != k]
            rhs = mode_mul(
                mode_mul(unfold(A, k), 0, Bs[k]), 1, np.kron(*others))
            gap = np.abs(unfold(C, k).data - rhs.data).max()
            worst = max(worst, gap / np.abs(C.data).max())
    ok = worst <= 1e-10
    assert _report(5, ok, f"10 tensors x 3 modes, worst gap {worst:.2e}")


def test_criterion_6_sample_budget():
    # A run of 8 sweeps on 30^3 reads fewer than 10 % of the entries
    # (2700), inside the sampling footprint that the adaptive sweep
    # promises.  Let cross(S) be the multi-indices in the sets S_l in all
    # modes but at most one, and cross_J(I) the core at the final index
    # sets I plus, for each k, the mode-k fibers through the final fiber
    # sets J_l <= I_l (l != k), |cross_J(I)| = prod s_l +
    # sum_k (n_k - s_k) prod_{l!=k} j_l.  The final model is tucker_cross
    # at I through J, which reads all of cross_J(I); the abc_sweeps
    # docstring adds that the auxiliary sets hold the index sets and that
    # every scan reads only fibers through them.  Hence
    # cross_J(I) <= E <= cross(aux) for the evaluated set E, and the count
    # is at most |cross(aux)|.  E holds distinct indices, so
    # n_model == |cross_J(I)| means cross_J(I) <= E.
    spec = FamilySpec("lowrank_plus_decay", (30, 30, 30), 16, seed=11,
                      params={"rank": 4, "rho": 0.6, "n_noise": 8})
    cached = CachedOracle(make_oracle(spec))
    rng = np.random.default_rng(20250806)
    aux = [sorted(rng.choice(30, size=3, replace=False).tolist())
           for _ in range(3)]
    cfg = AbcConfig(n_iter=8, init_aux=aux, n_rook=1, seed=7)
    t0 = time.perf_counter()
    model, report = tucker_abc(cached, cfg)
    elapsed = time.perf_counter() - t0
    dims = cached.dims
    total = int(np.prod(dims))
    count = cached.count
    floor = cross_size(report.index_sets, dims, model.fiber_sets)
    budget = cross_size(report.aux_sets, dims)
    index_sets = [set(S) for S in report.index_sets]
    fiber_sets = [set(S) for S in model.fiber_sets]
    aux_sets = [set(S) for S in report.aux_sets]
    n_model = sum(in_cross(idx, index_sets, fiber_sets)
                  for idx in cached.cache)
    n_outside = sum(not in_cross(idx, aux_sets) for idx in cached.cache)
    ok = (count < total // 10 and n_model == floor and n_outside == 0
          and count <= budget and elapsed <= 60.0)
    assert _report(6, ok, f"{count} distinct evaluations of {total} "
                          f"({100 * count / total:.1f}%, budget 10%): "
                          f"|cross_J(I)| = {floor}, {n_model} read; "
                          f"|cross(aux)| = {budget} "
                          f"({100 * budget / total:.1f}%), {n_outside} "
                          f"outside; {elapsed:.1f}s")


def _parse_compare(path):
    rows = []
    with open(path) as f:
        header = f.readline()
        for line in f:
            it, rank, e_abc, e_h, bound, evals = line.rstrip("\n").split("\t")
            rows.append((int(it), rank, float(e_abc), float(e_h),
                         float(bound), int(evals)))
    return rows


def test_criterion_7_gaussian_trend(gauss_compare):
    paths, elapsed = gauss_compare
    rows = _parse_compare(paths[1])
    errs = [r[2] for r in rows]
    monotone = all(b < a for a, b in zip(errs, errs[1:]))
    decades = errs[0] / errs[-1]
    ratio_ok = all(r[2] <= 5.0 * r[3] for r in rows[2:])
    bound_ok = all(r[3] <= r[4] * (1 + 1e-8) for r in rows)
    ok = (len(rows) == 10 and monotone and decades >= 1e4 and ratio_ok
          and bound_ok and elapsed[1] <= 600.0)
    assert _report(
        7, ok,
        f"decay x{decades:.1e} (>=1e4), monotone={monotone}, "
        f"abc<=5*hosvd from it3={ratio_ok}, {elapsed[1]:.0f}s <= 600s")


def test_criterion_8_inner_product_sensitivity(gauss_tensor):
    A = gauss_tensor
    cached = CachedOracle(EntryOracle.from_tensor(A))
    rng = np.random.default_rng([0, 17])
    aux = [sorted(rng.choice(50, size=3, replace=False).tolist())
           for _ in range(3)]
    cfg = AbcConfig(n_iter=10, init_aux=aux, n_rook=1, seed=0)
    _, report = tucker_abc(cached, cfg)
    A_id = BTensor(A.data, InnerProduct.identity(A.h))
    gaps = []
    for s in range(5, 11):
        sets = report.index_set_history[s - 1]
        e_gram = relative_error(A, tucker_cross(A, sets))
        m_id = tucker_cross(A_id, sets)
        m_id_in_gram = TuckerCrossModel(
            index_sets=m_id.index_sets,
            core=BTensor(m_id.core.data, A.ip),
            factors=m_id.factors, dims=m_id.dims)
        e_id = relative_error(A, m_id_in_gram)
        gaps.append(abs(e_id - e_gram) / e_gram)
    ok = all(g > 0.01 for g in gaps)
    assert _report(8, ok, "relative error gaps at iters 5..10: "
                          + ", ".join(f"{100 * g:.1f}%" for g in gaps))


def test_criterion_9_coarse_to_fine_reuse():
    from fvtensor.problems import param_grids
    from fvtensor.rom import reuse_factors, rom_from_parts
    params = {"rank": 3, "rho": 0.45, "n_noise": 8}
    coarse = FamilySpec("lowrank_plus_decay", (20, 18, 16), 16, seed=9,
                        params=params)
    fine = FamilySpec("lowrank_plus_decay", (20, 18, 16), 64, seed=9,
                      params=params)
    rng = np.random.default_rng([5, 17])
    aux = [sorted(rng.choice(n, size=3, replace=False).tolist())
           for n in (20, 18, 16)]
    cfg = AbcConfig(n_iter=5, init_aux=aux, n_rook=1, seed=5)
    coarse_cached = CachedOracle(make_oracle(coarse))
    model, _ = tucker_abc(coarse_cached, cfg)
    rm = rom_from_parts(model, param_grids(coarse), ["hat"] * 3)

    fine_cached = CachedOracle(make_oracle(fine))
    rm_fine = reuse_factors(rm, fine_cached)
    budget = int(np.prod([len(I) for I in model.index_sets]))
    count_ok = fine_cached.count == budget

    A_fine = make_tensor(fine)
    e_reuse = relative_error(A_fine, rm_fine.model)
    fresh_cached = CachedOracle(make_oracle(fine))
    model_fresh, _ = tucker_abc(fresh_cached, cfg)
    e_fresh = relative_error(A_fine, model_fresh)
    ok = count_ok and e_reuse <= 2.0 * e_fresh
    assert _report(
        9, ok,
        f"fine evals {fine_cached.count} == {budget}: {count_ok}; "
        f"reuse err {e_reuse:.3e} <= 2 x fresh {e_fresh:.3e}")


def test_criterion_10_threads_determinism(gauss_compare, tmp_path):
    paths, _ = gauss_compare
    gauss_same = open(paths[1], "rb").read() == open(paths[4], "rb").read()
    # the exact-recovery workload through the same pipeline
    outs = []
    for threads in (1, 4):
        out = str(tmp_path / f"exact_t{threads}.tsv")
        code = cli_main(["compare", "--family", "separable",
                         "--dims", "12,12,12", "--h", "16", "--seed", "1",
                         "--iters", "4", "--rook", "1", "--aux", "2",
                         "--threads", str(threads), "--out", out])
        assert code == 0
        outs.append(open(out, "rb").read())
    exact_same = outs[0] == outs[1]
    final_err = float(outs[0].decode().splitlines()[-1].split("\t")[2])
    ok = gauss_same and exact_same and final_err <= 1e-8
    assert _report(
        10, ok,
        f"gaussian TSV byte-identical: {gauss_same}; exact-recovery TSV "
        f"byte-identical: {exact_same}, final err {final_err:.1e}")
