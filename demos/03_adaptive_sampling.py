"""Adaptive cross sampling with a counted oracle.

The tensor is only touched through a memoizing index-to-value map, which
is how an expensive parameter-to-solution map would be wrapped.  Each
sweep draws a uniformly random start column per mode, refines it by rook
pivoting on the lazily evaluated residual, adds the index found unless
the mode's chosen columns already carry the rank of every fiber it has
seen, and folds the new fibers into the Tucker-cross model.  The fibers
run through the first few chosen indices of the other modes, not through
all of them, so a sweep's model reads far fewer entries than the full
cross of its index sets; the counter shows how little of the tensor the
run actually looked at.
"""

import numpy as np

import fvtensor as fv
from fvtensor.sampler import CachedOracle

spec = fv.FamilySpec("gaussian_bump", (30, 30, 30), 64, seed=0)
A = fv.make_tensor(spec)  # dense copy only for error reporting
oracle = CachedOracle(fv.make_oracle(spec))

rng = np.random.default_rng(2)
aux = [sorted(rng.choice(30, size=3, replace=False).tolist()) for _ in range(3)]
cfg = fv.AbcConfig(n_iter=8, init_aux=aux, n_rook=1, seed=2)

total = 30 * 30 * 30
print("iter  rank        evals   share   rel.error")
for model, report in fv.abc_sweeps(oracle, cfg):
    s, rk = report.n_iter_run, report.rank_history[-1]
    ev = report.evals_by_iter[-1]
    err = fv.relative_error(A, model)
    print(f"{s:4d}  {str(rk):10s}  {ev:5d}  {100 * ev / total:5.1f}%  {err:.3e}")

print("\nfinal index sets:", report.index_sets)
print("fibers read through:", model.fiber_sets)
