"""From sampled decomposition to a reduced-order model.

The model couples the sampled core with one interpolation basis per mode,
which holds that mode's parameter grid.  Evaluation encodes the query
point into reduced coefficients (basis values times the scalar factors)
and decodes by contracting the core; at sampled grid nodes this
reproduces the stored solutions exactly.
A coarse-resolution model is transferred to a finer discretization by
resampling only the core.
"""

import numpy as np

import fvtensor as fv
from fvtensor.problems import param_grids
from fvtensor.rom import reuse_factors, rom_eval, rom_from_parts
from fvtensor.sampler import CachedOracle

params = {"rank": 3, "rho": 0.45, "n_noise": 6}
coarse = fv.FamilySpec("lowrank_plus_decay", (20, 18, 16), 16, seed=9,
                       params=params)
fine = fv.FamilySpec("lowrank_plus_decay", (20, 18, 16), 64, seed=9,
                     params=params)

oracle = CachedOracle(fv.make_oracle(coarse))
rng = np.random.default_rng(5)
aux = [sorted(rng.choice(n, size=3, replace=False).tolist())
       for n in (20, 18, 16)]
cfg = fv.AbcConfig(n_iter=5, init_aux=aux, n_rook=1, seed=5)
model, report = fv.tucker_abc(oracle, cfg)

rm = rom_from_parts(model, param_grids(coarse), ["hat"] * 3)

# interpolatory on the sampled subgrid
I = model.index_sets
node = tuple(rm.bases[k].nodes[I[k][0]] for k in range(3))
print("value at a sampled node equals the stored core entry:",
      np.array_equal(rom_eval(rm, node), model.core.data[0, 0, 0]))

# evaluation anywhere in the parameter box
query = (0.37, 0.52, 0.81)
u = rom_eval(rm, query)
truth = fv.make_oracle(coarse).fn(tuple(
    int(np.argmin(np.abs(rm.bases[k].nodes - query[k]))) for k in range(3)))
print("prediction at", query, "-> coefficient vector of length", u.size)
print("nearest-node sanity gap:",
      np.linalg.norm(u - truth) / np.linalg.norm(truth))

# coarse-to-fine transfer: only the core is resampled
fine_oracle = CachedOracle(fv.make_oracle(fine))
rm_fine = reuse_factors(rm, fine_oracle)
print("\nfine evaluations consumed by the transfer:", fine_oracle.count,
      "= product of index-set sizes:",
      int(np.prod([len(J) for J in I])))

A_fine = fv.make_tensor(fine)
print("transferred model error on the fine family:",
      fv.relative_error(A_fine, rm_fine.model))
