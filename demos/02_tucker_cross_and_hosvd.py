"""Tucker machinery for function-valued tensors.

Unfoldings use a big-endian composite index (first index slowest), mode
products act on unfoldings, the Tucker rank is the tuple of unfolding
row-ranks, and two approximations are available: the sampled Tucker-cross
and the quasi-optimal HOSVD with its computable error bound.
"""

import numpy as np

import fvtensor as fv

rng = np.random.default_rng(1)
ip = fv.InnerProduct.identity(8)

# an exact rank-(2,3,2) tensor assembled from a small core
core = fv.BTensor(rng.standard_normal((2, 3, 2, 8)), ip)
factors = [rng.standard_normal((10, 2)), rng.standard_normal((12, 3)),
           rng.standard_normal((9, 2))]
A = fv.assemble(fv.TuckerDecomp(core=core, factors=factors))
print("Tucker rank:", fv.tucker_rank(A))

# the mode-1 unfolding of a mode product obeys the Kronecker identity
B1 = rng.standard_normal((4, 10))
B2 = rng.standard_normal((5, 12))
B3 = rng.standard_normal((3, 9))
C = fv.mode_mul(fv.mode_mul(fv.mode_mul(A, 0, B1), 1, B2), 2, B3)
lhs = fv.unfold(C, 1)
rhs = fv.mode_mul(fv.mode_mul(fv.unfold(A, 1), 0, B2), 1, np.kron(B1, B3))
print("Kronecker identity gap:", np.abs(lhs.data - rhs.data).max())

# Tucker-cross at rank-matching index sets recovers the tensor
sets = [[0, 4], [1, 5, 8], [2, 6]]
model = fv.tucker_cross(A, sets)
print("cross recovery error:", fv.relative_error(A, model))
print("core interpolated exactly:",
      np.array_equal(model.core.data, A.data[np.ix_(*sets)]))

# HOSVD of a decaying tensor, with the bound from the spectra
spec = fv.FamilySpec("lowrank_plus_decay", (14, 12, 10), 16, seed=4,
                     params={"rank": 2, "rho": 0.5, "n_noise": 6})
D = fv.make_tensor(spec)
norm_d = fv.fro_norm(D)
for ranks in [(2, 2, 2), (4, 4, 4), (6, 6, 6)]:
    res = fv.hosvd(D, ranks)
    err = fv.fro_norm(fv.BTensor(D.data - fv.assemble(res.decomp).data, D.ip))
    bound = fv.hosvd_error_bound(res.sigmas, res.ranks)
    print(f"rank {res.ranks}: rel error {err / norm_d:.3e} "
          f"<= rel bound {bound / norm_d:.3e}")
