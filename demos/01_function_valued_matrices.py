"""Working with function-valued matrices.

A function-valued matrix holds one Hilbert-space element per entry,
represented by a coefficient vector; the geometry enters through a Gram
specification.  It is a 2-way ``BTensor``: scalar matrices act on it by
mode products, its Tucker rank is its (row rank, column rank), and its
cross approximation is ``tucker_cross`` at a row and a column set.  This
script walks through inner products, the SVD, the applied pseudoinverse,
and cross approximation, and shows that changing the inner product
changes the cross approximant.
"""

import numpy as np

import fvtensor as fv

rng = np.random.default_rng(0)

# three ways to equip R^6 with an inner product
ip_id = fv.InnerProduct.identity(6)
ip_w = fv.InnerProduct.diagonal(np.linspace(0.2, 2.0, 6))
M = rng.standard_normal((6, 6))
ip_g = fv.InnerProduct.dense((M @ M.T + 6 * np.eye(6)) / 6)

u = rng.standard_normal(6)
v = rng.standard_normal(6)
print("pair under identity:", ip_id.pair(u, v))
print("pair under weights: ", ip_w.pair(u, v))
print("pair under dense G: ", ip_g.pair(u, v))

# a 5x4 matrix whose column-rank (2) and row-rank (2) both live at the
# sampled rows I and columns J, so the cross recovers it exactly
I, J = [1, 3], [0, 2]
K = fv.BTensor(rng.standard_normal((2, 2, 6)), ip_g)
Fl = rng.standard_normal((5, 2))
Fl[I] = np.eye(2)
Pr = rng.standard_normal((4, 2))
Pr[J] = np.eye(2)
A = fv.mode_mul(fv.mode_mul(K, 0, Fl), 1, Pr)
row_rank, col_rank = fv.tucker_rank(A)
print("\ncolumn rank:", col_rank, " row rank:", row_rank)

fac = fv.svd(A)
print("singular values:", fac.sigma)
r = fac.sigma.size
print("U*U - I max:", np.abs(fv.adjoint_apply(fac.U, fac.U) - np.eye(r)).max())

# pseudoinverse is applied, never materialized: A^dagger A = V V^T
P = fv.pinv_apply(A, A)
print("A^dagger A equals the V-projector:",
      np.abs(P - fac.V @ fac.V.T).max() < 1e-9)

B = fv.assemble(fv.tucker_cross(A, [I, J]))
print("\ncross error at rank-matching sets:",
      fv.fro_norm(fv.BTensor(B.data - A.data, ip_g)) / fv.fro_norm(A))

# the approximant depends on the Hilbert-space geometry: same data and
# index sets under the identity Gram give a different approximant
Bad = rng.standard_normal((5, 4, 6))
B_g = fv.assemble(fv.tucker_cross(fv.BTensor(Bad, ip_g), [I, J]))
B_i = fv.assemble(fv.tucker_cross(fv.BTensor(Bad, ip_id), [I, J]))
gap = fv.fro_norm(fv.BTensor(B_g.data - B_i.data, ip_id))
print("gap between identity-Gram and dense-Gram approximants:", gap)
