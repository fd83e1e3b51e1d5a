"""Working with function-valued matrices.

A function-valued matrix holds one Hilbert-space element per entry,
represented by a coefficient vector; the geometry enters through a Gram
specification.  This script walks through inner products, the pivoted
QR, the SVD, the applied pseudoinverse, and cross approximation, and
shows that changing the inner product changes the cross approximant.
"""

import numpy as np

import fvtensor as fv
from fvtensor.bmatrix import assemble_cross

rng = np.random.default_rng(0)

# three ways to equip R^6 with an inner product
ip_id = fv.InnerProduct.identity(6)
ip_w = fv.InnerProduct.diagonal(np.linspace(0.2, 2.0, 6))
M = rng.standard_normal((6, 6))
ip_g = fv.InnerProduct.dense((M @ M.T + 6 * np.eye(6)) / 6)

u = rng.standard_normal(6)
v = rng.standard_normal(6)
print("dot under identity:", fv.dot(u, v, ip_id))
print("dot under weights: ", fv.dot(u, v, ip_w))
print("dot under dense G: ", fv.dot(u, v, ip_g))

# a 5x4 matrix whose column-rank (2) and row-rank (2) both live at the
# sampled rows I and columns J, so the cross recovers it exactly
I, J = [1, 3], [0, 2]
K = fv.BMatrix(rng.standard_normal((2, 2, 6)), ip_g)
Fl = rng.standard_normal((5, 2))
Fl[I] = np.eye(2)
Pr = rng.standard_normal((4, 2))
Pr[J] = np.eye(2)
A = fv.right_mul(fv.left_mul(Fl, K), Pr.T)
print("\ncolumn rank:", fv.column_rank(A),
      " row rank:", fv.column_rank(fv.transpose(A)))

qr = fv.mgs_qr(A)
print("QR rank:", qr.rank)
print("Q*Q - I max:", np.abs(fv.adjoint_apply(qr.Q, qr.Q) - np.eye(qr.rank)).max())

fac = fv.svd(A)
print("singular values:", fac.sigma)

# pseudoinverse is applied, never materialized: A^dagger A = V V^T
P = fv.pinv_apply(A, A)
print("A^dagger A equals the V-projector:",
      np.abs(P - fac.V @ fac.V.T).max() < 1e-9)

F, core, Pt = fv.cross_matrix(A, I, J)
B = assemble_cross(F, core, Pt)
print("\ncross error at rank-matching sets:",
      fv.fro_norm(fv.BMatrix(B.data - A.data, ip_g)) / fv.fro_norm(A))

# the approximant depends on the Hilbert-space geometry: same data and
# index sets under the identity Gram give a different approximant
A_id = fv.BMatrix(A.data, ip_id)
Bad = fv.BMatrix(rng.standard_normal((5, 4, 6)), ip_g)
B_g = assemble_cross(*fv.cross_matrix(fv.BMatrix(Bad.data, ip_g), I, J))
B_i = assemble_cross(*fv.cross_matrix(fv.BMatrix(Bad.data, ip_id), I, J))
gap = fv.fro_norm(fv.BMatrix(B_g.data - B_i.data, ip_id))
print("gap between identity-Gram and dense-Gram approximants:", gap)
