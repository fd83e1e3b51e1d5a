"""Low-rank approximation of function-valued matrices and tensors.

Arrays whose entries live in a finite-dimensional Hilbert space are
represented by coefficient arrays with one trailing axis, paired with an
:class:`~fvtensor.hilbert.InnerProduct` describing the geometry.  The
package provides the linear algebra of such arrays (SVD, pseudoinverse
application, cross approximation, Tucker machinery, HOSVD), an adaptive
cross-sampling algorithm driven by a cached entry oracle, and interpolatory
reduced-order models built on top of the sampled decompositions.
"""

from .hilbert import InnerProduct
from .bmatrix import SVDFactors, adjoint_apply, pinv_apply, svd
from .btensor import (
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
    relative_error,
    tucker_cross,
    tucker_rank,
    unfold,
)
from .sampler import CachedOracle, EntryOracle
from .aca import (
    AbcConfig,
    AbcReport,
    abc_sweeps,
    rook_pivot,
    tucker_abc,
)
from .rom import (
    Basis1D,
    RomModel,
    basis_eval,
    decode,
    encode,
    load_model,
    reuse_factors,
    rom_eval,
    rom_from_parts,
    save_model,
)
from .problems import FamilySpec, make_oracle, make_tensor
from .fvt import load_fvt, save_fvt

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
