"""Interpolatory reduced-order models on sampled Tucker-cross data.

A model couples a Tucker-cross approximation with one interpolation basis
per mode, which holds that mode's parameter grid.  Evaluation is an
encoder-decoder pass: the (nonlinear) encoder evaluates the basis at the
query point and contracts it with the scalar factors, the multilinear
decoder contracts the reduced coefficients against the sampled core.  At
grid nodes whose indices were sampled, the delta property of the bases
pushes through and the model reproduces the stored solution exactly.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .bmatrix import _canonical_index_set
from .btensor import BTensor, TuckerCrossModel, _contract
from .fvt import load_fvt, save_fvt

BASIS_KINDS = ("hat", "lagrange")


class DomainError(ValueError):
    """Query point not finite, or outside the grid span of a hat basis."""


@dataclass
class Basis1D:
    """Delta-property interpolation basis on one mode's parameter grid,
    which it checks: ``nodes`` nonempty, finite, strictly increasing."""

    kind: str
    nodes: np.ndarray

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        x = np.asarray(self.nodes, dtype=float).reshape(-1)
        if x.size < 1:
            raise ValueError("grid is empty")
        if not np.all(np.isfinite(x)):
            raise ValueError("grid holds a non-finite node")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("grid is not strictly increasing")
        self.nodes = x

    @cached_property
    def weights(self):
        """Barycentric weights of the Lagrange basis on ``nodes``; they
        depend only on the nodes, so they are computed once."""
        nodes = self.nodes
        w = np.ones(nodes.size)
        for i in range(nodes.size):
            w[i] = 1.0 / np.prod(np.delete(nodes[i] - nodes, i))
        return w


def _hat_eval(nodes, alpha):
    n = nodes.size
    out = np.zeros(n)
    if n == 1:
        if alpha != nodes[0]:
            raise DomainError(f"{alpha} is not the single grid node")
        out[0] = 1.0
        return out
    if alpha < nodes[0] or alpha > nodes[-1]:
        raise DomainError(f"{alpha} outside [{nodes[0]}, {nodes[-1]}]")
    j = int(np.searchsorted(nodes, alpha, side="right")) - 1
    if j >= n - 1:
        out[-1] = 1.0
        return out
    t = (alpha - nodes[j]) / (nodes[j + 1] - nodes[j])
    out[j] = 1.0 - t
    out[j + 1] = t
    return out


def _lagrange_eval(nodes, weights, alpha):
    n = nodes.size
    out = np.zeros(n)
    if n == 1:
        out[0] = 1.0
        return out
    diff = alpha - nodes
    hit = np.nonzero(diff == 0.0)[0]
    if hit.size:
        out[hit[0]] = 1.0
        return out
    if alpha < nodes[0] or alpha > nodes[-1]:
        warnings.warn(f"extrapolating outside [{nodes[0]}, {nodes[-1]}]",
                      stacklevel=3)
    terms = weights / diff
    return terms / terms.sum()


def basis_eval(basis, alpha):
    """Values of all basis functions on one axis at the point ``alpha``.

    Hat bases are local, nonnegative, sum to one, and refuse points
    outside the grid span; the barycentric Lagrange basis reproduces
    polynomials up to the grid degree and extrapolates with a warning.
    Both return an exact unit vector at grid nodes and refuse NaN or
    infinite points.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"parameter {alpha} is not finite")
    if basis.kind == "hat":
        return _hat_eval(basis.nodes, alpha)
    return _lagrange_eval(basis.nodes, basis.weights, alpha)


@dataclass
class RomModel:
    """Tucker-cross model plus one basis per mode for off-grid evaluation;
    basis ``k`` holds one grid node per row of factor ``k``."""

    model: TuckerCrossModel
    bases: list

    def __post_init__(self):
        factors = self.model.factors
        if len(self.bases) != len(factors):
            raise ValueError(f"{len(self.bases)} bases for a model of "
                             f"order {len(factors)}")
        for k, (Fk, b) in enumerate(zip(factors, self.bases)):
            if Fk.shape[0] != b.nodes.size:
                raise ValueError(f"factor {k} has {Fk.shape[0]} rows but "
                                 f"the grid has {b.nodes.size} nodes")

    @property
    def ip(self):
        return self.model.ip

    @property
    def grid(self):  # the bases' nodes, read as rm.grid.nodes by perfbench
        return SimpleNamespace(nodes=[b.nodes for b in self.bases])


def rom_from_parts(model, nodes, kinds):
    """A :class:`RomModel` with a ``kinds[k]`` basis on ``nodes[k]``; a bad
    node vector is a ``ValueError`` naming its mode."""
    bases = []
    for k, (kind, x) in enumerate(zip(kinds, nodes, strict=True)):
        try:
            bases.append(Basis1D(kind, x))
        except ValueError as e:
            msg = str(e).replace("grid", f"grid for mode {k}", 1)
            raise ValueError(msg) from None
    return RomModel(model=model, bases=bases)


def encode(rm, alphas):
    """Reduced coefficient vectors, one of length ``|I_k|`` per mode."""
    alphas = tuple(float(a) for a in alphas)
    if len(alphas) != len(rm.bases):
        raise ValueError(f"expected {len(rm.bases)} parameters, got {len(alphas)}")
    return [basis_eval(b, a) @ Fk
            for b, a, Fk in zip(rm.bases, alphas, rm.model.factors)]


def decode(rm, reduced):
    """Contract the sampled core against reduced coefficient vectors, each
    a one-row matrix to :func:`~fvtensor.btensor._contract`."""
    core = rm.model.core.data
    if len(reduced) != core.ndim - 1:
        raise ValueError("wrong number of reduced vectors")
    vecs = [np.asarray(v, dtype=float) for v in reduced]
    if any(v.shape != (r,) for v, r in zip(vecs, core.shape)):
        raise ValueError("reduced vector length mismatch")
    return _contract(core, [v[None, :] for v in vecs]).reshape(core.shape[-1])


def rom_eval(rm, alphas):
    """Model prediction at a parameter point, as a coefficient vector."""
    return decode(rm, encode(rm, alphas))


def reuse_factors(rm, fine_cached):
    """Transfer a model to a finer discretization of the same family.

    Keeps the selected index sets and scalar factors; only the core is
    resampled from the fine oracle, costing exactly ``prod(|I_k|)`` fine
    evaluations.
    """
    model = rm.model
    if tuple(fine_cached.dims) != tuple(model.dims):
        raise ValueError(
            f"fine oracle dims {fine_cached.dims} != model dims {model.dims}"
        )
    core_data = fine_cached.gather([np.asarray(I) for I in model.index_sets])
    fine_core = BTensor(core_data, fine_cached.ip)
    fine_model = TuckerCrossModel(
        index_sets=model.index_sets,
        core=fine_core,
        factors=[Fk.copy() for Fk in model.factors],
        dims=model.dims,
    )
    return RomModel(model=fine_model, bases=list(rm.bases))


def _hex_list(arr):
    return [float(v).hex() for v in np.asarray(arr, dtype=float).reshape(-1)]


def _from_hex(values, shape):
    out = np.array([float.fromhex(v) for v in values], dtype=float)
    return out.reshape(shape)


def save_model(rm, path):
    """Persist a ROM as JSON plus a companion FVT file for the core, the
    path with ``.json`` replaced by (or followed by) ``.core.fvt``.

    Floats are hex-encoded for a bit-exact round-trip; index sets are
    stored as 1-based sorted lists.
    """
    base = path[:-5] if path.endswith(".json") else path
    core_path = base + ".core.fvt"
    save_fvt(rm.model.core, core_path)
    doc = {
        "format": "fvt-rom",
        "version": 1,
        "dims": [int(n) for n in rm.model.dims],
        "index_sets": [[int(i) + 1 for i in I] for I in rm.model.index_sets],
        "grids": [_hex_list(b.nodes) for b in rm.bases],
        "basis": [b.kind for b in rm.bases],
        "factors": [
            {"rows": int(F.shape[0]), "cols": int(F.shape[1]),
             "data": _hex_list(F)}
            for F in rm.model.factors
        ],
        "core_file": os.path.basename(core_path),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def load_model(path):
    """Load a ROM saved by :func:`save_model`, checking what it loads.

    Mode ``k``'s size and indices must be JSON integers, not floats or
    booleans; its index set must be sorted, distinct and inside
    ``[0, dims[k])``; its length must be the core's size in mode ``k``;
    and factor ``k`` must be a finite ``dims[k] x |I_k|`` matrix.  A
    violation is a ``ValueError`` naming the mode.
    """
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != "fvt-rom" or doc.get("version") != 1:
        raise ValueError("not a version-1 ROM file")
    core_path = os.path.join(os.path.dirname(os.path.abspath(path)),
                             doc["core_file"])
    core = load_fvt(core_path)
    dims = tuple(doc["dims"])
    sets, docs = doc["index_sets"], doc["factors"]
    if not len(sets) == len(docs) == core.d == len(dims):
        raise ValueError(f"{len(dims)} dims, {len(sets)} index sets, "
                         f"{len(docs)} factors and a core of order {core.d}")
    index_sets, factors = [], []
    for k, (n, raw, F) in enumerate(zip(dims, sets, docs)):
        if not all(type(i) is int for i in (n, *raw)):
            raise ValueError(f"mode {k} size or index set holds a non-integer")
        I = [i - 1 for i in raw]
        if _canonical_index_set(I, n, f"mode {k}") != I:
            raise ValueError(f"mode {k} index set is not sorted and distinct")
        shape = (n, len(I))
        if (F["rows"], F["cols"]) != shape or core.dims[k] != len(I):
            raise ValueError(
                f"mode {k} factor is {F['rows']} x {F['cols']} and the core "
                f"has {core.dims[k]} in mode {k}, but dims and the index set "
                f"give {n} x {len(I)}")
        Fk = _from_hex(F["data"], shape)
        if not np.all(np.isfinite(Fk)):
            raise ValueError(f"mode {k} factor holds a non-finite entry")
        index_sets.append(tuple(I))
        factors.append(Fk)
    model = TuckerCrossModel(index_sets=tuple(index_sets), core=core,
                             factors=factors, dims=dims)
    nodes = [_from_hex(g, (len(g),)) for g in doc["grids"]]
    return rom_from_parts(model, nodes, doc["basis"])
