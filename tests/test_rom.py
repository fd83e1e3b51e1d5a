import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fvtensor.aca import AbcConfig, tucker_abc
from fvtensor.btensor import BTensor, assemble, fro_norm, tucker_cross
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec, make_oracle, param_grids
from fvtensor.rom import (
    Basis1D,
    DomainError,
    basis_eval,
    decode,
    encode,
    load_model,
    reuse_factors,
    rom_eval,
    rom_from_parts,
    save_model,
)
from fvtensor.sampler import CachedOracle, EntryOracle


def build_rom(rng, dims=(7, 6, 5), h=4, sets=None, kinds=None):
    ip = InnerProduct.identity(h)
    A = BTensor(rng.standard_normal(tuple(dims) + (h,)), ip)
    sets = sets or [[0, 3], [1, 4], [0, 2]]
    model = tucker_cross(A, sets)
    nodes = [np.linspace(0.0, 1.0, n) for n in dims]
    return A, rom_from_parts(model, nodes, kinds or ["hat"] * len(dims))


# --- bases ---------------------------------------------------------------

def test_param_grid_validation():
    for kind in ("hat", "lagrange"):
        with pytest.raises(ValueError, match="not strictly increasing"):
            Basis1D(kind, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="empty"):
            Basis1D(kind, [])
        assert Basis1D(kind, [0.0, 0.5, 1.0]).nodes.size == 3
        assert Basis1D(kind, [2.0]).nodes.size == 1


@pytest.mark.parametrize("kind", ["hat", "lagrange"])
@pytest.mark.parametrize("nodes, named", [
    ([0.0, 0.0, 1.0], "grid is not strictly increasing"),
    ([0.0, 1.0, 0.5], "grid is not strictly increasing"),
    ([1.0, 0.0], "grid is not strictly increasing"),
    ([0.0, math.nan], "grid holds a non-finite node"),
    ([math.nan], "grid holds a non-finite node"),
    ([], "grid is empty"),
])
def test_basis_refuses_a_bad_grid(kind, nodes, named):
    # a basis owns its grid: repeated nodes would give Lagrange weights of
    # -inf, a NaN node hat values of NaN
    with pytest.raises(ValueError, match=named):
        Basis1D(kind, nodes)


def test_rom_from_parts_needs_one_grid_per_mode(rng):
    A = BTensor(rng.standard_normal((4, 3, 2, 2)), InnerProduct.identity(2))
    model = tucker_cross(A, [[0, 1], [1], [0]])
    grids = [np.linspace(0.0, 1.0, n) for n in (4, 3)]
    with pytest.raises(ValueError, match="2 bases for a model of order 3"):
        rom_from_parts(model, grids, ["hat", "hat"])
    with pytest.raises(ValueError):
        rom_from_parts(model, grids + [[0.0, 1.0]], ["hat"] * 2)
    with pytest.raises(ValueError, match="factor 2 has 2 rows but the grid "
                                         "has 3 nodes"):
        rom_from_parts(model, grids + [[0.0, 0.5, 1.0]], ["hat"] * 3)


@given(st.one_of(
    st.lists(st.floats(), max_size=6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=6, unique=True).map(sorted)))
@example([0.0, math.nan, 1.0])
@example([math.nan])
@example([0.0, math.inf])
@example([-math.inf, 0.0, 1.0])
@example([1.7976931348623157e+308, -9.9792015476736e+291])
@example([-1.7976931348623157e+308, 1.7976931348623157e+308])
def test_param_grid_accepts_exactly_the_valid_node_vectors(x):
    # a node vector is valid when it is nonempty, finite and strictly
    # increasing; an invalid one is a ValueError from the basis, and one
    # naming its mode from rom_from_parts
    valid = (len(x) > 0 and all(math.isfinite(t) for t in x)
             and all(a < b for a, b in zip(x, x[1:])))
    A = BTensor(np.ones((1, max(len(x), 1), 1)), InnerProduct.identity(1))
    model = tucker_cross(A, [[0], [0]])
    if valid:
        for kind in ("hat", "lagrange"):
            assert Basis1D(kind, x).nodes.tolist() == x
        rm = rom_from_parts(model, [[0.0], x], ["hat"] * 2)
        assert rm.bases[1].nodes.size == len(x)
    else:
        for kind in ("hat", "lagrange"):
            with pytest.raises(ValueError):
                Basis1D(kind, x)
        with pytest.raises(ValueError, match="mode 1"):
            rom_from_parts(model, [[0.0], x], ["hat"] * 2)


@pytest.mark.parametrize("kind", ["hat", "lagrange"])
def test_delta_property(kind):
    nodes = np.array([0.0, 0.2, 0.55, 1.0])
    b = Basis1D(kind, nodes)
    for j, x in enumerate(nodes):
        phi = basis_eval(b, x)
        expected = np.zeros(4)
        expected[j] = 1.0
        assert np.array_equal(phi, expected)


def test_hat_midpoint_and_partition():
    b = Basis1D("hat", np.array([0.0, 1.0, 3.0, 4.0]))
    phi = basis_eval(b, 0.5)
    assert np.allclose(phi, [0.5, 0.5, 0.0, 0.0])
    rng = np.random.default_rng(3)
    for x in rng.uniform(0.0, 4.0, size=20):
        phi = basis_eval(b, x)
        assert phi.min() >= 0.0
        assert np.count_nonzero(phi) <= 2
        assert phi.sum() == pytest.approx(1.0)


def test_hat_out_of_domain():
    b = Basis1D("hat", np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        basis_eval(b, -0.1)
    with pytest.raises(DomainError):
        basis_eval(b, 1.1)
    # a single-node hat basis is the unit vector at its node, and defined
    # nowhere else
    b = Basis1D("hat", np.array([0.25]))
    assert np.array_equal(basis_eval(b, 0.25), [1.0])
    for alpha in (0.3, 0.0):
        with pytest.raises(DomainError, match="is not the single grid node"):
            basis_eval(b, alpha)


@pytest.mark.parametrize("kind", ["hat", "lagrange"])
@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_nonfinite_parameter_out_of_domain(kind, alpha):
    for nodes in ([0.0, 0.5, 1.0], [0.25]):
        with pytest.raises(DomainError):
            basis_eval(Basis1D(kind, np.array(nodes)), alpha)


def test_lagrange_reproduces_quadratic():
    poly = lambda x: 2.0 - 0.5 * x + 3.0 * x * x
    for n in (3, 60):
        # Chebyshev points in [-1, 1]; n = 3 gives -1, 0, 1 up to round-off
        nodes = np.cos(np.arange(n - 1, -1, -1.0) * np.pi / (n - 1))
        b = Basis1D("lagrange", nodes)
        vals = np.array([poly(x) for x in b.nodes])
        for x in np.linspace(-1.0, 1.0, 10):
            assert basis_eval(b, x) @ vals == pytest.approx(poly(x), abs=1e-12)


@pytest.mark.parametrize("n", [200, 400])
def test_lagrange_weights_stay_finite_on_a_short_interval(n):
    # on the raw nodes the products of differences underflow (0.1^199 at
    # n = 200) and every value was NaN.  Equispaced values grow to 1e16
    # near the ends (Runge), so they sum to 1 up to round-off of their
    # magnitudes there, and to 1e-14 at the centre
    b = Basis1D("lagrange", np.linspace(0.001, 0.1, n))
    assert np.all(np.isfinite(b.weights)) and np.all(b.weights != 0.0)
    for x in np.linspace(0.0012, 0.0998, 9):
        vals = basis_eval(b, x)
        assert np.all(np.isfinite(vals))
        assert abs(vals.sum() - 1.0) <= 1e-13 * np.abs(vals).sum()
    assert basis_eval(b, 0.0505).sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(basis_eval(b, b.nodes[17]), np.eye(n)[17])


def test_lagrange_values_out_of_range_raise_domain_error():
    # at 3000 nodes the weights leave floating-point range even on an
    # interval of length 4
    b = Basis1D("lagrange", np.linspace(0.0, 1.0, 3000))
    with pytest.raises(DomainError, match="not finite"):
        basis_eval(b, 0.123)


def test_lagrange_extrapolation_warns():
    b = Basis1D("lagrange", np.array([0.0, 0.5, 1.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        basis_eval(b, 1.5)
    assert any("extrapolat" in str(w.message) for w in caught)


# --- encode / decode -------------------------------------------------------

def test_encode_at_sampled_nodes_gives_factor_rows(rng):
    A, rm = build_rom(rng)
    model = rm.model
    for k, I in enumerate(model.index_sets):
        alphas = [rm.bases[l].nodes[model.index_sets[l][0]] for l in range(3)]
        alphas[k] = rm.bases[k].nodes[I[1]]
        vecs = encode(rm, alphas)
        assert np.array_equal(vecs[k], model.factors[k][I[1]])
    # at any grid node the reduced vector is that node's factor row
    vecs = encode(rm, [rm.bases[0].nodes[5], rm.bases[1].nodes[2],
                       rm.bases[2].nodes[4]])
    assert np.array_equal(vecs[0], model.factors[0][5])
    assert np.array_equal(vecs[1], model.factors[1][2])
    assert np.array_equal(vecs[2], model.factors[2][4])
    # one parameter per mode
    for alphas in ([0.5, 0.5], [0.5] * 4):
        with pytest.raises(ValueError, match=f"expected 3 parameters, "
                                             f"got {len(alphas)}"):
            encode(rm, alphas)


def test_rom_subgrid_exactness(rng):
    A, rm = build_rom(rng)
    model = rm.model
    scale = A.ip.norms(A.data.reshape(-1, A.h)).max()
    for i, gi in enumerate(model.index_sets[0]):
        for j, gj in enumerate(model.index_sets[1]):
            for k, gk in enumerate(model.index_sets[2]):
                alphas = (rm.bases[0].nodes[gi], rm.bases[1].nodes[gj],
                          rm.bases[2].nodes[gk])
                val = rom_eval(rm, alphas)
                assert np.array_equal(val, model.core.data[i, j, k])
                assert np.allclose(val, A.data[gi, gj, gk],
                                   atol=1e-9 * scale)


def test_rom_exact_rank_everywhere(rng):
    # exact-rank tensor: the model reproduces every grid node
    from fvtensor.btensor import TuckerDecomp
    ip = InnerProduct.identity(4)
    core = BTensor(rng.standard_normal((2, 2, 2, 4)), ip)
    sets = [[1, 4], [0, 3], [2, 5]]
    factors = []
    for n, I in zip((6, 6, 6), sets):
        F = rng.standard_normal((n, 2))
        F[I] = np.eye(2)
        factors.append(F)
    A = assemble(TuckerDecomp(core=core, factors=factors))
    model = tucker_cross(A, sets)
    nodes = [np.linspace(0.0, 1.0, 6)] * 3
    rm = rom_from_parts(model, nodes, ["hat"] * 3)
    scale = fro_norm(A)
    for i in range(6):
        for j in range(6):
            for k in range(6):
                val = rom_eval(rm, (nodes[0][i], nodes[1][j], nodes[2][k]))
                assert np.linalg.norm(val - A.data[i, j, k]) <= 1e-8 * scale


def test_rom_rank_one_product_structure(rng):
    ip = InnerProduct.identity(3)
    A = BTensor(rng.standard_normal((5, 4, 6, 3)), ip)
    model = tucker_cross(A, [[2], [1], [0]])
    nodes = [np.linspace(0.0, 1.0, n) for n in (5, 4, 6)]
    rm = rom_from_parts(model, nodes, ["hat"] * 3)
    alphas = (0.31, 0.7, 0.11)
    vecs = encode(rm, alphas)
    expected = vecs[0][0] * vecs[1][0] * vecs[2][0] * model.core.data[0, 0, 0]
    assert np.allclose(rom_eval(rm, alphas), expected)


def test_rom_continuity_along_edge(rng):
    A, rm = build_rom(rng)
    vals = []
    for x in np.linspace(0.0, 1.0, 101):
        vals.append(rom_eval(rm, (x, 0.4, 0.6)))
    vals = np.array(vals)
    jumps = np.abs(np.diff(vals, axis=0)).max(axis=1)
    assert jumps.max() < 0.2 * (np.abs(vals).max() + 1.0)


def test_encode_is_nonlinear(rng):
    A, rm = build_rom(rng)
    a = (0.1, 0.2, 0.3)
    b = (0.9, 0.8, 0.7)
    mid = tuple(0.5 * (x + y) for x, y in zip(a, b))
    enc_mid = np.concatenate(encode(rm, mid))
    mid_enc = 0.5 * (np.concatenate(encode(rm, a))
                     + np.concatenate(encode(rm, b)))
    assert np.abs(enc_mid - mid_enc).max() > 1e-8


def test_decode_unequal_ranks_matches_einsum(rng):
    # ranks (2, 4, 3): the decoder contracts mode 1, then 2, then 0, not
    # in mode order
    A, rm = build_rom(rng, dims=(7, 8, 6), h=5,
                      sets=[[1, 5], [0, 2, 4, 7], [0, 3, 5]])
    core = rm.model.core.data
    assert core.shape == (2, 4, 3, 5)
    for alphas in [(0.1, 0.9, 0.35), (0.77, 0.05, 0.6), (0.0, 1.0, 0.5)]:
        vecs = encode(rm, alphas)
        want = np.einsum("i,j,k,ijkh->h", *vecs, core)
        got = decode(rm, vecs)
        assert got.shape == (5,)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        assert np.array_equal(rom_eval(rm, alphas), got)


def test_decode_checks_the_reduced_vectors(rng):
    A, rm = build_rom(rng)
    vecs = encode(rm, (0.2, 0.4, 0.6))
    with pytest.raises(ValueError, match="wrong number"):
        decode(rm, vecs[:2])
    with pytest.raises(ValueError, match="wrong number"):
        decode(rm, vecs + [vecs[0]])
    for bad in (vecs[1][:-1], np.append(vecs[1], 0.0), vecs[1][None, :],
                1.0):
        with pytest.raises(ValueError, match="length mismatch"):
            decode(rm, [vecs[0], bad, vecs[2]])


# --- reuse across resolutions ----------------------------------------------

def test_reuse_identity_when_same_oracle(rng):
    params = {"rank": 2, "rho": 0.5, "n_noise": 4}
    spec = FamilySpec("lowrank_plus_decay", (8, 7, 6), 8, seed=3,
                      params=params)
    c = CachedOracle(make_oracle(spec))
    cfg = AbcConfig(n_iter=3, init_aux=[[0, 4], [1, 5], [2, 3]], seed=6)
    model, _ = tucker_abc(c, cfg)
    rm = rom_from_parts(model, param_grids(spec), ["hat"] * 3)
    same = CachedOracle(make_oracle(spec))
    rm2 = reuse_factors(rm, same)
    assert np.array_equal(rm2.model.core.data, rm.model.core.data)
    assert same.count == np.prod([len(I) for I in model.index_sets])
    for F1, F2 in zip(rm.model.factors, rm2.model.factors):
        assert np.array_equal(F1, F2)


def test_reuse_dims_mismatch(rng):
    A, rm = build_rom(rng)
    other = EntryOracle((3, 3, 3), rm.ip, lambda idx: np.zeros(rm.ip.h))
    with pytest.raises(ValueError):
        reuse_factors(rm, CachedOracle(other))


# --- persistence -------------------------------------------------------------

def test_model_roundtrip_bit_exact(tmp_path, rng):
    spec = FamilySpec("gaussian_bump", (6, 6, 5), 16, seed=2)
    c = CachedOracle(make_oracle(spec))
    cfg = AbcConfig(n_iter=2, init_aux=[[0, 3], [1, 4], [2, 3]], seed=8)
    model, _ = tucker_abc(c, cfg)
    rm = rom_from_parts(model, param_grids(spec), ["hat", "hat", "lagrange"])
    path = str(tmp_path / "model.json")
    save_model(rm, path)
    back = load_model(path)
    assert back.model.index_sets == rm.model.index_sets
    assert back.model.core.data.tobytes() == rm.model.core.data.tobytes()
    for F1, F2 in zip(rm.model.factors, back.model.factors):
        assert F1.tobytes() == F2.tobytes()
    for b1, b2 in zip(rm.bases, back.bases):
        assert b1.nodes.tobytes() == b2.nodes.tobytes()
    # evaluation after the round trip is bitwise identical
    q = (0.13, -0.02, 0.05)
    assert rom_eval(back, q).tobytes() == rom_eval(rm, q).tobytes()
    # and exact at a sampled subgrid node
    I = rm.model.index_sets
    node = tuple(rm.bases[k].nodes[I[k][0]] for k in range(3))
    assert np.array_equal(rom_eval(back, node), rm.model.core.data[0, 0, 0])
    # the folded R factors are not saved, so a loaded model cannot be
    # grown incrementally
    assert back.model.r_factors is None and back.model.fiber_sets is None
    with pytest.raises(ValueError):
        tucker_cross(c, I, prev=back.model)
