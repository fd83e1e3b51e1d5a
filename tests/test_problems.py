import numpy as np
import pytest

from fvtensor.btensor import BTensor, fro_norm, hosvd, hosvd_error_bound, tucker_rank
from fvtensor.fvt import BadMagic, BadVersion, NonSPDGram, TruncatedFile, load_fvt, save_fvt
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec, make_oracle, make_tensor, param_grids


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("mystery", (3, 3), 2)
    with pytest.raises(ValueError):
        FamilySpec("separable", (0, 3), 2)
    with pytest.raises(ValueError):
        FamilySpec("gaussian_bump", (3, 3), 4)  # needs three modes


def test_separable_rank_one():
    spec = FamilySpec("separable", (6, 5, 7), 4, seed=1, params={"rank": 1})
    A = make_tensor(spec)
    assert tucker_rank(A) == (1, 1, 1)


def test_separable_rank_two_generic():
    spec = FamilySpec("separable", (8, 8, 8), 5, seed=2, params={"rank": 2})
    A = make_tensor(spec)
    assert tucker_rank(A) == (2, 2, 2)


def test_oracle_matches_dense_and_is_pure():
    spec = FamilySpec("lowrank_plus_decay", (5, 6, 4), 3, seed=5)
    A = make_tensor(spec)
    oracle = make_oracle(spec)
    rng = np.random.default_rng(0)
    for _ in range(20):
        idx = tuple(int(rng.integers(n)) for n in spec.dims)
        v1 = oracle.fn(idx)
        v2 = oracle.fn(idx)
        assert np.array_equal(v1, v2)
        assert np.allclose(v1, A.data[idx], atol=1e-12)
    # same seed, fresh objects: identical
    again = make_oracle(FamilySpec("lowrank_plus_decay", (5, 6, 4), 3, seed=5))
    assert np.array_equal(again.fn((1, 2, 3)), oracle.fn((1, 2, 3)))


def test_two_resolution_consistency():
    # same seed and dims at two h: space vectors sample one analytic family
    base = dict(family="separable", dims=(6, 5, 4), seed=7,
                params={"rank": 2})
    A16 = make_tensor(FamilySpec(h=16, **base))
    A64 = make_tensor(FamilySpec(h=64, **base))
    # coefficients at matching grid points agree (the coarse grid is not
    # nested in the fine one, but the endpoints are shared)
    assert np.allclose(A16.data[..., 0], A64.data[..., 0], atol=1e-12)
    assert np.allclose(A16.data[..., -1], A64.data[..., -1], atol=1e-12)
    assert tucker_rank(A16) == tucker_rank(A64)


def test_gaussian_bump_mode_swap_symmetry():
    # one gamma slice, square spatial grid: swapping the two center
    # parameters transposes the spatial field
    spec = FamilySpec("gaussian_bump", (8, 8, 1), 16, seed=0)
    A = make_tensor(spec)
    side = 4
    cube = A.data.reshape(8, 8, 1, side, side)
    swapped = np.transpose(cube, (1, 0, 2, 4, 3))
    assert np.allclose(cube, swapped, atol=1e-12)


def test_gaussian_bump_grids_and_gram():
    spec = FamilySpec("gaussian_bump", (5, 6, 7), 16, seed=0)
    grids = param_grids(spec)
    assert grids[0][0] == -0.8 and grids[0][-1] == 0.8
    assert grids[2][0] == 0.001 and grids[2][-1] == 0.1
    A = make_tensor(spec)
    assert A.ip.kind == "diagonal"
    assert np.all(A.ip.weights > 0)


def test_gaussian_bump_spectra_decay_regression():
    # desk-scale regression: strongly decaying per-mode spectra
    spec = FamilySpec("gaussian_bump", (20, 20, 20), 64, seed=0)
    A = make_tensor(spec)
    res = hosvd(A)
    tail = hosvd_error_bound(res.sigmas, (10, 10, 6))
    assert res.sigmas[0][0] / max(tail, 1e-300) > 100.0


def test_fvt_roundtrip_bitwise(tmp_path, rng):
    for kind in ("identity", "diagonal", "dense"):
        if kind == "identity":
            ip = InnerProduct.identity(3)
        elif kind == "diagonal":
            ip = InnerProduct.diagonal(0.5 + rng.random(3))
        else:
            M = rng.standard_normal((3, 3))
            ip = InnerProduct.dense((M @ M.T + 3 * np.eye(3)) / 3)
        A = BTensor(rng.standard_normal((4, 3, 2, 3)), ip)
        path = tmp_path / f"{kind}.fvt"
        save_fvt(A, path)
        B = load_fvt(path)
        assert B.data.tobytes() == A.data.tobytes()
        assert B.ip.kind == kind
        if kind == "diagonal":
            assert np.array_equal(B.ip.weights, ip.weights)
        if kind == "dense":
            assert np.array_equal(B.ip.gram, ip.gram)
        # second save is byte-identical
        path2 = tmp_path / f"{kind}2.fvt"
        save_fvt(B, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_fvt_bad_magic(tmp_path, rng):
    A = BTensor(rng.standard_normal((2, 2, 2)), InnerProduct.identity(2))
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_fvt(path)


def test_fvt_bad_version(tmp_path, rng):
    A = BTensor(rng.standard_normal((2, 2, 2)), InnerProduct.identity(2))
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersion):
        load_fvt(path)


def test_fvt_truncated(tmp_path, rng):
    A = BTensor(rng.standard_normal((2, 3, 2)), InnerProduct.identity(2))
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedFile):
        load_fvt(path)
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(TruncatedFile):
        load_fvt(path)


def test_fvt_non_spd_gram(tmp_path, rng):
    ip = InnerProduct.dense([[2.0, 0.5], [0.5, 2.0]])
    A = BTensor(rng.standard_normal((2, 2, 2)), ip)
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = bytearray(path.read_bytes())
    # overwrite the gram payload with an indefinite matrix
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype="<f8").tobytes()
    header = 4 + 8 + 8 * 2 + 8 + 1
    raw[header:header + len(bad)] = bad
    path.write_bytes(bytes(raw))
    with pytest.raises(NonSPDGram):
        load_fvt(path)
