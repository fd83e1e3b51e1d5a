import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvtensor.btensor import BTensor, hosvd, hosvd_error_bound, tucker_rank
from fvtensor.cli import main
from fvtensor.fvt import (
    BadMagic,
    BadVersion,
    FvtError,
    NonFiniteEntry,
    NonSPDGram,
    TruncatedFile,
    load_fvt,
    read_dims,
    save_fvt,
)
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec, make_oracle, make_tensor, param_grids

from conftest import GRAM_KINDS, make_ip


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("mystery", (3, 3), 2)
    with pytest.raises(ValueError):
        FamilySpec("separable", (0, 3), 2)
    with pytest.raises(ValueError):
        FamilySpec("gaussian_bump", (3, 3), 4)  # needs three modes
    # a fractional or textual size is refused, not truncated or parsed,
    # and a bool is not a size
    for bad in (2.9, "2", True, np.True_):
        with pytest.raises(ValueError,
                           match=f"dims must be integers, got {bad!r}"):
            FamilySpec("separable", (bad, 3, 3), 4)
    assert FamilySpec("separable", (np.int64(2), 3, 3), 4).dims == (2, 3, 3)
    # so are a fractional, textual or bool h or seed, which numpy would
    # reject late or truncate, and a negative seed
    for bad in (2.5, 2.0, "3", True, np.True_):
        with pytest.raises(ValueError,
                           match=f"h must be an integer, got {bad!r}"):
            FamilySpec("separable", (3, 3, 3), bad)
    for bad in (1.5, 1.0, "1", None, True, np.True_, -1):
        with pytest.raises(ValueError,
                           match=f"seed must be an integer, got {bad!r}"):
            FamilySpec("separable", (3, 3, 3), 4, seed=bad)
    spec = FamilySpec("separable", (3, 3, 3), np.int64(4), seed=np.int64(1))
    assert (spec.h, spec.seed) == (4, 1)
    assert type(spec.h) is int and type(spec.seed) is int
    # a params key its family does not read would otherwise be ignored
    for family, key in (("gaussian_bump", "smoothing"), ("separable", "rnak"),
                        ("separable", "rho")):
        with pytest.raises(ValueError, match=repr(key)):
            FamilySpec(family, (3, 3, 3), 4, params={key: 0.5})
    # amplitude parameters are read when the family is made
    for family, params, match in (
            ("separable", {"rank": 0}, "rank"),
            ("lowrank_plus_decay", {"rank": 0}, "rank"),
            ("lowrank_plus_decay", {"rho": 0.0}, "rho"),
            ("lowrank_plus_decay", {"rho": 1.0}, "rho"),
            ("lowrank_plus_decay", {"n_noise": -1}, "n_noise"),
            # a fractional or textual value is refused, not truncated or
            # parsed
            ("separable", {"rank": 2.5}, "rank must be an integer, got 2.5"),
            ("lowrank_plus_decay", {"rank": "3"},
             "rank must be an integer, got '3'"),
            ("lowrank_plus_decay", {"n_noise": 1.5},
             "n_noise must be an integer, got 1.5"),
            ("lowrank_plus_decay", {"rho": "0.5"}, "rho .* got '0.5'")):
        spec = FamilySpec(family, (3, 3, 3), 4, params=params)
        for make in (make_oracle, make_tensor):
            with pytest.raises(ValueError, match=match):
                make(spec)
    # numpy scalars are integers and reals, and make the same family
    plain = {"rank": 2, "n_noise": 1, "rho": 0.25}
    tensors = [make_tensor(FamilySpec("lowrank_plus_decay", (3, 3, 3), 4,
                                      params=p))
               for p in (plain, {"rank": np.int64(2), "n_noise": np.int32(1),
                                 "rho": np.float64(0.25)})]
    assert np.array_equal(tensors[0].data, tensors[1].data)


def test_separable_rank_one():
    spec = FamilySpec("separable", (6, 5, 7), 4, seed=1, params={"rank": 1})
    A = make_tensor(spec)
    assert tucker_rank(A) == (1, 1, 1)


def test_separable_rank_two_generic():
    spec = FamilySpec("separable", (8, 8, 8), 5, seed=2, params={"rank": 2})
    A = make_tensor(spec)
    assert tucker_rank(A) == (2, 2, 2)


def test_oracle_matches_dense_and_is_pure():
    # gaussian_bump at a square h (2-D spatial grid) and a non-square h (1-D)
    for family, h in (("separable", 5), ("lowrank_plus_decay", 3),
                      ("gaussian_bump", 16), ("gaussian_bump", 7)):
        spec = FamilySpec(family, (5, 6, 4), h, seed=5)
        A = make_tensor(spec)
        oracle = make_oracle(spec)
        assert oracle.ip.kind == A.ip.kind
        for idx in np.ndindex(*spec.dims):
            v = oracle.fn(idx)
            assert np.array_equal(v, A.data[idx]), (family, h, idx)
            assert np.array_equal(oracle.fn(idx), v)
        # same seed, fresh objects: identical
        again = make_oracle(FamilySpec(family, (5, 6, 4), h, seed=5))
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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(1, 6),
       st.sampled_from(GRAM_KINDS), st.integers(0, 2**32 - 1))
def test_fvt_roundtrip_property(dims, h, kind, seed):
    rng = np.random.default_rng(seed)
    A = BTensor(rng.standard_normal(tuple(dims) + (h,)), make_ip(kind, h, rng))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.fvt"
        save_fvt(A, path)
        B = load_fvt(path)
    assert B.dims == A.dims
    assert B.data.tobytes() == A.data.tobytes()
    assert B.ip == A.ip


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(1, 4),
       st.sampled_from(GRAM_KINDS), st.integers(0, 2**32 - 1), st.data())
def test_fvt_corrupt_header_raises_only_fvt_errors(dims, h, kind, seed, data):
    # 1-3 of the first 64 bytes changed, or the file cut short: the file
    # loads or raises a typed FvtError, never a raw numpy or struct error
    rng = np.random.default_rng(seed)
    A = BTensor(rng.standard_normal(tuple(dims) + (h,)), make_ip(kind, h, rng))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.fvt"
        save_fvt(A, path)
        raw = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            raw = raw[:data.draw(st.integers(0, len(raw) - 1), label="size")]
        else:
            for _ in range(data.draw(st.integers(1, 3), label="mutations")):
                at = data.draw(st.integers(0, min(64, len(raw)) - 1),
                               label="offset")
                raw[at] = data.draw(st.integers(0, 255), label="byte")
        path.write_bytes(bytes(raw))
        try:
            load_fvt(path)
        except FvtError:
            pass


def test_save_fvt_rejects_an_empty_mode(tmp_path, rng):
    # a rank-0 HOSVD has an empty core mode, which load_fvt would refuse
    A = BTensor(rng.standard_normal((3, 4, 5, 2)), InnerProduct.identity(2))
    core = hosvd(A, (0, 2, 2)).decomp.core
    path = tmp_path / "core.fvt"
    with pytest.raises(FvtError, match="positive"):
        save_fvt(core, path)
    assert not path.exists()


def test_fvt_bad_magic(tmp_path, rng):
    A = BTensor(rng.standard_normal((2, 2, 2)), InnerProduct.identity(2))
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_fvt(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fvt_non_finite_entry_named(tmp_path, rng, bad):
    data = rng.standard_normal((3, 4, 2, 3))
    data[1, 3, 0, 2] = bad
    data[2, 0, 1, 0] = bad
    path = tmp_path / "x.fvt"
    save_fvt(BTensor(data, InnerProduct.diagonal([1.0, 2.0, 0.5])), path)
    with pytest.raises(NonFiniteEntry, match=r"entry \(1, 3, 0\)"):
        load_fvt(path)
    assert read_dims(path) == (3, 4, 2)


def test_fvt_read_dims_checks_the_header(tmp_path, rng):
    path = tmp_path / "x.fvt"
    save_fvt(BTensor(rng.standard_normal((2, 5, 3, 4)),
                     InnerProduct.identity(4)), path)
    raw = path.read_bytes()
    assert read_dims(path) == (2, 5, 3)
    path.write_bytes(raw[:20])
    with pytest.raises(TruncatedFile):
        read_dims(path)
    path.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(BadMagic):
        read_dims(path)


def test_fvt_bad_version(tmp_path, rng):
    A = BTensor(rng.standard_normal((2, 2, 2)), InnerProduct.identity(2))
    path = tmp_path / "x.fvt"
    save_fvt(A, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(BadVersion):
        load_fvt(path)


@pytest.mark.parametrize("header, match", [
    (struct.pack("<II", 1, 0), "order must be positive"),
    (struct.pack("<II2QQB", 1, 2, 0, 3, 2, 0), "dims and h must be positive"),
    (struct.pack("<II2QQB", 1, 2, 2, 3, 0, 0), "dims and h must be positive"),
    (struct.pack("<II2QQB", 1, 2, 2, 3, 2, 7), "unknown gram kind 7"),
])
def test_fvt_header_refusals(tmp_path, capsys, header, match):
    path = tmp_path / "x.fvt"
    path.write_bytes(b"FVT1" + header)
    with pytest.raises(FvtError, match=match):
        load_fvt(path)
    assert main(["info", "--input", str(path)]) == 2
    assert match in capsys.readouterr().err


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
    # dims (2^62, 4): the int64 entry count wraps to 0, the exact one does not
    path.write_bytes(b"FVT1" + struct.pack("<II2QQB", 1, 2, 2**62, 4, 2, 0))
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
