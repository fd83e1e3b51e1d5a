"""Memory of the dense passes: none holds a temporary the size of the tensor.

Each pass over a dense function-valued tensor reads it in slabs, so the
peak it allocates above its start (``tracemalloc``, which sees numpy's
buffers) stays below a quarter of the tensor's bytes.  The tensor is a
low-Tucker-rank ``separable`` 30^3 family over R^64 (13.8 MB), under a
diagonal and a dense Gram, so the whitening is never the identity.
``hosvd`` is held to a tighter bound on tensors whose Tucker ranks are a
large share of their dims: its one buffer and the core.
"""

import tracemalloc

import numpy as np
import pytest

from fvtensor.btensor import (
    SLAB,
    BTensor,
    TuckerDecomp,
    assemble,
    error_norm,
    fro_norm,
    hosvd,
)
from fvtensor import cli
from fvtensor.cli import main
from fvtensor.fvt import load_fvt, save_fvt
from fvtensor.hilbert import InnerProduct
from fvtensor.problems import FamilySpec

from conftest import tensor_under

SHARE = 0.25  # of the tensor's bytes: the most a pass may allocate


@pytest.fixture(scope="module", params=["diagonal", "dense"])
def tensor(request):
    return tensor_under(FamilySpec("separable", (30, 30, 30), 64),
                        request.param)


@pytest.fixture
def path(tensor, tmp_path):
    out = tmp_path / "a.fvt"
    save_fvt(tensor, out)
    return str(out)


def peak_above_start(fn):
    """``fn()`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_fvt_writes_the_array_buffer(tensor, tmp_path):
    _, peak = peak_above_start(lambda: save_fvt(tensor, tmp_path / "b.fvt"))
    assert peak < SHARE * tensor.data.nbytes


def test_load_fvt_reads_into_the_returned_array(tensor, path):
    A, peak = peak_above_start(lambda: load_fvt(path))
    assert (A.data == tensor.data).all() and A.ip == tensor.ip
    assert peak - A.data.nbytes < SHARE * A.data.nbytes


@pytest.mark.parametrize("name", ["fro_norm", "hosvd", "error_norm"])
def test_dense_pass_streams_slabs(tensor, name):
    model = hosvd(tensor, (2, 2, 2)).decomp
    run = {"fro_norm": lambda: fro_norm(tensor),
           "hosvd": lambda: hosvd(tensor),
           "error_norm": lambda: error_norm(tensor, model)}[name]
    _, peak = peak_above_start(run)
    assert peak < SHARE * tensor.data.nbytes


def test_hosvd_core_goes_through_one_buffer():
    # Tucker ranks (12, 15, 18) of 30^3, h=64, dense Gram: the core is
    # formed from slabs cut along mode 2 (the largest r/n), through one
    # buffer of n_2 / r_2 times the core; two whole-tensor products would
    # hold 0.4 and 0.2 of the tensor at once
    rng = np.random.default_rng(61)
    h, dims, ranks = 64, (30, 30, 30), (12, 15, 18)
    M = rng.standard_normal((h, h))
    ip = InnerProduct.dense((M @ M.T + h * np.eye(h)) / h)
    core = BTensor(rng.standard_normal(ranks + (h,)), ip)
    A = assemble(TuckerDecomp(core=core, factors=[
        rng.standard_normal((n, r)) for n, r in zip(dims, ranks)]))
    res, peak = peak_above_start(lambda: hosvd(A))
    assert res.ranks == ranks
    core_bytes = res.decomp.core.data.nbytes
    assert peak < core_bytes * (1 + dims[2] / ranks[2]) + 2 * SLAB * 8


def test_hosvd_buffer_keeps_the_last_mode_whole():
    # Tucker ranks (18, 15, 12) of 30^3, h=64, dense Gram: the one buffer
    # holds mode 2 whole beside the ranks of modes 0 and 1, n_2 / r_2 = 2.5
    # times the core, though mode 2 has the smallest r/n; the factor
    # passes of modes 0 and 1 hold slabs only
    rng = np.random.default_rng(71)
    h, dims, ranks = 64, (30, 30, 30), (18, 15, 12)
    M = rng.standard_normal((h, h))
    ip = InnerProduct.dense((M @ M.T + h * np.eye(h)) / h)
    core = BTensor(rng.standard_normal(ranks + (h,)), ip)
    A = assemble(TuckerDecomp(core=core, factors=[
        rng.standard_normal((n, r)) for n, r in zip(dims, ranks)]))
    res, peak = peak_above_start(lambda: hosvd(A))
    assert res.ranks == ranks
    core_bytes = res.decomp.core.data.nbytes
    assert peak < core_bytes * (1 + dims[2] / ranks[2]) + 2 * SLAB * 8


def test_hosvd_of_a_one_way_tensor_copies_nothing():
    # a 1-way tensor has no other mode: its core is one product with the
    # tensor, never a buffer that copies it (the identity Gram whitens
    # nothing, and TSQR reads the 16 x 32768 tensor in 1024-row leaves)
    rng = np.random.default_rng(67)
    A = BTensor(rng.standard_normal((16, 1 << 15)),
                InnerProduct.identity(1 << 15))
    res, peak = peak_above_start(lambda: hosvd(A))
    assert res.ranks == (16,)
    assert peak < res.decomp.core.data.nbytes + SHARE * A.data.nbytes


@pytest.mark.parametrize("kind", ["identity", "diagonal", "dense"])
def test_squared_norms_hold_one_batch(kind):
    # pair(x, x) squares the whitened batch in place when whitening made
    # an array of its own, so it holds one batch-sized array, not two
    rng = np.random.default_rng(73)
    h = 256
    M = rng.standard_normal((h, h))
    ip = {"identity": InnerProduct.identity(h),
          "diagonal": InnerProduct.diagonal(rng.uniform(0.5, 2.0, h)),
          "dense": InnerProduct.dense((M @ M.T + h * np.eye(h)) / h)}[kind]
    x = rng.standard_normal((2000, h))
    before = x.copy()
    sq, peak = peak_above_start(lambda: ip.pair(x, x))
    assert peak <= 1.1 * x.nbytes
    assert np.array_equal(x, before)
    assert sq.tobytes() == np.sum(ip.whiten(x) ** 2, axis=-1).tobytes()


class Stop(Exception):
    pass


def test_compare_keeps_one_copy_of_the_tensor(tensor, path, tmp_path,
                                              monkeypatch):
    out = tmp_path / "c.tsv"
    code, peak = peak_above_start(lambda: main(
        ["compare", "--input", path, "--iters", "4", "--out", str(out)]))
    assert code == 0
    assert peak - tensor.data.nbytes < SHARE * tensor.data.nbytes
    # a (2, 60, 60) tensor under the same Gram, whose mode-0 slices are
    # each half of it: compare whitens it in place, and must not do so one
    # such slice at a time.  The run stops where the sampler is made, so
    # the peak is that of the load and the whitening: the later passes
    # hold a few slabs at once, over a quarter of a tensor seven slabs long
    thin = tensor_under(FamilySpec("separable", (2, 60, 60), 64),
                        tensor.ip.kind)
    save_fvt(thin, tmp_path / "thin.fvt")

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(cli, "CachedOracle", stop)
    _, peak = peak_above_start(lambda: pytest.raises(Stop, main, [
        "compare", "--input", str(tmp_path / "thin.fvt"), "--iters", "4",
        "--out", str(out)]))
    assert peak - thin.data.nbytes < SHARE * thin.data.nbytes
