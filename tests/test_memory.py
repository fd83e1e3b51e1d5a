"""Memory of the dense passes: none holds a temporary the size of the tensor.

Each pass over a dense function-valued tensor reads it in slabs, so the
peak it allocates above its start (``tracemalloc``, which sees numpy's
buffers) stays below a quarter of the tensor's bytes.  The tensor is a
low-Tucker-rank ``separable`` 30^3 family over R^64 (13.8 MB), under a
diagonal and a dense Gram, so the whitening is never the identity.
"""

import tracemalloc

import pytest

from fvtensor.btensor import error_norm, fro_norm, hosvd
from fvtensor.cli import main
from fvtensor.fvt import load_fvt, save_fvt
from fvtensor.problems import FamilySpec, make_tensor

SHARE = 0.25  # of the tensor's bytes: the most a pass may allocate


@pytest.fixture(scope="module", params=["diagonal", "dense"])
def tensor(request):
    return make_tensor(FamilySpec("separable", (30, 30, 30), 64,
                                  gram=request.param))


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


def test_compare_keeps_one_copy_of_the_tensor(tensor, path, tmp_path):
    out = tmp_path / "c.tsv"
    code, peak = peak_above_start(lambda: main(
        ["compare", "--input", path, "--iters", "4", "--out", str(out)]))
    assert code == 0
    assert peak - tensor.data.nbytes < SHARE * tensor.data.nbytes
