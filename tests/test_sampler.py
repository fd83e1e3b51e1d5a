import numpy as np
import pytest

from fvtensor.aca import _ResidualRowView
from fvtensor.btensor import BTensor, assemble, row_matrix, tucker_cross
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CacheOverflowError, CachedOracle, EntryOracle


def counting_oracle(rng, dims, h):
    ip = InnerProduct.identity(h)
    A = BTensor(rng.standard_normal(tuple(dims) + (h,)), ip)
    return A, CachedOracle(EntryOracle.from_tensor(A))


def test_get_counts_distinct_only(rng):
    A, c = counting_oracle(rng, (3, 4), 2)
    assert c.count == 0
    v1 = c.get((1, 2))
    v2 = c.get((1, 2))
    assert c.count == 1
    assert np.array_equal(v1, v2)
    for i in range(3):
        for j in range(4):
            c.get((i, j))
    assert c.count == 12


def test_get_out_of_range(rng):
    _, c = counting_oracle(rng, (3, 4), 2)
    with pytest.raises(IndexError):
        c.get((3, 0))
    with pytest.raises(IndexError):
        c.get((0, 1, 2))


def test_purity_repeated_gets(rng):
    A, c = counting_oracle(rng, (4, 4, 4), 3)
    idxs = [tuple(int(rng.integers(4)) for _ in range(3)) for _ in range(100)]
    first = {i: c.get(i).tobytes() for i in set(idxs)}
    for i in idxs:
        assert c.get(i).tobytes() == first[i]


def test_gather_matches_tensor(rng):
    A, c = counting_oracle(rng, (4, 5, 3), 2)
    grids = [[0, 2], [1, 4], [0, 1, 2]]
    got = c.gather(grids)
    assert np.array_equal(got, A.data[np.ix_(*grids)])
    assert c.count == 2 * 2 * 3


def test_get_many_threads_identical(rng):
    A, c1 = counting_oracle(rng, (6, 6), 4)
    c4 = CachedOracle(c1.oracle, threads=4)
    idxs = [(i, j) for i in range(6) for j in range(6)]
    out1 = c1.get_many(idxs)
    out4 = c4.get_many(idxs)
    assert np.array_equal(out1, out4)
    assert c1.count == c4.count == 36


def test_overflow_knob(rng):
    A, _ = counting_oracle(rng, (3, 3), 2)
    c = CachedOracle(EntryOracle.from_tensor(A), max_entries=4)
    for t, idx in enumerate([(0, 0), (0, 1), (0, 2), (1, 0)]):
        c.get(idx)
    with pytest.raises(CacheOverflowError):
        c.get((1, 1))


def test_residual_row_view_norms(rng):
    A, c = counting_oracle(rng, (5, 4, 6), 3)
    sets = [[0, 2, 4], [0, 1, 3], [1, 2, 5]]
    model = tucker_cross(A, sets)
    resid = BTensor(A.data - assemble(model).data, A.ip)
    scale = A.ip.norms(A.data.reshape(-1, 3)).max()
    for k in range(3):
        # empty model: the view's norms are the tensor's own fiber norms
        view = _ResidualRowView(c, None, sets, k)
        fibers = row_matrix(A, sets, k).data
        assert view.shape == fibers.shape[:2]
        for i in range(view.shape[0]):
            assert np.array_equal(view.row_norms(i), A.ip.norms(fibers[i]))
        for j in range(view.shape[1]):
            assert np.array_equal(view.col_norms(j), A.ip.norms(fibers[:, j]))
        assert view.max_seen == A.ip.norms(fibers).max()
        # Tucker-cross model at the same sets: the residual of the assembled
        # model, which vanishes on the core fibers
        view = _ResidualRowView(c, model, sets, k)
        want = A.ip.norms(row_matrix(resid, sets, k).data)
        for i in range(view.shape[0]):
            assert np.allclose(view.row_norms(i), want[i], atol=1e-12 * scale)
        cols = np.sqrt(np.sum(want**2, axis=0))
        assert np.allclose(view.all_col_norms(), cols, atol=1e-12 * scale)
        for j in sets[k]:
            assert view.col_norms(j).max() <= 1e-9 * scale
