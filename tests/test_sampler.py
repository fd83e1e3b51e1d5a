import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fvtensor.aca import _ResidualRowView
from fvtensor.btensor import BTensor, assemble, tucker_cross
from fvtensor.hilbert import InnerProduct
from fvtensor.sampler import CachedOracle, EntryOracle

from conftest import fiber_slab


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


BAD_INDEX = {"negative": (0, -1), "past_end": (3, 0), "arity": (0, 1, 2)}
READS = {
    "get": lambda c, bad: c.get(bad),
    "get_many": lambda c, bad: c.get_many([(0, 0), bad, (1, 1)]),
    "gather": lambda c, bad: c.gather([[0, i] for i in bad]),
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("bad", sorted(BAD_INDEX))
def test_get_out_of_range(rng, read, bad):
    _, c = counting_oracle(rng, (3, 4), 2)
    calls = []
    fn = c.oracle.fn
    c.oracle.fn = lambda idx: calls.append(idx) or fn(idx)
    with pytest.raises(IndexError):
        READS[read](c, BAD_INDEX[bad])
    assert calls == [] and c.count == 0


NON_INTEGER = {"float": 0.7, "nan": np.nan, "string": "1"}
# the "bool" case: a read whose every index is a bool, so that numpy keeps
# the bool dtype (mixed with ints, a bool is an int)
MASKS = {
    "get": lambda c: c.get((True, False)),
    "get_many": lambda c: c.get_many([[True, False], [False, True]]),
    "gather": lambda c: c.gather([[True], [False, True]]),
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("bad", [*sorted(NON_INTEGER), "bool"])
def test_non_integer_index_refused(rng, read, bad):
    # a float index is refused, not truncated to an entry it then counts;
    # a string is not parsed, a NaN is not an arity fault, and a bool
    # array is a mask, not the indices 1 and 0
    _, c = counting_oracle(rng, (3, 4), 2)
    calls = []
    fn = c.oracle.fn
    c.oracle.fn = lambda idx: calls.append(idx) or fn(idx)
    with pytest.raises(IndexError, match="indices must be integers"):
        if bad == "bool":
            MASKS[read](c)
        else:
            READS[read](c, (NON_INTEGER[bad], 1))
    assert calls == [] and c.count == 0
    # an empty batch or grid has no index to refuse
    assert c.get_many([]).shape == (0, 2)
    assert c.gather([[], [1]]).shape == (0, 1, 2)
    assert c.count == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_oracle_value_rejected(rng, bad):
    A, c = counting_oracle(rng, (3, 4), 2)
    c.get((0, 0))
    poisoned = A.data.copy()
    poisoned[2, 1, 1] = bad
    c.oracle.fn = lambda idx: poisoned[idx]
    with pytest.raises(ValueError, match=r"\(2, 1\)"):
        c.get_many([(0, 0), (1, 3), (2, 1), (0, 2)])
    # nothing of the batch was cached, and the store still works
    assert c.count == 1
    assert np.array_equal(c.get((1, 3)), A.data[1, 3])


@pytest.mark.parametrize("shape", [(3,), (1, 2), ()])
def test_wrong_shape_oracle_value_rejected(rng, shape):
    _, c = counting_oracle(rng, (3, 4), 2)
    c.oracle.fn = lambda idx: np.ones(shape)
    msg = rf"oracle returned shape {re.escape(str(shape))}, expected \(2,\)"
    with pytest.raises(ValueError, match=msg):
        c.get_many([(0, 0), (1, 3)])
    assert c.count == 0


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


@pytest.mark.parametrize("threads", [0, -3, 2.5, 1.0, "2", None, True,
                                     np.True_])
def test_threads_must_be_a_positive_integer(rng, threads):
    _, c = counting_oracle(rng, (2, 2), 1)
    with pytest.raises(ValueError, match=f"got {threads!r}"):
        CachedOracle(c.oracle, threads=threads)


@pytest.mark.parametrize("bad", [2.7, "2", None, 0, -2, True, np.True_])
def test_entry_oracle_dims_must_be_integers(bad):
    # a fractional size is refused, not truncated to a smaller mode, and
    # so are a size below 1 and a bool
    ip = InnerProduct.identity(1)
    with pytest.raises(ValueError,
                       match=f"dimensions must be integers, got {bad!r}"):
        EntryOracle((bad, 3), ip, None)
    assert EntryOracle((np.int64(2), 3), ip, None).dims == (2, 3)


def test_threads_accepts_numpy_integers(rng):
    _, c = counting_oracle(rng, (2, 2), 1)
    assert CachedOracle(c.oracle, threads=np.int64(3)).threads == 3


def test_get_many_returns_the_cached_bits_in_a_fresh_array(rng):
    # each batch reads back the cached rows in key order, as one writable
    # array that shares no memory with the cache or the tensor
    A, c = counting_oracle(rng, (4, 5), 3)
    batches = [[(0, 1), (2, 3), (1, 1)],          # all miss
               [(2, 3), (0, 1)],                  # all hit
               [(0, 1), (3, 4), (2, 0)],          # mixed
               [(1, 2), (1, 2), (0, 1), (1, 2)],  # duplicates
               []]
    for keys in batches:
        out = c.get_many(keys)
        want = np.array([c.cache[k] for k in keys]).reshape(len(keys), 3)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()
        assert out.flags.writeable and not np.shares_memory(out, A.data)
        out += 1.0
    assert all(np.array_equal(v, A.data[k]) for k, v in c.cache.items())


def test_get_many_returns_the_value_the_cache_kept(rng):
    # a concurrent first read of the same index that commits first keeps
    # its value; this read returns that value, not its own
    A, c = counting_oracle(rng, (3, 4), 2)
    other = np.full(2, 7.0)
    c.oracle.fn = lambda idx: (c.cache.setdefault(idx, other), A.data[idx])[1]
    assert np.array_equal(c.get_many([(1, 2), (0, 3)]), [other, other])
    assert np.array_equal(c.get_many([(1, 2)]), [other])


@st.composite
def grids_on(draw):
    """Dims plus one unsorted index list per mode, repeats allowed."""
    dims = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    grids = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
             for n in dims]
    return dims, grids


@settings(max_examples=60, deadline=None)
@given(grids_on(), st.integers(0, 2**32 - 1))
def test_gather_property(case, seed):
    dims, grids = case
    A, c1 = counting_oracle(np.random.default_rng(seed), dims, 3)
    c4 = CachedOracle(c1.oracle, threads=4)
    want = A.gather(grids)
    got1, got4 = c1.gather(grids), c4.gather(grids)
    assert np.array_equal(got1, want)
    assert got1.tobytes() == got4.tobytes()
    distinct = 1
    for g in grids:
        distinct *= len(set(g))
    assert c1.count == c4.count == distinct
    # a second read is all hits
    assert np.array_equal(c1.gather(grids), want) and c1.count == distinct


def test_residual_row_view_norms(rng):
    A, c = counting_oracle(rng, (5, 4, 6), 3)
    sets = [[0, 2, 4], [0, 1, 3], [1, 2, 5]]
    model = tucker_cross(A, sets)
    resid = A.data - assemble(model).data
    scale = A.ip.norms(A.data.reshape(-1, 3)).max()
    for k in range(3):
        # empty model: the view's norms are the tensor's own fiber norms
        view = _ResidualRowView(c, None, sets, k)
        fibers = fiber_slab(A.data, sets, k)
        assert view.shape == fibers.shape[:2]
        for i in range(view.shape[0]):
            assert np.array_equal(view.row_norms(i), A.ip.norms(fibers[i]))
        for j in range(view.shape[1]):
            assert np.array_equal(view.col_norms(j), A.ip.norms(fibers[:, j]))
        # Tucker-cross model at the same sets: the residual of the assembled
        # model, which vanishes on the core fibers
        view = _ResidualRowView(c, model, sets, k)
        want = A.ip.norms(fiber_slab(resid, sets, k))
        for i in range(view.shape[0]):
            assert np.allclose(view.row_norms(i), want[i], atol=1e-12 * scale)
        for j in sets[k]:
            assert view.col_norms(j).max() <= 1e-9 * scale
