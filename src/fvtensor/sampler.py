"""Lazy, cached, counted access to tensor entries.

Expensive parameter-to-solution maps enter the library only as an
index-to-value map.  :class:`EntryOracle` wraps such a map together with
its dimensions and inner product; :class:`CachedOracle` memoizes it and
counts distinct evaluations, which is the sampling budget of every
adaptive run.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bmatrix import _grid_indices, _int_indices, _integer


class EntryOracle:
    """Pure multi-index -> coefficient-vector map with known dims and ip."""

    __slots__ = ("dims", "ip", "fn")

    def __init__(self, dims, ip, fn):
        self.dims = tuple(_integer(n, "dimensions must be integers", 1)
                          for n in dims)
        self.ip = ip
        self.fn = fn

    @classmethod
    def from_tensor(cls, A):
        return cls(A.dims, A.ip, lambda idx: A.data[tuple(idx)])


class CachedOracle:
    """Memoizing wrapper around an :class:`EntryOracle`.

    Every read goes through :meth:`get_many`: the batch is checked as one
    integer array, its missing entries are evaluated (in parallel when
    ``threads > 1``), checked for shape and finiteness, and committed
    under one lock acquisition before anything is returned.  ``count``
    equals the number of distinct multi-indices ever evaluated.
    Concurrent first evaluations of the same index are permitted; the
    cache keeps a single winner, so repeated reads are bitwise identical.
    A ``threads`` that is not an integer of at least 1 is a ``ValueError``.
    """

    def __init__(self, oracle, threads=1):
        self.threads = _integer(threads, "threads must be an integer", 1)
        self.oracle = oracle
        self.cache = {}
        self._lock = threading.Lock()

    @property
    def dims(self):
        return self.oracle.dims

    @property
    def d(self):
        return len(self.oracle.dims)

    @property
    def ip(self):
        return self.oracle.ip

    @property
    def count(self):
        return len(self.cache)

    def get(self, idx):
        # no library caller; perfbench/spans.py wraps it by name, so keep it
        return self.get_many([idx])[0]

    def get_many(self, indices):
        """Fetch a batch of entries as an ``(len(indices), h)`` array.

        Missing entries are evaluated, in parallel when ``threads > 1``;
        the output ordering follows the input regardless of schedule.  A
        wrong-arity index raises ``IndexError`` before any evaluation,
        and so does a non-integer or out-of-range one: the batch's
        columns are checked by :func:`~fvtensor.bmatrix._grid_indices`,
        which refuses a bool batch (a mask, not indices).  A non-finite
        value raises ``ValueError`` before any caching.
        """
        try:
            idx = _int_indices(indices).reshape(len(indices), self.d)
        except ValueError:
            raise IndexError(f"expected {self.d} indices per entry") from None
        _grid_indices(idx.T, self.dims)
        # Python-int keys: the oracle gets an int tuple, and no key
        # overflows however large prod(dims) is
        keys = list(map(tuple, idx.tolist()))
        missing = [k for k in dict.fromkeys(keys) if k not in self.cache]
        if missing:
            if self.threads > 1 and len(missing) > 1:
                with ThreadPoolExecutor(max_workers=self.threads) as pool:
                    values = list(pool.map(self.oracle.fn, missing))
            else:
                values = list(map(self.oracle.fn, missing))
            vals = np.array(values, dtype=float)
            if vals.shape != (len(missing), self.ip.h):
                raise ValueError(f"oracle returned shape {vals.shape[1:]}, "
                                 f"expected ({self.ip.h},)")
            bad = np.flatnonzero(~np.all(np.isfinite(vals), axis=1))
            if bad.size:
                raise ValueError(
                    f"oracle returned a non-finite value at {missing[bad[0]]}")
            # cache the oracle's own arrays, not rows of the checked copy:
            # for EntryOracle.from_tensor they are views of the tensor, and
            # copies would add 12,007 x 144 x 8 B = 13.8 MB to fvt compare
            # on a 40^3, h=144 tensor
            with self._lock:
                for k, v in zip(missing, values):
                    v = np.asarray(v, dtype=float)
                    v.flags.writeable = False
                    self.cache.setdefault(k, v)
        if not keys:
            return np.empty((0, self.ip.h))
        out = np.concatenate([self.cache[k] for k in keys])
        return out.reshape(len(keys), self.ip.h)

    def gather(self, grids):
        """Subtensor on a product grid, shaped like the grid plus ``(h,)``."""
        arrs = _grid_indices(grids, self.dims)
        flat = np.stack(np.meshgrid(*arrs, indexing="ij"), axis=-1)
        vals = self.get_many(flat.reshape(-1, self.d))
        return vals.reshape(tuple(len(a) for a in arrs) + (self.ip.h,))
