"""Lazy, cached, counted access to tensor entries.

Expensive parameter-to-solution maps enter the library only as an
index-to-value map.  :class:`EntryOracle` wraps such a map together with
its dimensions and inner product; :class:`CachedOracle` memoizes it and
counts distinct evaluations, which is the sampling budget of every
adaptive run.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np


class EntryOracle:
    """Pure multi-index -> coefficient-vector map with known dims and ip."""

    __slots__ = ("dims", "ip", "fn")

    def __init__(self, dims, ip, fn):
        self.dims = tuple(int(n) for n in dims)
        if any(n < 1 for n in self.dims):
            raise ValueError("all dimensions must be positive")
        self.ip = ip
        self.fn = fn

    @property
    def d(self):
        return len(self.dims)

    @classmethod
    def from_tensor(cls, A):
        return cls(A.dims, A.ip, lambda idx: A.data[tuple(idx)])


class CacheOverflowError(RuntimeError):
    """Raised when a bounded cache would exceed its entry budget."""


class CachedOracle:
    """Memoizing wrapper around an :class:`EntryOracle`.

    ``count`` equals the number of distinct multi-indices ever evaluated.
    Concurrent first evaluations of the same index are permitted; the
    cache keeps a single winner, so repeated reads are bitwise identical.
    An optional ``max_entries`` bound never evicts -- it raises, to make
    runaway sampling loud instead of silently corrupting the budget.
    """

    def __init__(self, oracle, max_entries=None, threads=1):
        self.oracle = oracle
        self.cache = {}
        self.max_entries = max_entries
        self.threads = max(1, int(threads))
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

    def _check_idx(self, idx):
        idx = tuple(int(i) for i in idx)
        if len(idx) != self.d:
            raise IndexError(f"expected {self.d} indices, got {len(idx)}")
        for i, n in zip(idx, self.dims):
            if not 0 <= i < n:
                raise IndexError(f"index {idx} out of range for dims {self.dims}")
        return idx

    def _store(self, idx, value):
        value = np.asarray(value, dtype=float)
        if value.shape != (self.ip.h,):
            raise ValueError(
                f"oracle returned shape {value.shape}, expected ({self.ip.h},)"
            )
        value.flags.writeable = False
        with self._lock:
            winner = self.cache.setdefault(idx, value)
            if self.max_entries is not None and len(self.cache) > self.max_entries:
                raise CacheOverflowError(
                    f"cache exceeded {self.max_entries} entries"
                )
        return winner

    def get(self, idx):
        # no library caller; perfbench/spans.py wraps it by name, so keep it
        idx = self._check_idx(idx)
        hit = self.cache.get(idx)
        if hit is not None:
            return hit
        return self._store(idx, self.oracle.fn(idx))

    def get_many(self, indices):
        """Fetch a batch of entries as an ``(len(indices), h)`` array.

        Missing entries are evaluated, in parallel when ``threads > 1``;
        the output ordering follows the input regardless of schedule.
        """
        idxs = [self._check_idx(i) for i in indices]
        missing = []
        seen = set()
        for i in idxs:
            if i not in self.cache and i not in seen:
                seen.add(i)
                missing.append(i)
        if missing:
            if self.threads > 1 and len(missing) > 1:
                with ThreadPoolExecutor(max_workers=self.threads) as pool:
                    values = list(pool.map(self.oracle.fn, missing))
            else:
                values = [self.oracle.fn(i) for i in missing]
            for i, v in zip(missing, values):
                self._store(i, v)
        out = np.empty((len(idxs), self.ip.h))
        for t, i in enumerate(idxs):
            out[t] = self.cache[i]
        return out

    def gather(self, grids):
        """Subtensor on a product grid, shaped like the grid plus ``(h,)``."""
        arrs = [np.asarray(g, dtype=int).reshape(-1) for g in grids]
        if len(arrs) != self.d:
            raise IndexError("need one index list per mode")
        flat = list(product(*[a.tolist() for a in arrs]))
        vals = self.get_many(flat)
        return vals.reshape(tuple(len(a) for a in arrs) + (self.ip.h,))

