"""Adaptive cross sampling of function-valued tensors.

Grows one index per mode per iteration: a start column is drawn (uniform,
round-robin, or leverage-score weighted), refined by rook pivoting on a
lazily evaluated residual row matrix restricted to auxiliary index sets,
and the Tucker-cross model is rebuilt from the enlarged sets.  The
residual matrices are never materialized beyond the scanned entries.
"""

from dataclasses import dataclass, field
from itertools import product
from math import ceil, gcd

import numpy as np

from .bmatrix import BMatrix, DEFAULT_TOL, _canonical_index_set, _sigma_v
from .btensor import model_gather, tucker_cross, tucker_rank


@dataclass
class AbcConfig:
    """Knobs of the adaptive run.

    ``init_aux`` holds one non-empty auxiliary index set per mode.  The
    early-stop tolerance is relative to the largest core-entry norm and
    is disabled at 0, which keeps the fixed-iteration semantics exact.
    """

    n_iter: int
    init_aux: list
    n_rook: int = 1
    draw: str = "uniform"
    seed: int = 0
    tol_rel: float = DEFAULT_TOL
    early_stop_tol: float = 0.0

    def validate(self, dims):
        """Check the knobs; return the sorted, deduplicated ``init_aux``."""
        if self.n_iter < 1:
            raise ValueError("n_iter must be at least 1")
        if self.n_rook < 0:
            raise ValueError("n_rook must be nonnegative")
        if self.draw not in ("uniform", "round_robin", "leverage"):
            raise ValueError(f"unknown draw rule {self.draw!r}")
        if len(self.init_aux) != len(dims):
            raise ValueError("need one auxiliary index set per mode")
        return [_canonical_index_set(aux, n, f"mode-{k} auxiliary")
                for k, (aux, n) in enumerate(zip(self.init_aux, dims))]


@dataclass
class AbcReport:
    """What the adaptive run did, iteration by iteration."""

    index_sets: tuple
    aux_sets: tuple
    rank_history: list = field(default_factory=list)
    evals_by_iter: list = field(default_factory=list)
    index_set_history: list = field(default_factory=list)
    max_residual_by_iter: list = field(default_factory=list)
    converged: bool = False
    n_iter_run: int = 0


class _ResidualRowView:
    """Residual row matrix over the auxiliary sets, one mode at a time.

    Rows are big-endian combinations of the other modes' auxiliary sets,
    columns the full mode-``k`` range.  Entries are evaluated on demand:
    the tensor side goes through the cache, the model side through factor
    contractions.  The largest entry norm seen so far is tracked for the
    early-stopping test.
    """

    def __init__(self, cached, model, aux, k):
        self.cached = cached
        self.model = model
        self.aux = aux
        self.k = k
        other = [len(a) for l, a in enumerate(aux) if l != k]
        self.shape = (int(np.prod(other, dtype=np.int64)), cached.dims[k])
        self.max_seen = 0.0

    def _sq_norms(self, grids):
        """Squared residual entry H-norms on a product grid, grid-shaped."""
        vals = self.cached.gather(grids)
        if self.model is not None:
            vals = vals - model_gather(self.model, grids)
        # flat, because a dense-Gram product over a grid with a length-1
        # axis takes another BLAS path and can change the last bits
        flat = vals.reshape(-1, vals.shape[-1])
        sq = self.cached.ip.pair(flat, flat)
        if sq.size:
            self.max_seen = max(self.max_seen, float(np.sqrt(max(sq.max(), 0.0))))
        return sq.reshape(vals.shape[:-1])

    def col_norms(self, j):
        return _norms(self._sq_norms(
            [[int(j)] if l == self.k else a for l, a in enumerate(self.aux)]))

    def row_norms(self, i):
        return _norms(self._sq_norms(
            _fiber_grids(self.cached.dims, self.aux, self.k, i)))

    def all_col_norms(self):
        dims = self.cached.dims
        sq = self._sq_norms([np.arange(n) if l == self.k else self.aux[l]
                             for l, n in enumerate(dims)])
        axes = tuple(l for l in range(len(dims)) if l != self.k)
        return _norms(np.sum(sq, axis=axes))


def _norms(sq):
    """Flat norms from squared norms; round-off negatives become 0."""
    return np.sqrt(np.maximum(sq, 0.0)).reshape(-1)


def _fiber_grids(dims, aux, k, c):
    """Grids of the mode-``k`` fiber at big-endian position ``c`` among
    the combinations of the other modes' auxiliary indices."""
    other = [len(aux[l]) for l in range(len(dims)) if l != k]
    combo = iter(np.unravel_index(int(c), other))
    return [np.arange(n) if l == k else [aux[l][next(combo)]]
            for l, n in enumerate(dims)]


def rook_pivot(view, j_start, n_rook):
    """Alternating argmax scans locating a large row/column crossing.

    Starting from column ``j_start``, each round finds the largest entry
    of the current column, then the largest entry of that row; ties go to
    the smallest index.  With ``n_rook = 0`` no entry is inspected and
    ``(None, j_start)`` is returned.
    """
    m, n = view.shape
    if m == 0 or n == 0:
        raise ValueError("cannot pivot on an empty matrix")
    j = int(j_start)
    if not 0 <= j < n:
        raise IndexError(f"start column {j} out of range")
    i = None
    for _ in range(int(n_rook)):
        i = int(np.argmax(view.col_norms(j)))
        j = int(np.argmax(view.row_norms(i)))
    return i, j


def _round_robin_stride(n):
    for s in range(ceil(n / 2), 0, -1):
        if gcd(s, n) == 1:
            return s
    return 1


def draw(rule, n_k, rng, iteration=None, scores=None):
    """Draw a start column index in ``[0, n_k)`` under the given rule."""
    if n_k < 1:
        raise ValueError("mode size must be positive")
    if rule == "uniform":
        return int(rng.integers(n_k))
    if rule == "round_robin":
        if iteration is None or iteration < 1:
            raise ValueError("round_robin needs a 1-based iteration number")
        return ((iteration - 1) * _round_robin_stride(n_k)) % n_k
    if rule == "leverage":
        p = np.asarray(scores, dtype=float)
        if p.shape != (n_k,) or np.any(p < 0.0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("leverage scores must form a probability vector")
        return int(rng.choice(n_k, p=p))
    raise ValueError(f"unknown draw rule {rule!r}")


def leverage_scores(slab, tol_rel=DEFAULT_TOL):
    """Sampling distribution from the right singular vectors of a slab.

    ``slab`` collects sampled mode-``k`` fibers as the rows of a
    function-valued matrix with ``n_k`` columns; the scores are the
    squared row norms of the right singular factor, divided by the rank.
    """
    sigma, V = _sigma_v(slab, tol_rel)
    if sigma.size == 0:
        raise ValueError("cannot compute leverage scores of a zero slab")
    p = np.sum(V**2, axis=1) / sigma.size
    return p / p.sum()


def _estimate_leverage(cached, aux, rng, tol_rel):
    """Approximate per-mode leverage scores from random fiber samples.

    For mode ``k``, ``len(aux[k])`` full mode-``k`` fibers are drawn from
    the combinations of the other modes' auxiliary indices, so every
    sample lies in cross(``aux``).
    """
    dims = cached.dims
    d = len(dims)
    scores = []
    for k in range(d):
        other = tuple(len(aux[l]) for l in range(d) if l != k)
        n_other = int(np.prod(other, dtype=np.int64))
        ncols = min(len(aux[k]), n_other)
        cols = np.sort(rng.choice(n_other, size=ncols, replace=False))
        rows = [cached.gather(_fiber_grids(dims, aux, k, c)) for c in cols]
        slab = BMatrix(np.stack(rows).reshape(ncols, dims[k], cached.ip.h),
                       cached.ip)
        scores.append(leverage_scores(slab, tol_rel))
    return scores


def tucker_abc(cached, cfg):
    """Adaptive Tucker-cross approximation from sparse entry samples.

    Runs ``cfg.n_iter`` sweeps; in each sweep every mode receives one new
    index found by rook pivoting on the residual restricted to the
    auxiliary sets, and the Tucker-cross model is rebuilt at the enlarged
    index sets.  Returns the final model and a report with per-iteration
    ranks, budgets, and index-set snapshots.

    If a pivot lands on an index already in the set, a fresh start column
    is drawn up to five times; failing that, the unused column with the
    largest residual norm over the auxiliary rows is taken, and a mode
    with every column used is skipped for the sweep.

    Sampling footprint.  Let cross(S) be the multi-indices that lie in the
    sets ``S[l]`` in all modes but at most one; it has
    ``prod(s_l) + sum_k (n_k - s_k) * prod_{l != k} s_l`` entries.

    - The final model is :func:`tucker_cross` at ``report.index_sets``,
      which reads all of cross(index_sets).
    - Every chosen index joins its mode's auxiliary set, and the rook
      scans and the fallback read only fibers whose other indices lie in
      the auxiliary sets.
    - The ``leverage`` rule also reads ``len(init_aux[k])`` full mode-``k``
      fibers per mode to estimate its scores, drawn at random from the
      combinations of the other modes' initial auxiliary indices.
    - So under every draw rule each evaluation lies in
      cross(``report.aux_sets``).
    """
    dims = cached.dims
    d = len(dims)
    aux = cfg.validate(dims)
    rng = np.random.default_rng(cfg.seed)
    sets = [[] for _ in range(d)]
    model = None

    scores = None
    if cfg.draw == "leverage":
        scores = _estimate_leverage(cached, aux, rng, cfg.tol_rel)

    report = AbcReport(index_sets=(), aux_sets=())
    for s in range(1, cfg.n_iter + 1):
        sweep_max = 0.0
        scanned = False
        for k in range(d):
            used = set(sets[k])
            if len(used) == dims[k]:
                continue
            view = _ResidualRowView(cached, model, aux, k)
            chosen = None
            for _ in range(6):
                j = draw(cfg.draw, dims[k], rng, iteration=s,
                         scores=None if scores is None else scores[k])
                if cfg.n_rook > 0:
                    _, j = rook_pivot(view, j, cfg.n_rook)
                    scanned = True
                if j not in used:
                    chosen = j
                    break
            if chosen is None:
                norms = view.all_col_norms()
                scanned = True
                norms[sorted(used)] = -1.0
                chosen = int(np.argmax(norms))
            sets[k] = sorted(used | {chosen})
            if chosen not in aux[k]:
                aux[k] = sorted(aux[k] + [chosen])
            sweep_max = max(sweep_max, view.max_seen)

        model = tucker_cross(cached, sets, cfg.tol_rel)
        report.rank_history.append(tucker_rank(model.core, cfg.tol_rel))
        report.evals_by_iter.append(cached.count)
        report.index_set_history.append(tuple(tuple(I) for I in sets))
        report.max_residual_by_iter.append(sweep_max)
        report.n_iter_run = s

        if cfg.early_stop_tol > 0.0 and scanned:
            core_scale = float(np.max(cached.ip.norms(model.core.data)))
            if sweep_max <= cfg.early_stop_tol * core_scale:
                report.converged = True
                break

    report.index_sets = tuple(tuple(I) for I in sets)
    report.aux_sets = tuple(tuple(a) for a in aux)
    return model, report
