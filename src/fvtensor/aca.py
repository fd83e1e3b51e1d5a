"""Adaptive cross sampling of function-valued tensors.

Grows one index per sweep in each mode that is not saturated: one start
column is drawn uniformly at random and refined by rook pivoting on a
lazily evaluated residual row matrix.  Its rows run, in each other mode,
through the indices the model's fibers run through, joined to the index
that mode gained earlier in the sweep or, if it gained none, to its
initial auxiliary indices and the witnesses drawn for it.  Every fiber a
scan reads is a mode-k fiber, so it is folded into that mode's
triangular factor ``R``, whose rows are then the fiber slab and every
scanned fiber.  A mode is saturated when its chosen columns carry the
rank of that ``R``; otherwise it gains the column of ``R`` which adds the
most rank, or the rook's column when that adds nearly as much (one step
of column-pivoted QR, as in Q-DEIM).  A sweep in which no mode grows
draws one fresh auxiliary index, a witness, per mode and scans again from
start columns outside the index sets, and the run stops only if that
scan grows nothing either.  The Tucker-cross
model is updated to the enlarged sets by folding the new slab fibers
only onto the scanned ``R``, and each mode's slab runs through the first
``FIBER_OVERSAMPLE`` chosen index of the other modes, widened one index
at a time while some mode's ``R`` carries less rank than its set size.
The residual matrices are never materialized beyond the scanned entries.
"""

from dataclasses import dataclass, field

import numpy as np

from .bmatrix import (
    DEFAULT_TOL,
    _canonical_sets,
    _fold,
    _integer,
    _matrix_rank,
    _tolerance,
    _truncated_scalar_svd,
)
from .btensor import model_gather, tucker_cross

TIE_RTOL = 1e-12  # norms this close to the largest count as tied with it
KEEP_RATIO = 0.5  # share of the largest projected norm that keeps the rook's pick
FIBER_OVERSAMPLE = 1  # chosen indices per mode the slab starts through


@dataclass
class AbcConfig:
    """Knobs of the adaptive run.

    ``init_aux`` holds one non-empty auxiliary index set per mode.
    ``n_rook >= 1`` is the number of rook rounds per scan, and ``seed``
    seeds the uniform draw of each scan's start column; ``n_iter``,
    ``n_rook`` and ``seed`` are integers, ``seed`` at least 0, and a bool
    is not one (:func:`~fvtensor.bmatrix._integer`).  ``tol_rel``, a real number in
    ``[0, 1)`` (:func:`~fvtensor.bmatrix._tolerance`), truncates the
    pseudoinverses and the ranks of the saturation test.  A run ends after
    a sweep in which no mode grows (see :func:`abc_sweeps`), so it may run
    fewer than ``n_iter`` sweeps.
    """

    n_iter: int
    init_aux: list
    n_rook: int = 1
    seed: int = 0
    tol_rel: float = DEFAULT_TOL

    def validate(self, dims):
        """Check the knobs; return the sorted, deduplicated ``init_aux``."""
        for knob, low in (("n_iter", 1), ("n_rook", 1), ("seed", 0)):
            _integer(getattr(self, knob), f"{knob} must be an integer", low)
        _tolerance(self.tol_rel)
        return [list(a) for a in
                _canonical_sets(self.init_aux, dims, "auxiliary index")]


@dataclass
class AbcReport:
    """What the adaptive run did, iteration by iteration."""

    aux_sets: tuple = ()
    rank_history: list = field(default_factory=list)
    evals_by_iter: list = field(default_factory=list)
    scan_evals_by_iter: list = field(default_factory=list)
    index_set_history: list = field(default_factory=list)
    converged: bool = False

    @property
    def index_sets(self):
        """The last sweep's index sets; ``()`` before the first sweep."""
        return self.index_set_history[-1] if self.index_set_history else ()

    @property
    def n_iter_run(self):
        """Sweeps run so far."""
        return len(self.rank_history)


class _ResidualRowView:
    """Residual row matrix over given index sets, one mode at a time.

    Rows are big-endian combinations of the other modes' sets in ``aux``,
    columns the full mode-``k`` range.  Entries are evaluated on demand:
    the tensor side goes through the cache, the model side through factor
    contractions.  The fibers that :meth:`row_norms` read are kept, to be
    folded into the mode's triangular factor.
    """

    def __init__(self, cached, model, aux, k):
        self.cached = cached
        self.model = model
        self.aux = aux
        self.k = k
        other = [len(a) for l, a in enumerate(aux) if l != k]
        self.shape = (int(np.prod(other, dtype=np.int64)), cached.dims[k])
        self.fibers = []

    def _sq_norms(self, grids, vals=None):
        """Squared residual entry H-norms on a product grid, grid-shaped;
        ``vals`` are the tensor's entries there, if already read."""
        if vals is None:
            vals = self.cached.gather(grids)
        if self.model is not None:
            vals = vals - model_gather(self.model, grids)
        return self.cached.ip.pair(vals, vals)

    def col_norms(self, j):
        grids = [[int(j)] if l == self.k else a for l, a in enumerate(self.aux)]
        return np.sqrt(self._sq_norms(grids)).reshape(-1)

    def row_norms(self, i):
        grids = _fiber_grids(self.cached.dims, self.aux, self.k, i)
        self.fibers.append(self.cached.gather(grids))
        return np.sqrt(self._sq_norms(grids, self.fibers[-1])).reshape(-1)


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
    the smallest index, and norms within ``TIE_RTOL`` of the largest
    count as ties, so a tie that holds in exact arithmetic is not broken
    by round-off.  ``n_rook >= 1`` rounds are run.
    """
    j = _integer(j_start, "j_start must be an integer")
    n_rook = _integer(n_rook, "n_rook must be an integer", 1)
    m, n = view.shape
    if m == 0 or n == 0:
        raise ValueError("cannot pivot on an empty matrix")
    if not 0 <= j < n:
        raise IndexError(f"start column {j} out of range")
    for _ in range(n_rook):
        i = _first_max(view.col_norms(j))
        j = _first_max(view.row_norms(i))
    return i, j


def _first_max(norms):
    """Smallest index whose norm is within ``TIE_RTOL`` of the largest.

    Entries that tie in exact arithmetic (symmetric tensors have them)
    may differ in their last bits by how they were computed; this rule
    still sends such a tie to the smallest index.
    """
    top = norms.max()
    return int(np.flatnonzero(norms >= top * (1.0 - TIE_RTOL))[0])


def _new_index(M, I, j, tol_rel):
    """The column of ``M`` that a mode with chosen columns ``I`` should
    gain, or ``None`` when ``I`` carries ``M``.

    ``M`` is the mode's triangular factor ``R``, at most ``n_k x n_k``,
    with the whitened fibers its scan read folded in; any matrix with the
    same Gram ``M^T M``, such as the taller stack of the slab and those
    fibers, gives the same answer, since the rank test and the projected
    norms read only that geometry.  ``I``
    carries ``M`` when the rank of ``M[:, I]`` reaches that of ``M``, ranks
    counting singular values above ``tol_rel`` times the largest.
    Otherwise every column of ``M`` is projected off the span of
    ``M[:, I]`` (its singular vectors above the same cut): the rook's
    column ``j`` is kept when it is unused and its projected norm is at
    least ``KEEP_RATIO`` times the largest over the unused columns, and
    else the unused column with the largest projected norm is taken, ties
    as in :func:`_first_max`.  This is one step of column-pivoted QR on
    ``M`` (Q-DEIM), so the new index adds rank to the mode.  One SVD of
    ``M[:, I]`` gives its rank and span.
    """
    U = _truncated_scalar_svd(M[:, I], tol_rel)[0]
    if _matrix_rank(M, tol_rel) <= U.shape[1]:
        return None
    norms = np.linalg.norm(M - U @ (U.T @ M), axis=0)
    norms[I] = -1.0
    if norms[j] >= KEEP_RATIO * norms.max():
        return j
    return _first_max(norms)


def _scan(cached, model, R, base, chosen, m, rng, cfg, witness=False):
    """Scan every mode once and grow each mode that is not saturated by
    its new index, appended to ``chosen[k]``; return whether some mode
    grew.  Mode ``k`` reads through each other mode's ``base[l]`` and
    fiber set ``chosen[l][:m]``, or through that fiber set and the new
    index of a mode ``l`` that grew earlier in the scan.  The rook starts
    at a column drawn uniformly, from those outside ``chosen[k]`` in a
    ``witness`` scan.  The fibers a mode's scan read are folded into its
    triangular factor ``R[k]`` (:func:`~fvtensor.bmatrix._fold`), which
    is replaced, and its new index is chosen from that."""
    dims = cached.dims
    grown = False
    scan = [sorted(set(b).union(c[:m])) for b, c in zip(base, chosen)]
    for k in range(len(dims)):
        if len(chosen[k]) == dims[k]:
            continue
        view = _ResidualRowView(cached, model, scan, k)
        start = (_draw_outside(dims[k], chosen[k], rng) if witness
                 else rng.integers(dims[k]))
        _, j = rook_pivot(view, start, cfg.n_rook)
        R[k] = _fold(R[k], cached.ip, k, view.fibers)
        if model is not None:
            j = _new_index(R[k], list(model.index_sets[k]), j, cfg.tol_rel)
            if j is None:
                continue
        grown = True
        chosen[k].append(j)
        scan[k] = sorted(set(chosen[k][:m]).union([j]))
    return grown


def _aux_sets(base, chosen):
    """The auxiliary sets: each mode's ``base`` and chosen indices."""
    return [sorted(set(b).union(c)) for b, c in zip(base, chosen)]


def _draw_outside(n, taken, rng):
    """An index drawn uniformly from those in ``range(n)`` outside
    ``taken``, or ``None`` when there is none."""
    outside = np.setdiff1d(np.arange(n), taken)
    return int(outside[rng.integers(outside.size)]) if outside.size else None


def _add_witnesses(dims, base, chosen, m, rng):
    """Join to each ``base[k]`` one index drawn uniformly from those
    outside the auxiliary set or, when that set is the whole range, from
    the chosen indices the scans do not read through (past the fiber set
    ``chosen[k][:m]``), in mode order; return whether any mode had one."""
    added = False
    for k, (n, aux) in enumerate(zip(dims, _aux_sets(base, chosen))):
        j = _draw_outside(n, aux, rng)
        if j is None:
            j = _draw_outside(n, base[k] + chosen[k][:m], rng)
        if j is not None:
            base[k] = sorted(base[k] + [j])
            added = True
    return added


def abc_sweeps(cached, cfg):
    """Adaptive Tucker-cross approximation from sparse entry samples, one
    sweep at a time.

    A generator: it runs up to ``cfg.n_iter`` sweeps and yields
    ``(model, report)`` after each one.  In each sweep every mode is
    scanned by rook pivoting on the residual over the scan sets, and
    every mode that is not saturated receives one new index (see New
    index).  Mode ``k`` scans through each other mode ``l``'s fiber set
    ``J_l`` (see Fiber sets) joined to its base set, the initial
    auxiliary set and the witnesses drawn for ``l`` (see Stopping); a
    mode ``l < k`` that grew in the sweep joins its new index to ``J_l``
    instead.  So new core entries cross where the scans found the
    residual large, not where d independent picks meet, and the scans
    read through the rows the fibers run through, not through every
    chosen index.  The model at the enlarged index sets is
    :func:`tucker_cross` with the last sweep's model as ``prev`` and, as
    ``r_factors``, that model's triangular factors with every fiber the
    sweep's scans read folded in (see Saturation): only the slab fibers
    (see Fiber sets) and core entries new at the enlarged sets are read,
    and they are folded onto those factors, so the model updates read each
    entry once and each scanned fiber is folded once.  ``report`` is one
    object, updated in place: at each yield it holds the per-iteration
    ranks, budgets and index-set snapshots so far, and the current index
    and auxiliary sets; of the evaluations so far, ``evals_by_iter``,
    ``scan_evals_by_iter`` counts those the scans caused, and the rest
    are the model updates'.  Each sweep's ranks are its model's ``ranks``,
    the numerical ranks that :func:`tucker_cross` counted when it solved the
    factors: ``ranks[k]`` is the rank of ``R_k[:, I_k]`` at
    ``cfg.tol_rel``, for ``R_k`` folded over the slab and every fiber mode
    ``k``'s scans read, taken without another SVD.  The scanned fibers
    lie off the core, so a rank may pass the core's Tucker rank
    (:func:`~fvtensor.btensor.tucker_rank`); it never passes ``len(I_k)``.
    Nothing runs, and ``cfg`` is not checked, until the first ``next``.

    Fiber sets.  Each mode keeps its indices in the order they were
    chosen, and the model's slabs run through the first ``m`` of them,
    ``J_l`` (``fiber_sets``), with ``m`` starting at ``FIBER_OVERSAMPLE``
    (1): mode ``k``'s slab holds the fibers whose index in each other mode
    ``l`` lies in ``J_l``, not in all of ``I_l``.  When some mode's rank
    falls short of its set size, ``ranks[k] < len(I_k)``, ``m`` grows by
    one and the model is folded again from the one just built, reading
    only the new fibers; this ends when no mode is short or when ``J`` is
    the index sets, and ``m`` never shrinks.  Each new index adds rank to
    the folded ``R_k`` (see New index), whose scanned fibers carry the
    rank that a slab through one index lacks, so this widening is a safety
    net that a run seldom needs.

    Saturation.  A scan of mode ``k`` folds the fibers it read into a
    copy of ``R_k``, the triangular factor of the last model (an empty
    ``(0, n_k)`` one in sweep 1), by the fold that builds the model's
    slabs (:func:`~fvtensor.bmatrix._fold`), so ``R_k`` is ``n_k x n_k`` at
    most and its rows are the slab through ``J`` and every mode-``k``
    fiber the scans read so far.  The scanned fibers need not run through
    the core: the Tucker-cross factor holds for any set of mode-``k``
    fibers (Caiafa & Cichocki, LAA 433, 2010).  Mode ``k`` is saturated in
    a sweep when its chosen columns ``I_k`` carry the rank of that
    ``R_k``: the rank of ``R_k[:, I_k]`` reaches that of ``R_k`` (ranks
    count singular values above ``cfg.tol_rel`` times the largest).  The
    slab alone only bounds the rank of the mode's unfolding from below,
    and less tightly the fewer rows it has; a scanned fiber that the
    chosen columns do not carry raises the rank of ``R_k``, so the mode
    grows.  The test reads no entry beyond the scan's.  A saturated mode
    gets no index in that sweep, and a mode with every column used is not
    scanned.

    New index.  Sweep 1 takes the column ``j`` a mode's one scan found.
    Later, a mode that is not saturated projects every column of ``R_k``
    off the span of ``R_k[:, I_k]``; it keeps ``j`` when ``j`` is unused
    and its projected norm is at least ``KEEP_RATIO`` times the largest
    over the unused columns, and otherwise (a ``j`` in ``I_k`` too) takes
    the unused column with the largest projected norm (ties as in
    :func:`rook_pivot`).  So every new index adds rank to its mode, and
    no sweep reads fibers for an index its model's rank does not count.

    Stopping.  When no mode grows in a sweep's scan, each mode joins one
    index, a witness, to its base set, drawn uniformly with the run's
    generator from the indices outside its auxiliary set or, once that
    set is the whole range, from its chosen indices outside its fiber set
    and base set, which the scans do not read through; a mode with no
    such index draws none.  The sweep then scans again through the
    widened sets, each mode's rook starting at a column drawn outside its
    index set, since a column of ``I_k`` is one the model interpolates.
    These are the only draws besides the start columns, and only a run
    that would otherwise stop makes them.  If that scan grows nothing
    either, the model is the last sweep's, so the generator sets
    ``report.converged`` and stops.
    This is the only stopping rule besides ``cfg.n_iter``, and it sees
    only what the scans read.

    Sampling footprint.  Let cross(S) be the multi-indices that lie in the
    sets ``S[l]`` in all modes but at most one; it has
    ``prod(s_l) + sum_k (n_k - s_k) * prod_{l != k} s_l`` entries.  Let
    cross_J(I), for ``J_l`` a subset of ``I_l``, be the product of the
    ``I_l`` and, for each ``k``, the mode-``k`` fibers through the ``J_l``
    (``l != k``); it has
    ``prod(s_l) + sum_k (n_k - s_k) * prod_{l != k} j_l`` entries.

    - The model of each sweep is :func:`tucker_cross` at
      ``report.index_sets`` through its ``fiber_sets``; over the sweeps
      so far it has read each entry of cross_J(index_sets), the core
      included, once.  Its ``R`` also folds the fibers the scans read,
      which were evaluated already, so the fold adds no evaluation.
    - The auxiliary sets ``report.aux_sets`` are the base sets joined
      to the chosen indices.  The rook scans read only fibers whose
      other indices lie in a base set, a fiber set or a new index, all
      of them auxiliary; the new index is chosen from what the scans
      read.
    - So each evaluation lies in cross(``report.aux_sets``), and
      cross_J(index_sets) is within it.
    """
    base = cfg.validate(cached.dims)
    rng = np.random.default_rng(cfg.seed)
    chosen = [[] for _ in base]
    m = FIBER_OVERSAMPLE
    model = None
    R = [np.empty((0, n)) for n in cached.dims]

    report = AbcReport()
    scan_evals = 0
    for _ in range(cfg.n_iter):
        before = cached.count
        grown = _scan(cached, model, R, base, chosen, m, rng, cfg)
        if not grown and _add_witnesses(cached.dims, base, chosen, m, rng):
            grown = _scan(cached, model, R, base, chosen, m, rng, cfg, True)
        scan_evals += cached.count - before

        sets = [sorted(c) for c in chosen]
        while True:
            model = tucker_cross(cached, sets, cfg.tol_rel, prev=model,
                                 fiber_sets=[c[:m] for c in chosen],
                                 r_factors=R)
            R = list(model.r_factors)
            if (all(r == len(I) for r, I in zip(model.ranks, sets))
                    or all(len(c) <= m for c in chosen)):
                break
            m += 1
        report.rank_history.append(model.ranks)
        report.evals_by_iter.append(cached.count)
        report.scan_evals_by_iter.append(scan_evals)
        report.index_set_history.append(tuple(tuple(I) for I in sets))
        report.aux_sets = tuple(tuple(a) for a in _aux_sets(base, chosen))
        report.converged = not grown
        yield model, report
        if report.converged:
            return


def tucker_abc(cached, cfg):
    """Run :func:`abc_sweeps` to the end; return its last model and the
    report, with the final index and auxiliary sets."""
    for model, report in abc_sweeps(cached, cfg):
        pass
    return model, report
