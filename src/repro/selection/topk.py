"""Pruned exact top-k selection (DESIGN.md §5g).

Every ``/select`` needs only the best k databases, yet the batched
engines of :mod:`repro.selection.batch` score the whole universe per
query. This module adds a max-score/WAND-style candidate-elimination
engine over the same columnar matrices that returns the *first k entries
of the full ranking bit-for-bit* while touching — gathering and scoring —
only a fraction of the rows.

The machinery rests on three facts, proven per scorer in DESIGN.md §5g:

1. **Monotone bounds.** Each supported scorer's score is monotone
   nondecreasing in every per-word probability, and each scorer exposes
   :meth:`~repro.selection.base.DatabaseScorer.topk_group_bounds`, which
   folds per-word probability *maxima* through the scorer's own
   reduction. Because IEEE-754 round-to-nearest is monotone per
   operation, the folded bound dominates the exact score of every row it
   covers *as a float* (CORI's two-variable T ratio gets a 1e-9
   multiplicative guard).
2. **Exact floors.** A row whose probabilities are zero at every query
   word computes *exactly* the floor expression, and the bound fold
   reproduces that equality on all-zero maxima: a group whose column
   maxima vanish at the whole query is known — without gathering a
   single row — to score exactly the floor everywhere.
3. **Floor ties break on name.** Rows are in sorted-name order, the
   floor is one common scalar per (scorer, query), and the full ranking
   orders floor ties by name — so the k lowest *row indices* among the
   known-floor rows are the only floor rows that can appear in the top
   k.

Candidates are organized into *groups* — one per classification path, so
a pruned group is a pruned category subtree — processed in descending
bound order. The current threshold θ is the k-th best *exactly scored*
value so far (or the floor, which every score dominates); a group whose
bound falls strictly below θ is eliminated whole, and surviving groups
are refined row-by-row against ``min(column_max, row_max)`` before the
expensive gather. Elimination only ever discards rows with
``score < θ ≤ true k-th score``, so the surviving pool provably contains
the full ranking's first k entries, which are then assembled by the same
``(-score, name)`` sort as the full scan. Survivors are scored by the
scorer's one exact kernel,
:meth:`~repro.selection.base.DatabaseScorer.score_rows`, over their
gathered rows — the kernel the full scan runs over every row — so a
survivor's score is the full scan's bit for bit. Queries pruning cannot
serve return ``None`` and callers take the full-scan path.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.selection.base import DatabaseScorer, RankedDatabase
from repro.selection.batch import (
    AdaptiveBatchEngine,
    SummarySetMatrix,
    ranked_from_arrays,
)


@dataclass(frozen=True)
class TopKStats:
    """Per-query pruning accounting (feeds ``select.candidates_scored``)."""

    total: int
    candidates_scored: int
    groups_total: int
    groups_zero: int
    groups_pruned: int
    rows_pruned: int


def group_labels(
    names: Sequence[str], classifications: Mapping[str, Sequence[str]]
) -> list[tuple[str, ...]]:
    """One hashable group label per row: the classification path."""
    return [
        tuple(classifications.get(name) or ("__unclassified__",))
        for name in names
    ]


class GroupIndex:
    """Aggregated per-group bounds over one :class:`SummarySetMatrix`.

    Groups partition the rows by label (classification paths — i.e.
    category subtrees). Per regime the index keeps each group's per-id
    column maxima plus its default/size/cw aggregates, all lazy: nothing
    is computed until the top-k engine first needs it. The arrays are
    derived deterministically from the (possibly shared-memory) dense
    matrices, so attaching workers rebuild them locally bit-identically.
    """

    def __init__(
        self, matrix: SummarySetMatrix, labels: Sequence[tuple[str, ...]]
    ) -> None:
        if len(labels) != len(matrix):
            raise ValueError("one label per matrix row required")
        self.matrix = matrix
        by_label: dict[tuple[str, ...], list[int]] = {}
        for row, label in enumerate(labels):
            by_label.setdefault(label, []).append(row)
        self.labels: tuple[tuple[str, ...], ...] = tuple(sorted(by_label))
        self.rows: list[np.ndarray] = [
            np.array(by_label[label], dtype=np.int64) for label in self.labels
        ]
        self._colmax: dict[str, np.ndarray] = {}
        self._defaults_max: dict[str, np.ndarray] = {}
        self._size_max: np.ndarray | None = None
        self._cw_min: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.labels)

    def colmax(self, regime: str) -> np.ndarray:
        """(groups, vocabulary) per-id maxima over each group's rows."""
        if regime not in self._colmax:
            dense = self.matrix.dense(regime)
            self._colmax[regime] = np.stack(
                [dense[rows].max(axis=0) for rows in self.rows]
            )
        return self._colmax[regime]

    def defaults_max(self, regime: str) -> np.ndarray:
        """Per-group maximum default (bounds unknown/invalid-id lookups)."""
        if regime not in self._defaults_max:
            self.matrix.dense(regime)
            defaults = self.matrix._defaults[regime]
            self._defaults_max[regime] = np.array(
                [defaults[rows].max() for rows in self.rows],
                dtype=np.float64,
            )
        return self._defaults_max[regime]

    def colmax_at(self, ids: np.ndarray, regime: str) -> np.ndarray:
        """(groups, words) maxima for the query's ids."""
        colmax = self.colmax(regime)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < colmax.shape[1])
        safe = np.where(valid, ids, 0)
        out = colmax[:, safe]
        if not valid.all():
            out[:, ~valid] = self.defaults_max(regime)[:, None]
        return out

    def size_max(self) -> np.ndarray:
        if self._size_max is None:
            sizes = self.matrix.sizes
            self._size_max = np.array(
                [sizes[rows].max() for rows in self.rows], dtype=np.float64
            )
        return self._size_max

    def cw_min(self) -> np.ndarray:
        if self._cw_min is None:
            cw = self.matrix.cw()
            self._cw_min = np.array(
                [cw[rows].min() for rows in self.rows], dtype=np.float64
            )
        return self._cw_min


def _query_column_max(
    matrix: SummarySetMatrix, ids: np.ndarray, regime: str
) -> np.ndarray:
    """Per-query-word column maxima (defaults bound invalid ids)."""
    colmax = matrix.column_max(regime)
    ids = np.asarray(ids, dtype=np.int64)
    valid = (ids >= 0) & (ids < colmax.size)
    return np.where(
        valid, colmax[np.where(valid, ids, 0)], matrix.default_max(regime)
    )


def _pruned_scan(
    names: Sequence[str],
    sizes: np.ndarray,
    cw: np.ndarray,
    floors: np.ndarray,
    k: int,
    groups_rows: Sequence[np.ndarray],
    group_pmax: np.ndarray,
    group_size_max: np.ndarray,
    group_cw_min: np.ndarray,
    colvec: np.ndarray,
    rowmax: np.ndarray,
    bound_fn,
    score_fn,
) -> tuple[list[RankedDatabase], TopKStats]:
    """The elimination core shared by the fixed and mixed engines.

    ``bound_fn(pmax, size_ub, cw_lb)`` must dominate the exact score of
    every row its bounds cover; ``score_fn(rows)`` must return the exact
    full-scan scores of ``rows``. Exactness argument in the module
    docstring / DESIGN.md §5g.
    """
    floor = float(floors[0])
    total = len(names)

    nonzero = group_pmax.any(axis=1)
    zero_groups = np.flatnonzero(~nonzero)
    live_groups = np.flatnonzero(nonzero)

    order = np.empty(0, dtype=np.int64)
    ordered_bounds = np.empty(0, dtype=np.float64)
    if live_groups.size:
        bounds = bound_fn(
            group_pmax[live_groups],
            group_size_max[live_groups],
            group_cw_min[live_groups],
        )
        ranked = np.argsort(-bounds, kind="stable")
        order = live_groups[ranked]
        ordered_bounds = bounds[ranked]

    scored_rows: list[np.ndarray] = []
    scored_scores: list[np.ndarray] = []
    top: list[float] = []  # min-heap of the k best exact scores so far
    theta = floor  # every score dominates the floor, so θ starts there
    candidates_scored = 0
    groups_pruned = 0
    rows_pruned = 0

    for position, group in enumerate(order.tolist()):
        if ordered_bounds[position] < theta:
            # Bounds are sorted descending: everything from here on is
            # strictly below the k-th best known score — whole category
            # subtrees eliminated without touching a row.
            remaining = order[position:]
            groups_pruned = int(remaining.size)
            rows_pruned += int(
                sum(groups_rows[g].size for g in remaining.tolist())
            )
            break
        rows = groups_rows[group]
        row_pmax = np.minimum(colvec[None, :], rowmax[rows][:, None])
        row_bounds = bound_fn(row_pmax, sizes[rows], cw[rows])
        keep = row_bounds >= theta
        rows_pruned += int((~keep).sum())
        kept = rows[keep]
        if kept.size == 0:
            continue
        scores = score_fn(kept)
        candidates_scored += int(kept.size)
        scored_rows.append(kept)
        scored_scores.append(scores)
        for score in scores.tolist():
            if len(top) < k:
                heapq.heappush(top, score)
            elif score > top[0]:
                heapq.heapreplace(top, score)
        if len(top) == k:
            theta = top[0]

    # Floor fillers: rows of all-zero groups score exactly the floor, and
    # floor ties order by name == row index, so only the k smallest row
    # indices can reach the top k.
    if zero_groups.size:
        zero_rows = np.concatenate(
            [groups_rows[g] for g in zero_groups.tolist()]
        )
    else:
        zero_rows = np.empty(0, dtype=np.int64)
    fill = (
        np.partition(zero_rows, k - 1)[:k] if zero_rows.size > k else zero_rows
    )

    if scored_rows:
        pool_rows = np.concatenate(scored_rows + [fill])
        pool_scores = np.concatenate(scored_scores + [floors[fill]])
    else:
        pool_rows = fill
        pool_scores = floors[fill]
    pool_names = [names[row] for row in pool_rows.tolist()]
    ranking = ranked_from_arrays(
        pool_names, pool_scores, floors[pool_rows], k=k
    )
    stats = TopKStats(
        total=total,
        candidates_scored=candidates_scored,
        groups_total=len(groups_rows),
        groups_zero=int(zero_groups.size),
        groups_pruned=groups_pruned,
        rows_pruned=rows_pruned,
    )
    return ranking, stats


class TopKEngine:
    """Pruned exact top-k over one fixed summary set.

    ``rank`` returns ``(ranking, stats)`` where ``ranking`` is
    bit-identical to ``BatchSelectionEngine.rank(query)[:k]`` — same
    scores, floors, selected flags and ordering — or ``None`` when
    pruning does not apply (empty query, ``k`` covering the whole set, or
    non-uniform floors) and the caller must take the full-scan path.
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        matrix: SummarySetMatrix,
        groups: GroupIndex,
    ) -> None:
        if groups.matrix is not matrix:
            raise ValueError("group index built over a different matrix")
        self.scorer = scorer
        self.matrix = matrix
        self.groups = groups

    def rank(
        self, query_terms: Sequence[str], k: int
    ) -> tuple[list[RankedDatabase], TopKStats] | None:
        from repro.evaluation.instrument import get_instrumentation

        terms = list(query_terms)
        scorer, matrix = self.scorer, self.matrix
        regime = scorer.topk_regime
        if not terms or k is None or k <= 0 or k >= len(matrix):
            return None
        start = time.perf_counter()
        floors = scorer.batch_floor_scores(terms, matrix)
        if float(floors.min()) != float(floors.max()):
            return None
        ids = matrix.query_ids(terms)
        cw = matrix.cw()

        def bound_fn(pmax, size_ub, cw_lb):
            return scorer.topk_group_bounds(terms, pmax, size_ub, cw_lb)

        def score_fn(rows):
            return scorer.score_rows(
                terms, matrix.gather(ids, regime, rows), matrix.sizes[rows],
                cw[rows],
            )

        result = _pruned_scan(
            matrix.names,
            matrix.sizes,
            cw,
            floors,
            k,
            self.groups.rows,
            self.groups.colmax_at(ids, regime),
            self.groups.size_max(),
            self.groups.cw_min(),
            _query_column_max(matrix, ids, regime),
            matrix.row_max(regime),
            bound_fn,
            score_fn,
        )
        get_instrumentation().observe(
            f"rank.seconds.{scorer.name}", time.perf_counter() - start
        )
        return result


class MixedTopKEngine:
    """Pruned exact top-k over per-query plain/shrunk row mixes.

    Bounds must hold for *any* mask, so per-word maxima take the
    elementwise max over both matrices (and cw the min): sound for every
    mix, mask-independent, computed once. Survivors are gathered from the
    mix and scored by the scorer's kernel with the mixed set's per-query
    corpus statistics (CORI's cf/mcw).
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        engine: AdaptiveBatchEngine,
        plain_groups: GroupIndex,
        shrunk_groups: GroupIndex,
    ) -> None:
        if plain_groups.labels != shrunk_groups.labels:
            raise ValueError("plain/shrunk group indexes disagree on labels")
        self.scorer = scorer
        self.engine = engine
        self.plain_groups = plain_groups
        self.shrunk_groups = shrunk_groups

    def rank(
        self, query_terms: Sequence[str], mask: np.ndarray, k: int
    ) -> tuple[list[RankedDatabase], TopKStats] | None:
        from repro.evaluation.instrument import get_instrumentation

        terms = list(query_terms)
        scorer, engine = self.scorer, self.engine
        regime = scorer.topk_regime
        if not terms or k is None or k <= 0 or k >= len(engine):
            return None
        start = time.perf_counter()
        mask = np.asarray(mask, dtype=bool)
        floors = scorer.batch_floor_scores(terms, engine.plain)
        if float(floors.min()) != float(floors.max()):
            return None
        ids = engine.query_ids(terms)
        context = scorer.mixed_context(terms, engine, mask)

        group_pmax = np.maximum(
            self.plain_groups.colmax_at(ids, regime),
            self.shrunk_groups.colmax_at(ids, regime),
        )
        colvec = np.maximum(
            _query_column_max(engine.plain, ids, regime),
            _query_column_max(engine.shrunk, ids, regime),
        )
        rowmax = np.where(
            mask, engine.shrunk.row_max(regime), engine.plain.row_max(regime)
        )
        cw = engine.cw_mixed(mask)
        group_cw_min = np.minimum(
            self.plain_groups.cw_min(), self.shrunk_groups.cw_min()
        )

        def bound_fn(pmax, size_ub, cw_lb):
            return scorer.topk_group_bounds(
                terms, pmax, size_ub, cw_lb, **context
            )

        def score_fn(rows):
            return scorer.score_rows(
                terms, engine.gather_mixed(ids, regime, mask, rows),
                engine.sizes[rows], cw[rows], **context,
            )

        result = _pruned_scan(
            engine.names,
            engine.sizes,
            cw,
            floors,
            k,
            self.plain_groups.rows,
            group_pmax,
            self.plain_groups.size_max(),
            group_cw_min,
            colvec,
            rowmax,
            bound_fn,
            score_fn,
        )
        get_instrumentation().observe(
            f"rank.seconds.{scorer.name}", time.perf_counter() - start
        )
        return result
