"""Batched all-databases scoring engine (DESIGN.md §5c).

Database selection is inherently a per-query, all-databases operation:
every query is scored against every candidate content summary before the
top-k databases are picked. :func:`repro.selection.base.rank_databases`
does that one database at a time; here the candidate set's columnar
arrays (one shared :class:`~repro.core.vocab.Vocabulary` per testbed
cell, PR 2) are stacked into per-set *score matrices*, so one query — and
batches of queries — scores against all databases in a handful of numpy
operations. This is the layout a metasearcher front end serves queries
from (see :mod:`repro.serving`).

Bit-identity contract: the batched path must reproduce the serial fold
exactly. All three scorers reduce per-word components with sequential
Python folds (see the reduction notes in bgloss/cori/lm — the strict
``score > floor`` selected-rule depends on exact equality); the engine
keeps that word-sequential order while vectorizing across the *database*
axis, and elementwise IEEE-754 arithmetic does not depend on array shape,
so every database's score comes out bit-for-bit equal to
:func:`~repro.selection.base.rank_databases`. The equivalence suite
(``tests/test_batch_equivalence.py``) enforces this with exact ``==``
comparisons for every scorer across plain, shrunk, and adaptive-mixed
summary sets.

Every summary set stacks. A matrix is laid out over one vocabulary — the
caller's (the cell vocabulary, for the metasearcher), else the summaries'
shared one. Rows of a summary built on another vocabulary are translated
into it once, at build time, through ``regime_arrays(regime, vocab)``; the
summaries themselves stay untouched, so summary-level reductions such as
``df_mass`` keep the id order :func:`rank_databases` folds them in. A
summary type with its own ``scored_lookup`` semantics is a ``TypeError``.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.lru import MISSING, LruCache
from repro.core.shrinkage import ShrunkSummary
from repro.core.vocab import Vocabulary
from repro.selection.base import DatabaseScorer, RankedDatabase
from repro.summaries.summary import ContentSummary, SampledSummary

#: Resolved query-id arrays cached per matrix (bounded for serve).
_QUERY_IDS_CACHE_SIZE = 512


def _missing_probability(summary: ContentSummary, regime: str) -> float:
    """What ``scored_lookup`` returns for ids outside the summary entirely."""
    if isinstance(summary, ShrunkSummary):
        floor_lambda = (
            summary.lambdas[0] if regime == "df" else summary.tf_lambdas[0]
        )
        return floor_lambda * summary.uniform_probability
    return 0.0


_KNOWN_LOOKUPS = (
    ContentSummary.scored_lookup,
    ShrunkSummary.scored_lookup,
)


class SummarySetMatrix:
    """Stacked columnar probabilities for one fixed summary set.

    Rows follow sorted database-name order (the iteration order of
    :func:`~repro.selection.base.rank_databases`); columns are ids of
    :attr:`vocab`, frozen at build time. ``vocab`` defaults to the
    summaries' one shared vocabulary (a fresh one when they have none in
    common); a summary on another vocabulary has its words interned into
    ``vocab`` here and its rows translated when they are built. Each row
    reproduces the summary's ``scored_lookup`` semantics exactly: plain
    summaries default missing ids to 0, shrunk summaries to their
    uniform-component floor, and ids inside the df support but without
    regime mass stay 0 (not floor) — mirroring
    :meth:`ShrunkSummary.scored_lookup`'s support mask.
    """

    def __init__(
        self,
        summaries: Mapping[str, ContentSummary],
        vocab: Vocabulary | None = None,
        previous: "SummarySetMatrix | None" = None,
    ) -> None:
        names = sorted(summaries)
        ordered = [summaries[name] for name in names]
        for summary in ordered:
            if type(summary).scored_lookup not in _KNOWN_LOOKUPS:
                raise TypeError(
                    f"{type(summary).__name__} overrides scored_lookup"
                )
        if vocab is None:
            vocabs = {id(s.vocab): s.vocab for s in ordered}
            vocab = (
                next(iter(vocabs.values())) if len(vocabs) == 1 else Vocabulary()
            )
        for summary in ordered:
            if summary.vocab is not vocab:
                # Intern the foreign words now, so the width covers them.
                for regime in ("df", "tf"):
                    summary.regime_arrays(regime, vocab)
        self.names: tuple[str, ...] = tuple(names)
        self.summaries: tuple[ContentSummary, ...] = tuple(ordered)
        self.vocab = vocab
        self.sizes = np.array([s.size for s in ordered], dtype=np.float64)
        self._width = len(self.vocab)
        self._dense: dict[str, np.ndarray] = {}
        self._defaults: dict[str, np.ndarray] = {}
        self._colmax: dict[str, np.ndarray] = {}
        self._rowmax: dict[str, np.ndarray] = {}
        self._present: np.ndarray | None = None
        self._cw: np.ndarray | None = None
        self._ids_cache = LruCache(_QUERY_IDS_CACHE_SIZE)
        # Copy-on-write seed: rows whose summary *object* also appears in
        # ``previous`` are copied from its dense arrays instead of being
        # rebuilt (identical input object + identical per-row construction
        # => bitwise-identical row). Only matrices over the same
        # append-only vocabulary instance qualify; a narrower previous
        # matrix is fine, its missing tail is the row default.
        self._previous = (
            previous
            if previous is not None and previous.vocab is self.vocab
            else None
        )
        self.reused_rows = 0

    def __len__(self) -> int:
        return len(self.names)

    # -- dense construction ---------------------------------------------------

    def _previous_row(self, summary: ContentSummary) -> int | None:
        """The row of ``summary`` (by identity) in the previous matrix."""
        previous = self._previous
        if previous is None:
            return None
        row = getattr(previous, "_row_index", None)
        if row is None:
            row = previous._row_index = {
                id(s): index for index, s in enumerate(previous.summaries)
            }
        return row.get(id(summary))

    def _build_row(
        self, dense_row: np.ndarray, summary: ContentSummary, regime: str,
        default: float,
    ) -> None:
        if default != 0.0:
            dense_row.fill(default)
            # Ids in the df support but without regime mass score 0,
            # not the floor (ShrunkSummary's support mask).
            dense_row[summary.regime_arrays("df", self.vocab)[0]] = 0.0
        ids, values = summary.regime_arrays(regime, self.vocab)
        positive = values > 0.0
        if positive.all():
            dense_row[ids] = values
        else:
            dense_row[ids[positive]] = values[positive]
            if default == 0.0:
                dense_row[ids[~positive]] = values[~positive]

    def _build(self, regime: str) -> None:
        n = len(self.summaries)
        dense = np.zeros((n, self._width), dtype=np.float64)
        defaults = np.zeros(n, dtype=np.float64)
        previous = self._previous
        previous_dense = (
            previous._dense.get(regime) if previous is not None else None
        )
        for row, summary in enumerate(self.summaries):
            default = _missing_probability(summary, regime)
            defaults[row] = default
            if previous_dense is not None:
                source = self._previous_row(summary)
                if source is not None:
                    if default != 0.0 and previous._width < self._width:
                        dense[row, previous._width:] = default
                    dense[row, : previous._width] = previous_dense[source]
                    self.reused_rows += 1
                    continue
            self._build_row(dense[row], summary, regime, default)
        self._dense[regime] = dense
        self._defaults[regime] = defaults

    def dense(self, regime: str = "df") -> np.ndarray:
        """The (databases, vocabulary) score-matrix for ``regime``."""
        if regime not in self._dense:
            self._build(regime)
        return self._dense[regime]

    # -- top-k pruning bounds --------------------------------------------------

    def column_max(self, regime: str = "df") -> np.ndarray:
        """Per-vocabulary-id maximum probability across all rows.

        The per-term column upper bound of the top-k engine: no database
        can contribute more than ``column_max()[id]`` at word ``id``.
        Exact maxima (no arithmetic), so a zero entry certifies that every
        database scores its floor component at that word.
        """
        if regime not in self._colmax:
            self._colmax[regime] = self.dense(regime).max(axis=0)
        return self._colmax[regime]

    def row_max(self, regime: str = "df") -> np.ndarray:
        """Per-database maximum probability across the whole vocabulary.

        The global per-row residual bound: whatever the query, row ``i``
        never sees a per-word probability above ``row_max()[i]`` (the
        default is included, covering out-of-vocabulary lookups).
        """
        if regime not in self._rowmax:
            dense = self.dense(regime)
            self._rowmax[regime] = np.maximum(
                dense.max(axis=1), self._defaults[regime]
            )
        return self._rowmax[regime]

    def default_max(self, regime: str = "df") -> float:
        """Upper bound on what any row returns for an unknown/invalid id."""
        self.dense(regime)
        defaults = self._defaults[regime]
        return float(defaults.max()) if defaults.size else 0.0

    # -- external-buffer (de)materialization ----------------------------------

    def export_arrays(self) -> dict[str, np.ndarray]:
        """Every *built* backing array, keyed by field name.

        Keys: ``dense.<regime>`` / ``defaults.<regime>`` for each regime
        densified so far, plus ``present`` and ``cw`` when those lazies
        have fired. Only what is already built is exported — a snapshot
        shares exactly the buffers its warmup traffic touched; anything
        else stays lazy (and is rebuilt locally, bit-identically, on
        demand by whoever adopts the export).
        """
        arrays: dict[str, np.ndarray] = {}
        for regime, dense in self._dense.items():
            arrays[f"dense.{regime}"] = dense
            arrays[f"defaults.{regime}"] = self._defaults[regime]
        for regime, colmax in self._colmax.items():
            arrays[f"colmax.{regime}"] = colmax
        for regime, rowmax in self._rowmax.items():
            arrays[f"rowmax.{regime}"] = rowmax
        if self._present is not None:
            arrays["present"] = self._present
        if self._cw is not None:
            arrays["cw"] = self._cw
        return arrays

    def adopt_arrays(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Install externally materialized backing arrays (zero-copy).

        The inverse of :meth:`export_arrays`: the given buffers — e.g.
        numpy views over a shared-memory segment — replace (or pre-empt)
        the locally densified ones, so :meth:`dense`, :meth:`present`,
        and :meth:`cw` serve from them without ever allocating. Shapes
        and dtypes are validated against this matrix's geometry; a
        mismatched buffer (wrong database count or a vocabulary that
        grew past the exporter's) raises ``ValueError`` rather than
        silently mis-scoring.
        """
        n = len(self.summaries)
        for key, array in arrays.items():
            field, _, regime = key.partition(".")
            if field == "dense":
                if array.shape != (n, self._width) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n, self._width)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._dense[regime] = array
            elif field == "defaults":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._defaults[regime] = array
            elif field == "colmax":
                if array.shape != (self._width,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(self._width,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._colmax[regime] = array
            elif field == "rowmax":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._rowmax[regime] = array
            elif field == "present":
                if array.shape != (n, self._width) or array.dtype != np.bool_:
                    raise ValueError(
                        f"{key}: expected bool {(n, self._width)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._present = array
            elif field == "cw":
                if array.shape != (n,) or array.dtype != np.float64:
                    raise ValueError(
                        f"{key}: expected float64 {(n,)}, "
                        f"got {array.dtype} {array.shape}"
                    )
                self._cw = array
            else:
                raise ValueError(f"unknown matrix array field {key!r}")
        for regime in self._dense:
            if regime not in self._defaults:
                raise ValueError(
                    f"dense.{regime} adopted without defaults.{regime}"
                )

    # -- query resolution and gathering ---------------------------------------

    def query_ids(self, query_terms: Sequence[str]) -> np.ndarray:
        """Vocabulary ids of the query's words (−1 when unknown), cached."""
        key = tuple(query_terms)
        ids = self._ids_cache.get(key, MISSING)
        if ids is MISSING:
            ids = self.vocab.ids_of(key)
            self._ids_cache.put(key, ids)
        return ids

    def gather(
        self,
        ids: np.ndarray,
        regime: str = "df",
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-word probabilities for all databases (or just ``rows``): a
        (rows, words) matrix whose row ``i`` equals
        ``summaries[i].scored_lookup(ids)``. Pure selection, so a row
        subset is bitwise the full gather indexed by ``rows``."""
        dense = self.dense(regime)
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < self._width)
        all_valid = bool(valid.all())
        safe = ids if all_valid else np.where(valid, ids, 0)
        if rows is None:
            out = dense[:, safe]
        else:
            rows = np.asarray(rows, dtype=np.int64)
            out = dense[rows[:, None], safe]
        if not all_valid:
            defaults = self._defaults[regime]
            if rows is not None:
                defaults = defaults[rows]
            out[:, ~valid] = defaults[:, None]
        return out

    # -- CORI corpus statistics ------------------------------------------------

    def present(self) -> np.ndarray:
        """Boolean (databases, vocabulary) word-presence matrix for cf(w):
        the round rule's effective ids for shrunk summaries, the df support
        otherwise (mirrors ``cori._present_ids``)."""
        if self._present is None:
            present = np.zeros(
                (len(self.summaries), self._width), dtype=bool
            )
            for row, summary in enumerate(self.summaries):
                if not isinstance(summary, ShrunkSummary):
                    ids = summary.regime_arrays("df", self.vocab)[0]
                elif summary.vocab is self.vocab:
                    ids = summary.effective_ids()
                else:
                    ids = self.vocab.ids_of(
                        summary.vocab.words_of(summary.effective_ids())
                    )
                present[row, ids] = True
            self._present = present
        return self._present

    def present_at(self, ids: np.ndarray) -> np.ndarray:
        """Presence columns for ``ids`` (False for unknown/out-of-range)."""
        present = self.present()
        ids = np.asarray(ids, dtype=np.int64)
        valid = (ids >= 0) & (ids < self._width)
        safe = np.where(valid, ids, 0)
        out = present[:, safe]
        if not valid.all():
            out[:, ~valid] = False
        return out

    def cw(self) -> np.ndarray:
        """Per-database cw(D) proxy (df mass), CORI's collection size."""
        if self._cw is None:
            self._cw = np.array(
                [s.df_mass() for s in self.summaries], dtype=np.float64
            )
        return self._cw


def ranked_from_arrays(
    names: Sequence[str],
    scores: np.ndarray,
    floors: np.ndarray,
    k: int | None = None,
) -> list[RankedDatabase]:
    """Assemble the final ranking exactly as ``rank_databases`` does:
    strict ``score > floor`` for the selected flag, ties broken on name.

    With ``k`` given, returns exactly the first ``k`` entries of the full
    ranking without sorting all candidates: an ``argpartition`` isolates
    the k largest scores, every row tied with the k-th score joins the
    pool (so the name tie-break sees all contenders), and only that pool
    is sorted. Bit-identical to ``ranked_from_arrays(...)[:k]``.
    """
    if k is not None and k < len(names):
        if k <= 0:
            return []
        kept = np.argpartition(-scores, k - 1)[:k]
        kth = scores[kept].min()
        candidates = np.flatnonzero(scores >= kth)
        ranking = [
            RankedDatabase(name=names[i], score=score, selected=score > floor)
            for i, score, floor in zip(
                candidates.tolist(),
                scores[candidates].tolist(),
                floors[candidates].tolist(),
            )
        ]
        ranking.sort(key=lambda entry: (-entry.score, entry.name))
        del ranking[k:]
        return ranking
    ranking = [
        RankedDatabase(name=name, score=score, selected=score > floor)
        for name, score, floor in zip(
            names, scores.tolist(), floors.tolist()
        )
    ]
    ranking.sort(key=lambda entry: (-entry.score, entry.name))
    return ranking


class BatchSelectionEngine:
    """Batched counterpart of ``rank_databases`` for a fixed summary set.

    The scorer must already be (or is here) prepared on exactly this
    summary set — corpus-level statistics (CORI's cf/mcw) are part of the
    score. One engine instance serves any number of queries.
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        summaries: Mapping[str, ContentSummary],
        prepare: bool = True,
        matrix: SummarySetMatrix | None = None,
        vocab: Vocabulary | None = None,
    ) -> None:
        if prepare:
            scorer.prepare(summaries)
        self.scorer = scorer
        if matrix is None:
            matrix = SummarySetMatrix(summaries, vocab)
        elif matrix.names != tuple(sorted(summaries)):
            # Matrices depend only on the summary set, not the scorer, so
            # one matrix per set is shared across all algorithms' engines.
            raise ValueError("shared matrix names a different summary set")
        self.matrix = matrix
        self.names = self.matrix.names

    def rank(self, query_terms: Sequence[str]) -> list[RankedDatabase]:
        """Score and rank all databases for one query (highest first)."""
        from repro.evaluation.instrument import get_instrumentation

        start = time.perf_counter()
        terms = list(query_terms)
        scorer, matrix = self.scorer, self.matrix
        scores = scorer.score_rows(
            terms,
            matrix.gather(matrix.query_ids(terms), scorer.topk_regime),
            matrix.sizes,
            matrix.cw(),
        )
        floors = scorer.batch_floor_scores(terms, matrix)
        ranking = ranked_from_arrays(self.names, scores, floors)
        get_instrumentation().observe(
            f"rank.seconds.{scorer.name}", time.perf_counter() - start
        )
        return ranking


class AdaptiveBatchEngine:
    """Batched scoring of per-query mixed plain/shrunk summary sets.

    The SHRINKAGE strategy picks, per query and database, either the
    sampled summary S(D) or the shrunk summary R(D) (Figure 3). The
    reference :func:`rank_databases` would materialize that mixed dict and
    re-run ``prepare`` on it for every query; here both candidate sets are
    stacked once, over one vocabulary (the plain matrix's), and a
    per-query boolean mask (aligned to :attr:`names`) selects rows.
    Set-level CORI statistics (cf, mcw) are recomputed per query from
    precomputed presence matrices and cw vectors — bit-identical to a
    fresh ``prepare`` on the mixed dict, including its insertion-order
    mean-cw fold.
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        sampled: Mapping[str, SampledSummary],
        shrunk: Mapping[str, ContentSummary],
        plain_matrix: SummarySetMatrix | None = None,
        shrunk_matrix: SummarySetMatrix | None = None,
    ) -> None:
        if set(sampled) != set(shrunk):
            raise ValueError("sampled and shrunk sets name different databases")
        self.scorer = scorer
        self.plain = (
            plain_matrix
            if plain_matrix is not None
            else SummarySetMatrix(sampled)
        )
        self.shrunk = (
            shrunk_matrix
            if shrunk_matrix is not None
            else SummarySetMatrix(shrunk, self.plain.vocab)
        )
        if self.plain.names != tuple(sorted(sampled)):
            raise ValueError("shared matrix names a different summary set")
        if self.plain.vocab is not self.shrunk.vocab:
            raise ValueError("sampled and shrunk matrices use different vocabularies")
        if not np.array_equal(self.plain.sizes, self.shrunk.sizes):
            raise ValueError("shrunk summaries changed database sizes")
        self.names = self.plain.names
        self.sizes = self.plain.sizes
        # The reference path folds CORI's total cw in the *insertion* order
        # of the mixed dict, which follows the sampled-summaries mapping;
        # row order is sorted-name. Keep the permutation for exact folds.
        row_of = {name: row for row, name in enumerate(self.names)}
        self._prepare_rows = [row_of[name] for name in sampled]

    def __len__(self) -> int:
        return len(self.names)

    def query_ids(self, query_terms: Sequence[str]) -> np.ndarray:
        return self.plain.query_ids(query_terms)

    def gather_mixed(
        self,
        ids: np.ndarray,
        regime: str,
        mask: np.ndarray,
        rows: np.ndarray | None = None,
    ) -> np.ndarray:
        """Per-word probabilities with shrunk rows where ``mask`` is set,
        for all databases or just ``rows`` (see
        :meth:`SummarySetMatrix.gather`)."""
        plain = self.plain.gather(ids, regime, rows)
        shrunk = self.shrunk.gather(ids, regime, rows)
        chosen = mask if rows is None else mask[rows]
        return np.where(chosen[:, None], shrunk, plain)

    def cw_mixed(self, mask: np.ndarray) -> np.ndarray:
        """Per-database cw(D) of the chosen summaries."""
        return np.where(mask, self.shrunk.cw(), self.plain.cw())

    def mean_cw(self, mask: np.ndarray) -> float:
        """mcw over the mixed set, folded exactly like CORI's prepare."""
        cw = self.cw_mixed(mask).tolist()
        total_cw = 0.0
        for row in self._prepare_rows:
            total_cw += cw[row]
        count = len(self.names)
        mean = total_cw / count if count else 1.0
        return mean if mean > 0 else 1.0

    def cf_at(self, ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """cf(w) for the query's ids over the chosen summaries."""
        plain = self.plain.present_at(ids)
        shrunk = self.shrunk.present_at(ids)
        chosen = np.where(mask[:, None], shrunk, plain)
        return chosen.sum(axis=0, dtype=np.int64)

    def rank(
        self, query_terms: Sequence[str], mask: np.ndarray
    ) -> list[RankedDatabase]:
        """Rank the mixed set selected by ``mask`` for one query."""
        from repro.evaluation.instrument import get_instrumentation

        start = time.perf_counter()
        mask = np.asarray(mask, dtype=bool)
        terms = list(query_terms)
        scorer = self.scorer
        scores = scorer.score_rows(
            terms,
            self.gather_mixed(self.query_ids(terms), scorer.topk_regime, mask),
            self.sizes,
            self.cw_mixed(mask),
            **scorer.mixed_context(terms, self, mask),
        )
        floors = scorer.batch_floor_scores(terms, self.plain)
        ranking = ranked_from_arrays(self.names, scores, floors)
        get_instrumentation().observe(
            f"rank.seconds.{scorer.name}", time.perf_counter() - start
        )
        return ranking
