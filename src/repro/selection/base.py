"""Scoring protocol shared by all database selection algorithms.

A :class:`DatabaseScorer` assigns a score ``s(q, D)`` to a database given a
query and the database's content summary. Some algorithms (CORI) need
corpus-level statistics across all candidate summaries; those are computed
in :meth:`DatabaseScorer.prepare` before scoring.

The paper's "default score" rule (Section 6.2) is implemented via
:meth:`DatabaseScorer.floor_score`: a database whose score equals the score
it would get if *no* query word appeared in its summary is considered not
selected, which can leave fewer than ``k`` databases selected for a query.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lru import MISSING, LruCache
from repro.summaries.summary import ContentSummary

if TYPE_CHECKING:
    from repro.selection.batch import AdaptiveBatchEngine, SummarySetMatrix

#: Bound on the per-scorer resolved-query-id cache. Large enough that a
#: batch evaluation's query set stays resident; small enough that a
#: long-running serve process cannot grow it without bound (each entry is
#: a query tuple plus a small id array).
QUERY_IDS_CACHE_SIZE = 512


@dataclass(frozen=True)
class RankedDatabase:
    """One entry of a database ranking."""

    name: str
    score: float
    selected: bool


class DatabaseScorer(ABC):
    """Base class for bGlOSS / CORI / LM scorers."""

    #: Human-readable algorithm name ("bGlOSS", "CORI", "LM").
    name: str = "scorer"

    #: How the score decomposes over query words ("product", "sum" or
    #: None). The adaptive algorithm (Appendix B) exploits this to compute
    #: score variance analytically, word by word.
    word_decomposition: str | None = None

    #: Probability regime ("df" or "tf") the engines gather this scorer's
    #: rows in, for its exact kernel and its top-k bounds alike. ``None``
    #: marks a scorer the engines cannot serve.
    topk_regime: str | None = None

    def prepare(self, summaries: Mapping[str, ContentSummary]) -> None:
        """Compute corpus-level statistics over the candidate summaries."""

    def query_vector(
        self,
        query_terms: Sequence[str],
        summary: ContentSummary,
        regime: str = "df",
    ) -> np.ndarray:
        """Per-word probabilities of ``query_terms`` under ``summary``.

        One vectorized lookup instead of per-word ``p()`` calls: the query
        is resolved to vocabulary ids once per (vocabulary, query) pair —
        scoring the same query against every candidate summary reuses the
        id array — and gathered through
        :meth:`~repro.summaries.summary.ContentSummary.scored_lookup`, so
        default-probability semantics (the shrunk uniform floor) are
        honoured exactly as the scalar accessors would.
        """
        cache = getattr(self, "_query_ids_cache", None)
        if cache is None:
            cache = self._query_ids_cache = LruCache(QUERY_IDS_CACHE_SIZE)
        key = (id(summary.vocab), tuple(query_terms))
        entry = cache.get(key, MISSING)
        if entry is not MISSING and entry[0] is summary.vocab:
            ids = entry[1]
        else:
            ids = summary.vocab.ids_of(query_terms)
            cache.put(key, (summary.vocab, ids))
        return summary.scored_lookup(ids, regime)

    @abstractmethod
    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        """s(q, D) for the database whose summary is ``summary``."""

    @abstractmethod
    def word_score(self, probability: float, summary: ContentSummary, word: str) -> float:
        """The per-word score component given ``p(w|D) = probability``.

        For ``word_decomposition == "product"`` the total score is
        ``scale(summary) * prod_w word_score(...)``; for ``"sum"`` it is
        ``scale(summary) * sum_w word_score(...)``. Used by the adaptive
        algorithm to recompute scores under hypothetical word frequencies.
        """

    def word_score_vector(
        self, probabilities: np.ndarray, summary: ContentSummary, word: str
    ) -> np.ndarray:
        """Vectorized :meth:`word_score` over many hypothetical p(w|D).

        The adaptive algorithm evaluates the per-word score over the whole
        posterior support of the word's document frequency; scorers
        override this with closed-form array arithmetic.
        """
        return np.array(
            [self.word_score(float(p), summary, word) for p in probabilities]
        )

    def moment_key(self, word: str) -> Hashable:
        """The only per-word input :meth:`word_score_vector` reads.

        Two words with equal keys get bit-identical per-word score vectors
        for the same hypothetical probabilities and summary, so the
        adaptive algorithm's moment cache may share one entry between
        them. The default, the word itself, shares nothing.
        """
        return word

    def hypothetical_probability_scale(self, summary: ContentSummary) -> float:
        """Conversion factor from document-frequency fractions d/|D| to the
        probability regime this scorer consumes.

        The uncertainty model of Section 4 hypothesizes *document
        frequencies* d_k; scorers operating on document-frequency
        probabilities (bGlOSS, CORI) use d_k/|D| directly (factor 1).
        Scorers in the term-frequency regime (LM) override this with the
        summary's observed tf/df ratio, so hypothetical scores are
        commensurate with the smoothing background p(w|G).
        """
        return 1.0

    def scale(self, summary: ContentSummary) -> float:
        """The query-independent factor of the score (e.g. |D| for bGlOSS)."""
        return 1.0

    def combine(
        self, word_scores: Sequence[float], summary: ContentSummary
    ) -> float:
        """Recombine per-word score components into a full score.

        The default follows ``word_decomposition``; scorers with extra
        normalization (CORI's division by |q|) override this. Used by the
        adaptive algorithm when it rescores a database under hypothetical
        document frequencies.
        """
        if self.word_decomposition == "product":
            value = self.scale(summary)
            for word_score in word_scores:
                value *= word_score
            return value
        if self.word_decomposition == "sum":
            return self.scale(summary) * sum(word_scores)
        raise NotImplementedError(
            "scorers without word decomposition must override combine"
        )

    def floor_score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        """The score if no query word appeared in the summary at all."""
        if self.word_decomposition == "product":
            value = self.scale(summary)
            for word in query_terms:
                value *= self.word_score(0.0, summary, word)
            return value
        if self.word_decomposition == "sum":
            value = 0.0
            for word in query_terms:
                value += self.word_score(0.0, summary, word)
            return self.scale(summary) * value
        raise NotImplementedError(
            "scorers without word decomposition must override floor_score"
        )

    # -- engine hooks: one exact kernel, floors, top-k bounds -----------------

    def score_rows(
        self,
        query_terms: Sequence[str],
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        """Exact scores of a gathered (rows, words) probability block.

        The scorer's one exact kernel. ``probabilities`` holds, per row,
        the ``scored_lookup`` of the query's words in :attr:`topk_regime`;
        ``sizes`` and ``cw`` are the rows' |D| and cw(D) proxy. The
        engines gather the block — every row of a fixed or mixed set for
        a full scan, the surviving rows for a pruned scan — and the
        kernel folds it word by word in the scalar :meth:`score` order,
        so each row's score is bit-for-bit the serial one whatever rows
        share the block (elementwise IEEE-754 arithmetic does not depend
        on the array's shape). ``i_values``/``mean_cw`` carry a mixed
        set's corpus statistics (see :meth:`mixed_context`); without
        them a scorer that needs them uses its prepared ones.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no batched scoring kernel"
        )

    def batch_floor_scores(
        self, query_terms: Sequence[str], matrix: SummarySetMatrix
    ) -> np.ndarray:
        """Floor scores for every database at once (aligned with
        ``matrix.names``), bit-for-bit the scalar :meth:`floor_score`."""
        raise NotImplementedError(
            f"{type(self).__name__} has no batched floor scores"
        )

    def mixed_context(
        self,
        query_terms: Sequence[str],
        engine: AdaptiveBatchEngine,
        mask: np.ndarray,
    ) -> dict:
        """Corpus statistics of the per-query plain/shrunk mix, as keyword
        arguments for :meth:`score_rows` and :meth:`topk_group_bounds`.

        ``mask`` selects the shrunk row per database. Statistics must be
        what a fresh ``prepare`` on the materialized mixed dict computes
        (CORI's I factors and mcw); scorers whose statistics do not depend
        on the set need none.
        """
        return {}

    def topk_group_bounds(
        self,
        query_terms: Sequence[str],
        pmax: np.ndarray,
        size_ub: np.ndarray,
        cw_lb: np.ndarray | None = None,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        """Score upper bounds from per-word probability upper bounds.

        ``pmax`` is a (candidates, words) matrix of per-word maximum
        probabilities (over a group of rows, or per-row refinements);
        ``size_ub`` / ``cw_lb`` bound the group's |D| from above and cw(D)
        from below. The returned array must dominate — as IEEE-754
        floats — the exact score of every row the bounds cover, and a row
        of all-zero ``pmax`` must fold to *exactly* the scorer's floor
        (the top-k engine's zero-overlap elimination depends on that
        equality). Scorers the top-k engine supports override this.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support top-k bounds"
        )


def rank_databases(
    scorer: DatabaseScorer,
    query_terms: Sequence[str],
    summaries: Mapping[str, ContentSummary],
    prepare: bool = True,
) -> list[RankedDatabase]:
    """Score and rank all databases for a query (highest score first).

    Databases at their floor score are marked unselected; ties break on
    database name so rankings are deterministic.
    """
    # Local import: repro.evaluation reaches back into the selection
    # package at init time (see the note in shrinkage._em_core).
    from repro.evaluation.instrument import get_instrumentation

    start = time.perf_counter()
    if prepare:
        scorer.prepare(summaries)
    ranking: list[RankedDatabase] = []
    for name in sorted(summaries):
        summary = summaries[name]
        score = scorer.score(query_terms, summary)
        floor = scorer.floor_score(query_terms, summary)
        # Strict comparison: a database whose summary contains none of the
        # query words computes *exactly* the floor expression (bit-for-bit),
        # while any matching word strictly increases the score. A tolerance
        # would misclassify the legitimately tiny products long multiplicative
        # queries produce.
        ranking.append(
            RankedDatabase(name=name, score=score, selected=score > floor)
        )
    ranking.sort(key=lambda entry: (-entry.score, entry.name))
    get_instrumentation().observe(
        f"rank.seconds.{scorer.name}", time.perf_counter() - start
    )
    return ranking


def select_databases(
    scorer: DatabaseScorer,
    query_terms: Sequence[str],
    summaries: Mapping[str, ContentSummary],
    k: int,
) -> list[str]:
    """The (at most ``k``) selected database names, best first."""
    ranking = rank_databases(scorer, query_terms, summaries)
    return [entry.name for entry in ranking if entry.selected][:k]
