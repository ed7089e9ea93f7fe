"""CORI database selection — French et al. [10] / Callan et al. [4].

    s(q, D) = sum_{w in q} (0.4 + 0.6 * T * I) / |q|

    T = (p(w|D) * |D|) / (p(w|D) * |D| + 50 + 150 * cw(D) / mcw)
    I = log((m + 0.5) / cf(w)) / log(m + 1.0)

where ``cf(w)`` is the number of candidate databases containing ``w``,
``m`` the number of candidate databases, ``cw(D)`` the database's word
count, and ``mcw`` the mean ``cw`` across candidates.

Paper-specific details implemented here (Section 5.3):

* With shrinkage, every word has non-zero probability in every summary, so
  the naive ``cf(w)`` would saturate at ``m``. A word counts as *present*
  in a shrunk summary only when ``round(|D| * pR(w|D)) >= 1``.
* Content summaries carry document frequencies, not collection lengths, so
  ``cw(D)`` is approximated by the total estimated document-frequency mass
  ``sum_w round(|D| * p(w|D))`` — a consistent proxy across databases
  (exact collection lengths are not available to a metasearcher either).

``prepare`` is columnar: when all candidate summaries share one
:class:`~repro.core.vocab.Vocabulary` (the normal case — one instance per
testbed cell), cf is accumulated as a dense per-id count array with one
fancy-indexed add per summary; a dict fallback covers mixed-vocabulary
candidate sets (e.g. summaries deserialized independently). The per-word
``I`` factors still go through ``math.log`` so scores agree bit-for-bit
with the scalar formulation.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.lru import MISSING, LruCache
from repro.core.shrinkage import ShrunkSummary
from repro.core.vocab import Vocabulary
from repro.selection.base import DatabaseScorer
from repro.summaries.summary import ContentSummary

if TYPE_CHECKING:
    from repro.selection.batch import AdaptiveBatchEngine, SummarySetMatrix

#: Bound on the per-query I-factor cache (see base.QUERY_IDS_CACHE_SIZE).
_I_CACHE_SIZE = 512

#: Multiplicative slack on the top-k T upper bound. T = df / (df + c) is
#: monotone in df and anti-monotone in c in *real* arithmetic, but its
#: numerator and denominator round independently, so the computed bound
#: can undershoot a covered row's computed T by a few ulp. 1e-9 dwarfs
#: that ~1e-15 relative error while preserving exact zeros (0 * guard
#: == 0, keeping the all-zero bound fold exactly equal to the floor).
_T_BOUND_GUARD = 1.0 + 1e-9


def _present_ids(summary: ContentSummary) -> np.ndarray:
    """Ids counted as present for cf purposes (the round rule for R(D))."""
    if isinstance(summary, ShrunkSummary):
        return summary.effective_ids()
    return summary.regime_arrays("df")[0]


def _present_words(summary: ContentSummary) -> set[str]:
    """Words counted as present for cf purposes (the round rule for R(D))."""
    if isinstance(summary, ShrunkSummary):
        return summary.effective_words()
    return summary.words()


class CoriScorer(DatabaseScorer):
    """The CORI scorer (document-frequency regime)."""

    name = "CORI"
    word_decomposition = "sum"
    topk_regime = "df"

    def __init__(self, df_base: float = 50.0, df_factor: float = 150.0) -> None:
        self.df_base = df_base
        self.df_factor = df_factor
        self._cf: dict[str, int] = {}
        self._cf_vocab: Vocabulary | None = None
        self._cf_counts: np.ndarray | None = None
        self._num_databases = 0
        self._mean_cw = 1.0
        self._cw: dict[int, float] = {}
        self._i_cache = LruCache(_I_CACHE_SIZE)

    def prepare(self, summaries: Mapping[str, ContentSummary]) -> None:
        """Compute cf(w), m and mcw over the candidate summaries."""
        self._cf = {}
        self._cf_vocab = None
        self._cf_counts = None
        self._num_databases = len(summaries)
        self._cw = {}
        self._i_cache = LruCache(_I_CACHE_SIZE)
        total_cw = 0.0
        vocabs = {id(s.vocab): s.vocab for s in summaries.values()}
        shared = next(iter(vocabs.values())) if len(vocabs) == 1 else None
        if shared is not None:
            counts = np.zeros(len(shared), dtype=np.int64)
            for summary in summaries.values():
                cw = self._collection_words(summary)
                self._cw[id(summary)] = cw
                total_cw += cw
                counts[_present_ids(summary)] += 1
            self._cf_vocab = shared
            self._cf_counts = counts
        else:
            for summary in summaries.values():
                cw = self._collection_words(summary)
                self._cw[id(summary)] = cw
                total_cw += cw
                for word in _present_words(summary):
                    self._cf[word] = self._cf.get(word, 0) + 1
        self._mean_cw = (
            total_cw / self._num_databases if self._num_databases else 1.0
        )
        if self._mean_cw <= 0:
            self._mean_cw = 1.0

    @staticmethod
    def _collection_words(summary: ContentSummary) -> float:
        """cw(D) proxy: total estimated document-frequency mass."""
        return summary.df_mass()

    def _cf_count(self, word: str) -> int:
        """cf(w) from the dense array (shared vocab) or the dict fallback."""
        if self._cf_counts is not None and self._cf_vocab is not None:
            word_id = self._cf_vocab.get(word)
            if word_id is None or word_id >= self._cf_counts.size:
                return 0
            return int(self._cf_counts[word_id])
        return self._cf.get(word, 0)

    def _i_values(self, query_terms: tuple[str, ...]) -> np.ndarray:
        """Per-word I factors; cf(w) and m are fixed between prepares, so
        the array is cached per query."""
        cached = self._i_cache.get(query_terms, MISSING)
        if cached is MISSING:
            m = self._num_databases
            denominator = math.log(m + 1.0)
            cached = np.array(
                [
                    math.log((m + 0.5) / max(self._cf_count(word), 1))
                    / denominator
                    for word in query_terms
                ],
                dtype=np.float64,
            )
            self._i_cache.put(query_terms, cached)
        return cached

    def _database_cw(self, summary: ContentSummary) -> float:
        cw = self._cw.get(id(summary))
        if cw is None:
            cw = self._collection_words(summary)
        return cw

    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        if not query_terms:
            return 0.0
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        probabilities = self.query_vector(query_terms, summary, "df")
        document_frequency = probabilities * summary.size
        cw = self._database_cw(summary)
        t_values = document_frequency / (
            document_frequency
            + self.df_base
            + self.df_factor * cw / self._mean_cw
        )
        i_values = self._i_values(tuple(query_terms))
        word_scores = 0.4 + 0.6 * t_values * i_values
        # Sequential reduction keeps the sum bit-identical to the scalar
        # per-word loop (numpy's pairwise summation would not be), which
        # the exact floor comparison in rank_databases depends on.
        total = 0.0
        for word_score in word_scores.tolist():
            total += word_score
        return total / len(query_terms)

    def word_score(
        self, probability: float, summary: ContentSummary, word: str
    ) -> float:
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        document_frequency = probability * summary.size
        cw = self._database_cw(summary)
        t_value = document_frequency / (
            document_frequency + self.df_base + self.df_factor * cw / self._mean_cw
        )
        cf = max(self._cf_count(word), 1)
        i_value = math.log((self._num_databases + 0.5) / cf) / math.log(
            self._num_databases + 1.0
        )
        return 0.4 + 0.6 * t_value * i_value

    def word_score_vector(
        self, probabilities: np.ndarray, summary: ContentSummary, word: str
    ) -> np.ndarray:
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        probabilities = np.asarray(probabilities, dtype=np.float64)
        document_frequency = probabilities * summary.size
        cw = self._database_cw(summary)
        t_values = document_frequency / (
            document_frequency + self.df_base + self.df_factor * cw / self._mean_cw
        )
        cf = max(self._cf_count(word), 1)
        i_value = math.log((self._num_databases + 0.5) / cf) / math.log(
            self._num_databases + 1.0
        )
        return 0.4 + 0.6 * t_values * i_value

    def moment_key(self, word: str) -> int:
        # I(w) depends on the word only through cf(w).
        return max(self._cf_count(word), 1)

    def scale(self, summary: ContentSummary) -> float:
        return 1.0

    def combine(
        self, word_scores: Sequence[float], summary: ContentSummary
    ) -> float:
        if not word_scores:
            return 0.0
        return sum(word_scores) / len(word_scores)

    def floor_score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        """With T = 0 every word contributes exactly 0.4 / |q|.

        The accumulation mirrors :meth:`score`'s reduction operation by
        operation: ``sum_w 0.4 / |q|`` is *not* exactly 0.4 in floating
        point for every query length (e.g. three words give
        0.4000000000000001), and the default-score rule compares
        ``score > floor`` strictly, so returning the literal 0.4 would
        mark zero-overlap databases as selected on such queries.
        """
        if not query_terms:
            return 0.0
        total = 0.0
        for _word in query_terms:
            total += 0.4
        return total / len(query_terms)

    def _floor_array(
        self, query_terms: Sequence[str], count: int
    ) -> np.ndarray:
        """The (database-independent) floor, replicated across ``count``."""
        total = 0.0
        for _word in query_terms:
            total += 0.4
        return np.full(count, total / len(query_terms), dtype=np.float64)

    @staticmethod
    def _fold_mean(word_scores: np.ndarray, query_length: int) -> np.ndarray:
        """Word-sequential sum fold, then the / |q| normalization."""
        totals = np.zeros(word_scores.shape[0], dtype=np.float64)
        for column in word_scores.T:
            totals = totals + column
        return totals / query_length

    def _t_matrix(
        self,
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray,
        mean_cw: float,
    ) -> np.ndarray:
        """T over a (databases, words) probability matrix, with the scalar
        path's exact operation order (df + base, then + factor*cw/mcw)."""
        document_frequency = probabilities * sizes[:, None]
        return document_frequency / (
            document_frequency
            + self.df_base
            + (self.df_factor * cw / mean_cw)[:, None]
        )

    def batch_floor_scores(
        self, query_terms: Sequence[str], matrix: SummarySetMatrix
    ) -> np.ndarray:
        if not query_terms:
            return np.zeros(len(matrix))
        return self._floor_array(query_terms, len(matrix))

    def batch_scores(
        self, query_terms: Sequence[str], matrix: SummarySetMatrix
    ) -> tuple[np.ndarray, np.ndarray]:
        count = len(matrix)
        if not query_terms:
            return np.zeros(count), np.zeros(count)
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        ids = matrix.query_ids(query_terms)
        probabilities = matrix.gather(ids, "df")
        cw = np.array(
            [self._database_cw(s) for s in matrix.summaries],
            dtype=np.float64,
        )
        t_values = self._t_matrix(probabilities, matrix.sizes, cw, self._mean_cw)
        i_values = self._i_values(tuple(query_terms))
        word_scores = 0.4 + 0.6 * t_values * i_values
        scores = self._fold_mean(word_scores, len(query_terms))
        return scores, self._floor_array(query_terms, count)

    def batch_scores_mixed(
        self,
        query_terms: Sequence[str],
        engine: AdaptiveBatchEngine,
        mask: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mixed-set CORI: cf, cw and mcw are recomputed for the per-query
        plain/shrunk row choice, exactly as a fresh ``prepare`` on the
        materialized mixed dict would produce them."""
        count = len(engine)
        if not query_terms:
            return np.zeros(count), np.zeros(count)
        ids = engine.query_ids(query_terms)
        probabilities = engine.gather_mixed(ids, "df", mask)
        cw = engine.cw_mixed(mask)
        mean_cw = engine.mean_cw(mask)
        t_values = self._t_matrix(probabilities, engine.sizes, cw, mean_cw)
        denominator = math.log(count + 1.0)
        i_values = np.array(
            [
                math.log((count + 0.5) / max(cf, 1)) / denominator
                for cf in engine.cf_at(ids, mask).tolist()
            ],
            dtype=np.float64,
        )
        word_scores = 0.4 + 0.6 * t_values * i_values
        scores = self._fold_mean(word_scores, len(query_terms))
        return scores, self._floor_array(query_terms, count)

    # -- pruned top-k hooks ----------------------------------------------------

    def _mixed_i_values(
        self, engine: AdaptiveBatchEngine, ids: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Per-word I factors of the mixed set (same fold as the serial
        re-prepare on the materialized mixed dict)."""
        count = len(engine)
        denominator = math.log(count + 1.0)
        return np.array(
            [
                math.log((count + 0.5) / max(cf, 1)) / denominator
                for cf in engine.cf_at(ids, mask).tolist()
            ],
            dtype=np.float64,
        )

    def topk_mixed_context(
        self,
        query_terms: Sequence[str],
        engine: AdaptiveBatchEngine,
        mask: np.ndarray,
    ) -> dict:
        ids = engine.query_ids(query_terms)
        return {
            "i_values": self._mixed_i_values(engine, ids, mask),
            "mean_cw": engine.mean_cw(mask),
        }

    def topk_group_bounds(
        self,
        query_terms: Sequence[str],
        pmax: np.ndarray,
        size_ub: np.ndarray,
        cw_lb: np.ndarray | None = None,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        """Upper bounds via T(df_ub, cw_lb): T is increasing in df and
        decreasing in cw, and I > 0 always (cf <= m), so maximizing df
        and minimizing cw dominates every covered row; the guard absorbs
        the independent numerator/denominator rounding. All-zero pmax
        folds to exactly the 0.4-per-word floor."""
        if i_values is None:
            if self._num_databases == 0:
                raise RuntimeError(
                    "CoriScorer.prepare must run before scoring"
                )
            i_values = self._i_values(tuple(query_terms))
        if mean_cw is None:
            mean_cw = self._mean_cw
        if cw_lb is None:
            raise ValueError("CORI top-k bounds need a cw lower bound")
        document_frequency = pmax * size_ub[:, None]
        t_bounds = document_frequency / (
            document_frequency
            + self.df_base
            + (self.df_factor * cw_lb / mean_cw)[:, None]
        )
        t_bounds = t_bounds * _T_BOUND_GUARD
        word_bounds = 0.4 + 0.6 * t_bounds * i_values
        return self._fold_mean(word_bounds, len(query_terms))

    def batch_scores_rows(
        self,
        query_terms: Sequence[str],
        matrix: SummarySetMatrix,
        rows: np.ndarray,
    ) -> np.ndarray:
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        ids = matrix.query_ids(query_terms)
        probabilities = matrix.gather_rows(rows, ids, "df")
        cw = np.array(
            [
                self._database_cw(matrix.summaries[row])
                for row in np.asarray(rows).tolist()
            ],
            dtype=np.float64,
        )
        t_values = self._t_matrix(
            probabilities, matrix.sizes[rows], cw, self._mean_cw
        )
        i_values = self._i_values(tuple(query_terms))
        word_scores = 0.4 + 0.6 * t_values * i_values
        return self._fold_mean(word_scores, len(query_terms))

    def batch_scores_mixed_rows(
        self,
        query_terms: Sequence[str],
        engine: AdaptiveBatchEngine,
        mask: np.ndarray,
        rows: np.ndarray,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        ids = engine.query_ids(query_terms)
        probabilities = engine.gather_mixed_rows(rows, ids, "df", mask)
        cw = engine.cw_mixed(mask)[rows]
        if mean_cw is None:
            mean_cw = engine.mean_cw(mask)
        if i_values is None:
            i_values = self._mixed_i_values(engine, ids, mask)
        t_values = self._t_matrix(
            probabilities, engine.sizes[rows], cw, mean_cw
        )
        word_scores = 0.4 + 0.6 * t_values * i_values
        return self._fold_mean(word_scores, len(query_terms))
