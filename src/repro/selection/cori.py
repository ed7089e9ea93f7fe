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

``prepare`` is columnar: cf is accumulated as a dense per-id count array
with one fancy-indexed add per summary, over the candidates' shared
:class:`~repro.core.vocab.Vocabulary` (the normal case — one instance per
testbed cell) or, for a set spanning several vocabularies (e.g. summaries
deserialized independently), over one built from the set's present words.
The per-word ``I`` factors still go through ``math.log`` so scores agree
bit-for-bit with the scalar formulation.
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


def _i_factors(cf: Sequence[int], m: int) -> np.ndarray:
    """I = log((m + 0.5) / cf) / log(m + 1) per word (cf floored at 1)."""
    denominator = math.log(m + 1.0)
    return np.array(
        [math.log((m + 0.5) / max(count, 1)) / denominator for count in cf],
        dtype=np.float64,
    )


class CoriScorer(DatabaseScorer):
    """The CORI scorer (document-frequency regime)."""

    name = "CORI"
    word_decomposition = "sum"
    topk_regime = "df"

    def __init__(self, df_base: float = 50.0, df_factor: float = 150.0) -> None:
        self.df_base = df_base
        self.df_factor = df_factor
        self._cf_vocab = Vocabulary()
        self._cf_counts = np.zeros(0, dtype=np.int64)
        self._num_databases = 0
        self._mean_cw = 1.0
        self._i_cache = LruCache(_I_CACHE_SIZE)

    def prepare(self, summaries: Mapping[str, ContentSummary]) -> None:
        """Compute cf(w), m and mcw over the candidate summaries.

        cf is counted over one id space: the summaries' shared vocabulary,
        or a fresh one interning every present word of a set that spans
        several.
        """
        vocabs = {id(s.vocab): s.vocab for s in summaries.values()}
        if len(vocabs) == 1:
            vocab = next(iter(vocabs.values()))
            present = [_present_ids(s) for s in summaries.values()]
        else:
            vocab = Vocabulary()
            present = [
                vocab.intern_many(s.vocab.words_of(_present_ids(s)))
                for s in summaries.values()
            ]
        counts = np.zeros(len(vocab), dtype=np.int64)
        for ids in present:
            counts[ids] += 1
        total_cw = 0.0
        for summary in summaries.values():
            total_cw += summary.df_mass()
        self._cf_vocab = vocab
        self._cf_counts = counts
        self._num_databases = len(summaries)
        self._i_cache = LruCache(_I_CACHE_SIZE)
        self._mean_cw = (
            total_cw / self._num_databases if self._num_databases else 1.0
        )
        if self._mean_cw <= 0:
            self._mean_cw = 1.0

    def _cf_count(self, word: str) -> int:
        """cf(w) over the prepared set (0 for a word no candidate has)."""
        word_id = self._cf_vocab.get(word)
        if word_id is None or word_id >= self._cf_counts.size:
            return 0
        return int(self._cf_counts[word_id])

    def _i_values(self, query_terms: tuple[str, ...]) -> np.ndarray:
        """Per-word I factors; cf(w) and m are fixed between prepares, so
        the array is cached per query."""
        cached = self._i_cache.get(query_terms, MISSING)
        if cached is MISSING:
            cached = _i_factors(
                [self._cf_count(word) for word in query_terms],
                self._num_databases,
            )
            self._i_cache.put(query_terms, cached)
        return cached

    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        if not query_terms:
            return 0.0
        if self._num_databases == 0:
            raise RuntimeError("CoriScorer.prepare must run before scoring")
        probabilities = self.query_vector(query_terms, summary, "df")
        document_frequency = probabilities * summary.size
        cw = summary.df_mass()
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
        cw = summary.df_mass()
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
        cw = summary.df_mass()
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

    @staticmethod
    def _fold_t(t_values: np.ndarray, i_values: np.ndarray) -> np.ndarray:
        """0.4 + 0.6 T I per word, summed word-sequentially, then / |q|."""
        word_scores = 0.4 + 0.6 * t_values * i_values
        totals = np.zeros(word_scores.shape[0], dtype=np.float64)
        for column in word_scores.T:
            totals = totals + column
        return totals / word_scores.shape[1]

    def _statistics(
        self,
        query_terms: Sequence[str],
        i_values: np.ndarray | None,
        mean_cw: float | None,
    ) -> tuple[np.ndarray, float]:
        """The given mixed-set I factors and mcw, else the prepared (or,
        in a cluster shard, frozen universe-wide) ones."""
        if i_values is None:
            if self._num_databases == 0:
                raise RuntimeError("CoriScorer.prepare must run before scoring")
            i_values = self._i_values(tuple(query_terms))
        return i_values, self._mean_cw if mean_cw is None else mean_cw

    def score_rows(
        self,
        query_terms: Sequence[str],
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        if not query_terms:
            return np.zeros(probabilities.shape[0], dtype=np.float64)
        i_values, mean_cw = self._statistics(query_terms, i_values, mean_cw)
        return self._fold_t(
            self._t_matrix(probabilities, sizes, cw, mean_cw), i_values
        )

    def batch_floor_scores(
        self, query_terms: Sequence[str], matrix: SummarySetMatrix
    ) -> np.ndarray:
        # The floor is database-independent: floor_score never reads the
        # summary.
        return np.full(
            len(matrix), self.floor_score(query_terms, None), dtype=np.float64
        )

    def mixed_context(
        self,
        query_terms: Sequence[str],
        engine: AdaptiveBatchEngine,
        mask: np.ndarray,
    ) -> dict:
        """cf and mcw of the mixed set, exactly as a fresh ``prepare`` on
        the materialized mixed dict computes them."""
        if not query_terms:
            return {}
        cf = engine.cf_at(engine.query_ids(query_terms), mask)
        return {
            "i_values": _i_factors(cf.tolist(), len(engine)),
            "mean_cw": engine.mean_cw(mask),
        }

    # -- pruned top-k hooks ----------------------------------------------------

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
        if cw_lb is None:
            raise ValueError("CORI top-k bounds need a cw lower bound")
        i_values, mean_cw = self._statistics(query_terms, i_values, mean_cw)
        t_bounds = self._t_matrix(pmax, size_ub, cw_lb, mean_cw)
        return self._fold_t(t_bounds * _T_BOUND_GUARD, i_values)
