"""bGlOSS database selection — Gravano et al. [13].

Databases are ranked by the expected number of query matches under a
word-independence assumption:

    s(q, D) = |D| * prod_{w in q} p(w|D)

bGlOSS has no built-in smoothing: a single query word missing from the
summary zeroes the whole score. This is exactly why the paper finds that
*universal* shrinkage helps bGlOSS even where it hurts CORI and LM
(Section 6.2, "Adaptive vs. Universal Application of Shrinkage").
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.selection.base import DatabaseScorer
from repro.summaries.summary import ContentSummary

if TYPE_CHECKING:
    from repro.selection.batch import SummarySetMatrix


class BGlossScorer(DatabaseScorer):
    """The bGlOSS scorer (document-frequency regime)."""

    name = "bGlOSS"
    word_decomposition = "product"
    topk_regime = "df"

    def score(
        self, query_terms: Sequence[str], summary: ContentSummary
    ) -> float:
        # One vectorized probability lookup; the product is reduced
        # sequentially in Python so scores stay bit-identical to the
        # per-word formulation (the floor comparison in rank_databases
        # relies on exact equality).
        score = self.scale(summary)
        for probability in self.query_vector(query_terms, summary, "df").tolist():
            score *= probability
        return score

    def word_score(
        self, probability: float, summary: ContentSummary, word: str
    ) -> float:
        return probability

    def word_score_vector(
        self, probabilities: np.ndarray, summary: ContentSummary, word: str
    ) -> np.ndarray:
        return np.asarray(probabilities, dtype=np.float64)

    def moment_key(self, word: str) -> None:
        # The per-word score is the probability itself.
        return None

    def scale(self, summary: ContentSummary) -> float:
        return summary.size

    def score_rows(
        self,
        query_terms: Sequence[str],
        probabilities: np.ndarray,
        sizes: np.ndarray,
        cw: np.ndarray,
        i_values: np.ndarray | None = None,
        mean_cw: float | None = None,
    ) -> np.ndarray:
        # |D| times each word's probability, word-sequential like score().
        scores = sizes.copy()
        for column in probabilities.T:
            scores = scores * column
        return scores

    def batch_floor_scores(
        self, query_terms: Sequence[str], matrix: SummarySetMatrix
    ) -> np.ndarray:
        # The scalar floor fold is |D| * 0.0 * ... * 0.0 — exactly +0.0
        # after the first word — and just |D| for the empty query.
        if query_terms:
            return np.zeros(len(matrix), dtype=np.float64)
        return matrix.sizes.copy()

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
        # |D| * prod p(w|D) is monotone in every input and rounding is
        # monotone per operation, so the exact kernel evaluated at the
        # per-word maxima dominates every covered row's score; a zero
        # pmax column zeroes the bound exactly like the floor fold.
        return self.score_rows(query_terms, pmax, size_ub, cw_lb)
