"""Adaptive use of shrinkage during database selection (Section 4, App. B).

Shrinkage should only replace a database's own summary when the score that
the selection algorithm would assign is *uncertain*. The uncertainty model:

* The database sample ``S`` (size ``|S|``) showed query word ``w_k`` in
  ``s_k`` documents. The unknown true document frequency ``d_k`` then has
  posterior  ``p(d_k | s_k) ∝ p(s_k | d_k) * p(d_k)`` with

  - ``p(s_k | d_k)``: binomial — each of the ``|S|`` sampled documents
    contains ``w_k`` independently with probability ``d_k / |D|``;
  - ``p(d_k)``: a power-law prior ``d_k ** gamma`` with
    ``gamma = 1 / alpha - 1`` where ``alpha`` is the database's Mandelbrot
    rank-frequency exponent (Appendix A / [1]). The support starts at
    ``d_k = 1``: the paper's Equation 3 sums over frequencies of words
    that exist in the collection vocabulary.

* Drawing ``d_1..d_n`` combinations from these posteriors induces a
  distribution over scores ``s(q, D)``. When its standard deviation
  exceeds its mean, the sampled summary is deemed unreliable and the
  shrunk summary R(D) is used instead (Figure 3).

The scorer must decompose over query words (all three in the paper do —
bGlOSS and LM multiply per-word factors, CORI averages them): the mean and
variance are then computed *analytically* from per-word moments, the fast
path Section 4 describes. The Monte-Carlo estimate over sampled
d_1..d_n combinations survives as the test oracle for this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.lru import MISSING
from repro.summaries.summary import SampledSummary


@dataclass(frozen=True)
class AdaptiveConfig:
    """Parameters of the score-distribution model."""

    #: Prior exponent used when the sample has no usable Mandelbrot fit.
    default_gamma: float = -2.0
    #: Cap on the posterior support size; larger databases use a geometric
    #: grid of this many points (posteriors are smooth in log d).
    max_support: int = 4000


@dataclass(frozen=True)
class AdaptiveDecision:
    """Outcome of the content-summary-selection step for one (q, D) pair.

    ``floor`` is the score the algorithm assigns when no query word is in
    the summary at all. The uncertainty test compares the score
    distribution's standard deviation against the *excess* mean above this
    floor: scorers like CORI add a constant 0.4 belief per word, which is
    certainty about nothing — counting it as "mean" would make the
    paper's std > mean rule unsatisfiable for CORI (whose scores live in
    [0.4, 1]) while Table 10 reports CORI applying shrinkage for 13–17% of
    the pairs.
    """

    use_shrinkage: bool
    mean: float
    std: float
    floor: float = 0.0


class ScoreDistributionModel:
    """Posterior over s(q, D) induced by document-frequency uncertainty."""

    def __init__(
        self,
        summary: SampledSummary,
        config: AdaptiveConfig | None = None,
        moment_cache: dict | None = None,
        posterior_cache: dict | None = None,
    ) -> None:
        self.summary = summary
        self.config = config or AdaptiveConfig()
        #: Optional cache of per-word score moments, keyed by (scorer name,
        #: s_k, ``scorer.moment_key(word)``): the moments are a function of
        #: the posterior (fixed by s_k) and of the one per-word statistic
        #: ``word_score_vector`` reads, so words agreeing on both share an
        #: entry. Sound as long as the scorer's corpus-level statistics
        #: stay fixed, which holds within one summary set.
        self.moment_cache = moment_cache
        #: Optional cache of posteriors keyed by s_k (everything else the
        #: posterior depends on is fixed per model).
        self.posterior_cache = posterior_cache
        # The posterior support grid depends only on |D|, which is fixed
        # per model; every query word reuses the same grid and its
        # word-independent log terms.
        self._grid_cache: tuple[int, tuple[np.ndarray, ...]] | None = None

    @property
    def gamma(self) -> float:
        """Power-law prior exponent: gamma = 1/alpha - 1 (Appendix B)."""
        alpha = self.summary.alpha
        if alpha is None or alpha >= -1e-6:
            return self.config.default_gamma
        return 1.0 / alpha - 1.0

    def observed_count(self, word: str) -> int:
        """s_k: sampled documents holding ``word``, capped at |S|."""
        return min(self.summary.sample_frequency(word), self.summary.sample_size)

    def word_posterior(self, word: str) -> tuple[np.ndarray, np.ndarray]:
        """(support, probabilities) of the true document frequency of ``word``."""
        return self.posterior(self.observed_count(word))

    def posterior(self, observed: int) -> tuple[np.ndarray, np.ndarray]:
        """(support, probabilities) of d given s_k = ``observed``.

        Cached arrays are read-only: every caller shares them.
        """
        cache = self.posterior_cache
        if cache is not None:
            cached = cache.get(observed, MISSING)
            if cached is not MISSING:
                return cached
        database_size = max(int(round(self.summary.size)), 1)
        misses = self.summary.sample_size - observed

        support, log_support, log_ratio, log_miss, log_widths = self._grid(
            database_size
        )
        log_weights = self.gamma * log_support + observed * log_ratio
        if misses:
            # With no misses the binomial's miss factor is (1 - d/|D|)^0 = 1
            # everywhere, d = |D| included (0 * log 0 = 0), so it is left out.
            log_weights = log_weights + misses * log_miss
        if log_widths is not None:
            log_weights += log_widths
        if not np.any(np.isfinite(log_weights)):
            # Degenerate (e.g. |D| = 1 and the sample missed the word):
            # put all mass on the largest support value.
            probabilities = np.zeros_like(support, dtype=float)
            probabilities[-1] = 1.0
        else:
            log_weights -= log_weights.max()
            weights = np.exp(log_weights)
            probabilities = weights / weights.sum()
        probabilities.flags.writeable = False
        result = (support, probabilities)
        if cache is not None:
            cache[observed] = result
        return result

    def _support(self, database_size: int) -> np.ndarray:
        if database_size <= self.config.max_support:
            return np.arange(1, database_size + 1, dtype=np.float64)
        grid = np.unique(
            np.round(
                np.geomspace(1, database_size, self.config.max_support)
            ).astype(np.int64)
        )
        return grid.astype(np.float64)

    def _grid(self, database_size: int) -> tuple[np.ndarray, ...]:
        """Support grid plus its word-independent log terms, cached.

        Returns ``(support, log(support), log(d/|D|), log1p(-d/|D|),
        log_widths-or-None)``; only the binomial exponents vary per word,
        so everything else is computed once per model.
        """
        cached = self._grid_cache
        if cached is not None and cached[0] == database_size:
            return cached[1]
        support = self._support(database_size)
        ratio = support / database_size
        with np.errstate(divide="ignore"):
            log_support = np.log(support)
            log_ratio = np.log(ratio)
            log_miss = np.log1p(-np.clip(ratio, 0.0, 1.0))
        log_widths = None
        if support.size > 1 and support.size < database_size:
            # Geometric grid: weight each point by the width of the stretch
            # of integers it represents, so the subsampled posterior is an
            # unbiased quadrature of the dense one.
            widths = np.empty_like(support)
            widths[1:-1] = (support[2:] - support[:-2]) / 2.0
            widths[0] = (support[1] - support[0] + 1) / 2.0
            widths[-1] = (support[-1] - support[-2] + 1) / 2.0
            log_widths = np.log(widths)
        grid = (support, log_support, log_ratio, log_miss, log_widths)
        self._grid_cache = (database_size, grid)
        return grid

    # -- analytic moments ------------------------------------------------------

    def decide(
        self, scorer, query_terms: Sequence[str], floor: float | None = None
    ) -> AdaptiveDecision:
        """The content-summary-selection step of Figure 3 for this database.

        ``floor`` must equal ``scorer.floor_score(query_terms, summary)``
        bit-for-bit when given (batched callers compute all floors at once).
        """
        mean, std = self.score_moments(scorer, query_terms)
        if floor is None:
            floor = scorer.floor_score(query_terms, self.summary)
        return AdaptiveDecision(
            use_shrinkage=std > mean - floor, mean=mean, std=std, floor=floor
        )

    def score_moments(
        self, scorer, query_terms: Sequence[str]
    ) -> tuple[float, float]:
        """Mean and standard deviation of s(q, D) under the posterior."""
        if scorer.word_decomposition not in ("product", "sum"):
            raise TypeError(
                f"{type(scorer).__name__} has no word decomposition; the "
                "adaptive model needs per-word score moments"
            )
        return self._analytic_moments(scorer, query_terms)

    def _word_score_moments(
        self, scorer, word: str
    ) -> tuple[float, float]:
        """E[g] and E[g^2] of the per-word score component."""
        observed = self.observed_count(word)
        cache = self.moment_cache
        if cache is not None:
            key = (scorer.name, observed, scorer.moment_key(word))
            cached = cache.get(key, MISSING)
            if cached is not MISSING:
                return cached
        support, probabilities = self.posterior(observed)
        database_size = max(self.summary.size, 1.0)
        scale = scorer.hypothetical_probability_scale(self.summary)
        values = scorer.word_score_vector(
            support * (scale / database_size), self.summary, word
        )
        mean = float(np.dot(probabilities, values))
        second = float(np.dot(probabilities, values**2))
        if cache is not None:
            cache[key] = (mean, second)
        return mean, second

    def _analytic_moments(
        self, scorer, query_terms: Sequence[str]
    ) -> tuple[float, float]:
        """Exploit per-word independence (the fast path of Section 4)."""
        firsts: list[float] = []
        seconds: list[float] = []
        for word in query_terms:
            first, second = self._word_score_moments(scorer, word)
            firsts.append(first)
            seconds.append(second)
        if scorer.word_decomposition == "product":
            scale = scorer.scale(self.summary)
            mean = scale * math.prod(firsts)
            mean_square = scale**2 * math.prod(seconds)
        else:  # sum: combine() handles normalization (e.g. CORI's /|q|)
            if not query_terms:
                return 0.0, 0.0
            mean = scorer.combine(firsts, self.summary)
            # combine(scores) = factor * sum(scores) for a linear combine;
            # recover the factor to scale the aggregated deviation.
            factor = scorer.combine([1.0] * len(query_terms), self.summary) / len(
                query_terms
            )
            deviations = [
                math.sqrt(max(second - first**2, 0.0))
                for first, second in zip(firsts, seconds)
            ]
            # Per-word deviations add linearly: the Cauchy–Schwarz upper
            # bound, exact under maximal correlation. In quadrature
            # (independence) the aggregate std shrinks as 1/sqrt(|q|) while
            # the mean does not, so std > mean could never fire for
            # multi-word queries on a floor-bounded scorer — yet Table 10
            # reports CORI applying shrinkage for 13–17% of pairs. The
            # linear bound flags uncertainty when the *per-word* estimates
            # are individually unreliable (DESIGN.md §5).
            return mean, factor * sum(deviations)
        variance = mean_square - mean**2
        return mean, math.sqrt(max(variance, 0.0))


def decide_summary(
    scorer,
    query_terms: Sequence[str],
    sampled_summary: SampledSummary,
    config: AdaptiveConfig | None = None,
    floor: float | None = None,
) -> AdaptiveDecision:
    """The content-summary-selection step of Figure 3 for one database.

    Returns the decision to use the shrunk summary (score distribution has
    standard deviation larger than its mean in excess of the floor score)
    together with the computed moments. ``floor`` short-circuits the floor
    computation when the caller already has it (the batched engine computes
    floors for all databases at once); it must equal
    ``scorer.floor_score(query_terms, sampled_summary)`` bit-for-bit.
    """
    return ScoreDistributionModel(sampled_summary, config).decide(
        scorer, query_terms, floor
    )
