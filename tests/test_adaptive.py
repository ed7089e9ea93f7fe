"""Tests for repro.core.adaptive (Section 4 / Appendix B)."""

import math

import numpy as np
import pytest

from repro.core.adaptive import (
    AdaptiveConfig,
    ScoreDistributionModel,
    decide_summary,
)
from repro.selection.base import DatabaseScorer
from repro.selection.bgloss import BGlossScorer
from repro.selection.cori import CoriScorer
from repro.selection.lm import LanguageModelScorer
from repro.selection.metasearcher import Metasearcher
from repro.summaries.summary import SampledSummary
from tests.conftest import make_tiny_hierarchy


def monte_carlo_moments(
    model,
    scorer,
    query_terms,
    rng=None,
    batch=100,
    max_combinations=600,
    tolerance=0.02,
):
    """The oracle for the analytic moments: draw d_1..d_n combinations
    from the per-word posteriors until the sample mean and standard
    deviation stabilize (Section 4's "a few hundred" combinations).

    ``batch`` combinations are drawn between convergence checks, up to
    ``max_combinations``; two checks agreeing within ``tolerance``
    (relative) stop the loop. Draws are batched per word — one
    ``rng.choice`` and one ``word_score_vector`` call per word per round.
    """
    rng = rng or np.random.default_rng(0)
    summary = model.summary
    database_size = max(summary.size, 1.0)
    scale = scorer.hypothetical_probability_scale(summary)
    posteriors = [model.word_posterior(word) for word in query_terms]

    samples: list[float] = []
    previous = None
    while len(samples) < max_combinations:
        columns = [
            scorer.word_score_vector(
                support[rng.choice(support.size, size=batch, p=probabilities)]
                * scale
                / database_size,
                summary,
                word,
            )
            for word, (support, probabilities) in zip(query_terms, posteriors)
        ]
        if columns:
            rows = np.stack(columns, axis=1).tolist()
        else:
            rows = [[] for _ in range(batch)]
        samples.extend(scorer.combine(word_scores, summary) for word_scores in rows)
        mean = float(np.mean(samples))
        std = float(np.std(samples))
        if previous is not None and all(
            math.isclose(now, before, rel_tol=tolerance, abs_tol=1e-12)
            for now, before in zip((mean, std), previous)
        ):
            break
        previous = (mean, std)
    return float(np.mean(samples)), float(np.std(samples))


def make_summary(size=1000, sample_size=100, sample_df=None, alpha=-1.0):
    if sample_df is None:
        sample_df = {"common": 60, "mid": 10, "rare": 1}
    df_probs = {w: c / sample_size for w, c in sample_df.items()}
    return SampledSummary(
        size=size,
        df_probs=df_probs,
        tf_probs=None,
        sample_size=sample_size,
        sample_df=sample_df,
        alpha=alpha,
    )


class TestGamma:
    def test_gamma_from_alpha(self):
        model = ScoreDistributionModel(make_summary(alpha=-1.0))
        assert model.gamma == pytest.approx(-2.0)

    def test_gamma_default_when_alpha_missing(self):
        model = ScoreDistributionModel(make_summary(alpha=None))
        assert model.gamma == pytest.approx(-2.0)

    def test_gamma_default_when_alpha_nonnegative(self):
        model = ScoreDistributionModel(make_summary(alpha=0.5))
        assert model.gamma == pytest.approx(-2.0)

    def test_gamma_appendix_b_formula(self):
        model = ScoreDistributionModel(make_summary(alpha=-0.8))
        assert model.gamma == pytest.approx(1.0 / -0.8 - 1.0)


class TestWordPosterior:
    def test_posterior_is_distribution(self):
        model = ScoreDistributionModel(make_summary())
        support, probs = model.word_posterior("mid")
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs >= 0)
        assert support.min() >= 1

    def test_posterior_mode_tracks_sample_frequency(self):
        summary = make_summary(size=1000, sample_size=100)
        model = ScoreDistributionModel(summary)
        support, probs = model.word_posterior("common")  # s_k = 60/100
        mean_d = float(np.dot(support, probs))
        # True document frequency should be near 60% of the database.
        assert 0.4 * 1000 <= mean_d <= 0.8 * 1000

    def test_unseen_word_posterior_concentrates_low(self):
        model = ScoreDistributionModel(make_summary())
        support, probs = model.word_posterior("neverqueried")  # s_k = 0
        mean_d = float(np.dot(support, probs))
        assert mean_d < 50  # far below |D| = 1000

    def test_rare_word_has_wider_relative_spread(self):
        model = ScoreDistributionModel(make_summary())
        def cv(word):
            support, probs = model.word_posterior(word)
            mean = float(np.dot(support, probs))
            var = float(np.dot(support**2, probs)) - mean**2
            return np.sqrt(max(var, 0.0)) / mean
        assert cv("rare") > cv("common")

    def test_geometric_grid_for_large_databases(self):
        summary = make_summary(size=100_000)
        model = ScoreDistributionModel(
            summary, AdaptiveConfig(max_support=500)
        )
        support, probs = model.word_posterior("mid")
        assert support.size <= 500
        assert probs.sum() == pytest.approx(1.0)

    def test_grid_and_dense_agree_on_moments(self):
        summary = make_summary(size=3000)
        dense = ScoreDistributionModel(summary, AdaptiveConfig(max_support=5000))
        coarse = ScoreDistributionModel(summary, AdaptiveConfig(max_support=300))
        for word in ("common", "mid", "rare"):
            ds, dp = dense.word_posterior(word)
            cs, cp = coarse.word_posterior(word)
            dense_mean = float(np.dot(ds, dp))
            coarse_mean = float(np.dot(cs, cp))
            assert coarse_mean == pytest.approx(dense_mean, rel=0.1)


class TestScoreMoments:
    def test_bgloss_moments_positive(self):
        model = ScoreDistributionModel(make_summary())
        mean, std = model.score_moments(BGlossScorer(), ["common", "rare"])
        assert mean > 0
        assert std >= 0

    def test_analytic_matches_monte_carlo(self):
        summary = make_summary()
        model = ScoreDistributionModel(summary)
        scorer = BGlossScorer()
        a_mean, a_std = model.score_moments(scorer, ["mid", "rare"])
        m_mean, m_std = monte_carlo_moments(
            model,
            scorer,
            ["mid", "rare"],
            rng=np.random.default_rng(0),
            batch=1000,
            max_combinations=4000,
        )
        assert m_mean == pytest.approx(a_mean, rel=0.25)
        assert m_std == pytest.approx(a_std, rel=0.35)

    def test_moment_cache_used(self):
        cache = {}
        model = ScoreDistributionModel(make_summary(), moment_cache=cache)
        scorer = BGlossScorer()
        model.score_moments(scorer, ["common"])
        # Keyed by (scorer, s_k, moment_key): bGlOSS reads no per-word
        # statistic, so "common" (s_k = 60) lands under a None word key.
        key = (scorer.name, 60, scorer.moment_key("common"))
        assert key == (scorer.name, 60, None)
        assert list(cache) == [key]
        cached = cache[key]
        model.score_moments(scorer, ["common"])
        assert cache[key] == cached
        assert list(cache) == [key]

    def test_lm_moments(self):
        scorer = LanguageModelScorer({"common": 0.01})
        model = ScoreDistributionModel(make_summary())
        mean, std = model.score_moments(scorer, ["common"])
        assert mean > 0

    def test_cori_moments_within_belief_range(self):
        scorer = CoriScorer()
        summaries = {"d": make_summary()}
        scorer.prepare(summaries)
        model = ScoreDistributionModel(summaries["d"])
        mean, _std = model.score_moments(scorer, ["common", "rare"])
        assert 0.4 <= mean <= 1.0

    def test_empty_query(self):
        scorer = CoriScorer()
        summaries = {"d": make_summary()}
        scorer.prepare(summaries)
        model = ScoreDistributionModel(summaries["d"])
        mean, std = model.score_moments(scorer, [])
        assert (mean, std) == (0.0, 0.0)

    def test_scorer_without_word_decomposition_rejected(self):
        class Opaque(DatabaseScorer):
            def score(self, query_terms, summary):
                return 1.0

            def word_score(self, probability, summary, word):
                return probability

        model = ScoreDistributionModel(make_summary())
        with pytest.raises(TypeError):
            model.score_moments(Opaque(), ["mid"])

    def test_config_has_no_monte_carlo_knobs(self):
        assert sorted(AdaptiveConfig.__dataclass_fields__) == [
            "default_gamma",
            "max_support",
        ]


class TestDecision:
    def test_missing_words_trigger_shrinkage_for_bgloss(self):
        decision = decide_summary(
            BGlossScorer(), ["neverseen", "alsonever"], make_summary()
        )
        assert decision.use_shrinkage
        assert decision.std > decision.mean - decision.floor

    def test_well_sampled_words_avoid_shrinkage(self):
        summary = make_summary(
            size=120,
            sample_size=100,
            sample_df={"common": 90, "also": 80},
        )
        decision = decide_summary(BGlossScorer(), ["common", "also"], summary)
        assert not decision.use_shrinkage

    def test_choose_summaries_mixes(self):
        certain = make_summary(
            size=120, sample_size=100, sample_df={"common": 90}
        )
        uncertain = make_summary(
            size=50_000, sample_size=100, sample_df={"other": 3}
        )
        hierarchy = make_tiny_hierarchy()
        leaf = hierarchy.leaves()[0].path
        metasearcher = Metasearcher(
            hierarchy,
            {"certain": certain, "uncertain": uncertain},
            {"certain": leaf, "uncertain": leaf},
        )
        outcome = metasearcher.select(
            ["common"], algorithm="bgloss", strategy="shrinkage", k=2
        )
        assert not outcome.decisions["certain"].use_shrinkage
        assert outcome.decisions["uncertain"].use_shrinkage
        # Each database was scored with the summary its decision chose.
        scorer = BGlossScorer()
        shrunk = metasearcher.shrunk_summaries["uncertain"]
        assert outcome.scores == {
            "certain": scorer.score(["common"], certain),
            "uncertain": scorer.score(["common"], shrunk),
        }
        assert outcome.scores["uncertain"] != scorer.score(["common"], uncertain)


class TestMonteCarloVectorized:
    """The batched Monte-Carlo oracle (one rng.choice per word per round).

    Vectorization changes the rng consumption order (word-blocked instead
    of sample-interleaved), so these tests pin the *distributional*
    contract: the batched sampler must agree with a straightforward
    per-sample scalar reference within Monte-Carlo tolerance, and must be
    deterministic for a fixed seed.
    """

    def _scalar_reference(self, model, scorer, query_terms, rng, samples):
        """The pre-vectorization formulation: one draw per (sample, word)."""
        database_size = max(model.summary.size, 1.0)
        scale = scorer.hypothetical_probability_scale(model.summary)
        posteriors = [model.word_posterior(word) for word in query_terms]
        scores = []
        for _ in range(samples):
            word_scores = [
                float(
                    scorer.word_score_vector(
                        np.array(
                            [
                                support[
                                    rng.choice(support.size, p=probabilities)
                                ]
                            ]
                        )
                        * scale
                        / database_size,
                        model.summary,
                        word,
                    )[0]
                )
                for word, (support, probabilities) in zip(
                    query_terms, posteriors
                )
            ]
            scores.append(scorer.combine(word_scores, model.summary))
        return float(np.mean(scores)), float(np.std(scores))

    @pytest.mark.parametrize(
        "make_scorer",
        [
            BGlossScorer,
            CoriScorer,
            lambda: LanguageModelScorer({"mid": 0.01, "rare": 0.001}),
        ],
        ids=["bgloss", "cori", "lm"],
    )
    def test_matches_scalar_reference(self, make_scorer):
        model = ScoreDistributionModel(make_summary())
        scorer = make_scorer()
        scorer.prepare({"d": model.summary})
        query = ["mid", "rare"]
        v_mean, v_std = monte_carlo_moments(
            model,
            scorer,
            query,
            rng=np.random.default_rng(42),
            batch=2000,
            max_combinations=6000,
        )
        r_mean, r_std = self._scalar_reference(
            model, scorer, query, np.random.default_rng(43), samples=6000
        )
        assert v_mean == pytest.approx(r_mean, rel=0.2)
        assert v_std == pytest.approx(r_std, rel=0.35)

    def test_deterministic_for_fixed_seed(self):
        model = ScoreDistributionModel(make_summary())
        scorer = BGlossScorer()
        first = monte_carlo_moments(
            model,
            scorer,
            ["mid", "rare"],
            rng=np.random.default_rng(9),
            max_combinations=2000,
        )
        second = monte_carlo_moments(
            model,
            scorer,
            ["mid", "rare"],
            rng=np.random.default_rng(9),
            max_combinations=2000,
        )
        assert first == second

    def test_empty_query(self):
        model = ScoreDistributionModel(make_summary())
        mean, std = monte_carlo_moments(
            model,
            BGlossScorer(),
            [],
            rng=np.random.default_rng(0),
            max_combinations=2000,
        )
        assert std == 0.0
        assert np.isfinite(mean)
