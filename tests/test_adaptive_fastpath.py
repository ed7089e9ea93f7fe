"""The adaptive strategy's serving fast path.

* One vocabulary per cell: shrunk summaries loaded from a store or
  computed in worker processes are rebound onto the cell's vocabulary,
  so the matrices stack them as they are, without translating a word.
  Summaries on private vocabularies stack too, by translation. The one
  remaining way a request leaves its strategy — degradation to plain —
  is counted by algorithm, strategy and reason.
* Decision state kept across queries: per-database models with bounded
  posterior and moment caches give decisions equal (``==``) to a fresh
  cache-free :func:`decide_summary`, and the caches stay within bounds.
* No testbed on the serving path: a warm-store service never decodes the
  testbed documents; a lifecycle resample loads them on first use.
* The posterior's 0 * log 0 = 0 convention at d = |D|.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveConfig, ScoreDistributionModel, decide_summary
from repro.core.vocab import Vocabulary
from repro.evaluation import harness
from repro.evaluation.instrument import get_instrumentation, labeled
from repro.selection import metasearcher as metasearcher_mod
from repro.selection.metasearcher import Metasearcher
from repro.serving.loadgen import generate_queries
from repro.serving.service import SelectionService, ServiceConfig
from repro.serving.telemetry import render_prometheus
from repro.summaries.summary import SampledSummary

from tests.conftest import make_tiny_hierarchy

ALGORITHMS = ("bgloss", "cori", "lm")


# -- posterior at d = |D| ----------------------------------------------------------


class TestPosteriorAtFullDatabase:
    def summary(self, size=50, sample_size=10, count=10):
        return SampledSummary(
            size=size,
            df_probs={"every": count / sample_size},
            tf_probs=None,
            sample_size=sample_size,
            sample_df={"every": count},
            alpha=None,
        )

    def test_word_in_every_sampled_document_peaks_at_database_size(self):
        # |D| = 50, s_k = |S| = 10, gamma = -2: p(d) ∝ d^-2 (d/50)^10, so
        # the mode is d = |D| itself with mass 50^8 / sum d^8 ≈ 0.165.
        support, probabilities = ScoreDistributionModel(
            self.summary()
        ).word_posterior("every")
        assert support[-1] == 50
        assert int(support[np.argmax(probabilities)]) == 50
        expected = 50.0**8 / sum(float(d) ** 8 for d in range(1, 51))
        assert probabilities[-1] == pytest.approx(expected, rel=1e-9)
        assert probabilities[-1] == pytest.approx(0.16, abs=0.01)

    @pytest.mark.parametrize("size", [1, 7, 50, 20_000])
    def test_every_count_gives_a_finite_normalized_posterior(self, size):
        model = ScoreDistributionModel(
            self.summary(size=size), AdaptiveConfig(max_support=300)
        )
        for observed in range(0, 11):
            support, probabilities = model.posterior(observed)
            assert np.all(np.isfinite(probabilities))
            assert probabilities.sum() == pytest.approx(1.0)

    def test_missed_word_gives_database_size_no_mass(self):
        _support, probabilities = ScoreDistributionModel(
            self.summary(count=9)
        ).posterior(9)
        assert probabilities[-1] == 0.0


# -- decision caches: exactness and bounds ------------------------------------------

WORDS = [f"w{index:03d}" for index in range(120)]
OOV = ["oov-a", "oov-b", "oov-c"]
#: Words every sampled document of their database holds (s_k = |S|).
FULL = ["full-0", "full-1"]


def synthetic_cell() -> Metasearcher:
    """Six sampled summaries on one vocabulary, sized for both support
    kinds (dense and geometric grid), with some s_k = |S| words."""
    hierarchy = make_tiny_hierarchy()
    leaves = [leaf.path for leaf in hierarchy.leaves()]
    vocab = Vocabulary()
    summaries = {}
    classifications = {}
    for index, size in enumerate((60, 240, 900, 3000, 5200, 12000)):
        rng = np.random.default_rng([7, index])
        sample_size = int(rng.integers(20, 60))
        chosen = rng.choice(len(WORDS), size=70, replace=False)
        sample_df = {
            WORDS[i]: int(rng.integers(1, sample_size + 1)) for i in chosen
        }
        sample_df[FULL[index % 2]] = sample_size
        summaries[f"db{index}"] = SampledSummary(
            size=size,
            df_probs={w: c / sample_size for w, c in sample_df.items()},
            tf_probs=None,
            sample_size=sample_size,
            sample_df=sample_df,
            alpha=None if index == 0 else -0.7 - 0.1 * index,
            vocab=vocab,
        )
        classifications[f"db{index}"] = leaves[index % len(leaves)]
    return Metasearcher(hierarchy, summaries, classifications)


def fresh_decisions(metasearcher: Metasearcher, algorithm: str, terms):
    """The cache-free oracle: one fresh model and scalar floor per database."""
    scorer = metasearcher.make_scorer(algorithm)
    scorer.prepare(metasearcher.sampled_summaries)
    return {
        name: decide_summary(
            scorer, terms, sampled, metasearcher.adaptive_config
        )
        for name, sampled in metasearcher.sampled_summaries.items()
    }


@pytest.fixture(scope="module")
def warm_cell():
    metasearcher = synthetic_cell()
    pool = WORDS + OOV + FULL
    rng = np.random.default_rng(3)
    for _ in range(60):
        terms = [pool[i] for i in rng.integers(0, len(pool), size=3)]
        for algorithm in ALGORITHMS:
            metasearcher.select(terms, algorithm=algorithm, strategy="shrinkage")
    return metasearcher


query_words = st.sampled_from(WORDS[:40] + OOV + FULL)


class TestDecisionCachesExact:
    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.lists(query_words, min_size=1, max_size=5),
        algorithm=st.sampled_from(ALGORITHMS),
    )
    def test_cached_decisions_equal_fresh(self, warm_cell, terms, algorithm):
        outcome = warm_cell.select(terms, algorithm=algorithm, strategy="shrinkage")
        expected = fresh_decisions(warm_cell, algorithm, terms)
        assert set(outcome.decisions) == set(expected)
        for name, decision in outcome.decisions.items():
            oracle = expected[name]
            assert decision.mean == oracle.mean
            assert decision.std == oracle.std
            assert decision.floor == oracle.floor
            assert decision.use_shrinkage == oracle.use_shrinkage

    def test_repeated_words_share_entries(self):
        metasearcher = synthetic_cell()
        terms = [WORDS[0], WORDS[0], "oov-a", "oov-b", FULL[0]]
        for algorithm in ALGORITHMS:
            outcome = metasearcher.select(
                terms, algorithm=algorithm, strategy="shrinkage"
            )
            expected = fresh_decisions(metasearcher, algorithm, terms)
            assert outcome.decisions == expected
        model = metasearcher._decision_models["db0"]
        # Two OOV words (s_k = 0, same per-word statistic) share an entry
        # for every scorer, so the cache holds fewer keys than words.
        assert len(model.moment_cache) < len(ALGORITHMS) * len(set(terms))


class TestDecisionCacheBounds:
    def test_caches_stay_within_bounds(self, monkeypatch):
        monkeypatch.setattr(metasearcher_mod, "MOMENT_CACHE_SIZE", 16)
        monkeypatch.setattr(metasearcher_mod, "POSTERIOR_CACHE_SIZE", 3)
        metasearcher = synthetic_cell()
        queries = generate_queries(WORDS + FULL, 2000, seed=5)
        assert len({tuple(q) for q in queries}) == 2000
        largest_moments = largest_posteriors = 0
        for index, terms in enumerate(queries):
            metasearcher.select(
                terms, algorithm=ALGORITHMS[index % 3], strategy="shrinkage"
            )
            for model in metasearcher._decision_models.values():
                assert len(model.moment_cache) <= 16
                assert len(model.posterior_cache) <= 3
                largest_moments = max(largest_moments, len(model.moment_cache))
                largest_posteriors = max(
                    largest_posteriors, len(model.posterior_cache)
                )
        # The stream is rich enough to reach both bounds (eviction ran).
        assert largest_moments == 16
        assert largest_posteriors == 3
        assert len(metasearcher._decision_models) == 6

    def test_default_bounds_hold(self):
        metasearcher = synthetic_cell()
        for index, terms in enumerate(generate_queries(WORDS, 300, seed=6)):
            metasearcher.select(
                terms, algorithm=ALGORITHMS[index % 3], strategy="shrinkage"
            )
        for model in metasearcher._decision_models.values():
            assert len(model.moment_cache) <= metasearcher_mod.MOMENT_CACHE_SIZE
            assert (
                len(model.posterior_cache)
                <= metasearcher_mod.POSTERIOR_CACHE_SIZE
            )


# -- one vocabulary per cell: the rebind alias, not translation --------------------


def assert_batched_adaptive(cell, queries) -> None:
    """Both summary sets already live on the cell vocabulary, so stacking
    them interns no word: the matrices alias the summaries' id space."""
    metasearcher = cell.metasearcher
    vocab = metasearcher.builder.vocab
    width = len(vocab)
    for summaries in (
        metasearcher.sampled_summaries,
        metasearcher.shrunk_summaries,
    ):
        for summary in summaries.values():
            assert summary.vocab is vocab
    for algorithm in ALGORITHMS:
        engine = metasearcher._adaptive_engine(algorithm)
        assert engine.plain.vocab is engine.shrunk.vocab is vocab
    for index, terms in enumerate(queries):
        metasearcher.select(
            terms, algorithm=ALGORITHMS[index % 3], strategy="shrinkage"
        )
    assert len(vocab) == width


class TestNoSerialFallback:
    def queries(self, cell):
        words = cell.metasearcher.builder.vocab.to_list()
        return generate_queries(words, 50, seed=11)

    def test_store_loaded_cell_twice(self, isolated_harness, tmp_path):
        harness.clear_caches()
        harness.configure(cache_dir=tmp_path / "store", jobs=1)
        built = harness.get_cell("trec4", "qbs", False, scale="small")
        harness.ensure_shrunk(built)
        reference = [
            built.metasearcher.select(terms, algorithm="cori", strategy="shrinkage")
            for terms in self.queries(built)
        ]
        for _ in range(2):
            harness.clear_caches()
            harness.configure(cache_dir=tmp_path / "store", jobs=1)
            cell = harness.get_cell("trec4", "qbs", False, scale="small")
            harness.ensure_shrunk(cell)
            assert get_instrumentation().snapshot()["counters"].get(
                "em.runs", 0
            ) == 0
            assert_batched_adaptive(cell, self.queries(cell))
            # Store-loaded answers equal the freshly built cell's.
            for terms, expected in zip(self.queries(cell), reference):
                outcome = cell.metasearcher.select(
                    terms, algorithm="cori", strategy="shrinkage"
                )
                assert outcome.names == expected.names
                assert outcome.scores == expected.scores

    def test_parallel_cell(self, isolated_harness):
        harness.clear_caches()
        harness.configure(cache_dir=False, jobs=2)
        cell = harness.get_cell("trec4", "qbs", False, scale="small")
        harness.ensure_shrunk(cell)
        assert_batched_adaptive(cell, self.queries(cell))

    def test_fallback_is_counted_and_exported(self, isolated_harness):
        """Degradation to plain is the only fallback left; it is counted
        by algorithm, strategy and reason and shows in /metrics."""
        harness.clear_caches()
        service = SelectionService(
            synthetic_cell(),
            ServiceConfig(scale="synthetic", request_timeout_seconds=0.0),
        )
        response = service.select(["w001"], algorithm="cori", strategy="shrinkage")
        assert response["degraded"]
        service.select(["w001"], algorithm="lm", strategy="plain")
        counters = get_instrumentation().snapshot()["counters"]
        degraded = {
            name: value
            for name, value in counters.items()
            if name.startswith("serve.degraded_requests")
        }
        assert degraded == {
            labeled(
                "serve.degraded_requests",
                algorithm="cori",
                endpoint="select",
                reason="deadline",
                strategy="shrinkage",
            ): 1
        }
        assert (
            'repro_serve_degraded_requests_total{algorithm="cori",'
            'endpoint="select",reason="deadline",strategy="shrinkage"} 1'
        ) in render_prometheus()

    def test_per_summary_vocab_set_stacks(self, isolated_harness):
        metasearcher = synthetic_cell()
        summaries = dict(metasearcher.sampled_summaries)
        # A summary on a private vocabulary is translated into the cell's.
        loner = summaries["db0"]
        summaries["db0"] = SampledSummary(
            size=loner.size,
            df_probs=dict(loner.df_items()),
            tf_probs=None,
            sample_size=loner.sample_size,
            sample_df=loner.sample_df,
            alpha=loner.alpha,
        )
        mixed = Metasearcher(
            metasearcher.hierarchy, summaries, metasearcher.classifications
        )
        for algorithm in ALGORITHMS:
            for strategy in ("plain", "shrinkage"):
                ours = mixed.select(
                    ["w001", "w002"], algorithm=algorithm, strategy=strategy
                )
                theirs = metasearcher.select(
                    ["w001", "w002"], algorithm=algorithm, strategy=strategy
                )
                assert ours.names == theirs.names
                assert ours.scores == theirs.scores
        assert mixed._set_matrix("plain").vocab is mixed.builder.vocab


# -- no testbed on the serving path --------------------------------------------------


class TestLazyTestbed:
    def test_warm_service_loads_no_testbed(self, micro_scale, micro_store):
        harness.clear_caches()
        harness.configure(cache_dir=micro_store, jobs=1)
        service = SelectionService.from_harness(
            ServiceConfig(dataset="trec4", scale=micro_scale)
        )
        for algorithm in ALGORITHMS:
            service.select(["warmup", "term"], algorithm=algorithm)
        counters = get_instrumentation().snapshot()["counters"]
        assert counters.get("cache.bytes_read.testbed", 0) == 0
        assert counters.get("cache.hit.testbed", 0) == 0
        assert harness._TESTBEDS == {}
        assert harness._EXACT == {}
        vocab = service.metasearcher.builder.vocab
        for shrunk in service.metasearcher.shrunk_summaries.values():
            assert shrunk.vocab is vocab

        name = sorted(service.metasearcher.sampled_summaries)[0]
        result = service.apply_update(
            [{"op": "resample", "name": name, "seed": 3}], verify=True
        )
        assert result["verification"]["verified"], result["verification"]
        # The resample loaded the testbed on first use.
        assert ("trec4", micro_scale) in harness._TESTBEDS
        counters = get_instrumentation().snapshot()["counters"]
        assert counters.get("cache.bytes_read.testbed", 0) > 0

    def test_evaluation_resolves_testbed_on_demand(self, micro_scale, micro_store):
        harness.clear_caches()
        harness.configure(cache_dir=micro_store, jobs=1)
        cell = harness.get_cell("trec4", "qbs", False, scale=micro_scale)
        assert harness._TESTBEDS == {}
        names = {db.name for db in cell.testbed.databases}
        assert names == set(cell.summaries)
        assert set(cell.exact_summaries) == names
        assert cell.testbed is harness.get_testbed("trec4", micro_scale)
