"""Bit-identity of the batched selection engines vs the reference ranking.

The batched engines (selection/batch.py) stack a summary set's columnar
arrays into score matrices and vectorize across the *database* axis
while keeping the per-word fold order of the scalar scorers.  Because
elementwise IEEE-754 arithmetic does not depend on array shape, every
score, floor, and selected flag must equal ``rank_databases`` **bit for
bit** — no tolerance anywhere in this file.  The strict ``score > floor``
selection rule depends on that.

The oracle is test-side code independent of the metasearcher's wiring:
``rank_databases`` on the fixed summary sets; for the adaptive strategy,
a fresh per-database ``decide_summary`` and ``rank_databases`` with a
fresh scorer over the materialized plain/shrunk mix; for the
hierarchical strategy, the selector with ``rank_databases`` substituted
for its batch engines.

Covered: all three scorers (bGlOSS, CORI, LM) across the four strategies,
pruned and full scans, on a cell whose summaries share one vocabulary and
on one where each summary has its own; empty queries; out-of-vocabulary
terms; a zero-database cell; the row-subset contract of each scorer's
one exact kernel (the pruned scans score their survivors with it); plus
a hypothesis property over random queries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import decide_summary
from repro.core.shrinkage import ShrunkSummary
from repro.core.vocab import Vocabulary
from repro.selection.base import rank_databases
from repro.selection.batch import (
    AdaptiveBatchEngine,
    BatchSelectionEngine,
    SummarySetMatrix,
)
from repro.selection.cori import CoriScorer
from repro.selection.hierarchical import HierarchicalSelector
from repro.selection.metasearcher import Metasearcher
from repro.summaries.summary import ContentSummary
from tests.test_columnar_equivalence import _synthetic_cell
from tests.test_topk import reference_twin

ALGORITHMS = ("bgloss", "cori", "lm")
STRATEGIES = ("plain", "universal", "shrinkage", "hierarchical")

#: Queries mixing in-vocabulary, out-of-vocabulary, and boundary shapes.
QUERIES = [
    [],
    ["gen000"],
    ["gen001", "gen005", "cancer003"],
    ["java000", "databases004", "gen010", "gen011"],
    ["nosuchword"],
    ["gen002", "totally-oov", "aids001"],
    ["gen000", "gen000", "gen003"],
]

K = 5


class _CustomLookup(ContentSummary):
    """A summary type with its own ``scored_lookup`` semantics."""

    def scored_lookup(self, ids, regime="df"):
        return super().scored_lookup(ids, regime) * 0.5


def _metasearcher(shared_vocab: bool) -> Metasearcher:
    hierarchy, summaries, classifications = _synthetic_cell(shared_vocab)
    return Metasearcher(hierarchy, summaries, classifications)


@pytest.fixture(scope="module")
def batched():
    """The metasearcher under test, over the shared-vocabulary cell."""
    return _metasearcher(shared_vocab=True)


@pytest.fixture(scope="module")
def own_vocabs():
    """The metasearcher under test, over per-summary vocabularies."""
    return _metasearcher(shared_vocab=False)


def reference_select(metasearcher, query, algorithm, strategy, k=K):
    """(names, ranked (name, score) pairs, decisions) from the oracle."""
    if strategy == "hierarchical":
        selector = reference_twin(
            HierarchicalSelector(
                metasearcher.make_scorer(algorithm),
                metasearcher.builder,
                metasearcher.sampled_summaries,
            )
        )
        return selector.select(query, k), [], None
    sampled = metasearcher.sampled_summaries
    decisions = None
    if strategy == "plain":
        summaries = sampled
    elif strategy == "universal":
        summaries = metasearcher.shrunk_summaries
    else:
        decision_scorer = metasearcher.make_scorer(algorithm)
        decision_scorer.prepare(sampled)
        decisions = {
            name: decide_summary(
                decision_scorer, query, summary, metasearcher.adaptive_config
            )
            for name, summary in sampled.items()
        }
        summaries = {
            name: (
                metasearcher.shrunk_summaries[name]
                if decisions[name].use_shrinkage
                else summary
            )
            for name, summary in sampled.items()
        }
    ranking = rank_databases(metasearcher.make_scorer(algorithm), query, summaries)
    names = [entry.name for entry in ranking if entry.selected][:k]
    return names, [(entry.name, entry.score) for entry in ranking], decisions


def assert_matches_reference(metasearcher, query, algorithm, strategy, prune):
    __tracebackhide__ = True
    outcome = metasearcher.select(
        query, algorithm=algorithm, strategy=strategy, k=K, prune=prune
    )
    names, ranked, decisions = reference_select(
        metasearcher, query, algorithm, strategy
    )
    context = f"{algorithm}/{strategy} prune={prune} {query}"
    assert outcome.names == names, context
    if outcome.candidates_scored is not None:
        # A pruned outcome carries exactly the first k ranking entries.
        ranked = ranked[:K]
    assert list(outcome.scores.items()) == ranked, context
    assert outcome.decisions == decisions, context


class TestMetasearcherBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_select_identical(self, batched, algorithm, strategy):
        for query in QUERIES:
            for prune in (False, True):
                assert_matches_reference(
                    batched, query, algorithm, strategy, prune
                )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_adaptive_decisions_identical(self, batched, algorithm):
        for query in QUERIES:
            outcome = batched.select(
                query, algorithm=algorithm, strategy="shrinkage", k=K
            )
            _, _, decisions = reference_select(
                batched, query, algorithm, "shrinkage"
            )
            assert outcome.decisions == decisions


class TestEngineVsRankDatabases:
    @pytest.mark.parametrize("regime", ["plain", "universal"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fixed_set_identical(self, batched, algorithm, regime):
        summaries = (
            batched.sampled_summaries
            if regime == "plain"
            else batched.shrunk_summaries
        )
        scorer = batched.make_scorer(algorithm)
        scorer.prepare(summaries)
        engine = BatchSelectionEngine(scorer, summaries, prepare=False)
        for query in QUERIES:
            serial = rank_databases(scorer, query, summaries, prepare=False)
            fast = engine.rank(query)
            assert [e.name for e in fast] == [e.name for e in serial]
            for fast_entry, serial_entry in zip(fast, serial):
                assert fast_entry.score == serial_entry.score
                assert fast_entry.selected == serial_entry.selected

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_floor_map_identical(self, batched, algorithm):
        summaries = batched.sampled_summaries
        scorer = batched.make_scorer(algorithm)
        scorer.prepare(summaries)
        matrix = SummarySetMatrix(summaries)
        for query in QUERIES:
            floors = dict(
                zip(matrix.names, scorer.batch_floor_scores(query, matrix))
            )
            for name, summary in summaries.items():
                assert floors[name] == scorer.floor_score(query, summary)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mixed_set_identical(self, batched, algorithm):
        sampled = batched.sampled_summaries
        shrunk = batched.shrunk_summaries
        names = sorted(sampled)
        masks = [
            np.zeros(len(names), dtype=bool),
            np.ones(len(names), dtype=bool),
            np.array([i % 2 == 0 for i in range(len(names))]),
            np.array([i % 3 == 0 for i in range(len(names))]),
        ]
        for mask in masks:
            chosen_by_name = dict(zip(names, mask.tolist()))
            # The mixed dict keeps the sampled summaries' insertion order.
            chosen = {
                name: (shrunk[name] if chosen_by_name[name] else summary)
                for name, summary in sampled.items()
            }
            engine_scorer = batched.make_scorer(algorithm)
            engine = AdaptiveBatchEngine(engine_scorer, sampled, shrunk)
            serial_scorer = batched.make_scorer(algorithm)
            for query in QUERIES:
                serial = rank_databases(serial_scorer, query, chosen)
                fast = engine.rank(query, mask)
                assert [e.name for e in fast] == [e.name for e in serial]
                for fast_entry, serial_entry in zip(fast, serial):
                    assert fast_entry.score == serial_entry.score
                    assert fast_entry.selected == serial_entry.selected


class TestRowSubsetContract:
    """The kernel over a gathered row subset equals the full scan's kernel
    indexed by those rows, bit for bit — the contract pruned scans rely
    on when they score only their survivors."""

    @pytest.mark.parametrize("summary_set", ["plain", "universal", "adaptive"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("layout", ["shared", "own"])
    def test_subset_equals_full_scan_rows(
        self, batched, own_vocabs, layout, algorithm, summary_set
    ):
        metasearcher = batched if layout == "shared" else own_vocabs
        vocab = metasearcher.builder.vocab
        sampled = metasearcher.sampled_summaries
        shrunk = metasearcher.shrunk_summaries
        scorer = metasearcher.make_scorer(algorithm)
        regime = scorer.topk_regime
        plain = SummarySetMatrix(sampled, vocab)
        n = len(plain)
        rng = np.random.default_rng(len(layout) * 31 + len(summary_set))
        if summary_set == "adaptive":
            engine = AdaptiveBatchEngine(
                scorer, sampled, shrunk, plain, SummarySetMatrix(shrunk, vocab)
            )
        else:
            summaries = sampled if summary_set == "plain" else shrunk
            scorer.prepare(summaries)
            matrix = plain if summary_set == "plain" else SummarySetMatrix(
                summaries, vocab
            )
        # Every query of QUERIES plus one whose words are all unknown, so
        # the default fill of invalid ids runs on the row-subset path.
        for query in QUERIES + [["oov-a", "oov-b"]]:
            if summary_set == "adaptive":
                mask = rng.random(n) < 0.5
                ids = engine.query_ids(query)

                def gather(rows):
                    return engine.gather_mixed(ids, regime, mask, rows)

                sizes, cw = engine.sizes, engine.cw_mixed(mask)
                context = scorer.mixed_context(query, engine, mask)
            else:
                ids = matrix.query_ids(query)

                def gather(rows):
                    return matrix.gather(ids, regime, rows)

                sizes, cw, context = matrix.sizes, matrix.cw(), {}
            full = scorer.score_rows(query, gather(None), sizes, cw, **context)
            assert full.shape == (n,)
            for size in (0, 1, n // 2, n):
                rows = rng.permutation(n)[:size]
                subset = scorer.score_rows(
                    query, gather(rows), sizes[rows], cw[rows], **context
                )
                assert np.array_equal(subset, full[rows]), (query, size)


class TestPerSummaryVocabularySets:
    """Summaries built without ``vocab=`` (each on a private vocabulary)
    stack like any other set: the matrix translates their rows."""

    def test_per_summary_vocabs_stack(self, own_vocabs):
        vocab = own_vocabs.builder.vocab
        for summaries, target in (
            (own_vocabs.sampled_summaries, vocab),
            (own_vocabs.shrunk_summaries, vocab),
            # Shrunk rows translated too: their floor, support mask and
            # round-rule presence all move to the new ids.
            (own_vocabs.shrunk_summaries, Vocabulary(["zzz-first"])),
        ):
            matrix = SummarySetMatrix(summaries, target)
            assert matrix.vocab is target
            words = target.to_list()[: matrix.dense("df").shape[1]]
            for row, summary in enumerate(matrix.summaries):
                ids = summary.vocab.ids_of(words)
                for regime in ("df", "tf"):
                    np.testing.assert_array_equal(
                        matrix.dense(regime)[row],
                        summary.scored_lookup(ids, regime),
                    )
                present = (
                    summary.effective_words()
                    if isinstance(summary, ShrunkSummary)
                    else summary.words()
                )
                assert {
                    words[i] for i in np.flatnonzero(matrix.present()[row])
                } == present
        # Without a vocabulary to stack over, the set gets a fresh one.
        matrix = SummarySetMatrix(own_vocabs.sampled_summaries)
        assert matrix.vocab is not vocab
        assert all(s.vocab is not matrix.vocab for s in matrix.summaries)

    def test_floors_identical(self, own_vocabs):
        summaries = own_vocabs.sampled_summaries
        matrix = SummarySetMatrix(summaries, own_vocabs.builder.vocab)
        for algorithm in ALGORITHMS:
            scorer = own_vocabs.make_scorer(algorithm)
            scorer.prepare(summaries)
            for query in QUERIES:
                floors = scorer.batch_floor_scores(query, matrix)
                for row, summary in enumerate(matrix.summaries):
                    assert floors[row] == scorer.floor_score(query, summary)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_metasearcher_matches_reference(
        self, own_vocabs, algorithm, strategy
    ):
        for query in QUERIES:
            for prune in (False, True):
                assert_matches_reference(
                    own_vocabs, query, algorithm, strategy, prune
                )

    def test_cori_cf_counts_present_words(self, own_vocabs):
        # Pinned against a direct count of each summary's present words
        # (the round rule for shrunk summaries), not against
        # rank_databases, which runs this same prepare.
        sampled = own_vocabs.sampled_summaries
        shrunk = own_vocabs.shrunk_summaries
        mixed = {
            name: shrunk[name] if i % 2 else summary
            for i, (name, summary) in enumerate(sampled.items())
        }
        for summaries in (sampled, mixed):
            assert len({id(s.vocab) for s in summaries.values()}) > 1
            scorer = CoriScorer()
            scorer.prepare(summaries)
            present = [
                s.effective_words() if isinstance(s, ShrunkSummary) else s.words()
                for s in summaries.values()
            ]
            for word in set().union(*present) | {"never-seen"}:
                assert scorer._cf_count(word) == sum(
                    word in words for words in present
                ), word

    def test_custom_lookup_rejected(self):
        with pytest.raises(TypeError):
            SummarySetMatrix({"odd": _CustomLookup(10, {"w": 0.5})})

    def test_engine_invariants_are_value_errors(self, own_vocabs):
        sampled = own_vocabs.sampled_summaries
        shrunk = own_vocabs.shrunk_summaries
        scorer = own_vocabs.make_scorer("bgloss")
        fewer = dict(list(shrunk.items())[1:])
        with pytest.raises(ValueError):
            AdaptiveBatchEngine(scorer, sampled, fewer)
        with pytest.raises(ValueError):
            BatchSelectionEngine(
                scorer, fewer, matrix=SummarySetMatrix(shrunk)
            )


class TestZeroDatabases:
    def test_empty_cell_selects_nothing(self, batched):
        empty = Metasearcher(batched.hierarchy, {}, {})
        for algorithm in ALGORITHMS:
            for strategy in STRATEGIES:
                for prune in (False, True):
                    outcome = empty.select(
                        ["gen000"],
                        algorithm=algorithm,
                        strategy=strategy,
                        k=K,
                        prune=prune,
                    )
                    assert outcome.names == []
                    assert outcome.scores == {}


class TestRandomQueriesProperty:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_query_identical(self, batched, own_vocabs, data):
        metasearcher = data.draw(st.sampled_from([batched, own_vocabs]))
        pool = metasearcher.builder.vocab.to_list()
        term = st.one_of(
            st.sampled_from(pool),
            st.text(
                alphabet="abcxyz-", min_size=1, max_size=8
            ),  # mostly OOV
        )
        query = data.draw(st.lists(term, min_size=0, max_size=5))
        algorithm = data.draw(st.sampled_from(ALGORITHMS))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        prune = data.draw(st.booleans())
        assert_matches_reference(metasearcher, query, algorithm, strategy, prune)
