"""The metasearcher front end: summaries in, database rankings out.

Ties the pieces of the pipeline together for one testbed "cell" (one
sampling method, one frequency-estimation setting):

* category summaries (Definition 3) via :class:`CategorySummaryBuilder`;
* shrunk summaries R(D) (Definition 4), computed lazily and cached;
* the three base scorers, with LM wired to the Root category's
  term-frequency summary as its "global" model;
* the four selection strategies compared in Section 6.2:

  - ``PLAIN``        — base algorithm over the unshrunk summaries;
  - ``SHRINKAGE``    — the paper's adaptive algorithm (Figure 3);
  - ``UNIVERSAL``    — always use R(D) (the ablation of Section 6.2);
  - ``HIERARCHICAL`` — the category-descent strategy of [17].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.adaptive import AdaptiveConfig, AdaptiveDecision, ScoreDistributionModel
from repro.core.category import CategorySummaryBuilder
from repro.core.lru import LruCache
from repro.core.shrinkage import ShrinkageConfig, ShrunkSummary, shrink_all_summaries
from repro.corpus.hierarchy import Hierarchy
from repro.selection.base import DatabaseScorer, RankedDatabase
# Re-exported: rank_databases is the reference ranking the engines must equal.
from repro.selection.base import rank_databases as rank_databases  # noqa: F401
from repro.selection.batch import (
    AdaptiveBatchEngine,
    BatchSelectionEngine,
    SummarySetMatrix,
)
from repro.selection.topk import (
    GroupIndex,
    MixedTopKEngine,
    TopKEngine,
    group_labels,
)
from repro.selection.bgloss import BGlossScorer
from repro.selection.cori import CoriScorer
from repro.selection.hierarchical import HierarchicalSelector
from repro.selection.lm import LanguageModelScorer
from repro.summaries.summary import ContentSummary, SampledSummary


class SelectionDeadlineExceeded(RuntimeError):
    """A deadline-bounded selection ran out of time mid-computation.

    Raised between per-database steps of the adaptive strategy (the only
    per-query phase with meaningful compute); the serving layer catches it
    and degrades to plain sampled-summary scoring.
    """


class SelectionStrategy(str, Enum):
    """The selection strategies compared in the paper's Section 6.2."""

    PLAIN = "plain"
    SHRINKAGE = "shrinkage"
    UNIVERSAL = "universal"
    HIERARCHICAL = "hierarchical"


@dataclass
class SelectionOutcome:
    """Result of one database-selection run."""

    #: Selected databases, best first (may be fewer than k — Section 6.2's
    #: default-score rule).
    names: list[str]
    #: Scores by database name (empty for the hierarchical strategy, whose
    #: ordering is positional).
    scores: dict[str, float] = field(default_factory=dict)
    #: Per-database adaptive decisions (SHRINKAGE strategy only).
    decisions: dict[str, AdaptiveDecision] | None = None
    #: How many candidate rows the pruned top-k engine scored exactly
    #: (``None`` when the query ran through a full scan).
    candidates_scored: int | None = None

    @property
    def shrinkage_applications(self) -> int:
        """How many databases were scored with their shrunk summary."""
        if self.decisions is None:
            return 0
        return sum(1 for d in self.decisions.values() if d.use_shrinkage)


_ALGORITHMS = ("bgloss", "cori", "lm")

#: Bound on each database's moment cache, keyed by (scorer, s_k, the
#: scorer's per-word statistic — see ``DatabaseScorer.moment_key``). LM
#: keys on p(w|G), which takes as many values as the query stream has
#: distinct words, so a long-running server needs the bound.
MOMENT_CACHE_SIZE = 8192

#: Bound on each database's posterior cache, keyed by s_k. Most query
#: words are absent from a given sample (s_k = 0) and the rest mostly have
#: small counts, so a few entries serve nearly every lookup; each holds up
#: to ``AdaptiveConfig.max_support`` floats.
POSTERIOR_CACHE_SIZE = 8


class Metasearcher:
    """Database selection over one set of sampled summaries."""

    def __init__(
        self,
        hierarchy: Hierarchy,
        sampled_summaries: Mapping[str, SampledSummary],
        classifications: Mapping[str, tuple[str, ...]],
        shrinkage_config: ShrinkageConfig | None = None,
        adaptive_config: AdaptiveConfig | None = None,
        builder: CategorySummaryBuilder | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.sampled_summaries = dict(sampled_summaries)
        self.classifications = dict(classifications)
        self.shrinkage_config = shrinkage_config or ShrinkageConfig()
        self.adaptive_config = adaptive_config or AdaptiveConfig()
        #: ``builder`` lets the serving lifecycle hand over an
        #: incrementally patched CategorySummaryBuilder instead of paying
        #: a from-scratch aggregation; it must describe exactly the given
        #: summaries/classifications.
        self.builder = builder or CategorySummaryBuilder(
            hierarchy, self.sampled_summaries, self.classifications
        )
        self._shrunk: dict[str, ShrunkSummary] | None = None
        #: One uncertainty model per database, kept across queries with
        #: its support grid and bounded posterior/moment caches.
        self._decision_models: dict[str, ScoreDistributionModel] = {}
        self._prepared_scorers: dict[tuple[str, str], DatabaseScorer] = {}
        self._engines: dict[tuple[str, str], BatchSelectionEngine] = {}
        self._adaptive_engines: dict[str, AdaptiveBatchEngine] = {}
        #: One score matrix per summary *set* ("plain"/"shrunk"), stacked
        #: over the cell vocabulary and shared by every algorithm's
        #: engines — matrices depend only on the summaries, so stacking
        #: them once per set instead of once per (algorithm, set) cuts
        #: snapshot memory by the algorithm count.
        self._set_matrices: dict[str, SummarySetMatrix] = {}
        self._group_indexes: dict[str, GroupIndex] = {}
        self._topk: dict[tuple[str, str], TopKEngine] = {}
        self._mixed_topk: dict[str, MixedTopKEngine] = {}
        self._hierarchical: dict[str, HierarchicalSelector] = {}
        #: Copy-on-write seeds: previous-snapshot matrices engines may
        #: reuse rows from (see :meth:`seed_matrices_from`).
        self._matrix_seeds: dict[str, SummarySetMatrix] = {}

    def seed_matrices_from(self, previous: "Metasearcher") -> None:
        """Adopt a previous snapshot's score matrices as COW seeds.

        Matrices built later copy rows for summaries that are the *same
        object* in both snapshots (bitwise-identical by construction)
        instead of re-densifying them — the "prebuilt SummarySetMatrix
        stacks" part of the snapshot contract.
        """
        self._matrix_seeds.update(previous._set_matrices)

    def ensure_engines(self, roles: set[str] | None = None) -> None:
        """Construct batched engines without issuing a query.

        Engine construction is cheap (name sort + size stack); the heavy
        dense matrices stay lazy. Callers that want to install external
        buffers (shared-memory views, see :mod:`repro.serving.shm`) call
        this first so the matrices exist to adopt into, *before* any
        select densifies them locally.

        ``roles`` — snapshot role keys (``set:plain``/``set:shrunk``) —
        limits construction to the sets a manifest actually carries:
        adopting a plain-only snapshot must not force the shrunk set into
        existence (that would run EM in every attaching worker). ``None``
        builds everything.
        """
        want_plain = roles is None or "set:plain" in roles
        want_shrunk = roles is None or "set:shrunk" in roles
        for algorithm in _ALGORITHMS:
            if want_plain:
                self._batched_engine(algorithm, "plain")
            if want_shrunk:
                self._batched_engine(algorithm, "universal")
            if want_plain and want_shrunk:
                self._adaptive_engine(algorithm)

    def engine_matrices(self) -> dict[str, "object"]:
        """Every live score matrix, keyed by its stable snapshot role.

        One key per summary set — ``set:plain`` / ``set:shrunk`` — the
        naming the shared-memory manifest uses, stable across processes
        because it derives only from summary-set identity, never from
        object ids.
        """
        return {
            f"set:{key}": matrix for key, matrix in self._set_matrices.items()
        }

    @property
    def shrunk_summaries(self) -> dict[str, ShrunkSummary]:
        """R(D) for every database (computed once, then cached)."""
        if self._shrunk is None:
            self._shrunk = shrink_all_summaries(
                self.builder, self.sampled_summaries, self.shrinkage_config
            )
        return self._shrunk

    def has_shrunk_summaries(self) -> bool:
        """True once R(D) has been computed or installed."""
        return self._shrunk is not None

    def set_shrunk_summaries(
        self, shrunk: Mapping[str, ShrunkSummary]
    ) -> None:
        """Install precomputed R(D) (e.g. loaded from an artifact store).

        The mapping must cover every sampled database; insertion order is
        normalized to the sampled-summary order so downstream iteration is
        independent of where the shrunk summaries came from.

        Summaries decoded onto their own copy of the cell's word list (a
        store load, a worker process's result) are rebound onto the
        cell's vocabulary instance, so the shrunk matrix stacks their id
        arrays as they are instead of translating them word by word.
        """
        missing = set(self.sampled_summaries) - set(shrunk)
        if missing:
            raise ValueError(
                f"shrunk summaries missing for {sorted(missing)[:5]!r}"
            )
        vocab = self.builder.vocab
        self._shrunk = {
            name: (
                shrunk[name].rebind(vocab)
                if vocab.extends(shrunk[name].vocab)
                else shrunk[name]
            )
            for name in self.sampled_summaries
        }
        # Anything prepared or stacked over the previous R(D) set is stale.
        self._prepared_scorers = {
            key: scorer
            for key, scorer in self._prepared_scorers.items()
            if key[1] != "universal"
        }
        self._engines = {
            key: engine
            for key, engine in self._engines.items()
            if key[1] != "universal"
        }
        self._adaptive_engines = {}
        self._set_matrices.pop("shrunk", None)
        self._matrix_seeds.pop("shrunk", None)
        self._group_indexes.pop("shrunk", None)
        self._topk = {
            key: engine
            for key, engine in self._topk.items()
            if key[1] != "universal"
        }
        self._mixed_topk = {}

    def make_scorer(self, algorithm: str) -> DatabaseScorer:
        """A fresh scorer instance for ``algorithm`` (bgloss/cori/lm)."""
        algorithm = algorithm.lower()
        if algorithm == "bgloss":
            return BGlossScorer()
        if algorithm == "cori":
            return CoriScorer()
        if algorithm == "lm":
            root_summary = self.builder.category_summary(
                self.hierarchy.root.path
            )
            # The summary is handed over directly (not as a dict), keeping
            # the scorer's p(w|G) lookups columnar.
            return LanguageModelScorer(root_summary)
        raise ValueError(f"unknown algorithm {algorithm!r}; pick from {_ALGORITHMS}")

    # -- selection --------------------------------------------------------------

    def select(
        self,
        query_terms: Sequence[str],
        algorithm: str = "cori",
        strategy: SelectionStrategy | str = SelectionStrategy.SHRINKAGE,
        k: int = 10,
        deadline: float | None = None,
        prune: bool = False,
    ) -> SelectionOutcome:
        """Run one query through the chosen algorithm and strategy.

        ``deadline`` is an absolute ``time.monotonic()`` instant; when the
        adaptive strategy's per-database decision loop runs past it,
        :class:`SelectionDeadlineExceeded` is raised (other strategies are
        a single batched matrix pass and ignore the deadline).

        ``prune`` enables the bound-based exact top-k engine: the ranking
        it returns is bit-identical to the full scan truncated to ``k``
        (scores, floors, selected flags and ordering — see
        :mod:`repro.selection.topk`), but only a small candidate fraction
        is scored exactly. When pruning does not apply the full scan runs
        as before, so the flag is always safe to pass.
        """
        strategy = SelectionStrategy(strategy)

        if strategy is SelectionStrategy.HIERARCHICAL:
            selector = self._hierarchical_selector(algorithm)
            return SelectionOutcome(names=selector.select(query_terms, k))
        if not self.sampled_summaries:
            decisions = {} if strategy is SelectionStrategy.SHRINKAGE else None
            return SelectionOutcome(names=[], decisions=decisions)

        pruned = None
        if strategy is SelectionStrategy.SHRINKAGE:  # Figure 3's adaptive algorithm
            decision_scorer = self._prepared_scorer(algorithm, "plain")
            decisions = self._adaptive_decisions(
                decision_scorer,
                query_terms,
                self._batched_floors(algorithm, decision_scorer, query_terms),
                deadline=deadline,
            )
            engine = self._adaptive_engine(algorithm)
            mask = np.array(
                [decisions[name].use_shrinkage for name in engine.names],
                dtype=bool,
            )
            if prune:
                pruned = self._mixed_topk_engine(algorithm).rank(
                    query_terms, mask, k
                )
            if pruned is None:
                ranking = engine.rank(query_terms, mask)
        else:
            decisions = None
            key = strategy.value  # "plain" or "universal"
            if prune:
                pruned = self._topk_engine(algorithm, key).rank(query_terms, k)
            if pruned is None:
                ranking = self._batched_engine(algorithm, key).rank(query_terms)

        candidates_scored = None
        if pruned is not None:
            from repro.evaluation.instrument import count, observe

            ranking, stats = pruned
            candidates_scored = stats.candidates_scored
            observe("select.candidates_scored", float(stats.candidates_scored))
            count("select.subtrees_pruned", stats.groups_pruned)
            count("select.rows_pruned", stats.rows_pruned)

        names = [entry.name for entry in ranking if entry.selected][:k]
        scores = {entry.name: entry.score for entry in ranking}
        return SelectionOutcome(
            names=names,
            scores=scores,
            decisions=decisions,
            candidates_scored=candidates_scored,
        )

    def _hierarchical_selector(self, algorithm: str) -> HierarchicalSelector:
        """One cached hierarchical selector per algorithm.

        Reuse keeps the selector's per-node batch engines warm across
        queries instead of rebuilding them on every select call.
        """
        key = algorithm.lower()
        selector = self._hierarchical.get(key)
        if selector is None:
            selector = HierarchicalSelector(
                self.make_scorer(algorithm),
                self.builder,
                self.sampled_summaries,
            )
            self._hierarchical[key] = selector
        return selector

    # -- batched engines ---------------------------------------------------------

    def _summaries(self, key: str) -> Mapping[str, ContentSummary]:
        """S(D) for the "plain" key, R(D) for "universal"/"shrunk"."""
        return self.sampled_summaries if key == "plain" else self.shrunk_summaries

    def _set_matrix(self, key: str) -> SummarySetMatrix:
        """The one shared score matrix for a summary set ("plain"/"shrunk"),
        stacked over the cell vocabulary."""
        if key not in self._set_matrices:
            from repro.evaluation.instrument import span

            summaries = self._summaries(key)
            with span(
                "matrix.build", summary_set=key, databases=len(summaries)
            ):
                self._set_matrices[key] = SummarySetMatrix(
                    summaries,
                    self.builder.vocab,
                    previous=self._matrix_seeds.get(key),
                )
        return self._set_matrices[key]

    def _batched_engine(self, algorithm: str, key: str) -> BatchSelectionEngine:
        """The cached score-matrix engine for a fixed summary set
        ("plain"/"universal")."""
        cache_key = (algorithm.lower(), key)
        if cache_key not in self._engines:
            from repro.evaluation.instrument import span

            summaries = self._summaries(key)
            scorer = self._prepared_scorer(algorithm, key)
            matrix = self._set_matrix("plain" if key == "plain" else "shrunk")
            with span(
                "engine.build",
                algorithm=algorithm.lower(),
                summary_set=key,
                databases=len(summaries),
            ):
                self._engines[cache_key] = BatchSelectionEngine(
                    scorer, summaries, prepare=False, matrix=matrix
                )
        return self._engines[cache_key]

    def _adaptive_engine(self, algorithm: str) -> AdaptiveBatchEngine:
        """The cached mixed-set engine (plain + shrunk matrices)."""
        key = algorithm.lower()
        if key not in self._adaptive_engines:
            from repro.evaluation.instrument import span

            plain_matrix = self._set_matrix("plain")
            shrunk_matrix = self._set_matrix("shrunk")
            with span(
                "engine.build",
                algorithm=key,
                summary_set="adaptive",
                databases=len(self.sampled_summaries),
            ):
                self._adaptive_engines[key] = AdaptiveBatchEngine(
                    self.make_scorer(algorithm),
                    self.sampled_summaries,
                    self.shrunk_summaries,
                    plain_matrix=plain_matrix,
                    shrunk_matrix=shrunk_matrix,
                )
        return self._adaptive_engines[key]

    # -- pruned top-k ------------------------------------------------------------

    def _group_index(self, key: str) -> GroupIndex:
        """The cached per-category-subtree bound index for a set matrix."""
        if key not in self._group_indexes:
            matrix = self._set_matrix(key)
            self._group_indexes[key] = GroupIndex(
                matrix, group_labels(matrix.names, self.classifications)
            )
        return self._group_indexes[key]

    def _topk_engine(self, algorithm: str, key: str) -> TopKEngine:
        """The cached pruned top-k engine for a fixed summary set."""
        cache_key = (algorithm.lower(), key)
        if cache_key not in self._topk:
            engine = self._batched_engine(algorithm, key)
            groups = self._group_index("plain" if key == "plain" else "shrunk")
            self._topk[cache_key] = TopKEngine(
                engine.scorer, engine.matrix, groups
            )
        return self._topk[cache_key]

    def _mixed_topk_engine(self, algorithm: str) -> MixedTopKEngine:
        """The cached pruned top-k engine over per-query plain/shrunk mixes."""
        key = algorithm.lower()
        if key not in self._mixed_topk:
            engine = self._adaptive_engine(algorithm)
            self._mixed_topk[key] = MixedTopKEngine(
                engine.scorer,
                engine,
                self._group_index("plain"),
                self._group_index("shrunk"),
            )
        return self._mixed_topk[key]

    def _batched_floors(
        self,
        algorithm: str,
        scorer: DatabaseScorer,
        query_terms: Sequence[str],
    ) -> dict[str, float]:
        """Per-database floor scores in one batched pass."""
        engine = self._batched_engine(algorithm, "plain")
        floors = scorer.batch_floor_scores(query_terms, engine.matrix)
        return dict(zip(engine.names, floors.tolist()))

    def _prepared_scorer(self, algorithm: str, key: str) -> DatabaseScorer:
        """A scorer prepared once per fixed summary set, then reused."""
        cache_key = (algorithm.lower(), key)
        scorer = self._prepared_scorers.get(cache_key)
        if scorer is None:
            from repro.evaluation.instrument import span

            summaries = self._summaries(key)
            scorer = self.make_scorer(algorithm)
            with span(
                "scorer.prepare",
                algorithm=algorithm.lower(),
                summary_set=key,
                databases=len(summaries),
            ):
                scorer.prepare(summaries)
            self._prepared_scorers[cache_key] = scorer
        return scorer

    def _decision_model(
        self, name: str, sampled: SampledSummary
    ) -> ScoreDistributionModel:
        """The database's uncertainty model, built on first use."""
        model = self._decision_models.get(name)
        if model is None:
            model = self._decision_models.setdefault(
                name,
                ScoreDistributionModel(
                    sampled,
                    self.adaptive_config,
                    moment_cache=LruCache(MOMENT_CACHE_SIZE),
                    posterior_cache=LruCache(POSTERIOR_CACHE_SIZE),
                ),
            )
        return model

    def _adaptive_decisions(
        self,
        scorer: DatabaseScorer,
        query_terms: Sequence[str],
        floors: Mapping[str, float],
        deadline: float | None = None,
    ) -> dict[str, AdaptiveDecision]:
        """Content-summary-selection step of Figure 3 for every database.

        ``scorer`` must already be prepared on the unshrunk summaries: the
        uncertainty model scores hypothetical frequencies with the corpus
        statistics of the summaries actually observed. ``floors`` are the
        batched floor scores (bit-identical to the per-database
        computation, see base.batch_floor_scores).
        """
        from repro.evaluation.instrument import count

        decisions: dict[str, AdaptiveDecision] = {}
        for name, sampled in self.sampled_summaries.items():
            if deadline is not None and time.monotonic() > deadline:
                raise SelectionDeadlineExceeded(
                    f"adaptive decisions for {len(self.sampled_summaries)} "
                    f"databases exceeded the deadline after {len(decisions)}"
                )
            decisions[name] = self._decision_model(name, sampled).decide(
                scorer, query_terms, floors[name]
            )
        count("adaptive.decisions", len(decisions))
        count(
            "adaptive.use_shrinkage",
            sum(1 for d in decisions.values() if d.use_shrinkage),
        )
        return decisions


# -- scatter-gather merge ------------------------------------------------------


def merge_shard_outcomes(
    outcomes: Sequence[SelectionOutcome], k: int
) -> SelectionOutcome:
    """Merge disjoint per-shard selection outcomes into the global outcome.

    Exactness argument (the scatter-gather contract of
    :mod:`repro.serving.cluster`): shard scores are bit-identical to the
    single-cell scores when every shard scores with *globally* prepared
    corpus statistics, and the shards partition the database set. The
    single-cell ranking sorts by ``(-score, name)`` (see
    :func:`repro.selection.base.rank_databases`); concatenating the
    disjoint shard score maps and sorting by the same key therefore
    reproduces the global order entry for entry, ties included.

    Per-shard ``k' = k`` suffices for the selected set: take any database
    that is globally among the selected top ``k``. Within its own shard it
    is preceded only by shard-mates that also precede it globally, so it
    ranks at position <= k among its shard's selected entries and appears
    in that shard's ``names`` list. Hence the global ``names`` is exactly
    the first ``k`` merged entries that appear in *some* shard's ``names``
    — which is what this function computes.

    ``decisions`` merge only when every shard reports them;
    ``candidates_scored`` sums per-shard counts when every shard pruned
    (mirroring the single-cell "None means full scan" convention).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    scores: dict[str, float] = {}
    shard_selected: set[str] = set()
    for outcome in outcomes:
        for name in outcome.scores:
            if name in scores:
                raise ValueError(
                    f"shard outcomes are not disjoint: {name!r} was scored "
                    "by more than one shard (check the partitioning)"
                )
        scores.update(outcome.scores)
        shard_selected.update(outcome.names)
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    names = [name for name, _ in ordered if name in shard_selected][:k]

    decisions: dict[str, AdaptiveDecision] | None = {}
    for outcome in outcomes:
        if outcome.decisions is None:
            decisions = None
            break
        decisions.update(outcome.decisions)
    if not outcomes:
        decisions = None

    candidates_scored: int | None = 0
    for outcome in outcomes:
        if outcome.candidates_scored is None:
            candidates_scored = None
            break
        candidates_scored += outcome.candidates_scored
    if not outcomes:
        candidates_scored = None

    return SelectionOutcome(
        names=names,
        scores=scores,
        decisions=decisions,
        candidates_scored=candidates_scored,
    )


def merge_shard_rankings(
    rankings: Sequence[Sequence[RankedDatabase]],
) -> list[RankedDatabase]:
    """Concatenate disjoint shard rankings into the global ranking order.

    Entries keep their per-shard ``selected`` flags (score strictly above
    floor — a per-database property, identical under global statistics);
    the merged list is sorted by the single-cell sort key ``(-score,
    name)``, so it equals the single-cell ranking entry for entry.
    """
    merged: list[RankedDatabase] = []
    seen: set[str] = set()
    for ranking in rankings:
        for entry in ranking:
            if entry.name in seen:
                raise ValueError(
                    f"shard rankings are not disjoint: {entry.name!r} "
                    "appears in more than one shard"
                )
            seen.add(entry.name)
            merged.append(entry)
    merged.sort(key=lambda entry: (-entry.score, entry.name))
    return merged
