"""Hierarchical database selection — Ipeirotis & Gravano [17], Section 5.3.

This is the paper's main point of comparison ("QBS-Hierarchical" /
"FPS-Hierarchical"): instead of modifying database summaries, the strategy
aggregates unshrunk summaries into *category* summaries and lets a base
algorithm (bGlOSS/CORI/LM) pick the most promising category at each level,
descending until databases can be ranked directly.

The descent makes an irreversible choice per level: once a category is
entered, its databases are exhausted (best-first) before any sibling
category is considered — exactly the behaviour Section 6.2 identifies as
the strategy's weakness against flat, shrinkage-based ranking for queries
that cut across categories.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.category import CategorySummaryBuilder
from repro.selection.base import DatabaseScorer, RankedDatabase
from repro.selection.batch import BatchSelectionEngine
from repro.summaries.summary import ContentSummary


class HierarchicalSelector:
    """Hierarchical selection over category summaries.

    The builder must not change while the selector is in use: the batch
    engines cached per node stack the summaries it held on first use.
    """

    def __init__(
        self,
        scorer: DatabaseScorer,
        builder: CategorySummaryBuilder,
        summaries: Mapping[str, ContentSummary],
    ) -> None:
        self.scorer = scorer
        self.builder = builder
        self.summaries = dict(summaries)
        #: One batch engine per (node path, role) — the node's child
        #: categories, the databases under a leaf-most node, or the
        #: databases classified directly at an internal node.
        self._engines: dict[
            tuple[tuple[str, ...], str], BatchSelectionEngine
        ] = {}

    def select(self, query_terms: Sequence[str], k: int) -> list[str]:
        """Select up to ``k`` databases, best-category-first."""
        if k <= 0:
            return []
        return self._select_from(self.builder.hierarchy.root, query_terms, k)

    def _select_from(self, node, query_terms: Sequence[str], k: int) -> list[str]:
        """Recursive descent: best child first, exhausting each subtree."""
        children = [
            child
            for child in node.children
            if self.builder.databases_under(child.path)
        ]
        if not children:
            names = self.builder.databases_under(node.path)
            if not names:
                return []
            ranked = self._rank(
                (node.path, "databases"),
                {name: self.summaries[name] for name in names},
                query_terms,
            )
            return [entry.name for entry in ranked if entry.selected][:k]

        # Score the child categories as if they were databases, using their
        # Definition 3 category summaries.
        child_summaries = {
            "/".join(child.path): self.builder.category_summary(child.path)
            for child in children
        }
        ranking = self._rank((node.path, "children"), child_summaries, query_terms)

        selected: list[str] = []
        for entry in ranking:
            if not entry.selected:
                continue  # category at its floor score: skip the subtree
            child = next(
                child
                for child in children
                if "/".join(child.path) == entry.name
            )
            remaining = k - len(selected)
            if remaining <= 0:
                break
            selected.extend(self._select_from(child, query_terms, remaining))

        # Databases classified exactly at this (internal) node compete last,
        # after every explored child subtree.
        if len(selected) < k:
            direct = self._direct_databases(node)
            if direct:
                ranked = self._rank(
                    (node.path, "direct"),
                    {name: self.summaries[name] for name in direct},
                    query_terms,
                )
                for entry in ranked:
                    if len(selected) >= k:
                        break
                    if entry.selected and entry.name not in selected:
                        selected.append(entry.name)
        return selected[:k]

    def _rank(
        self,
        key: tuple[tuple[str, ...], str],
        summaries: Mapping[str, ContentSummary],
        query_terms: Sequence[str],
    ) -> list[RankedDatabase]:
        """Rank one node's candidate set on its cached batch engine."""
        engine = self._engines.get(key)
        if engine is None:
            engine = self._engines[key] = BatchSelectionEngine(
                self.scorer, summaries, prepare=False, vocab=self.builder.vocab
            )
        # The scorer is shared across nodes, so its corpus-level
        # statistics must be re-prepared on this candidate set — the same
        # preparation rank_databases performs, keeping the two
        # bit-identical.
        self.scorer.prepare(summaries)
        return engine.rank(query_terms)

    def _direct_databases(self, node) -> list[str]:
        """Databases classified exactly at ``node`` (not under a child)."""
        under = set(self.builder.databases_under(node.path))
        for child in node.children:
            under -= set(self.builder.databases_under(child.path))
        return sorted(under)
