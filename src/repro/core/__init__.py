"""The paper's primary contribution: shrinkage-based content summaries.

* :mod:`repro.core.category` — category content summaries (Definition 3),
  including the descendant-subtraction rule of Definition 4's note.
* :mod:`repro.core.shrinkage` — shrunk summaries and the EM computation of
  the mixture weights (Definition 4, Figure 2).
* :mod:`repro.core.adaptive` — the adaptive, query-specific decision of
  whether to use shrinkage (Section 4, Appendix B).
"""

from repro.core.adaptive import (
    AdaptiveConfig,
    AdaptiveDecision,
    ScoreDistributionModel,
    decide_summary,
)
from repro.core.category import CategorySummaryBuilder
from repro.core.shrinkage import (
    ShrinkageConfig,
    ShrunkSummary,
    shrink_all_summaries,
    shrink_database_summary,
)

__all__ = [
    "AdaptiveConfig",
    "AdaptiveDecision",
    "CategorySummaryBuilder",
    "ScoreDistributionModel",
    "ShrinkageConfig",
    "ShrunkSummary",
    "decide_summary",
    "shrink_all_summaries",
    "shrink_database_summary",
]
