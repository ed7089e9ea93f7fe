"""Paper-level outcomes pinned on a deterministic small cell.

The adaptive strategy (Section 4, Figure 3) decides per (query, database)
whether to score with the shrunk summary R(D); Table 10 reports how often
it does, and Section 6.2 reports the resulting Rk. A change to the
scoring or decision code that alters *which* databases get shrinkage, or
the recall it buys, must show up here as a reviewed diff of these
numbers rather than as silent drift.

The cell is the trec4 ``small`` qbs cell with its query workload. The
integer decision counts compare with ``==``; mean Rk compares to 1e-12
absolute.
"""

from __future__ import annotations

import pytest

from repro.evaluation import harness
from repro.evaluation.instrument import get_instrumentation

#: algorithm -> (adaptive.decisions, adaptive.use_shrinkage, {k: mean Rk})
PINNED = {
    "bgloss": (
        120,
        120,
        {1: 0.8062710437710437, 3: 0.8852848425372483, 10: 1.0},
    ),
    "cori": (
        120,
        0,
        {1: 0.8826599326599327, 3: 0.8957015092039149, 10: 1.0},
    ),
    "lm": (
        120,
        56,
        {1: 0.8830590386624869, 3: 0.8958304511432017, 10: 1.0},
    ),
}


def _counter(name: str) -> int:
    return get_instrumentation().snapshot()["counters"].get(name, 0)


@pytest.mark.parametrize("algorithm", sorted(PINNED))
def test_shrinkage_outcomes_pinned(small_cell, algorithm):
    harness.ensure_shrunk(small_cell)
    decisions_before = _counter("adaptive.decisions")
    applied_before = _counter("adaptive.use_shrinkage")
    curve = harness.rk_experiment(small_cell, algorithm, "shrinkage", k_max=10)
    decisions = _counter("adaptive.decisions") - decisions_before
    applied = _counter("adaptive.use_shrinkage") - applied_before

    expected_decisions, expected_applied, expected_rk = PINNED[algorithm]
    assert (decisions, applied) == (expected_decisions, expected_applied)
    for k, expected in expected_rk.items():
        assert float(curve[k - 1]) == pytest.approx(expected, rel=0, abs=1e-12)
