"""Tests of the benchmark itself: inputs, metric extraction, gates, BENCHMARK.json.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import env, gates, layers, load, workloads
from perfbench.run import END_TO_END_UNITS

ROOT = Path(__file__).resolve().parents[2]
VOCABULARY = [f"word{i:03d}" for i in range(400)]


# -- inputs are a function of the seed ------------------------------------------


def test_query_stream_is_deterministic_per_seed():
    first = workloads.query_stream(VOCABULARY, 5)
    assert first == workloads.query_stream(VOCABULARY, 5)
    assert first != workloads.query_stream(VOCABULARY, 6)
    assert len({tuple(q) for q in first}) == len(first)  # distinct queries


def test_zipf_inputs_are_deterministic_per_seed():
    pool = workloads.zipf_pool(VOCABULARY, 3)
    assert pool == workloads.zipf_pool(VOCABULARY, 3)
    assert pool != workloads.zipf_pool(VOCABULARY, 4)
    assert len(pool) == workloads.ZIPF_POOL
    strategies = [strategy for _, _, strategy in pool]
    assert strategies.count("plain") == strategies.count("shrinkage")
    large = workloads.zipf_pool(VOCABULARY, 3, workloads.ZIPF_HTTP_POOL)
    assert len(large) == workloads.ZIPF_HTTP_POOL
    for chosen in ("plain", "shrinkage"):
        # Every strategy gets the algorithms in equal shares.
        counts = Counter(a for _, a, strategy in large if strategy == chosen)
        assert set(counts) == set(workloads.ALGORITHMS)
        assert max(counts.values()) - min(counts.values()) <= 1
    draws = workloads.zipf_draws(3, 500)
    assert np.array_equal(draws, workloads.zipf_draws(3, 500))
    assert not np.array_equal(draws, workloads.zipf_draws(4, 500))
    # Rank 0 is the most popular entry.
    assert np.bincount(draws, minlength=workloads.ZIPF_POOL).argmax() == 0


def test_update_ops_are_deterministic_and_rotate():
    names = [f"db{i}" for i in range(6)]
    ops = workloads.update_ops(names, 2, 3)
    assert ops == workloads.update_ops(list(reversed(names)), 2, 3)
    assert [batch[0]["name"] for batch in ops] == ["db2", "db3", "db4"]
    assert len({batch[0]["seed"] for batch in ops}) == 3


# -- the load generator and metric extraction, against a stub service -----------


class StubService:
    """Answers instantly-ish with a fixed response; counts calls."""

    def __init__(self, delay: float = 0.001, fail_every: int = 0) -> None:
        self.delay = delay
        self.fail_every = fail_every
        self.calls = 0

    def select(self, terms, algorithm="cori", strategy="plain", k=10):
        self.calls += 1
        time.sleep(self.delay)
        if self.fail_every and self.calls % self.fail_every == 0:
            raise RuntimeError("stub failure")
        return {
            "selected": ["a"],
            "ranking": [{"name": "a", "score": 1.0, "selected": True}],
            "cached": self.calls % 2 == 0,
            "degraded": False,
            "candidates_scored": 5,
        }


def stub_request(service):
    def request(index):
        return (("q", index), "cori"), lambda: service.select(["q"])

    return request


def test_closed_loop_metrics_from_stub_service():
    service = StubService(delay=0.002, fail_every=10)
    window = load.closed_loop("window", stub_request(service), 0.3)
    assert window.attempted == service.calls
    assert window.failed == service.calls // 10
    assert window.succeeded + window.failed == window.attempted
    run = SimpleNamespace(trace=True)
    result = workloads.finish(
        run,
        window,
        [1.0, 3.0, 2.0],
        {"checked": window.succeeded, "wrong": 0},
        [],
        {"harness.cell_s": 0.5},
        {"counters": {"adaptive.decisions": 8, "adaptive.use_shrinkage": 2}},
        window.latencies(),
        window.succeeded / window.seconds,
        10,
    )
    assert set(result.metrics) == set(END_TO_END_UNITS) - {"peak_rss_mb"}
    assert result.metrics["setup_s"] == 2.0
    assert 2.0 <= result.metrics["latency_p50_ms"] < 50.0
    assert result.metrics["latency_p99_ms"] >= result.metrics["latency_p50_ms"]
    assert result.metrics["throughput_qps"] > 0
    assert result.failed == window.failed
    assert result.attempted == window.attempted
    assert set(result.layers) == set(layers.PER_LAYER_UNITS)
    assert result.layers["harness.cell_s"] == 0.5
    assert result.layers["adaptive.shrinkage_rate"] == 0.25
    assert result.layers["topk.candidates_scored_frac"] == 0.5
    assert 0.4 < result.layers["service.cache_hit_rate"] < 0.6
    assert result.layers["failed_fraction"] == window.failed / window.attempted


def test_open_loop_times_from_due_time_and_caps_overload():
    service = StubService(delay=0.01)
    step = load.open_loop_step("overload", stub_request(service), 400.0, 0.3)
    # ~100 req/s capacity against 400 req/s offered: the step still ends
    # on time, and the generator reports how far behind it fell.
    assert step.seconds < 0.5
    assert step.attempted < 0.5 * 400.0 * 0.3
    assert step.end_lateness > 0.1
    # Latency from the due time includes the backlog, so it grows.
    assert step.latencies()[-1] > step.latencies()[0] + 0.1


def test_window_layers_normalise_per_request():
    delta = {
        "timer_seconds": {
            "perfbench.adaptive.moments": 0.5,
            "perfbench.cluster.shard_select": 0.2,
        },
        "timer_calls": {"perfbench.cluster.shard_select": 4},
        "counters": {"select.rows_pruned": 7},
        "histograms": {
            "serve.phase_seconds{endpoint=select,phase=select}": [0.01, 0.03],
            "serve.phase_seconds{endpoint=update,phase=select}": [9.0],
        },
    }
    values = layers.window_layers(delta, requests=10)
    assert values["adaptive.moments_ms"] == pytest.approx(50.0)
    assert values["cluster.shard_select_ms"] == pytest.approx(50.0)
    assert values["service.phase.select_ms"] == pytest.approx(4.0)
    assert values["topk.rows_pruned"] == 7


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert load.percentile(values, 50) == 50
    assert load.percentile(values, 99) == 99
    assert load.beyond(len(values), 99) == 1
    assert load.beyond(1000, 99) == 10


# -- the correctness gate ----------------------------------------------------------


def outcome_and_response():
    outcome = SimpleNamespace(
        names=["b", "a"], scores={"a": 0.25, "b": 0.5, "c": 0.125}
    )
    response = {
        "selected": ["b", "a"],
        "ranking": [
            {"name": "b", "score": 0.5, "selected": True},
            {"name": "a", "score": 0.25, "selected": True},
            {"name": "c", "score": 0.125, "selected": False},
        ],
        "degraded": False,
    }
    return outcome, response


def test_gate_accepts_identical_response():
    outcome, response = outcome_and_response()
    report = gates.check_answers([("q", response)], lambda key: outcome, limit=None)
    assert report == {"checked": 1, "wrong": 0, "examples": []}


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["ranking"][1].update(score=float(np.nextafter(0.25, 1.0))),
        lambda r: r["ranking"][2].update(selected=True),
        lambda r: r.update(selected=["a", "b"]),
        lambda r: r["ranking"].pop(),
        lambda r: r.update(degraded=True),
    ],
    ids=["score-ulp", "flag", "order", "truncated", "degraded"],
)
def test_gate_trips_on_tampered_response(tamper):
    outcome, response = outcome_and_response()
    tamper(response)
    report = gates.check_answers([("q", response)], lambda key: outcome, limit=None)
    assert report["wrong"] == 1


def test_gate_against_real_service_trips_on_tamper():
    from repro.evaluation import harness
    from repro.serving.service import SelectionService, ServiceConfig

    harness.clear_caches()
    try:
        service = SelectionService.from_harness(
            ServiceConfig(dataset="trec4", scale="small")
        )
        queries = workloads.query_stream(
            workloads.cell_vocabulary(service.metasearcher), 1
        )[:6]
        answers = [
            ((tuple(q), "lm"), service.select(q, algorithm="lm", strategy="shrinkage"))
            for q in queries
        ]

        def reference(key):
            terms, algorithm = key
            return service.metasearcher.select(
                workloads.canonical(terms), algorithm=algorithm, strategy="shrinkage"
            )

        assert gates.check_answers(answers, reference, limit=None)["wrong"] == 0
        entry = answers[2][1]["ranking"][0]
        entry["score"] = float(np.nextafter(entry["score"], np.inf))
        assert gates.check_answers(answers, reference, limit=None)["wrong"] == 1
    finally:
        harness.clear_caches()


# -- BENCHMARK.json matches the code ----------------------------------------------


def test_benchmark_json_matches_the_code():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    # universe-plain-open and zipf-update-http run by name but are left
    # out (see README.md).
    left_out = {"universe-plain-open", "zipf-update-http"}
    assert names == [w for w in workloads.WORKLOADS if w not in left_out]
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )
    setup_bound = next(m["bound"] for m in config["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in config["end_to_end"])


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_shm_probe_lists_only_program_segments(tmp_path, monkeypatch):
    (tmp_path / f"{env.SHM_PREFIX}_1_1_ab").write_bytes(b"")
    (tmp_path / "other").write_bytes(b"")
    monkeypatch.setattr(env, "SHM_DIR", tmp_path)
    assert env.shm_segments() == {f"{env.SHM_PREFIX}_1_1_ab"}
