"""Per-layer tracing for ``--trace 1`` runs.

The benchmark wraps named public functions of each layer from its own
files: every wrapped call adds its wall time to the program's process-wide
instrumentation as a ``perfbench.<layer>`` timer. Recording into that
registry, rather than into a private one, means forked serving workers
ship these timers back to the dispatcher with their existing telemetry.
Only the outermost call of a layer on a thread is timed, so a method that
calls its own override chain is not counted twice.

Nothing here adds a span inside the program. A traced run also installs
the program's own trace collector, and reads the counters and
``serve.phase_seconds`` / ``serve.handler_seconds`` histograms the
program already records.
"""

from __future__ import annotations

import functools
import gc
import threading
import time

PREFIX = "perfbench."

#: Every per-layer metric, in the order the traced report prints them,
#: with its unit. A traced run reports each one on every workload; a layer
#: the workload does not touch reads 0.
PER_LAYER_UNITS: dict[str, str] = {
    "harness.testbed_s": "s",
    "harness.cell_s": "s",
    "harness.shrunk_s": "s",
    "store.load_s": "s",
    "store.bytes_read": "bytes",
    "service.warmup_s": "s",
    "workers.start_s": "s",
    "cluster.start_s": "s",
    "adaptive.moments_ms": "ms",
    "scorer.floors_ms": "ms",
    "adaptive.decisions": "count",
    "adaptive.shrinkage_rate": "fraction",
    "metasearcher.select_ms": "ms",
    "batch.rank_ms": "ms",
    "serial.rank_ms": "ms",
    "topk.rank_ms": "ms",
    "topk.candidates_scored_frac": "fraction",
    "topk.rows_pruned": "count",
    "topk.subtrees_pruned": "count",
    "service.cache_hit_rate": "fraction",
    "service.phase.parse_ms": "ms",
    "service.phase.cache_ms": "ms",
    "service.phase.select_ms": "ms",
    "service.phase.serialize_ms": "ms",
    "http.overhead_ms": "ms",
    "lifecycle.apply_s": "s",
    "lifecycle.em_recomputed": "count",
    "service.update_s": "s",
    "service.cache_retained": "count",
    "workers.flip_s": "s",
    "shm.pack_bytes": "bytes",
    "update.p50_s": "s",
    "cluster.shard_select_ms": "ms",
    "cluster.merge_overhead_ms": "ms",
    "gc.gen2_pauses": "count",
    "gc.pause_ms": "ms",
    "degraded_fraction": "fraction",
    "failed_fraction": "fraction",
    "traced.latency_p50_ms": "ms",
}


class LayerTracer:
    """Installs the timing wrappers; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self._depth = threading.local()
        #: Per-shard select times of the request in flight (cluster only;
        #: the cluster workload keeps one request in flight at a time).
        self._shard_times: list[float] = []
        self._shard_lock = threading.Lock()
        self._gc_started = 0.0
        #: Set while the benchmark itself forces a collection.
        self.forcing = False

    def _wrap(self, owner, attr: str, layer: str, before=None, after=None) -> None:
        original = owner.__dict__[attr]
        depth = self._depth
        name = PREFIX + layer

        @functools.wraps(original)
        def timed(*args, **kwargs):
            from repro.evaluation.instrument import get_instrumentation

            level = getattr(depth, layer, 0)
            if level == 0 and before is not None:
                before()
            setattr(depth, layer, level + 1)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                setattr(depth, layer, level)
            if level == 0:
                elapsed = time.perf_counter() - start
                get_instrumentation().add_time(name, elapsed)
                if after is not None:
                    after(args, result, elapsed)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, timed)

    def install(self) -> "LayerTracer":
        from repro.core.adaptive import ScoreDistributionModel
        from repro.evaluation import harness
        from repro.evaluation.instrument import get_instrumentation
        from repro.evaluation.store import ArtifactStore
        from repro.selection.batch import AdaptiveBatchEngine, BatchSelectionEngine
        from repro.selection.bgloss import BGlossScorer
        from repro.selection.cori import CoriScorer
        from repro.selection.lm import LanguageModelScorer
        from repro.selection import metasearcher
        from repro.selection.metasearcher import Metasearcher
        from repro.selection.topk import MixedTopKEngine, TopKEngine
        from repro.serving.cluster import (
            Cluster,
            ClusterFrontend,
            LocalShardTarget,
            ShardSelectionService,
        )
        from repro.serving.lifecycle import CellUpdater
        from repro.serving.service import SelectionService
        from repro.serving.workers import WorkerPool

        def shard_done(args, result, elapsed):
            with self._shard_lock:
                self._shard_times.append(elapsed)

        def frontend_done(args, result, elapsed):
            with self._shard_lock:
                slowest = max(self._shard_times, default=0.0)
                self._shard_times.clear()
            get_instrumentation().add_time(
                PREFIX + "cluster.merge_overhead", elapsed - slowest
            )

        def frontend_start():
            with self._shard_lock:
                self._shard_times.clear()

        self._wrap(harness, "get_testbed", "harness.testbed")
        self._wrap(harness, "get_cell", "harness.cell")
        self._wrap(harness, "ensure_shrunk", "harness.shrunk")
        self._wrap(ArtifactStore, "load_artifact", "store.load")
        self._wrap(SelectionService, "warmup", "service.warmup")
        self._wrap(WorkerPool, "start", "workers.start")
        self._wrap(Cluster, "start", "cluster.start")
        self._wrap(ScoreDistributionModel, "score_moments", "adaptive.moments")
        for scorer in (BGlossScorer, CoriScorer, LanguageModelScorer):
            self._wrap(scorer, "batch_floor_scores", "scorer.floors")
        self._wrap(Metasearcher, "select", "metasearcher.select")
        self._wrap(BatchSelectionEngine, "rank", "batch.rank")
        self._wrap(AdaptiveBatchEngine, "rank", "batch.rank")
        # The per-database scoring loop the metasearcher falls back to
        # when a summary set does not stack into the batched engines.
        self._wrap(metasearcher, "rank_databases", "serial.rank")
        self._wrap(TopKEngine, "rank", "topk.rank")
        self._wrap(MixedTopKEngine, "rank", "topk.rank")
        self._wrap(CellUpdater, "apply", "lifecycle.apply")
        self._wrap(SelectionService, "apply_update", "service.update")
        self._wrap(ShardSelectionService, "apply_update", "service.update")
        self._wrap(WorkerPool, "apply_update", "workers.update")
        self._wrap(
            LocalShardTarget, "select", "cluster.shard_select", after=shard_done
        )
        self._wrap(
            ClusterFrontend,
            "select",
            "cluster.frontend",
            before=frontend_start,
            after=frontend_done,
        )
        gc.callbacks.append(self._on_gc)
        return self

    def _on_gc(self, phase: str, info: dict) -> None:
        """Times full (generation 2) collections: the interpreter's pauses."""
        if info.get("generation") != 2 or self.forcing:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            from repro.evaluation.instrument import get_instrumentation

            get_instrumentation().add_time(
                PREFIX + "gc.gen2", time.perf_counter() - self._gc_started
            )

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def timer_seconds(delta: dict, layer: str) -> float:
    return float(delta.get("timer_seconds", {}).get(PREFIX + layer, 0.0))


def timer_calls(delta: dict, layer: str) -> int:
    return int(delta.get("timer_calls", {}).get(PREFIX + layer, 0))


def histogram_totals(delta: dict, base: str, **labels) -> tuple[int, float]:
    """(count, sum) over every labelled series of ``base`` matching ``labels``."""
    from repro.serving.telemetry import split_labeled

    stats = delta.get("histogram_stats", {})
    count, total = 0, 0.0
    for name, values in delta.get("histograms", {}).items():
        series, series_labels = split_labeled(name)
        if series != base:
            continue
        if any(series_labels.get(key) != value for key, value in labels.items()):
            continue
        if name in stats:
            count += int(stats[name]["count"])
            total += float(stats[name]["sum"])
        else:
            count += len(values)
            total += float(sum(values))
    return count, total


def setup_layers(delta: dict) -> dict[str, float]:
    """Startup layer metrics from the instrumentation delta of one set-up."""
    counters = delta.get("counters", {})
    return {
        "harness.testbed_s": timer_seconds(delta, "harness.testbed"),
        "harness.cell_s": timer_seconds(delta, "harness.cell"),
        "harness.shrunk_s": timer_seconds(delta, "harness.shrunk"),
        "store.load_s": timer_seconds(delta, "store.load"),
        "store.bytes_read": float(
            sum(
                value
                for name, value in counters.items()
                if name.startswith("cache.bytes_read.")
            )
        ),
        "service.warmup_s": timer_seconds(delta, "service.warmup"),
        "workers.start_s": timer_seconds(delta, "workers.start"),
        "cluster.start_s": timer_seconds(delta, "cluster.start"),
    }


def window_layers(delta: dict, requests: int) -> dict[str, float]:
    """Request-path layer metrics over the timed window.

    Times are totals per completed request, in ms, so each reads as the
    share of a request's latency the layer accounts for.
    """
    counters = delta.get("counters", {})
    per = 1e3 / requests if requests else 0.0
    decisions = counters.get("adaptive.decisions", 0)
    phases = {}
    for phase in ("parse", "cache", "select", "serialize"):
        _, total = histogram_totals(
            delta, "serve.phase_seconds", endpoint="select", phase=phase
        )
        phases[f"service.phase.{phase}_ms"] = total * per
    shard_calls = timer_calls(delta, "cluster.shard_select")
    pauses = timer_calls(delta, "gc.gen2")
    return {
        "adaptive.moments_ms": timer_seconds(delta, "adaptive.moments") * per,
        "scorer.floors_ms": timer_seconds(delta, "scorer.floors") * per,
        "adaptive.decisions": float(decisions),
        "adaptive.shrinkage_rate": (
            counters.get("adaptive.use_shrinkage", 0) / decisions
            if decisions
            else 0.0
        ),
        "metasearcher.select_ms": (
            timer_seconds(delta, "metasearcher.select") * per
        ),
        "batch.rank_ms": timer_seconds(delta, "batch.rank") * per,
        "serial.rank_ms": timer_seconds(delta, "serial.rank") * per,
        "topk.rank_ms": timer_seconds(delta, "topk.rank") * per,
        "topk.rows_pruned": float(counters.get("select.rows_pruned", 0)),
        "topk.subtrees_pruned": float(counters.get("select.subtrees_pruned", 0)),
        **phases,
        "cluster.shard_select_ms": (
            timer_seconds(delta, "cluster.shard_select") * 1e3 / shard_calls
            if shard_calls
            else 0.0
        ),
        "cluster.merge_overhead_ms": (
            timer_seconds(delta, "cluster.merge_overhead") * per
        ),
        "gc.gen2_pauses": float(pauses),
        "gc.pause_ms": (
            timer_seconds(delta, "gc.gen2") * 1e3 / pauses if pauses else 0.0
        ),
    }


def handler_ms(delta: dict) -> float:
    """Mean server-side handling time of ``/select`` requests, in ms."""
    count, total = histogram_totals(delta, "serve.handler_seconds", endpoint="select")
    return total * 1e3 / count if count else 0.0


def update_layers(delta: dict, updates: list[dict], pack_bytes: int) -> dict[str, float]:
    """Lifecycle layer metrics: per-update means over the window's updates."""
    n = len(updates)
    if not n:
        return {
            "lifecycle.apply_s": 0.0,
            "lifecycle.em_recomputed": 0.0,
            "service.update_s": 0.0,
            "service.cache_retained": 0.0,
            "workers.flip_s": 0.0,
            "shm.pack_bytes": float(pack_bytes),
        }
    service_s = timer_seconds(delta, "service.update")
    pool_s = timer_seconds(delta, "workers.update")
    return {
        "lifecycle.apply_s": timer_seconds(delta, "lifecycle.apply") / n,
        "lifecycle.em_recomputed": float(
            delta.get("counters", {}).get("lifecycle.em_recomputed", 0)
        ) / n,
        "service.update_s": service_s / n,
        "service.cache_retained": sum(
            float(update.get("response_cache_retained", 0)) for update in updates
        ) / n,
        "workers.flip_s": max(pool_s - service_s, 0.0) / n,
        "shm.pack_bytes": float(pack_bytes),
    }
