"""Run instrumentation: counters, timers, histograms, gauges, and spans.

The experiment harness spans several expensive stages — corpus synthesis,
query-based sampling, EM shrinkage, matrix evaluation — across worker
processes and a warm artifact cache that may skip any of them. This module
makes those effects observable at three levels of detail:

* **Counters and timers** (:class:`Instrumentation`) — flat, always-on
  totals. ``repro bench`` prints them, tests assert on them, and the
  parallel executor merges per-worker snapshot deltas into the parent.
* **Histograms and gauges** — also always-on. Histograms keep the raw
  observations (EM iterations to convergence, per-query scoring latency,
  store load latency, sample sizes) so percentiles can be computed and
  cross-process merges are exact; gauges keep the last written value.
* **Spans** (:func:`span`) — hierarchical, *zero-overhead by default*.
  With no collector installed, ``span(name)`` degrades to exactly the
  legacy ``timer(name)`` context manager. Once a :class:`TraceCollector`
  is installed (``repro ... --trace-out``), spans additionally record a
  structured event — id, parent id, wall-clock start, duration,
  attributes, peak RSS — forming a tree that can be exported as JSONL
  (:func:`write_trace`) and summarized by ``repro trace``.

Spans always feed the cumulative timer of the same name, so the flat
``report()`` totals and the span tree are two views of one measurement.

Cross-process contract: worker processes install a collector with the
parent's ``run_id`` (see :mod:`repro.evaluation.parallel`), buffer their
finished spans, and ship them back with each task's instrumentation delta;
the parent re-parents worker-root spans under whatever span was active at
merge time (:meth:`TraceCollector.adopt`), so a ``--jobs 8`` trace reads
as a single rooted tree. Span ids are ``"<pid-hex>-<seq-hex>"`` and hence
unique across the process tree.

Everything funnels through one module-level :class:`Instrumentation`
instance (:func:`get_instrumentation`) and at most one module-level
collector (:func:`install_collector`).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import time
import uuid
import zlib
from contextlib import contextmanager

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

#: Version of the JSONL trace event schema written by :func:`write_trace`.
TRACE_SCHEMA_VERSION = 1

#: Histogram percentiles reported by summaries and ``report()``.
_PERCENTILES = (50, 90, 99)

#: Default per-histogram raw-value cap before reservoir sampling kicks in.
#: Bench-scale histograms (hundreds to low thousands of observations) stay
#: exact and bit-identical; only a long-running server ever crosses it.
DEFAULT_HISTOGRAM_CAP = int(os.environ.get("REPRO_HISTOGRAM_CAP", "8192"))

#: Max raw values shipped per histogram in a delta once in reservoir mode.
_DELTA_SAMPLE_LIMIT = 256

_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (deterministic)."""
    if not sorted_values:
        return math.nan
    rank = max(int(math.ceil(q / 100.0 * len(sorted_values))), 1)
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _reservoir_seed(name: str) -> int:
    """Deterministic per-histogram LCG seed (stable across processes)."""
    return (zlib.crc32(name.encode("utf-8")) << 1) | 1


def _stride_sample(values: list[float], limit: int) -> list[float]:
    """At most ``limit`` values picked at a deterministic stride."""
    if len(values) <= limit:
        return list(values)
    n = len(values)
    return [values[(i * n) // limit] for i in range(limit)]


class Instrumentation:
    """A registry of named counters, cumulative timers, histograms, gauges.

    Thread-safe: the serving stack records from many handler threads at
    once, and the exact-count contract (pool aggregate == completed
    requests) tolerates no lost increments, so every mutation and every
    snapshot happens under one reentrant lock.

    Histogram storage is bounded: below ``histogram_cap`` raw values the
    histogram keeps every observation and percentiles are exact (and
    bit-identical to the unbounded behaviour); past the cap it switches
    to a deterministic Algorithm-R reservoir (per-name LCG seed) while
    exact count/sum/min/max totals keep accumulating, so a long-running
    server cannot grow memory without bound.
    """

    def __init__(self, histogram_cap: int | None = None) -> None:
        self.counters: dict[str, int] = {}
        self.timer_seconds: dict[str, float] = {}
        self.timer_calls: dict[str, int] = {}
        self.histograms: dict[str, list[float]] = {}
        #: Exact totals for histograms that crossed the cap, by name:
        #: ``{"count", "sum", "min", "max", "rng"}``. Absent name == exact mode.
        self.histogram_stats: dict[str, dict] = {}
        self.gauges: dict[str, float] = {}
        self.histogram_cap = (
            DEFAULT_HISTOGRAM_CAP if histogram_cap is None else int(histogram_cap)
        )
        self._lock = threading.RLock()

    def locked(self):
        """The registry's reentrant lock, as a context manager.

        Fork-safety hook: a dispatcher holds this across ``os.fork`` so
        a child never inherits the lock mid-held by some *other* thread
        (its first baseline snapshot would deadlock forever otherwise).
        """
        return self._lock

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (created at 0)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating wall time under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record ``seconds`` of wall time under ``name`` directly."""
        with self._lock:
            self.timer_seconds[name] = self.timer_seconds.get(name, 0.0) + seconds
            self.timer_calls[name] = self.timer_calls.get(name, 0) + calls

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the histogram ``name``."""
        with self._lock:
            self._observe(name, float(value))

    def _observe(self, name: str, value: float) -> None:
        values = self.histograms.get(name)
        if values is None:
            values = self.histograms[name] = []
        stats = self.histogram_stats.get(name)
        if stats is None:
            if len(values) < self.histogram_cap:
                values.append(value)
                return
            stats = self._enter_reservoir_mode(name, values)
        stats["count"] += 1
        stats["sum"] += value
        if value < stats["min"]:
            stats["min"] = value
        if value > stats["max"]:
            stats["max"] = value
        # Algorithm R: keep each of the first ``cap`` slots with
        # probability cap/count, driven by a deterministic per-name LCG.
        slot = self._reservoir_rand(stats) % stats["count"]
        if slot < len(values):
            values[slot] = value

    def _enter_reservoir_mode(self, name: str, values: list[float]) -> dict:
        stats = self.histogram_stats[name] = {
            "count": len(values),
            "sum": sum(values),
            "min": min(values) if values else math.inf,
            "max": max(values) if values else -math.inf,
            "rng": _reservoir_seed(name),
        }
        return stats

    @staticmethod
    def _reservoir_rand(stats: dict) -> int:
        state = (stats["rng"] * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        stats["rng"] = state
        return state >> 33

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self.gauges[name] = float(value)

    # -- histogram summaries -------------------------------------------------

    def histogram_summary(self, name: str) -> dict | None:
        """count/mean/min/max/percentiles of one histogram, or None.

        Exact below the cap. In reservoir mode, count/mean/min/max come
        from the exact running totals and percentiles from the reservoir.
        """
        with self._lock:
            values = self.histograms.get(name)
            if not values:
                return None
            ordered = sorted(values)
            stats = self.histogram_stats.get(name)
            if stats is None:
                summary = {
                    "count": len(ordered),
                    "mean": sum(ordered) / len(ordered),
                    "min": ordered[0],
                    "max": ordered[-1],
                }
            else:
                summary = {
                    "count": stats["count"],
                    "mean": stats["sum"] / stats["count"],
                    "min": stats["min"],
                    "max": stats["max"],
                }
            for q in _PERCENTILES:
                summary[f"p{q}"] = _percentile(ordered, q)
            return summary

    def histogram_summaries(self) -> dict[str, dict]:
        """Summaries of every non-empty histogram, by name."""
        with self._lock:
            return {
                name: summary
                for name in sorted(self.histograms)
                if (summary := self.histogram_summary(name)) is not None
            }

    # -- snapshots (for cross-process merging) -------------------------------

    def snapshot(self) -> dict:
        """A picklable copy of the current state.

        For histograms in reservoir mode, ``histograms[name]`` holds the
        reservoir sample and ``histogram_stats[name]`` the exact totals;
        exact-mode histograms carry every raw value and no stats entry.
        """
        with self._lock:
            snapshot = {
                "counters": dict(self.counters),
                "timer_seconds": dict(self.timer_seconds),
                "timer_calls": dict(self.timer_calls),
                "histograms": {name: list(v) for name, v in self.histograms.items()},
                "gauges": dict(self.gauges),
            }
            if self.histogram_stats:
                snapshot["histogram_stats"] = {
                    name: {key: stats[key] for key in ("count", "sum", "min", "max")}
                    for name, stats in self.histogram_stats.items()
                }
            return snapshot

    def delta_since(self, snapshot: dict) -> dict:
        """The state accumulated since ``snapshot`` was taken.

        Worker processes are long-lived (one worker handles many tasks),
        so each task reports only its own contribution: snapshot on entry,
        delta on exit. Exact-mode histograms are append-only between
        resets, so their delta is the suffix of new observations,
        preserving order and bit-identity. Reservoir-mode histograms ship
        exact count/sum deltas plus a bounded sample of reservoir values.
        """
        with self._lock:
            return snapshot_delta(snapshot, self.snapshot())

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (or delta) from another process into this one."""
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.count(name, value)
            calls = snapshot.get("timer_calls", {})
            for name, seconds in snapshot.get("timer_seconds", {}).items():
                # Default to 0, not 1: a delta can carry seconds for a timer
                # whose call count did not change (e.g. add_time(..., calls=0)),
                # and inventing a call would inflate merged totals.
                self.add_time(name, seconds, calls.get(name, 0))
            for name, count_ in calls.items():
                if name not in snapshot.get("timer_seconds", {}):
                    self.add_time(name, 0.0, count_)
            stats_payload = snapshot.get("histogram_stats", {})
            for name, values in snapshot.get("histograms", {}).items():
                if name in stats_payload:
                    continue  # sampled values fold with their stats below
                for value in values:
                    self._observe(name, float(value))
            for name, stats in stats_payload.items():
                self._fold_histogram_stats(
                    name, stats, snapshot.get("histograms", {}).get(name, ())
                )
            for name, value in snapshot.get("gauges", {}).items():
                self.set_gauge(name, value)

    def _fold_histogram_stats(self, name, stats, samples) -> None:
        """Fold exact totals + a value sample from another process.

        Totals (count/sum/min/max) stay exact; sampled values refresh
        this registry's reservoir so percentiles track the union
        approximately. Forces the local histogram into reservoir mode —
        exact percentiles are unrecoverable once a source sampled.
        """
        values = self.histograms.get(name)
        if values is None:
            values = self.histograms[name] = []
        own = self.histogram_stats.get(name)
        if own is None:
            own = self._enter_reservoir_mode(name, values)
        own["count"] += int(stats["count"])
        own["sum"] += float(stats["sum"])
        own["min"] = min(own["min"], float(stats["min"]))
        own["max"] = max(own["max"], float(stats["max"]))
        for value in samples:
            value = float(value)
            if len(values) < self.histogram_cap:
                values.append(value)
            else:
                slot = self._reservoir_rand(own) % max(own["count"], 1)
                if slot < len(values):
                    values[slot] = value

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter, timer, histogram, and gauge."""
        with self._lock:
            self.counters.clear()
            self.timer_seconds.clear()
            self.timer_calls.clear()
            self.histograms.clear()
            self.histogram_stats.clear()
            self.gauges.clear()

    # -- reporting -----------------------------------------------------------

    def _name_width(self) -> int:
        """Column width fitting the longest recorded name (min 28)."""
        names = [
            *self.timer_seconds, *self.counters, *self.histograms, *self.gauges
        ]
        if not names:
            return 28
        return max(28, max(len(name) for name in names))

    def report(self) -> str:
        """A formatted table of timers, counters, histograms, and gauges."""
        width = self._name_width()
        lines: list[str] = []
        if self.timer_seconds:
            lines.append(f"{'timer':<{width}} {'total s':>10} {'calls':>7}")
            for name in sorted(self.timer_seconds):
                lines.append(
                    f"{name:<{width}} {self.timer_seconds[name]:>10.3f} "
                    f"{self.timer_calls.get(name, 0):>7d}"
                )
        if self.counters:
            if lines:
                lines.append("")
            lines.append(f"{'counter':<{width}} {'value':>10}")
            for name in sorted(self.counters):
                lines.append(f"{name:<{width}} {self.counters[name]:>10d}")
        summaries = self.histogram_summaries()
        if summaries:
            if lines:
                lines.append("")
            lines.append(
                f"{'histogram':<{width}} {'count':>7} {'mean':>10} "
                f"{'p50':>10} {'p90':>10} {'max':>10}"
            )
            for name, s in summaries.items():
                lines.append(
                    f"{name:<{width}} {s['count']:>7d} {s['mean']:>10.4g} "
                    f"{s['p50']:>10.4g} {s['p90']:>10.4g} {s['max']:>10.4g}"
                )
        if self.gauges:
            if lines:
                lines.append("")
            lines.append(f"{'gauge':<{width}} {'value':>10}")
            for name in sorted(self.gauges):
                lines.append(f"{name:<{width}} {self.gauges[name]:>10.4g}")
        return "\n".join(lines) if lines else "(no instrumentation recorded)"


def snapshot_delta(before: dict, after: dict) -> dict:
    """The state accumulated between two snapshots of one registry.

    Equivalent to ``delta_since`` but computed from two already-taken
    snapshots, so a shipper can snapshot once and reuse it as the next
    baseline without racing concurrent recorders.
    """
    before_counters = before.get("counters", {})
    before_seconds = before.get("timer_seconds", {})
    before_calls = before.get("timer_calls", {})
    before_histograms = before.get("histograms", {})
    before_stats = before.get("histogram_stats", {})
    before_gauges = before.get("gauges", {})
    after_stats = after.get("histogram_stats", {})
    histograms: dict[str, list[float]] = {}
    stats_delta: dict[str, dict] = {}
    for name, values in after.get("histograms", {}).items():
        stats = after_stats.get(name)
        if stats is None:
            if len(values) > len(before_histograms.get(name, ())):
                histograms[name] = values[len(before_histograms.get(name, ())):]
            continue
        prior = before_stats.get(name)
        if prior is not None:
            prior_count, prior_sum = prior["count"], prior["sum"]
        else:
            prior_values = before_histograms.get(name, ())
            prior_count, prior_sum = len(prior_values), sum(prior_values)
        count = stats["count"] - prior_count
        if count <= 0:
            continue
        histograms[name] = _stride_sample(values, _DELTA_SAMPLE_LIMIT)
        stats_delta[name] = {
            "count": count,
            "sum": stats["sum"] - prior_sum,
            "min": stats["min"],
            "max": stats["max"],
        }
    delta = {
        "counters": {
            name: value - before_counters.get(name, 0)
            for name, value in after.get("counters", {}).items()
            if value != before_counters.get(name, 0)
        },
        "timer_seconds": {
            name: value - before_seconds.get(name, 0.0)
            for name, value in after.get("timer_seconds", {}).items()
            if value != before_seconds.get(name, 0.0)
        },
        "timer_calls": {
            name: value - before_calls.get(name, 0)
            for name, value in after.get("timer_calls", {}).items()
            if value != before_calls.get(name, 0)
        },
        "histograms": histograms,
        "gauges": {
            name: value
            for name, value in after.get("gauges", {}).items()
            if value != before_gauges.get(name)
        },
    }
    if stats_delta:
        delta["histogram_stats"] = stats_delta
    return delta


# -- labeled metric names ----------------------------------------------------------


def labeled(name: str, **labels) -> str:
    """``name{k=v,...}`` with keys sorted, so equal label sets collide."""
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


def split_labeled(name: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`labeled`: base name and label dict (possibly empty)."""
    if not name.endswith("}") or "{" not in name:
        return name, {}
    base, _, inner = name.partition("{")
    labels: dict[str, str] = {}
    for pair in inner[:-1].split(","):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        labels[key] = value
    return base, labels


#: The process-wide instance all harness code records into.
_GLOBAL = Instrumentation()


def get_instrumentation() -> Instrumentation:
    """The process-wide :class:`Instrumentation` instance."""
    return _GLOBAL


def count(name: str, amount: int = 1) -> None:
    """Shorthand for ``get_instrumentation().count(...)``."""
    _GLOBAL.count(name, amount)


def timer(name: str):
    """Shorthand for ``get_instrumentation().timer(...)``."""
    return _GLOBAL.timer(name)


def observe(name: str, value: float) -> None:
    """Shorthand for ``get_instrumentation().observe(...)``."""
    _GLOBAL.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Shorthand for ``get_instrumentation().set_gauge(...)``."""
    _GLOBAL.set_gauge(name, value)


# -- tracing ----------------------------------------------------------------------


def _rss_kb() -> int | None:
    """Peak RSS of this process in KiB (None where unsupported)."""
    if resource is None:  # pragma: no cover
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class TraceCollector:
    """Buffers finished span events and tracks the active span stack.

    One collector exists per traced process; workers are handed the
    parent's ``run_id`` so every event of a distributed run shares it.
    Events are plain dicts (picklable — they ship across process
    boundaries verbatim) with the schema documented in DESIGN.md §5b.
    """

    def __init__(self, run_id: str | None = None, track_memory: bool = False) -> None:
        self.run_id = run_id or uuid.uuid4().hex[:16]
        self.track_memory = bool(track_memory)
        self.created_at = time.time()
        self.events: list[dict] = []
        self._stack: list[dict] = []
        self._sequence = itertools.count(1)
        if self.track_memory:
            import tracemalloc

            if not tracemalloc.is_tracing():  # pragma: no branch
                tracemalloc.start()

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(self._sequence):x}"

    # -- span lifecycle ----------------------------------------------------------

    def begin(self, name: str, attrs: dict) -> dict:
        """Open a span; returns the in-progress event dict."""
        event = {
            "type": "span",
            "id": self._next_id(),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.time(),
            "_t0": time.perf_counter(),
        }
        if attrs:
            event["attrs"] = attrs
        if self.track_memory:
            import tracemalloc

            event["_mem0"] = tracemalloc.get_traced_memory()[0]
        self._stack.append(event)
        return event

    def end(self, event: dict) -> float:
        """Close a span; returns its duration in seconds."""
        elapsed = time.perf_counter() - event.pop("_t0")
        event["dur_s"] = elapsed
        rss = _rss_kb()
        if rss is not None:
            event["rss_kb"] = rss
        mem0 = event.pop("_mem0", None)
        if mem0 is not None:
            import tracemalloc

            event["mem_kb"] = (tracemalloc.get_traced_memory()[0] - mem0) / 1024.0
        if self._stack and self._stack[-1] is event:
            self._stack.pop()
        else:  # pragma: no cover - unbalanced exits (exception re-entry)
            try:
                self._stack.remove(event)
            except ValueError:
                pass
        self.events.append(event)
        return elapsed

    def leaf(self, name: str, dur_s: float, attrs: dict | None = None) -> dict:
        """Record a closed leaf span under the currently active span.

        For call sites that already measured their own duration (store
        loads, per-query selection) — cheaper than open/close bookkeeping
        and lets attributes include the outcome (hit/miss, #selected).
        """
        event = {
            "type": "span",
            "id": self._next_id(),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "pid": os.getpid(),
            "start": time.time() - dur_s,
            "dur_s": dur_s,
        }
        if attrs:
            event["attrs"] = attrs
        self.events.append(event)
        return event

    def annotate(self, **attrs) -> None:
        """Merge ``attrs`` into the innermost open span (no-op if none)."""
        if self._stack:
            self._stack[-1].setdefault("attrs", {}).update(attrs)

    def current_span_id(self) -> str | None:
        """Id of the innermost open span, if any."""
        return self._stack[-1]["id"] if self._stack else None

    # -- cross-process shipping ---------------------------------------------------

    def mark(self) -> int:
        """Position marker for :meth:`events_since` (buffer length)."""
        return len(self.events)

    def events_since(self, mark: int) -> list[dict]:
        """Finished events recorded after ``mark`` (picklable)."""
        return self.events[mark:]

    def adopt(self, events: list[dict]) -> None:
        """Fold another process's span events into this collector.

        Events with no parent (the shipped batch's roots) are re-parented
        under the currently active span — the span that dispatched the
        work — so a multi-process run still forms one tree. Ids are
        pid-prefixed and therefore never collide with local ones.
        """
        parent = self.current_span_id()
        for event in events:
            if event.get("parent") is None and parent is not None:
                event = dict(event)
                event["parent"] = parent
            self.events.append(event)


#: The process-wide collector; None means tracing is off (the default).
_COLLECTOR: TraceCollector | None = None


def install_collector(collector: TraceCollector) -> TraceCollector:
    """Install ``collector`` as the process-wide span collector."""
    global _COLLECTOR
    _COLLECTOR = collector
    return collector


def uninstall_collector() -> TraceCollector | None:
    """Remove and return the process-wide collector (tracing off again)."""
    global _COLLECTOR
    collector, _COLLECTOR = _COLLECTOR, None
    return collector


def get_collector() -> TraceCollector | None:
    """The installed collector, or None when tracing is off."""
    return _COLLECTOR


def tracing_active() -> bool:
    """True when a collector is installed."""
    return _COLLECTOR is not None


class _Span:
    """Context manager recording both a span event and the legacy timer."""

    __slots__ = ("_collector", "_name", "_event")

    def __init__(self, collector: TraceCollector, name: str, attrs: dict) -> None:
        self._collector = collector
        self._name = name
        self._event = collector.begin(name, attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = self._collector.end(self._event)
        _GLOBAL.add_time(self._name, elapsed)


def span(name: str, **attrs):
    """A hierarchical span; degrades to a plain timer when tracing is off.

    Always accumulates into ``timer_seconds[name]``, so the flat
    ``report()`` table and the span tree agree exactly. Attributes are
    recorded on the span event only when a collector is installed.
    """
    collector = _COLLECTOR
    if collector is None:
        return _GLOBAL.timer(name)
    return _Span(collector, name, attrs)


def annotate(**attrs) -> None:
    """Attach attributes to the innermost open span (no-op when off)."""
    if _COLLECTOR is not None:
        _COLLECTOR.annotate(**attrs)


def trace_mark() -> int:
    """Marker for :func:`spans_since` (0 when tracing is off)."""
    return _COLLECTOR.mark() if _COLLECTOR is not None else 0


def spans_since(mark: int) -> list[dict]:
    """Span events finished after ``mark`` ([] when tracing is off)."""
    return _COLLECTOR.events_since(mark) if _COLLECTOR is not None else []


def absorb_task_delta(delta: dict) -> None:
    """Merge a worker task's instrumentation delta and adopt its spans."""
    _GLOBAL.merge(delta)
    spans = delta.get("spans")
    if spans and _COLLECTOR is not None:
        _COLLECTOR.adopt(spans)


# -- JSONL export -----------------------------------------------------------------


def _round_floats(value, digits: int = 6):
    """Round floats recursively so trace files stay compact and stable."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item, digits) for item in value]
    return value


def trace_events(
    collector: TraceCollector,
    instrumentation: Instrumentation | None = None,
    extra_events: list[dict] | tuple = (),
) -> list[dict]:
    """The full event stream of a run: header, spans, metrics, extras.

    Stable schema (``TRACE_SCHEMA_VERSION``): one ``run`` header carrying
    the run id, every ``span`` event in completion order, one ``metrics``
    event with the final counter/timer/histogram/gauge state, then any
    caller-supplied events (e.g. a bench ``record``).
    """
    instrumentation = instrumentation or _GLOBAL
    header = {
        "type": "run",
        "schema": TRACE_SCHEMA_VERSION,
        "run_id": collector.run_id,
        "pid": os.getpid(),
        "python": sys.version.split()[0],
        "started": collector.created_at,
    }
    events = [header]
    for event in collector.events:
        events.append(_round_floats(event))
    events.append(
        _round_floats(
            {
                "type": "metrics",
                "run_id": collector.run_id,
                "counters": dict(instrumentation.counters),
                "timers": {
                    name: {
                        "seconds": instrumentation.timer_seconds[name],
                        "calls": instrumentation.timer_calls.get(name, 0),
                    }
                    for name in sorted(instrumentation.timer_seconds)
                },
                "histograms": instrumentation.histogram_summaries(),
                "gauges": dict(instrumentation.gauges),
            }
        )
    )
    for event in extra_events:
        events.append(_round_floats(dict(event)))
    return events


def write_trace(
    path,
    collector: TraceCollector,
    instrumentation: Instrumentation | None = None,
    extra_events: list[dict] | tuple = (),
) -> int:
    """Write the run's event stream to ``path`` as JSONL; returns #events."""
    events = trace_events(collector, instrumentation, extra_events)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    return len(events)
