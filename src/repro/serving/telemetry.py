"""Serving-path telemetry: request records, labeled metrics, /metrics, slow log.

The serving stack (service/server/workers) measures every request in
phases — parse, cache lookup, select, serialize — and tags the outcome
(strategy, snapshot epoch, pruned vs. full scan, cache hit, degraded,
error class). This module is the vocabulary those layers share:

* :class:`RequestTelemetry` — one per-request accumulator carried from
  the HTTP handler through :meth:`SelectionService.select`, published
  into the process-wide :class:`~repro.evaluation.instrument.Instrumentation`
  registry by :func:`record_request` (and as a span when a
  ``TraceCollector`` is installed).
* **Labeled metric names** — flat instrumentation names may carry a
  canonical ``{key=value,...}`` label suffix (:func:`labeled` /
  :func:`split_labeled`), so one registry holds
  ``serve.http.requests{endpoint=select,status=ok}`` per endpoint
  without new metric types. Label sets stay low-cardinality by
  construction: endpoint, phase, strategy, status, scan mode, epoch.
* :func:`render_prometheus` — text exposition of a registry (counters,
  gauges, timers, histograms with exact-percentile quantiles) in the
  Prometheus format, deterministic ordering, no locks held beyond the
  registry's own snapshot lock.
* :class:`SlowQueryLog` — threshold-triggered structured JSONL log with
  bounded size (single rotation: ``<path>`` + ``<path>.1``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.evaluation.instrument import (
    Instrumentation,
    _percentile,
    get_collector,
    get_instrumentation,
    labeled,
    split_labeled,
)

#: Environment knobs for the slow-query log (CLI flags override).
SLOW_LOG_PATH_ENV = "REPRO_SLOW_QUERY_LOG"
SLOW_LOG_THRESHOLD_ENV = "REPRO_SLOW_QUERY_THRESHOLD_MS"
SLOW_LOG_MAX_BYTES_ENV = "REPRO_SLOW_QUERY_LOG_MAX_BYTES"

_DEFAULT_SLOW_THRESHOLD_SECONDS = 0.1
_DEFAULT_SLOW_LOG_MAX_BYTES = 1 << 20

_REQUEST_SEQUENCE = itertools.count(1)


def next_request_id() -> str:
    """A process-unique request id (pid-prefixed, like span ids)."""
    return f"{os.getpid():x}-{next(_REQUEST_SEQUENCE):x}"


# -- per-request telemetry ---------------------------------------------------------


class RequestTelemetry:
    """Accumulates one request's phase timings and outcome tags.

    Created by the HTTP handler (so the ``parse`` phase covers body read
    + JSON decode) or by :meth:`SelectionService.select` for in-process
    callers, and published exactly once via :func:`record_request`.
    """

    __slots__ = ("request_id", "endpoint", "phases", "tags", "error_class", "_t0")

    def __init__(self, endpoint: str, request_id: str | None = None) -> None:
        self.request_id = request_id or next_request_id()
        self.endpoint = endpoint
        self.phases: dict[str, float] = {}
        self.tags: dict = {}
        self.error_class: str | None = None
        self._t0 = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        """Time a block under the phase ``name`` (accumulates on re-entry)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase(name, time.perf_counter() - start)

    def add_phase(self, name: str, seconds: float) -> None:
        self.phases[name] = self.phases.get(name, 0.0) + seconds

    def tag_outcome(self, **tags) -> None:
        """Attach outcome tags (strategy, epoch, cache_hit, ...)."""
        self.tags.update(tags)

    def fail(self, error: BaseException) -> None:
        self.error_class = type(error).__name__

    def elapsed_seconds(self) -> float:
        return time.perf_counter() - self._t0


def record_request(
    telemetry: RequestTelemetry,
    instrumentation: Instrumentation | None = None,
) -> float:
    """Publish one finished request into the metrics registry.

    Returns the total elapsed seconds (so the caller can feed a slow-query
    log without re-measuring). Emits a ``serve.request`` leaf span when a
    trace collector is installed; free otherwise.
    """
    inst = instrumentation if instrumentation is not None else get_instrumentation()
    endpoint = telemetry.endpoint
    tags = telemetry.tags
    elapsed = telemetry.elapsed_seconds()
    # Shed ≠ error: an admission refusal is deliberate backpressure, not a
    # failure — it gets its own status (and serve.shed_requests below)
    # instead of polluting the error series.
    if tags.get("shed"):
        status = "shed"
    elif telemetry.error_class is None:
        status = "ok"
    else:
        status = "error"
    inst.count(labeled("serve.http.requests", endpoint=endpoint, status=status))
    if telemetry.error_class is not None and status == "error":
        inst.count(
            labeled("serve.errors", endpoint=endpoint, **{"class": telemetry.error_class})
        )
    for phase, seconds in telemetry.phases.items():
        inst.observe(
            labeled("serve.phase_seconds", endpoint=endpoint, phase=phase), seconds
        )
    handler_labels = {"endpoint": endpoint}
    if "strategy" in tags:
        handler_labels["strategy"] = tags["strategy"]
    if "epoch" in tags:
        handler_labels["epoch"] = tags["epoch"]
    inst.observe(labeled("serve.handler_seconds", **handler_labels), elapsed)
    if tags.get("cache_hit"):
        inst.count(labeled("serve.cache_hits", endpoint=endpoint))
    if tags.get("degraded"):
        inst.count(labeled("serve.degraded_requests", endpoint=endpoint))
    if tags.get("shed"):
        inst.count(labeled("serve.shed_requests", endpoint=endpoint))
    if "pruned" in tags:
        mode = "pruned" if tags["pruned"] else "full"
        inst.count(labeled("serve.scans", endpoint=endpoint, mode=mode))
    collector = get_collector()
    if collector is not None:
        attrs = {"request_id": telemetry.request_id, "endpoint": endpoint}
        attrs.update(tags)
        if telemetry.error_class is not None:
            attrs["error_class"] = telemetry.error_class
        attrs["phases_ms"] = {
            name: round(seconds * 1000.0, 3)
            for name, seconds in telemetry.phases.items()
        }
        collector.leaf("serve.request", elapsed, attrs=attrs)
    return elapsed


# -- Prometheus text exposition ----------------------------------------------------

_QUANTILES = ((50, "0.5"), (90, "0.9"), (99, "0.99"))


def _metric_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if not metric or not (metric[0].isalpha() or metric[0] == "_"):
        metric = "_" + metric
    return f"repro_{metric}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return f"{{{inner}}}"


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(instrumentation: Instrumentation | None = None) -> str:
    """Prometheus text exposition of a registry, deterministically ordered.

    Counters become ``repro_<name>_total``, gauges ``repro_<name>``,
    timers two label-keyed counter families, histograms summaries with
    exact-percentile quantiles (reservoir-approximate past the storage
    cap, with exact ``_count``/``_sum``).
    """
    inst = instrumentation if instrumentation is not None else get_instrumentation()
    families: dict[str, tuple[str, list[tuple[str, str]]]] = {}

    def series(family: str, type_: str, labels: dict, value, suffix: str = "") -> None:
        kind, rows = families.setdefault(family, (type_, []))
        rows.append((f"{family}{suffix}{_format_labels(labels)}", _format_value(value)))

    snapshot = inst.snapshot()
    for name, value in snapshot["counters"].items():
        base, labels = split_labeled(name)
        series(f"{_metric_name(base)}_total", "counter", labels, value)
    for name, value in snapshot["gauges"].items():
        base, labels = split_labeled(name)
        series(_metric_name(base), "gauge", labels, value)
    for name, seconds in snapshot["timer_seconds"].items():
        series("repro_timer_seconds_total", "counter", {"name": name}, seconds)
    for name, calls in snapshot["timer_calls"].items():
        series("repro_timer_calls_total", "counter", {"name": name}, calls)
    stats = snapshot.get("histogram_stats", {})
    for name, values in snapshot["histograms"].items():
        if not values:
            continue
        base, labels = split_labeled(name)
        family = _metric_name(base)
        ordered = sorted(values)
        exact = stats.get(name)
        if exact is None:
            total_count, total_sum = len(ordered), sum(ordered)
        else:
            total_count, total_sum = exact["count"], exact["sum"]
        for q, quantile in _QUANTILES:
            series(
                family, "summary",
                {**labels, "quantile": quantile}, _percentile(ordered, q),
            )
        series(family, "summary", labels, total_sum, suffix="_sum")
        series(family, "summary", labels, total_count, suffix="_count")
    lines: list[str] = []
    for family in sorted(families):
        type_, rows = families[family]
        lines.append(f"# TYPE {family} {type_}")
        for key, value in sorted(rows):
            lines.append(f"{key} {value}")
    return "\n".join(lines) + ("\n" if lines else "")


# -- slow-query log ----------------------------------------------------------------


class SlowQueryLog:
    """Threshold-triggered JSONL log of slow requests with bounded size.

    One line per slow request: timestamp, request id, endpoint, total and
    per-phase milliseconds, and the outcome tags (query terms, epoch,
    candidates_scored, cache path, ...). When the active file would
    exceed ``max_bytes`` it rotates once to ``<path>.1``, so disk usage
    is bounded at ~2x ``max_bytes`` regardless of uptime.
    """

    def __init__(
        self,
        path,
        threshold_seconds: float = _DEFAULT_SLOW_THRESHOLD_SECONDS,
        max_bytes: int = _DEFAULT_SLOW_LOG_MAX_BYTES,
    ) -> None:
        self.path = Path(path)
        self.threshold_seconds = float(threshold_seconds)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()

    @classmethod
    def from_env(cls, environ=None) -> "SlowQueryLog | None":
        """Build from ``REPRO_SLOW_QUERY_LOG*`` env vars; None when unset."""
        env = os.environ if environ is None else environ
        path = env.get(SLOW_LOG_PATH_ENV)
        if not path:
            return None
        threshold_ms = float(
            env.get(SLOW_LOG_THRESHOLD_ENV, _DEFAULT_SLOW_THRESHOLD_SECONDS * 1000.0)
        )
        max_bytes = int(env.get(SLOW_LOG_MAX_BYTES_ENV, _DEFAULT_SLOW_LOG_MAX_BYTES))
        return cls(path, threshold_seconds=threshold_ms / 1000.0, max_bytes=max_bytes)

    def maybe_record(self, telemetry: RequestTelemetry, elapsed: float) -> bool:
        """Write one entry if ``elapsed`` crosses the threshold."""
        if elapsed < self.threshold_seconds:
            return False
        entry = {
            "ts": time.time(),
            "request_id": telemetry.request_id,
            "endpoint": telemetry.endpoint,
            "elapsed_ms": round(elapsed * 1000.0, 3),
            "phases_ms": {
                name: round(seconds * 1000.0, 3)
                for name, seconds in telemetry.phases.items()
            },
        }
        entry.update(telemetry.tags)
        if telemetry.error_class is not None:
            entry["error_class"] = telemetry.error_class
        self.record(entry)
        return True

    def record(self, entry: dict) -> None:
        """Append one JSONL entry, rotating first if it would overflow."""
        line = json.dumps(entry, separators=(",", ":"), sort_keys=True) + "\n"
        encoded = line.encode("utf-8")
        with self._lock:
            try:
                size = self.path.stat().st_size
            except OSError:
                size = 0
            if size and size + len(encoded) > self.max_bytes:
                os.replace(self.path, self.path.with_name(self.path.name + ".1"))
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "ab") as handle:
                handle.write(encoded)
