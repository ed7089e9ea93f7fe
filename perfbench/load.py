"""The benchmark's own load generator: closed loops and an open-loop ladder.

Each request is a zero-argument callable that returns the response dict
(or raises). The generator times it, classifies the outcome, and keeps the
response so the correctness gates can check it after the timed window.

* Closed loop: ``clients`` threads, each issuing its next request when
  the previous one returns. Latency is timed from issue.
* Open loop: one thread walks a fixed rate ladder. Request ``i`` of a
  step is due at ``step_start + i / rate``; latency is timed from the due
  time, so a stall also charges the requests queued behind it, and the
  generator reports how late it ran.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def is_shed(error: BaseException) -> bool:
    """Admission refusals: in-process ServiceOverloaded or HTTP 429."""
    return (
        type(error).__name__ == "ServiceOverloaded"
        or getattr(error, "status", None) == 429
    )


@dataclass
class Record:
    """One issued request and what came back.

    The response is kept as its JSON text. A window holds thousands of
    responses until the gate runs; as nested dicts and lists they would
    pile up in the collector's oldest generation and trigger full
    collections over the preloaded cell that the program, which drops
    each response once sent, would not pay. JSON round-trips floats
    exactly, so the gate still compares bits.
    """

    key: object
    latency: float
    payload: str | None = None
    error: str | None = None
    shed: bool = False
    #: Open loop: how long after its due time the request was issued.
    waited: float = 0.0

    @property
    def response(self) -> dict | None:
        return None if self.payload is None else json.loads(self.payload)


@dataclass
class Phase:
    """Attempted / succeeded / failed / shed counts for one phase."""

    name: str
    records: list[Record] = field(default_factory=list)
    seconds: float = 0.0
    #: Open loop only: the offered rate and the generator's lateness.
    rate: float | None = None
    max_lateness: float = 0.0
    end_lateness: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None and not r.shed)

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.shed)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.records if r.payload is not None)

    def latencies(self) -> list[float]:
        return [r.latency for r in self.records if r.payload is not None]

    def capacity(self) -> float:
        """Completions per second of busy time: 1 / mean service time.

        Service time runs from issue, not from the due time, so an open
        loop's idle gaps and queueing do not count.
        """
        busy = sum(r.latency - r.waited for r in self.records if r.payload is not None)
        return self.succeeded / busy if busy > 0 else 0.0

    def summary(self) -> dict:
        latencies = self.latencies()
        out = {
            "phase": self.name,
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "shed": self.shed,
            "seconds": round(self.seconds, 4),
            "p50_ms": round(percentile(latencies, 50) * 1e3, 4),
            "p99_ms": round(percentile(latencies, 99) * 1e3, 4),
        }
        errors = sorted({r.error for r in self.records if r.error is not None})
        if errors:
            out["errors"] = errors[:3]
        if self.rate is not None:
            out["rate"] = self.rate
            out["max_lateness_ms"] = round(self.max_lateness * 1e3, 4)
            out["end_lateness_ms"] = round(self.end_lateness * 1e3, 4)
        out.update(self.extra)
        return out


Request = tuple[object, Callable[[], dict]]


def _issue(
    key: object, call: Callable[[], dict], start: float, waited: float = 0.0
) -> Record:
    try:
        response = call()
    except Exception as error:  # every failure is counted, none aborts
        return Record(
            key,
            time.perf_counter() - start,
            error=f"{type(error).__name__}: {error}",
            shed=is_shed(error),
            waited=waited,
        )
    latency = time.perf_counter() - start
    return Record(key, latency, payload=json.dumps(response), waited=waited)


def run_count(name: str, requests: Sequence[Request]) -> Phase:
    """Issue every request once, back to back (warm-up, gates)."""
    phase = Phase(name)
    begin = time.perf_counter()
    for key, call in requests:
        phase.records.append(_issue(key, call, time.perf_counter()))
    phase.seconds = time.perf_counter() - begin
    return phase


def closed_loop(
    name: str,
    next_request: Callable[[int], Request],
    seconds: float,
    clients: int = 1,
) -> Phase:
    """``clients`` closed-loop clients for ``seconds``.

    ``next_request(i)`` builds the i-th request; indices are handed out
    in order across clients, so the request stream is the same whatever
    the interleaving. It raises ``IndexError`` when the input stream is
    exhausted, which ends the loop early.
    """
    phase = Phase(name)
    lock = threading.Lock()
    counter = iter(range(1 << 62))
    deadline = time.perf_counter() + seconds

    def client() -> None:
        local: list[Record] = []
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            try:
                key, call = next_request(index)
            except IndexError:
                break
            local.append(_issue(key, call, time.perf_counter()))
        with lock:
            phase.records.extend(local)

    begin = time.perf_counter()
    if clients == 1:
        client()
    else:
        threads = [
            threading.Thread(target=client, daemon=True) for _ in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    phase.seconds = time.perf_counter() - begin
    return phase


def open_loop_step(
    name: str,
    next_request: Callable[[int], Request],
    rate: float,
    seconds: float,
) -> Phase:
    """One ladder step: steady arrivals at ``rate`` for ``seconds``.

    Latency runs from each request's due time. ``end_lateness`` is how
    far behind schedule the last request was issued: a backlog that grew
    during the step shows up there. Requests still unsent when the step's
    time is up are dropped, so an overloaded step also ends on time and
    its completion rate is the server's capacity.
    """
    phase = Phase(name, rate=rate)
    total = max(1, int(round(rate * seconds)))
    begin = time.perf_counter()
    for index in range(total):
        due = begin + index / rate
        now = time.perf_counter()
        if now - begin >= seconds:
            break
        # Spin rather than sleep: a sleeping virtual CPU may be descheduled
        # by the host, and waking it can take tens of milliseconds, which
        # would be charged to the request as latency from its due time.
        while now < due:
            now = time.perf_counter()
        lateness = now - due
        phase.max_lateness = max(phase.max_lateness, lateness)
        phase.end_lateness = lateness
        try:
            key, call = next_request(index)
        except IndexError:
            break
        phase.records.append(_issue(key, call, due, lateness))
    phase.seconds = time.perf_counter() - begin
    return phase
