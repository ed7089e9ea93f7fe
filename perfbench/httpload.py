"""HTTP load clients in their own process.

The worker pool's dispatcher lives in the benchmark's process and runs
each lifecycle update there. Clients sharing that interpreter would wait
for its lock during an update and report the wait as request latency, so
the closed-loop HTTP clients run in a spawned child instead. The child
only issues requests and returns slim records; the parent keeps the
inputs, the updates and the gates.
"""

from __future__ import annotations

import json
import multiprocessing

from perfbench import load

#: Response fields the parent needs from each window request.
_KEPT = ("cached", "degraded", "snapshot_version", "candidates_scored")


def _client_main(conn, url, entries, draws, seconds, clients, k) -> None:
    from repro.serving.client import ServingClient

    client = ServingClient(url, timeout=60.0)

    def request(index: int):
        entry = int(draws[index])
        terms, algorithm, strategy = entries[entry]
        return entry, lambda: client.select(
            list(terms), algorithm=algorithm, strategy=strategy, k=k
        )

    conn.send("ready")
    phase = load.closed_loop("window", request, seconds, clients)
    conn.send(
        (
            phase.seconds,
            [
                (
                    r.key,
                    r.latency,
                    None
                    if r.payload is None
                    else json.dumps({key: r.response.get(key) for key in _KEPT}),
                    r.error,
                    r.shed,
                )
                for r in phase.records
            ],
        )
    )
    conn.close()


class HttpLoad:
    """A closed loop of ``clients`` threads in a spawned process."""

    def __init__(self, url, entries, draws, seconds, clients, k) -> None:
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=_client_main,
            args=(child, url, entries, [int(d) for d in draws], seconds, clients, k),
            daemon=True,
        )
        self._process.start()
        child.close()
        self._timeout = seconds + 120.0

    def wait_ready(self) -> None:
        """Block until the child is about to issue its first request."""
        if not self._conn.poll(60.0) or self._conn.recv() != "ready":
            self.close()
            raise RuntimeError("HTTP load process did not start")

    def result(self) -> load.Phase:
        """The window's phase, once the child has finished it."""
        try:
            if not self._conn.poll(self._timeout):
                raise RuntimeError("HTTP load process did not report")
            seconds, rows = self._conn.recv()
        finally:
            self.close()
        phase = load.Phase("window", seconds=seconds)
        phase.records = [
            load.Record(key, latency, payload, error, shed)
            for key, latency, payload, error, shed in rows
        ]
        return phase

    def close(self) -> None:
        self._process.join(timeout=30.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=10.0)
        self._conn.close()
