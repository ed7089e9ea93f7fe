"""The four serving workloads, driven through the program's public API.

Each workload function takes a :class:`Run` and returns a
:class:`Result`. Inputs (queries, popularity draws, update ops) derive
from ``Run.seed`` only; the program receives nothing but those inputs.
See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import env, gates, httpload, layers, load

ALGORITHMS = ("cori", "bgloss", "lm")
K = 10

#: The document-backed cell: trec4 at the "bench" scale (36 databases).
TREC = {"dataset": "trec4", "scale": "bench"}
#: The summary-only universe cell shared by the open-loop and cluster
#: workloads. universe-1000 keeps one cell near 1.6 GB of RSS.
UNIVERSE = "universe-1000"

#: Set-ups timed per run (the reported setup_s is their median). A trec4
#: preload costs ~10 s, so those workloads time one.
SETUP_REPEATS = {
    "adaptive-distinct": 1,
    "universe-plain-open": 3,
    "zipf-update-http": 1,
    "zipf-http": 1,
    "cluster-plain": 3,
}

#: Open-loop ladder for universe-plain-open: (requests per second, share
#: of the timed window). At the commit that introduced the benchmark the
#: closed-loop capacity on a 2-core box was 135-300 req/s, depending on
#: what else the host ran. The first three rates stay far enough below
#: the low end that their latency reflects service time rather than a
#: queue that one slow period builds; they give the latency metrics. The
#: last rate overloads the server on purpose, so the ladder always shows
#: where the limit is missed.
LADDER = ((40.0, 0.25), (60.0, 0.25), (80.0, 0.25), (400.0, 0.25))
#: Latency limit of the ladder: a step meets it when its p99, timed from
#: the due time, and the generator's lateness at the step's end both stay
#: below this.
LADDER_LIMIT_MS = 50.0

#: Traffic shape of the two Zipf-over-HTTP workloads.
ZIPF_EXPONENT = 1.1
ZIPF_POOL = 128
#: zipf-update-http: lifecycle updates run back to back from the moment
#: ``ZIPF_FIRST_UPDATE`` of the window has passed until the window ends,
#: so reads see the same share of refresh load however fast each update
#: is. At most this many are prepared (each takes seconds).
ZIPF_CLIENTS = 2
ZIPF_MAX_UPDATES = 32
ZIPF_FIRST_UPDATE = 0.1
#: zipf-http: one client, and this many updates after the window, issued
#: while no read is in flight. With no update during the window a full
#: response cache would hold the whole pool, and the window would time
#: only HTTP round trips of cache hits. An 80-entry cache over a 256-entry
#: pool keeps a steady ~21% of the Zipf stream missing, so the window mixes
#: hits with fresh plain and adaptive scoring; the larger pool averages the
#: miss cost over more queries than 128 would.
ZIPF_HTTP_CLIENTS = 1
ZIPF_HTTP_UPDATES = 1
ZIPF_HTTP_POOL = 256
ZIPF_HTTP_CACHE = 80
ZIPF_HTTP_WARMUP = 400
#: Popularity draws per run: cache hits over HTTP take about a millisecond,
#: so a window uses far more of them than of the distinct queries.
ZIPF_DRAWS = 200000

WARMUP_REQUESTS = 60
#: Queries generated per run, several times what a window uses at this
#: commit; a window that exhausts them ends early.
QUERY_BUDGET = 20000


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    dirs: env.RunDirs
    tracer: layers.LayerTracer | None = None
    collector: object = None


@dataclass
class Result:
    metrics: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    phases: list[dict] = field(default_factory=list)
    gates: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    info: dict = field(default_factory=dict)


# -- shared pieces ---------------------------------------------------------------


def canonical(terms) -> list[str]:
    from repro.serving.service import canonical_terms, normalize_query

    return list(canonical_terms(normalize_query(list(terms))))


def settle(run: Run) -> None:
    """A full collection outside every timed region.

    It is not counted among the program's collector pauses in a traced run.
    """
    if run.tracer is not None:
        run.tracer.forcing = True
    try:
        gc.collect()
    finally:
        if run.tracer is not None:
            run.tracer.forcing = False


def registry_snapshot(pool=None) -> dict:
    """The instrumentation snapshot (pool-wide when a pool is serving)."""
    from repro.evaluation.instrument import get_instrumentation

    if pool is None:
        return get_instrumentation().snapshot()
    pool.collect_telemetry()
    return pool.aggregate_registry().snapshot()


def delta(before: dict, after: dict) -> dict:
    from repro.evaluation.instrument import snapshot_delta

    return snapshot_delta(before, after)


def reset_program(run: Run, store) -> None:
    """Drop every harness cache and point the harness at ``store``.

    ``clear_caches`` also removes the trace collector; a traced run puts
    a fresh one back so each set-up is traced.
    """
    from repro.evaluation import harness
    from repro.evaluation.instrument import TraceCollector, install_collector

    harness.clear_caches()
    gc.collect()
    harness.configure(cache_dir=store)
    if run.trace:
        run.collector = install_collector(
            TraceCollector(run_id=f"perfbench-{run.workload}-{run.seed}")
        )


def prime_trec_store() -> None:
    """Build the warm trec4 store once per checkout (untimed)."""
    from repro.evaluation import harness
    from repro.serving.service import SelectionService, ServiceConfig

    marker = env.ready_marker("trec4-bench")
    if marker.exists():
        return
    harness.configure(cache_dir=env.BASE_STORE)
    SelectionService.from_harness(ServiceConfig(**TREC))
    marker.write_text("ok\n")
    harness.clear_caches()
    gc.collect()


def timed_setups(run: Run, build, repeats: int, store=None):
    """Run ``build`` ``repeats`` times; returns (last target, seconds, layers).

    ``build()`` preloads, answers one request and returns ``(target,
    close)``; the set-up time runs from the call into preload until that
    first answer. Every target but the last is closed before the next
    set-up, so peak memory reflects one live cell.
    """
    times: list[float] = []
    target = close = None
    setup_layers: dict[str, float] = {}
    for _ in range(repeats):
        if close is not None:
            close()
            target = close = None
        reset_program(run, store)
        before = registry_snapshot()
        start = time.perf_counter()
        target, close = build()
        times.append(time.perf_counter() - start)
        setup_layers = layers.setup_layers(delta(before, registry_snapshot()))
    return target, close, times, setup_layers


def query_stream(vocabulary, seed: int) -> list[list[str]]:
    """The run's distinct queries; a window that uses them all ends early."""
    from repro.serving.loadgen import generate_queries

    return generate_queries(vocabulary, QUERY_BUDGET, seed=seed)


def first_query(vocabulary, seed: int) -> list[str]:
    """The stream's first query, without generating the whole stream.

    The set-up answers it, so the timed set-up excludes input generation.
    """
    from repro.serving.loadgen import generate_queries

    return generate_queries(vocabulary, 1, seed=seed)[0]


def answers(records) -> list[tuple[object, dict]]:
    """(key, decoded response) of every answered record."""
    return [(r.key, r.response) for r in records if r.payload is not None]


def response_layers(responses: list[dict], databases: int) -> dict[str, float]:
    """Layer metrics read off the window's responses."""
    n = len(responses) or 1
    scored = [
        1.0 if r.get("candidates_scored") is None else r["candidates_scored"] / databases
        for r in responses
        if "candidates_scored" in r
    ]
    return {
        "topk.candidates_scored_frac": statistics.fmean(scored) if scored else 0.0,
        "service.cache_hit_rate": sum(1 for r in responses if r.get("cached")) / n,
        "degraded_fraction": sum(1 for r in responses if r.get("degraded")) / n,
    }


def finish(
    run: Run,
    window: load.Phase,
    setup_times: list[float],
    gate: dict,
    extra_phases: list[load.Phase],
    setup_layers: dict,
    window_delta: dict,
    latencies: list[float],
    throughput: float,
    databases: int,
    extra_layers: dict | None = None,
) -> Result:
    """Assemble the run's result from its phases, gate and deltas."""
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": load.percentile(latencies, 50) * 1e3,
        "latency_p99_ms": load.percentile(latencies, 99) * 1e3,
        "throughput_qps": throughput,
    }
    phases = [window, *extra_phases]
    attempted = sum(p.attempted for p in phases)
    failed_requests = sum(p.failed + p.shed for p in phases)
    wrong = gate.get("wrong", 0) + gate.get("errors", 0)
    result = Result(
        metrics=metrics,
        phases=[p.summary() for p in phases],
        gates=gate,
        attempted=attempted,
        failed=failed_requests + wrong,
        wrong=wrong,
        info={
            "setup_times_s": setup_times,
            "window_requests": window.attempted,
            "samples_beyond_p99": load.beyond(len(latencies), 99),
        },
    )
    if run.trace:
        layer_values = {name: 0.0 for name in layers.PER_LAYER_UNITS}
        layer_values.update(setup_layers)
        layer_values.update(layers.window_layers(window_delta, window.succeeded))
        layer_values.update(
            response_layers([r for _, r in answers(window.records)], databases)
        )
        layer_values["failed_fraction"] = result.failed / max(attempted, 1)
        layer_values["traced.latency_p50_ms"] = metrics["latency_p50_ms"]
        layer_values.update(extra_layers or {})
        result.layers = layer_values
    return result


# -- adaptive-distinct -----------------------------------------------------------


def adaptive_distinct(run: Run) -> Result:
    """The paper's adaptive strategy on distinct queries, in process."""
    from repro.serving import loadgen
    from repro.serving.service import SelectionService, ServiceConfig

    prime_trec_store()
    store = run.dirs.copy_base_store()
    config = ServiceConfig(**TREC)

    def build():
        service = SelectionService.from_harness(config)
        first = first_query(loadgen.service_vocabulary(service), run.seed)
        service.select(first, algorithm="cori", strategy="shrinkage", k=K)
        return service, None

    service, _, setup_times, setup_layers = timed_setups(
        run, build, SETUP_REPEATS[run.workload], store
    )
    queries = query_stream(loadgen.service_vocabulary(service), run.seed)

    def request(index: int):
        terms = queries[index]
        algorithm = ALGORITHMS[index % len(ALGORITHMS)]
        return (tuple(terms), algorithm), lambda: service.select(
            terms, algorithm=algorithm, strategy="shrinkage", k=K
        )

    warmup = load.run_count(
        "warmup", [request(i) for i in range(1, WARMUP_REQUESTS + 1)]
    )
    offset = WARMUP_REQUESTS + 1
    settle(run)  # every window starts from the same collector state
    before = registry_snapshot()
    window = load.closed_loop(
        "window", lambda i: request(offset + i), run.seconds
    )
    window_delta = delta(before, registry_snapshot())

    def reference(key):
        terms, algorithm = key
        return service.metasearcher.select(
            canonical(terms), algorithm=algorithm, strategy="shrinkage", k=K
        )

    gate = gates.check_answers(
        answers(window.records),
        reference,
        limit=config.ranking_limit,
    )
    sample = [list(r.key[0]) for r in window.records[:10]]
    for algorithm in ALGORITHMS:
        report = loadgen.verify_cached_responses(
            service, sample, algorithm=algorithm, strategy="shrinkage", k=K
        )
        gate["wrong"] += report["wrong"]
        gate["checked"] += report["checked"]
    return finish(
        run,
        window,
        setup_times,
        gate,
        [warmup],
        setup_layers,
        window_delta,
        window.latencies(),
        window.succeeded / window.seconds,
        len(service.snapshot.databases),
    )


# -- universe-plain-open ---------------------------------------------------------


def universe_config():
    from repro.serving.service import ServiceConfig

    return ServiceConfig(
        dataset=UNIVERSE,
        scale="bench",
        strategies=("plain",),
        prune=True,
        ranking_limit=K,
    )


def universe_plain_open(run: Run) -> Result:
    """Pruned plain scoring at universe scale under open-loop arrivals."""
    from repro.serving import loadgen
    from repro.serving.service import SelectionService

    config = universe_config()

    def build():
        service = SelectionService.from_harness(config)
        first = first_query(loadgen.service_vocabulary(service), run.seed)
        service.select(first, algorithm="cori", strategy="plain", k=K)
        return service, None

    service, _, setup_times, setup_layers = timed_setups(
        run, build, SETUP_REPEATS[run.workload], run.dirs.store
    )
    queries = query_stream(loadgen.service_vocabulary(service), run.seed)
    cursor = iter(range(1, len(queries)))

    def request(_step_index: int):
        index = next(cursor, None)
        if index is None:
            raise IndexError("query stream exhausted")
        terms = queries[index]
        algorithm = ALGORITHMS[index % len(ALGORITHMS)]
        return (tuple(terms), algorithm), lambda: service.select(
            terms, algorithm=algorithm, strategy="plain", k=K
        )

    warmup = load.run_count("warmup", [request(0) for _ in range(WARMUP_REQUESTS)])
    before = registry_snapshot()
    steps = []
    for rate, share in LADDER:
        # A full collection pauses this single-threaded server for ~50 ms,
        # which in an open loop delays a dozen queued requests: about 1% of
        # a step, exactly where p99 sits. Whether one lands inside a 10 s
        # ladder would then decide the p99, so each step starts from a
        # fresh collector state; gc.* in the trace reports the pauses.
        settle(run)
        steps.append(
            load.open_loop_step(
                f"rate-{rate:g}", request, rate, run.seconds * share
            )
        )
    window_delta = delta(before, registry_snapshot())
    window = load.Phase("window", seconds=sum(s.seconds for s in steps))
    for step in steps:
        window.records.extend(step.records)
    latencies = [lat for step in steps[:-1] for lat in step.latencies()]
    passing = [
        step
        for step in steps
        if step.failed == 0
        and step.shed == 0
        and load.percentile(step.latencies(), 99) * 1e3 <= LADDER_LIMIT_MS
        and step.end_lateness * 1e3 <= LADDER_LIMIT_MS
    ]
    for step in steps:
        step.extra["meets_limit"] = step in passing
    slo_qps = max((s.succeeded / s.seconds for s in passing), default=0.0)

    def reference(key):
        terms, algorithm = key
        return service.metasearcher.select(
            canonical(terms), algorithm=algorithm, strategy="plain", k=K,
            prune=config.prune,
        )

    gate = gates.check_answers(
        answers(window.records),
        reference,
        limit=config.ranking_limit,
    )
    result = finish(
        run,
        window,
        setup_times,
        gate,
        [warmup],
        setup_layers,
        window_delta,
        latencies,
        window.capacity(),
        len(service.snapshot.databases),
    )
    result.phases = [warmup.summary(), *(step.summary() for step in steps)]
    result.info["ladder_slo_qps"] = slo_qps
    return result


# -- zipf-http and zipf-update-http -------------------------------------------


def zipf_pool(vocabulary, seed: int, size: int = ZIPF_POOL):
    """The query pool, with a fixed (algorithm, strategy) per entry."""
    from repro.serving.loadgen import generate_queries

    queries = generate_queries(vocabulary, size, seed=seed)
    rng = np.random.default_rng([seed, 1])
    # Along the popularity ranks the strategies alternate and each
    # strategy cycles through the algorithms, from seeded starting points.
    # Every stretch of ranks then holds the same mix, so which entries the
    # cache misses on changes from seed to seed but the mix of work does not.
    first_strategy = int(rng.integers(2))
    first_algorithm = int(rng.integers(len(ALGORITHMS)))
    return [
        (
            tuple(terms),
            ALGORITHMS[(first_algorithm + index // 2) % len(ALGORITHMS)],
            ("plain", "shrinkage")[(first_strategy + index) % 2],
        )
        for index, terms in enumerate(queries)
    ]


def zipf_draws(seed: int, count: int, size: int = ZIPF_POOL) -> np.ndarray:
    """``count`` pool indices; index 0 is the most popular entry."""
    ranks = np.arange(1, size + 1, dtype=np.float64)
    weights = ranks**-ZIPF_EXPONENT
    weights /= weights.sum()
    return np.random.default_rng([seed, 2]).choice(size, size=count, p=weights)


def update_ops(databases, seed: int, count: int) -> list[list[dict]]:
    """One seeded resample of a rotating database per update."""
    names = sorted(databases)
    return [
        [
            {
                "op": "resample",
                "name": names[(seed + index) % len(names)],
                "seed": seed * 16 + index + 1,
            }
        ]
        for index in range(count)
    ]


def zipf_update_http(run: Run) -> Result:
    """Zipf reads over HTTP while summaries are refreshed, concurrently."""
    return zipf_over_http(run, concurrent_updates=True)


def zipf_http(run: Run) -> Result:
    """Zipf reads over HTTP, then summary refreshes with no read in flight."""
    return zipf_over_http(run, concurrent_updates=False)


def zipf_over_http(run: Run, concurrent_updates: bool) -> Result:
    """Zipf reads and summary refreshes through a 1-worker pool over HTTP.

    With ``concurrent_updates`` the updates run during the read window
    (two clients). Without, one client reads through a small response
    cache, and ``ZIPF_HTTP_UPDATES`` updates follow the window while no
    read is in flight.
    """
    from repro.serving import loadgen
    from repro.serving.client import ServingClient
    from repro.serving.service import SelectionService, ServiceConfig
    from repro.serving.workers import WorkerPool

    prime_trec_store()
    store = run.dirs.copy_base_store()
    shm_before = env.shm_segments()
    if concurrent_updates:
        config = ServiceConfig(**TREC)
        pool_size = ZIPF_POOL
    else:
        config = ServiceConfig(**TREC, response_cache_size=ZIPF_HTTP_CACHE)
        pool_size = ZIPF_HTTP_POOL
    state: dict = {}

    def build():
        service = SelectionService.from_harness(config)
        pool = WorkerPool(service, workers=1).start()
        state["pool_entries"] = zipf_pool(
            loadgen.service_vocabulary(service), run.seed, pool_size
        )
        client = ServingClient(pool.url, timeout=60.0)
        terms, algorithm, strategy = state["pool_entries"][0]
        client.select(list(terms), algorithm=algorithm, strategy=strategy, k=K)
        return (pool, client), pool.shutdown

    (pool, client), close, setup_times, setup_layers = timed_setups(
        run, build, SETUP_REPEATS[run.workload], store
    )
    entries = state["pool_entries"]
    draws = zipf_draws(run.seed, ZIPF_DRAWS, pool_size)
    try:
        def entry_request(entry: int):
            terms, algorithm, strategy = entries[entry]
            return (terms, algorithm, strategy), lambda: client.select(
                list(terms), algorithm=algorithm, strategy=strategy, k=K
            )

        if concurrent_updates:
            warmup_entries = [int(draws[i]) for i in range(WARMUP_REQUESTS)]
            window_draws = draws[WARMUP_REQUESTS:]
            update_count = ZIPF_MAX_UPDATES
            clients_count = ZIPF_CLIENTS
        else:
            warmup_entries = [int(draws[i]) for i in range(ZIPF_HTTP_WARMUP)]
            window_draws = draws[ZIPF_HTTP_WARMUP:]
            update_count = ZIPF_HTTP_UPDATES
            clients_count = ZIPF_HTTP_CLIENTS
        warmup = load.run_count(
            "warmup", [entry_request(e) for e in warmup_entries]
        )
        ops = update_ops(pool.service.snapshot.databases, run.seed, update_count)
        updates = load.Phase("updates")
        update_results: list[dict] = []
        admin = ServingClient(pool.url, timeout=600.0)

        def apply_updates(until: float | None) -> None:
            for batch in ops:
                if until is not None and time.perf_counter() >= until:
                    break
                record = load.run_count(
                    "update", [(batch[0]["name"], lambda b=batch: admin.update(b))]
                ).records[0]
                updates.records.append(record)
                if record.payload is not None:
                    update_results.append(record.response)

        def updater():
            time.sleep(run.seconds * ZIPF_FIRST_UPDATE)
            apply_updates(window_start + run.seconds)

        settle(run)
        before = registry_snapshot(pool)
        local_before = registry_snapshot()
        clients = httpload.HttpLoad(
            pool.url, entries, window_draws, run.seconds, clients_count, K
        )
        clients.wait_ready()
        window_start = time.perf_counter()
        if concurrent_updates:
            update_thread = threading.Thread(target=updater, daemon=True)
            update_thread.start()
            window = clients.result()
            window_delta = delta(before, registry_snapshot(pool))
            update_thread.join()
        else:
            window = clients.result()
            window_delta = delta(before, registry_snapshot(pool))
            apply_updates(None)
        local_delta = delta(local_before, registry_snapshot())
        updates.seconds = time.perf_counter() - window_start

        # Gate: after the last update every pool entry, answered over HTTP,
        # must match fresh scoring on the dispatcher's snapshot.
        snapshot = pool.service.snapshot

        def sweep_request(entry):
            terms, algorithm, strategy = entry
            return entry, lambda: admin.select(
                list(terms), algorithm=algorithm, strategy=strategy, k=K
            )

        sweep = load.run_count("gate", [sweep_request(e) for e in entries])

        def reference(key):
            terms, algorithm, strategy = key
            return snapshot.metasearcher.select(
                canonical(terms), algorithm=algorithm, strategy=strategy, k=K
            )

        answered = answers(sweep.records)
        gate = gates.check_answers(answered, reference, limit=config.ranking_limit)
        stale = sum(
            1
            for _, response in answered
            if response.get("snapshot_version") != snapshot.version
        )
        gate["wrong"] += stale
        gate["stale_epoch"] = stale
        gate["epoch"] = snapshot.version
        manifest = snapshot.shm_manifest or {}
        rtts = window.latencies()
        extra = layers.update_layers(
            local_delta, update_results, int(manifest.get("total_bytes", 0))
        )
        extra["update.p50_s"] = (
            statistics.median(updates.latencies()) if updates.latencies() else 0.0
        )
        extra["http.overhead_ms"] = (
            statistics.fmean(rtts) * 1e3 - layers.handler_ms(window_delta)
            if rtts
            else 0.0
        )
    finally:
        close()
    gc.collect()
    leaked = sorted(env.shm_segments() - shm_before)
    gate["shm_leaked"] = leaked
    gate["errors"] = len(leaked)
    result = finish(
        run,
        window,
        setup_times,
        gate,
        [warmup, updates, sweep],
        setup_layers,
        window_delta,
        rtts,
        window.succeeded / window.seconds,
        len(snapshot.databases),
        extra,
    )
    result.info["update_seconds"] = updates.latencies()
    result.info["updates_applied"] = len(update_results)
    return result


# -- cluster-plain ---------------------------------------------------------------


def cluster_plain(run: Run) -> Result:
    """Distinct plain pruned queries through a 2-shard in-process cluster."""
    from repro.serving.cluster import (
        Cluster,
        ClusterConfig,
        verify_against_single_cell,
    )

    shm_before = env.shm_segments()
    config = universe_config()

    def build():
        cluster = Cluster.from_harness(config, ClusterConfig(shards=2)).start()
        first = first_query(cell_vocabulary(cluster.metasearcher), run.seed)
        cluster.frontend.select(first, algorithm="cori", k=K)
        return cluster, cluster.shutdown

    cluster, close, setup_times, setup_layers = timed_setups(
        run, build, SETUP_REPEATS[run.workload], run.dirs.store
    )
    queries = query_stream(cell_vocabulary(cluster.metasearcher), run.seed)
    try:
        frontend = cluster.frontend

        def request(index: int):
            terms = queries[index]
            algorithm = ALGORITHMS[index % len(ALGORITHMS)]
            return (tuple(terms), algorithm), lambda: frontend.select(
                terms, algorithm=algorithm, strategy="plain", k=K
            )

        warmup = load.run_count(
            "warmup", [request(i) for i in range(1, WARMUP_REQUESTS + 1)]
        )
        offset = WARMUP_REQUESTS + 1
        settle(run)  # every window starts from the same collector state
        before = registry_snapshot()
        window = load.closed_loop(
            "window", lambda i: request(offset + i), run.seconds
        )
        window_delta = delta(before, registry_snapshot())
        reference_cell = cluster.metasearcher

        def reference(key):
            terms, algorithm = key
            return reference_cell.select(
                canonical(terms), algorithm=algorithm, strategy="plain", k=K
            )

        gate = gates.check_answers(
            answers(window.records),
            reference,
            limit=None,
            prefix=K,
        )
        report = verify_against_single_cell(
            frontend,
            reference_cell,
            [list(r.key[0]) for r in window.records[:10]],
            k=K,
        )
        gate["wrong"] += len(report["mismatches"])
        gate["checked"] += report["selections_checked"]
        databases = len(reference_cell.sampled_summaries)
    finally:
        close()
    gc.collect()
    leaked = sorted(env.shm_segments() - shm_before)
    gate["shm_leaked"] = leaked
    gate["errors"] = len(leaked)
    return finish(
        run,
        window,
        setup_times,
        gate,
        [warmup],
        setup_layers,
        window_delta,
        window.latencies(),
        window.succeeded / window.seconds,
        databases,
    )


def cell_vocabulary(metasearcher, limit: int = 5000) -> list[str]:
    """The query vocabulary ``loadgen.service_vocabulary`` would pick."""
    first = next(iter(metasearcher.sampled_summaries.values()))
    return first.vocab.to_list()[:limit]


WORKLOADS = {
    "adaptive-distinct": adaptive_distinct,
    "universe-plain-open": universe_plain_open,
    "zipf-update-http": zipf_update_http,
    "zipf-http": zipf_http,
    "cluster-plain": cluster_plain,
}
