"""Sharded scatter-gather cluster serving (DESIGN.md §5i).

A cluster partitions a cell's databases across N shards by consistent
hashing over database names. Each shard is a full
:class:`~repro.serving.service.SelectionService` cell — its own snapshot,
score matrices, pruned top-k engines, and lifecycle journal — over its
subset of the summaries. A scatter-gather front end fans every ``/select``
out to all shards and merges the per-shard top-k into a global top-k that
is **bit-identical** to the single-cell selection over the same universe.

The exactness hinges on one construction rule (see
:func:`shard_metasearcher`): every shard scores with *globally* prepared
corpus statistics. CORI's cf(w)/m/mcw, LM's root-category p(w|G), and the
shrinkage category components all describe the full universe, not the
shard — only the *rows scored* are shard-local. Per-database scores and
floors are then exactly the single-cell values, and
:func:`~repro.selection.metasearcher.merge_shard_outcomes` documents why
per-shard ``k' = k`` suffices for the merged selected set.

The adaptive ``shrinkage`` strategy is deliberately **not** clusterable:
its mixed-set CORI path recomputes cf/cw/mcw per query over the *mixed*
plain/shrunk choice across the whole universe (see
``CoriScorer.mixed_context``) — per-query whole-universe statistics
that a single scatter round cannot reproduce. Clusters therefore serve
the fixed-set strategies (``plain``, ``universal``) only; a two-round
scatter (decision round, then statistics exchange) is future work.

Replication rides the existing lifecycle journal: ``update`` routes each
op to its owning shard's primary, then ships the applied batch to the
shard's replicas. A replica that missed batches (down, slow) is caught up
batch-by-batch at :meth:`ClusterFrontend.promote` time — journal replay
is bit-identical by the lifecycle contract, including snapshot versions,
so a promoted replica answers exactly as the dead primary would have.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import signal
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from collections.abc import Mapping, Sequence

from repro.selection.metasearcher import (
    _ALGORITHMS,
    Metasearcher,
)
from repro.serving.client import ServingClient
from repro.serving.lifecycle import canonical_op
from repro.serving.server import SelectionRequestHandler, make_server
from repro.serving.service import SelectionService, ServiceConfig
from repro.serving.telemetry import labeled

#: Virtual nodes per shard on the hash ring. Enough that a 2–8 shard ring
#: spreads a universe within a few percent of even; cheap to build.
DEFAULT_VNODES = 64

#: Strategies whose corpus statistics are fixed per summary set — the
#: ones a shard can score exactly with globally prepared scorers.
CLUSTERABLE_STRATEGIES = ("plain", "universal")

#: HTTP budget for lifecycle updates shipped to shard targets. Updates
#: rebuild engines, so they must never inherit the (deadline-derived)
#: select timeout.
UPDATE_TIMEOUT_SECONDS = 600.0


class ClusterError(RuntimeError):
    """A cluster-level failure (no shards answered, bad configuration)."""


# -- consistent hashing --------------------------------------------------------


def _ring_hash(key: str) -> int:
    """Deterministic 64-bit ring position (never Python's salted hash)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hash ring mapping database names to shard indexes.

    ``vnodes`` virtual points per shard smooth the partition sizes; the
    mapping depends only on (shards, vnodes, name), so every process —
    front end, shard, test — computes the same ownership.
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be at least 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points = sorted(
            (_ring_hash(f"shard-{shard}/vnode-{vnode}"), shard)
            for shard in range(shards)
            for vnode in range(vnodes)
        )
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (first ring point at or after it)."""
        point = _ring_hash(f"db/{name}")
        index = bisect.bisect_left(self._hashes, point)
        if index == len(self._hashes):
            index = 0
        return self._owners[index]


def partition_names(
    names: Sequence[str] | Mapping[str, object], ring: HashRing
) -> list[list[str]]:
    """Partition database names into per-shard sorted lists."""
    parts: list[list[str]] = [[] for _ in range(ring.shards)]
    for name in sorted(names):
        parts[ring.shard_of(name)].append(name)
    return parts


# -- shard cells ---------------------------------------------------------------


def freeze_global_scorers(
    source: Metasearcher, strategies: Sequence[str] = ("plain",)
) -> dict[tuple[str, str], object]:
    """Scorers prepared once on the full universe — the cluster's
    frozen statistics epoch.

    One scorer per (algorithm, summary set), created through the
    *source* cell (so LM's "global" model is the universe root-category
    summary) and prepared on the full summary set (so CORI's cf(w), m
    and mcw are universe-wide). Every shard — and every post-update
    shard snapshot — scores through these, which is what makes shard
    scores bit-identical to the single cell's.
    """
    prepared_sets: dict[str, Mapping] = {"plain": source.sampled_summaries}
    if any(strategy != "plain" for strategy in strategies):
        prepared_sets["universal"] = source.shrunk_summaries
    frozen: dict[tuple[str, str], object] = {}
    for algorithm in _ALGORITHMS:
        for key, prepared_on in prepared_sets.items():
            scorer = source.make_scorer(algorithm)
            scorer.prepare(prepared_on)
            frozen[(algorithm, key)] = scorer
    return frozen


def shard_metasearcher(
    source: Metasearcher,
    names: Sequence[str],
    strategies: Sequence[str] = ("plain",),
    frozen_scorers: Mapping[tuple[str, str], object] | None = None,
) -> Metasearcher:
    """A shard cell over ``names`` that scores bit-identically to ``source``.

    Three rules make per-database scores equal the single-cell values:

    * **Frozen global scorers.** The shard's prepared-scorer cache is
      seeded with :func:`freeze_global_scorers` output, so CORI's
      cf(w)/m/mcw and LM's root-category p(w|G) are universe-wide. The
      batch engines only read probabilities and sizes from the shard
      matrix; every corpus statistic comes from the prepared scorer, and
      the pruned top-k bounds use the same statistics, so bound
      domination carries over unchanged.
    * **Restricted shrunk set.** When ``universal`` is served, the
      *source's* R(D) — shrunk against the universe-wide category
      mixture — is restricted to the shard (``shrink_all_summaries`` is
      a per-database map, so restriction commutes).
    * **Shard-local builder.** The shard builds its *own*
      category-summary builder over its subset. The builder is never
      consulted by the fixed-set scoring paths (the frozen scorers carry
      every global statistic), but the lifecycle updater derives the
      next cell from it — a shard update must yield a shard, not the
      universe (see :class:`ShardSelectionService`).
    """
    missing = [name for name in names if name not in source.sampled_summaries]
    if missing:
        raise ClusterError(
            f"shard names not in the source cell: {missing[:5]!r}"
        )
    summaries = {name: source.sampled_summaries[name] for name in names}
    classifications = {
        name: source.classifications[name] for name in names
    }
    shard = Metasearcher(
        source.hierarchy,
        summaries,
        classifications,
        shrinkage_config=source.shrinkage_config,
        adaptive_config=source.adaptive_config,
    )
    if any(strategy != "plain" for strategy in strategies):
        shard.set_shrunk_summaries(
            {name: source.shrunk_summaries[name] for name in names}
        )
    if frozen_scorers is None:
        frozen_scorers = freeze_global_scorers(source, strategies)
    shard._prepared_scorers.update(frozen_scorers)
    return shard


class ShardSelectionService(SelectionService):
    """A shard's service: updated cells keep the frozen statistics epoch.

    ``apply_update`` re-injects the cluster's frozen global scorers into
    every new snapshot before it is warmed, so post-update scoring stays
    on the statistics epoch the whole cluster shares — corpus statistics
    never silently collapse to shard-local values on one shard while the
    others keep universe-wide ones. (Refreshing the epoch is a cluster
    rebuild; the statistics are slowly varying aggregates.) Everything
    else — copy-on-write snapshot build, journal, warm, atomic swap — is
    the base service unchanged, which is what makes replica journal
    replay land on a bit-identical cell.
    """

    def __init__(
        self,
        metasearcher: Metasearcher,
        config: ServiceConfig | None = None,
        frozen_scorers: Mapping[tuple[str, str], object] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(metasearcher, config, **kwargs)
        self._frozen_scorers = dict(frozen_scorers or {})

    def apply_update(
        self,
        ops: Sequence[Mapping],
        verify: bool = False,
        materialize=None,
        version: int | None = None,
    ) -> dict:
        def inject(metasearcher: Metasearcher, new_version: int):
            for key, scorer in self._frozen_scorers.items():
                metasearcher._prepared_scorers.setdefault(key, scorer)
            if materialize is not None:
                return materialize(metasearcher, new_version)
            return None

        return super().apply_update(
            ops, verify=verify, materialize=inject, version=version
        )


# -- response merge ------------------------------------------------------------


def merge_select_responses(
    responses: Sequence[Mapping],
    k: int,
    ranking_limit: int | None = None,
) -> dict:
    """Merge per-shard ``/select`` responses into the single-cell response.

    Same exactness argument as
    :func:`~repro.selection.metasearcher.merge_shard_outcomes`, at the
    serialized level: the shards are disjoint, every entry carries the
    single-cell score, and the merge sorts by the serializer's exact key
    ``(-score, name)``; the merged ``selected`` list is the first ``k``
    merged entries selected within their own shard. ``ranking_limit``
    truncates after the merge (each shard's response already carries its
    own top ``ranking_limit``, and the global top-L of the union of
    per-shard top-Ls is the global top-L).
    """
    if not responses:
        raise ValueError("cannot merge zero shard responses")
    entries: list[tuple[str, float]] = []
    seen: set[str] = set()
    shard_selected: set[str] = set()
    degraded = False
    cached = True
    versions: list[int | None] = []
    shrinkage_applications = 0
    candidates_scored: int | None = 0
    for response in responses:
        shard_selected.update(response.get("selected", ()))
        degraded = degraded or bool(response.get("degraded"))
        cached = cached and bool(response.get("cached"))
        versions.append(response.get("snapshot_version"))
        shrinkage_applications += int(
            response.get("shrinkage_applications", 0)
        )
        scanned = response.get("candidates_scored")
        if scanned is None:
            candidates_scored = None
        elif candidates_scored is not None:
            candidates_scored += int(scanned)
        for entry in response.get("ranking", ()):
            name = entry["name"]
            if name in seen:
                raise ValueError(
                    f"shard responses are not disjoint: {name!r} was ranked "
                    "by more than one shard (check the partitioning)"
                )
            seen.add(name)
            entries.append((name, entry["score"]))
    entries.sort(key=lambda item: (-item[1], item[0]))
    selected = [name for name, _ in entries if name in shard_selected][:k]
    if ranking_limit is not None:
        entries = entries[:ranking_limit]
    selected_set = set(selected)
    first = responses[0]
    return {
        "query": list(first.get("query", ())),
        "algorithm": first.get("algorithm"),
        "strategy": first.get("strategy"),
        "k": k,
        "degraded": degraded,
        "cached": cached,
        "snapshot_versions": versions,
        "selected": selected,
        "ranking": [
            {"name": name, "score": score, "selected": name in selected_set}
            for name, score in entries
        ],
        "shrinkage_applications": shrinkage_applications,
        "candidates_scored": candidates_scored,
    }


# -- shard targets -------------------------------------------------------------


class LocalShardTarget:
    """In-process shard target: calls a shard's service directly.

    Duck-typed against :class:`~repro.serving.client.ServingClient` for
    the three calls the front end makes, so in-process clusters (tests,
    ``repro loadgen --cluster``) and forked HTTP clusters share all the
    scatter/replication code.
    """

    def __init__(self, service: SelectionService) -> None:
        self.service = service

    def select(
        self,
        query,
        algorithm: str = "cori",
        strategy: str = "plain",
        k: int | None = None,
        timeout_seconds: float | None = None,
    ) -> dict:
        return self.service.select(
            query,
            algorithm=algorithm,
            strategy=strategy,
            k=k,
            timeout_seconds=timeout_seconds,
        )

    def update(self, ops, verify: bool = False, timeout=None) -> dict:
        return self.service.apply_update(ops, verify=verify)

    def healthz(self) -> dict:
        return self.service.describe()


class ShardGroup:
    """One shard's replica set plus its authoritative journal.

    ``targets[0]`` is the initial primary; ``active`` points at the
    target currently serving reads and taking writes. The journal is the
    replication log: a list of *batches* (one per applied update call),
    so a lagging replica catches up batch-by-batch and lands on exactly
    the primary's snapshot version (version = 1 + batches applied).
    """

    def __init__(
        self, shard_index: int, targets: Sequence, names: Sequence[str]
    ) -> None:
        if not targets:
            raise ClusterError(f"shard {shard_index} has no targets")
        self.shard_index = shard_index
        self.targets = list(targets)
        self.names = list(names)
        self.active = 0
        self.alive = [True] * len(self.targets)
        #: Batches applied per target (index into ``journal``).
        self.applied = [0] * len(self.targets)
        self.journal: list[list[dict]] = []

    @property
    def active_target(self):
        return self.targets[self.active]

    def mark_dead(self, index: int) -> None:
        self.alive[index] = False


# -- the scatter-gather front end ----------------------------------------------


class ClusterFrontend:
    """Fan ``select`` out to every shard; route ``update`` to owners.

    A shard that misses ``shard_deadline_seconds`` (or whose active
    target errors) degrades the response instead of failing it: the
    merged result carries ``partial: true`` plus per-shard error details,
    and a ``serve.shard_errors{shard=...}`` counter is bumped. Only when
    *no* shard answers does ``select`` raise.
    """

    def __init__(
        self,
        groups: Sequence[ShardGroup],
        ring: HashRing,
        default_k: int = 10,
        ranking_limit: int | None = None,
        shard_deadline_seconds: float | None = None,
        admission=None,
    ) -> None:
        if len(groups) != ring.shards:
            raise ClusterError(
                f"{len(groups)} shard groups for a {ring.shards}-shard ring"
            )
        self.groups = list(groups)
        self.ring = ring
        self.default_k = default_k
        self.ranking_limit = ranking_limit
        self.shard_deadline_seconds = shard_deadline_seconds
        #: Optional :class:`~repro.serving.admission.AdmissionController`
        #: gating the scatter path: a saturated frontend sheds whole
        #: fan-outs (429 upstream) instead of queueing them onto every
        #: shard at once. ``shed`` counts the requests turned away.
        self.admission = admission
        self.shed = 0
        # Generous headroom: a shard dying mid-request leaves its calls
        # hung until the transport times out, and those must not starve
        # the healthy shards' submissions into missing the deadline too.
        self._executor = ThreadPoolExecutor(
            max_workers=max(16, 4 * len(self.groups)),
            thread_name_prefix="scatter",
        )
        #: Serializes update routing and journal bookkeeping; never taken
        #: on the select path.
        self._update_lock = threading.Lock()

    def close(self) -> None:
        self._executor.shutdown(wait=False)

    # -- reads -----------------------------------------------------------------

    def select(
        self,
        query,
        algorithm: str = "cori",
        strategy: str = "plain",
        k: int | None = None,
        timeout_seconds: float | None = None,
    ) -> dict:
        from repro.evaluation.instrument import get_instrumentation

        if self.admission is not None:
            try:
                self.admission.acquire()
            except Exception:
                with self._update_lock:
                    self.shed += 1
                get_instrumentation().count("serve.cluster.shed")
                raise
            try:
                return self._select_admitted(
                    query, algorithm, strategy, k, timeout_seconds
                )
            finally:
                self.admission.release()
        return self._select_admitted(
            query, algorithm, strategy, k, timeout_seconds
        )

    def _select_admitted(
        self,
        query,
        algorithm: str,
        strategy: str,
        k: int | None,
        timeout_seconds: float | None,
    ) -> dict:
        from repro.evaluation.instrument import get_instrumentation

        if k is None:
            k = self.default_k
        deadline = (
            timeout_seconds
            if timeout_seconds is not None
            else self.shard_deadline_seconds
        )
        instrumentation = get_instrumentation()
        start = time.perf_counter()
        shard_errors: list[dict] = []
        futures = {}
        for group in self.groups:
            if not group.alive[group.active]:
                shard_errors.append(
                    {"shard": group.shard_index, "error": "target down"}
                )
                instrumentation.count(
                    labeled(
                        "serve.shard_errors",
                        shard=group.shard_index,
                        reason="down",
                    )
                )
                continue
            future = self._executor.submit(
                group.active_target.select,
                query,
                algorithm=algorithm,
                strategy=strategy,
                k=k,
                timeout_seconds=timeout_seconds,
            )
            futures[future] = group
        pending = wait(futures, timeout=deadline).not_done
        responses = []
        for future, group in futures.items():
            if future in pending:
                # The straggler keeps running on its executor thread; we
                # just stop waiting for it — a deadline miss must not
                # stall the whole fan-in.
                shard_errors.append(
                    {"shard": group.shard_index, "error": "deadline"}
                )
                instrumentation.count(
                    labeled(
                        "serve.shard_errors",
                        shard=group.shard_index,
                        reason="deadline",
                    )
                )
                continue
            try:
                responses.append(future.result())
            except Exception as error:
                shard_errors.append(
                    {
                        "shard": group.shard_index,
                        "error": f"{type(error).__name__}: {error}",
                    }
                )
                instrumentation.count(
                    labeled(
                        "serve.shard_errors",
                        shard=group.shard_index,
                        reason="error",
                    )
                )
        if not responses:
            raise ClusterError(
                f"no shard answered select: {shard_errors!r}"
            )
        merged = merge_select_responses(responses, k, self.ranking_limit)
        merged["partial"] = bool(shard_errors)
        merged["shard_errors"] = shard_errors
        merged["shards"] = len(self.groups)
        merged["shards_answered"] = len(responses)
        merged["elapsed_seconds"] = time.perf_counter() - start
        instrumentation.count(
            labeled(
                "serve.cluster.requests",
                status="partial" if shard_errors else "ok",
            )
        )
        instrumentation.observe(
            "serve.cluster.request_seconds", merged["elapsed_seconds"]
        )
        return merged

    def healthz(self) -> list[dict]:
        """Active-target health per shard (error string when down)."""
        reports = []
        for group in self.groups:
            try:
                payload = group.active_target.healthz()
            except Exception as error:
                payload = {"status": f"{type(error).__name__}: {error}"}
            reports.append(
                {
                    "shard": group.shard_index,
                    "active": group.active,
                    "databases": len(group.names),
                    **{"status": payload.get("status", "ok")},
                }
            )
        return reports

    # -- writes ----------------------------------------------------------------

    def update(self, ops: Sequence[Mapping], verify: bool = False) -> dict:
        """Route each op to its owning shard's primary, then replicate.

        Ops are canonicalized first (malformed batches are rejected
        before any shard applies anything), grouped by ring ownership
        with their relative order preserved, applied on each owning
        shard's active target, appended to the shard journal as one
        batch, and shipped to the shard's live replicas. A replica whose
        ship fails merely lags (``serve.replica_lag`` counts it) — it
        catches up from the journal at promote time.
        """
        from repro.evaluation.instrument import get_instrumentation

        canonical = [canonical_op(op) for op in ops]
        instrumentation = get_instrumentation()
        with self._update_lock:
            by_shard: dict[int, list[dict]] = {}
            for op in canonical:
                by_shard.setdefault(
                    self.ring.shard_of(op["name"]), []
                ).append(op)
            reports: dict[str, dict] = {}
            for shard_index in sorted(by_shard):
                batch = by_shard[shard_index]
                group = self.groups[shard_index]
                primary_report = group.active_target.update(
                    batch, verify=verify, timeout=UPDATE_TIMEOUT_SECONDS
                )
                group.journal.append(batch)
                group.applied[group.active] = len(group.journal)
                replica_reports = []
                for index, target in enumerate(group.targets):
                    if index == group.active or not group.alive[index]:
                        continue
                    try:
                        for suffix_batch in group.journal[
                            group.applied[index]:
                        ]:
                            target.update(
                                suffix_batch,
                                verify=False,
                                timeout=UPDATE_TIMEOUT_SECONDS,
                            )
                            group.applied[index] += 1
                    except Exception as error:
                        instrumentation.count(
                            labeled(
                                "serve.replica_lag",
                                shard=shard_index,
                            )
                        )
                        replica_reports.append(
                            {
                                "target": index,
                                "applied": group.applied[index],
                                "error": f"{type(error).__name__}: {error}",
                            }
                        )
                        continue
                    replica_reports.append(
                        {"target": index, "applied": group.applied[index]}
                    )
                reports[str(shard_index)] = {
                    "ops": len(batch),
                    "primary": primary_report,
                    "replicas": replica_reports,
                }
            return {"ops": len(canonical), "shards": reports}

    # -- failover --------------------------------------------------------------

    def promote(self, shard_index: int) -> dict:
        """Promote a live replica to serve a shard; catch it up first.

        Replays the journal batches the replica is missing (bit-identical
        state and snapshot version by the lifecycle replay contract),
        then flips the shard's active pointer. Returns the promotion
        report, including the measured promotion latency.
        """
        from repro.evaluation.instrument import get_instrumentation

        group = self.groups[shard_index]
        start = time.perf_counter()
        with self._update_lock:
            candidates = [
                index
                for index in range(len(group.targets))
                if index != group.active and group.alive[index]
            ]
            if not candidates:
                raise ClusterError(
                    f"shard {shard_index} has no live replica to promote"
                )
            replacement = candidates[0]
            replayed = 0
            for batch in group.journal[group.applied[replacement]:]:
                group.targets[replacement].update(
                    batch, verify=False, timeout=UPDATE_TIMEOUT_SECONDS
                )
                group.applied[replacement] += 1
                replayed += 1
            previous = group.active
            group.mark_dead(previous)
            group.active = replacement
        seconds = time.perf_counter() - start
        instrumentation = get_instrumentation()
        instrumentation.observe("serve.failover_seconds", seconds)
        instrumentation.count(
            labeled("serve.promotions", shard=shard_index)
        )
        return {
            "shard": shard_index,
            "previous": previous,
            "promoted": replacement,
            "replayed_batches": replayed,
            "promotion_seconds": seconds,
        }


# -- verification --------------------------------------------------------------


def verify_against_single_cell(
    frontend: ClusterFrontend,
    reference: Metasearcher,
    queries: Sequence[Sequence[str]],
    algorithms: Sequence[str] = _ALGORITHMS,
    strategies: Sequence[str] = ("plain",),
    k: int = 5,
) -> dict:
    """Sweep scatter-gather selects against the single-cell cell, bit for bit.

    The cluster analogue of ``repro verify-prune``: for every (query,
    algorithm, strategy) the merged response's selected list must equal
    the single-cell ``Metasearcher.select`` names exactly (order
    included), and the merged ranking's first ``k`` entries must carry
    the same names, bit-identical scores (``!=`` on the floats, no
    tolerance), and the same selected flags, in the same tie order.
    """
    from repro.serving.service import canonical_terms, normalize_query

    mismatches: list[dict] = []
    checked = 0
    for terms in queries:
        # The shards score the service-canonical (sorted, de-duplicated)
        # term set; the reference must fold the same order or the per-term
        # products differ in the last ulp and the sweep reports phantom
        # mismatches.
        reference_terms = list(canonical_terms(normalize_query(list(terms))))
        for algorithm in algorithms:
            for strategy in strategies:
                checked += 1
                problems: list[str] = []
                merged = frontend.select(
                    list(terms), algorithm=algorithm, strategy=strategy, k=k
                )
                outcome = reference.select(
                    reference_terms, algorithm=algorithm, strategy=strategy, k=k
                )
                if merged.get("partial"):
                    problems.append(
                        f"partial response: {merged.get('shard_errors')!r}"
                    )
                if list(merged["selected"]) != list(outcome.names):
                    problems.append(
                        f"selected {merged['selected']!r} "
                        f"!= {outcome.names!r}"
                    )
                reference_order = sorted(
                    outcome.scores.items(),
                    key=lambda item: (-item[1], item[0]),
                )
                selected_set = set(outcome.names)
                prefix = merged["ranking"][:k]
                for entry, (name, score) in zip(prefix, reference_order):
                    if entry["name"] != name:
                        problems.append(
                            f"ranking order: {entry['name']!r} != {name!r}"
                        )
                        break
                    if entry["score"] != score:
                        problems.append(
                            f"score of {name!r}: {entry['score']!r} "
                            f"!= {score!r}"
                        )
                    if entry["selected"] != (name in selected_set):
                        problems.append(
                            f"selected flag of {name!r}: "
                            f"{entry['selected']!r}"
                        )
                if problems:
                    mismatches.append(
                        {
                            "query": list(terms),
                            "algorithm": algorithm,
                            "strategy": strategy,
                            "problems": problems,
                        }
                    )
    return {
        "selections_checked": checked,
        "mismatches": mismatches,
        "ok": not mismatches,
    }


# -- forked shard nodes --------------------------------------------------------


class ShardRequestHandler(SelectionRequestHandler):
    """Shard node handler: ``/healthz`` carries shard/role labels."""

    shard_index = 0
    shard_role = "primary"

    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        if self.path == "/healthz":
            from repro.serving.telemetry import RequestTelemetry

            telemetry = RequestTelemetry("healthz")
            payload = self.service.describe()
            payload["shard"] = self.shard_index
            payload["role"] = self.shard_role
            self._respond(200, payload)
            self._record_get(telemetry)
        else:
            super().do_GET()


class ClusterNode:
    """One forked HTTP server over a shard service (primary or replica).

    The parent binds the listener (so the port is known before the fork)
    and forks a child that serves forever; SIGKILL-ing the child is the
    failover drill's primary crash. The child tags its metrics registry
    with ``serve.shard_info{role=...,shard=...}`` so scrapes identify the
    process.
    """

    def __init__(
        self,
        service: SelectionService,
        shard_index: int,
        role: str = "primary",
        host: str = "127.0.0.1",
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.shard_index = shard_index
        self.role = role
        self.host = host
        self.verbose = verbose
        self.pid: int | None = None
        self.port: int | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ClusterNode":
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise RuntimeError("cluster nodes require os.fork")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(128)
        self.port = listener.getsockname()[1]
        pid = os.fork()
        if pid == 0:
            # Child: serve until killed. os._exit keeps the parent's
            # atexit hooks (shm cleanup, pytest plugins) from running
            # twice.
            status = 1
            try:
                signal.signal(signal.SIGTERM, lambda *_: os._exit(0))
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                from repro.evaluation.instrument import get_instrumentation

                get_instrumentation().set_gauge(
                    labeled(
                        "serve.shard_info",
                        role=self.role,
                        shard=self.shard_index,
                    ),
                    1,
                )
                server = make_server(
                    self.service,
                    verbose=self.verbose,
                    sock=listener,
                    handler_base=ShardRequestHandler,
                    handler_attrs={
                        "shard_index": self.shard_index,
                        "shard_role": self.role,
                    },
                )
                server.serve_forever()
                status = 0
            finally:
                os._exit(status)
        listener.close()
        self.pid = pid
        return self

    def kill(self) -> None:
        """SIGKILL the node (the drill's simulated primary crash)."""
        if self.pid is None:
            return
        try:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
        self.pid = None

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful SIGTERM shutdown, escalating to SIGKILL."""
        if self.pid is None:
            return
        try:
            os.kill(self.pid, signal.SIGTERM)
        except ProcessLookupError:
            self.pid = None
            return
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                done, _ = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                self.pid = None
                return
            if done:
                self.pid = None
                return
            time.sleep(0.05)
        self.kill()


# -- the cluster ---------------------------------------------------------------


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of a cluster deployment."""

    shards: int = 2
    #: Standby replicas per shard (beyond the primary).
    replicas: int = 0
    vnodes: int = DEFAULT_VNODES
    #: Scatter fan-in deadline; a shard missing it degrades the response
    #: (``partial: true``) instead of failing it. ``None`` waits.
    shard_deadline_seconds: float | None = None
    #: Worker processes per shard *primary* (forked clusters only): the
    #: primary becomes a WorkerPool cell — shared-memory snapshot,
    #: multi-process serving — while replicas stay single-process nodes.
    workers: int = 0
    #: Frontend admission control: at most this many scatter fan-outs in
    #: flight; beyond it (plus the bounded queue) requests are shed with
    #: :class:`~repro.serving.admission.ServiceOverloaded`. ``None``
    #: disables the gate.
    max_inflight: int | None = None
    admission_queue: int = 64
    admission_timeout_seconds: float = 0.05


class Cluster:
    """Owns the shard cells and (optionally) their forked serving nodes.

    ``in_process=True`` wires the front end straight onto per-shard
    :class:`~repro.serving.service.SelectionService` objects (tests, the
    ``loadgen --cluster`` in-process path). ``in_process=False`` forks
    one HTTP node per (shard, role) — plus a WorkerPool primary per shard
    when ``config.workers > 0`` — and talks to them over HTTP.
    """

    def __init__(
        self,
        metasearcher: Metasearcher,
        service_config: ServiceConfig | None = None,
        config: ClusterConfig | None = None,
        in_process: bool = True,
        host: str = "127.0.0.1",
        verbose: bool = False,
    ) -> None:
        self.service_config = service_config or ServiceConfig(
            strategies=("plain",)
        )
        unsupported = [
            strategy
            for strategy in self.service_config.strategies
            if strategy not in CLUSTERABLE_STRATEGIES
        ]
        if unsupported:
            raise ClusterError(
                f"strategies {unsupported!r} cannot shard exactly (their "
                "corpus statistics are recomputed per query over the whole "
                f"universe); serve from {CLUSTERABLE_STRATEGIES}"
            )
        self.config = config or ClusterConfig()
        self.metasearcher = metasearcher
        self.in_process = in_process
        self.host = host
        self.verbose = verbose
        self.ring = HashRing(self.config.shards, self.config.vnodes)
        self.partitions = partition_names(
            metasearcher.sampled_summaries, self.ring
        )
        for shard_index, part in enumerate(self.partitions):
            if not part:
                raise ClusterError(
                    f"shard {shard_index} owns no databases "
                    f"({len(metasearcher.sampled_summaries)} databases over "
                    f"{self.config.shards} shards); use fewer shards"
                )
        self.groups: list[ShardGroup] = []
        #: Forked mode bookkeeping, aligned with each group's targets:
        #: a ClusterNode, a WorkerPool, or None (in-process target).
        self.nodes: list[list[object]] = []
        self.frontend: ClusterFrontend | None = None
        self._started = False

    @classmethod
    def from_harness(
        cls,
        service_config: ServiceConfig | None = None,
        config: ClusterConfig | None = None,
        in_process: bool = True,
        host: str = "127.0.0.1",
        verbose: bool = False,
    ) -> "Cluster":
        """Preload the cell through the harness (same path as ``serve``)."""
        from repro.evaluation import harness
        from repro.evaluation.instrument import span

        service_config = service_config or ServiceConfig(
            strategies=("plain",)
        )
        with span(
            "cluster.preload",
            dataset=service_config.dataset,
            scale=service_config.scale,
        ):
            cell = harness.get_cell(
                service_config.dataset,
                service_config.sampler,
                service_config.frequency_estimation,
                service_config.scale,
            )
            needs_shrunk = any(
                strategy != "plain"
                for strategy in service_config.strategies
            )
            if (
                needs_shrunk
                and harness.universe_size(service_config.dataset) is None
            ):
                harness.ensure_shrunk(cell)
        return cls(
            cell.metasearcher,
            service_config,
            config,
            in_process=in_process,
            host=host,
            verbose=verbose,
        )

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Cluster":
        """Build, warm and (in forked mode) boot every shard target."""
        from repro.evaluation.instrument import span

        if self._started:
            return self
        roles = ["primary"] + [
            f"replica{index}" for index in range(1, self.config.replicas + 1)
        ]
        # A forked target's socket timeout tracks the scatter deadline:
        # a call hung on a dead node must release its executor thread
        # soon after the front end stopped waiting for it, or hung calls
        # pile up and starve the healthy shards.
        deadline = self.config.shard_deadline_seconds
        client_timeout = (
            10.0 if deadline is None else max(5.0, 2.0 * deadline)
        )
        try:
            with span("cluster.freeze_statistics"):
                frozen = freeze_global_scorers(
                    self.metasearcher, self.service_config.strategies
                )
            for shard_index, names in enumerate(self.partitions):
                with span(
                    "cluster.shard_build",
                    shard=shard_index,
                    databases=len(names),
                ):
                    shard = shard_metasearcher(
                        self.metasearcher,
                        names,
                        self.service_config.strategies,
                        frozen_scorers=frozen,
                    )
                targets = []
                shard_nodes: list[object] = []
                for role in roles:
                    service = ShardSelectionService(
                        shard, self.service_config, frozen_scorers=frozen
                    )
                    service.warmup()
                    if self.in_process:
                        targets.append(LocalShardTarget(service))
                        shard_nodes.append(None)
                    elif role == "primary" and self.config.workers > 0:
                        from repro.serving.workers import WorkerPool

                        pool = WorkerPool(
                            service,
                            host=self.host,
                            port=0,
                            workers=self.config.workers,
                            verbose=self.verbose,
                        )
                        pool.start()
                        shard_nodes.append(pool)
                        targets.append(
                            ServingClient(pool.url, timeout=client_timeout)
                        )
                    else:
                        node = ClusterNode(
                            service,
                            shard_index,
                            role,
                            host=self.host,
                            verbose=self.verbose,
                        )
                        node.start()
                        shard_nodes.append(node)
                        targets.append(
                            ServingClient(node.url, timeout=client_timeout)
                        )
                self.groups.append(
                    ShardGroup(shard_index, targets, names)
                )
                self.nodes.append(shard_nodes)
            if not self.in_process:
                for group in self.groups:
                    for target in group.targets:
                        target.wait_until_ready()
        except BaseException:
            self.shutdown()
            raise
        admission = None
        if self.config.max_inflight is not None:
            from repro.serving.admission import AdmissionController

            admission = AdmissionController(
                self.config.max_inflight,
                max_queue=self.config.admission_queue,
                queue_timeout_seconds=self.config.admission_timeout_seconds,
            )
        self.frontend = ClusterFrontend(
            self.groups,
            self.ring,
            default_k=self.service_config.default_k,
            ranking_limit=self.service_config.ranking_limit,
            shard_deadline_seconds=self.config.shard_deadline_seconds,
            admission=admission,
        )
        self._started = True
        return self

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        if self.frontend is not None:
            self.frontend.close()
            self.frontend = None
        for shard_nodes in self.nodes:
            for node in shard_nodes:
                if node is None:
                    continue
                if isinstance(node, ClusterNode):
                    node.stop()
                else:  # WorkerPool
                    node.shutdown()
        self.groups = []
        self.nodes = []
        self._started = False

    # -- drills ----------------------------------------------------------------

    def kill_active(self, shard_index: int) -> dict:
        """Crash a shard's active target (SIGKILL in forked mode).

        In-process targets cannot be killed, so they are marked dead —
        the front end skips dead targets, which is the same observable
        behavior (the shard stops answering until a promotion).
        """
        group = self.groups[shard_index]
        index = group.active
        node = self.nodes[shard_index][index]
        killed: dict = {"shard": shard_index, "target": index}
        # Dead first, teardown second: the front end must stop routing
        # to the target immediately, not after the (possibly slow)
        # process reaping below.
        group.mark_dead(index)
        if isinstance(node, ClusterNode):
            killed["pid"] = node.pid
            node.kill()
        elif node is not None:  # WorkerPool primary: kill the whole cell
            killed["pids"] = list(node.worker_pids)
            node.shutdown()
            self.nodes[shard_index][index] = None
        return killed

    def promote(self, shard_index: int) -> dict:
        if self.frontend is None:
            raise ClusterError("cluster is not started")
        return self.frontend.promote(shard_index)
