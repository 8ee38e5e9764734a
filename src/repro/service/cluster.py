"""Replicated analysis cluster: the failover router front tier.

``python -m repro.service route`` runs a :class:`ClusterRouter` — an
asyncio TCP tier that speaks the exact line-JSON envelope of a single
:mod:`repro.service` node, so existing clients point at the router and
notice nothing except that the cluster now survives node loss, slow
nodes, and partitions.

Placement and replication
    Every request is normalized into a :class:`JobRequest` and keyed by
    its content address (the store's normalized-payload SHA-256); the
    key places onto a deterministic consistent-hash ring
    (:mod:`repro.service.ring`).  A computed result is replicated to
    ``R`` (default 2) ring owners via the backend ``put`` op — the
    backend re-derives the key from the payload, so a confused router
    can never file a result under the wrong address.  When a node is
    lost, every key it held is re-replicated from a surviving holder to
    the ring's next live choice, restoring ``R`` copies.

Failure machinery
    * **active + passive detection** — a ping loop marks a node down
      after ``down_after`` consecutive probe failures (and back up on
      the first success); request latencies feed a per-node EMA and
      sliding p95 (:mod:`repro.service.health`);
    * **circuit breakers** — per backend, closed/open/half-open with a
      bounded probe budget; an open breaker fails over instantly
      instead of burning a timeout per request;
    * **hedged reads** — an idempotent request whose key is known to be
      replicated races a second holder after an adaptive delay (the
      primary's own p95): first response wins, the loser is cancelled;
    * **explicit shed** — when no backend is usable the router answers
      ``{"status": "shed", "reason": "no-backend", "retry_after_s": …}``
      rather than hanging; the client's decorrelated-jitter retry
      (:func:`repro.service.client.request_sync`) honors the hint.

Zero wrong answers is inherited, not re-proven: backends only serve
checksum-verified store entries or freshly computed, sanitizer-clean
results, and the router never caches — it only moves verified payloads
between stores.

The router journals cluster membership and the replica index
(``--journal``); ``route --resume`` reloads both so a restarted router
keeps hedging and can re-replicate keys recorded before the restart.
Chaos coverage lives in ``tests/service/test_cluster.py`` and the
``cluster-chaos`` CI job; the ``net.delay`` fault site
(:mod:`repro.reliability.faults`) injects slow-node wall-clock latency
into router→backend calls.
"""

from __future__ import annotations

import asyncio
import time

from ..errors import ConfigError, ServiceProtocolError
from ..reliability.atomic_io import atomic_write_json, read_json_with_backup
from .client import ServiceClient
from .envelope import JobRequest
from .health import BackendHealth
from .lineserver import handle_lines, listen
from .ring import DEFAULT_VNODES, HashRing

__all__ = [
    "BackendLink",
    "ClusterJournal",
    "ClusterRouter",
    "parse_backends",
    "route_serve",
]

#: Result copies the cluster maintains per key.
DEFAULT_REPLICATION = 2


def parse_backends(text):
    """Parse ``[name=]host:port,...`` into ``[(node_id, host, port)]``.

    Names default to ``host:port``; explicit names give the ring stable
    coordinates across redeploys that move ports.
    """
    backends = []
    seen = set()
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, addr = item.rpartition("=")
        host, _, port = addr.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(
                f"backend {item!r} must look like [name=]host:port"
            )
        node_id = name or f"{host}:{port}"
        if node_id in seen:
            raise ConfigError(f"duplicate backend id {node_id!r}")
        seen.add(node_id)
        backends.append((node_id, host, int(port)))
    if not backends:
        raise ConfigError("at least one backend is required")
    return backends


class BackendLink:
    """One router→backend channel: lazy reconnect, typed errors, timeouts.

    Concurrent calls share a single pipelined connection; any transport
    failure (or timeout) drops the connection so the next call starts
    clean.  ``injector`` (a :class:`~repro.reliability.faults
    .FaultInjector`) is consulted once per call at the ``net.delay``
    site — the slow-node chaos lever.
    """

    def __init__(self, node_id, host, port, injector=None):
        self.node_id = node_id
        self.host = host
        self.port = port
        self.injector = injector
        self._client = None
        self._connect_lock = asyncio.Lock()
        self.calls = 0

    async def call(self, body, timeout=10.0):
        self.calls += 1
        if self.injector is not None:
            action = self.injector.fire("net.delay")
            if action is not None:
                await asyncio.sleep(action.extra / 1000.0)
        try:
            if self._client is None:
                async with self._connect_lock:
                    if self._client is None:
                        client = ServiceClient(self.host, self.port)
                        await asyncio.wait_for(client.connect(), timeout)  # reprolint: disable=blocking-call-in-async -- ServiceClient.connect is an asyncio-streams coroutine; wait_for awaits it with a bound
                        self._client = client
            return await asyncio.wait_for(self._client.call(body), timeout)
        except asyncio.TimeoutError:
            await self.reset()
            raise ServiceProtocolError(
                f"no response within {timeout}s",
                host=self.host, port=self.port,
            ) from None
        except ServiceProtocolError:
            await self.reset()
            raise

    async def reset(self):
        """Drop the connection (failed or suspect); next call redials."""
        client, self._client = self._client, None
        if client is not None:
            await client.close()


class ClusterJournal:
    """Durable cluster memory: membership plus the replica index.

    One entry per replicated key records the normalized request
    (``kind`` + ``payload`` — enough to refetch the result from any
    holder as a cache hit) and which nodes hold a copy.  Writes are
    batched (``flush`` from the monitor loop and at drain) through the
    shared kill-9-hardened atomic pattern; losing the last few seconds
    of index on a hard kill only costs hedging eligibility and
    re-replication hints, never correctness.
    """

    VERSION = 1

    def __init__(self, path=None, membership=None, resume=False):
        self.path = path
        self.membership = dict(membership or {})
        self._replicas = {}
        self._dirty = False
        self.resumed_keys = 0
        if path is not None and resume:
            self._load()

    def _load(self):
        data, _ = read_json_with_backup(self.path, "cluster journal")
        if not isinstance(data, dict) or data.get("version") != self.VERSION:
            return
        known = set(self.membership)
        for key, entry in sorted(data.get("replicas", {}).items()):
            if not isinstance(entry, dict):
                continue
            nodes = [
                node
                for node in entry.get("nodes", ())
                if not known or node in known
            ]
            if nodes and entry.get("kind") and isinstance(
                entry.get("payload"), dict
            ):
                self._replicas[key] = {
                    "kind": entry["kind"],
                    "payload": entry["payload"],
                    "nodes": sorted(nodes),
                }
        self.resumed_keys = len(self._replicas)
        self._dirty = True  # persist the membership-filtered view

    @property
    def replicas(self):
        return self._replicas

    def nodes_for(self, key):
        entry = self._replicas.get(key)
        return tuple(entry["nodes"]) if entry else ()

    def record(self, key, kind, payload, nodes):
        nodes = sorted(set(nodes))
        entry = self._replicas.get(key)
        if entry is not None and entry["nodes"] == nodes:
            return
        self._replicas[key] = {
            "kind": kind, "payload": payload, "nodes": nodes,
        }
        self._dirty = True

    def flush(self):
        if self.path is None or not self._dirty:
            return
        atomic_write_json(
            self.path,
            {
                "version": self.VERSION,
                "membership": self.membership,
                "replicas": self._replicas,
            },
            backup=True,
        )
        self._dirty = False

    def __len__(self):
        return len(self._replicas)


class ClusterRouter:
    """Consistent-hash failover router over N backend service nodes."""

    def __init__(
        self,
        backends,
        replication=DEFAULT_REPLICATION,
        vnodes=DEFAULT_VNODES,
        journal_path=None,
        resume=False,
        faults=None,
        call_timeout_s=30.0,
        ping_interval_s=0.5,
        ping_timeout_s=2.0,
        hedge_floor_s=0.02,
        down_after=3,
        breaker_threshold=3,
        breaker_cooldown_s=2.0,
        breaker_probes=1,
        clock=time.monotonic,
    ):
        if not backends:
            raise ConfigError("cluster needs at least one backend")
        self.replication = max(1, int(replication))
        self.call_timeout_s = float(call_timeout_s)
        self.ping_interval_s = float(ping_interval_s)
        self.ping_timeout_s = float(ping_timeout_s)
        self.hedge_floor_s = float(hedge_floor_s)
        self._clock = clock
        self.injector = faults.injector() if faults else None
        self.ring = HashRing(vnodes=vnodes)
        self.links = {}
        self.health = {}
        membership = {}
        for node_id, host, port in backends:
            self.ring.add(node_id)
            self.links[node_id] = BackendLink(
                node_id, host, port, injector=self.injector
            )
            self.health[node_id] = BackendHealth(
                node_id,
                down_after=down_after,
                clock=clock,
            )
            self.health[node_id].breaker.failure_threshold = breaker_threshold
            self.health[node_id].breaker.cooldown_s = breaker_cooldown_s
            self.health[node_id].breaker.probe_budget = breaker_probes
            membership[node_id] = f"{host}:{port}"
        self.journal = ClusterJournal(
            journal_path, membership=membership, resume=resume
        )
        self.draining = False
        self.counters = {
            "requests": 0,
            "ok": 0,
            "failed": 0,
            "shed_upstream": 0,
            "shed_no_backend": 0,
            "shed_draining": 0,
            "failovers": 0,
            "backend_failures": 0,
            "breaker_rejections": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "replications": 0,
            "rereplications": 0,
            "rereplication_deferred": 0,
            "nodes_lost": 0,
            "nodes_recovered": 0,
        }
        self._started_at = clock()
        self._monitor = None
        self._stop_monitor = False
        self._tasks = set()
        self._inflight_submits = 0

    # ------------------------------------------------------------- lifecycle

    async def start(self):
        self.journal.flush()
        self._stop_monitor = False
        self._monitor = asyncio.ensure_future(self._monitor_loop())
        return self

    async def drain(self, timeout=15.0):
        """Stop accepting, let in-flight forwards finish, persist, close."""
        self.draining = True
        deadline = self._clock() + timeout
        while self._inflight_submits and self._clock() < deadline:
            await asyncio.sleep(0.02)
        self._stop_monitor = True
        if self._monitor is not None:
            self._monitor.cancel()
            try:
                await self._monitor
            except (asyncio.CancelledError, Exception):
                pass
            self._monitor = None
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        self.journal.flush()
        for link in self.links.values():
            await link.reset()

    def _spawn(self, coro):
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    # --------------------------------------------------------------- routing

    def _is_up(self, node):
        return self.health[node].up

    def _down_nodes(self):
        return [node for node in self.ring.nodes if not self._is_up(node)]

    def _candidates(self, key):
        """Every live node in ring preference order (owners first)."""
        return self.ring.nodes_for(
            key, count=len(self.ring), exclude=self._down_nodes()
        )

    def _retry_after(self):
        p95 = max(
            (self.health[node].latency.p95() for node in self.ring.nodes),
            default=0.05,
        )
        return round(max(0.05, 2.0 * p95), 3)

    async def submit(self, message):
        """Route one submit to a healthy backend; always answers."""
        self.counters["requests"] += 1
        request = JobRequest.from_wire(message)
        if self.draining:
            self.counters["shed_draining"] += 1
            return {
                "status": "shed",
                "reason": "draining",
                "kind": request.kind,
                "key": request.cache_key,
                "retry_after_s": self._retry_after(),
            }
        self._inflight_submits += 1
        try:
            forward = {
                field: value
                for field, value in message.items()
                if field != "id"
            }
            key = request.cache_key
            candidates = self._candidates(key)
            holders = [
                node
                for node in candidates
                if node in set(self.journal.nodes_for(key))
            ]
            if not request.nocache and len(holders) >= 2:
                response, node = await self._hedged_call(
                    key, forward, holders, candidates
                )
            else:
                response, node = await self._failover_call(forward, candidates)
            if response is None:
                self.counters["shed_no_backend"] += 1
                return {
                    "status": "shed",
                    "reason": "no-backend",
                    "kind": request.kind,
                    "key": key,
                    "retry_after_s": self._retry_after(),
                }
            return self._after_submit(request, response, node)
        finally:
            self._inflight_submits -= 1

    async def _call_node(self, node, body, timeout=None, probe=False):
        """One accounted call: breaker admission, latency, typed failure."""
        health = self.health[node]
        if not probe and not health.breaker.allow():
            self.counters["breaker_rejections"] += 1
            raise ServiceProtocolError(f"circuit breaker open for {node}")
        started = self._clock()
        try:
            response = await self.links[node].call(
                body, timeout=timeout or self.call_timeout_s
            )
        except asyncio.CancelledError:
            raise
        except ServiceProtocolError:
            self.counters["backend_failures"] += 1
            health.record_call(False)
            raise
        health.record_call(True, self._clock() - started)
        return response

    async def _failover_call(self, forward, candidates):
        """Walk candidates in ring order until one answers."""
        for index, node in enumerate(candidates):
            try:
                response = await self._call_node(node, forward)
            except ServiceProtocolError:
                continue
            if index > 0:
                self.counters["failovers"] += 1
            return response, node
        return None, None

    async def _hedged_call(self, key, forward, holders, candidates):
        """Race two replica holders: primary first, backup after p95.

        First response wins and the loser is cancelled; if both holders
        fail, fall back to plain failover over the remaining nodes.
        """
        primary, backup = holders[0], holders[1]
        delay = max(self.hedge_floor_s, self.health[primary].latency.p95())
        primary_task = self._spawn(self._call_node(primary, forward))
        done, _ = await asyncio.wait({primary_task}, timeout=delay)
        tasks = {primary_task: primary}
        if not done:
            # Primary is past its own p95: hedge to the other holder.
            self.counters["hedges"] += 1
            backup_task = self._spawn(self._call_node(backup, forward))
            tasks[backup_task] = backup
        pending = set(tasks)
        winner = None
        while pending and winner is None:
            done, pending = await asyncio.wait(
                pending, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                try:
                    response = task.result()
                except (ServiceProtocolError, asyncio.CancelledError):
                    continue
                winner = (response, tasks[task])
                break
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if winner is None:
            rest = [node for node in candidates if node not in tasks.values()]
            return await self._failover_call(forward, rest)
        if winner[1] != primary:
            self.counters["hedge_wins"] += 1
        return winner

    def _after_submit(self, request, response, node):
        response = dict(response)
        response.pop("id", None)  # backend-link id, not the client's
        response["node"] = node
        status = response.get("status")
        if status == "ok":
            self.counters["ok"] += 1
            if not request.nocache and isinstance(
                response.get("metrics"), dict
            ):
                self._spawn(
                    self._ensure_replication(
                        request, response["metrics"], node
                    )
                )
        elif status == "shed":
            self.counters["shed_upstream"] += 1
        elif status == "failed":
            self.counters["failed"] += 1
        return response

    # ----------------------------------------------------------- replication

    async def _ensure_replication(self, request, metrics, served_by):
        """Copy a fresh result to ring owners until R live holders exist."""
        key = request.cache_key
        holders = set(self.journal.nodes_for(key))
        holders.add(served_by)
        live = {node for node in holders if self._is_up(node)}
        if len(live) < self.replication:
            preferred = self.ring.nodes_for(
                key, count=len(self.ring), exclude=self._down_nodes()
            )
            for node in preferred:
                if len(live) >= self.replication:
                    break
                if node in live:
                    continue
                try:
                    await self._call_node(
                        node,
                        {
                            "op": "put",
                            "kind": request.kind,
                            "payload": request.payload,
                            "metrics": metrics,
                        },
                    )
                except ServiceProtocolError:
                    continue
                live.add(node)
                holders.add(node)
                self.counters["replications"] += 1
        self.journal.record(key, request.kind, request.payload, holders)

    async def _rereplicate_lost(self, lost):
        """Restore R copies of every key the lost node held.

        The source is a surviving holder (the refetch is a cache hit on
        its checksum-verified store); the target is the ring's next live
        choice.  Keys whose every holder is down are deferred — they
        recompute on the next request, which is still a correct answer.
        """
        for key, entry in sorted(self.journal.replicas.items()):
            nodes = entry["nodes"]
            if lost not in nodes:
                continue
            survivors = [
                node for node in nodes if node != lost and self._is_up(node)
            ]
            if not survivors:
                self.counters["rereplication_deferred"] += 1
                continue
            try:
                response = await self._call_node(
                    survivors[0],
                    {
                        "op": "submit",
                        "kind": entry["kind"],
                        "payload": entry["payload"],
                        "client": "router-rereplication",
                        "lane": "batch",
                    },
                )
            except ServiceProtocolError:
                self.counters["rereplication_deferred"] += 1
                continue
            if response.get("status") != "ok":
                self.counters["rereplication_deferred"] += 1
                continue
            placed = [node for node in nodes if node != lost]
            targets = [
                node
                for node in self.ring.nodes_for(
                    key, count=len(self.ring), exclude=self._down_nodes()
                )
                if node not in nodes
            ]
            for node in targets:
                if (
                    sum(1 for held in placed if self._is_up(held))
                    >= self.replication
                ):
                    break
                try:
                    await self._call_node(
                        node,
                        {
                            "op": "put",
                            "kind": entry["kind"],
                            "payload": entry["payload"],
                            "metrics": response["metrics"],
                        },
                    )
                except ServiceProtocolError:
                    continue
                placed.append(node)
                self.counters["rereplications"] += 1
            self.journal.record(key, entry["kind"], entry["payload"], placed)

    # ------------------------------------------------------------ monitoring

    async def _monitor_loop(self):
        """Active health checks + journal flushing, forever until drain."""
        while not self._stop_monitor:
            for node in self.ring.nodes:
                await self._ping_node(node)
            self.journal.flush()
            await asyncio.sleep(self.ping_interval_s)

    async def _ping_node(self, node):
        try:
            response = await self._call_node(
                node, {"op": "ping"}, timeout=self.ping_timeout_s, probe=True
            )
            ok = response.get("status") == "ok"
        except ServiceProtocolError:
            ok = False
        transition = self.health[node].record_ping(ok)
        if transition == "down":
            self.counters["nodes_lost"] += 1
            self._spawn(self._rereplicate_lost(node))
        elif transition == "up":
            self.counters["nodes_recovered"] += 1

    # ---------------------------------------------------------------- status

    async def status(self):
        """Cluster view: per-node health/breaker/latency + replica index."""
        per_node = {}
        for node in self.ring.nodes:
            snapshot = self.health[node].snapshot()
            snapshot["address"] = self.journal.membership.get(node)
            try:
                backend = await self._call_node(
                    node,
                    {"op": "status"},
                    timeout=self.ping_timeout_s,
                    probe=True,
                )
                healthz = backend.get("healthz") or {}
                snapshot["store_entries"] = healthz.get("cache", {}).get(
                    "entries"
                )
                snapshot["backend"] = healthz
            except ServiceProtocolError as error:
                snapshot["store_entries"] = None
                snapshot["backend"] = None
                snapshot["backend_error"] = str(error)
            per_node[node] = snapshot
        by_count = {}
        under = 0
        for entry in self.journal.replicas.values():
            count = len(entry["nodes"])
            by_count[str(count)] = by_count.get(str(count), 0) + 1
            live = sum(1 for node in entry["nodes"] if self._is_up(node))
            if live < self.replication:
                under += 1
        return {
            "cluster": True,
            "draining": self.draining,
            "uptime_s": round(self._clock() - self._started_at, 3),
            "replication": self.replication,
            "nodes": per_node,
            "replicas": {
                "tracked_keys": len(self.journal),
                "by_count": by_count,
                "under_replicated": under,
                "journal_resumed_keys": self.journal.resumed_keys,
            },
            "counters": dict(self.counters),
            "faults_injected": (
                len(self.injector.log) if self.injector is not None else 0
            ),
        }


# ------------------------------------------------------------------ protocol


async def _handle_router_connection(router, reader, writer):
    """Same line discipline as the single-node server, routed ops."""

    async def status(message):
        return {"status": "ok", "healthz": await router.status()}

    await handle_lines(reader, writer, {
        "ping": lambda message: {
            "status": "ok", "pong": True, "cluster": True,
        },
        "status": status,
        "submit": router.submit,
    }, unknown="unknown router op")


async def route_serve(
    router,
    host="127.0.0.1",
    port=0,
    ready_callback=None,
    drain_timeout=15.0,
):
    """Run the router front-end until SIGTERM/SIGINT, then drain.

    Mirrors :func:`repro.service.server.serve`: ``ready_callback(host,
    port)`` fires once listening (``port=0`` picks a free port), and the
    call returns after the drain completes.
    """
    await router.start()
    try:
        return await listen(
            lambda r, w: _handle_router_connection(router, r, w),
            host, port, ready_callback,
        )
    finally:
        await router.drain(timeout=drain_timeout)
