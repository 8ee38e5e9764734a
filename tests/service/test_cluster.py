"""Cluster chaos suite: the router degrades explicitly, never wrongly.

Every scenario drives a real :class:`ClusterRouter` over real in-process
:class:`AnalysisService` backends (forked worker pools and all), with a
switchable TCP chaos proxy standing in for the network between them.
The contract (docs/SERVICE.md): under backend SIGKILL, socket-blackhole
partitions, slow nodes, or corrupt replicas, every request ends in a
correct response or an explicit shed with a retry hint — bounded
unavailability, deterministic results, zero wrong answers.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.runner
from repro.reliability import LeasePool
from repro.reliability.faults import FaultSchedule
from repro.service.client import ServiceClient, request_sync, status_sync
from repro.service.cluster import ClusterJournal, ClusterRouter, parse_backends
from repro.service.cluster import _handle_router_connection
from repro.service.envelope import JobRequest, canonical_json
from repro.service.server import AnalysisService, _handle_connection
from repro.service.store import ResultStore
from repro.errors import ServiceProtocolError

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO, "src")


def run(coro, timeout=120):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(asyncio.wait_for(coro, timeout))
    finally:
        loop.close()


class _FakeCounters:
    def __init__(self, values):
        self._values = values

    def as_dict(self):
        return dict(self._values)


class _FakeResult:
    def __init__(self, seed):
        self.cycles = 1000 + seed
        self.instructions = 500
        self.traffic_bytes = 64
        self.traffic_breakdown = {"data": 64}
        self.counters = _FakeCounters({"fake.counter": 1})
        self.sanitizer_report = None

    def count(self, name):
        return 1 if name == "fake.counter" else 0


def _fake_ok(app, config, seed=0, heartbeat=None, **kwargs):
    if heartbeat is not None:
        heartbeat(0)
    return _FakeResult(seed)


class ChaosProxy:
    """Switchable TCP proxy: ``pass`` / ``blackhole`` / ``down``.

    * ``pass`` — byte-for-byte forwarding (healthy network);
    * ``blackhole`` — connections stay open but every byte is silently
      swallowed in both directions (a partition: the router's calls time
      out instead of erroring);
    * ``down`` — existing connections are torn down and new ones closed
      on accept (the backend process is gone).
    """

    def __init__(self, upstream_port):
        self.upstream_port = upstream_port
        self.mode = "pass"
        self.port = None
        self._server = None
        self._writers = set()

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def set_mode(self, mode):
        assert mode in ("pass", "blackhole", "down")
        self.mode = mode
        if mode == "down":
            for writer in list(self._writers):
                try:
                    writer.close()
                except OSError:
                    pass

    async def _handle(self, reader, writer):
        if self.mode == "down":
            writer.close()
            return
        try:
            up_reader, up_writer = await asyncio.open_connection(
                "127.0.0.1", self.upstream_port
            )
        except OSError:
            writer.close()
            return
        self._writers.update((writer, up_writer))

        async def pump(src, dst):
            try:
                while True:
                    chunk = await src.read(4096)
                    if not chunk:
                        break
                    if self.mode == "pass":
                        dst.write(chunk)
                        await dst.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                try:
                    dst.close()
                except OSError:
                    pass

        try:
            await asyncio.gather(
                pump(reader, up_writer),
                pump(up_reader, writer),
                return_exceptions=True,
            )
        finally:
            self._writers.discard(writer)
            self._writers.discard(up_writer)

    async def stop(self):
        self.set_mode("down")
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()


class Cluster:
    """N in-process backends behind chaos proxies, one router in front."""

    def __init__(self, tmp_path, nodes=3, **router_kwargs):
        self.tmp_path = tmp_path
        self.n = nodes
        self.router_kwargs = router_kwargs
        self.services = {}
        self.servers = {}
        self.proxies = {}
        self.router = None

    async def __aenter__(self):
        backends = []
        for i in range(self.n):
            node = f"n{i}"
            service = AnalysisService(
                store=ResultStore(self.tmp_path / f"store-{node}"),
                pool=LeasePool(
                    workers=1, heartbeat_timeout=30.0, poll_interval=0.01
                ),
                backoff_base_s=0.01,
            )
            await service.start()
            server = await asyncio.start_server(
                lambda r, w, s=service: _handle_connection(s, r, w),
                "127.0.0.1", 0,
            )
            port = server.sockets[0].getsockname()[1]
            proxy = await ChaosProxy(port).start()
            self.services[node] = service
            self.servers[node] = server
            self.proxies[node] = proxy
            backends.append((node, "127.0.0.1", proxy.port))
        kwargs = dict(
            call_timeout_s=1.5, ping_timeout_s=0.5, ping_interval_s=0.05
        )
        kwargs.update(self.router_kwargs)
        self.router = ClusterRouter(backends, **kwargs)
        return self

    async def __aexit__(self, *exc_info):
        await self.router.drain(timeout=5)
        for proxy in self.proxies.values():
            await proxy.stop()
        for server in self.servers.values():
            server.close()
            await server.wait_closed()
        for service in self.services.values():
            await service.drain(timeout=5)

    async def wait_replicated(self, key, copies=2, timeout=10.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.router.journal.nodes_for(key)) >= copies:
                return self.router.journal.nodes_for(key)
            await asyncio.sleep(0.01)
        raise AssertionError(
            f"key never reached {copies} replicas: "
            f"{self.router.journal.nodes_for(key)}"
        )

    def payload_owned_by(self, node, tag="app"):
        """A sim payload whose cache key has ``node`` as ring primary."""
        for i in range(10000):
            payload = {"app": f"{tag}-{i}"}
            key = JobRequest("sim", payload).cache_key
            if self.router.ring.primary(key) == node:
                return payload, key
        raise AssertionError(f"no payload found for {node}")

    async def mark_down(self, node):
        """Deterministically drive the active detector to 'down'."""
        self.proxies[node].set_mode("down")
        for _ in range(self.router.health[node].down_after):
            await self.router._ping_node(node)
        assert not self.router.health[node].up

    async def settle(self, timeout=10.0):
        """Wait for the router's spawned background tasks to finish."""
        deadline = time.monotonic() + timeout
        while self.router._tasks and time.monotonic() < deadline:
            await asyncio.gather(*self.router._tasks, return_exceptions=True)
        assert not self.router._tasks


@pytest.fixture(autouse=True)
def _fake_kernel(monkeypatch):
    monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)


class TestRoutingAndReplication:
    def test_results_replicate_to_r2_and_repeat_hits_cache(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                payloads = [{"app": f"mix-{i}"} for i in range(6)]
                first = []
                for payload in payloads:
                    response = await cluster.router.submit(
                        {"op": "submit", "kind": "sim", "payload": payload}
                    )
                    assert response["status"] == "ok", response
                    assert response["node"] in cluster.router.ring.nodes
                    first.append(response)
                    key = JobRequest("sim", payload).cache_key
                    holders = await cluster.wait_replicated(key)
                    assert len(holders) == 2
                    # Every recorded holder really has the shard on disk.
                    for node in holders:
                        assert key in cluster.services[node].store
                repeats = []
                for payload in payloads:
                    repeats.append(
                        await cluster.router.submit(
                            {"op": "submit", "kind": "sim",
                             "payload": payload}
                        )
                    )
                status = await cluster.router.status()
                return first, repeats, status

        first, repeats, status = run(main())
        for before, after in zip(first, repeats):
            assert after["status"] == "ok"
            assert after["cached"] is True
            assert canonical_json(after["metrics"]) == canonical_json(
                before["metrics"]
            )
        assert status["replicas"]["tracked_keys"] == 6
        assert status["replicas"]["under_replicated"] == 0
        assert status["replicas"]["by_count"] == {"2": 6}
        assert status["counters"]["replications"] == 6

    def test_routing_is_deterministic_across_routers(self, tmp_path):
        # Two routers built over the same membership must agree on every
        # key's owners — placement is pure ring math, no shared state.
        backends = [("a", "127.0.0.1", 1), ("b", "127.0.0.1", 2),
                    ("c", "127.0.0.1", 3)]
        one = ClusterRouter(backends)
        two = ClusterRouter(list(reversed(backends)))
        for i in range(200):
            key = JobRequest("sim", {"app": f"k-{i}"}).cache_key
            assert one.ring.nodes_for(key, 2) == two.ring.nodes_for(key, 2)


class TestNodeLoss:
    def test_failover_answers_correctly_when_primary_dies(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                payload, key = cluster.payload_owned_by("n1")
                oracle = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                assert oracle["status"] == "ok"
                await cluster.wait_replicated(key)
                await cluster.settle()
                cluster.proxies["n1"].set_mode("down")
                survived = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                return oracle, survived, dict(cluster.router.counters)

        oracle, survived, counters = run(main())
        assert survived["status"] == "ok"
        assert survived["node"] != "n1"
        assert canonical_json(survived["metrics"]) == canonical_json(
            oracle["metrics"]
        )
        assert counters["backend_failures"] >= 1

    def test_rereplication_restores_r2_after_loss(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                payload, key = cluster.payload_owned_by("n0")
                response = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                assert response["status"] == "ok"
                holders = set(await cluster.wait_replicated(key))
                await cluster.settle()
                assert "n0" in holders
                await cluster.mark_down("n0")
                await cluster.settle()
                restored = set(cluster.router.journal.nodes_for(key))
                status = await cluster.router.status()
                return holders, restored, status, key, cluster.services

        holders, restored, status, key, services = run(main())
        assert "n0" not in restored
        assert len(restored) == 2
        survivor = next(iter(holders - {"n0"}))
        assert survivor in restored
        new_holder = next(iter(restored - holders))
        assert status["counters"]["rereplications"] == 1
        assert status["counters"]["nodes_lost"] == 1
        assert status["replicas"]["under_replicated"] == 0
        # The new holder's store really serves the shard, bit-identical.
        assert canonical_json(services[new_holder].store.get(key)) == (
            canonical_json(services[survivor].store.get(key))
        )

    def test_all_backends_down_sheds_with_retry_hint(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                for node in list(cluster.proxies):
                    await cluster.mark_down(node)
                await cluster.settle()
                response = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": {"app": "x"}}
                )
                return response, dict(cluster.router.counters)

        response, counters = run(main())
        assert response["status"] == "shed"
        assert response["reason"] == "no-backend"
        assert response["retry_after_s"] > 0
        assert counters["shed_no_backend"] == 1


class TestPartition:
    def test_blackhole_partition_is_bounded_and_correct(self, tmp_path):
        # A partitioned primary swallows bytes without erroring; the
        # per-call timeout converts the silence into failover.  The
        # request must still answer correctly, in bounded time.
        async def main():
            async with Cluster(
                tmp_path, call_timeout_s=0.6
            ) as cluster:
                payload, key = cluster.payload_owned_by("n2")
                oracle = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                await cluster.wait_replicated(key)
                await cluster.settle()
                cluster.proxies["n2"].set_mode("blackhole")
                started = time.monotonic()
                response = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                elapsed = time.monotonic() - started
                return oracle, response, elapsed, dict(
                    cluster.router.counters
                )

        oracle, response, elapsed, counters = run(main())
        assert response["status"] == "ok"
        assert response["node"] != "n2"
        assert canonical_json(response["metrics"]) == canonical_json(
            oracle["metrics"]
        )
        # Bounded unavailability: at most hedge-or-timeout on the dead
        # primary plus a healthy call, with comfortable slack for CI.
        assert elapsed < 5.0, elapsed
        # Either the hedge raced past the silent primary (and the stuck
        # call was cancelled) or the call timeout fired and failed over.
        assert counters["hedges"] >= 1 or counters["backend_failures"] >= 1


class TestSlowNode:
    def test_hedged_read_sidesteps_a_slow_primary(self, tmp_path):
        async def main():
            async with Cluster(tmp_path, nodes=2) as cluster:
                payload, key = cluster.payload_owned_by("n0")
                first = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                assert first["status"] == "ok"
                await cluster.wait_replicated(key)
                await cluster.settle()
                # Make only the primary holder slow: a dedicated
                # net.delay injector on its link, firing every call.
                schedule = FaultSchedule.parse(
                    ["net.delay:prob=1.0,extra=400,count=100"], seed=0
                )
                cluster.router.links["n0"].injector = schedule.injector()
                started = time.monotonic()
                hedged = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                elapsed = time.monotonic() - started
                return first, hedged, elapsed, dict(cluster.router.counters)

        first, hedged, elapsed, counters = run(main())
        assert hedged["status"] == "ok"
        assert hedged["node"] == "n1"  # the backup holder won the race
        assert canonical_json(hedged["metrics"]) == canonical_json(
            first["metrics"]
        )
        assert counters["hedges"] >= 1
        assert counters["hedge_wins"] >= 1
        # The answer arrived without waiting out the 400ms slow node.
        assert elapsed < 0.4, elapsed


class TestCorruptReplica:
    def test_corrupt_shard_is_quarantined_and_recomputed(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                payload, key = cluster.payload_owned_by("n0")
                oracle = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                holders = await cluster.wait_replicated(key)
                await cluster.settle()
                victim = holders[0]
                shard = cluster.services[victim].store.path_for(key)
                shard.write_text('{"metrics": {"cycles": 99999}}')
                # Force the read onto the corrupt holder only.
                for node in cluster.router.ring.nodes:
                    if node != victim:
                        cluster.router.health[node].up = False
                response = await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                stats = dict(cluster.services[victim].store.stats)
                return oracle, response, victim, stats

        oracle, response, victim, stats = run(main())
        # Zero wrong answers: the tampered shard is never served — it is
        # quarantined and the result recomputed, bit-identical.
        assert response["status"] == "ok"
        assert response["node"] == victim
        assert response["cached"] is False
        assert canonical_json(response["metrics"]) == canonical_json(
            oracle["metrics"]
        )
        assert stats["corrupt_quarantined"] == 1


class TestJournalResume:
    def test_replica_index_survives_router_restart(self, tmp_path):
        journal = tmp_path / "cluster.json"

        async def main():
            async with Cluster(
                tmp_path, journal_path=str(journal)
            ) as cluster:
                payload, key = cluster.payload_owned_by("n0")
                await cluster.router.submit(
                    {"op": "submit", "kind": "sim", "payload": payload}
                )
                holders = await cluster.wait_replicated(key)
                await cluster.settle()
                backends = [
                    (node, link.host, link.port)
                    for node, link in sorted(cluster.router.links.items())
                ]
                return key, holders, backends

        key, holders, backends = run(main())  # drain flushes the journal
        assert journal.exists()
        reborn = ClusterRouter(
            backends, journal_path=str(journal), resume=True
        )
        assert reborn.journal.resumed_keys >= 1
        assert reborn.journal.nodes_for(key) == tuple(sorted(holders))

    def test_resume_drops_nodes_outside_membership(self, tmp_path):
        journal = tmp_path / "cluster.json"
        journal.write_text(json.dumps({
            "version": 1,
            "membership": {},
            "replicas": {
                "deadbeef": {
                    "kind": "sim",
                    "payload": {"app": "x"},
                    "nodes": ["n0", "ghost"],
                },
            },
        }))
        router = ClusterRouter(
            [("n0", "127.0.0.1", 1), ("n1", "127.0.0.1", 2)],
            journal_path=str(journal), resume=True,
        )
        assert router.journal.nodes_for("deadbeef") == ("n0",)


    def test_missing_main_recovers_from_bak(self, tmp_path):
        journal = tmp_path / "cluster.json"
        writer = ClusterJournal(str(journal))
        writer.record("deadbeef", "sim", {"app": "x"}, ["n0", "n1"])
        writer.flush()
        # Crash window between the two renames: only the .bak survives.
        journal.rename(tmp_path / "cluster.json.bak")
        with pytest.warns(UserWarning, match="recovered cluster journal"):
            reloaded = ClusterJournal(str(journal), resume=True)
        assert reloaded.nodes_for("deadbeef") == ("n0", "n1")


class TestRouterProtocol:
    def test_front_tier_speaks_the_single_node_envelope(self, tmp_path):
        async def main():
            async with Cluster(tmp_path) as cluster:
                server = await asyncio.start_server(
                    lambda r, w: _handle_router_connection(
                        cluster.router, r, w
                    ),
                    "127.0.0.1", 0,
                )
                port = server.sockets[0].getsockname()[1]
                try:
                    async with ServiceClient("127.0.0.1", port) as client:
                        pong = await client.ping()
                        submit = await client.submit(
                            "sim", {"app": "proto"}
                        )
                        unknown = await client.call({"op": "gibberish"})
                        status = await client.status()
                finally:
                    server.close()
                    await server.wait_closed()
                return pong, submit, unknown, status

        pong, submit, unknown, status = run(main())
        assert pong["status"] == "ok" and pong["cluster"] is True
        assert submit["status"] == "ok"
        assert submit["node"] in ("n0", "n1", "n2")
        assert unknown["status"] == "error"
        assert "unknown router op" in unknown["error_message"]
        healthz = status["healthz"]
        assert healthz["cluster"] is True
        assert set(healthz["nodes"]) == {"n0", "n1", "n2"}
        for snap in healthz["nodes"].values():
            assert snap["up"] is True
            assert snap["breaker"]["state"] == "closed"
            assert snap["store_entries"] is not None

    def test_parse_backends_validation(self):
        from repro.errors import ConfigError
        parsed = parse_backends("a=127.0.0.1:1, 127.0.0.1:2")
        assert parsed == [("a", "127.0.0.1", 1), ("127.0.0.1:2",
                                                  "127.0.0.1", 2)]
        with pytest.raises(ConfigError):
            parse_backends("nonsense")
        with pytest.raises(ConfigError):
            parse_backends("a=h:1,a=h:2")
        with pytest.raises(ConfigError):
            parse_backends("")


# --------------------------------------------------------------------------
# Satellite: typed transport errors + idempotent client retry.


def _read_line(conn):
    data = b""
    while not data.endswith(b"\n"):
        chunk = conn.recv(4096)
        if not chunk:
            break
        data += chunk
    return data


class _ScriptedServer(threading.Thread):
    """Blocking-socket server running one scripted handler per accept."""

    def __init__(self, *handlers):
        super().__init__(daemon=True)
        self._handlers = list(handlers)
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self.start()

    def run(self):
        for handler in self._handlers:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            try:
                handler(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass
        self.join(timeout=5)


def _truncate_mid_line(conn):
    _read_line(conn)
    conn.sendall(b'{"id": 1, "status": "o')  # half-close mid-response


def _garbage_line(conn):
    _read_line(conn)
    conn.sendall(b"%% not json %%\n")


def _answer_ok(conn):
    message = json.loads(_read_line(conn))
    conn.sendall((json.dumps({
        "id": message["id"], "status": "ok", "cached": True,
        "metrics": {"cycles": 1000},
    }) + "\n").encode())


def _shed_then_close(conn):
    message = json.loads(_read_line(conn))
    conn.sendall((json.dumps({
        "id": message["id"], "status": "shed", "reason": "overload",
        "retry_after_s": 0.5,
    }) + "\n").encode())


class TestClientTransportErrors:
    def test_half_closed_socket_raises_typed_error_not_json_decode(self):
        server = _ScriptedServer(_truncate_mid_line)
        try:
            async def go():
                async with ServiceClient("127.0.0.1", server.port) as c:
                    await c.submit("sim", {"app": "x"})

            with pytest.raises(ServiceProtocolError) as info:
                run(go(), timeout=30)
        finally:
            server.close()
        assert "truncated by half-closed socket" in str(info.value)
        assert not isinstance(info.value, json.JSONDecodeError)

    def test_garbage_response_line_raises_typed_error(self):
        server = _ScriptedServer(_garbage_line)
        try:
            async def go():
                async with ServiceClient("127.0.0.1", server.port) as c:
                    await c.submit("sim", {"app": "x"})

            with pytest.raises(ServiceProtocolError) as info:
                run(go(), timeout=30)
        finally:
            server.close()
        assert "malformed response line" in str(info.value)

    def test_typed_error_is_pickle_safe_and_transient(self):
        import pickle
        from repro.errors import TransientError
        error = ServiceProtocolError("boom", host="h", port=1)
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, ServiceProtocolError)
        assert isinstance(clone, TransientError)
        assert str(clone) == str(error)

    def test_request_sync_retries_transport_failure_once(self):
        server = _ScriptedServer(_truncate_mid_line, _answer_ok)
        sleeps = []
        try:
            response = request_sync(
                "127.0.0.1", server.port, "sim", {"app": "x"},
                transport_retries=1, sleep=sleeps.append,
            )
        finally:
            server.close()
        assert response["status"] == "ok"
        assert len(sleeps) == 1

    def test_request_sync_without_retry_surfaces_typed_error(self):
        server = _ScriptedServer(_truncate_mid_line)
        try:
            with pytest.raises(ServiceProtocolError):
                request_sync(
                    "127.0.0.1", server.port, "sim", {"app": "x"},
                    transport_retries=0,
                )
        finally:
            server.close()

    def test_request_sync_honors_retry_after_hint_with_jitter(self):
        server = _ScriptedServer(_shed_then_close, _answer_ok)
        sleeps = []
        try:
            response = request_sync(
                "127.0.0.1", server.port, "sim", {"app": "x"},
                retries=1, sleep=sleeps.append,
            )
        finally:
            server.close()
        assert response["status"] == "ok"
        # Never sooner than the server asked (hint 0.5s beats jitter).
        assert sleeps and sleeps[0] >= 0.5


# --------------------------------------------------------------------------
# Real processes: CLI serve x3 + route, SIGKILL one backend mid-flood.


@pytest.mark.slow
class TestSubprocessCluster:
    """End-to-end over real processes and the real kernel."""

    def _spawn(self, tmp_path, tag, argv):
        ready = tmp_path / f"ready-{tag}"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", *argv,
             "--ready-file", str(ready)],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=REPO,
        )
        deadline = time.monotonic() + 60
        while not ready.exists() and time.monotonic() < deadline:
            assert proc.poll() is None, proc.stderr.read()
            time.sleep(0.05)
        host, port = ready.read_text().split()
        return proc, host, int(port)

    def test_sigkill_mid_flood_keeps_answers_correct(self, tmp_path):
        procs = []
        try:
            backends = []
            for i in range(3):
                proc, host, port = self._spawn(
                    tmp_path, f"b{i}",
                    ["serve", "--port", "0", "--workers", "1",
                     "--store", str(tmp_path / f"store-{i}"),
                     "--heartbeat-timeout", "30"],
                )
                procs.append(proc)
                backends.append(f"n{i}={host}:{port}")
            router_proc, rhost, rport = self._spawn(
                tmp_path, "router",
                ["route", "--port", "0",
                 "--backends", ",".join(backends),
                 "--journal", str(tmp_path / "cluster.json"),
                 "--ping-interval", "0.1", "--down-after", "2",
                 "--call-timeout", "30"],
            )
            procs.append(router_proc)

            payloads = [
                {"program": "spectre_v1", "model": "spectre",
                 "window": 16 + i}
                for i in range(6)
            ]
            first = {}
            for i, payload in enumerate(payloads):
                response = request_sync(
                    rhost, rport, "specflow", payload,
                    retries=3, transport_retries=2,
                )
                assert response["status"] in ("ok", "shed"), response
                if response["status"] == "ok":
                    first[i] = canonical_json(response["metrics"])
                if i == 2:
                    # Mid-flood: SIGKILL one backend, no goodbye.
                    procs[0].kill()
            assert first, "every request was shed"

            # Give the router's detector time to mark the node down and
            # re-replicate, then re-ask everything: answers must match.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                healthz = status_sync(rhost, rport).get("healthz", {})
                if not healthz.get("nodes", {}).get("n0", {}).get("up"):
                    break
                time.sleep(0.2)
            assert not healthz["nodes"]["n0"]["up"]
            for i, payload in enumerate(payloads):
                response = request_sync(
                    rhost, rport, "specflow", payload,
                    retries=3, transport_retries=2,
                )
                assert response["status"] == "ok", response
                if i in first:
                    assert canonical_json(response["metrics"]) == first[i]
            healthz = status_sync(rhost, rport).get("healthz", {})
            assert healthz["replicas"]["under_replicated"] == 0
            assert healthz["counters"]["requests"] >= 12
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.send_signal(signal.SIGTERM)
            for proc in procs:
                # communicate() would hang: a SIGKILLed backend's forked
                # pool worker inherits the pipes and keeps them open.
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        pass
                for stream in (proc.stdout, proc.stderr):
                    if stream is not None:
                        stream.close()
