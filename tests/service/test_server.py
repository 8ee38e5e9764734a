"""AnalysisService: cache, coalescing, retry policy, shedding, protocol.

No pytest-asyncio dependency: each test drives a fresh event loop.  Fake
runners reach fork-started pool workers the same way the supervisor
tests do (monkeypatched ``repro.runner.run_spec`` inherited at fork).
"""

import asyncio
import json
import time

import pytest

import repro.runner
from repro.errors import SimTimeoutError
from repro.reliability import LeasePool, RetryPolicy
from repro.service.client import ServiceClient
from repro.service.envelope import JobRequest, canonical_json
from repro.service.server import AnalysisService, ServiceJournal, serve
from repro.service.store import ResultStore
from repro.specflow.programs import all_programs


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


def _fake_ok(app, config, seed=0, **kwargs):
    return _FakeResult(seed)


def _slow_ok(app, config, seed=0, **kwargs):
    time.sleep(0.4)
    return _FakeResult(seed)


def _timeout_on_seed0(app, config, seed=0, **kwargs):
    if seed == 0:
        raise SimTimeoutError(0, "synthetic stall")
    return _FakeResult(seed)


def _boom(app, config, seed=0, **kwargs):
    raise ValueError("deterministic model bug")


def _service(tmp_path, workers=2, **kwargs):
    kwargs.setdefault("max_depth", 16)
    return AnalysisService(
        store=ResultStore(tmp_path / "cache"),
        pool=LeasePool(
            workers=workers, heartbeat_timeout=30.0, poll_interval=0.01
        ),
        **kwargs,
    )


def _sim(app="mcf", **payload):
    return JobRequest("sim", dict({"app": app}, **payload))


class TestCaching:
    def test_second_request_is_a_bit_identical_cache_hit(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)

        async def main():
            service = await _service(tmp_path).start()
            try:
                fresh = await service.submit(_sim())
                cached = await service.submit(_sim())
                return fresh, cached, service.healthz()
            finally:
                await service.drain(timeout=5)

        fresh, cached, health = run(main())
        assert (fresh["status"], fresh["cached"]) == ("ok", False)
        assert (cached["status"], cached["cached"]) == ("ok", True)
        # Bit-identity of the payload, not just equality.
        assert canonical_json(fresh["metrics"]) == canonical_json(
            cached["metrics"]
        )
        assert health["cache"]["hits"] == 1

    def test_concurrent_identical_requests_coalesce(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)

        async def main():
            service = await _service(tmp_path).start()
            try:
                responses = await asyncio.gather(
                    *(service.submit(_sim()) for _ in range(4))
                )
                return responses, service.healthz()
            finally:
                await service.drain(timeout=5)

        responses, health = run(main())
        assert all(r["status"] == "ok" for r in responses)
        metrics = {canonical_json(r["metrics"]) for r in responses}
        assert len(metrics) == 1
        # One compute, three waiters -- the pool saw a single lease.
        assert health["counters"]["coalesced"] == 3
        assert health["pool"]["stats"]["leases_completed"] == 1

    def test_nocache_bypasses_store_in_both_directions(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)

        async def main():
            service = await _service(tmp_path).start()
            try:
                first = await service.submit(
                    JobRequest("sim", {"app": "mcf"}, nocache=True)
                )
                second = await service.submit(
                    JobRequest("sim", {"app": "mcf"}, nocache=True)
                )
                return first, second, service.store.entry_count()
            finally:
                await service.drain(timeout=5)

        first, second, entries = run(main())
        assert first["cached"] is False and second["cached"] is False
        assert entries == 0

    def test_every_specflow_program_repeats_as_a_bit_identical_hit(
        self, tmp_path
    ):
        # Real compute over the whole specflow corpus: each (program,
        # model) job runs cold once, and its repeat must be a cache hit
        # whose metrics equal the cold answer bit for bit.
        payloads = [
            {"program": program.name, "model": model}
            for program in all_programs(seed=0)
            for model in ("spectre", "futuristic")
        ]

        async def main():
            service = await _service(tmp_path).start()
            try:
                cold = [
                    await service.submit(JobRequest("specflow", payload))
                    for payload in payloads
                ]
                hot = [
                    await service.submit(JobRequest("specflow", payload))
                    for payload in payloads
                ]
                return cold, hot
            finally:
                await service.drain(timeout=10)

        cold, hot = run(main())
        for first, repeat in zip(cold, hot):
            assert first["status"] == "ok", first
            assert repeat["status"] == "ok", repeat
            assert repeat["cached"] is True, repeat
            assert canonical_json(repeat["metrics"]) == canonical_json(
                first["metrics"]
            )


class TestFailurePolicy:
    def test_failed_requests_are_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _boom)

        async def main():
            service = await _service(tmp_path).start()
            try:
                first = await service.submit(_sim())
                second = await service.submit(_sim())
                return first, second, service.store.entry_count()
            finally:
                await service.drain(timeout=5)

        first, second, entries = run(main())
        assert first["status"] == "failed"
        assert first["error_class"] == "ValueError"
        assert second["status"] == "failed"  # recomputed, not served stale
        assert entries == 0

    def test_retryable_error_bumps_seed_and_succeeds(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _timeout_on_seed0)

        async def main():
            service = await _service(
                tmp_path, policy=RetryPolicy(max_attempts=3),
                backoff_base_s=0.01,
            ).start()
            try:
                return await service.submit(_sim()), service.healthz()
            finally:
                await service.drain(timeout=5)

        response, health = run(main())
        assert response["status"] == "ok"
        assert response["attempts"] == 2
        assert health["counters"]["retries"] == 1


class TestBackpressure:
    def test_overload_sheds_with_retry_hint(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)

        async def main():
            service = await _service(
                tmp_path, workers=1, max_depth=2
            ).start()
            try:
                return await asyncio.gather(
                    *(
                        service.submit(_sim(seed=i))
                        for i in range(8)
                    )
                )
            finally:
                await service.drain(timeout=10)

        responses = run(main())
        statuses = [r["status"] for r in responses]
        shed = [r for r in responses if r["status"] == "shed"]
        assert shed, f"overload must shed: {statuses}"
        assert all(s in ("ok", "shed") for s in statuses)
        for response in shed:
            assert response["reason"] == "queue-full"
            assert response["retry_after_s"] > 0

    def test_per_client_cap_protects_other_clients(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(repro.runner, "run_spec", _slow_ok)

        async def main():
            service = await _service(
                tmp_path, workers=1, max_depth=16, per_client_cap=2
            ).start()
            try:
                flood = [
                    service.submit(
                        JobRequest(
                            "sim", {"app": "mcf", "seed": i},
                            client_id="flood",
                        )
                    )
                    for i in range(6)
                ]
                await asyncio.sleep(0.05)
                solo = service.submit(
                    JobRequest("sim", {"app": "hmmer"}, client_id="solo")
                )
                return await asyncio.gather(solo, *flood)
            finally:
                await service.drain(timeout=10)

        responses = run(main())
        assert responses[0]["status"] == "ok"  # solo was never shed
        assert any(r["status"] == "shed" for r in responses[1:])


class TestProtocol:
    def test_tcp_round_trip_and_error_paths(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)

        async def main():
            service = _service(tmp_path)
            bound = {}
            server = asyncio.ensure_future(
                serve(
                    service, port=0,
                    ready_callback=lambda h, p: bound.update(h=h, p=p),
                )
            )
            while not bound:
                await asyncio.sleep(0.01)
            out = {}
            async with ServiceClient(bound["h"], bound["p"]) as client:
                out["ping"] = await client.ping()
                out["submit"] = await client.submit("sim", {"app": "mcf"})
                out["repeat"] = await client.submit("sim", {"app": "mcf"})
                out["bad_kind"] = await client.submit("nope", {})
                out["status"] = await client.status()

            # Raw connection: malformed JSON and unknown ops answer
            # with errors instead of wedging the connection.
            reader, writer = await asyncio.open_connection(
                bound["h"], bound["p"]
            )
            writer.write(b"this is not json\n")
            out["malformed"] = json.loads(await reader.readline())
            writer.write(b'{"op": "warp", "id": 9}\n')
            out["unknown_op"] = json.loads(await reader.readline())
            writer.write(b'{"op": "drain", "id": 10}\n')
            out["drain"] = json.loads(await reader.readline())
            writer.close()
            out["origin"] = await asyncio.wait_for(server, timeout=30)
            return out

        out = run(main())
        assert out["ping"]["pong"] is True
        assert out["submit"]["status"] == "ok"
        assert out["repeat"]["cached"] is True
        assert out["bad_kind"]["status"] == "error"
        assert out["bad_kind"]["error_class"] == "ConfigError"
        # bad_kind was rejected at parse time, before service.submit.
        assert out["status"]["healthz"]["counters"]["requests"] == 2
        assert out["malformed"]["status"] == "error"
        assert out["unknown_op"]["status"] == "error"
        assert out["drain"]["draining"] is True
        assert out["origin"] == "drain-op"

    def test_healthz_is_json_serializable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(repro.runner, "run_spec", _fake_ok)

        async def main():
            service = await _service(tmp_path).start()
            try:
                await service.submit(_sim())
                return service.healthz()
            finally:
                await service.drain(timeout=5)

        health = run(main())
        json.dumps(health)  # must not raise
        assert health["counters"]["completed"] == 1
        assert health["queue"]["total"] == 0
        assert len(health["pool"]["workers"]) == 2


class TestServiceJournal:
    def test_missing_main_recovers_from_bak(self, tmp_path):
        path = tmp_path / "journal.json"
        journal = ServiceJournal(path)
        request = JobRequest("sim", {"app": "mcf"})
        journal.add(request.cache_key, request)
        # Crash window between the two renames: only the .bak survives.
        path.rename(tmp_path / "journal.json.bak")
        with pytest.warns(UserWarning, match="recovered service journal"):
            reloaded = ServiceJournal(path)
        assert list(reloaded.pending()) == [request.cache_key]
