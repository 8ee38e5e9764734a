"""The ``service-mixed`` workload: the analysis service over real TCP.

Each pass starts a fresh in-process ``serve()`` (empty result store, a
2-worker ``LeasePool``), connects two ``ServiceClient`` connections and
runs them as a closed loop: each connection sends its next request only
after the previous one answered, taking requests from one shared,
shuffled list.  The list holds short unique ``sim`` and
``specflow`` jobs, each repeated ``REPEATS`` times: a job's first request
is a cold miss (admission, lease, compute, store put) and its repeats are
hot hits (front end, envelope, verified store read).  A request that
races its own in-flight twin is coalesced onto that compute.

Correctness: every response must be ``ok``; every hot response must equal
the cold response for its key in canonical JSON; and every pass must
produce the same answers as the first.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import os
import random
import shutil
import time
from collections import namedtuple

from repro.service.client import ServiceClient
from repro.service.envelope import canonical_json
from repro.service.server import build_service, serve

from .common import WORK_DIR
from .tracer import component_sum

CONNECTIONS = 2
POOL_WORKERS = 2
REPEATS = 4
#: A request unanswered this long counts as failed, so a wedged service
#: ends the run with a result instead of hanging it.
REQUEST_TIMEOUT_S = 30.0

#: Unique jobs per pass: short simulations (300 instructions) ...
SIM_JOBS = (("hmmer", "Base"), ("mcf", "IS-Fu"))
SIM_INSTRUCTIONS = 300
#: ... and specflow analyses of attack PoCs (~0.2 ms of compute each, and
#: ~1 KB answers, so hot latencies form one mode and p50 sits inside it).
SPECFLOW_PROGRAMS = ("spectre_v1", "ssb", "meltdown_style", "hardened_masked",
                     "hardened_branchy", "hardened_warm_window")
SPECFLOW_MODELS = ("spectre", "futuristic")

Sample = namedtuple("Sample", "ms hot key answer ok")
ServicePass = namedtuple(
    "ServicePass", "wall_s setup_s loop_s samples hit_ratio shed retries"
)


#: The order of a pass is shuffled once with this constant, not with the
#: workload seed: with only a few long cold jobs per pass, where they fall
#: in the order sets how long one connection idles at the end, and that
#: must not differ from seed to seed.
ORDER_SEED = 20181020


def request_mix(seed):
    """The request list of one pass: ``[(kind, payload)]``.

    The seed picks each job's simulation seed or corpus seed, so its key
    and its answer; the job shapes and the shuffled order stay fixed so
    that runs with different seeds do comparable work.
    """
    rng = random.Random(seed)
    unique = [
        ("sim", {"suite": "spec", "app": app, "scheme": scheme,
                 "instructions": SIM_INSTRUCTIONS,
                 "seed": rng.randrange(1 << 20)})
        for app, scheme in SIM_JOBS
    ] + [
        ("specflow", {"program": program, "model": model, "window": 64,
                      "corpus_seed": rng.randrange(1 << 20)})
        for program in SPECFLOW_PROGRAMS
        for model in SPECFLOW_MODELS
    ]
    order = [job for job in range(len(unique)) for _ in range(REPEATS)]
    random.Random(ORDER_SEED).shuffle(order)
    return [unique[job] for job in order]


class _Frontend:
    """Benchmark-side hook around each client call (a no-op untraced)."""

    def request(self, index, client_id):
        return contextlib.nullcontext()


def _answer_digest(response):
    """SHA-256 of the answer's canonical JSON (kept instead of the text)."""
    body = canonical_json(response.get("metrics"))
    return hashlib.sha256(body.encode()).hexdigest()


async def _client_loop(index, client, mix, cursor, samples, frontend):
    client_id = f"c{index}"
    while cursor[0] < len(mix):
        kind, payload = mix[cursor[0]]
        cursor[0] += 1
        with frontend.request(index, client_id):
            started = time.perf_counter()
            try:
                response = await asyncio.wait_for(
                    client.submit(kind, payload, client=client_id),
                    REQUEST_TIMEOUT_S,
                )
            except asyncio.TimeoutError:
                response = {"status": "timeout"}
            elapsed = time.perf_counter() - started
        ok = response.get("status") == "ok"
        samples.append(Sample(
            ms=1000.0 * elapsed,
            hot=bool(response.get("cached")),
            key=response.get("key"),
            answer=_answer_digest(response) if ok else None,
            ok=ok,
        ))


async def _run_pass(mix, store_dir, frontend):
    started = time.perf_counter()
    service = build_service(store_dir, workers=POOL_WORKERS)
    ready = asyncio.get_event_loop().create_future()
    server = asyncio.ensure_future(serve(
        service, port=0, drain_timeout=10.0,
        ready_callback=lambda host, port: ready.set_result((host, port)),
    ))
    clients = []
    drained = False
    try:
        host, port = await ready
        for _ in range(CONNECTIONS):
            client = ServiceClient(host, port)
            await client.connect()
            clients.append(client)
        setup_s = time.perf_counter() - started
        samples, cursor = [], [0]
        loop_started = time.perf_counter()
        await asyncio.gather(*(
            _client_loop(i, client, mix, cursor, samples, frontend)
            for i, client in enumerate(clients)
        ))
        loop_s = time.perf_counter() - loop_started
        await clients[0].drain()
        drained = True
    finally:
        for client in clients:
            await client.close()
        if not drained:
            server.cancel()
        await asyncio.gather(server, return_exceptions=True)
    return ServicePass(
        wall_s=time.perf_counter() - started,
        setup_s=setup_s,
        loop_s=loop_s,
        samples=samples,
        hit_ratio=service.store.hit_rate(),
        shed=service.counters["shed"],
        retries=service.counters["retries"],
    )


def run_pass(seed, index, frontend=None):
    """One pass against a fresh service and store; returns ServicePass."""
    store_dir = os.path.join(WORK_DIR, f"store-{os.getpid()}-{index}")
    shutil.rmtree(store_dir, ignore_errors=True)
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(
            _run_pass(request_mix(seed), store_dir, frontend or _Frontend())
        )
    finally:
        loop.close()
        shutil.rmtree(store_dir, ignore_errors=True)


def check_answers(passes):
    """``(failed, mismatched keys)``: a request fails when it is not ``ok``
    or its answer differs from the first answer for its key (the first
    pass's cold response)."""
    reference = {}
    failed = 0
    mismatched = set()
    for service_pass in passes:
        for sample in service_pass.samples:
            if not sample.ok:
                failed += 1
            elif reference.setdefault(sample.key, sample.answer) != (
                sample.answer
            ):
                failed += 1
                mismatched.add(sample.key)
    return failed, sorted(mismatched)


def latency_summary(passes):
    """All-request, hot and cold latency samples (ms) over ``passes``."""
    every = [s.ms for p in passes for s in p.samples]
    hot = [s.ms for p in passes for s in p.samples if s.hot]
    cold = [s.ms for p in passes for s in p.samples if not s.hot]
    return every, hot, cold


# ------------------------------------------------------------------ traced


class TracedFrontend(_Frontend):
    """Service-layer spans for the traced run.

    Each client request is a root span ``service.frontend:round_trip`` on
    its connection's track.  The server handles the request in other
    asyncio tasks, so server-side spans find their parent through the
    request's client id: each connection of the closed loop has at most
    one request in flight.  The compute task that the scheduler spawns
    for a queued job inherits the job's ``service.server`` span through
    the context variable that the ``AdmissionQueue.take`` hook sets right
    before the scheduler creates that task.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.open_by_client = {}  # client id -> open round-trip span
        self.server_span = {}  # id(JobRequest) -> open submit span
        self.offered = {}  # id(job) -> admission time
        self.admission_wait_s = 0.0
        self.dispatch_s = 0.0

    def reset(self):
        self.admission_wait_s = 0.0
        self.dispatch_s = 0.0

    @contextlib.contextmanager
    def request(self, index, client_id):
        with self.tracer.span(
            "service.frontend:round_trip", track=index + 1
        ) as span:
            self.open_by_client[client_id] = span
            try:
                yield span
            finally:
                del self.open_by_client[client_id]

    def install(self):
        from repro.reliability.pool import LeasePool
        from repro.service import envelope
        from repro.service.admission import AdmissionQueue
        from repro.service.server import AnalysisService

        tracer, hooks = self.tracer, self
        JobRequest = envelope.JobRequest

        from_wire = JobRequest.__dict__["from_wire"].__func__

        def traced_from_wire(cls, message):
            parent = hooks.open_by_client.get(message.get("client"))
            with tracer.span("service.envelope:from_wire", parent=parent):
                return from_wire(cls, message)

        tracer.patch(JobRequest, "from_wire", classmethod(traced_from_wire))
        for attr in ("__init__", "build_spec"):
            tracer.patch_span(
                "repro.service.envelope", f"JobRequest.{attr}",
                f"service.envelope:{attr}",
            )
        tracer.patch_span("repro.service.envelope", "cache_key",
                          "service.envelope:cache_key")
        tracer.patch_span("repro.service.store", "ResultStore.get",
                          "service.store.get:get")
        tracer.patch_span("repro.service.store", "ResultStore.put",
                          "service.store.put:put")

        submit = AnalysisService.__dict__["submit"]

        async def traced_submit(service, request):
            parent = hooks.open_by_client.get(request.client_id)
            with tracer.span("service.server:submit", parent=parent) as span:
                hooks.server_span[id(request)] = span
                try:
                    return await submit(service, request)
                finally:
                    hooks.server_span.pop(id(request), None)

        tracer.patch(AnalysisService, "submit", traced_submit)

        offer = AdmissionQueue.__dict__["offer"]
        take = AdmissionQueue.__dict__["take"]

        def traced_offer(queue, job):
            hooks.offered[id(job)] = time.perf_counter()
            return offer(queue, job)

        def traced_take(queue):
            job = take(queue)
            if job is not None:
                offered = hooks.offered.pop(id(job), None)
                if offered is not None:
                    hooks.admission_wait_s += time.perf_counter() - offered
                # Deliberately not reset: the scheduler creates the
                # compute task for this job next, and the task copies
                # the current context.
                tracer.current.set(hooks.server_span.get(id(job.request)))
            return job

        tracer.patch(AdmissionQueue, "offer", traced_offer)
        tracer.patch(AdmissionQueue, "take", traced_take)

        lease = LeasePool.__dict__["submit"]

        def traced_lease(pool, *args, **kwargs):
            span = tracer.open("reliability.pool:lease")
            loop = asyncio.get_event_loop()
            future = lease(pool, *args, **kwargs)

            def finish(end, compute_s):
                tracer.close(span, end)
                hooks.dispatch_s += end - span.start - compute_s

            def done(done_future):
                # Runs on the pool's supervision thread, before the
                # awaiting coroutine's own callback: hand the close to the
                # event loop so all accounting stays on one thread.
                end = time.perf_counter()
                try:
                    compute_s = done_future.result().wall_ms / 1000.0
                except Exception:  # a crashed lease reports no compute
                    compute_s = 0.0
                try:
                    loop.call_soon_threadsafe(finish, end, compute_s)
                except RuntimeError:  # loop already closed at shutdown
                    pass

            future.add_done_callback(done)
            return future

        tracer.patch(LeasePool, "submit", traced_lease)


def layer_metrics(tracer, hooks, service_pass):
    """Per-layer metrics of one traced service pass."""
    self_s = tracer.self_s

    def comp(component):
        return component_sum(self_s, component)

    return {
        "service.frontend.self_s": comp("service.frontend"),
        "service.server.self_s": comp("service.server"),
        "service.envelope.self_s": comp("service.envelope"),
        "service.store.get.self_s": comp("service.store.get"),
        "service.store.put.self_s": comp("service.store.put"),
        "service.store.hit_ratio": service_pass.hit_ratio,
        "service.admission.wait_s": hooks.admission_wait_s,
        "service.pool.lease_s": component_sum(
            tracer.total_s, "reliability.pool"
        ),
        "service.pool.dispatch_s": hooks.dispatch_s,
        "service.shed": service_pass.shed,
        "service.retries": service_pass.retries,
    }
