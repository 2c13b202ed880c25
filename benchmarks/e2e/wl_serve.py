"""The two serving workloads: one HTTP server subprocess, used two ways.

Both are closed loops over two persistent connections.

``serve_warm_records`` — every request is a plan-cache hit (two vertex
numberings of each base query) that asks for its embeddings: Phases
(1)–(2) are skipped and id remap + ``to_dict`` + JSON encode of the
embeddings dominate the server's time.

``serve_cold_counts`` — the same server behind the cost-aware scheduler
with a plan cache of some forty plans, cycling over hundreds of
fingerprint-distinct count-only queries: every request misses, plans
cold at admission, ``put``s, evicts and crosses the admission queue,
while the ~470-byte response makes encode and remap nothing.  A gain for
warm, recorded traffic that costs cold, counted traffic shows here.

In a traced run the server pass is followed by an in-process *mirror* of
``MatchService.submit`` — the same public calls, one span each — because
the benchmark may not put spans inside the program yet; the cold
workload also climbs an open-loop rate ladder and probes the scheduler
and the process pool in-process.
"""

from __future__ import annotations

import json
from statistics import fmean

import numpy as np

from harness import (
    POOL_SEED, Measurement, Op, percentile, poisson_schedule, renumbered, rotated_passes,
    timed,
)
from phases import phase_metrics, phase_record
from serving import CONNECTIONS, ServerProcess, closed_loop, open_loop
from tracer import NullTracer

from repro import Matcher
from repro.api import make_enumerator
from repro.datasets import load_dataset, query_workload
from repro.graphs.canonical import canonical_form, relabel_graph
from repro.server import protocol
from repro.service import MatchRequest, MatchResponse, MatchService
from repro.service.scheduler import SchedulerConfig

TIME_LIMIT_S = 20.0
QUERY_SIZE = 8


def request_head(body: bytes) -> bytes:
    """The head ``http.client`` sends in front of ``body``."""
    return (
        b"POST /match HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
        b"Accept-Encoding: identity\r\nContent-Length: %d\r\n"
        b"Content-Type: application/json\r\n\r\n" % len(body)
    )


class ServeWorkload:
    """What the two serving workloads share."""

    name = ""
    DATASET = ""
    server_args: list[str] = []
    match_limit = 0
    record = False

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.server: ServerProcess | None = None
        self.graph = None  # the load generator's and the verifier's copy
        #: (golden key, query) per timed input, in send order.
        self.inputs: list[tuple] = []
        self.bodies: list[bytes] = []
        self.warmup_bodies: list[bytes] = []

    # -- inputs --------------------------------------------------------
    def generate(self, tracer) -> None:
        raise NotImplementedError

    def _pool(self, count: int, tracer) -> tuple:
        """Load the dataset; ``count`` queries of the pool."""
        with tracer.span("datasets.load"):
            self.graph = load_dataset(self.DATASET)
        with tracer.span("datasets.querygen"):
            return query_workload(
                self.DATASET, QUERY_SIZE, count=count, seed=POOL_SEED, data=self.graph
            ).all_queries

    def _body(self, query, match_limit: int | None = None, record: bool | None = None) -> bytes:
        request = MatchRequest(
            self.DATASET, query, time_limit=TIME_LIMIT_S,
            match_limit=self.match_limit if match_limit is None else match_limit,
            record_matches=self.record if record is None else record,
        )
        return json.dumps(request.to_dict()).encode()

    def _set_inputs(self, inputs: list[tuple]) -> None:
        order = np.random.default_rng([self.seed, 3]).permutation(len(inputs))
        self.inputs = [inputs[i] for i in order]
        self.bodies = [self._body(query) for _, query in self.inputs]

    # -- the server ----------------------------------------------------
    def setup(self, tracer=NullTracer()) -> None:
        if not self.bodies:
            self.generate(tracer)
        self.server = ServerProcess(self.server_args, self.name).start()
        warm = closed_loop(self.server.port, self.warmup_bodies, None, keep_bodies=False)
        refused = [x.status for x in warm if x.status != 200]
        if refused:
            raise RuntimeError(f"{self.name}: warm-up answered {refused[:5]}")

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.stop()

    def prepare(self) -> None:
        """Nothing to do between set-up and the clock."""

    def measure(self, one_pass: bool = False) -> Measurement:
        before = self.server.stats()
        exchanges = closed_loop(
            self.server.port, self.bodies, None if one_pass else self.seconds
        )
        rss = self.server.vm_hwm_mb()
        after = self.server.stats()
        # The clock has stopped: parse, then judge each op.
        (payloads, decode_s) = timed(
            lambda: {x.index: json.loads(x.body) for x in exchanges if x.body}
        )
        ops = []
        for x in exchanges:
            payload = payloads.get(x.index, {})
            ok = (
                x.status == 200 and "error" not in payload
                and not payload.get("timed_out", True)
            )
            ops.append(Op(
                x.index, x.due, 1e3 * (x.done - x.due), ok,
                payload.get("num_matches", 0), payload.get("num_enumerations", 0),
            ))
        measured = Measurement(
            ops=ops, peak_rss_mb=rss, callers=CONNECTIONS, records=exchanges
        )
        measured.layers = self._server_layers(exchanges, payloads, decode_s, before, after)
        return measured

    def gated(self, measured: Measurement, gauge) -> dict:
        """This workload's own entries of ``harness.GATED_BESIDE``: none."""
        return {}

    def _server_layers(self, exchanges, payloads, decode_s, before, after) -> dict:
        """What the client and the ``/stats`` delta show of the layers."""
        first = [x for x in exchanges if x.body and x.status == 200]
        cache = {
            key: after["cache"][key] - before["cache"][key]
            for key in ("hits", "misses", "evictions")
        }
        lookups = cache["hits"] + cache["misses"]
        responses = {
            int(code): count - before["server"]["responses"].get(code, 0)
            for code, count in after["server"]["responses"].items()
        }
        layers = {
            "cache.hits": cache["hits"],
            "cache.misses": cache["misses"],
            "cache.evictions": cache["evictions"],
            "cache.hit_share": cache["hits"] / lookups if lookups else 0.0,
            "cache.bytes": after["cache"]["bytes"],
            "server.response_bytes": fmean(len(x.body) for x in first),
            "server.overhead_ms": fmean(
                1e3 * (x.done - x.sent - payloads[x.index]["total_time"]) for x in first
            ),
            "server.http_429": responses.get(429, 0),
            "server.http_5xx": sum(n for code, n in responses.items() if code >= 500),
            "loadgen.client_decode_ms": 1e3 * decode_s / len(first),
        }
        scheduler = after.get("scheduler")
        if scheduler:
            layers.update({
                f"sched.{key}": scheduler[key] - before["scheduler"][key]
                for key in ("admitted", "rejected", "expired", "degraded")
            })
            layers["sched.queue_wait_ms"] = fmean(
                1e3 * payloads[x.index]["queue_time_s"] for x in first
            )
        return layers

    # -- the in-process mirror of MatchService.submit -------------------
    def mirror_op(self, service: MatchService, index: int, tracer):
        body = self.bodies[index]
        head = request_head(body)
        with tracer.span("op", index):
            with tracer.span("server.parse"):
                protocol.parse_head(head)
                request = MatchRequest.from_dict(json.loads(body))
            matcher = service.catalog.matcher(request.dataset, request.orderer)
            with tracer.span("canonical.form"):
                # A query over the search budget raises here and fails the
                # run: the mirror has no fallback path to time.
                cform = canonical_form(request.query)
            with tracer.span("api.plan"):
                plan, hit = matcher.plan_fingerprinted(cform.graph, cform.fingerprint)
            engine = make_enumerator(
                "iterative", match_limit=request.match_limit,
                time_limit=request.time_limit, record_matches=request.record_matches,
            )
            with tracer.span("api.execute"):
                outcome = matcher.execute(plan, enumerator=engine).enumeration
            with tracer.span("service.remap"):
                matches = tuple(cform.to_original(m) for m in outcome.matches)
            response = MatchResponse(
                dataset=request.dataset, fingerprint=cform.fingerprint, cache_hit=hit,
                order=tuple(cform.order[u] for u in plan.order),
                num_matches=outcome.num_matches,
                num_enumerations=outcome.num_enumerations,
                timed_out=outcome.timed_out, limit_reached=outcome.limit_reached,
                matches=matches, filter_time=plan.filter_time,
                order_time=plan.order_time, enum_time=outcome.elapsed, total_time=0.0,
            )
            with tracer.span("server.encode"):
                encoded = json.dumps(response.to_dict(), sort_keys=True).encode()
            with tracer.span("server.format"):
                protocol.format_response(200, encoded)
        return phase_record(plan, outcome, planned=not hit), hit

    def mirror_service(self) -> MatchService:
        raise NotImplementedError

    def mirror(self, tracer) -> dict:
        """Every timed request three ways, each on a service of its own:
        the real ``MatchService.submit``, the mirror untraced, the mirror
        traced."""
        requests = [MatchRequest.from_dict(json.loads(body)) for body in self.bodies]
        services = [self.mirror_service() for _ in range(3)]
        try:
            (_, submit_s), (_, plain_s), (outcomes, traced_s) = rotated_passes([
                lambda i: services[0].submit(requests[i]),
                lambda i: self.mirror_op(services[1], i, NullTracer()),
                lambda i: self.mirror_op(services[2], i, tracer),
            ], len(requests))
        finally:
            for service in services:
                service.close()
        spans = tracer.summary()
        records = [record for record, _ in outcomes]
        hits = sum(hit for _, hit in outcomes)
        layers = phase_metrics(records)
        submit_ms = 1e3 * fmean(submit_s)
        inside = sum(
            spans[name].mean_ms
            for name in ("canonical.form", "api.plan", "api.execute", "service.remap")
        )
        layers.update({
            "api.plan_ms": spans["api.plan"].mean_ms,
            "api.execute_ms": spans["api.execute"].mean_ms,
            "api.overhead_ms": spans["api.plan"].mean_ms + spans["api.execute"].mean_ms - (
                layers["filter.time_ms"] + layers["order.time_ms"] + layers["enum.time_ms"]
            ),
            "canonical.form_us": 1e3 * spans["canonical.form"].mean_ms,
            "canonical.fallbacks": 0.0,  # or mirror_op would have raised
            "cache.get_hit_us": (
                1e3 * spans["api.plan"].mean_ms if hits == len(records) else 0.0
            ),
            "service.submit_ms": submit_ms,
            "service.remap_ms": spans["service.remap"].mean_ms,
            "service.unattributed_ms": submit_ms - inside,
            "server.parse_ms": spans["server.parse"].mean_ms,
            "server.encode_ms": spans["server.encode"].mean_ms,
            "server.format_us": 1e3 * spans["server.format"].mean_ms,
            "trace.coverage_share": spans["op"].coverage,
            "trace.overhead_share": sum(traced_s) / sum(plain_s) - 1.0,
        })
        print(f"  mirror: op {spans['op'].mean_ms:.3f} ms, of which inside submit "
              f"{inside:.3f} ms against service.submit {submit_ms:.3f} ms")
        return layers

    def trace(self, tracer) -> Measurement:
        measured = self.measure(one_pass=True)
        extra = self.trace_extras()
        self.teardown()  # the mirror gets the cores to itself
        measured.layers.update(self.mirror(tracer))
        measured.layers.update(extra)
        client_ms = fmean(op.latency_ms for op in measured.ops)
        print(f"  client-observed {client_ms:.3f} ms per request, server overhead "
              f"(client - response total_time) {measured.layers['server.overhead_ms']:.3f} ms")
        return measured

    def trace_extras(self) -> dict:
        """Layer numbers that need the live server or a second service."""
        return {}

    # -- verification ----------------------------------------------------
    def golden_counts(self, measured: Measurement) -> dict:
        return {f"{self.DATASET}/Q{QUERY_SIZE}": {
            self.inputs[op.index][0]: op.num_matches for op in measured.first_pass()
        }}

    def verify(self, measured: Measurement, checker) -> None:
        checker.golden(self.name, self.golden_counts(measured))
        counts = {op.index: op.num_matches for op in measured.first_pass()}
        reference = Matcher(
            self.graph, filter="gql", orderer="ri",
            match_limit=self.match_limit, time_limit=TIME_LIMIT_S,
        )
        for index in checker.sample(len(self.inputs)):
            _, query = self.inputs[index]
            checker.equal(
                f"{self.name}[{index}] num_matches, server vs in-process Matcher",
                counts[index], reference.match(query).num_matches,
            )
            # Ask the live server for this query's first embeddings.
            body = self._body(query, checker.EMBEDDINGS_PER_OP, record=True)
            answers = closed_loop(self.server.port, [body], None)
            if answers[0].status != 200:
                checker.problems.append(f"{self.name}[{index}]: HTTP {answers[0].status}")
                continue
            checker.embeddings(
                f"{self.name}[{index}]", query, self.graph,
                json.loads(answers[0].body)["matches"],
            )


class ServeWarmRecords(ServeWorkload):
    name = "serve_warm_records"
    DATASET = "citeseer"
    server_args = ["--datasets", DATASET]
    match_limit = 2_000
    record = True
    #: Each base query is sent under ``RELABELINGS`` vertex numberings
    #: (the first is its own): 200 requests a pass, so ten lie beyond p95.
    BASES, SMOKE_BASES = 50, 4
    RELABELINGS = 4

    def generate(self, tracer) -> None:
        queries = self._pool(self.SMOKE_BASES if self.smoke else self.BASES, tracer)
        rng = np.random.default_rng([self.seed, 1])
        inputs, self.permutations = [], {}
        for base, query in enumerate(renumbered(queries, rng)):
            for copy in range(self.RELABELINGS):
                permutation = (
                    list(range(QUERY_SIZE)) if copy == 0
                    else [int(p) for p in rng.permutation(QUERY_SIZE)]
                )
                key = f"{base}.{copy}"
                self.permutations[key] = permutation
                inputs.append((key, relabel_graph(query, permutation)))
        self._set_inputs(inputs)
        # Warm-up is the cache fill: one numbering of every base.
        self.warmup_bodies = [
            body for (key, _), body in zip(self.inputs, self.bodies) if key.endswith(".0")
        ]

    def mirror_service(self) -> MatchService:
        service = MatchService(catalog=[self.DATASET])
        for body in self.bodies:  # fill the cache, as set-up does
            service.submit(MatchRequest.from_dict(json.loads(body)))
        return service

    def verify(self, measured: Measurement, checker) -> None:
        super().verify(measured, checker)
        by_key = {
            self.inputs[x.index][0]: json.loads(x.body) for x in measured.records if x.body
        }
        for key, answer in by_key.items():
            base = by_key[key.split(".")[0] + ".0"]
            checker.equal(
                f"{self.name} relabeling {key} num_matches",
                answer["num_matches"], base["num_matches"],
            )
            # A truncated result is a prefix of the canonical sequence;
            # two numberings of a symmetric query may carry it back through
            # different automorphisms, so only complete sets must coincide.
            if not base["limit_reached"]:
                checker.isomorph(
                    f"{self.name} relabeling {key}", base["matches"],
                    answer["matches"], self.permutations[key],
                )


class ServeColdCounts(ServeWorkload):
    name = "serve_cold_counts"
    CACHE_BYTES = 4 * 1024 * 1024
    DATASET = "yeast"
    server_args = [
        "--datasets", DATASET, "--scheduler", "--sched-workers", "2",
        "--cache-bytes", str(CACHE_BYTES),
    ]
    match_limit = 1_000
    #: Fingerprint-distinct queries (200 requests a pass, so ten lie
    #: beyond p95).  The cache holds some forty yeast plans, so cycling
    #: over them never finds one again: every request of every pass is a
    #: miss.
    QUERIES, SMOKE_QUERIES = 200, 48
    WARMUP = 8
    #: Traced runs send ``LADDER_STEP`` fresh cold queries open loop at
    #: each of these rates, for ``server.slo_max_rate_rps``.
    LADDER_RPS = (20.0, 40.0, 80.0)
    LADDER_STEP, SMOKE_LADDER_STEP = 100, 8
    SLO_P95_MS = 250.0

    def generate(self, tracer) -> None:
        timed_count = self.SMOKE_QUERIES if self.smoke else self.QUERIES
        step = self.SMOKE_LADDER_STEP if self.smoke else self.LADDER_STEP
        wanted = self.WARMUP + timed_count + step * len(self.LADDER_RPS)
        distinct: dict = {}
        for query in self._pool(2 * wanted, tracer):
            distinct.setdefault(canonical_form(query).fingerprint, query)
        if len(distinct) < wanted:
            raise RuntimeError(f"{self.name}: too few distinct {self.DATASET} queries")
        pool = renumbered(
            list(distinct.values())[:wanted], np.random.default_rng([self.seed, 1])
        )
        self.warmup_bodies = [self._body(query) for query in pool[: self.WARMUP]]
        first_extra = self.WARMUP + timed_count
        # A query keeps its golden key (its place in the pool) however
        # long the run is.
        self._set_inputs([(str(place), pool[place]) for place in range(self.WARMUP, first_extra)])
        self.ladder_bodies = [self._body(query) for query in pool[first_extra:]]

    def mirror_service(self) -> MatchService:
        return MatchService(catalog=[self.DATASET], cache_bytes=self.CACHE_BYTES)

    def trace_extras(self) -> dict:
        extras = self._rate_ladder()
        self.teardown()
        extras.update(self._scheduler_probes())
        return extras

    def _rate_ladder(self) -> dict:
        """Open loop: the highest ladder rate whose p95 (from due time)
        meets the limit with nothing failed and no backlog left growing,
        and how late the generator itself ran."""
        best, rng, bodies = 0.0, np.random.default_rng([self.seed, 2]), self.ladder_bodies
        lags: list[float] = []
        count = len(bodies) // len(self.LADDER_RPS)
        for rate in self.LADDER_RPS:
            step, bodies = bodies[:count], bodies[count:]
            exchanges, _ = open_loop(
                self.server.port, step, poisson_schedule(rate, count, rng)
            )
            p95 = percentile([1e3 * (x.done - x.due) for x in exchanges], 0.95)
            lag = [x.sent - x.due for x in exchanges]
            lags.extend(lag)
            half = len(lag) // 2
            growing = fmean(lag[half:]) > 2 * fmean(lag[:half]) + 0.05
            failed = any(x.status != 200 for x in exchanges)
            print(f"  ladder {rate:g} req/s: p95 {p95:.1f} ms, "
                  f"{'failed' if failed else 'backlog growing' if growing else 'ok'}")
            if p95 <= self.SLO_P95_MS and not growing and not failed:
                best = rate
        return {
            "server.slo_max_rate_rps": best,
            "loadgen.send_lag_p95_ms": 1e3 * percentile(lags, 0.95),
        }

    def _scheduler_probes(self) -> dict:
        """Admission and process-pool cost on warm requests, in-process:
        scheduled minus direct, and process executor minus thread."""
        requests = [
            MatchRequest.from_dict(json.loads(body)) for body in self.warmup_bodies
        ] * 4

        def mean_ms(call) -> float:
            return 1e3 * timed(lambda: [call(r) for r in requests])[1] / len(requests)

        def probe(config: SchedulerConfig) -> tuple[float, float, float]:
            service, boot_s = timed(
                MatchService, catalog=[self.DATASET], scheduler=config
            )
            try:
                _, first_s = timed(
                    lambda: [service.submit_scheduled(r).result() for r in requests[:2]]
                )
                for request in requests:
                    service.submit(request)
                direct = mean_ms(service.submit)
                scheduled = mean_ms(lambda r: service.submit_scheduled(r).result())
                return direct, scheduled, boot_s + first_s
            finally:
                service.close()

        direct, threaded, _ = probe(SchedulerConfig(workers=2))
        _, processed, spawn_s = probe(
            SchedulerConfig(workers=2, executor="process", process_workers=1)
        )
        return {
            "sched.admission_ms": threaded - direct,
            "procpool.roundtrip_ms": processed - threaded,
            "procpool.spawn_s": spawn_s,
        }
