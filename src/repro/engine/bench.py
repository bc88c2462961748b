"""The serving benchmark behind ``prime-ls serve-bench``.

Fires one workload of repeated ``(candidates, PF, τ)`` queries at a
fixed fleet Ω two ways and reports per-query latencies, the aggregate
speedup, and the engine's cache counters:

* **cold** — a stateless handler: each query materialises the fleet
  (fresh ``MovingObject`` instances, so MBRs really are recomputed)
  and calls ``select_location``, which rebuilds the object table and
  runs single-threaded — today's per-call behaviour,
* **warm** — the same queries through one primed
  :class:`~repro.engine.QueryEngine`, so the object table, candidate
  array, and PIN-VO pruning output all come from the session caches
  and only exact validation runs per query.

The warm engine can additionally run a chaos drill: ``faults`` arms a
:class:`~repro.engine.faults.FaultInjector` on the engine and
``deadline_seconds`` bounds every warm query, so the bench doubles as
a measurement of supervision overhead (CLI:
``prime-ls serve-bench --workers 4 --inject-fault crash:1``).  A query
cut off by its deadline is counted, its wall time recorded, and the
bench moves on — exactly how a serving deployment degrades.

Reused by ``benchmarks/bench_engine.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import select_location
from repro.datasets import gowalla_like
from repro.engine.admission import QueryShedError
from repro.engine.breaker import BreakerConfig
from repro.engine.faults import DeadlineExceeded, FaultInjector, FaultSpec
from repro.engine.session import QueryEngine, QueryRequest
from repro.experiments.tables import TextTable
from repro.model import MovingObject
from repro.prob import PowerLawPF

#: τ values the workload cycles through — three recurring "tenants"
TAUS = (0.5, 0.7, 0.8)


@dataclass
class ServeBenchResult:
    """Per-query cold/warm latencies plus engine cache counters."""

    algorithm: str
    workers: int
    n_objects: int
    n_candidates: int
    batch: bool = False
    #: the warm engine served with the approximate (sketch) tier armed
    approx: bool = False
    #: warm queries answered by the approximate tier
    approx_queries: int = 0
    #: influence sketches built (sketch-cache misses)
    sketch_builds: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    worker_failures: int = 0
    retries: int = 0
    degraded: int = 0
    deadline_exceeded: int = 0
    spans_dispatched: int = 0
    pool_respawns: int = 0
    #: admission budget the warm engine ran with (None = unbounded)
    max_inflight: int | None = None
    shed_policy: str = "reject"
    queries_shed: int = 0
    breaker_trips: int = 0
    cache_evictions: int = 0
    #: the tier the engine would serve the *next* query on at bench end
    final_tier: str = "serial"
    #: where span trees were written (None = tracing off)
    trace_path: str | None = None
    #: span trees the warm engine exported
    traces_exported: int = 0
    #: bound metrics-endpoint port (None = no endpoint)
    metrics_port: int | None = None
    query: list[int] = field(default_factory=list)
    tau: list[float] = field(default_factory=list)
    cold_ms: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)

    def speedup(self) -> float:
        """Total cold time over total warm time (> 1 means warm wins)."""
        warm = sum(self.warm_ms)
        return sum(self.cold_ms) / warm if warm else float("inf")

    def render(self) -> str:
        """The per-query latency table plus totals and cache counters."""
        table = TextTable(["query", "tau", "cold ms", "warm ms", "speedup"])
        for i in range(len(self.query)):
            ratio = (
                self.cold_ms[i] / self.warm_ms[i]
                if self.warm_ms[i]
                else float("inf")
            )
            table.add_row(
                [self.query[i], self.tau[i], self.cold_ms[i],
                 self.warm_ms[i], ratio],
                float_fmt="{:.2f}",
            )
        pooled = self.workers > 1
        mode = "pool" if pooled else "serial"
        if self.batch:
            mode += "+batch"
        lines = [
            table.render(
                title=(
                    f"serve-bench: {self.algorithm}, "
                    f"{self.n_objects} objects x {self.n_candidates} "
                    f"candidates, workers={self.workers}, mode={mode}"
                )
            ),
            (
                f"total: cold {sum(self.cold_ms):.1f} ms, "
                f"warm {sum(self.warm_ms):.1f} ms "
                f"(speedup {self.speedup():.2f}x)"
            ),
            (
                f"engine caches: {self.cache_hits} hits, "
                f"{self.cache_misses} misses"
            ),
            (
                f"supervision: {self.worker_failures} worker failures, "
                f"{self.retries} retries, {self.degraded} degraded, "
                f"{self.deadline_exceeded} deadline-exceeded"
            ),
        ]
        if pooled:
            lines.append(
                f"pool: {self.spans_dispatched} spans dispatched, "
                f"{self.pool_respawns} respawns"
            )
        # the shed/degradation summary the chaos drill greps for
        budget = (
            self.max_inflight
            if self.max_inflight is not None else "unbounded"
        )
        lines.append(
            f"overload: {self.queries_shed} queries shed "
            f"(policy {self.shed_policy}, max-inflight {budget}), "
            f"{self.breaker_trips} breaker trips, "
            f"{self.cache_evictions} cache evictions, "
            f"final tier {self.final_tier}"
        )
        if self.approx:
            # the approx chaos drill greps this line
            lines.append(
                f"approx: {self.approx_queries} queries answered "
                f"approximately, {self.sketch_builds} sketch build(s)"
            )
        if self.trace_path is not None or self.metrics_port is not None:
            parts = []
            if self.trace_path is not None:
                parts.append(
                    f"{self.traces_exported} trace(s) -> {self.trace_path}"
                )
            if self.metrics_port is not None:
                parts.append(
                    "metrics served at "
                    f"http://127.0.0.1:{self.metrics_port}/metrics"
                )
            lines.append("observability: " + ", ".join(parts))
        return "\n".join(lines)


def run_serve_bench(
    n_queries: int = 12,
    workers: int = 0,
    algorithm: str = "PIN-VO",
    scale: float = 0.1,
    seed: int = 11,
    metrics_path=None,
    deadline_seconds: float | None = None,
    faults: Sequence[FaultSpec] = (),
    batch: bool = False,
    distinct_candidates: bool | None = None,
    max_inflight: int | None = None,
    max_queue_depth: int | None = None,
    shed_policy: str = "reject",
    breaker_threshold: int | None = None,
    trace_path=None,
    metrics_port: int | None = None,
    approx: bool = False,
) -> ServeBenchResult:
    """Measure warm (engine) versus cold (stateless) query latency.

    The workload repeats ``TAUS`` across ``n_queries`` queries — the
    shape a serving deployment amortises.  The warm engine is primed
    with one unmeasured pass over the distinct τ values so the measured
    queries hit the table caches; the cold path rebuilds the fleet's
    per-object structures per query (see module docstring).

    ``workers > 1`` serves warm queries from the persistent
    shared-memory worker pool; ``batch`` admits all warm queries
    through one :meth:`QueryEngine.query_batch` round (each query's
    latency is then its share of the batch wall time).  Pool and batch
    runs default to a *distinct* candidate set per query
    (``distinct_candidates``): with one shared set every warm PIN-VO
    query is a pruning-cache hit that never dispatches a span, which
    would make dispatch-path comparisons meaningless.

    ``faults`` arms the warm engine's fault injector (the cold path
    stays fault-free, so the delta is pure supervision overhead), and
    ``deadline_seconds`` bounds every warm query — deadline overruns
    are counted, not raised.

    ``max_inflight``/``max_queue_depth``/``shed_policy`` arm the warm
    engine's admission control; a shed query (which only happens under
    ``batch`` admission rounds or an injected ``overload`` fault —
    sequential queries never exceed one in flight) is counted, its
    near-zero shed time recorded, and the bench moves on.
    ``breaker_threshold`` overrides the degradation ladder's
    consecutive-failure trip point.  The trailing ``overload:`` summary
    line reports queries shed, breaker trips, cache evictions, and the
    tier the engine would serve the next query on.

    ``trace_path`` turns on query tracing for the warm engine: every
    warm query's span tree is appended to that JSONL file (read it back
    with ``prime-ls trace-summary``).  ``metrics_port`` serves the warm
    engine's Prometheus page on ``http://127.0.0.1:PORT/metrics`` for
    the bench's duration (0 binds an ephemeral port; the bound port is
    reported on the result).  Both leave warm results bit-identical —
    they only observe.

    ``approx`` arms the warm engine's approximate tier
    (``QueryEngine(approx=True)``): queries that would be shed by
    admission control, or that find every exact tier's breaker open
    (the ``exact-down`` fault kind), are answered from the influence
    sketch instead — labelled, bounded, and counted on the trailing
    ``approx:`` summary line.
    """
    world = gowalla_like(scale=scale, seed=seed)
    objects = world.dataset.objects
    rng = np.random.default_rng(seed)
    if distinct_candidates is None:
        distinct_candidates = workers > 1 or batch
    if distinct_candidates:
        cand_sets = [
            world.dataset.sample_candidates(24, rng)[0]
            for _ in range(n_queries)
        ]
    else:
        shared, _ = world.dataset.sample_candidates(24, rng)
        cand_sets = [shared] * n_queries
    pf = PowerLawPF()
    taus = [TAUS[i % len(TAUS)] for i in range(n_queries)]

    result = ServeBenchResult(
        algorithm=algorithm,
        workers=workers,
        n_objects=len(objects),
        n_candidates=len(cand_sets[0]) if cand_sets else 0,
        batch=batch,
        approx=approx,
        max_inflight=max_inflight,
        shed_policy=shed_policy,
        trace_path=str(trace_path) if trace_path is not None else None,
    )

    for i, tau in enumerate(taus):
        started = time.perf_counter()
        fleet = [MovingObject(o.object_id, o.positions) for o in objects]
        select_location(
            fleet, cand_sets[i], pf=pf, tau=tau, algorithm=algorithm
        )
        result.cold_ms.append((time.perf_counter() - started) * 1000.0)
        result.query.append(i)
        result.tau.append(tau)

    injector = FaultInjector(list(faults)) if faults else None
    engine = QueryEngine(
        objects,
        workers=workers,
        metrics_path=metrics_path,
        fault_injector=injector,
        max_inflight=max_inflight,
        max_queue_depth=max_queue_depth,
        shed_policy=shed_policy,
        breaker=(
            BreakerConfig(failure_threshold=breaker_threshold)
            if breaker_threshold is not None else None
        ),
        trace_path=trace_path,
        approx=approx,
    )
    server = None
    if metrics_port is not None:
        from repro.engine.metrics import MetricsServer

        server = MetricsServer(engine.metrics, port=metrics_port)
        result.metrics_port = server.port
    try:
        for tau in TAUS:  # priming pass: populate the per-(pf, tau) caches
            engine.query(cand_sets[0], pf=pf, tau=tau, algorithm=algorithm)
        if batch:
            requests = [
                QueryRequest(cand_sets[i], pf, taus[i], algorithm)
                for i in range(n_queries)
            ]
            started = time.perf_counter()
            try:
                engine.query_batch(
                    requests, workers=workers,
                    deadline_seconds=deadline_seconds,
                )
            except DeadlineExceeded:
                pass  # counted in engine.stats.deadline_exceeded below
            total_ms = (time.perf_counter() - started) * 1000.0
            result.warm_ms.extend(
                [total_ms / max(1, n_queries)] * n_queries
            )
        else:
            for i, tau in enumerate(taus):
                started = time.perf_counter()
                try:
                    engine.query(
                        cand_sets[i], pf=pf, tau=tau,
                        algorithm=algorithm,
                        deadline_seconds=deadline_seconds,
                    )
                except (DeadlineExceeded, QueryShedError):
                    pass  # counted in engine.stats below
                result.warm_ms.append(
                    (time.perf_counter() - started) * 1000.0
                )

        result.cache_hits = engine.stats.hits
        result.cache_misses = engine.stats.misses
        result.worker_failures = engine.stats.worker_failures
        result.retries = engine.stats.retries
        result.degraded = engine.stats.degraded
        result.deadline_exceeded = engine.stats.deadline_exceeded
        result.spans_dispatched = engine.stats.spans_dispatched
        result.pool_respawns = engine.stats.pool_respawns
        result.queries_shed = engine.stats.queries_shed
        result.approx_queries = engine.stats.approx_queries
        result.sketch_builds = engine.stats.sketch_misses
        result.breaker_trips = engine.stats.breaker_trips
        result.cache_evictions = engine._total_evictions()
        result.final_tier = engine.health()["tier"]
        result.traces_exported = engine.tracer.exported
    finally:
        if server is not None:
            server.close()
        engine.close()
    return result
