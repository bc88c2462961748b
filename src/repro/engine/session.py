"""The multi-query serving session (``QueryEngine``).

A deployment answers many ``(candidates, PF, τ)`` queries against one
fleet of moving objects Ω.  ``select_location`` rebuilds the whole
``A2D`` object table — per-object MBRs plus the ``minMaxRadius`` memo —
on every call; the engine ingests Ω once and amortises that work:

* **object-table cache** — one :class:`~repro.core.object_table.ObjectTable`
  (with its :class:`~repro.core.minmax_radius.MinMaxRadiusCache`) is
  memoised per ``(PF, τ)`` and reused by every query with that pair,
* **candidate cache** — candidate coordinate arrays, and the candidate
  R-tree when ``use_rtree=True``, are keyed by the coordinates and
  reused across queries sharing a candidate set,
* **pruning cache** — PIN-VO's pruning phase output (``minInf`` and
  the per-candidate verification sets) is a deterministic function of
  ``(PF, τ, candidate set)``, so it is memoised too; on a hit only the
  validation phase runs.  The cached *logical* work counters
  (``pairs_pruned_*``) are replayed into the query's instrumentation
  so pruned fractions stay meaningful, while the ``*_seconds`` fields
  keep reporting the time actually spent,
* **process parallelism** — ``workers=N`` (N > 1) shards the candidate
  axis across a persistent pool of N worker processes (see
  :mod:`repro.engine.pool`), bit-identical to serial execution; the
  engine holds those processes until :meth:`QueryEngine.close`,
* **observability** — hit/miss counters (:class:`EngineStats`), a
  per-query JSONL metrics log with per-phase
  ``pruning_seconds``/``validation_seconds``, and a :meth:`health`
  snapshot suitable for a readiness probe,
* **overload resilience** — an optional admission budget
  (``max_inflight``/``max_queue_depth``/``shed_policy``,
  :mod:`repro.engine.admission`) sheds excess queries with typed
  :class:`~repro.engine.admission.QueryShed` outcomes instead of
  letting latency grow without bound; a circuit-broken degradation
  ladder (:mod:`repro.engine.breaker`) walks repeated tier failures
  down pool → serial and self-heals; every cache is a bounded
  LRU (:mod:`repro.engine.cache`) with eviction counters, and the
  in-memory metrics record list is capped (``records_dropped``).

Every cache stays correct at any budget (a miss only recomputes), the
ladder is lossless (lower tiers compute the same answer), and results
are bit-identical to fresh ``select_location`` calls for every
algorithm (property-tested in ``tests/test_engine.py`` and, under
fault/overload schedules, ``tests/test_overload.py``).
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.base import candidates_to_array
from repro.core.naive import NaiveAlgorithm
from repro.core.object_table import ObjectTable, fleet_to_columnar
from repro.core.pinocchio import Pinocchio
from repro.core.pinocchio_vo import PinocchioVO
from repro.core.pruning import VerificationSets
from repro.core.result import Instrumentation, LSResult, full_table_result
from repro.core.sketch import (
    DEFAULT_SKETCH_DELTA,
    DEFAULT_SKETCH_K,
    DEFAULT_SKETCH_SEED,
    InfluenceSketch,
)
from repro.engine.admission import (
    AdmissionController,
    QueryShed,
    QueryShedError,
)
from repro.engine.breaker import BreakerConfig, DegradationLadder
from repro.engine.cache import CacheBudget, LRUCache
from repro.engine.faults import (
    DeadlineExceeded,
    FaultInjector,
    Supervisor,
    SupervisorPolicy,
)
from repro.engine.metrics import MetricsRegistry
from repro.engine.pool import (
    SpanTask,
    WorkerPool,
    column_spans,
    fork_available,
)
from repro.engine.trace import NOOP_SPAN, Tracer
from repro.index.rtree import RTree
from repro.model.candidate import Candidate
from repro.model.moving_object import MovingObject
from repro.prob import PowerLawPF
from repro.prob.base import ProbabilityFunction


@dataclass
class EngineStats:
    """Cache hit/miss counters proving cross-query reuse, plus the
    supervision counters proving fault tolerance."""

    queries: int = 0
    table_hits: int = 0
    table_misses: int = 0
    candidate_hits: int = 0
    candidate_misses: int = 0
    rtree_hits: int = 0
    rtree_misses: int = 0
    pruning_hits: int = 0
    pruning_misses: int = 0
    #: influence-sketch cache traffic (a miss is a sketch build)
    sketch_hits: int = 0
    sketch_misses: int = 0
    #: queries answered from the approximate tier (labelled, bounded)
    approx_queries: int = 0
    #: worker span dispatches that died or raised, across all queries
    worker_failures: int = 0
    #: span re-dispatches performed after worker failures
    retries: int = 0
    #: queries that fell back to in-parent serial execution
    degraded: int = 0
    #: queries cut off by their ``deadline_seconds``
    deadline_exceeded: int = 0
    #: span tasks handed to the persistent worker pool, including
    #: re-dispatches after failures
    spans_dispatched: int = 0
    #: pool workers killed and replaced (crashes and deadline kills)
    pool_respawns: int = 0
    #: queries refused by admission control (typed ``QueryShed``
    #: outcomes — each also emitted a JSONL record)
    queries_shed: int = 0
    #: circuit-breaker trips across the degradation ladder's tiers
    breaker_trips: int = 0
    #: in-memory metrics records dropped by the ``max_records`` cap
    #: (the JSONL file is append-only and unaffected)
    records_dropped: int = 0
    #: LRU evictions per cache (mirrored from the cache objects)
    table_evictions: int = 0
    candidate_evictions: int = 0
    rtree_evictions: int = 0
    pruning_evictions: int = 0
    sketch_evictions: int = 0
    #: admission size of every ``query_batch`` call, in call order
    batch_sizes: list[int] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return (
            self.table_hits + self.candidate_hits
            + self.rtree_hits + self.pruning_hits + self.sketch_hits
        )

    @property
    def misses(self) -> int:
        return (
            self.table_misses + self.candidate_misses
            + self.rtree_misses + self.pruning_misses
            + self.sketch_misses
        )

    def as_dict(self) -> dict:
        """All counters plus the aggregate ``hits``/``misses`` totals."""
        out = asdict(self)
        out["hits"] = self.hits
        out["misses"] = self.misses
        return out


def _counts_only(counters: Instrumentation) -> Instrumentation:
    """A copy of ``counters`` with the wall-time fields zeroed.

    Cached pruning output replays the *logical* work counters of the
    original run, but a cache hit must not claim the original run's
    seconds.
    """
    snapshot = replace(counters)
    snapshot.pruning_seconds = 0.0
    snapshot.validation_seconds = 0.0
    return snapshot


def _pf_key(pf: ProbabilityFunction) -> tuple:
    """A cache key identifying a probability function by its parameters.

    Parameterised PFs define ``__repr__`` exposing their parameters, so
    equal-parameter instances share cached tables.  For a PF without a
    custom repr the key falls back to object identity — safe because
    the cached :class:`ObjectTable` holds a reference to the PF, so its
    id cannot be recycled while the cache entry lives.
    """
    if type(pf).__repr__ is not object.__repr__:
        return (type(pf).__qualname__, repr(pf))
    return ("id", id(pf))


def _pruning_nbytes(value: tuple) -> int:
    """Bytes a cached pruning output holds (minInf + verification sets).

    Prices entries for the pruning cache's byte budget; the counter
    snapshot is a fixed-size dataclass and is ignored.
    """
    min_inf, vs_indexes, _snapshot = value
    return int(min_inf.nbytes) + vs_indexes.nbytes


@dataclass
class QueryRequest:
    """One query of a :meth:`QueryEngine.query_batch` admission round.

    ``pf=None`` resolves to the engine's default probability function,
    exactly like :meth:`QueryEngine.query`.
    """

    candidates: Sequence[Candidate]
    pf: ProbabilityFunction | None = None
    tau: float = 0.7
    algorithm: str = "PIN-VO"
    algorithm_kwargs: dict = field(default_factory=dict)
    #: admission priority (higher wins under the "by-priority" policy)
    priority: int = 0


@dataclass
class _BatchPlan:
    """Planning state for one request of a pooled batch."""

    request: QueryRequest
    solver: Any
    pf: ProbabilityFunction
    tau: float
    candidates: list
    cand_xy: np.ndarray
    query_id: int
    #: "vo" (pooled PIN-VO), "table" (pooled PIN/NA), or "serial"
    mode: str = "serial"
    table: ObjectTable | None = None
    #: for mode "vo": "dispatch" (this plan owns the pruning round) or
    #: "cached" (already memoised, or owned by an earlier batch member)
    pruning: str | None = None
    pruning_key: tuple | None = None
    tasks: list = field(default_factory=list)
    #: this request's span tree (NOOP_SPAN when tracing is off) and its
    #: child covering the shared pool dispatch round
    trace: Any = NOOP_SPAN
    dispatch_span: Any = NOOP_SPAN


class QueryEngine:
    """A serving session over one ingested fleet of moving objects.

    ::

        engine = QueryEngine(objects, workers=4, metrics_path="metrics.jsonl")
        r1 = engine.query(candidates, pf=pf, tau=0.7, algorithm="PIN")
        r2 = engine.query(candidates, pf=pf, tau=0.7)   # table + candidates cached
        engine.stats.table_hits                         # -> 1
    """

    #: algorithms whose candidate axis the engine can shard across
    #: worker processes (PIN-VO* inherits from PIN-VO)
    PARALLEL_ALGORITHMS = ("NA", "PIN", "PIN-VO", "PIN-VO*")

    #: algorithms the approximate tier can answer for — everything
    #: whose result is the per-candidate influence count that an
    #: :class:`~repro.core.sketch.InfluenceSketch` estimates
    APPROX_ALGORITHMS = ("NA", "PIN", "PIN-VO", "PIN-VO*")

    def __init__(
        self,
        objects: Sequence[MovingObject],
        *,
        workers: int = 0,
        pool: bool = True,
        metrics_path: str | Path | None = None,
        default_pf: ProbabilityFunction | None = None,
        fault_injector: FaultInjector | None = None,
        supervisor_policy: SupervisorPolicy | None = None,
        max_inflight: int | None = None,
        max_queue_depth: int | None = None,
        shed_policy: str = "reject",
        breaker: BreakerConfig | None = None,
        cache_budget: CacheBudget | None = None,
        trace_path: str | Path | None = None,
        tracing: bool | None = None,
        approx: bool = False,
        approx_k: int = DEFAULT_SKETCH_K,
        approx_delta: float = DEFAULT_SKETCH_DELTA,
        approx_seed: int = DEFAULT_SKETCH_SEED,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if not pool and workers > 1:
            # ``workers > 1`` always means the worker pool; the keyword
            # is kept for callers that pass ``pool=True`` explicitly
            raise ValueError(
                "workers > 1 always runs on the worker pool; pool=False "
                "needs workers <= 1"
            )
        if approx_k < 1:
            raise ValueError(f"approx_k must be >= 1, got {approx_k}")
        if not 0.0 < approx_delta < 1.0:
            raise ValueError(
                f"approx_delta must be in (0, 1), got {approx_delta}"
            )
        if max_inflight is None and max_queue_depth is not None:
            raise ValueError(
                "max_queue_depth requires max_inflight (admission "
                "control is off without an in-flight budget)"
            )
        started = time.perf_counter()
        self.objects = list(objects)
        if not self.objects:
            raise ValueError("need at least one moving object")
        # Ingest: force every object's lazy MBR memo now so no query
        # pays for it later.  Position arrays
        # are already materialised, read-only, on the objects.
        for obj in self.objects:
            _ = obj.mbr
        self.ingest_seconds = time.perf_counter() - started
        self.workers = int(workers)
        #: the persistent worker pool, started by the first parallel
        #: query (:mod:`repro.engine.pool`)
        self._pool: WorkerPool | None = None
        self._pool_lock = threading.Lock()
        #: fault hooks handed to every worker dispatch (testing/chaos
        #: drills only — leave ``None`` in production)
        self.fault_injector = fault_injector
        #: retry/backoff knobs the per-query supervisor obeys
        self.supervisor_policy = supervisor_policy or SupervisorPolicy()
        self.stats = EngineStats()
        self.metrics_path = Path(metrics_path) if metrics_path else None
        #: in-memory copy of every JSONL metrics record, in query order
        self.metrics_log: list[dict] = []
        self._default_pf = default_pf
        #: entry/byte budgets for every cache and the record log
        self.cache_budget = cache_budget or CacheBudget()
        budget = self.cache_budget
        self._tables: LRUCache = LRUCache(
            "tables", max_entries=budget.max_tables
        )
        self._cand_arrays: LRUCache = LRUCache(
            "candidate_sets", max_entries=budget.max_candidate_sets
        )
        self._rtrees: LRUCache = LRUCache(
            "rtrees", max_entries=budget.max_rtrees
        )
        #: (pf, tau, candidates, use_pruning) -> (minInf, VS, counter snapshot)
        self._prunings: LRUCache = LRUCache(
            "prunings",
            max_entries=budget.max_prunings,
            max_bytes=budget.max_pruning_bytes,
            sizeof=_pruning_nbytes,
        )
        #: the approximate tier: serve sketch-based estimates (labelled,
        #: with an advertised error bound) instead of shedding when
        #: admission overflows or every exact tier's breaker is open
        self.approx = bool(approx)
        self.approx_k = int(approx_k)
        self.approx_delta = float(approx_delta)
        self.approx_seed = int(approx_seed)
        #: (pf, tau) -> InfluenceSketch for the approximate tier
        self._sketches: LRUCache = LRUCache(
            "sketches",
            max_entries=budget.max_sketches,
            max_bytes=budget.max_sketch_bytes,
            sizeof=lambda sketch: sketch.nbytes,
        )
        #: admission control; ``None`` (the default) admits everything
        self.admission = (
            AdmissionController(
                max_inflight,
                max_queue_depth=max_queue_depth,
                policy=shed_policy,
            )
            if max_inflight is not None else None
        )
        #: the circuit-broken pool → serial(→ approx)
        #: degradation ladder; with ``approx=True`` serial gets a
        #: breaker too and the sketch tier becomes the floor
        self.ladder = DegradationLadder(
            breaker or BreakerConfig(), approx_floor=self.approx
        )
        #: per-query span trees (``trace_path``/``tracing`` arm it;
        #: disabled it hands out the zero-cost no-op span)
        self.tracer = Tracer(trace_path, enabled=tracing)
        #: Prometheus-exposable counters/gauges/histograms; rendered by
        #: :meth:`metrics_text` (see docs/observability.md for the
        #: catalog)
        self.metrics = MetricsRegistry()
        self._init_metrics()
        self._closed = False

    # ------------------------------------------------------------------
    # Caches
    # ------------------------------------------------------------------
    def table_for(self, pf: ProbabilityFunction, tau: float) -> ObjectTable:
        """The ``A2D`` table for ``(pf, τ)``, built once and memoised."""
        key = (_pf_key(pf), float(tau))
        table = self._tables.get(key)
        if table is None:
            self.stats.table_misses += 1
            table = ObjectTable(self.objects, pf, tau)
            self._tables[key] = table
        else:
            self.stats.table_hits += 1
        return table

    def _cand_xy_for(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """The ``(m, 2)`` coordinate array, shared by coordinate-equal sets."""
        xy = candidates_to_array(candidates)
        key = xy.tobytes()
        cached = self._cand_arrays.get(key)
        if cached is None:
            self.stats.candidate_misses += 1
            xy.setflags(write=False)
            self._cand_arrays[key] = xy
            return xy
        self.stats.candidate_hits += 1
        return cached

    def rtree_for(self, cand_xy: np.ndarray, max_entries: int) -> RTree:
        """A bulk-loaded candidate R-tree, memoised per candidate set."""
        key = (cand_xy.tobytes(), int(max_entries))
        rtree = self._rtrees.get(key)
        if rtree is None:
            self.stats.rtree_misses += 1
            rtree = RTree.bulk_load(cand_xy, max_entries=max_entries)
            self._rtrees[key] = rtree
        else:
            self.stats.rtree_hits += 1
        return rtree

    def sketch_for(
        self, pf: ProbabilityFunction, tau: float
    ) -> InfluenceSketch:
        """The influence sketch for ``(pf, τ)``, built once and memoised.

        Serves the approximate tier; the build reads the (cached)
        object table's columnar export, so a sketch miss may also
        count a table hit/miss.  Keyed by the sketch knobs too, so
        reconfigured engines never share stale samples.
        """
        key = (
            _pf_key(pf), float(tau), self.approx_k, self.approx_seed,
            self.approx_delta,
        )
        sketch = self._sketches.get(key)
        if sketch is None:
            self.stats.sketch_misses += 1
            sketch = InfluenceSketch.build(
                self.table_for(pf, tau),
                k=self.approx_k,
                seed=self.approx_seed,
                delta=self.approx_delta,
            )
            self._sketches[key] = sketch
        else:
            self.stats.sketch_hits += 1
        return sketch

    def cache_info(self) -> dict:
        """Sizes of the five caches plus the hit/miss counters.

        ``prunings`` is the PIN-VO pruning-output cache — the one cache
        warm PIN-VO traffic actually exercises, so operators need to
        see it grow (regression-tested in tests/test_engine.py).
        ``sketches`` only grows on approx-enabled engines.
        """
        self._sync_cache_stats()
        return {
            "tables": len(self._tables),
            "candidate_sets": len(self._cand_arrays),
            "rtrees": len(self._rtrees),
            "prunings": len(self._prunings),
            "sketches": len(self._sketches),
            **self.stats.as_dict(),
        }

    def _caches(self) -> tuple[LRUCache, ...]:
        return (
            self._tables, self._cand_arrays, self._rtrees,
            self._prunings, self._sketches,
        )

    def _sync_cache_stats(self) -> None:
        """Mirror each cache's lifetime eviction count into the stats."""
        self.stats.table_evictions = self._tables.evictions
        self.stats.candidate_evictions = self._cand_arrays.evictions
        self.stats.rtree_evictions = self._rtrees.evictions
        self.stats.pruning_evictions = self._prunings.evictions
        self.stats.sketch_evictions = self._sketches.evictions

    def _total_evictions(self) -> int:
        return sum(cache.evictions for cache in self._caches())

    def _shrink_caches(self) -> None:
        """Memory-pressure response: trim every cache to one entry."""
        for cache in self._caches():
            cache.trim(max_entries=1)
        self._sync_cache_stats()

    def health(self) -> dict:
        """A readiness-probe snapshot of the serving session.

        Reports the tier the *next* query would execute on (given the
        engine's configuration and current breaker states), every
        breaker's state, admission load, cache occupancy, and the
        record-log fill — everything an operator needs to see overload
        and degradation without parsing the JSONL stream.
        """
        candidates = self._tier_candidates()
        tier = self.ladder.select(candidates)
        if self._closed:
            status = "closed"
        elif tier != candidates[0]:
            status = "degraded"
        else:
            status = "ok"
        self._sync_cache_stats()
        return {
            "status": status,
            # degraded is still *ready*: a lower tier (down to the
            # approx floor on approx=True engines) answers every query.
            # Only a closed engine stops serving — /healthz keys its
            # 200-vs-503 decision off exactly this bit.
            "ready": not self._closed,
            "tier": tier,
            "breakers": self.ladder.snapshot(),
            "admission": (
                self.admission.snapshot()
                if self.admission is not None else None
            ),
            "caches": {
                cache.name: cache.occupancy() for cache in self._caches()
            },
            "records": {
                "kept": len(self.metrics_log),
                "dropped": self.stats.records_dropped,
                "max_records": self.cache_budget.max_records,
            },
            "queries": self.stats.queries,
            "queries_shed": self.stats.queries_shed,
            "breaker_trips": self.ladder.trips,
        }

    # ------------------------------------------------------------------
    # Prometheus metrics
    # ------------------------------------------------------------------
    #: breaker states as gauge values (closed < half-open < open)
    _BREAKER_STATES = {"closed": 0, "half-open": 1, "open": 2}

    def _init_metrics(self) -> None:
        """Register the engine's metric catalog (docs/observability.md).

        Counters the hot path must label per event (query totals,
        latency, phase seconds, sheds) are incremented directly at the
        accounting sites; everything a component already tracks
        (EngineStats fields, cache/breaker/admission/pool state) is
        mirrored via scrape-time callbacks so the hot path pays
        nothing and the two views can never drift.
        """
        reg = self.metrics
        self._m_queries = reg.counter(
            "pinls_queries_total",
            "Queries accounted by the engine, by algorithm, execution "
            "tier, and outcome.",
            labels=("algorithm", "tier", "status"),
        )
        self._m_latency = reg.histogram(
            "pinls_query_latency_seconds",
            "Wall time of completed queries.",
            labels=("algorithm", "tier"),
        )
        self._m_phase = reg.counter(
            "pinls_phase_seconds_total",
            "Cumulative seconds spent per execution phase.",
            labels=("phase",),
        )
        self._m_shed = reg.counter(
            "pinls_queries_shed_total",
            "Queries refused by admission control, by shed reason.",
            labels=("reason",),
        )
        self._m_approx = reg.counter(
            "pinls_approx_queries_total",
            "Queries answered by the approximate (sketch) tier, by the "
            "reason it was selected.",
            labels=("reason",),
        )
        self._m_approx_latency = reg.histogram(
            "pinls_approx_latency_seconds",
            "Wall time of queries answered by the approximate tier.",
            labels=("algorithm",),
        )
        self._m_approx_bound = reg.histogram(
            "pinls_approx_error_bound",
            "Advertised absolute error bound of approximate answers "
            "(objects).",
            buckets=(0.0, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
        )
        reg.counter(
            "pinls_sketch_builds_total",
            "Influence sketches built (sketch-cache misses).",
        ).set_function(lambda: self.stats.sketch_misses)
        for name, help_text, fn in (
            ("pinls_worker_failures_total",
             "Worker shard dispatches that died or raised.",
             lambda: self.stats.worker_failures),
            ("pinls_retries_total",
             "Shard re-dispatches after worker failures.",
             lambda: self.stats.retries),
            ("pinls_degraded_total",
             "Queries that fell back to in-parent serial execution.",
             lambda: self.stats.degraded),
            ("pinls_deadline_exceeded_total",
             "Queries cut off by their deadline.",
             lambda: self.stats.deadline_exceeded),
            ("pinls_spans_dispatched_total",
             "Span tasks handed to the persistent worker pool.",
             lambda: self.stats.spans_dispatched),
            ("pinls_pool_respawns_total",
             "Pool workers killed and replaced.",
             lambda: self.stats.pool_respawns),
            ("pinls_records_dropped_total",
             "In-memory metrics records dropped by the max_records cap.",
             lambda: self.stats.records_dropped),
            ("pinls_traces_exported_total",
             "Span trees exported by the tracer.",
             lambda: self.tracer.exported),
        ):
            reg.counter(name, help_text).set_function(fn)
        hits = reg.counter(
            "pinls_cache_hits_total",
            "Session-cache hits, per cache.", labels=("cache",),
        )
        misses = reg.counter(
            "pinls_cache_misses_total",
            "Session-cache misses, per cache.", labels=("cache",),
        )
        evictions = reg.counter(
            "pinls_cache_evictions_total",
            "LRU evictions, per cache.", labels=("cache",),
        )
        entries = reg.gauge(
            "pinls_cache_entries",
            "Entries currently cached, per cache.", labels=("cache",),
        )
        stats = self.stats
        for cache, hit_field, miss_field in (
            (self._tables, "table_hits", "table_misses"),
            (self._cand_arrays, "candidate_hits", "candidate_misses"),
            (self._rtrees, "rtree_hits", "rtree_misses"),
            (self._prunings, "pruning_hits", "pruning_misses"),
            (self._sketches, "sketch_hits", "sketch_misses"),
        ):
            hits.set_function(
                lambda f=hit_field: getattr(stats, f), cache=cache.name
            )
            misses.set_function(
                lambda f=miss_field: getattr(stats, f), cache=cache.name
            )
            evictions.set_function(
                lambda c=cache: c.evictions, cache=cache.name
            )
            entries.set_function(lambda c=cache: len(c), cache=cache.name)
        trips = reg.counter(
            "pinls_breaker_trips_total",
            "Circuit-breaker trips, per execution tier.",
            labels=("tier",),
        )
        state = reg.gauge(
            "pinls_breaker_state",
            "Breaker state per tier (0=closed, 1=half-open, 2=open).",
            labels=("tier",),
        )
        for tier, breaker in self.ladder.breakers.items():
            trips.set_function(lambda b=breaker: b.trips, tier=tier)
            state.set_function(
                lambda b=breaker: self._BREAKER_STATES.get(b.state, -1),
                tier=tier,
            )
        reg.gauge(
            "pinls_inflight_queries",
            "Queries currently holding an admission slot "
            "(0 when admission control is off).",
        ).set_function(
            lambda: (
                self.admission.inflight
                if self.admission is not None else 0
            )
        )
        reg.gauge(
            "pinls_pool_queue_depth",
            "Span tasks dispatched to pool workers and unanswered.",
        ).set_function(
            lambda: (
                self._pool.queue_depth()
                if self._pool is not None and not self._pool.closed
                else 0
            )
        )

    def metrics_text(self) -> str:
        """The engine's metrics in Prometheus text exposition format.

        The same page a :class:`~repro.engine.metrics.MetricsServer`
        bound to :attr:`metrics` serves at ``/metrics``
        (``serve-bench --metrics-port``).
        """
        return self.metrics.render()

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _pool_for(self, workers: int) -> WorkerPool:
        """The session's persistent pool, started on first pooled query."""
        with self._pool_lock:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(
                    max(2, self.workers, workers),
                    policy=self.supervisor_policy,
                )
            return self._pool

    def close(self) -> None:
        """Shut down the session: workers stopped and joined, every
        shared-memory segment unlinked, and the engine marked closed —
        ``query``/``query_batch`` raise :class:`RuntimeError` afterwards
        (a closed engine silently serving would hide lifecycle bugs).
        Idempotent: closing twice is a no-op.  A ``weakref.finalize``
        hook inside the pool performs the same segment teardown at
        garbage collection / interpreter exit, so segments never
        outlive the process even without an explicit ``close``.
        """
        with self._pool_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "QueryEngine is closed; build a new engine to serve "
                "further queries"
            )

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    @staticmethod
    def _poolable(pf: ProbabilityFunction) -> bool:
        """Whether ``pf`` can travel to pool workers (span messages are
        pickled); a query whose PF cannot runs on the serial tier."""
        try:
            pickle.dumps(pf)
        except Exception:
            return False
        return True

    def _pool_segment_key(self, kind: str, pf, tau: float) -> tuple:
        return (
            ("fleet",) if kind == "na"
            else ("table", _pf_key(pf), float(tau))
        )

    def _ensure_pool_segment(
        self, pool: WorkerPool, kind: str, pf, tau: float,
        table: ObjectTable | None,
    ) -> tuple:
        """Publish the table (or fleet) segment ``kind`` reads; returns
        its key.  One segment per ``(PF, τ)`` serves both PIN spans and
        PIN-VO pruning spans; NA reads the single radius-free fleet
        segment."""
        key = self._pool_segment_key(kind, pf, tau)
        if kind == "na":
            pool.ensure_segment(
                key, lambda: fleet_to_columnar(self.objects)
            )
        else:
            pool.ensure_segment(key, table.to_columnar, pf, tau)
        return key

    def _span_tasks(
        self,
        kind: str,
        segment_key: tuple,
        algorithm: str,
        algorithm_kwargs: dict,
        pf,
        tau: float,
        cand_xy: np.ndarray,
        shards: int,
        query_index: int,
        query_id: int | None,
        local_context,
        start_id: int = 0,
    ) -> list[SpanTask]:
        """Build the pool tasks for one query's candidate spans."""
        tasks = []
        for lo, hi in column_spans(cand_xy.shape[0], shards):
            tasks.append(SpanTask(
                task_id=start_id + len(tasks),
                query_index=query_index,
                segment_key=segment_key,
                kind=kind,
                algorithm=algorithm,
                algorithm_kwargs=dict(algorithm_kwargs),
                pf=pf,
                tau=float(tau),
                cand_slice=cand_xy[lo:hi],
                lo=lo,
                hi=hi,
                query_id=query_id,
                local_context=local_context,
            ))
        return tasks

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        candidates: Sequence[Candidate],
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        workers: int | None = None,
        deadline_seconds: float | None = None,
        priority: int = 0,
        tenant: str | None = None,
        **algorithm_kwargs,
    ) -> LSResult:
        """Answer one PRIME-LS query against the ingested fleet.

        Same semantics (and bit-identical results) as
        ``select_location(objects, candidates, pf, tau, algorithm)``,
        but per-object and per-candidate work is served from the
        session caches.  ``workers`` overrides the engine default for
        this query; with ``workers > 1`` the worker pool shards NA
        (vector kernel), PIN, and PIN-VO's pruning phase, and
        everything else — including a PF that cannot be pickled to the
        workers — runs serially.

        Pool execution is supervised: a worker span that crashes or
        raises is retried with bounded backoff (per the engine's
        :class:`~repro.engine.faults.SupervisorPolicy`) and, once
        retries are exhausted, re-run serially in the parent, so the
        query always returns the bit-identical answer.  Across queries,
        the pool's circuit breaker remembers those failures: once
        tripped it routes the next queries to serial until its recovery
        window admits a probe.  What happened is recorded in
        the result's :class:`~repro.core.result.Instrumentation`
        (``worker_failures``/``retries``/``degraded``), the engine's
        :class:`EngineStats`, and the JSONL metrics.

        ``deadline_seconds`` bounds the query's wall time: workers are
        hard-killed (and joined — no orphans) when the budget expires,
        serial sections check the budget at phase boundaries, and
        :class:`~repro.engine.faults.DeadlineExceeded` is raised.  A
        deadline overrun wins over retry/degradation: the engine never
        trades the latency bound for an answer.

        On an engine with admission control (``max_inflight`` set) the
        query first claims an admission slot; when the budget is full
        it is shed — a JSONL record is written and
        :class:`~repro.engine.admission.QueryShedError` raised, carrying
        the typed :class:`~repro.engine.admission.QueryShed` outcome.
        ``priority`` only matters to batch admission under the
        ``by-priority`` policy (single queries are admitted FIFO) but
        is recorded on the shed outcome either way.

        ``tenant`` tags the query's admission span (and shed outcome)
        with the multi-tenant front end's tenant name; the engine
        itself stays tenant-blind — per-tenant budgets are enforced by
        :class:`~repro.engine.admission.TenantAdmission` in
        :mod:`repro.engine.server` before the query reaches here.
        """
        self._check_open()
        candidates = list(candidates)
        trace = self.tracer.start("query", algorithm=algorithm)
        admission_span = trace.child("admission")
        if tenant is not None:
            admission_span.set(tenant=tenant)
        phantom = self._apply_parent_faults(self.stats.queries)
        if self.admission is None:
            admission_span.finish(admitted=True)
            return self._query_one(
                candidates, pf, tau, algorithm, workers,
                deadline_seconds, algorithm_kwargs, trace=trace,
            )
        if not self.admission.try_acquire(phantom=phantom):
            if self.approx and algorithm in self.APPROX_ALGORITHMS:
                # the approximate tier is the shed alternative: answer
                # from the sketch (without an admission slot — the
                # whole point is that the estimate is too cheap to
                # need one) instead of refusing the query
                admission_span.finish(admitted=False, approx=True)
                return self._query_one(
                    candidates, pf, tau, algorithm, workers,
                    deadline_seconds, algorithm_kwargs, trace=trace,
                    approx_reason="overload",
                )
            admission_span.finish(admitted=False)
            shed = self._shed(
                "queue-full", priority=priority, algorithm=algorithm,
                tau=tau, m=len(candidates), tenant=tenant,
            )
            raise QueryShedError(shed)
        admission_span.finish(admitted=True)
        try:
            return self._query_one(
                candidates, pf, tau, algorithm, workers,
                deadline_seconds, algorithm_kwargs, trace=trace,
            )
        finally:
            self.admission.release()

    def query_approx(
        self,
        candidates: Sequence[Candidate],
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        reason: str = "overload",
        tenant: str | None = None,
    ) -> LSResult:
        """Answer one query from the approximate (sketch) tier directly.

        The shed alternative an *external* admission layer can take:
        the HTTP front end calls this when a tenant's budget overflows
        on an approx-enabled engine, answering the over-budget request
        in O(k) per candidate with an advertised error bound instead
        of refusing it — the same routing engine-level admission takes
        internally.  No admission slot is consumed (the estimate is too
        cheap to need one).  Requires ``approx=True`` and an algorithm
        in :attr:`APPROX_ALGORITHMS`; the result is labelled
        (``quality="approx"`` unless the sketch is exhaustive) and
        accounted like every approximate answer (stats, JSONL record
        with ``approx_reason``, metrics, trace).
        """
        self._check_open()
        if not self.approx:
            raise RuntimeError(
                "query_approx needs an approx-enabled engine "
                "(QueryEngine(approx=True))"
            )
        if algorithm not in self.APPROX_ALGORITHMS:
            raise ValueError(
                f"the approximate tier cannot answer {algorithm!r}; "
                f"expected one of {', '.join(self.APPROX_ALGORITHMS)}"
            )
        trace = self.tracer.start("query", algorithm=algorithm)
        admission_span = trace.child("admission")
        if tenant is not None:
            admission_span.set(tenant=tenant)
        admission_span.finish(admitted=False, approx=True)
        return self._query_one(
            list(candidates), pf, tau, algorithm, None, None, {},
            trace=trace, approx_reason=reason,
        )

    def _query_one(
        self,
        candidates: list[Candidate],
        pf: ProbabilityFunction | None,
        tau: float,
        algorithm: str,
        workers: int | None,
        deadline_seconds: float | None,
        algorithm_kwargs: dict,
        trace=NOOP_SPAN,
        approx_reason: str | None = None,
    ) -> LSResult:
        """One admitted query: validate, execute on a tier, account.

        ``approx_reason`` forces the approximate tier (the admission
        paths pass ``"overload"``); ``None`` lets the degradation
        ladder pick, which selects "approx" only when every exact
        tier's breaker is open on an approx-enabled engine.
        """
        started = time.perf_counter()
        if pf is None:
            if self._default_pf is None:
                self._default_pf = PowerLawPF()
            pf = self._default_pf
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        if not candidates:
            raise ValueError("need at least one candidate location")
        workers = self.workers if workers is None else int(workers)

        supervisor = Supervisor(
            injector=self.fault_injector,
            query_id=self.stats.queries,
            deadline_seconds=deadline_seconds,
        )
        trace.set(query=self.stats.queries, tau=float(tau))
        evictions_before = self._total_evictions()
        try:
            result, workers_used, tier, approx_reason = self._execute(
                candidates, pf, tau, algorithm, workers, supervisor,
                algorithm_kwargs, trace=trace,
                approx_reason=approx_reason,
            )
        except DeadlineExceeded:
            # A deadline overrun is a latency-budget decision, not a
            # tier fault — except on an approx-enabled engine, where
            # repeated overruns *are* the signal that walks the ladder
            # onto the approximate floor (a tier that cannot answer in
            # budget is down for serving purposes).
            if self.approx:
                # re-deriving the selection is deterministic: breaker
                # states only moved through this same supervisor
                tier = self.ladder.select(self._tier_candidates(workers))
                if tier in self.ladder.breakers:
                    self.ladder.record(tier, ok=False)
                self.stats.breaker_trips = self.ladder.trips
            self._record_failure(
                pf, tau, len(candidates), algorithm, supervisor, started,
                trace=trace,
            )
            raise
        result.elapsed_seconds = time.perf_counter() - started

        report = supervisor.report
        # Shard failures already fed the tier's breaker one-by-one
        # inside the supervisor; recording them again here would double
        # count.  The query level only contributes the *success* signal
        # that resets the consecutive-failure streak / closes a probe.
        if report.worker_failures == 0 and not report.degraded:
            self.ladder.record(tier, ok=True)
        self.stats.breaker_trips = self.ladder.trips
        inst = result.instrumentation
        inst.worker_failures += report.worker_failures
        inst.retries += report.retries
        inst.degraded += int(report.degraded)
        inst.spans_dispatched += report.spans_dispatched
        inst.pool_respawns += report.respawns
        inst.cache_evictions += self._total_evictions() - evictions_before
        self._fold_report(report)
        self._sync_cache_stats()
        self.stats.queries += 1
        if tier == "approx":
            self.stats.approx_queries += 1
        self._record_metrics(
            result, pf, tau, len(candidates), workers_used,
            tier=tier, pooled=tier == "pool", trace=trace,
            approx_reason=approx_reason,
        )
        return result

    def _tier_candidates(self, workers: int | None = None) -> tuple[str, ...]:
        """The tiers the engine *could* execute on, fastest first."""
        workers = self.workers if workers is None else int(workers)
        tiers: list[str] = []
        if workers > 1 and fork_available():
            tiers.append("pool")
        tiers.append("serial")
        if self.approx:
            tiers.append("approx")
        return tuple(tiers)

    def _apply_parent_faults(self, query_id: int | None) -> int:
        """Consume parent-side faults; returns phantom admission load."""
        phantom = 0
        if self.fault_injector is None:
            return phantom
        for spec in self.fault_injector.parent_faults(query_id):
            if spec.kind == "overload":
                phantom = (
                    self.admission.capacity
                    if self.admission is not None else 0
                )
            elif spec.kind == "memory-pressure":
                self._shrink_caches()
            elif spec.kind == "exact-down":
                self.ladder.trip_exact_tiers()
                self.stats.breaker_trips = self.ladder.trips
        return phantom

    def _shed(
        self,
        reason: str,
        *,
        priority: int,
        algorithm: str,
        tau: float,
        m: int,
        batch_size: int = 1,
        tenant: str | None = None,
    ) -> QueryShed:
        """Account one shed query: id, counters, report, JSONL record."""
        query_id = self.stats.queries
        self.stats.queries += 1
        self.stats.queries_shed += 1
        shed = QueryShed(
            query_id=query_id,
            reason=reason,
            policy=self.admission.policy,
            priority=priority,
            algorithm=algorithm,
            tau=float(tau),
            candidates=m,
            tenant=tenant,
        )
        self.admission.report.note_shed(shed)
        # shed queries never executed, so they carry no span tree
        self._append_record({
            "schema": 2,
            "trace_id": None,
            "query": query_id,
            "algorithm": algorithm,
            "tau": float(tau),
            "pf": None,
            "candidates": m,
            "elapsed_seconds": 0.0,
            "shed": True,
            "shed_reason": reason,
            "shed_policy": self.admission.policy,
            "priority": priority,
            "tenant": tenant,
            "batch_size": batch_size,
            "best_candidate": None,
            "best_influence": None,
        })
        self._m_queries.inc(algorithm=algorithm, tier="none", status="shed")
        self._m_shed.inc(reason=reason)
        return shed

    def _fold_report(self, report) -> None:
        """Accumulate one supervision report into the session stats."""
        self.stats.worker_failures += report.worker_failures
        self.stats.retries += report.retries
        self.stats.degraded += int(report.degraded)
        self.stats.spans_dispatched += report.spans_dispatched
        self.stats.pool_respawns += report.respawns

    def _execute(
        self,
        candidates: list[Candidate],
        pf: ProbabilityFunction,
        tau: float,
        algorithm: str,
        workers: int,
        supervisor: Supervisor,
        algorithm_kwargs: dict,
        trace=NOOP_SPAN,
        approx_reason: str | None = None,
    ) -> tuple[LSResult, int, str, str | None]:
        """Resolve one query through the caches and (maybe) workers.

        Returns ``(result, workers_used, tier, approx_reason)``.  The
        execution tier is chosen by the degradation ladder: the fastest
        tier this query *could* use ("pool" needs ``workers > 1``, fork
        support and a picklable PF) whose circuit breaker currently
        admits queries.  The supervisor is wired to that tier's breaker
        so in-query span failures feed it and retries stop the moment
        it trips.  On an approx-enabled engine the ladder bottoms out
        at the sketch tier instead of serial when every exact breaker
        is open; a non-``None`` ``approx_reason`` short-circuits
        straight to it.
        """
        # Deferred to dodge the repro <-> repro.engine import cycle:
        # the package re-exports QueryEngine from its __init__.
        from repro import make_algorithm

        plan_span = trace.child("plan")
        if approx_reason is not None:
            plan_span.finish(tier="approx")
            trace.set(tier="approx")
            cand_xy = self._cand_xy_for(candidates)
            result = self._run_approx(
                candidates, cand_xy, pf, tau, algorithm, trace=trace,
            )
            return result, 1, "approx", approx_reason
        solver = make_algorithm(algorithm, **algorithm_kwargs)
        solver.rtree_factory = self.rtree_for
        cand_xy = self._cand_xy_for(candidates)

        uses_table = isinstance(solver, (Pinocchio, PinocchioVO))
        table = self.table_for(pf, tau) if uses_table else None
        available: list[str] = []
        if workers > 1 and fork_available() and self._poolable(pf):
            available.append("pool")
        available.append("serial")
        if self.approx and algorithm in self.APPROX_ALGORITHMS:
            available.append("approx")
        tier = self.ladder.select(tuple(available))
        supervisor.breaker = self.ladder.breakers.get(tier)
        pooled = tier == "pool"
        plan_span.finish(tier=tier)
        trace.set(tier=tier)

        if tier == "approx":
            result = self._run_approx(
                candidates, cand_xy, pf, tau, algorithm, trace=trace,
            )
            return result, 1, "approx", "breakers"

        if isinstance(solver, PinocchioVO):
            result = self._query_vo(
                solver, table, candidates, cand_xy, pf, tau,
                workers, supervisor, pooled=pooled, algorithm=algorithm,
                algorithm_kwargs=algorithm_kwargs, trace=trace,
            )
            return result, workers if pooled else 1, tier, None

        kind = None
        if pooled:
            if isinstance(solver, Pinocchio):
                kind = "pin"
            elif (
                isinstance(solver, NaiveAlgorithm)
                and solver.kernel == "vector"
            ):
                kind = "na"
        if kind is not None:
            result = self._run_pooled(
                solver, kind, table, candidates, cand_xy, pf, tau,
                workers, supervisor, algorithm, algorithm_kwargs,
                trace=trace,
            )
            return result, workers, "pool", None
        supervisor.check_deadline()
        if table is not None:
            solver.table_factory = lambda _objects, _pf, _tau: table
        with trace.child("dispatch", mode="serial"):
            result = solver.select(self.objects, candidates, pf, tau)
        return result, 1, "serial", None

    def _query_vo(
        self,
        solver: PinocchioVO,
        table: ObjectTable,
        candidates: list[Candidate],
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        workers: int,
        supervisor: Supervisor,
        pooled: bool = False,
        algorithm: str = "PIN-VO",
        algorithm_kwargs: dict | None = None,
        trace=NOOP_SPAN,
    ) -> LSResult:
        """PIN-VO through the pruning cache, then sequential validation.

        The pruning output is a pure function of the object table and
        the candidate coordinates, so a hit replays the memoised
        ``minInf``/``VS`` (and their logical work counters) and goes
        straight to Strategy-1/2 validation.  On a miss the pruning
        phase runs — sharded across the pool when ``pooled`` — and its
        output is stored pristine (validation mutates ``minInf``, so
        both store and hit hand out copies).  The deadline is checked
        again between the phases: validation is sequential and cannot
        be killed, so it only starts while budget remains.
        """
        m = cand_xy.shape[0]
        counters = Instrumentation()
        counters.dead_objects = table.dead_objects
        counters.pairs_total = table.live_count * m
        key = (
            _pf_key(pf), float(tau), cand_xy.tobytes(), solver.use_pruning
        )
        prune_span = trace.child("prune")
        cached = self._prunings.get(key)
        if cached is None:
            self.stats.pruning_misses += 1
            prune_counters = Instrumentation()
            if pooled:
                min_inf, vs_indexes = self._pooled_vo_pruning(
                    table, cand_xy, pf, tau, workers, supervisor,
                    algorithm, algorithm_kwargs or {}, prune_counters,
                    prune_span=prune_span,
                )
            else:
                supervisor.check_deadline()
                with prune_counters.phase("pruning"):
                    min_inf, vs_indexes = solver.pruning_phase(
                        table, cand_xy, prune_counters
                    )
            self._prunings[key] = (
                min_inf.copy(), vs_indexes.packed(),
                _counts_only(prune_counters),
            )
            counters.merge(prune_counters)
            prune_span.finish(cached=False)
        else:
            self.stats.pruning_hits += 1
            base_min_inf, vs_indexes, snapshot = cached
            min_inf = base_min_inf.copy()
            counters.merge(snapshot)
            prune_span.finish(cached=True)
        supervisor.check_deadline()
        with trace.child("validate"):
            return solver.validation_phase(
                table, candidates, cand_xy, pf, tau, counters, min_inf,
                vs_indexes,
            )

    def _run_approx(
        self,
        candidates: list[Candidate],
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        algorithm: str,
        trace=NOOP_SPAN,
    ) -> LSResult:
        """Answer one query from the influence sketch (the approx tier).

        O(k) work per candidate instead of O(total positions): the
        (cached) sketch's sample runs the exact IA/NIB + Strategy-2
        kernels and the hit counts are scaled to population estimates.
        The result is labelled (``quality="approx"``) and carries the
        sketch's advertised error bound for this query's candidate
        count; its influence table holds the rounded estimates.
        """
        m = cand_xy.shape[0]
        builds_before = self.stats.sketch_misses
        sketch_started = time.perf_counter()
        with trace.child("sketch") as sketch_span:
            sketch = self.sketch_for(pf, tau)
            sketch_span.set(
                k=sketch.k,
                population=sketch.population,
                exact=sketch.exact,
                cached=self.stats.sketch_misses == builds_before,
            )
        sketch_seconds = time.perf_counter() - sketch_started
        counters = Instrumentation()
        counters.pairs_total = sketch.population * m
        bound = sketch.error_bound(m)
        estimate_started = time.perf_counter()
        with trace.child("estimate") as estimate_span:
            estimates = sketch.estimate_many(cand_xy, counters)
            estimate_span.set(bound=bound, sample_size=sketch.k)
        estimate_seconds = time.perf_counter() - estimate_started
        if sketch_seconds:
            self._m_phase.inc(sketch_seconds, phase="sketch")
        if estimate_seconds:
            self._m_phase.inc(estimate_seconds, phase="estimate")
        influence = np.rint(estimates).astype(np.int64)
        result = full_table_result(algorithm, candidates, influence, counters)
        result.quality = "exact" if sketch.exact else "approx"
        result.error_bound = float(bound)
        return result

    def _run_pooled(
        self,
        solver,
        kind: str,
        table: ObjectTable | None,
        candidates: list[Candidate],
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        workers: int,
        supervisor: Supervisor,
        algorithm: str,
        algorithm_kwargs: dict,
        trace=NOOP_SPAN,
    ) -> LSResult:
        """Full-table execution (NA/PIN) through the persistent pool."""
        m = cand_xy.shape[0]
        counters = Instrumentation()
        if table is not None:
            counters.dead_objects = table.dead_objects
            counters.pairs_total = table.live_count * m
        else:
            counters.pairs_total = len(self.objects) * m
        pool = self._pool_for(workers)
        key = self._ensure_pool_segment(pool, kind, pf, tau, table)
        local = table if table is not None else self.objects
        tasks = self._span_tasks(
            kind, key, algorithm, algorithm_kwargs, pf, tau, cand_xy,
            workers, 0, supervisor.query_id, local,
        )
        with trace.child("dispatch", mode="pool") as dispatch_span:
            outputs = pool.run_batch(tasks, supervisor)
        influence = np.zeros(m, dtype=int)
        with trace.child("merge"):
            for task in tasks:
                payload, span_counters, record = outputs[task.task_id]
                influence[task.lo:task.hi] = payload
                counters.merge(span_counters)
                dispatch_span.attach(record)
        return full_table_result(solver.name, candidates, influence, counters)

    def _pooled_vo_pruning(
        self,
        table: ObjectTable,
        cand_xy: np.ndarray,
        pf: ProbabilityFunction,
        tau: float,
        workers: int,
        supervisor: Supervisor,
        algorithm: str,
        algorithm_kwargs: dict,
        prune_counters: Instrumentation,
        prune_span=NOOP_SPAN,
    ) -> tuple[np.ndarray, VerificationSets]:
        """PIN-VO's pruning phase through the persistent pool."""
        m = cand_xy.shape[0]
        pool = self._pool_for(workers)
        key = self._ensure_pool_segment(pool, "vo_prune", pf, tau, table)
        tasks = self._span_tasks(
            "vo_prune", key, algorithm, algorithm_kwargs, pf, tau,
            cand_xy, workers, 0, supervisor.query_id, table,
        )
        outputs = pool.run_batch(tasks, supervisor)
        min_inf = np.zeros(m, dtype=int)
        parts = []
        for task in tasks:
            (mi, vs), span_counters, record = outputs[task.task_id]
            min_inf[task.lo:task.hi] = mi
            parts.append(vs)
            prune_counters.merge(span_counters)
            prune_span.attach(record)
        return min_inf, VerificationSets.concat(parts)

    # ------------------------------------------------------------------
    # Batched admission
    # ------------------------------------------------------------------
    def query_batch(
        self,
        requests: "Sequence[QueryRequest | Sequence[Candidate]]",
        *,
        pf: ProbabilityFunction | None = None,
        tau: float = 0.7,
        algorithm: str = "PIN-VO",
        workers: int | None = None,
        deadline_seconds: float | None = None,
        priority: int = 0,
        **algorithm_kwargs,
    ) -> "list[LSResult | QueryShed]":
        """Answer several queries in one coalesced admission round.

        ``requests`` holds :class:`QueryRequest` objects or plain
        candidate sequences (wrapped with the call-level ``pf``/
        ``tau``/``algorithm``/``priority`` defaults).  Results come
        back in request order and are bit-identical to issuing the same
        ``query`` calls sequentially — including cache effects:
        requests are planned in order, so a later request repeating an
        earlier one's PIN-VO pruning key counts as a pruning hit and
        reuses its output.

        On an engine with admission control the round is bounded: at
        most ``max_inflight + max_queue_depth`` requests are admitted
        and the rest are shed per the engine's ``shed_policy``
        (``reject`` keeps the oldest, ``oldest`` keeps the freshest,
        ``by-priority`` keeps the highest :attr:`QueryRequest.priority`).
        A shed request's slot in the returned list holds its typed
        :class:`~repro.engine.admission.QueryShed` outcome instead of
        an :class:`~repro.core.result.LSResult`, and a JSONL record is
        written for it — nothing is dropped silently.

        With ``workers > 1`` every shardable span of every admitted
        request is dispatched to the persistent pool in a *single*
        round, so workers stream spans back-to-back instead of idling
        between queries; the sequential PIN-VO validations then run in
        the parent in request order.  A tripped pool breaker routes the round to the
        sequential tier-selected path instead.  Otherwise the batch
        degenerates to a sequential loop of per-query execution
        (batching only buys throughput when there is a pool to keep
        busy).

        ``deadline_seconds`` bounds the *whole batch*: on overrun every
        busy pool worker is killed, respawned and joined, a failure
        record is written for each request that produced no result, and
        :class:`~repro.engine.faults.DeadlineExceeded` is raised.
        """
        self._check_open()
        reqs: list[QueryRequest] = []
        for entry in requests:
            if isinstance(entry, QueryRequest):
                reqs.append(entry)
            else:
                reqs.append(QueryRequest(
                    list(entry), pf, tau, algorithm,
                    dict(algorithm_kwargs), priority,
                ))
        if not reqs:
            raise ValueError("need at least one request in the batch")
        workers = self.workers if workers is None else int(workers)
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {deadline_seconds}"
            )
        self.stats.batch_sizes.append(len(reqs))

        phantom = self._apply_parent_faults(None)
        if self.admission is not None:
            admitted_idx, shed_pairs = self.admission.admit_batch(
                [r.priority for r in reqs], phantom=phantom
            )
        else:
            admitted_idx, shed_pairs = list(range(len(reqs))), []

        slots: "list[LSResult | QueryShed | None]" = [None] * len(reqs)
        try:
            # Shed first so refused requests consume the lower query
            # ids — the JSONL stream stays ordered by admission round.
            for index, reason in shed_pairs:
                r = reqs[index]
                if self.approx and r.algorithm in self.APPROX_ALGORITHMS:
                    # approx-enabled engines answer over-budget batch
                    # members from the sketch instead of refusing them
                    trace = self.tracer.start(
                        "query", algorithm=r.algorithm,
                        batch_size=len(reqs),
                    )
                    trace.child("admission").finish(
                        admitted=False, approx=True
                    )
                    slots[index] = self._query_one(
                        list(r.candidates), r.pf, r.tau, r.algorithm,
                        workers, deadline_seconds, r.algorithm_kwargs,
                        trace=trace, approx_reason="overload",
                    )
                    continue
                slots[index] = self._shed(
                    reason, priority=r.priority, algorithm=r.algorithm,
                    tau=r.tau, m=len(r.candidates),
                    batch_size=len(reqs),
                )
            admitted = [reqs[i] for i in admitted_idx]
            if admitted:
                pool_breaker = self.ladder.breakers["pool"]
                pooled = (
                    workers > 1 and fork_available() and pool_breaker.allow()
                )
                if pooled:
                    results = self._query_batch_pooled(
                        admitted, workers, deadline_seconds
                    )
                else:
                    results = []
                    for r in admitted:
                        trace = self.tracer.start(
                            "query", algorithm=r.algorithm,
                            batch_size=len(reqs),
                        )
                        trace.child("admission").finish(admitted=True)
                        results.append(self._query_one(
                            list(r.candidates), r.pf, r.tau,
                            r.algorithm, workers, deadline_seconds,
                            r.algorithm_kwargs, trace=trace,
                        ))
                for i, res in zip(admitted_idx, results):
                    slots[i] = res
        finally:
            if self.admission is not None:
                self.admission.release(len(admitted_idx))
        return slots

    def _query_batch_pooled(
        self,
        reqs: list[QueryRequest],
        workers: int,
        deadline_seconds: float | None,
    ) -> list[LSResult]:
        """Plan → one pool dispatch round → assemble, in request order."""
        from repro import make_algorithm

        started = time.perf_counter()
        base_id = self.stats.queries
        supervisor = Supervisor(
            injector=self.fault_injector,
            query_id=base_id,
            deadline_seconds=deadline_seconds,
            breaker=self.ladder.breakers["pool"],
        )
        pool = self._pool_for(workers)
        evictions_mark = self._total_evictions()

        # Plan every request in order, resolving caches exactly as the
        # sequential path would, and collect all dispatchable spans.
        plans: list[_BatchPlan] = []
        all_tasks: list[SpanTask] = []
        planned_keys: set[tuple] = set()
        for q, req in enumerate(reqs):
            trace = self.tracer.start(
                "query", algorithm=req.algorithm, query=base_id + q,
                batch_size=len(reqs),
            )
            trace.child("admission").finish(admitted=True)
            plan_span = trace.child("plan")
            rpf = req.pf
            if rpf is None:
                if self._default_pf is None:
                    self._default_pf = PowerLawPF()
                rpf = self._default_pf
            rtau = float(req.tau)
            if not 0.0 < rtau < 1.0:
                raise ValueError(f"tau must be in (0, 1), got {req.tau}")
            trace.set(tau=rtau)
            cands = list(req.candidates)
            if not cands:
                raise ValueError("need at least one candidate location")
            solver = make_algorithm(req.algorithm, **req.algorithm_kwargs)
            solver.rtree_factory = self.rtree_for
            cand_xy = self._cand_xy_for(cands)
            uses_table = isinstance(solver, (Pinocchio, PinocchioVO))
            table = self.table_for(rpf, rtau) if uses_table else None
            plan = _BatchPlan(
                request=req, solver=solver, pf=rpf, tau=rtau,
                candidates=cands, cand_xy=cand_xy,
                query_id=base_id + q, table=table, trace=trace,
            )
            shardable = self._poolable(rpf)
            if isinstance(solver, PinocchioVO) and shardable:
                plan.mode = "vo"
                key = (
                    _pf_key(rpf), rtau, cand_xy.tobytes(),
                    solver.use_pruning,
                )
                plan.pruning_key = key
                if key in self._prunings or key in planned_keys:
                    self.stats.pruning_hits += 1
                    plan.pruning = "cached"
                else:
                    self.stats.pruning_misses += 1
                    plan.pruning = "dispatch"
                    planned_keys.add(key)
                    seg = self._ensure_pool_segment(
                        pool, "vo_prune", rpf, rtau, table
                    )
                    plan.tasks = self._span_tasks(
                        "vo_prune", seg, req.algorithm,
                        req.algorithm_kwargs, rpf, rtau, cand_xy,
                        workers, q, plan.query_id, table,
                        start_id=len(all_tasks),
                    )
                    all_tasks.extend(plan.tasks)
            elif shardable and isinstance(solver, Pinocchio):
                plan.mode = "table"
                seg = self._ensure_pool_segment(
                    pool, "pin", rpf, rtau, table
                )
                plan.tasks = self._span_tasks(
                    "pin", seg, req.algorithm, req.algorithm_kwargs,
                    rpf, rtau, cand_xy, workers, q, plan.query_id,
                    table, start_id=len(all_tasks),
                )
                all_tasks.extend(plan.tasks)
            elif (
                shardable
                and isinstance(solver, NaiveAlgorithm)
                and solver.kernel == "vector"
            ):
                plan.mode = "table"
                seg = self._ensure_pool_segment(
                    pool, "na", rpf, rtau, None
                )
                plan.tasks = self._span_tasks(
                    "na", seg, req.algorithm, req.algorithm_kwargs,
                    rpf, rtau, cand_xy, workers, q, plan.query_id,
                    self.objects, start_id=len(all_tasks),
                )
                all_tasks.extend(plan.tasks)
            tier = "pool" if plan.tasks else "serial"
            plan_span.finish(tier=tier)
            trace.set(tier=tier)
            plans.append(plan)

        # One dispatch round for every span of every request.  Every
        # plan with dispatched tasks gets a "dispatch" child covering
        # the shared round (workers interleave spans of all requests).
        for plan in plans:
            if plan.tasks:
                plan.dispatch_span = plan.trace.child(
                    "dispatch", mode="pool", shared_round=True
                )
        try:
            outputs = (
                pool.run_batch(all_tasks, supervisor) if all_tasks else {}
            )
        except DeadlineExceeded:
            self._fold_report(supervisor.report)
            self._batch_failures(plans, supervisor, started, len(reqs))
            raise
        for plan in plans:
            if plan.tasks:
                plan.dispatch_span.finish()
                for task in plan.tasks:
                    out = outputs.get(task.task_id)
                    if out is not None:
                        plan.dispatch_span.attach(out[2])
        self._fold_report(supervisor.report)
        if all_tasks:
            report = supervisor.report
            # failures already fed the pool breaker per task; only the
            # clean-round success signal is recorded here
            if report.worker_failures == 0 and not report.degraded:
                self.ladder.record("pool", ok=True)
            self.stats.breaker_trips = self.ladder.trips

        # Assemble results in request order (sequential VO validations).
        out: list[LSResult] = []
        for i, plan in enumerate(plans):
            try:
                supervisor.check_deadline()
                result = self._assemble_plan(plan, outputs, supervisor)
            except DeadlineExceeded:
                self._batch_failures(
                    plans[i:], supervisor, started, len(reqs)
                )
                raise
            result.elapsed_seconds = time.perf_counter() - started
            inst = result.instrumentation
            inst.worker_failures += sum(t.failures for t in plan.tasks)
            inst.retries += sum(t.retries for t in plan.tasks)
            inst.degraded += int(any(t.degraded for t in plan.tasks))
            inst.spans_dispatched += sum(
                1 + t.retries for t in plan.tasks
            )
            # a respawned worker serves the whole round, so every batch
            # member reports the round's respawn count
            inst.pool_respawns += supervisor.report.respawns
            evictions_now = self._total_evictions()
            inst.cache_evictions += evictions_now - evictions_mark
            evictions_mark = evictions_now
            self._sync_cache_stats()
            self.stats.queries += 1
            self._record_metrics(
                result, plan.pf, plan.tau, len(plan.candidates),
                workers, tier="pool" if plan.tasks else "serial",
                pooled=True, batch_size=len(reqs), trace=plan.trace,
            )
            out.append(result)
        return out

    def _assemble_plan(
        self, plan: _BatchPlan, outputs: dict, supervisor: Supervisor
    ) -> LSResult:
        """Turn one batch member's span outputs into its LSResult."""
        trace = plan.trace
        if plan.mode == "serial":
            solver = plan.solver
            if isinstance(solver, PinocchioVO):
                return self._query_vo(
                    solver, plan.table, plan.candidates, plan.cand_xy,
                    plan.pf, plan.tau, 1, supervisor, trace=trace,
                )
            supervisor.check_deadline()
            if plan.table is not None:
                solver.table_factory = lambda _o, _p, _t: plan.table
            with trace.child("dispatch", mode="serial"):
                return solver.select(
                    self.objects, plan.candidates, plan.pf, plan.tau
                )
        m = plan.cand_xy.shape[0]
        counters = Instrumentation()
        if plan.table is not None:
            counters.dead_objects = plan.table.dead_objects
            counters.pairs_total = plan.table.live_count * m
        else:
            counters.pairs_total = len(self.objects) * m
        if plan.mode == "table":
            influence = np.zeros(m, dtype=int)
            with trace.child("merge"):
                for task in plan.tasks:
                    payload, span_counters, _record = outputs[task.task_id]
                    influence[task.lo:task.hi] = payload
                    counters.merge(span_counters)
            return full_table_result(
                plan.solver.name, plan.candidates, influence, counters
            )
        # mode "vo"
        if plan.pruning == "dispatch":
            prune_counters = Instrumentation()
            min_inf = np.zeros(m, dtype=int)
            parts = []
            with trace.child("merge"):
                for task in plan.tasks:
                    (mi, vs), span_counters, _record = outputs[task.task_id]
                    min_inf[task.lo:task.hi] = mi
                    parts.append(vs)
                    prune_counters.merge(span_counters)
                vs_indexes = VerificationSets.concat(parts)
                self._prunings[plan.pruning_key] = (
                    min_inf.copy(), vs_indexes.packed(),
                    _counts_only(prune_counters),
                )
            counters.merge(prune_counters)
        else:
            # "cached": memoised before the batch, or stored moments
            # ago by the earlier batch member that owned the dispatch
            prune_span = trace.child("prune")
            cached = self._prunings.get(plan.pruning_key)
            if cached is None:
                # a tiny pruning budget evicted the entry between the
                # owning dispatch and this read — recompute serially in
                # the parent (correctness never depends on residency)
                prune_counters = Instrumentation()
                supervisor.check_deadline()
                with prune_counters.phase("pruning"):
                    min_inf, vs_indexes = plan.solver.pruning_phase(
                        plan.table, plan.cand_xy, prune_counters
                    )
                self._prunings[plan.pruning_key] = (
                    min_inf.copy(), vs_indexes.packed(),
                    _counts_only(prune_counters),
                )
                counters.merge(prune_counters)
                prune_span.finish(cached=False)
            else:
                base_min_inf, vs_indexes, snapshot = cached
                min_inf = base_min_inf.copy()
                counters.merge(snapshot)
                prune_span.finish(cached=True)
        supervisor.check_deadline()
        with trace.child("validate"):
            return plan.solver.validation_phase(
                plan.table, plan.candidates, plan.cand_xy, plan.pf,
                plan.tau, counters, min_inf, vs_indexes,
            )

    def _batch_failures(
        self,
        plans: list[_BatchPlan],
        supervisor: Supervisor,
        started: float,
        batch_size: int,
    ) -> None:
        """Deadline overran the batch: account every unfinished member.

        The supervision totals were already folded into the stats by
        the caller; here each request that produced no result consumes
        its query id and emits a failure record.
        """
        report = supervisor.report
        elapsed = time.perf_counter() - started
        for plan in plans:
            self.stats.deadline_exceeded += 1
            self.stats.queries += 1
            self._append_record({
                "schema": 2,
                "trace_id": plan.trace.trace_id,
                "query": plan.query_id,
                "algorithm": plan.request.algorithm,
                "tau": plan.tau,
                "pf": repr(plan.pf),
                "candidates": len(plan.candidates),
                "elapsed_seconds": elapsed,
                "deadline_seconds": supervisor.deadline_seconds,
                "worker_failures": report.worker_failures,
                "retries": report.retries,
                "degraded": report.degraded,
                "deadline_exceeded": True,
                "pool": True,
                "batch_size": batch_size,
                "spans_dispatched": report.spans_dispatched,
                "pool_respawns": report.respawns,
                "best_candidate": None,
                "best_influence": None,
            })
            self._m_queries.inc(
                algorithm=plan.request.algorithm, tier="none",
                status="deadline-exceeded",
            )
            plan.trace.set(error="DeadlineExceeded")
            self.tracer.export(plan.trace)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _record_metrics(
        self,
        result: LSResult,
        pf: ProbabilityFunction,
        tau: float,
        m: int,
        workers_used: int,
        *,
        tier: str = "serial",
        pooled: bool = False,
        batch_size: int = 1,
        trace=NOOP_SPAN,
        approx_reason: str | None = None,
    ) -> None:
        inst = result.instrumentation
        record = {
            "schema": 2,
            "trace_id": trace.trace_id,
            "query": self.stats.queries - 1,
            "algorithm": result.algorithm,
            "tau": tau,
            "pf": repr(pf),
            "candidates": m,
            "workers": workers_used,
            "tier": tier,
            "quality": result.quality,
            "error_bound": result.error_bound,
            "approx_reason": approx_reason,
            "shed": False,
            "elapsed_seconds": result.elapsed_seconds,
            "pruning_seconds": inst.pruning_seconds,
            "validation_seconds": inst.validation_seconds,
            "pairs_total": inst.pairs_total,
            "pairs_pruned_ia": inst.pairs_pruned_ia,
            "pairs_pruned_nib": inst.pairs_pruned_nib,
            "pairs_validated": inst.pairs_validated,
            "cache_hits": self.stats.hits,
            "cache_misses": self.stats.misses,
            "table_hits": self.stats.table_hits,
            "table_misses": self.stats.table_misses,
            "candidate_hits": self.stats.candidate_hits,
            "candidate_misses": self.stats.candidate_misses,
            "pruning_hits": self.stats.pruning_hits,
            "pruning_misses": self.stats.pruning_misses,
            "worker_failures": inst.worker_failures,
            "retries": inst.retries,
            "degraded": bool(inst.degraded),
            "deadline_exceeded": False,
            "pool": pooled,
            "batch_size": batch_size,
            "spans_dispatched": inst.spans_dispatched,
            "pool_respawns": inst.pool_respawns,
            "cache_evictions": inst.cache_evictions,
            "best_candidate": result.best_candidate.candidate_id,
            "best_influence": result.best_influence,
        }
        self._append_record(record)
        self._m_queries.inc(
            algorithm=result.algorithm, tier=tier, status="ok"
        )
        self._m_latency.observe(
            result.elapsed_seconds, algorithm=result.algorithm, tier=tier
        )
        if inst.pruning_seconds:
            self._m_phase.inc(inst.pruning_seconds, phase="pruning")
        if inst.validation_seconds:
            self._m_phase.inc(inst.validation_seconds, phase="validation")
        if tier == "approx":
            self._m_approx.inc(reason=approx_reason or "requested")
            self._m_approx_latency.observe(
                result.elapsed_seconds, algorithm=result.algorithm
            )
            if result.error_bound is not None:
                self._m_approx_bound.observe(result.error_bound)
        trace.set(query=record["query"])
        self.tracer.export(trace)

    def _record_failure(
        self,
        pf: ProbabilityFunction,
        tau: float,
        m: int,
        algorithm: str,
        supervisor: Supervisor,
        started: float,
        trace=NOOP_SPAN,
    ) -> None:
        """Account a deadline-exceeded query in stats and metrics.

        The query produced no result, but it still consumed a query id
        and must be visible in the JSONL stream — a serving deployment
        alerts on exactly these records.
        """
        report = supervisor.report
        self.stats.worker_failures += report.worker_failures
        self.stats.retries += report.retries
        self.stats.spans_dispatched += report.spans_dispatched
        self.stats.pool_respawns += report.respawns
        self.stats.deadline_exceeded += 1
        query_id = self.stats.queries
        self.stats.queries += 1
        self._append_record({
            "schema": 2,
            "trace_id": trace.trace_id,
            "query": query_id,
            "algorithm": algorithm,
            "tau": tau,
            "pf": repr(pf),
            "candidates": m,
            "elapsed_seconds": time.perf_counter() - started,
            "deadline_seconds": supervisor.deadline_seconds,
            "worker_failures": report.worker_failures,
            "retries": report.retries,
            "degraded": report.degraded,
            "deadline_exceeded": True,
            "pool": report.spans_dispatched > 0,
            "batch_size": 1,
            "spans_dispatched": report.spans_dispatched,
            "pool_respawns": report.respawns,
            "best_candidate": None,
            "best_influence": None,
        })
        self._m_queries.inc(
            algorithm=algorithm, tier="none", status="deadline-exceeded"
        )
        trace.set(query=query_id, error="DeadlineExceeded")
        self.tracer.export(trace)

    def _append_record(self, record: dict) -> None:
        self.metrics_log.append(record)
        # The in-memory copy is bounded (oldest records dropped); the
        # JSONL file below stays append-only and is never truncated.
        while len(self.metrics_log) > self.cache_budget.max_records:
            del self.metrics_log[0]
            self.stats.records_dropped += 1
        if self.metrics_path is not None:
            self.metrics_path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.metrics_path, "a") as f:
                f.write(json.dumps(record) + "\n")
