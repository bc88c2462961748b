"""``stream-ingest``: the write path through the subscription engine.

A constant-density fleet is seeded into a :class:`SubscriptionEngine`
(window 8, every window full), then standing queries of 4 candidates
each register across τ ∈ {0.6, 0.7, 0.8, 0.9} (four maintenance
groups).  One producer streams fixed-size batches of position updates
and drains the notification queue after every batch, as a subscriber
would, in two phases on two engines set up alike: a crossing-light
phase (small jitter, absorbed by safe regions) and a crossing-heavy
phase (jitter that deforms most windows past their slack).  The
phases interleave over the whole run, the one with less batch time
so far sending next, so both sample the host at every point of it.

Checks, after the phases: on each engine a seeded sample of snapshots
matches a one-shot PIN query over the engine's current fleet, no
notification was dropped, and every changed subscription produced one
event.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from common import Outcome, median, peak_rss_mb, ratio
from tracing import SpanRecorder, self_seconds, shares

TAUS = (0.6, 0.7, 0.8, 0.9)
WINDOW = 8
CANDIDATES_PER_SUB = 4
BATCH = 200
#: per-update jitter (km) around each object's anchor, per phase
SIGMAS = {"light": 0.04, "heavy": 2.0}
#: snapshots compared with a one-shot query per engine
SPOT_CHECKS = 3


@dataclass(frozen=True)
class Sizes:
    objects: int = 20_000
    subscriptions: int = 200
    #: set-up repetitions: the two serving the phases, then the rest
    #: after the batches; ``setup_s`` is their median
    setups: int = 3
    #: fewest batches per phase, whatever ``--seconds`` says
    min_batches: int = 4


TINY = Sizes(objects=1_000, subscriptions=12, setups=3, min_batches=2)


class Inputs:
    """Everything the producer sends, drawn from one seed."""

    def __init__(self, seed: int, sizes: Sizes):
        self.rng = np.random.default_rng(seed)
        n = sizes.objects
        self.extent = 30.0 * float(np.sqrt(n / 1_000.0))
        self.anchors = self.rng.uniform(0.0, self.extent, size=(n, 2))
        self.seed_rounds = []
        for _ in range(WINDOW):
            xy = self.anchors + self.rng.normal(
                0.0, SIGMAS["light"], size=(n, 2)
            )
            self.seed_rounds.append(
                [(i, float(xy[i, 0]), float(xy[i, 1])) for i in range(n)]
            )
        self.subs = [
            (
                [
                    (float(x), float(y))
                    for x, y in self.rng.uniform(
                        0.0, self.extent, size=(CANDIDATES_PER_SUB, 2)
                    )
                ],
                TAUS[i % len(TAUS)],
            )
            for i in range(sizes.subscriptions)
        ]
        # one stream per phase: how the phases interleave depends on
        # timing, the updates each phase sends do not
        self.batch_rngs = {
            name: np.random.default_rng([seed, k])
            for k, name in enumerate(SIGMAS)
        }

    def batch(self, phase: str) -> list:
        n, count = self.anchors.shape[0], BATCH
        rng = self.batch_rngs[phase]
        oids = rng.integers(0, n, size=count)
        xy = self.anchors[oids] + rng.normal(0.0, SIGMAS[phase],
                                             size=(count, 2))
        return [
            (int(oids[i]), float(xy[i, 0]), float(xy[i, 1]))
            for i in range(count)
        ]


def _setup(inputs: Inputs):
    """One timed set-up: windows seeded, standing queries registered.

    Returns ``(engine, sub_ids, seed_seconds, subscribe_seconds)``.
    """
    from repro import PowerLawPF
    from repro.engine import SubscriptionEngine

    started = time.perf_counter()
    eng = SubscriptionEngine(window=WINDOW, default_pf=PowerLawPF())
    for round_ in inputs.seed_rounds:
        eng.ingest_batch(round_)
    seeded = time.perf_counter()
    sub_ids = [eng.subscribe(cands, tau=tau) for cands, tau in inputs.subs]
    return eng, sub_ids, seeded - started, time.perf_counter() - seeded


def spot_check(eng, sub_ids, inputs: Inputs, rng, checks: int) -> list[str]:
    """Maintained snapshots against fresh one-shot PIN queries."""
    from repro import QueryEngine
    from repro.model import Candidate

    problems = []
    oracle = QueryEngine(eng.fleet(), default_pf=eng.default_pf)
    try:
        picks = rng.choice(len(sub_ids), size=min(checks, len(sub_ids)),
                           replace=False)
        for k in picks.tolist():
            cands, tau = inputs.subs[k]
            snap = eng.snapshot(sub_ids[k])
            got = list(snap.influences)
            res = oracle.query(
                [Candidate(j, x, y) for j, (x, y) in enumerate(cands)],
                tau=tau, algorithm="PIN",
            )
            expected = [res.influences[j] for j in range(len(cands))]
            if got != expected:
                problems.append(
                    f"subscription {sub_ids[k]} snapshot {got} != "
                    f"one-shot {expected}"
                )
    finally:
        oracle.close()
    return problems


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    out = Outcome()
    inputs = Inputs(seed, sizes)
    check_rng = np.random.default_rng(seed + 1)
    setup_s, seed_s, subscribe_s = [], [], []

    def timed_setup():
        # the caller has dropped the previous engines, so the peak RSS
        # holds the serving engines' program state only
        gc.collect()
        eng, sub_ids, s_seed, s_sub = _setup(inputs)
        setup_s.append(s_seed + s_sub)
        seed_s.append(s_seed)
        subscribe_s.append(s_sub)
        return eng, sub_ids

    recorder = SpanRecorder().install() if trace else None
    try:
        # traced runs trace the first serving set-up: subscribe's split
        if recorder is not None:
            recorder.enabled = True
        engines = {"light": timed_setup()}
        setup_snap = None
        if recorder is not None:
            recorder.enabled = False
            setup_snap = recorder.snapshot()
            recorder.reset()
        engines["heavy"] = timed_setup()

        phases = {name: _Phase() for name in engines}
        window_s = 0.0
        before = {name: eng.stats() for name, (eng, _) in engines.items()}
        counters_before = _counters(engines)
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or any(
            phase.batches < sizes.min_batches for phase in phases.values()
        ):
            out.host.sample()
            name = min(phases, key=lambda n: phases[n].seconds)
            phase, (eng, _) = phases[name], engines[name]
            # traced runs trace every other batch (see oneshot.py)
            traced = trace and phase.batches % 2 == 1
            batch = inputs.batch(name)
            if traced:
                window_started = time.perf_counter()
                recorder.enabled = True
                with recorder.span("client"):
                    elapsed = phase.send(eng, batch)
                recorder.enabled = False
                window_s += time.perf_counter() - window_started
            else:
                elapsed = phase.send(eng, batch)
            (phase.traced_ms if traced else phase.batch_ms).append(elapsed)
        after = {name: eng.stats() for name, (eng, _) in engines.items()}
        counters_after = _counters(engines)
        # before the checks' reference engine adds its own memory
        rss = peak_rss_mb()

        for name, (eng, sub_ids) in engines.items():
            phase = phases[name]
            out.attempted += phase.batches + SPOT_CHECKS
            for problem in phase.problems:
                out.fail(problem)
            dropped = after[name]["events_dropped"]
            if dropped:
                out.fail(f"{dropped} notifications dropped on the {name} "
                         f"engine", count=dropped)
            for problem in spot_check(eng, sub_ids, inputs, check_rng,
                                      SPOT_CHECKS):
                out.fail(problem)
    finally:
        if recorder is not None:
            recorder.restore()
    engines = eng = sub_ids = None
    for _ in range(sizes.setups - 2):
        timed_setup()

    light, heavy = phases["light"], phases["heavy"]
    out.metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": rss,
        "a_p50_ms": median(light.all_ms),
        "b_p50_ms": median(heavy.all_ms),
        "a_per_s": light.positions_per_s,
        "b_per_s": heavy.positions_per_s,
    }
    if trace:
        snap = recorder.snapshot()
        applied = light.applied + heavy.applied
        hits = light.hits + heavy.hits
        crossings = light.crossings + heavy.crossings
        batches = light.batches + heavy.batches
        positions_total = counters_after[0] - counters_before[0]
        positions_evaluated = counters_after[1] - counters_before[1]
        n_subs = sizes.subscriptions
        out.layers = {
            "subscriptions.seed_s": median(seed_s),
            "subscriptions.subscribe_ms_each": median(subscribe_s)
            / n_subs * 1000.0,
            "subscriptions.subscribe_share_of_setup": ratio(
                median(subscribe_s), median(setup_s)
            ),
            "subscriptions.safe_region_hit_rate": ratio(hits, hits + crossings),
            "subscriptions.crossings_per_kupdate": ratio(crossings, applied)
            * 1000.0,
            "subscriptions.validations_per_crossing": ratio(
                light.validations + heavy.validations, crossings
            ),
            "subscriptions.ingest_ms_per_batch": ratio(
                sum(light.all_ms) + sum(heavy.all_ms), batches
            ),
            "subscriptions.notifications_per_batch": ratio(
                sum(after[n]["notifications"] - before[n]["notifications"]
                    for n in after), batches
            ),
            "subscriptions.events_dropped": float(
                sum(after[n]["events_dropped"] for n in after)
            ),
            # pruning runs at subscribe time (classification of the
            # fleet); the per-update boundary test is inline in ingest
            "pruning.s_per_query": ratio(
                self_seconds(setup_snap, "core.pruning"), n_subs
            ),
            "pruning.pairs_per_s": ratio(
                sizes.objects * CANDIDATES_PER_SUB * n_subs,
                self_seconds(setup_snap, "core.pruning"),
            ),
            "influence.s_per_query": ratio(
                self_seconds(snap, "core.influence"),
                len(light.traced_ms) + len(heavy.traced_ms),
            ),
            "influence.pairs_validated": ratio(
                light.validations + heavy.validations, batches
            ),
            "influence.position_savings": 1.0 - ratio(
                positions_evaluated, positions_total
            ) if positions_total else 0.0,
            "influence.early_stops": ratio(
                counters_after[2] - counters_before[2], batches
            ),
            "trace.overhead_pct": (
                (light.overhead() + heavy.overhead()) / 2.0 - 1.0
            ) * 100.0,
            **shares(snap, window_s),
        }
    return out


def _counters(engines: dict) -> tuple:
    """Positions seen, positions evaluated and early stops, summed."""
    return tuple(
        sum(getattr(eng.counters, field) for eng, _ in engines.values())
        for field in ("positions_total", "positions_evaluated", "early_stops")
    )


class _Phase:
    """Per-phase tallies of the producer loop."""

    def __init__(self):
        self.batch_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.applied = self.hits = self.crossings = self.validations = 0
        self.problems: list[str] = []
        self.seconds = 0.0

    @property
    def batches(self) -> int:
        return len(self.batch_ms) + len(self.traced_ms)

    @property
    def all_ms(self) -> list[float]:
        return self.batch_ms + self.traced_ms

    @property
    def positions_per_s(self) -> float:
        return ratio(self.applied, self.seconds)

    def overhead(self) -> float:
        """Mean traced batch time over mean untraced batch time."""
        return ratio(
            ratio(sum(self.traced_ms), len(self.traced_ms)),
            ratio(sum(self.batch_ms), len(self.batch_ms)),
        )

    def send(self, eng, batch) -> float:
        """Ingest one batch and drain its events; returns milliseconds."""
        t0 = time.perf_counter()
        report = eng.ingest_batch(batch)
        events = eng.drain_events()
        elapsed = time.perf_counter() - t0
        self.seconds += elapsed
        self.applied += report.applied
        self.hits += report.safe_region_hits
        self.crossings += report.crossings
        self.validations += report.validations
        if report.shed:
            self.problems.append(f"{len(report.shed)} updates shed")
        if len(events) != len(report.changed):
            self.problems.append(
                f"{len(report.changed)} subscriptions changed but "
                f"{len(events)} events drained"
            )
        return elapsed * 1000.0
