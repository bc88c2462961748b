"""``oneshot-large``: pruning-heavy PIN-VO reads on a large fleet.

A constant-density fleet (the scale ladder's generator: 4-16 positions
per object around a uniform anchor) answers PIN-VO queries at τ = 0.7
with the default power-law PF.  One client, closed-loop, sends each
query with a fresh set of uniformly placed candidates to a serial
engine (a pruning-cache miss: class ``a``), sends the same query again
(a hit, so only validation runs: class ``b``), and then sends it to a
pool engine with ``workers = nproc``.

Pool latency is a per-layer figure, not an end-to-end one: on a
2-vCPU virtual machine the second CPU's share comes and goes, and the
pool's latency moved by 1.8x between runs with it.

Checks: every repeated and every pool answer is bit-identical to the
first serial one, and the first query's answer agrees with PIN's full
influence table.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from common import Outcome, median, nproc, peak_rss_mb, ratio
from tracing import SpanRecorder, calls, self_seconds, shares, total_seconds

TAU = 0.7
#: candidates in the warm-up query that starts each engine
WARM_CANDIDATES = 16


@dataclass(frozen=True)
class Sizes:
    objects: int = 100_000
    candidates: int = 1_000
    #: set-up repetitions, the last of the first half serving the
    #: queries; ``setup_s`` is their median
    setups: int = 3
    #: fewest rounds, whatever ``--seconds`` says
    min_rounds: int = 3


TINY = Sizes(objects=2_000, candidates=40, setups=2, min_rounds=2)


def make_fleet(n_objects: int, rng: np.random.Generator):
    """Positions, per-object offsets and the extent of one fleet.

    The extent grows with sqrt(n), so object density — and the band of
    pairs each candidate leaves for validation — stays constant.
    """
    extent = 30.0 * float(np.sqrt(n_objects / 1_000.0))
    counts = rng.integers(4, 17, size=n_objects)
    offsets = np.zeros(n_objects + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    anchors = rng.uniform(0.0, extent, size=(n_objects, 2))
    positions = np.repeat(anchors, counts, axis=0) + rng.normal(
        0.0, 1.5, size=(int(offsets[-1]), 2)
    )
    positions.setflags(write=False)
    return positions, offsets, extent


def wrap_fleet(positions, offsets):
    """Fresh :class:`MovingObject` wrappers (no memoised MBRs)."""
    from repro.model import MovingObject

    return [
        MovingObject.from_readonly(i, positions[offsets[i]:offsets[i + 1]])
        for i in range(offsets.size - 1)
    ]


def candidate_set(rng: np.random.Generator, extent: float, m: int):
    from repro.model import Candidate

    return [
        Candidate(j, float(x), float(y))
        for j, (x, y) in enumerate(rng.uniform(0.0, extent, size=(m, 2)))
    ]


def signature(result) -> tuple:
    """Everything a caller sees of an exact answer."""
    return (
        result.best_candidate.candidate_id,
        result.best_influence,
        tuple(sorted(result.influences.items())),
    )


def check_against_pin(vo_sig: tuple, pin_influences: dict) -> str | None:
    """PIN-VO's answer against PIN's full influence table."""
    best_id, best_influence, influences = vo_sig
    top = max(pin_influences.values())
    if best_influence != top or pin_influences[best_id] != best_influence:
        return (
            f"PIN-VO best {best_id}:{best_influence} but PIN's best "
            f"influence is {top} (candidate {best_id} has "
            f"{pin_influences[best_id]})"
        )
    for j, value in influences:
        if pin_influences[j] != value:
            return f"PIN-VO influence of {j} is {value}, PIN says {pin_influences[j]}"
    return None


def _setup(objects, pf, workers: int, warm):
    """One timed set-up: both engines built, tables built, pool up.

    Returns ``(serial, pool, seconds, table_build_seconds)``.  The
    warm-up query starts the pool's workers and publishes the table
    segment, which the first measured query would otherwise pay.
    """
    from repro import QueryEngine

    started = time.perf_counter()
    serial = QueryEngine(objects)
    t0 = time.perf_counter()
    serial.table_for(pf, TAU)
    table_s = time.perf_counter() - t0
    serial.query(warm, pf=pf, tau=TAU)
    pool = QueryEngine(objects, workers=workers, pool=True)
    pool.table_for(pf, TAU)
    pool.query(warm, pf=pf, tau=TAU)
    return serial, pool, time.perf_counter() - started, table_s


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    from repro import PowerLawPF

    out = Outcome()
    rng = np.random.default_rng(seed)
    positions, offsets, extent = make_fleet(sizes.objects, rng)
    warm = candidate_set(rng, extent, WARM_CANDIDATES)
    pf = PowerLawPF()
    workers = max(2, nproc())

    setup_s, table_s = [], []

    def timed_setup():
        # the caller has closed and dropped the previous engines, so
        # the peak RSS holds one generation of program state only
        gc.collect()
        serial, pool, s, t = _setup(wrap_fleet(positions, offsets), pf,
                                    workers, warm)
        setup_s.append(s)
        table_s.append(t)
        return serial, pool

    def spare_setups(count):
        for _ in range(count):
            serial, pool = timed_setup()
            serial.close()
            pool.close()
            serial = pool = None

    # half the set-ups come before the queries and half after them, so
    # their median samples the host at both ends of the run
    spare_setups(sizes.setups - sizes.setups // 2 - 1)
    serial, pool = timed_setup()

    recorder = SpanRecorder().install() if trace else None
    miss_ms, traced_ms, hit_ms, pool_ms, results = [], [], [], [], []
    first_set = first_sig = None
    spans = respawns = 0
    window_s = 0.0

    def timed(engine, cands):
        out.host.sample()
        t0 = time.perf_counter()
        result = engine.query(cands, pf=pf, tau=TAU)
        return result, (time.perf_counter() - t0) * 1000.0

    try:
        cache_before = (serial.stats.pruning_hits, serial.stats.pruning_misses)
        started = time.perf_counter()
        # the loop stops before a round that would overrun ``seconds``
        while len(pool_ms) < sizes.min_rounds or (
            time.perf_counter() - started
            + (time.perf_counter() - started) / len(pool_ms) <= seconds
        ):
            cands = candidate_set(rng, extent, sizes.candidates)
            # traced runs trace every other fresh query; the rest are
            # the untraced baseline for the overhead
            traced = trace and len(pool_ms) % 2 == 1
            if traced:
                # probe now, so the probe in ``timed`` is skipped (too
                # soon after this one) and stays out of the window
                out.host.sample()
                recorder.enabled = True
                window_started = time.perf_counter()
                with recorder.span("client"):
                    result, elapsed = timed(serial, cands)
                recorder.enabled = False
                window_s += time.perf_counter() - window_started
                traced_ms.append(elapsed)
                results.append(result)
            else:
                result, elapsed = timed(serial, cands)
                miss_ms.append(elapsed)
            expected = signature(result)
            if first_set is None:
                first_set, first_sig = cands, expected

            result, elapsed = timed(serial, cands)
            hit_ms.append(elapsed)
            if signature(result) != expected:
                out.fail(f"repeated answer differs on round {len(hit_ms)}")

            result, elapsed = timed(pool, cands)
            pool_ms.append(elapsed)
            spans += result.instrumentation.spans_dispatched
            respawns += result.instrumentation.pool_respawns
            if signature(result) != expected:
                out.fail(f"pool answer differs from serial on round {len(pool_ms)}")

        hits = serial.stats.pruning_hits - cache_before[0]
        misses = serial.stats.pruning_misses - cache_before[1]

        # PIN on the pool: the engine guarantees the serial table
        pin = pool.query(first_set, pf=pf, tau=TAU, algorithm="PIN")
        problem = check_against_pin(first_sig, pin.influences)
        if problem:
            out.fail(problem)
        out.attempted = 3 * len(pool_ms) + 1
    finally:
        serial.close()
        pool.close()
        if recorder is not None:
            recorder.restore()
    serial = pool = None
    spare_setups(sizes.setups // 2)

    fresh = miss_ms + traced_ms
    out.metrics = {
        "setup_s": median(setup_s),
        "peak_rss_mb": max(peak_rss_mb(), peak_rss_mb(children=True)),
        "a_p50_ms": median(fresh),
        "b_p50_ms": median(hit_ms),
        "a_per_s": len(fresh) / sum(fresh) * 1000.0,
        "b_per_s": len(hit_ms) / sum(hit_ms) * 1000.0,
    }
    if trace:
        out.layers = _layers(
            recorder.snapshot(), results, traced_ms, miss_ms, pool_ms,
            window_s, table_s, spans, respawns, ratio(hits, hits + misses),
        )
    return out


def _layers(snap, results, traced_ms, untraced_ms, pool_ms, window_s,
            table_s, spans, respawns, hit_rate) -> dict:
    """Per-layer metrics of the traced serial queries."""
    from repro.core.result import Instrumentation

    n = len(results)
    inst = Instrumentation()
    for r in results:
        inst.merge(r.instrumentation)
    prune_s = self_seconds(snap, "core.pruning")
    influence_s = self_seconds(snap, "core.influence")
    pairs = inst.pairs_total
    band = pairs - inst.pairs_pruned_ia - inst.pairs_pruned_nib
    wrapped_prune = total_seconds(snap, "core.pruning")
    wrapped_validate = total_seconds(snap, "core.pinocchio_vo")
    return {
        "object_table.build_s": median(table_s),
        "pruning.s_per_query": ratio(prune_s, n),
        "pruning.pairs_per_s": ratio(pairs, prune_s),
        "pruning.ia_pairs": ratio(inst.pairs_pruned_ia, n),
        "pruning.nib_pairs": ratio(inst.pairs_pruned_nib, n),
        "pruning.band_share": ratio(band, pairs),
        "influence.s_per_query": ratio(influence_s, n),
        "influence.pairs_validated": ratio(inst.pairs_validated, n),
        "influence.position_savings": inst.position_savings(),
        "influence.early_stops": ratio(inst.early_stops, n),
        "pinocchio_vo.heap_pops": ratio(inst.heap_pops, n),
        "pinocchio_vo.fully_validated": ratio(inst.candidates_fully_validated, n),
        "pinocchio_vo.skipped": ratio(inst.candidates_skipped_strategy1, n),
        "session.overhead_ms": ratio(self_seconds(snap, "engine.session"), n) * 1000.0,
        "session.pruning_cache_hit_rate": hit_rate,
        "session.table_hits": ratio(calls(snap, "core.object_table"), n),
        "pool.query_p50_ms": median(pool_ms),
        "pool.spans_per_query": ratio(spans, len(pool_ms)),
        "pool.speedup": ratio(median(untraced_ms), median(pool_ms)),
        "pool.respawns": float(respawns),
        "trace.overhead_pct": (ratio(median(traced_ms), median(untraced_ms)) - 1.0) * 100.0,
        # the spans sit just outside the engine's own phase timers
        "trace.prune_diff_ms": ratio(wrapped_prune - inst.pruning_seconds, n) * 1000.0,
        "trace.validate_diff_ms": ratio(wrapped_validate - inst.validation_seconds, n) * 1000.0,
        **shares(snap, window_s),
    }

