"""``http-mixed``: validation-heavy serving through the HTTP front end.

A Gowalla-like skewed world is served by the front end in its own
process (``serve.py``) over a serial engine, the ``prime-ls serve``
default.  This process sends the traffic over at most ``nproc``
concurrent connections:

* phase A, open loop, seeded Poisson arrivals at fixed rates —
  tenant ``interactive`` sends PIN-VO queries whose candidate sets
  recur (so the pruning cache hits after a set's first use) and
  tenant ``analyst`` sends PIN queries with a fresh set each time;
* phase B, closed loop: one client sends the same 3:2 mix back to
  back, so each request has the server to itself; the interactive
  tenant cycles through 32 recurring sets (phase A's 8 among them).

Checks: every request answers 200, and a seeded sample of answers is
recomputed by an in-process reference engine over the same world.

The end-to-end latencies and goodput are phase B's; the traced run
reports phase A's due-time latencies (``openloop.*``) with the layer
split of the same requests.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import ROOT, Outcome, median, nproc, quantile, ratio
from openloop import (
    Request,
    http_post,
    poisson_arrivals,
    run_closed_loop,
    run_open_loop,
)
from serve import TAU, make_world
from tracing import calls, self_seconds, shares, total_seconds

HERE = Path(__file__).resolve().parent
TENANTS = ("interactive", "analyst")


#: phase-A arrival rates (requests/s): constants, never derived from a
#: measured service time
INTERACTIVE_QPS = 3.0
ANALYST_QPS = 2.0
#: distinct candidate sets the interactive tenant draws from in phase A
RECURRING_SETS = 8
#: distinct candidate sets phase B cycles through in order (the first
#: ``RECURRING_SETS`` are phase A's): the median over 8 sets moved by
#: up to a quarter with the seed, as some sets validate slower
CLOSED_RECURRING_SETS = 32
#: share of ``--seconds`` spent in phase A
OPEN_SHARE = 0.4
#: answers recomputed by the reference engine
CHECK_SAMPLE = 8
REQUEST_TIMEOUT_S = 30.0
#: phase-B answers slower than this do not count as goodput
GOODPUT_LIMIT_S = 1.0


@dataclass(frozen=True)
class Sizes:
    scale: float = 0.2
    candidates: int = 48
    #: server set-ups per run, half before the traffic and half after
    #: it (so they sample the host over the whole run); ``setup_s`` is
    #: their median
    setups: int = 24
    #: phase-B requests prepared per second of phase B (running out is
    #: an error, so this is well above the fastest answer rate)
    closed_per_s: int = 100


TINY = Sizes(scale=0.02, candidates=8, setups=2, closed_per_s=2_000)


class Traffic:
    """All request bodies of one run, drawn from one seed."""

    def __init__(self, world, rng: np.random.Generator, sizes: Sizes,
                 seconds: float):
        self.world = world
        self.rng = rng
        self.sizes = sizes
        self.recurring = [
            self._candidates() for _ in range(CLOSED_RECURRING_SETS)
        ]
        open_s = seconds * OPEN_SHARE
        closed_s = seconds - open_s
        arrivals = [
            (t, "interactive")
            for t in poisson_arrivals(rng, INTERACTIVE_QPS, open_s)
        ] + [
            (t, "analyst")
            for t in poisson_arrivals(rng, ANALYST_QPS, open_s)
        ]
        self.open_schedule = [
            self.request(tenant, due) for due, tenant in sorted(arrivals)
        ]
        # the 3:2 mix as a fixed interleaving, so tenant counts in
        # phase B do not vary from seed to seed
        mix = ("interactive", "analyst", "interactive", "analyst",
               "interactive")
        count = max(100, int(sizes.closed_per_s * closed_s))
        tenants = [mix[i % len(mix)] for i in range(count)]
        self.closed_sequence = [
            self.request(tenant, recurring=tenants[:i].count("interactive"))
            for i, tenant in enumerate(tenants)
        ]
        self.open_s, self.closed_s = open_s, closed_s

    def _candidates(self) -> list:
        cands, _ = self.world.dataset.sample_candidates(
            self.sizes.candidates, self.rng
        )
        return [[c.x, c.y] for c in cands]

    def request(self, tenant: str, due: float = 0.0,
                recurring: int | None = None) -> Request:
        """One request; ``recurring`` picks the interactive tenant's
        set (cyclically), else it draws one of phase A's sets."""
        if tenant == "interactive":
            if recurring is None:
                recurring = int(self.rng.integers(RECURRING_SETS))
            cands = self.recurring[recurring % len(self.recurring)]
            algorithm = "PIN-VO"
        else:
            cands = self._candidates()
            algorithm = "PIN"
        body = {"tenant": tenant, "algorithm": algorithm, "tau": TAU,
                "candidates": cands}
        return Request(due, tenant, json.dumps(body).encode())


class ServerProcess:
    """One ``serve.py`` child; ``setup`` (re)builds what it serves.

    ``setup_s`` and ``table_s`` hold one reading per set-up.
    """

    def __init__(self, scale: float, trace: bool):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), "--scale", str(scale),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        self.setup_s, self.table_s = [], []

    def setup(self, times: int) -> None:
        """Set the server up ``times`` times over; the last one stays up."""
        for _ in range(times):
            reply = self.command("setup")
            self.port = reply["port"]
            self.setup_s.append(reply["setup_s"])
            self.table_s.append(reply["table_s"])

    def _write(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait(timeout=30)}"
            )
        return json.loads(line)

    def command(self, text: str) -> dict:
        self._write(text)
        return self._read()

    def metrics(self) -> dict:
        """``/metrics`` samples as ``{series-with-labels: value}``."""
        url = f"http://127.0.0.1:{self.port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as resp:
            text = resp.read().decode()
        samples = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                series, _, value = line.rpartition(" ")
                samples[series] = float(value)
        return samples

    def stop(self) -> float:
        """Drain and exit; returns the server's peak RSS in MiB."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            rss = self._read()["peak_rss_mb"]
            self.proc.wait(timeout=60)
            return rss
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


def reference_check(world, replies, rng, sample: int) -> tuple[int, list[str]]:
    """Recompute a seeded sample of answers in-process.

    Returns ``(checked, problems)``.
    """
    from repro import QueryEngine
    from repro.model import Candidate

    answered = [r for r in replies if r.ok]
    picks = rng.choice(len(answered), size=min(sample, len(answered)),
                       replace=False)
    problems = []
    with QueryEngine(world.dataset.objects) as engine:
        for k in sorted(picks.tolist()):
            reply = answered[k]
            body = json.loads(reply.request.body)
            got = reply.payload
            result = engine.query(
                [Candidate(j, x, y) for j, (x, y) in enumerate(body["candidates"])],
                tau=body["tau"], algorithm=body["algorithm"],
            )
            expected = {
                "best": result.best_candidate.candidate_id,
                "influence": result.best_influence,
                "influences": {str(j): v for j, v in result.influences.items()},
            }
            seen = {
                "best": got["best_candidate"]["id"],
                "influence": got["best_influence"],
                "influences": got["influences"],
            }
            if seen != expected:
                problems.append(
                    f"{body['tenant']} answer {seen['best']}:{seen['influence']} "
                    f"!= reference {expected['best']}:{expected['influence']}"
                )
    return len(picks), problems


def latencies(replies, tenant: str) -> list[float]:
    return [r.latency_ms for r in replies
            if r.ok and r.request.tenant == tenant] or [0.0]


def _series(samples: dict, name: str, **labels) -> float:
    inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
    return samples.get(f"{name}{{{inner}}}" if inner else name, 0.0)


def run(seed: int, seconds: float, trace: bool, sizes: Sizes = Sizes()) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(seed)
    world = make_world(sizes.scale)
    traffic = Traffic(world, rng, sizes, seconds)
    conns = nproc()
    server = ServerProcess(sizes.scale, trace)

    def send(request: Request):
        return http_post("127.0.0.1", server.port, "/v1/query",
                         request.body, REQUEST_TIMEOUT_S)

    taken = 0

    async def closed_loop(duration):
        # phase B has one client: concurrent requests share the CPUs,
        # and how much of the second vCPU a request gets varies from
        # run to run on a virtual machine (phase A keeps the overlap)
        nonlocal taken
        replies = await run_closed_loop(
            traffic.closed_sequence[taken:], send, 1, duration,
            between=out.host.sample)
        taken += len(replies)
        return replies

    try:
        server.setup(sizes.setups // 2)
        before = server.metrics()
        if trace:
            stats_a = server.command("trace on")["stats"]
        open_replies = asyncio.run(
            run_open_loop(traffic.open_schedule, send, conns)
        )
        if trace:
            dump_a = server.command("trace off")
        after_a = server.metrics()
        if trace:
            # phase B alternates untraced and traced slices of about a
            # second: the tracing overhead, measured against drift
            plain, traced = [], []
            closed_s = traffic.closed_s
            slices = max(2, round(traffic.closed_s))
            for k in range(slices):
                if k % 2:
                    server.command("trace on")
                part = asyncio.run(closed_loop(traffic.closed_s / slices))
                if k % 2:
                    server.command("trace off")
                (traced if k % 2 else plain).extend(part)
            closed_replies = plain + traced
        else:
            closed_started = time.perf_counter()
            closed_replies = asyncio.run(closed_loop(traffic.closed_s))
            # the last answers arrive after the phase's nominal end
            closed_s = time.perf_counter() - closed_started
        after = server.metrics()
        server.setup(sizes.setups - sizes.setups // 2)
    finally:
        rss = server.stop()

    replies = open_replies + closed_replies
    out.attempted = len(replies)
    for reply in replies:
        if not reply.ok:
            out.fail(f"{reply.request.tenant}: status {reply.status}, "
                     f"error {reply.error}")
    checked, problems = reference_check(
        world, replies, np.random.default_rng(seed + 1), CHECK_SAMPLE,
    )
    out.attempted += checked
    for problem in problems:
        out.fail(problem)

    def goodput(tenant):
        good = [r for r in closed_replies if r.ok and r.request.tenant == tenant
                and r.latency_ms <= GOODPUT_LIMIT_S * 1000.0]
        return len(good) / closed_s

    # The end-to-end latencies are phase B's: phase A's due-time
    # latencies sit behind a queue that amplifies drift in host speed
    # past any usable bound, so they are reported by the traced run.
    out.metrics = {
        "setup_s": median(server.setup_s),
        "peak_rss_mb": rss,
        "a_p50_ms": median(latencies(closed_replies, "interactive")),
        "b_p50_ms": median(latencies(closed_replies, "analyst")),
        "a_per_s": goodput("interactive"),
        "b_per_s": goodput("analyst"),
    }
    if trace:
        out.layers = _layers(
            open_replies, plain, traced, dump_a, stats_a, before, after_a,
            after, server.table_s,
        )
    return out


def _layers(open_replies, plain, traced, dump, stats_before, before,
            after_a, after, table_s) -> dict:
    """Per-layer metrics of phase A (traced throughout)."""
    endpoint = {"endpoint": "/v1/query"}
    request_s = (
        _series(after_a, "pinls_http_request_seconds_sum", **endpoint)
        - _series(before, "pinls_http_request_seconds_sum", **endpoint)
    )
    requests = (
        _series(after_a, "pinls_http_request_seconds_count", **endpoint)
        - _series(before, "pinls_http_request_seconds_count", **endpoint)
    )
    spans = dump["spans"]
    engine_s = total_seconds(spans, "engine.session")
    queries = calls(spans, "engine.session")
    ok = [r for r in open_replies if r.ok]
    client_s = sum(r.client_ms for r in ok) / 1000.0
    due_s = sum(r.latency_ms for r in ok) / 1000.0
    # one tree per request: client -> front end -> engine layers; the
    # remainder of the due-time latency is slot wait and lateness
    tree = {
        "layers": dict(spans["layers"]),
        "root_s": client_s,
    }
    tree["layers"]["client"] = {"calls": len(ok), "total_s": client_s,
                                "self_s": client_s - request_s}
    tree["layers"]["engine.server"] = {"calls": requests, "total_s": request_s,
                                       "self_s": request_s - engine_s}

    inst = dump["instrumentation"]
    vo = inst.get("PIN-VO", {})
    everything = {}
    for alg in inst.values():
        for key, value in alg.items():
            everything[key] = everything.get(key, 0) + value
    pairs = everything.get("pairs_total", 0)
    ia = everything.get("pairs_pruned_ia", 0)
    nib = everything.get("pairs_pruned_nib", 0)
    stats = dump["stats"]
    pruning_hits = stats["pruning_hits"] - stats_before["pruning_hits"]
    pruning_misses = stats["pruning_misses"] - stats_before["pruning_misses"]
    prune_s = self_seconds(spans, "core.pruning")
    n_vo = vo.get("queries", 0)
    return {
        "object_table.build_s": median(table_s),
        "pruning.s_per_query": ratio(prune_s, queries),
        "pruning.pairs_per_s": ratio(pairs, prune_s),
        "pruning.ia_pairs": ratio(ia, queries),
        "pruning.nib_pairs": ratio(nib, queries),
        "pruning.band_share": ratio(pairs - ia - nib, pairs),
        "influence.s_per_query": ratio(
            self_seconds(spans, "core.influence"), queries),
        "influence.pairs_validated": ratio(
            everything.get("pairs_validated", 0), queries),
        "influence.position_savings": 1.0 - ratio(
            everything.get("positions_evaluated", 0),
            everything.get("positions_total", 0),
        ) if everything.get("positions_total") else 0.0,
        "influence.early_stops": ratio(everything.get("early_stops", 0), queries),
        "pinocchio_vo.heap_pops": ratio(vo.get("heap_pops", 0), n_vo),
        "pinocchio_vo.fully_validated": ratio(
            vo.get("candidates_fully_validated", 0), n_vo),
        "pinocchio_vo.skipped": ratio(
            vo.get("candidates_skipped_strategy1", 0), n_vo),
        "session.overhead_ms": ratio(
            self_seconds(spans, "engine.session"), queries) * 1000.0,
        "session.pruning_cache_hit_rate": ratio(
            pruning_hits, pruning_hits + pruning_misses),
        "session.table_hits": ratio(
            stats["table_hits"] - stats_before["table_hits"], queries),
        "server.request_ms": ratio(request_s, requests) * 1000.0,
        "server.frontend_overhead_ms": ratio(request_s - engine_s, queries)
        * 1000.0,
        "client.overhead_ms": ratio(client_s - request_s, len(ok))
        * 1000.0,
        "client.lateness_p90_ms": quantile(
            [r.lateness_ms for r in open_replies], 0.9),
        **{
            f"openloop.{tenant}_{name}_ms": quantile(
                latencies(open_replies, tenant), q)
            for tenant in TENANTS
            for name, q in (("p50", 0.5), ("p90", 0.9))
        },
        **{
            f"admission.sheds_{tenant}": sum(
                value for series, value in after.items()
                if series.startswith("pinls_http_sheds_total{")
                and f'tenant="{tenant}"' in series
            )
            for tenant in TENANTS
        },
        "trace.overhead_pct": (ratio(
            median([r.latency_ms for r in traced if r.ok] or [0.0]),
            median([r.latency_ms for r in plain if r.ok] or [0.0]),
        ) - 1.0) * 100.0,
        **shares(tree, due_s),
    }
