"""The ``http-mixed`` server process: the front end over a serial engine.

Started by ``httpmixed.py``; builds the world, then answers commands
that arrive one per line on stdin, each with one JSON line:

* ``setup`` — tear down the current front end and engine, if any, and
  set up anew; answers ``{"port", "setup_s", "table_s"}``.  The set-up
  is timed here, from engine construction until this process's own
  ``/healthz`` request first answers 200, so the parent's scheduling
  is not part of it,
* ``trace on`` — reset and enable the spans (``--trace 1`` only),
* ``trace off`` — disable them; answers the span aggregates, the
  summed ``LSResult.instrumentation`` per algorithm and the engine's
  cache counters,
* ``stop`` (or end of input) — drain, answer the peak RSS, and exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import asdict

from common import peak_rss_mb, use_source_tree

TAU = 0.7


def make_world(scale: float):
    """The served world: fixed, so every seed meets the same skew.

    ``gowalla_like`` with its preset seed; the run's seed draws the
    traffic.  (Small skewed worlds differ in query cost from seed to
    seed by more than the benchmark's bounds.)
    """
    from repro.datasets import gowalla_like

    return gowalla_like(scale=scale)


class InstrumentationTap:
    """Sums the ``LSResult.instrumentation`` of every answered query."""

    def __init__(self, recorder):
        self.recorder = recorder
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.totals: dict = {}
            self.queries: dict = {}

    def install(self, engine_cls) -> None:
        original = engine_cls.query
        tap = self

        def tapped(engine, *args, **kwargs):
            result = original(engine, *args, **kwargs)
            if tap.recorder.enabled:
                tap.add(result)
            return result

        engine_cls.query = tapped

    def add(self, result) -> None:
        from repro.core.result import Instrumentation

        with self._lock:
            total = self.totals.setdefault(result.algorithm, Instrumentation())
            total.merge(result.instrumentation)
            self.queries[result.algorithm] = (
                self.queries.get(result.algorithm, 0) + 1
            )

    def snapshot(self) -> dict:
        with self._lock:
            return {
                alg: {"queries": self.queries[alg], **asdict(inst)}
                for alg, inst in self.totals.items()
            }


def wait_healthy(port: int, timeout: float = 60.0) -> None:
    """Poll ``/healthz`` until it answers 200."""
    deadline = time.perf_counter() + timeout
    url = f"http://127.0.0.1:{port}/healthz"
    while time.perf_counter() < deadline:
        try:
            with urllib.request.urlopen(url, timeout=5) as resp:
                if resp.status == 200:
                    return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.001)
    raise RuntimeError(f"server not healthy within {timeout:.0f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    from repro import PowerLawPF, QueryEngine
    from repro.engine import BackgroundServer, TenantAdmission, TenantBudget
    from repro.model import MovingObject

    from tracing import SpanRecorder

    world = make_world(args.scale)
    recorder = tap = None
    if args.trace:
        recorder = SpanRecorder().install()
        tap = InstrumentationTap(recorder)
        tap.install(QueryEngine)
    # the `prime-ls serve` defaults: 4 in flight per tenant, reject
    tenants = TenantAdmission(
        default=TenantBudget(max_inflight=4, policy="reject")
    )

    engine = server = objects = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "setup":
                if server is not None:
                    server.stop()
                    # the peak RSS holds one generation of program state
                    engine = server = objects = None
                    gc.collect()
                # fresh wrappers: no MBR memoised by an earlier set-up
                objects = [
                    MovingObject.from_readonly(o.object_id, o.positions)
                    for o in world.dataset.objects
                ]
                started = time.perf_counter()
                engine = QueryEngine(objects)
                t0 = time.perf_counter()
                engine.table_for(PowerLawPF(), TAU)
                table_s = time.perf_counter() - t0
                server = BackgroundServer(engine, tenants=tenants)
                wait_healthy(server.port)
                reply = {"port": server.port,
                         "setup_s": time.perf_counter() - started,
                         "table_s": table_s}
            elif command == "trace on" and recorder is not None:
                recorder.reset()
                tap.reset()
                recorder.enabled = True
                reply = {"stats": engine.stats.as_dict()}
            elif command == "trace off" and recorder is not None:
                recorder.enabled = False
                reply = {
                    "spans": recorder.snapshot(),
                    "instrumentation": tap.snapshot(),
                    "stats": engine.stats.as_dict(),
                }
            elif command == "stop":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
    finally:
        if server is not None:
            server.stop()
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
