"""The benchmark's own tests, at tiny sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import compare
import httpmixed
import oneshot
import stream
from common import PROBE_REF_MS, ROOT, HostSpeed, Outcome, load_spec, quantile
from openloop import Request, run_open_loop
from run import result_line

WORKLOADS = {
    "oneshot-large": (oneshot.run, oneshot.TINY),
    "http-mixed": (httpmixed.run, httpmixed.TINY),
    "stream-ingest": (stream.run, stream.TINY),
}


def _run(workload, trace=False):
    run, tiny = WORKLOADS[workload]
    return run(seed=3, seconds=1.0, trace=trace, sizes=tiny)


async def _answer_after(request, seconds=0.001):
    await asyncio.sleep(seconds)
    return 200, {}


def _schedule(count, gap):
    return [Request(i * gap, "t", b"{}") for i in range(count)]


def test_generator_stall_shows_in_due_time_latency():
    schedule = _schedule(40, 0.01)
    calm = asyncio.run(run_open_loop(schedule, _answer_after, max_conns=2))
    stalled = asyncio.run(run_open_loop(
        schedule, _answer_after, max_conns=2, stall=(0.1, 0.3)
    ))
    assert max(r.latency_ms for r in calm) < 150.0
    # requests due while the loop was blocked are late by up to the
    # stall, and their latency counts it
    assert max(r.latency_ms for r in stalled) >= 250.0
    assert quantile([r.lateness_ms for r in stalled], 0.9) >= 100.0
    # the client-side time of each exchange is unaffected
    assert max(r.client_ms for r in stalled) < 150.0


def test_slot_waits_count_in_due_time_latency():
    schedule = _schedule(10, 0.01)

    async def slow(request):
        return await _answer_after(request, 0.05)

    replies = asyncio.run(run_open_loop(schedule, slow, max_conns=1))
    # one connection serves 50 ms answers due every 10 ms: the last
    # request waits for the nine before it
    assert replies[-1].latency_ms >= 9 * 50.0 - 9 * 10.0
    assert all(r.ok for r in replies)


def _one_too_high(result):
    """``result`` with its winner's and every candidate's influence + 1."""
    return dataclasses.replace(
        result,
        best_influence=result.best_influence + 1,
        influences={j: v + 1 for j, v in result.influences.items()},
    )


def _wrong_pool(monkeypatch, algorithm):
    """The pool engine answers ``algorithm`` queries wrongly."""
    setup = oneshot._setup

    def wrong_setup(*args):
        serial, pool, *rest = setup(*args)
        query = pool.query

        def wrong_query(*a, **kw):
            result = query(*a, **kw)
            return _one_too_high(result) if result.algorithm == algorithm else result

        pool.query = wrong_query
        return (serial, pool, *rest)

    monkeypatch.setattr(oneshot, "_setup", wrong_setup)


def _wrong_http_replies(monkeypatch):
    """Every answered request comes back with a wrong influence."""
    check = httpmixed.reference_check

    def on_wrong_replies(world, replies, *args):
        for reply in replies:
            if reply.ok:
                reply.payload["best_influence"] += 1
        return check(world, replies, *args)

    monkeypatch.setattr(httpmixed, "reference_check", on_wrong_replies)


def _wrong_snapshots(monkeypatch):
    """Every maintained snapshot reads one too high."""
    from repro.engine import SubscriptionEngine

    snapshot = SubscriptionEngine.snapshot

    def wrong_snapshot(self, subscription_id):
        snap = snapshot(self, subscription_id)
        return dataclasses.replace(
            snap, influences=tuple(v + 1 for v in snap.influences)
        )

    monkeypatch.setattr(SubscriptionEngine, "snapshot", wrong_snapshot)


@pytest.mark.parametrize("workload,falsify", [
    ("oneshot-large", lambda mp: _wrong_pool(mp, "PIN-VO")),
    ("oneshot-large", lambda mp: _wrong_pool(mp, "PIN")),
    ("http-mixed", _wrong_http_replies),
    ("stream-ingest", _wrong_snapshots),
], ids=["pool-vs-serial", "pin-table", "http-reference", "stream-snapshot"])
def test_corrupted_answer_fails_the_check(monkeypatch, workload, falsify):
    falsify(monkeypatch)
    outcome = _run(workload)
    assert not outcome.correct
    assert outcome.failed >= 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_metric_names_match_benchmark_json(workload, trace):
    spec = load_spec()
    outcome = _run(workload, trace=trace)
    assert outcome.correct, outcome.failures
    line = result_line(outcome, spec, trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for name, metric in line["metrics"].items():
        assert metric["unit"] == {m["name"]: m["unit"] for m in declared}[name]
    if not trace:
        # end-to-end metrics are measured on every workload, never filled
        assert set(outcome.metrics) == {m["name"] for m in declared}
        assert all(v > 0 for v in outcome.metrics.values())
    assert json.loads(json.dumps(line)) == line


def test_operation_times_scale_to_the_reference_speed():
    spec = load_spec()
    measured = {m["name"]: 10.0 for m in spec["end_to_end"]}
    host = HostSpeed()
    # the probe ran twice as slow as on the reference host
    host.samples = [2.0 * PROBE_REF_MS] * 3
    line = result_line(Outcome(metrics=measured, host=host), spec, False)
    values = {name: m["value"] for name, m in line["metrics"].items()}
    assert values["a_p50_ms"] == values["b_p50_ms"] == values["setup_s"] == 5.0
    assert values["a_per_s"] == values["b_per_s"] == 20.0
    assert values["peak_rss_mb"] == 10.0


def test_probe_samples_are_spaced_out(monkeypatch):
    monkeypatch.setattr(HostSpeed, "GAP_S", 60.0)
    host = HostSpeed()
    for _ in range(5):
        host.sample()
    assert len(host.samples) == HostSpeed.BURST
    assert host.probe_median_ms() > 0.0


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "http-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _write_set(directory, values):
    directory.mkdir()
    for seed, value in enumerate(values):
        host = {"host": {"workload": "w", "trace": 0, "seed": seed}}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"a_p50_ms": {"value": value, "unit": "ms"}}}
        (directory / f"run{seed}").write_text(
            json.dumps(host) + "\n" + json.dumps(result) + "\n"
        )


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    _write_set(tmp_path / "base", [100, 101, 99, 100, 102])
    _write_set(tmp_path / "same", [101, 100, 99, 100, 101])
    _write_set(tmp_path / "slow", [150, 151, 149, 150, 152])
    assert compare.main([str(tmp_path / "base")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "slow")]) == 1
    assert "REGRESSION" in capsys.readouterr().out
