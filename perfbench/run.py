"""The canonical benchmark: one seeded workload run, checked, as JSON.

::

    python3 perfbench/run.py --workload oneshot-large --seed 1 \\
        --seconds 20 --trace 0

Run from the checkout root.  The program is imported from ``src/``
(nothing is installed).  Standard output carries one ``host`` JSON
line (CPU count and model, Python and numpy versions, commit, seed),
then a ``measured`` line (the metrics as timed, and the run's median
probe time), then, as its last line, the result::

    {"correct": true, "attempted": 31, "failed": 0,
     "metrics": {"a_p50_ms": {"value": 2712.4, "unit": "ms"}, ...}}

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
times and rates scaled to the reference host speed
(:class:`common.HostSpeed`); ``--trace 1`` runs the same workload with
spans around the program's entry points and prints the per-layer
metrics instead, as measured (0 for a layer the workload does not
reach).  Every failed check is listed on standard error; the exit
code is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import host_facts, load_spec, stop_helpers, use_source_tree


def workloads() -> dict:
    import httpmixed
    import oneshot
    import stream

    return {
        "oneshot-large": oneshot.run,
        "http-mixed": httpmixed.run,
        "stream-ingest": stream.run,
    }


def at_reference_speed(value: float, unit: str, scale: float) -> float:
    """``value`` as the reference host would have measured it."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def result_line(outcome, spec: dict, trace: bool) -> dict:
    """The final JSON object; refuses names ``BENCHMARK.json`` lacks."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = outcome.layers if trace else outcome.metrics
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {unknown}")
    scale = 1.0 if trace else outcome.host.scale()
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {
                "value": at_reference_speed(
                    float(measured.get(name, 0.0)), unit, scale
                ),
                "unit": unit,
            }
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    print(json.dumps({"host": host_facts(args.workload, args.seed,
                                         bool(args.trace))}), flush=True)
    try:
        outcome = workloads()[args.workload](args.seed, args.seconds,
                                             bool(args.trace))
    finally:
        stop_helpers()
    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "measured": outcome.layers if args.trace else outcome.metrics,
        "probe_ms": outcome.host.probe_median_ms(),
    }), flush=True)
    print(json.dumps(result_line(outcome, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
