"""Summarise one set of benchmark runs, or compare two.

::

    python3 perfbench/compare.py runs/parent              # spread check
    python3 perfbench/compare.py runs/parent runs/change  # regressions

A set is a directory holding the standard output of each ``run.py``
run, one file per run, under any name; the host line names the
workload and whether the run was traced.  For every workload × metric
it prints the median and quartiles (``statistics.quantiles(values,
n=4)``).  With one set, the spread (interquartile range over median)
of each end-to-end metric is checked against that metric's bound in
``BENCHMARK.json``.  With two, the change of the median is checked
against the bound in the metric's "worse" direction, and a metric
whose base spread exceeds its bound is reported unresolved rather
than unchanged.  Per-layer metrics (traced runs) are listed
without bounds.  Exits 1 when any check flags or any run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from common import load_spec


def load_set(directory: Path) -> tuple[dict, list[str]]:
    """``{(workload, trace): {metric: [values]}}`` and failed runs."""
    values: dict = defaultdict(lambda: defaultdict(list))
    failed = []
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        try:
            host = json.loads(lines[0])["host"]
            result = json.loads(lines[-1])
            result["correct"]
        except (IndexError, KeyError, json.JSONDecodeError):
            failed.append(f"{path.name}: no result")
            continue
        if not result["correct"] or result["failed"]:
            failed.append(f"{path.name}: {result['failed']} failed")
        key = (host["workload"], host["trace"])
        for name, metric in result["metrics"].items():
            values[key][name].append(metric["value"])
    return values, failed


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args(argv)

    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, failed = load_set(args.base)
    change, failed_change = (
        load_set(args.change) if args.change else ({}, [])
    )
    flags = 0
    for line in failed + failed_change:
        print(f"FAILED RUN {line}")
        flags += 1
    for key in sorted(base):
        workload, trace = key
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}) ==")
        for name, vals in base[key].items():
            q1, med, q3 = summary(vals)
            row = f"{name:42s} n={len(vals):2d} {_fmt(med):>10s} [{_fmt(q1)}, {_fmt(q3)}]"
            metric = bounds.get(name) if not trace else None
            if metric is None:
                print(row)
                continue
            bound = metric["bound"]
            noisy = spread(vals) > bound
            row += f" spread {spread(vals):.3f}/{bound}"
            new = change.get(key, {}).get(name)
            if new:
                _, new_med, _ = summary(new)
                worse = (new_med - med) / med
                if metric["better"] == "higher":
                    worse = -worse
                row += f" -> {_fmt(new_med)} ({worse:+.1%} worse)"
                if noisy:
                    row += " UNRESOLVED"
                elif worse > bound:
                    row += " REGRESSION"
                    flags += 1
            elif noisy:
                row += " NOISY"
                flags += 1
            print(row)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
