"""Shared helpers: the repo layout, statistics, memory, host facts.

Every workload module returns an :class:`Outcome`; ``run.py`` turns it
into the one-line JSON result.  Nothing here imports the program, so
the helpers stay usable in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout root: the parent of this benchmark's directory
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"


def use_source_tree() -> None:
    """Import the program from the checkout's ``src/`` (no install).

    Exits when the checkout has no program: an installed copy elsewhere
    would be measured in its place.
    """
    if not (SRC / "repro").is_dir():
        sys.exit(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json`` as a dict (metric names, units, bounds)."""
    return json.loads(SPEC_PATH.read_text())


def nproc() -> int:
    """CPUs this process may run on (the connection and worker cap)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: the reference host speed: the probe loop takes this long on it, so
#: at that speed a scaled time equals the measured one
PROBE_REF_MS = 1.0
#: iterations of the probe loop (about 1 ms of pure Python on a
#: 2-vCPU Xeon virtual machine with Python 3.11)
PROBE_LOOPS = 15_000


def probe_ms() -> float:
    """Time one pass of a fixed pure-Python loop, in milliseconds."""
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return (time.perf_counter() - started) * 1000.0


class HostSpeed:
    """How fast the host ran a fixed loop between a run's operations.

    On a virtual machine shared with other tenants the same code runs
    up to 1.6x slower for seconds to minutes at a time, both CPUs at
    once, so a run's times follow the host more than the program.  A
    workload calls :meth:`sample` between the queries, requests or
    batches it times (never inside them); at most every ``GAP_S`` that
    times ``BURST`` probe loops.  :meth:`scale` is the reference speed
    over the run's median probe time: a measured time times ``scale``
    is the time at the reference speed.
    """

    GAP_S = 0.1
    BURST = 3

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        if time.perf_counter() - self._last < self.GAP_S:
            return
        self.samples.extend(probe_ms() for _ in range(self.BURST))
        self._last = time.perf_counter()

    def probe_median_ms(self) -> float:
        if not self.samples:
            self.sample()
        return median(self.samples)

    def scale(self) -> float:
        return PROBE_REF_MS / self.probe_median_ms()


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps metric names to values; ``failures`` lists one
    line per failed check or operation (printed to stderr).
    """

    attempted: int = 0
    failed: int = 0
    #: end-to-end metrics as measured (printed by untraced runs,
    #: times and rates scaled to the reference host speed)
    metrics: dict = field(default_factory=dict)
    #: per-layer metrics (printed by traced runs)
    layers: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    host: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.failures


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was measured."""
    return num / den if den else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Lifetime peak resident set size in MiB (``ru_maxrss`` is KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def stop_helpers() -> None:
    """Stop and wait for the resource tracker the program leaves behind.

    The worker pool starts multiprocessing's resource tracker, which by
    design outlives its parent; a run must not.  Closing the tracker's
    pipe ends it, and the wait reaps it.  No-op when none was started.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree.

    The search stops at the checkout root, so a repository enclosing
    the checkout is never mistaken for it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(workload: str, seed: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }
