"""Spans opened from outside the program, around its public entry points.

The traced pass installs wrappers on a fixed list of public methods
and functions (:data:`LAYERS`); ``src/`` itself is never changed.  A
wrapper records nothing while its :class:`SpanRecorder` is disabled,
so one process can alternate traced and untraced operations and
report the tracing overhead.

Spans are aggregated in memory per layer: call count, total time and
self time (the span minus the time its child spans cover).  Nesting is
tracked per thread, so the front end's executor threads each build
their own trees.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

from common import ratio

#: (layer, module, attribute path) of every wrapped entry point.  Names
#: imported into a consumer module are wrapped where they are called
#: from, so the same kernel counts wherever it runs.
LAYERS = (
    ("engine.session", "repro.engine.session", "QueryEngine.query"),
    ("core.object_table", "repro.engine.session", "QueryEngine.table_for"),
    ("core.pruning", "repro.core.pinocchio_vo", "PinocchioVO.pruning_phase"),
    ("core.pruning", "repro.core.pinocchio", "Pinocchio.compute_influence"),
    ("core.pruning", "repro.engine.subscriptions", "classify_span"),
    ("core.pinocchio_vo", "repro.core.pinocchio_vo",
     "PinocchioVO.validation_phase"),
    ("core.influence", "repro.core.pinocchio_vo", "batch_validate_spans"),
    ("core.influence", "repro.core.pinocchio_vo", "validate_pair"),
    ("core.influence", "repro.core.pinocchio", "batch_log_non_influence"),
    ("core.influence", "repro.core.pinocchio", "validate_pair"),
    ("core.influence", "repro.engine.subscriptions", "validate_pair"),
    ("engine.subscriptions", "repro.engine.subscriptions",
     "SubscriptionEngine.subscribe"),
    ("engine.subscriptions", "repro.engine.subscriptions",
     "SubscriptionEngine.ingest_batch"),
)


class SpanRecorder:
    """Per-layer span aggregates; see the module docstring."""

    def __init__(self):
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = defaultdict(int)
            self.total = defaultdict(float)
            self.self_time = defaultdict(float)
            #: summed duration of spans opened with no parent
            self.root_seconds = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the block as layer ``name`` (a no-op while disabled)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        frame = [0.0]  # seconds covered by child spans
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            with self._lock:
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_seconds += elapsed

    def wrap(self, owner, attr: str, layer: str) -> None:
        """Replace ``owner.attr`` with a spanned call-through."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if not recorder.enabled:
                return original(*args, **kwargs)
            with recorder.span(layer):
                return original(*args, **kwargs)

        # class attributes are read from __dict__ so restore() puts back
        # exactly what was there (a plain function, not a bound method)
        saved = owner.__dict__[attr] if isinstance(owner, type) else original
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, spanned)

    def install(self, layers=LAYERS) -> "SpanRecorder":
        """Wrap every entry point in ``layers``; returns ``self``."""
        for layer, module_name, path in layers:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            self.wrap(owner, attr, layer)
        return self

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._patches:
            owner, attr, saved = self._patches.pop()
            setattr(owner, attr, saved)

    def snapshot(self) -> dict:
        """JSON-ready aggregates: ``{layer: {calls, total_s, self_s}}``."""
        with self._lock:
            layers = {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in self.calls
            }
            return {"layers": layers, "root_s": self.root_seconds}


def self_seconds(snapshot: dict, layer: str) -> float:
    entry = snapshot["layers"].get(layer)
    return entry["self_s"] if entry else 0.0


def total_seconds(snapshot: dict, layer: str) -> float:
    entry = snapshot["layers"].get(layer)
    return entry["total_s"] if entry else 0.0


def calls(snapshot: dict, layer: str) -> int:
    entry = snapshot["layers"].get(layer)
    return entry["calls"] if entry else 0


#: the layers every traced workload splits its wall time into
SHARE_LAYERS = (
    ("client", "client.share"),
    ("engine.server", "server.share"),
    ("engine.session", "session.share"),
    ("core.object_table", "object_table.share"),
    ("core.pruning", "pruning.share"),
    ("core.pinocchio_vo", "pinocchio_vo.share"),
    ("core.influence", "influence.share"),
    ("engine.subscriptions", "subscriptions.share"),
)


def shares(snap: dict, wall_s: float) -> dict:
    """Self time per layer as a share of ``wall_s``; the remainder
    (time outside every span) is ``unattributed.share``."""
    out = {
        metric: ratio(self_seconds(snap, layer), wall_s)
        for layer, metric in SHARE_LAYERS
    }
    out["unattributed.share"] = ratio(wall_s - snap["root_s"], wall_s)
    return out
