"""Command-line interface: ``prime-ls <experiment>`` or ``python -m repro``.

Runs any of the paper's experiments and prints its table; ``list``
shows what is available.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

import repro.experiments as experiments


def _registry() -> dict[str, tuple[str, Callable[[], object]]]:
    """Experiment name -> (description, zero-arg runner)."""
    return {
        "table2": (
            "dataset statistics vs the paper's Table 2",
            experiments.run_table2,
        ),
        "precision": (
            "Tables 3-4: P@K / AP@K of PRIME-LS vs RANGE vs BRNN*",
            lambda: experiments.run_precision_experiment(groups=10),
        ),
        "fig8-f": (
            "Fig 8: runtime vs #candidates (Foursquare-like)",
            lambda: experiments.run_candidate_scalability("F"),
        ),
        "fig8-g": (
            "Fig 8: runtime vs #candidates (Gowalla-like)",
            lambda: experiments.run_candidate_scalability("G"),
        ),
        "fig9": (
            "Fig 9: runtime vs #objects (Gowalla-like)",
            lambda: experiments.run_object_scalability("G"),
        ),
        "fig10-f": (
            "Fig 10: pruning effect vs tau (Foursquare-like)",
            lambda: experiments.run_pruning_effect("F"),
        ),
        "fig10-g": (
            "Fig 10: pruning effect vs tau (Gowalla-like)",
            lambda: experiments.run_pruning_effect("G"),
        ),
        "remark": (
            "S4.3 Remark: analytic vs measured pruning model",
            experiments.run_pruning_model_check,
        ),
        "fig11a": (
            "Fig 11a / Table 5: effect of n (natural groups)",
            lambda: experiments.run_effect_n_groups("G"),
        ),
        "fig11b": (
            "Fig 11b: effect of n (subsampled instances)",
            lambda: experiments.run_effect_n_resampled("G"),
        ),
        "fig12-f": (
            "Fig 12: effect of tau (Foursquare-like)",
            lambda: experiments.run_effect_tau("F"),
        ),
        "fig12-g": (
            "Fig 12: effect of tau (Gowalla-like)",
            lambda: experiments.run_effect_tau("G"),
        ),
        "fig13": (
            "Fig 13: <n, tau> level curve",
            lambda: experiments.run_n_tau_levelcurve("G"),
        ),
        "fig14-f": (
            "Fig 14: effect of lambda (Foursquare-like)",
            lambda: experiments.run_effect_lambda("F"),
        ),
        "fig14-g": (
            "Fig 14: effect of lambda (Gowalla-like)",
            lambda: experiments.run_effect_lambda("G"),
        ),
        "fig15-f": (
            "Fig 15: effect of rho (Foursquare-like)",
            lambda: experiments.run_effect_rho("F"),
        ),
        "fig15-g": (
            "Fig 15: effect of rho (Gowalla-like)",
            lambda: experiments.run_effect_rho("G"),
        ),
        "fig16": (
            "Fig 16: alternative probability functions",
            lambda: experiments.run_pf_variants("F"),
        ),
        "sampling": (
            "S6.2: how many trajectory samples suffice (24-48 claim)",
            experiments.run_sampling_tradeoff,
        ),
        "stability": (
            "extension: bootstrap/noise robustness of the mined location",
            experiments.run_location_stability,
        ),
    }


def _cmd_demo(out_svg: str | None) -> int:
    """Solve the quickstart world and optionally render the scene."""
    import numpy as np

    from repro import PowerLawPF, select_location
    from repro.datasets import tiny_demo

    world = tiny_demo()
    dataset = world.dataset
    candidates, _ = dataset.sample_candidates(40, np.random.default_rng(0))
    pf = PowerLawPF()
    result = select_location(dataset.objects, candidates, pf=pf, tau=0.7)
    best = result.best_candidate
    print(
        f"optimal location: candidate {best.candidate_id} at "
        f"({best.x:.2f}, {best.y:.2f}) km, influence "
        f"{result.best_influence}/{dataset.n_objects}"
    )
    print(
        f"pruned {result.instrumentation.pruned_fraction():.0%} of pairs, "
        f"{result.elapsed_seconds * 1000:.1f} ms"
    )
    if out_svg:
        from repro.viz import render_scene
        from repro.viz.scene import save_scene

        svg = render_scene(dataset.objects[:4], candidates, pf, 0.7, best=best)
        print(f"scene written to {save_scene(out_svg, svg)}")
    return 0


def _cmd_export(registry, name: str, out_csv: str) -> int:
    from repro.experiments.export import export_result

    if name not in registry:
        print(f"unknown experiment {name!r}; run 'prime-ls list'", file=sys.stderr)
        return 2
    __, runner = registry[name]
    result = runner()
    print(result.render())
    print(f"\nCSV written to {export_result(result, out_csv)}")
    return 0


def _cmd_trace_summary(path: str | None) -> int:
    """Print the per-phase breakdown of a trace file's span trees."""
    from repro.engine import TraceReadError, read_trace_file, summarize_traces

    if not path:
        print(
            "prime-ls trace-summary: needs a trace file, e.g. "
            "'prime-ls trace-summary traces.jsonl' (write one with "
            "'prime-ls serve-bench --trace traces.jsonl')",
            file=sys.stderr,
        )
        return 2
    try:
        traces = read_trace_file(path)
    except TraceReadError as exc:
        print(f"prime-ls trace-summary: {exc}", file=sys.stderr)
        return 2
    print(summarize_traces(traces))
    return 0


def _cmd_serve(
    port: int,
    host: str,
    workers: int,
    approx: bool,
    max_inflight: int | None,
    max_queue_depth: int | None,
    shed_policy: str | None,
    drain_seconds: float | None,
    inject_faults: list[str] | None,
) -> int:
    """Run the HTTP front end over a synthetic world until SIGTERM."""
    from repro.engine import (
        SHED_POLICIES,
        FaultSpec,
        TenantAdmission,
        TenantBudget,
        build_serving_engine,
        run_server,
    )

    if not 0 <= port <= 65535:
        print(f"--port must be in [0, 65535], got {port}", file=sys.stderr)
        return 2
    if workers < 0:
        print(f"--workers must be >= 0, got {workers}", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight < 1:
        print(
            f"--max-inflight must be >= 1, got {max_inflight}",
            file=sys.stderr,
        )
        return 2
    if max_queue_depth is not None and max_queue_depth < 0:
        print(
            f"--max-queue-depth must be >= 0, got {max_queue_depth}",
            file=sys.stderr,
        )
        return 2
    if shed_policy is not None and shed_policy not in SHED_POLICIES:
        print(
            f"--shed-policy must be one of {', '.join(SHED_POLICIES)}; "
            f"got {shed_policy!r}",
            file=sys.stderr,
        )
        return 2
    if drain_seconds is not None and drain_seconds < 0:
        print(
            f"--drain-seconds must be >= 0, got {drain_seconds}",
            file=sys.stderr,
        )
        return 2
    faults = []
    for text in inject_faults or []:
        try:
            faults.append(FaultSpec.parse(text))
        except ValueError as exc:
            print(f"--inject-fault: {exc}", file=sys.stderr)
            return 2
    engine, _ = build_serving_engine(
        workers=workers, approx=approx, faults=faults
    )
    tenants = TenantAdmission(
        default=TenantBudget(
            max_inflight=max_inflight if max_inflight is not None else 4,
            max_queue_depth=max_queue_depth,
            policy=shed_policy or "reject",
        )
    )
    from repro.engine.server import DEFAULT_DRAIN_SECONDS

    return run_server(
        engine,
        host=host,
        port=port,
        tenants=tenants,
        drain_seconds=(
            drain_seconds if drain_seconds is not None
            else DEFAULT_DRAIN_SECONDS
        ),
    )


def _cmd_serve_bench_server(
    offered_qps: float,
    duration: float,
    tenants: int,
    workers: int,
    approx: bool,
    max_inflight: int | None,
    shed_policy: str | None,
    server_url: str | None,
) -> int:
    """Open-loop HTTP bench: serve-bench with --server/--server-url."""
    from repro.engine import run_server_bench

    if offered_qps <= 0:
        print(
            f"--offered-qps must be > 0, got {offered_qps}", file=sys.stderr
        )
        return 2
    if duration <= 0:
        print(f"--duration must be > 0, got {duration}", file=sys.stderr)
        return 2
    if tenants < 1:
        print(f"--tenants must be >= 1, got {tenants}", file=sys.stderr)
        return 2
    try:
        out = run_server_bench(
            offered_qps=offered_qps,
            duration=duration,
            tenants=tenants,
            workers=workers,
            approx=approx,
            max_inflight=max_inflight if max_inflight is not None else 2,
            shed_policy=shed_policy or "reject",
            server_url=server_url,
        )
    except ValueError as exc:
        print(f"serve-bench --server: {exc}", file=sys.stderr)
        return 2
    for line in out["summary_lines"]:
        print(line)
    if "drain" in out:
        tenants_snap = out["drain"]["tenants"]
        for name in sorted(tenants_snap):
            snap = tenants_snap[name]
            print(
                f"tenant {name}: offered={snap['offered']} "
                f"admitted={snap['admitted']} shed={snap['shed']} "
                f"(policy {snap['policy']})"
            )
    return 0


def _cmd_serve_bench(
    queries: int,
    workers: int,
    out_csv: str | None,
    deadline: float | None,
    inject_faults: list[str] | None,
    batch: bool = False,
    max_inflight: int | None = None,
    shed_policy: str | None = None,
    breaker: int | None = None,
    trace: str | None = None,
    metrics_port: int | None = None,
    approx: bool = False,
) -> int:
    """Run the warm-vs-cold serving benchmark (see repro.engine.bench)."""
    from repro.engine import SHED_POLICIES, FaultSpec, run_serve_bench
    from repro.engine.faults import WORKER_FAULT_KINDS

    if queries < 1:
        print(f"--queries must be >= 1, got {queries}", file=sys.stderr)
        return 2
    if workers < 0:
        print(f"--workers must be >= 0, got {workers}", file=sys.stderr)
        return 2
    if deadline is not None and deadline <= 0:
        print(f"--deadline must be > 0, got {deadline}", file=sys.stderr)
        return 2
    if max_inflight is not None and max_inflight <= 0:
        print(
            f"--max-inflight must be >= 1, got {max_inflight}",
            file=sys.stderr,
        )
        return 2
    if shed_policy is not None and shed_policy not in SHED_POLICIES:
        print(
            f"--shed-policy must be one of {', '.join(SHED_POLICIES)}; "
            f"got {shed_policy!r}",
            file=sys.stderr,
        )
        return 2
    if shed_policy is not None and max_inflight is None:
        print(
            "--shed-policy needs --max-inflight (admission control is "
            "off without an in-flight budget)",
            file=sys.stderr,
        )
        return 2
    if breaker is not None and breaker <= 0:
        print(f"--breaker must be >= 1, got {breaker}", file=sys.stderr)
        return 2
    if metrics_port is not None and not 0 <= metrics_port <= 65535:
        print(
            f"--metrics-port must be in [0, 65535], got {metrics_port}",
            file=sys.stderr,
        )
        return 2
    if trace is not None:
        # Fail fast (exit 2, like every other bad flag) instead of
        # discovering an unwritable trace path mid-benchmark.
        from pathlib import Path

        trace_file = Path(trace)
        try:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
            with open(trace_file, "a"):
                pass
        except OSError as exc:
            print(f"--trace: cannot write {trace!r}: {exc}", file=sys.stderr)
            return 2
    faults = []
    for text in inject_faults or []:
        try:
            faults.append(FaultSpec.parse(text))
        except ValueError as exc:
            print(f"--inject-fault: {exc}", file=sys.stderr)
            return 2
    worker_faults = [f for f in faults if f.kind in WORKER_FAULT_KINDS]
    if worker_faults and workers < 2:
        print(
            "--inject-fault needs --workers >= 2 for worker fault "
            "kinds (they only fire in worker processes)",
            file=sys.stderr,
        )
        return 2
    if batch and workers < 2:
        print(
            "--batch needs --workers >= 2 (a worker pool needs "
            "at least two workers)",
            file=sys.stderr,
        )
        return 2
    result = run_serve_bench(
        n_queries=queries,
        workers=workers,
        deadline_seconds=deadline,
        faults=faults,
        batch=batch,
        max_inflight=max_inflight,
        shed_policy=shed_policy or "reject",
        breaker_threshold=breaker,
        trace_path=trace,
        metrics_port=metrics_port,
        approx=approx,
    )
    print(result.render())
    if out_csv:
        from repro.experiments.export import export_result

        print(f"\nCSV written to {export_result(result, out_csv)}")
    return 0


#: which option flags each command actually consumes; anything else on
#: the command line would be silently dropped, so we reject it instead
_ALLOWED_FLAGS = {
    "demo": {"--svg"},
    "serve-bench": {
        "--csv", "--queries", "--workers", "--deadline", "--inject-fault",
        "--batch", "--max-inflight", "--shed-policy", "--breaker",
        "--trace", "--metrics-port", "--approx", "--server", "--server-url",
        "--offered-qps", "--duration", "--tenants",
    },
    "serve": {
        "--port", "--host", "--workers", "--approx",
        "--max-inflight", "--max-queue-depth", "--shed-policy",
        "--drain-seconds", "--inject-fault",
    },
    "trace-summary": set(),
    "list": set(),
    "report": set(),
    "all": set(),
}
_EXPERIMENT_FLAGS = {"--csv"}


def _check_flags(command: str, provided: set[str], is_experiment: bool) -> int:
    """Exit code 0 if every provided flag is consumed, else 2."""
    allowed = _EXPERIMENT_FLAGS if is_experiment else _ALLOWED_FLAGS.get(
        command, set()
    )
    ignored = sorted(provided - allowed)
    if not ignored:
        return 0
    print(
        f"prime-ls {command}: {', '.join(ignored)} "
        f"{'is' if len(ignored) == 1 else 'are'} not used by this command",
        file=sys.stderr,
    )
    return 2


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    registry = _registry()
    parser = argparse.ArgumentParser(
        prog="prime-ls",
        description="Reproduce the PINOCCHIO paper's experiments.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="list",
        help=(
            "experiment name, 'all', 'list' (default), 'demo', "
            "'serve-bench', 'serve', or 'trace-summary'"
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="with 'trace-summary': the trace JSONL file to summarise",
    )
    parser.add_argument(
        "--svg",
        metavar="PATH",
        help="with 'demo': also render the scene to an SVG file",
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="export the experiment's sweep series to a CSV file",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        metavar="N",
        help="with 'serve-bench': number of measured queries (default 12)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve-bench'/'serve': worker pool size (default 0 = "
            "serial; N >= 2 serves from a pool of N worker processes)"
        ),
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with 'serve-bench': per-query deadline for warm queries",
    )
    parser.add_argument(
        "--inject-fault",
        action="append",
        default=None,
        metavar="SPEC",
        help=(
            "with 'serve-bench': inject a fault, "
            "KIND[:WORKER[:QUERY[:SECONDS]]] with KIND one of "
            "crash/exception/delay (worker kinds) or "
            "overload/memory-pressure/exact-down (parent kinds) and "
            "'*' meaning any (e.g. crash:1, exact-down::2); repeatable"
        ),
    )
    parser.add_argument(
        "--batch",
        action="store_true",
        default=False,
        help=(
            "with 'serve-bench': admit all warm queries in one "
            "query_batch round through the worker pool (needs "
            "--workers >= 2)"
        ),
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve-bench': admission budget for concurrently "
            "admitted warm queries; excess queries are shed (with "
            "--batch, at most N + queue-depth requests per round run)"
        ),
    )
    parser.add_argument(
        "--shed-policy",
        default=None,
        metavar="POLICY",
        help=(
            "with 'serve-bench': which queries to shed when admission "
            "overflows — reject, oldest, or by-priority (needs "
            "--max-inflight)"
        ),
    )
    parser.add_argument(
        "--breaker",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve-bench': consecutive shard failures that trip "
            "an execution tier's circuit breaker (default 3)"
        ),
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help=(
            "with 'serve-bench': append every warm query's span tree "
            "to this JSONL file (read it with 'prime-ls trace-summary "
            "FILE')"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help=(
            "with 'serve-bench': serve the warm engine's Prometheus "
            "page on http://127.0.0.1:PORT/metrics for the bench's "
            "duration (0 = ephemeral port)"
        ),
    )
    parser.add_argument(
        "--approx",
        action="store_true",
        default=False,
        help=(
            "with 'serve-bench': arm the warm engine's approximate "
            "tier — queries shed by admission, or stranded by open "
            "exact-tier breakers (inject with "
            "--inject-fault exact-down), are answered from influence "
            "sketches with an advertised error bound"
        ),
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="with 'serve': port to bind (0 = ephemeral; default 8321)",
    )
    parser.add_argument(
        "--host",
        default=None,
        metavar="HOST",
        help="with 'serve': address to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve': per-tenant waiting-line depth behind "
            "--max-inflight (default: equal to --max-inflight)"
        ),
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with 'serve': how long a SIGTERM drain waits for "
            "in-flight requests before cancelling them (default 5)"
        ),
    )
    parser.add_argument(
        "--server",
        action="store_true",
        default=False,
        help=(
            "with 'serve-bench': benchmark through the HTTP front end "
            "— start an in-process server and drive it with open-loop "
            "Poisson arrivals (see --offered-qps/--duration/--tenants)"
        ),
    )
    parser.add_argument(
        "--server-url",
        default=None,
        metavar="URL",
        help=(
            "with 'serve-bench --server': drive an already-running "
            "front end at http://host:port instead of starting one"
        ),
    )
    parser.add_argument(
        "--offered-qps",
        type=float,
        default=None,
        metavar="QPS",
        help=(
            "with 'serve-bench --server': per-victim-tenant offered "
            "rate; the 'bulk' tenant offers 4x this (default 10)"
        ),
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with 'serve-bench --server': load duration (default 3)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=None,
        metavar="N",
        help=(
            "with 'serve-bench --server': tenant count — one 'bulk' "
            "overloader plus N-1 victims (default 2)"
        ),
    )
    args = parser.parse_args(argv)

    provided = set()
    if args.svg is not None:
        provided.add("--svg")
    if args.csv is not None:
        provided.add("--csv")
    if args.queries is not None:
        provided.add("--queries")
    if args.workers is not None:
        provided.add("--workers")
    if args.deadline is not None:
        provided.add("--deadline")
    if args.inject_fault is not None:
        provided.add("--inject-fault")
    if args.batch:
        provided.add("--batch")
    if args.max_inflight is not None:
        provided.add("--max-inflight")
    if args.shed_policy is not None:
        provided.add("--shed-policy")
    if args.breaker is not None:
        provided.add("--breaker")
    if args.trace is not None:
        provided.add("--trace")
    if args.metrics_port is not None:
        provided.add("--metrics-port")
    if args.approx:
        provided.add("--approx")
    if args.port is not None:
        provided.add("--port")
    if args.host is not None:
        provided.add("--host")
    if args.max_queue_depth is not None:
        provided.add("--max-queue-depth")
    if args.drain_seconds is not None:
        provided.add("--drain-seconds")
    if args.server:
        provided.add("--server")
    if args.server_url is not None:
        provided.add("--server-url")
    if args.offered_qps is not None:
        provided.add("--offered-qps")
    if args.duration is not None:
        provided.add("--duration")
    if args.tenants is not None:
        provided.add("--tenants")
    is_experiment = args.experiment in registry
    code = _check_flags(args.experiment, provided, is_experiment)
    if code:
        return code
    if args.path is not None and args.experiment != "trace-summary":
        print(
            f"prime-ls {args.experiment}: unexpected argument "
            f"{args.path!r} (only 'trace-summary' takes a file)",
            file=sys.stderr,
        )
        return 2

    if args.experiment == "list":
        width = max(len(name) for name in registry)
        for name, (description, _) in registry.items():
            print(f"{name.ljust(width)}  {description}")
        return 0
    if args.experiment == "demo":
        return _cmd_demo(args.svg)
    if args.experiment == "trace-summary":
        return _cmd_trace_summary(args.path)
    if args.experiment == "serve":
        return _cmd_serve(
            port=args.port if args.port is not None else 8321,
            host=args.host or "127.0.0.1",
            workers=args.workers if args.workers is not None else 0,
            approx=args.approx,
            max_inflight=args.max_inflight,
            max_queue_depth=args.max_queue_depth,
            shed_policy=args.shed_policy,
            drain_seconds=args.drain_seconds,
            inject_faults=args.inject_fault,
        )
    if args.experiment == "serve-bench" and (args.server or args.server_url):
        return _cmd_serve_bench_server(
            offered_qps=(
                args.offered_qps if args.offered_qps is not None else 10.0
            ),
            duration=args.duration if args.duration is not None else 3.0,
            tenants=args.tenants if args.tenants is not None else 2,
            workers=args.workers if args.workers is not None else 0,
            approx=args.approx,
            max_inflight=args.max_inflight,
            shed_policy=args.shed_policy,
            server_url=args.server_url,
        )
    if args.experiment == "serve-bench":
        return _cmd_serve_bench(
            queries=args.queries if args.queries is not None else 12,
            workers=args.workers if args.workers is not None else 0,
            out_csv=args.csv,
            deadline=args.deadline,
            inject_faults=args.inject_fault,
            batch=args.batch,
            max_inflight=args.max_inflight,
            shed_policy=args.shed_policy,
            breaker=args.breaker,
            trace=args.trace,
            metrics_port=args.metrics_port,
            approx=args.approx,
        )
    if args.experiment == "report":
        from repro.experiments.report import generate_report

        path, checks = generate_report()
        failed = [c for c in checks if not c.passed]
        print(f"report written to {path} ({len(checks)} claims checked)")
        for check in failed:
            print(f"FAILED: {check.claim} — {check.measured}", file=sys.stderr)
        return 1 if failed else 0
    if args.experiment == "all":
        for name, (_, runner) in registry.items():
            print(f"=== {name} ===")
            print(runner().render())
            print()
        return 0
    if args.csv:
        return _cmd_export(registry, args.experiment, args.csv)
    if args.experiment not in registry:
        print(
            f"unknown experiment {args.experiment!r}; run 'prime-ls list'",
            file=sys.stderr,
        )
        return 2
    __, runner = registry[args.experiment]
    print(runner().render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
