"""Command-line interface for the experiments subsystem.

::

    python -m repro.experiments list
    python -m repro.experiments run line_scaling --set n=8
    python -m repro.experiments run line_scaling --set n=256 --set backend=auto
    python -m repro.experiments sweep line_scaling --grid n=4,8,16 \\
        --grid algorithm=AOPT,MaxPropagation --workers 4
    python -m repro.experiments serve --port 8765        # sweep service daemon
    python -m repro.experiments cache --prune-older-than 86400

``--set key=value`` passes builder arguments to the named scenario; dotted
keys populate nested mappings (``--set sim.duration=40`` shrinks the run).
``--grid key=v1,v2,...`` adds a sweep axis, dotted keys too (``--grid
sim.dt=0.1,0.05``); the sweep runs the cartesian product of all axes.
Values are parsed as Python literals when possible and fall back to strings.

Results are cached under ``benchmarks/results/cache/`` (override with
``--cache-dir`` or ``$REPRO_EXPERIMENTS_CACHE_DIR``); a repeated sweep is
served entirely from cache.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis import report
from ..fastsim.backend import (
    AUTO,
    AUTO_ORDER,
    BackendError,
    backend_available,
    backend_names,
    declined_reason,
)
from ..fastsim.engine import UnsupportedScenarioError
from ..metrics import MetricsError
from . import executor, registry
from .spec import ScenarioSpec


class CliError(Exception):
    """A user-input problem (bad scenario arguments), reported without a traceback."""


def _parse_value(text: str) -> Any:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_overrides(items: Optional[Sequence[str]]) -> Dict[str, Any]:
    """``--set`` items as ``{key: value}``; a dotted key stays dotted, and
    :func:`~repro.experiments.executor.expand_grid` nests it."""
    overrides: Dict[str, Any] = {}
    for item in items or []:
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"--set expects key=value, got {item!r}"
            )
        key, _, raw = item.partition("=")
        overrides[key.strip()] = _parse_value(raw.strip())
    return overrides


def _parse_grid(items: Optional[Sequence[str]]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for item in items or []:
        if "=" not in item:
            raise argparse.ArgumentTypeError(
                f"--grid expects key=v1,v2,..., got {item!r}"
            )
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in grid:
            raise argparse.ArgumentTypeError(
                f"--grid axis {key!r} is given twice; give all its values "
                f"in one --grid {key}=v1,v2,..."
            )
        grid[key] = [_parse_value(v.strip()) for v in raw.split(",") if v.strip()]
    return grid


def _fmt(value: Any) -> Any:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


def _summary_table(title: str, runs: Sequence[executor.ExperimentRun]) -> report.Table:
    table = report.Table(
        title,
        [
            "label",
            "hash",
            "backend",
            "nodes",
            "init gskew",
            "max gskew",
            "final gskew",
            "max lskew",
            "stab time",
            "violations",
            "cached",
        ],
    )
    for run in runs:
        summary = run.summary
        table.add_row(
            summary.label or run.spec.topology.name,
            run.spec.short_hash(),
            run.spec.backend,
            summary.node_count,
            _fmt(summary.initial_global_skew),
            _fmt(summary.max_global_skew),
            _fmt(summary.final_global_skew),
            _fmt(summary.max_local_skew),
            _fmt(summary.stabilization_time),
            _fmt(summary.gradient_violations),
            _fmt(run.from_cache),
        )
    return table


def _emit_runs(
    args: argparse.Namespace,
    title: str,
    runs: Sequence[executor.ExperimentRun],
    stats: executor.SweepStats,
) -> None:
    if args.json:
        print(
            json.dumps(
                {
                    "runs": [
                        {
                            "spec": run.spec.to_dict(),
                            "spec_hash": run.spec.content_hash(),
                            "summary": run.summary.to_dict(),
                            "from_cache": run.from_cache,
                        }
                        for run in runs
                    ],
                    "stats": {
                        "total": stats.total,
                        "cached": stats.cached,
                        "executed": stats.executed,
                        "wall_time": stats.wall_time,
                    },
                },
                indent=2,
            )
        )
        return
    print("\n" + _summary_table(title, runs).render() + "\n")
    print(stats.describe())


def _declined_by(backend: str) -> str:
    """What a backend declines, found by asking it about probe specs: one
    per registered algorithm and dynamics, one with the diameter tracker."""
    probes = (
        [(f"algorithm {name}", {"algorithm": name}) for name in registry.ALGORITHMS.names()]
        + [(f"dynamics {name}", {"dynamics": name}) for name in registry.DYNAMICS.names()]
        + [("sim.track_diameter", {"sim": {"track_diameter": True}})]
    )
    return ", ".join(
        label
        for label, fields in probes
        if declined_reason(ScenarioSpec(topology="line", backend=backend, **fields))
    )


def cmd_list(args: argparse.Namespace) -> int:
    print("scenarios:")
    for name in registry.SCENARIOS.names():
        doc = (registry.SCENARIOS.get(name).__doc__ or "").strip().splitlines()
        blurb = doc[0] if doc else ""
        print(f"  {name:32s} {blurb}")
    print(f"topologies: {', '.join(registry.TOPOLOGIES.names())}")
    print(f"dynamics:   {', '.join(registry.DYNAMICS.names())}")
    print(f"drifts:     {', '.join(registry.DRIFTS.names())}")
    print(f"delays:     {', '.join(registry.DELAYS.names())}")
    print(
        f"algorithms: {', '.join(registry.ALGORITHMS.names())} "
        f"(aliases: {', '.join(sorted(registry.ALGORITHM_ALIASES))})"
    )
    # What auto resolves to on this machine: the installed engines, in order.
    order = [name for name in AUTO_ORDER if backend_available(name)]
    backends = [f"{AUTO} (first of {', '.join(order)} that runs the spec)"]
    for name in backend_names():
        if backend_available(name):
            if name == "jit":
                from ..jitsim import get_provider

                backends.append(f"{name} (provider: {get_provider().name})")
            else:
                backends.append(name)
        else:
            backends.append(f"{name} [unavailable: pip install 'repro[{name}]']")
    print(f"backends:   {', '.join(backends)} (--set backend=...)")
    for name in backend_names():
        declined = _declined_by(name)
        if declined:
            # Decided from the spec, before anything is built.
            print(f"  {name} declines {declined} (refused; {AUTO} picks another)")
    from ..metrics import DEFAULT_OBSERVERS, observer_names

    tagged = [
        f"{name}*" if name in DEFAULT_OBSERVERS else name
        for name in observer_names()
    ]
    print(
        f"observers:  {', '.join(tagged)} "
        "(* = default set; --observers a,b,... and --trace none)"
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    from ..chaos import scenario_files, validate_pack

    extra_dirs = list(args.dir or [])
    if args.validate:
        report_obj = validate_pack(extra_dirs)
        if args.json:
            print(json.dumps(report_obj.to_dict(), indent=2))
        else:
            for line in report_obj.describe():
                print(line)
        if not report_obj.ok:
            raise CliError(
                f"scenario lint failed with {report_obj.problem_count} problem(s)"
            )
        return 0
    files, errors = scenario_files(extra_dirs)
    if args.json:
        print(
            json.dumps(
                {
                    "scenarios": [
                        {
                            "name": sf.name,
                            "family": sf.family,
                            "description": sf.description,
                            "path": sf.path,
                            "spec_hash": sf.spec.content_hash(),
                            "expect": dict(sf.expect),
                        }
                        for sf in files
                    ],
                    "errors": list(errors),
                },
                indent=2,
            )
        )
    else:
        by_family: Dict[str, List[Any]] = {}
        for sf in files:
            by_family.setdefault(sf.family, []).append(sf)
        for family in sorted(by_family):
            print(f"{family}:")
            for sf in sorted(by_family[family], key=lambda s: s.name):
                print(f"  {sf.name:36s} {sf.description}")
        print(
            f"{len(files)} scenario files "
            "(run with `repro-experiments run <name>`; lint with "
            "`scenarios --validate`)"
        )
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
    if errors:
        raise CliError(f"{len(errors)} scenario file(s) failed to load")
    return 0


def _check_user_input(fn, *fn_args, **fn_kwargs):
    """Call a spec-construction/validation function with user-friendly errors.

    Only spec construction and materialisation are wrapped: bad builder
    arguments (wrong name, wrong type, unknown keyword) become a one-line
    ``error:``, while genuine bugs during simulation execution still surface
    with a full traceback.
    """
    try:
        return fn(*fn_args, **fn_kwargs)
    except (ValueError, TypeError) as exc:
        raise CliError(str(exc)) from exc


def _validate_specs(specs) -> None:
    """Materialise each spec once (no simulation) so bad arguments fail fast."""
    from ..metrics import OBSERVERS, observer_names

    for spec in specs:
        _check_user_input(registry.build_scenario, spec)
        for name in spec.observers:
            if name not in OBSERVERS:
                raise CliError(
                    f"unknown observer {name!r}; known: "
                    + ", ".join(observer_names())
                )


def _apply_observation_flags(args: argparse.Namespace, overrides: Dict[str, Any]) -> None:
    """Fold ``--observers`` / ``--trace`` / ``--until-stable`` into the
    pseudo-override mapping."""
    if getattr(args, "observers", None):
        overrides["observers"] = tuple(
            name.strip() for name in args.observers.split(",") if name.strip()
        )
    if getattr(args, "trace", None):
        overrides["trace"] = args.trace
    if getattr(args, "until_stable", False):
        overrides["until_stable"] = True


class _Telemetry:
    """Per-command telemetry wiring: ``--telemetry FILE`` or disabled.

    Context manager so the JSONL file is flushed and closed even when the
    sweep raises; ``emitter`` is ``None`` when the flag was not given.  The
    file is opened on the first record, so a command ``run_sweep`` refuses
    before it starts leaves no file behind.
    """

    def __init__(self, args: argparse.Namespace):
        self._path = getattr(args, "telemetry", None)
        self._log = None
        self.emitter = None

    def __enter__(self) -> "_Telemetry":
        if self._path:
            from ..telemetry import SweepTelemetry

            self.emitter = SweepTelemetry(self._write)
        return self

    def _write(self, record) -> None:
        if self._log is None:
            from ..telemetry import JsonlLog

            try:
                self._log = JsonlLog(self._path)
            except OSError as exc:
                raise CliError(f"cannot open --telemetry file {self._path!r}: {exc}")
        self._log.write_record(record)

    def __exit__(self, *exc_info) -> None:
        if self._log is not None:
            self._log.close()


def _run_specs(
    args: argparse.Namespace, specs: Sequence[ScenarioSpec]
) -> Tuple[List[executor.ExperimentRun], executor.SweepStats]:
    _validate_specs(specs)
    with _Telemetry(args) as telemetry:
        return executor.run_sweep(
            specs,
            cache=executor.ResultCache(args.cache_dir),
            workers=args.workers,
            use_cache=not args.no_cache,
            telemetry=telemetry.emitter,
        )


def cmd_run(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args.set)
    _apply_observation_flags(args, overrides)
    (spec,) = _check_user_input(executor.expand_grid, args.scenario, {}, base=overrides)
    runs, stats = _run_specs(args, [spec])
    _emit_runs(args, f"run: {spec.label or args.scenario}", runs, stats)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    overrides = _parse_overrides(args.set)
    _apply_observation_flags(args, overrides)
    grid = _parse_grid(args.grid)
    if not grid:
        raise argparse.ArgumentTypeError("sweep needs at least one --grid axis")
    specs = _check_user_input(executor.expand_grid, args.scenario, grid, base=overrides)
    runs, stats = _run_specs(args, specs)
    axes = " x ".join(f"{key}({len(values)})" for key, values in grid.items())
    _emit_runs(args, f"sweep: {args.scenario} over {axes}", runs, stats)
    return 0


def _cache_stats_line(cache: executor.ResultCache) -> str:
    stats = cache.stats()
    breakdown = ", ".join(
        f"{backend}: {count}" for backend, count in stats["by_backend"].items()
    )
    suffix = f" ({breakdown})" if breakdown else ""
    return (
        f"{stats['entries']} cache entries, {stats['total_bytes']} bytes "
        f"in {cache.cache_dir}{suffix}"
    )


def cmd_cache(args: argparse.Namespace) -> int:
    cache = executor.ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.cache_dir}")
        return 0
    if args.prune_older_than is not None or args.max_bytes is not None:
        removed, freed = cache.prune(
            older_than=args.prune_older_than, max_bytes=args.max_bytes
        )
        print(f"pruned {removed} cache entries ({freed} bytes) from {cache.cache_dir}")
        print(_cache_stats_line(cache))
        return 0
    print(_cache_stats_line(cache))
    for entry in cache.entries():
        print(f"  {entry.name}")
    return 0


class _ShutdownSignal(BaseException):
    """Raised from the SIGTERM/SIGINT handler to unwind ``serve_forever``.

    A ``BaseException`` like ``KeyboardInterrupt``: socketserver's
    ``except Exception`` around a request must not swallow a shutdown.
    """

    def __init__(self, signum: int):
        super().__init__(f"signal {signum}")
        self.signum = signum


def cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from ..service import JsonlLog, ServiceConfig, SweepServer, SweepService
    from ..service.core import ServiceError

    try:
        config = ServiceConfig(
            workers=args.workers,
            janitor_interval=args.janitor_interval,
            prune_older_than=args.prune_older_than,
            max_cache_bytes=args.max_bytes,
        )
        service = SweepService(args.cache_dir, config=config)
        log_path = args.log_file
        if log_path is None:
            log_path = service.cache.cache_dir / "service.log.jsonl"
        service.log = JsonlLog(
            None if log_path == "" else log_path, max_bytes=args.log_max_bytes
        )
        server = SweepServer(service, host=args.host, port=args.port)
    except (ServiceError, OSError) as exc:
        raise CliError(str(exc)) from exc
    host, port = server.address
    print(f"sweep service on http://{host}:{port}", file=sys.stderr)
    print(f"cache: {service.cache.cache_dir}", file=sys.stderr)
    if service.log.enabled:
        print(f"telemetry: {service.log.path} (JSONL, tail -f friendly)", file=sys.stderr)
    # SIGTERM (systemd, docker stop, CI harnesses) and SIGINT (^C) both
    # trigger the same graceful drain: stop accepting sweeps, let in-flight
    # jobs finish within --drain-timeout, fail queued jobs with a clear
    # status, flush the telemetry log.
    def _on_signal(signum, frame):
        raise _ShutdownSignal(signum)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _on_signal)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        server.serve_forever(drain_timeout=args.drain_timeout)
    except (KeyboardInterrupt, _ShutdownSignal) as exc:
        name = (
            signal.Signals(exc.signum).name
            if isinstance(exc, _ShutdownSignal)
            else "SIGINT"
        )
        print(
            f"{name}: draining (in-flight jobs get {args.drain_timeout:g}s)",
            file=sys.stderr,
        )
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown(drain_timeout=args.drain_timeout)
        service.log.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Declarative scenario runner for the PODC'10 reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list registered scenarios and components"
    ).set_defaults(handler=cmd_list)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="scenario builder argument (dotted keys nest, e.g. sim.duration=40)",
    )
    common.add_argument("--workers", type=int, default=1, help="worker processes")
    common.add_argument("--cache-dir", default=None, help="result cache directory")
    common.add_argument(
        "--no-cache", action="store_true", help="run without reading or writing the cache"
    )
    common.add_argument(
        "--observers",
        default=None,
        metavar="NAME,NAME,...",
        help="streaming observers to run (default: the standard RunSummary "
        "set; see `list` for names)",
    )
    common.add_argument(
        "--trace",
        choices=["full", "none"],
        default=None,
        help="keep the full per-sample trace (default) or only the "
        "streaming observer report (constant memory in the duration)",
    )
    common.add_argument(
        "--until-stable",
        action="store_true",
        help="stop each run at its stability point (convergence, or the "
        "stabilization window after an insertion) instead of running the "
        "full duration; results cache under their own key",
    )
    common.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE.jsonl",
        help="stream structured JSONL events (run progress, watchdog "
        "firings) to FILE while the sweep runs; tail -f friendly",
    )
    common.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    run_parser = subparsers.add_parser(
        "run", parents=[common], help="run one named scenario"
    )
    run_parser.add_argument("scenario", help="scenario name (see `list`)")
    run_parser.set_defaults(handler=cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[common], help="run the cartesian product of a parameter grid"
    )
    sweep_parser.add_argument("scenario", help="scenario name (see `list`)")
    sweep_parser.add_argument(
        "--grid",
        action="append",
        metavar="KEY=V1,V2,...",
        help="sweep axis (repeatable; the sweep is the cartesian product)",
    )
    sweep_parser.set_defaults(handler=cmd_sweep)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect, prune or clear the result cache"
    )
    cache_parser.add_argument("--cache-dir", default=None)
    cache_parser.add_argument("--clear", action="store_true", help="delete all entries")
    cache_parser.add_argument(
        "--prune-older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="delete entries last written more than SECONDS ago",
    )
    cache_parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-written entries until the cache fits N bytes",
    )
    cache_parser.set_defaults(handler=cmd_cache)

    scenarios_parser = subparsers.add_parser(
        "scenarios",
        help="list or lint the chaos scenario pack (repro.chaos)",
        description="Scenario files ship as package data under "
        "repro/chaos/scenarios/ and register as named scenarios at import "
        "time, so `run`/`sweep` accept them like any built-in.  --validate "
        "lints the pack: schema, registry resolution, dry-run build, "
        "duplicate names, watchdog pre-wiring and the adversarial files' "
        "derivation from the analytic lower bounds.",
    )
    scenarios_parser.add_argument(
        "--validate",
        action="store_true",
        help="lint every scenario file and exit non-zero on any problem",
    )
    scenarios_parser.add_argument(
        "--dir",
        action="append",
        default=None,
        metavar="PATH",
        help="additional scenario-file directory to include (repeatable)",
    )
    scenarios_parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of a listing"
    )
    scenarios_parser.set_defaults(handler=cmd_scenarios)

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the sweep service daemon (HTTP/JSON API over the result cache)",
        description="Long-running sweep service: POST /sweeps submits a spec "
        "list or grid, GET /jobs/{id} polls progress, GET /results/{key} "
        "serves cached payloads byte-for-byte, GET /healthz and GET /specs "
        "introspect.  Identical concurrent submissions coalesce onto one "
        "execution; completed hashes are served from cache instantly.",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral)")
    serve_parser.add_argument(
        "--workers", type=int, default=2, help="sweep worker processes"
    )
    serve_parser.add_argument("--cache-dir", default=None, help="result cache directory")
    serve_parser.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="JSONL request/job telemetry file (default: "
        "<cache-dir>/service.log.jsonl; pass '' to disable)",
    )
    serve_parser.add_argument(
        "--log-max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="rotate the telemetry log to <file>.1 when it reaches N bytes "
        "(default: grow without bound)",
    )
    serve_parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, stop accepting sweeps (503) and give "
        "in-flight jobs up to SECONDS to finish; queued jobs fail with a "
        "clear status (default: 30)",
    )
    serve_parser.add_argument(
        "--janitor-interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="cache janitor cadence (active only with a prune policy)",
    )
    serve_parser.add_argument(
        "--prune-older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="janitor: delete cache entries older than SECONDS",
    )
    serve_parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="janitor: keep the cache under N bytes (LRU by write time)",
    )
    serve_parser.set_defaults(handler=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (
        registry.RegistryError,
        executor.ExecutorError,
        argparse.ArgumentTypeError,
        BackendError,
        UnsupportedScenarioError,
        MetricsError,
        CliError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
