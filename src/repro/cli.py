"""Command-line entry point: regenerate any paper table or figure.

Usage::

    hipster-repro table2
    hipster-repro fig2 --workload websearch
    hipster-repro fig11 --quick --seed 7
    hipster-repro calibrate
    hipster-repro all --quick --jobs 4 --cache-dir .hipster-cache
    hipster-repro fleet --quick --nodes 64 --balancer power-aware --jobs 4
    hipster-repro pack validate packs/*.yaml
    hipster-repro pack list
    hipster-repro pack run packs/ci-smoke.yaml --jobs 2 --output summary.json

``--quick`` compresses run lengths (CI-friendly); without it the runs
match the paper's durations.  ``--jobs N`` fans scenario batches out
over N worker processes in one *persistent* pool shared by every
experiment of the invocation, and ``--cache-dir`` adds the on-disk
cache tier keyed by scenario fingerprint, so repeated ``all``
invocations only re-run what changed (duplicates within one invocation
are served by the in-process tier either way).  ``fleet`` simulates a
multi-node cluster (see :mod:`repro.fleet`); ``pack`` validates, lists
or runs declarative scenario packs (see :mod:`repro.packs`).

Flag applicability is enforced by one shared validator table
(:data:`_FLAG_RULES`): a flag a command would silently ignore is a
``parser.error``, with the same message shape everywhere.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.errors import ExecutionError, RunInterruptedError
from repro.experiments import EXPERIMENTS
from repro.experiments.calibration import calibrate_demand
from repro.fleet.balancer import BALANCER_FACTORIES
from repro.hardware.juno import juno_r1
from repro.scenarios import DEFAULT_REGISTRY, DEFAULT_SEED
from repro.sim.batch import BatchRunner
from repro.workloads.memcached import memcached
from repro.workloads.websearch import websearch

#: Process exit code for execution failures (worker crash / watchdog
#: timeout / engine exception surviving the supervisor's retries);
#: validation errors keep argparse's 2, interrupts exit 130 (128+INT).
EXIT_EXECUTION_FAILURE = 3
EXIT_INTERRUPTED = 130

_EPILOG = """\
exit codes:
  0    success -- including partial pack success (warning on stderr)
  2    usage or validation error (bad flag, malformed pack)
  3    execution failure: worker crash, watchdog timeout or engine
       error that survived the supervisor's retries
  130  interrupted (SIGINT/SIGTERM) after draining in-flight work;
       rerun with the same --cache-dir to continue
"""

#: Experiments that take a workload argument; for every other experiment
#: passing ``--workload`` is an error (it would be silently ignored).
_WORKLOAD_EXPERIMENTS = {"fig2", "fig5", "fleet", "fleet-scale"}

_DEFAULT_WORKLOAD = "memcached"

_DEFAULT_FLEET_NODES = 8
_DEFAULT_BALANCER = "round-robin"

#: The actions ``hipster-repro pack`` accepts.
_PACK_ACTIONS = ("validate", "list", "run")

#: Directory the pack commands fall back to when no files are given.
_DEFAULT_PACK_DIR = "packs"


def _pack_action(parser: argparse.ArgumentParser, args: argparse.Namespace) -> str:
    """The ``pack`` action, or a ``parser.error`` if missing or unknown."""
    if not args.pack_args:
        parser.error(f"'pack' needs an action: {', '.join(_PACK_ACTIONS)}")
    action = args.pack_args[0]
    if action not in _PACK_ACTIONS:
        from repro.errors import suggest

        message = (
            f"unknown pack action {action!r}; "
            f"valid choices: {', '.join(_PACK_ACTIONS)}"
        )
        best = suggest(action, _PACK_ACTIONS)
        if best is not None:
            message += f" (did you mean {best!r}?)"
        parser.error(message)
    return action


def _applies_to_runs(command: str) -> bool:
    """Everything but ``pack validate`` and ``pack list`` runs scenarios."""
    return command not in ("pack validate", "pack list")


#: The shared flag-validator table: ``(flag, attr, is_set, applies,
#: targets)``.  ``is_set`` detects a non-default value, ``applies``
#: decides whether the command consumes the flag (a pack command is
#: named with its action, e.g. ``pack run``), and ``targets``
#: renders the commands that do.  Every rule produces the same message
#: shape through :func:`_validate_flags`, so adding a flag (or a
#: command) is one table row instead of another ad-hoc ``if``.
_FLAG_RULES = (
    (
        "--workload",
        "workload",
        lambda v: v is not None,
        lambda c: c in _WORKLOAD_EXPERIMENTS or c == "all",
        lambda: f"{', '.join(sorted(_WORKLOAD_EXPERIMENTS))} (and 'all')",
    ),
    (
        "--nodes",
        "nodes",
        lambda v: v is not None,
        lambda c: c == "fleet",
        lambda: "'fleet'",
    ),
    (
        "--balancer",
        "balancer",
        lambda v: v is not None,
        lambda c: c == "fleet",
        lambda: "'fleet'",
    ),
    (
        "--seed",
        "seed",
        lambda v: v is not None,
        lambda c: not c.startswith("pack "),
        lambda: "experiment and fleet commands (pack documents pin their own seeds)",
    ),
    (
        "--jobs",
        "jobs",
        lambda v: v != 1,
        _applies_to_runs,
        lambda: "experiment, fleet and 'pack run' commands",
    ),
    (
        "--cache-dir",
        "cache_dir",
        lambda v: v is not None,
        _applies_to_runs,
        lambda: "experiment, fleet and 'pack run' commands",
    ),
    (
        "--output",
        "output",
        lambda v: v is not None,
        lambda c: c == "pack run",
        lambda: "'pack run'",
    ),
    (
        "--strict",
        "strict",
        lambda v: bool(v),
        lambda c: c == "pack run",
        lambda: "'pack run'",
    ),
    (
        "pack arguments",
        "pack_args",
        lambda v: bool(v),
        lambda c: c.startswith("pack "),
        lambda: "'pack'",
    ),
)


def _validate_flags(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject any flag the selected command would silently ignore."""
    command = args.experiment
    if command == "pack":
        command = f"pack {_pack_action(parser, args)}"
    for flag, attr, is_set, applies, targets in _FLAG_RULES:
        if not is_set(getattr(args, attr)) or applies(command):
            continue
        verb = "applies" if flag.startswith("--") else "apply"
        parser.error(
            f"{flag} only {verb} to {targets()}; '{command}' ignores it"
        )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="hipster-repro",
        description="Reproduce tables and figures from the Hipster paper (HPCA 2017).",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["calibrate", "all", "fleet", "pack"],
        help=(
            "which artifact to regenerate ('fleet' simulates a cluster, "
            "'pack' validates/lists/runs scenario packs)"
        ),
    )
    parser.add_argument(
        "pack_args",
        nargs="*",
        metavar="pack-arg",
        help=(
            "for 'pack': an action (validate|list|run) followed by pack "
            "files (defaults to the packs/ directory)"
        ),
    )
    parser.add_argument(
        "--workload",
        choices=["memcached", "websearch"],
        default=None,
        help=(
            "workload for per-workload experiments "
            f"({', '.join(sorted(_WORKLOAD_EXPERIMENTS))}); "
            f"default {_DEFAULT_WORKLOAD}"
        ),
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        metavar="N",
        help=f"fleet size ('fleet' only; default {_DEFAULT_FLEET_NODES})",
    )
    parser.add_argument(
        "--balancer",
        choices=sorted(BALANCER_FACTORIES),
        default=None,
        help=f"fleet load-balancer policy ('fleet' only; default {_DEFAULT_BALANCER})",
    )
    parser.add_argument(
        "--quick", action="store_true", help="compressed run lengths (CI-friendly)"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"experiment seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for scenario batches (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache scenario results on disk; re-runs only what changed",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="'pack run': write the pack summary JSON to FILE",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="'pack run': any failed entry makes the exit code nonzero",
    )
    return parser


@contextmanager
def _partial_summary(runner: BatchRunner) -> Iterator[None]:
    """On a graceful interrupt, report progress before propagating.

    The stats lines *are* the partial summary: what was cached and how
    far the run got.
    """
    try:
        yield
    except RunInterruptedError:
        _report_stats(runner)
        raise


@contextmanager
def _stop_signals(runner: BatchRunner) -> Iterator[None]:
    """Turn SIGINT/SIGTERM into a graceful stop request for the block.

    The handler only sets a flag: in-flight chunks drain, their
    outcomes reach the cache, and the run surfaces a
    :class:`~repro.errors.RunInterruptedError` (exit 130) instead of
    dying mid-write.  Previous handlers are restored on exit.
    """
    import signal as _signal

    def _handler(signum, frame):  # pragma: no cover - signal timing
        runner.request_stop()
        name = _signal.Signals(signum).name
        print(
            f"\n[{name}] stopping: draining in-flight work "
            "(repeat to kill)...",
            file=sys.stderr,
        )
        # A second signal falls through to the default handler: the
        # user asked twice, stop absorbing it.
        _signal.signal(signum, previous.get(signum, _signal.SIG_DFL))

    previous: dict = {}
    try:
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                previous[sig] = _signal.signal(sig, _handler)
            except ValueError:  # pragma: no cover - not the main thread
                pass
        yield
    finally:
        for sig, old in previous.items():
            try:
                _signal.signal(sig, old)
            except ValueError:  # pragma: no cover
                pass


def _run_one(name: str, args: argparse.Namespace, runner: BatchRunner) -> str:
    """Run one experiment module with the shared batch runner."""
    module = EXPERIMENTS[name]
    if name in _WORKLOAD_EXPERIMENTS:
        result = module.run(
            args.workload or _DEFAULT_WORKLOAD,
            quick=args.quick,
            seed=args.seed,
            runner=runner,
        )
    else:
        result = module.run(quick=args.quick, seed=args.seed, runner=runner)
    return result.render()


def _run_fleet(args: argparse.Namespace, runner: BatchRunner) -> str:
    """Run one fleet over the diurnal day and render the cluster report."""
    spec = DEFAULT_REGISTRY.build(
        "fleet-diurnal",
        workload=args.workload or _DEFAULT_WORKLOAD,
        n_nodes=args.nodes if args.nodes is not None else _DEFAULT_FLEET_NODES,
        balancer=args.balancer or _DEFAULT_BALANCER,
        quick=args.quick,
        seed=args.seed,
    )
    return spec.run(runner).render()


def _run_calibration(runner: BatchRunner) -> str:
    platform = juno_r1()
    lines = ["Calibration (Table 1 methodology):"]
    for workload in (memcached(), websearch()):
        outcome = calibrate_demand(platform, workload, runner=runner)
        lines.append(
            f"  {outcome.workload_name}: demand_mean_ms={outcome.demand_mean_ms:.5f} "
            f"edge_tail={outcome.edge_tail_ms:.2f} ms "
            f"(target {outcome.target_ms:.0f} ms, error {outcome.relative_error:.1%})"
        )
    return "\n".join(lines)


def _pack_files(
    parser: argparse.ArgumentParser, names: Sequence[str]
) -> list:
    """Resolve pack-file arguments, defaulting to the packs/ directory."""
    from pathlib import Path

    if not names:
        pack_dir = Path(_DEFAULT_PACK_DIR)
        if not pack_dir.is_dir():
            parser.error(
                f"no pack files given and no {_DEFAULT_PACK_DIR}/ directory here"
            )
        files = sorted(
            [*pack_dir.glob("*.yaml"), *pack_dir.glob("*.yml"),
             *pack_dir.glob("*.json")]
        )
        if not files:
            parser.error(f"no pack files in {pack_dir}/")
        return files
    return [Path(name) for name in names]


def _run_pack_command(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    """Dispatch ``pack validate|list|run`` (errors via ``parser.error``)."""
    from repro.errors import ReproError
    from repro.packs import compile_pack, load_pack, run_pack

    action, *names = args.pack_args
    files = _pack_files(parser, names)
    quick = True if args.quick else None

    def _pack_error(file, err) -> str:
        message = str(err)
        return message if message.startswith(str(file)) else f"{file}: {message}"

    if action == "validate":
        for file in files:
            try:
                pack = compile_pack(load_pack(file), quick=quick)
                pack.validate_buildable()
            except ReproError as err:
                parser.error(_pack_error(file, err))
            print(f"{file}: OK ({pack.name}, {len(pack.items)} run(s))")
        return 0

    if action == "list":
        rows = []
        for file in files:
            try:
                pack = compile_pack(load_pack(file), quick=quick)
            except ReproError as err:
                parser.error(_pack_error(file, err))
            rows.append(
                [pack.name, str(len(pack.items)), str(file), pack.description]
            )
        from repro.experiments.reporting import ascii_table

        print(ascii_table(["pack", "runs", "file", "description"], rows))
        return 0

    # action == "run"
    import json

    summaries = []
    failed_entries = 0
    every_pack_all_failed = True
    with BatchRunner(jobs=args.jobs, cache_dir=args.cache_dir) as runner:
        with _stop_signals(runner), _partial_summary(runner):
            for file in files:
                try:
                    pack = compile_pack(load_pack(file), quick=quick)
                    pack.validate_buildable()
                except ReproError as err:
                    parser.error(_pack_error(file, err))
                t0 = time.perf_counter()
                result = run_pack(pack, runner=runner)
                print(result.render())
                print()
                summaries.append(result.summary())
                for key, error in result.failures():
                    failed_entries += 1
                    print(
                        f"[pack] {pack.name}:{key} failed: {error}",
                        file=sys.stderr,
                    )
                if not result.all_failed:
                    every_pack_all_failed = False
                _report_stats(runner, [(pack.name, time.perf_counter() - t0)])
    if args.output is not None:
        from pathlib import Path

        payload = summaries[0] if len(summaries) == 1 else summaries
        Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    if failed_entries:
        if every_pack_all_failed or args.strict:
            print(
                f"hipster-repro: error: {failed_entries} pack "
                "entry(ies) failed",
                file=sys.stderr,
            )
            return EXIT_EXECUTION_FAILURE
        print(
            f"hipster-repro: warning: {failed_entries} pack entry(ies) "
            "failed; exiting 0 (partial success -- use --strict to fail)",
            file=sys.stderr,
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    0 success (including partial pack success), 2 validation error,
    3 execution failure after retries, 130 graceful interrupt -- the
    table in ``--help``'s epilog.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.nodes is not None and args.nodes < 1:
        parser.error("--nodes must be >= 1")
    if args.cache_dir is not None:
        from pathlib import Path

        if Path(args.cache_dir).exists() and not Path(args.cache_dir).is_dir():
            parser.error(
                f"--cache-dir {args.cache_dir!r} exists and is not a directory"
            )
    _validate_flags(parser, args)
    try:
        return _dispatch(parser, args)
    except RunInterruptedError as err:
        print(f"hipster-repro: {err}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ExecutionError as err:
        print(f"hipster-repro: error: {err}", file=sys.stderr)
        return EXIT_EXECUTION_FAILURE


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    """Route the validated invocation (execution errors handled above)."""
    if args.experiment == "pack":
        return _run_pack_command(parser, args)
    if args.seed is None:
        args.seed = DEFAULT_SEED

    # One runner -- hence one persistent worker pool and one two-tier
    # cache -- is shared by every experiment of the invocation; the
    # ``with`` block shuts the pool down on the way out.
    with BatchRunner(jobs=args.jobs, cache_dir=args.cache_dir) as runner:
        with _stop_signals(runner), _partial_summary(runner):
            walls = []
            if args.experiment == "fleet":
                t0 = time.perf_counter()
                print(_run_fleet(args, runner))
                walls.append(("fleet", time.perf_counter() - t0))
            elif args.experiment == "calibrate":
                print(_run_calibration(runner))
            elif args.experiment == "all":
                for name in sorted(EXPERIMENTS):
                    print(f"\n=== {name} ===")
                    t0 = time.perf_counter()
                    print(_run_one(name, args, runner))
                    walls.append((name, time.perf_counter() - t0))
            else:
                print(_run_one(args.experiment, args, runner))
            _report_stats(runner, walls)
    return 0


def render_stats(
    runner: BatchRunner, walls: Sequence[tuple[str, float]] = ()
) -> list[str]:
    """Cache / pool / fault / wall-clock summary lines for one invocation.

    ``[cache]`` appears when an on-disk cache is configured, ``[pool]``
    when worker processes were actually spawned, ``[fault]`` when the
    supervision layer had anything to absorb, and ``[wall]`` when
    per-experiment timings were collected.
    """
    lines = []
    if runner.cache_dir is not None:
        corrupt = runner.disk.corrupt_entries if runner.disk else 0
        lines.append(
            f"[cache] {runner.cache_hits} hit(s) "
            f"({runner.memory_hits} memory, {runner.disk_hits} disk), "
            f"{runner.cache_misses} miss(es), corrupt={corrupt} "
            f"in {runner.cache_dir}"
        )
    if runner.pool_spawns:
        lines.append(
            f"[pool] {runner.jobs} worker(s) "
            f"(spawned {runner.pool_spawns} pool(s)), "
            f"{runner.specs_dispatched} spec(s) dispatched in "
            f"{runner.chunks_dispatched} chunk(s), "
            f"{runner.cache_hits} served from cache"
        )
    evictions = runner.disk.quarantine_evictions if runner.disk else 0
    faults = (
        runner.worker_crashes
        + runner.spec_timeouts
        + runner.chunk_retries
        + runner.chunk_bisections
        + runner.pool_rebuilds
        + runner.specs_failed
        + evictions
    )
    if faults or runner.degraded:
        line = (
            f"[fault] {runner.worker_crashes} worker crash(es), "
            f"{runner.spec_timeouts} timeout(s), "
            f"{runner.chunk_retries} chunk retry(ies), "
            f"{runner.chunk_bisections} bisection(s), "
            f"{runner.pool_rebuilds} pool rebuild(s), "
            f"{runner.specs_failed} spec(s) failed"
        )
        if evictions:
            line += f", {evictions} quarantine eviction(s)"
        if runner.degraded:
            line += " -- degraded to serial"
        lines.append(line)
    if walls:
        total = sum(wall for _, wall in walls)
        lines.append(
            "[wall] "
            + " | ".join(f"{name} {wall:.2f}s" for name, wall in walls)
            + f" | total {total:.2f}s"
        )
    return lines


def _report_stats(
    runner: BatchRunner, walls: Sequence[tuple[str, float]] = ()
) -> None:
    """Statistics on stderr (stdout stays byte-stable across runs)."""
    lines = render_stats(runner, walls)
    if lines:
        print("\n" + "\n".join(lines), file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover - manual entry point
    sys.exit(main())
