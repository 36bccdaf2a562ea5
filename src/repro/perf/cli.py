"""Command-line driver: ``python -m repro.perf`` / ``oftt-perf``.

Two subcommands:

* ``check-chaos`` — the parallel-equivalence gate used by
  ``make verify``: run one small chaos campaign serially and again at
  ``--jobs N`` and require the rendered ``repro.chaos/v1`` JSON (and the
  text report) to be byte-identical.  Exit 0 on equality, 1 on any
  difference, 2 on usage error (including a ``--jobs`` that resolves to
  fewer than 2 workers, which would compare the serial run with itself).
* ``sweep`` — the detector-sensitivity sweep
  (``heartbeat_miss_threshold`` x ``heartbeat_timeout`` over a fixed set
  of chaos schedules); prints the table EXPERIMENTS.md publishes.

Examples::

    python -m repro.perf check-chaos --seeds 2 --schedules 2 --jobs 2
    oftt-perf sweep --seeds 4 --schedules 3 --jobs 0 --markdown
    oftt-perf sweep --policies --seeds 3 --jobs 0 --markdown --gate
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# oftt-lint: file-ok[ambient-io] -- the perf driver is a host-side CLI.
from repro.chaos.report import render_json, render_text
from repro.chaos.schedule import DRIFT_PROFILES
from repro.perf.executor import add_jobs_argument, resolve_jobs
from repro.perf.sweep import (
    DEFAULT_THRESHOLDS,
    DEFAULT_TIMEOUTS,
    policy_gate,
    render_rows,
    sweep_detectors,
    sweep_policies,
    sweep_strategies,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-perf",
        description="Parallel-equivalence gate and parameter sweeps for the OFTT toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check-chaos",
        help="run a campaign serially and at --jobs N; require byte-identical reports",
    )
    check.add_argument("--seeds", type=int, default=2, help="seeds to campaign over (default: 2)")
    check.add_argument("--schedules", type=int, default=2, help="schedules per seed (default: 2)")
    check.add_argument("--seed-base", type=int, default=0, help="first seed value (default: 0)")
    add_jobs_argument(check, default=2)

    sweep = commands.add_parser(
        "sweep",
        help="detector-sensitivity sweep (miss threshold x timeout over chaos schedules)",
    )
    sweep.add_argument("--seeds", type=int, default=4, help="seeds to sweep over (default: 4)")
    sweep.add_argument("--schedules", type=int, default=3, help="schedules per seed (default: 3)")
    sweep.add_argument("--seed-base", type=int, default=0, help="first seed value (default: 0)")
    sweep.add_argument("--thresholds", default="", metavar="N,N,...",
                       help=f"miss thresholds to sweep (default: {DEFAULT_THRESHOLDS})")
    sweep.add_argument("--timeouts", default="", metavar="MS,MS,...",
                       help=f"heartbeat timeouts in ms (default: {DEFAULT_TIMEOUTS})")
    sweep.add_argument("--strategies", action="store_true",
                       help="sweep replication strategies over fixed fault stories "
                            "instead of the detector grid")
    sweep.add_argument("--policies", action="store_true",
                       help="sweep recovery policies (static rules vs the adaptive layer) "
                            "over drifting fault-mix schedules")
    sweep.add_argument("--profiles", default="", metavar="NAME,NAME,...",
                       help="drift profiles for --policies (default: all)")
    sweep.add_argument("--gate", action="store_true",
                       help="with --policies: exit 1 unless adaptive beats every static "
                            "policy on the 'mixed' profile")
    sweep.add_argument("--markdown", action="store_true", help="emit a markdown table")
    sweep.add_argument("--out", default="", help="also write the table to this file")
    add_jobs_argument(sweep)
    return parser


def check_chaos(seeds: int, schedules: int, seed_base: int, jobs: int) -> int:
    """Byte-equality of a campaign across worker counts; exit-style int."""
    from repro.chaos.cli import campaign  # late import: keeps --help fast

    serial = campaign(seeds, schedules, seed_base, jobs=1)
    parallel = campaign(seeds, schedules, seed_base, jobs=jobs)
    checks = [
        ("json", render_json(serial), render_json(parallel)),
        ("text", render_text(serial), render_text(parallel)),
    ]
    failed = [name for name, first, second in checks if first != second]
    runs = seeds * schedules
    if failed:
        print(f"check-chaos: {runs} run(s), jobs={jobs}: DIVERGED in {', '.join(failed)} report(s)")
        for name, first, second in checks:
            if first != second:
                for line_a, line_b in zip(first.splitlines(), second.splitlines()):
                    if line_a != line_b:
                        print(f"  first {name} difference:\n    serial:   {line_a}\n    parallel: {line_b}")
                        break
        return 1
    print(f"check-chaos: {runs} run(s) byte-identical at --jobs 1 and --jobs {jobs}")
    return 0


def _parse_values(raw: str, cast) -> Optional[list]:
    if not raw.strip():
        return None
    return [cast(token.strip()) for token in raw.split(",") if token.strip()]


def _usage_error(options: argparse.Namespace) -> str:
    """Why *options* cannot run, or would make a gate check nothing ("" if fine)."""
    if options.seeds < 1 or options.schedules < 1:
        return "--seeds and --schedules must be positive"
    if options.command == "check-chaos":
        workers = resolve_jobs(options.jobs)
        if workers < 2:
            return (f"check-chaos compares the serial run with a parallel one; "
                    f"--jobs {options.jobs} resolves to {workers} worker(s), need at least 2")
        return ""
    if options.gate and not options.policies:
        return "--gate checks the policy sweep; it needs --policies"
    if options.policies:
        unknown = sorted(set(_parse_values(options.profiles, str) or ()) - set(DRIFT_PROFILES))
        if unknown:
            return (f"unknown drift profile(s) {', '.join(unknown)}; "
                    f"available: {', '.join(sorted(DRIFT_PROFILES))}")
    return ""


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    usage_error = _usage_error(options)
    if usage_error:
        print(f"oftt-perf: {usage_error}", file=sys.stderr)
        return 2

    if options.command == "check-chaos":
        return check_chaos(options.seeds, options.schedules, options.seed_base, options.jobs)

    gate_failures = []
    if options.policies:
        profiles = _parse_values(options.profiles, str)
        rows = sweep_policies(
            profiles=profiles,
            seeds=options.seeds,
            seed_base=options.seed_base,
            jobs=options.jobs,
        )
        if options.gate:
            gate_failures = policy_gate(rows)
    elif options.strategies:
        rows = sweep_strategies(seeds=options.seeds, seed_base=options.seed_base, jobs=options.jobs)
    else:
        try:
            thresholds = _parse_values(options.thresholds, int)
            timeouts = _parse_values(options.timeouts, float)
        except ValueError as exc:
            print(f"oftt-perf: bad sweep axis value ({exc})", file=sys.stderr)
            return 2
        rows = sweep_detectors(
            thresholds=thresholds,
            timeouts=timeouts,
            seeds=options.seeds,
            schedules=options.schedules,
            seed_base=options.seed_base,
            jobs=options.jobs,
        )
    rendered = render_rows(rows, markdown=options.markdown) + "\n"
    sys.stdout.write(rendered)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    if gate_failures:
        for failure in gate_failures:
            print(f"policy-gate: {failure}", file=sys.stderr)
        return 1
    if options.policies and options.gate:
        print("policy-gate: adaptive dominates every static policy on 'mixed'")
    return 0


if __name__ == "__main__":
    sys.exit(main())
