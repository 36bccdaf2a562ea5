"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload chaos-drift --seed 0 --seconds 10 --trace 0

``--trace 0`` runs the workload untraced (``REPEATS`` identical runs,
each unit timed at its fastest, host times scaled by the reference loop
in ``reference.py``) and prints the end-to-end metrics.
``--trace 1`` then runs it once more traced (the same seed and size),
checks that the traced run produced the same digest, writes the spans
to ``.perfbench/`` and prints the per-layer metrics.  The last
line of standard output is always one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 when every correctness check passed, 1 when one failed
(the result is still printed), 2 when ``repro`` cannot be imported from
``src/`` next to this directory (no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="chaos-drift, calltrack-failover, scada-steady or campaign")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10, help="run length; sets the number of units")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def import_repro() -> float:
    """Import ``repro`` from ``ROOT/src`` and the workloads; returns the seconds taken."""
    start = time.perf_counter()
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise ImportError(f"repro was imported from {repro.__file__}, not from {src}")
    import perfbench.workloads  # noqa: F401  (imports every repro layer the workloads drive)

    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.seed < 0 or options.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        import_s = import_repro()
    except ImportError as exc:
        print(f"perfbench: cannot import repro: {exc}", file=sys.stderr)
        return 2
    from perfbench import reference, report, workloads
    from perfbench.patching import installed_wrappers
    from perfbench.spans import SpanRecorder

    if options.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    import_loop_s = [reference.sample() for _ in range(workloads.SETUP_LOOP_SAMPLES)]
    import_s *= reference.NOMINAL_S / statistics.median(import_loop_s)
    units = workloads.units_for(options.workload, options.seconds)
    untraced, timing = workloads.execute_best_of(options.workload, options.seed, units, workloads.REPEATS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = report.end_to_end(untraced, timing, import_s, peak_rss_mb)
    lines = report.render(untraced, timing, metrics, import_s)
    correct = untraced.correct

    if options.trace:
        recorder = SpanRecorder()
        traced = workloads.execute(options.workload, options.seed, units, recorder=recorder)
        path = os.path.join(ROOT, ".perfbench", f"{options.workload}.spans")
        recorder.write(path)
        layers = report.per_layer(recorder, traced, timing)
        same = traced.digest == untraced.digest
        leftover = installed_wrappers()
        lines += report.render_layers(layers, len(recorder.starts), os.path.relpath(path, ROOT))
        lines.append(f"  {'PASS' if same else 'FAIL'} traced digest equals untraced digest")
        lines.append(f"  {'PASS' if not leftover else 'FAIL'} every wrapper removed {leftover or ''}")
        correct = correct and traced.correct and same and not leftover
        metrics = layers

    names = report.PER_LAYER if options.trace else report.END_TO_END
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": untraced.attempted,
        "failed": untraced.failed,
        "metrics": {name: {"value": metrics[name], "unit": names[name][0]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
