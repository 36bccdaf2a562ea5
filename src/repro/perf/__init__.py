"""Deterministic parallel execution for independent seeded runs.

:mod:`repro.perf.executor` is a process-pool fan-out whose merged
results are byte-identical to the serial run regardless of worker
count (see PERF.md).  Wired into ``oftt-chaos --jobs``,
``oftt-replay --jobs`` and ``run_experiments --jobs``.
"""

from repro.perf.executor import parallel_map, resolve_jobs

__all__ = ["parallel_map", "resolve_jobs"]
