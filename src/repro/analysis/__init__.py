"""Static-analysis toolkit guarding the simulation's reliability contracts.

The kernel promises that two runs with the same seed produce identical
traces (:mod:`repro.simnet.kernel`), and the COM layer promises that every
remotable object honours its declared interfaces
(:mod:`repro.com.object`).  Nothing in Python enforces either promise: one
stray ``time.time()`` or an undeclared CamelCase method silently breaks
replay or the marshalling contract.  This package machine-checks both,
plus a third hazard class — same-timestamp event handlers whose relative
order is fixed only by the kernel's sequence-number tiebreak.

Five passes run over the source tree (``python -m repro.analysis src/repro``):

* :mod:`repro.analysis.determinism` — wall-clock, ambient entropy,
  unordered fan-out, and other seed-replay hazards (``DET*`` rules).
* :mod:`repro.analysis.comcheck` — ``ComObject`` subclasses cross-checked
  against their ``InterfaceDecl``s, HRESULT discipline (``COM*`` rules).
* :mod:`repro.analysis.effects` — whole-program layer: a call graph
  (:mod:`repro.analysis.callgraph`) plus per-function effect summaries
  propagated with k-bounded inlining (:mod:`repro.analysis.summaries`)
  drive the same-tick handler race rules (:mod:`repro.analysis.races`,
  ``RACE001–004`` in handler bodies, ``RACE101–103`` through helper
  chains) and purity checks for ``parallel_map`` tasks (``PURE001–004``).
* :mod:`repro.analysis.hotpath` — per-event waste in functions hot under
  the hot-root manifest (``HOT*`` rules).
* :mod:`repro.analysis.lifecycle` — acquire/release leaks against the
  lifecycle manifest (``LIFE*`` rules).

Findings carry a rule id, slug, severity and ``file:line``; deliberate
violations are silenced in place with ``# oftt-lint: ok[slug]`` comments
(see :mod:`repro.analysis.suppress`).  The rule catalogue lives in
``ANALYSIS.md`` at the repo root.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Rule, Severity, all_rules, rule
from repro.analysis.walker import SourceFile, load_sources, run_passes

# Importing the pass modules registers their rules, so suppression
# parsing (`is_known`) has the complete catalogue no matter which entry
# point loaded this package.
from repro.analysis import comcheck as _comcheck  # noqa: F401  (registers COM*)
from repro.analysis import determinism as _determinism  # noqa: F401  (registers DET*)
from repro.analysis import effects as _effects  # noqa: F401  (registers RACE*/PURE*)
from repro.analysis import hotpath as _hotpath  # noqa: F401  (registers HOT*)
from repro.analysis import lifecycle as _lifecycle  # noqa: F401  (registers LIFE*)

__all__ = [
    "Finding",
    "Rule",
    "Severity",
    "SourceFile",
    "all_rules",
    "load_sources",
    "rule",
    "run_passes",
]
