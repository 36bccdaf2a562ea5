"""Experiment harness: scenario builders, runners and report printers.

* :mod:`~repro.harness.scenario` — constructs the paper's reference
  configurations (Figure 1a, Figure 1b) and the §4 demonstration testbed
  (Figure 3 / Table 1) on the simulated substrates.
* :mod:`~repro.harness.experiments` — runs each experiment of the
  DESIGN.md index and returns structured results.
* :mod:`~repro.harness.sweeps` — the deployer-tuning sweeps S1-S3
  (detector sensitivity, replication strategies, recovery policies).
* :mod:`~repro.harness.reporting` — renders result tables/series the way
  EXPERIMENTS.md records them.
"""

from repro.harness.scenario import (
    DemoScenario,
    IntegratedScenario,
    RemoteMonitoringScenario,
    build_demo,
    build_integrated,
    build_remote_monitoring,
)

__all__ = [
    "DemoScenario",
    "IntegratedScenario",
    "RemoteMonitoringScenario",
    "build_demo",
    "build_integrated",
    "build_remote_monitoring",
]
