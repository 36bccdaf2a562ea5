"""Deployer-tuning sweeps: the S1-S3 tables of EXPERIMENTS.md.

The paper leaves the §2.2.1 heartbeat timeout and recovery rule to the
deployer.  Three sweeps price that choice, each registered in
:data:`repro.harness.run_experiments.EXPERIMENTS`:

* **S1** :func:`sweep_detectors` — miss threshold x heartbeat timeout
  over the same seeded chaos schedules;
* **S2** :func:`sweep_strategies` — the replication strategies over two
  fixed fault stories;
* **S3** :func:`sweep_policies` — static recovery rules against the
  adaptive policy over the drifting fault mixes.

The detector sweep tabulates the classic trade-off:

* **detection latency** — for every schedule fault the heartbeat path
  must detect (hangs, node/middleware deaths), the delay from injection
  to the first ``heartbeat-timeout`` / ``peer-lost`` trace event;
* **false positives** — detection events fired with *no* process- or
  node-killing fault active: the detector being fooled by network
  disturbance (partitions, gray nodes, corruption) or by nothing at all;
* **invariant violations** — the safety cost, from the standard chaos
  monitor suite, of desensitising the detector too far.

A detection event is *attributed* to a destructive fault when it lands in
``[at, at + timeout * miss_threshold + ATTRIBUTION_GRACE]``; anything
unattributed counts as a false positive.  The same ``(seed, schedule)``
set is evaluated at every grid point so columns are comparable.  Each
``evaluate_*_task`` is a pure function of its one argument, so a sweep's
rows depend only on its parameters.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.chaos.cli import campaign_tasks
from repro.chaos.runner import ChaosRun
from repro.chaos.schedule import ChaosSchedule, FaultEntry
from repro.core.config import REPLICATION_STRATEGIES, OfttConfig, replace_config
from repro.faults.injector import FaultInjector
from repro.harness.scenario import ChaosScenario

#: The detector grid S1 publishes.
DEFAULT_THRESHOLDS = [1, 2, 3]
DEFAULT_TIMEOUTS = [300.0, 500.0, 1_000.0]
#: Its points, threshold-major: the miss threshold varies slowest and
#: each axis keeps its listed order.
DETECTOR_GRID = [
    {"heartbeat_miss_threshold": threshold, "heartbeat_timeout": timeout}
    for threshold in DEFAULT_THRESHOLDS
    for timeout in DEFAULT_TIMEOUTS
]

#: Faults that must be caught (by heartbeat silence or peer loss).
DESTRUCTIVE_KINDS = frozenset({
    "app-crash", "app-hang", "middleware-crash",
    "node-failure", "bluescreen", "crash-during-checkpoint",
})
#: The subset only the heartbeat path can detect (no exit hook fires),
#: i.e. the faults whose latency actually measures the detector.
HEARTBEAT_ONLY_KINDS = frozenset({
    "app-hang", "node-failure", "bluescreen",
    "middleware-crash", "crash-during-checkpoint",
})
#: Slack added to the attribution window beyond the detector's own
#: worst-case (timeout x miss threshold): scheduling and repair jitter.
ATTRIBUTION_GRACE = 5_000.0

#: One sweep task: (grid point, seed, schedule).
SweepTask = Tuple[Dict[str, Any], int, ChaosSchedule]


def _config_for(point: Dict[str, Any]) -> OfttConfig:
    """The OfttConfig a grid point describes.

    The component and peer detectors share the swept timeout so one knob
    moves the whole detection surface; the heartbeat send period stays at
    its default (the timeout must exceed it — enforced by validate()).
    """
    return replace_config(
        OfttConfig(),
        heartbeat_timeout=float(point["heartbeat_timeout"]),
        peer_heartbeat_timeout=float(point["heartbeat_timeout"]),
        heartbeat_miss_threshold=int(point["heartbeat_miss_threshold"]),
    )


def evaluate_sweep_task(task: SweepTask) -> Dict[str, Any]:
    """One schedule under one detector setting.

    Runs the schedule with the full chaos monitor suite and reduces the
    trace to a small detection record.
    """
    point, seed, schedule = task
    run = ChaosRun(seed=seed, schedule=schedule, config=_config_for(point))
    result = run.execute()
    trace = run.scenario.trace
    detections = sorted(
        trace.select(category="engine", event="heartbeat-timeout")
        + trace.select(category="engine", event="peer-lost"),
        key=lambda record: record.time,
    )
    window = float(point["heartbeat_timeout"]) * int(point["heartbeat_miss_threshold"]) + ATTRIBUTION_GRACE

    destructive = [e for e in schedule.sorted_entries() if e.kind in DESTRUCTIVE_KINDS]
    latencies: List[float] = []
    missed = 0
    for entry in destructive:
        if entry.kind not in HEARTBEAT_ONLY_KINDS:
            continue
        hit = next((r for r in detections if entry.at <= r.time <= entry.at + window), None)
        if hit is None:
            missed += 1
        else:
            latencies.append(round(hit.time - entry.at, 3))
    false_positives = sum(
        1
        for record in detections
        if not any(e.at <= record.time <= e.at + window for e in destructive)
    )
    return {
        "faults": sum(1 for e in destructive if e.kind in HEARTBEAT_ONLY_KINDS),
        "latencies": latencies,
        "missed": missed,
        "false_positives": false_positives,
        "violations": len(result.violations),
        "passed": result.passed,
    }


def sweep_detectors(seeds: int = 4, schedules: int = 3) -> List[Dict[str, Any]]:
    """Run the sweep; one aggregated row per grid point, threshold-major."""
    points = DETECTOR_GRID
    runs = [(seed, schedule) for seed, schedule, _ in campaign_tasks(seeds, schedules, 0)]
    outcomes = [evaluate_sweep_task((point, seed, schedule)) for point in points for seed, schedule in runs]

    rows: List[Dict[str, Any]] = []
    per_point = len(runs)
    for index, point in enumerate(points):
        chunk = outcomes[index * per_point:(index + 1) * per_point]
        latencies = sorted(latency for outcome in chunk for latency in outcome["latencies"])
        detected = len(latencies)
        rows.append({
            "miss_threshold": point["heartbeat_miss_threshold"],
            "timeout_ms": point["heartbeat_timeout"],
            "runs": per_point,
            "faults": sum(outcome["faults"] for outcome in chunk),
            "detected": detected,
            "missed": sum(outcome["missed"] for outcome in chunk),
            "mean_latency_ms": round(sum(latencies) / detected, 1) if detected else None,
            "max_latency_ms": round(latencies[-1], 1) if detected else None,
            "false_positives": sum(outcome["false_positives"] for outcome in chunk),
            "violations": sum(outcome["violations"] for outcome in chunk),
        })
    return rows


#: Strategy-comparison sweep: the same two fault stories under every
#: replication strategy.  ``primary-crash`` is the paper's bread and
#: butter (one node dies, the pair recovers); ``total-pair-loss`` kills
#: both pair nodes 50ms apart — the failure the paper's pair cannot
#: survive and the log-replay DR site exists for.
STRATEGY_SCENARIOS: List[Tuple[str, List[FaultEntry]]] = [
    ("primary-crash", [FaultEntry(10_000.0, "node-failure", {"node": "alpha"})]),
    ("total-pair-loss", [
        FaultEntry(12_000.0, "node-failure", {"node": "alpha"}),
        FaultEntry(12_050.0, "node-failure", {"node": "beta"}),
    ]),
]
#: Horizon / workload cutoff for strategy-sweep runs.  The workload
#: stops well before the horizon so DR activation (5s silence) and any
#: queue drain complete inside the run.
STRATEGY_HORIZON = 30_000.0
STRATEGY_WORKLOAD_STOP = 20_000.0

#: One strategy-sweep task: (strategy, scenario name, faults, seed).
StrategyTask = Tuple[str, str, List[FaultEntry], int]


def evaluate_strategy_task(task: StrategyTask) -> Dict[str, Any]:
    """One fault story under one strategy.

    A message-driven chaos testbed (100ms workload, 2s full-checkpoint
    period — the cold-passive gap the other strategies attack) plays the
    fault entries, then reports who recovered, how fast, and how many
    workload messages the surviving state is missing.
    """
    strategy, _scenario_name, entries, seed = task
    scenario = ChaosScenario(
        seed=seed,
        config=replace_config(OfttConfig(), replication_strategy=strategy),
        workload_period=100.0,
        checkpoint_period=2_000.0,
        message_driven=True,
    )
    injector = FaultInjector(scenario.kernel, scenario, trace=scenario.trace)
    for entry in entries:
        injector.inject_at(entry.at, entry.build())
    scenario.start(settle=True)
    scenario.kernel.schedule(
        max(STRATEGY_WORKLOAD_STOP - scenario.kernel.now, 0.0), scenario.stop_workload
    )
    scenario.run(until=STRATEGY_HORIZON)

    fault_at = max(entry.at for entry in entries)
    pair = scenario.pair
    primary = next(iter(pair.primaries()), None)
    recovered_by = "none"
    applied = 0
    replayed = 0
    if primary is not None and pair.apps[primary].applied() > 0:
        recovered_by = "pair"
        applied = pair.apps[primary].applied()
    elif scenario.dr_site is not None and scenario.dr_site.active:
        recovered_by = "dr"
        # Re-reconstruct at the horizon: mirror records that arrived
        # after activation (clients keep logging) count too.
        image, replayed = scenario.dr_site.reconstruct()
        applied = image.get("globals", {}).get("applied", 0)
    recoveries = sorted(
        scenario.trace.select(category="engine", event="takeover")
        + scenario.trace.select(category="drsite", event="dr-activated"),
        key=lambda record: record.time,
    )
    hit = next((r for r in recoveries if r.time >= fault_at), None)
    return {
        "recovered_by": recovered_by,
        "recovery_ms": round(hit.time - fault_at, 1) if hit is not None else None,
        "sent": scenario.workload_sent,
        "applied": applied,
        "lost": scenario.workload_sent - applied,
        "replayed": replayed,
    }


def sweep_strategies(seeds: int = 3) -> List[Dict[str, Any]]:
    """Strategy x fault-story comparison; one aggregated row each."""
    tasks: List[StrategyTask] = [
        (strategy, name, entries, seed)
        for strategy in REPLICATION_STRATEGIES
        for name, entries in STRATEGY_SCENARIOS
        for seed in range(seeds)
    ]
    outcomes = [evaluate_strategy_task(task) for task in tasks]

    rows: List[Dict[str, Any]] = []
    for index in range(0, len(tasks), seeds):
        strategy, name, _entries, _seed = tasks[index]
        chunk = outcomes[index:index + seeds]
        latencies = sorted(o["recovery_ms"] for o in chunk if o["recovery_ms"] is not None)
        recovered = sorted({o["recovered_by"] for o in chunk})
        rows.append({
            "strategy": strategy,
            "scenario": name,
            "runs": len(chunk),
            "recovered_by": "/".join(recovered),
            "mean_recovery_ms": round(sum(latencies) / len(latencies), 1) if latencies else None,
            "sent": sum(o["sent"] for o in chunk),
            "applied": sum(o["applied"] for o in chunk),
            "lost": sum(o["lost"] for o in chunk),
            "replayed": sum(o["replayed"] for o in chunk),
        })
    return rows


# -- adaptive-vs-static policy sweep ------------------------------------------------
#
# The same drifting fault-mix schedules under every recovery policy.
# Metrics are placement-fair by construction (every drift motif hits
# both pair nodes) and attribution-free where possible:
#
# * **recovery latency** — total sampled time the pair is not in its
#   steady state (one live primary, all apps running; a dual primary
#   counts as unstable) divided by the number of destructive schedule
#   entries: mean unavailability bought per fault.  Summing samples
#   instead of matching events to faults means a policy cannot look
#   good by recovering "somewhere else" while the unit is still down.
# * **spurious failovers** — *unilateral* promotions (trace reason
#   "peer heartbeat loss" / "dual-backup resolution") with no
#   destructive entry within the attribution window before them.
#   Coordinated switchovers ("takeover request: ...") are deliberate,
#   availability-preserving handoffs and are never counted.

#: name -> OfttConfig overrides.  Six policies: the paper's default
#: static rule, three detector tunings of it, the two degenerate rules,
#: and the adaptive layer with everything at defaults.
POLICY_CONFIGS: List[Tuple[str, Dict[str, Any]]] = [
    ("static-default", {}),
    ("static-fast", {"heartbeat_timeout": 300.0, "peer_heartbeat_timeout": 300.0}),
    ("static-safe", {"heartbeat_miss_threshold": 3}),
    ("static-local-only", {"default_rule": None}),  # filled by _policy_config
    ("static-always-failover", {"default_rule": None}),
    ("adaptive", {"adaptive_policy": True}),
]
POLICY_NAMES = [name for name, _ in POLICY_CONFIGS]

#: Stability sample period (ms) for the unavailability integral.
POLICY_SAMPLE_PERIOD = 25.0
#: A unilateral promotion within this window after a destructive entry
#: is attributed to it; later ones are spurious.
POLICY_FP_WINDOW = 2_500.0

#: One policy-sweep task: (policy name, drift profile, seed).
PolicyTask = Tuple[str, str, int]


def _policy_config(name: str) -> OfttConfig:
    """The OfttConfig for one named policy."""
    from repro.core.config import RecoveryRule

    if name == "static-local-only":
        return replace_config(OfttConfig(), default_rule=RecoveryRule.local_only())
    if name == "static-always-failover":
        return replace_config(OfttConfig(), default_rule=RecoveryRule.always_failover())
    overrides = dict(next(o for n, o in POLICY_CONFIGS if n == name))
    return replace_config(OfttConfig(), **overrides) if overrides else OfttConfig()


def evaluate_policy_task(task: PolicyTask) -> Dict[str, Any]:
    """One drift profile under one policy."""
    from repro.chaos.schedule import DRIFT_DESTRUCTIVE_KINDS, drift_schedule

    policy, profile, seed = task
    scenario = ChaosScenario(seed=seed, config=_policy_config(policy))
    schedule = drift_schedule(profile, list(scenario.PAIR_NODES), scenario.APP_NAME)
    injector = FaultInjector(scenario.kernel, scenario, trace=scenario.trace)
    for entry in schedule.sorted_entries():
        injector.inject_at(entry.at, entry.build())
    scenario.start(settle=True)

    unstable = {"ms": 0.0}

    def sample() -> None:
        if scenario.kernel.now >= schedule.horizon:
            return
        if not scenario.pair.is_stable():
            unstable["ms"] += POLICY_SAMPLE_PERIOD
        scenario.kernel.schedule(POLICY_SAMPLE_PERIOD, sample)

    scenario.kernel.schedule(POLICY_SAMPLE_PERIOD, sample)
    scenario.run(until=schedule.horizon)

    destructive = [e for e in schedule.sorted_entries() if e.kind in DRIFT_DESTRUCTIVE_KINDS]
    unilateral = [
        record
        for record in scenario.trace.select(category="engine", event="takeover")
        if record.detail.get("reason") in ("peer heartbeat loss", "dual-backup resolution")
    ]
    spurious = sum(
        1
        for record in unilateral
        if not any(e.at <= record.time <= e.at + POLICY_FP_WINDOW for e in destructive)
    )
    switches = sum(
        engine.strategy_switch_count
        for engine in scenario.pair.engines.values()
        if engine.alive
    )
    return {
        "unstable_ms": round(unstable["ms"], 1),
        "destructive": len(destructive),
        "unilateral": len(unilateral),
        "spurious": spurious,
        "switches": switches,
    }


def sweep_policies(seeds: int = 3) -> List[Dict[str, Any]]:
    """Policy x drift-profile comparison; one aggregated row each."""
    from repro.chaos.schedule import DRIFT_PROFILES

    tasks: List[PolicyTask] = [
        (policy, profile, seed)
        for profile in sorted(DRIFT_PROFILES)
        for policy in POLICY_NAMES
        for seed in range(seeds)
    ]
    outcomes = [evaluate_policy_task(task) for task in tasks]

    rows: List[Dict[str, Any]] = []
    for index in range(0, len(tasks), seeds):
        policy, profile, _seed = tasks[index]
        chunk = outcomes[index:index + seeds]
        faults = sum(o["destructive"] for o in chunk)
        unstable = sum(o["unstable_ms"] for o in chunk)
        rows.append({
            "profile": profile,
            "policy": policy,
            "runs": len(chunk),
            "faults": faults,
            "unstable_ms": round(unstable, 1),
            "mean_recovery_ms": round(unstable / faults, 1) if faults else None,
            "spurious_failovers": sum(o["spurious"] for o in chunk),
            "strategy_switches": sum(o["switches"] for o in chunk),
        })
    return rows

