"""The benchmark's workloads, driven through ``repro``'s public API.

Each workload is a closed batch: the simulator advances as fast as the
host allows.  The modelled traffic (telephone calls, PLC scans, the
chaos client's diverter messages) is open-loop in simulated time at the
scenarios' default rates.  Every input comes from the workload seed, so
one ``(seed, units)`` pair always yields the same simulated statistics
and the same :attr:`Outcome.digest`.

* ``campaign`` — one unit is one chaos schedule run:
  ``repro.chaos.cli.campaign(1, 1, seed_base)`` with ``seed_base =
  seed * SEED_STRIDE + i``, default cold-passive strategy, every
  invariant monitor, serial (``jobs=1``).  Not in ``BENCHMARK.json``:
  some generated schedules crash ``repro`` (see the README).
* ``chaos-drift`` — the same, but every unit plays the fixed drifting
  fault mix ``repro.chaos.cli.drift_campaign("mixed", 1, seed_base)``;
  only the testbed seed changes from unit to unit.
* ``calltrack-failover`` — the Figure 3 demo (5 lines, 10 callers,
  scenario seed = workload seed).  One unit is one fault -> recover ->
  rejoin cycle; the cycles walk the §4 demos a, b, c, d in turn, each
  on the current primary, repaired by reboot or reinstall.
* ``scada-steady`` — Figure 1(a) remote monitoring (scenario seed =
  workload seed), no faults.  One unit is a fixed slice of simulated
  time.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.chaos.cli import campaign, drift_campaign
from repro.errors import ReproError
from repro.faults import AppCrash, BlueScreen, MiddlewareCrash, NodeFailure, NodeReboot
from repro.faults.campaign import Campaign
from repro.harness.scenario import build_chaos, build_demo, build_remote_monitoring
from repro.simnet.trace import quantize

from perfbench import reference
from perfbench.patching import Patcher
from perfbench.probes import AppliedProbe, Registry, RpcProbe

#: campaign and chaos-drift: seed_base of unit i is seed * SEED_STRIDE + i.
SEED_STRIDE = 1000
#: chaos-drift: the drift profile every unit plays.
DRIFT_PROFILE = "mixed"
#: calltrack-failover: simulated ms of traffic before the first fault,
#: the settle timeout per fault, the rejoin wait, the gap after rejoin
#: and the drain after the telephone stops.
CALLTRACK_WARMUP_MS = 10_000.0
SETTLE_TIMEOUT_MS = 30_000.0
REJOIN_TIMEOUT_MS = 60_000.0
REJOIN_POLL_MS = 50.0
CYCLE_GAP_MS = 10_000.0
DRAIN_MS = 10_000.0
#: scada-steady: warm-up inside set-up, then an untimed run-in until the
#: trend buffers and the alarm log have filled to their caps (per-slice
#: cost climbs for the first ~400 sim s, then stays flat), and the
#: slice length.
SCADA_WARMUP_MS = 5_000.0
SCADA_RUN_IN_MS = 500_000.0
SLICE_MS = 5_000.0

#: §4 demos a-d, applied to the current primary node in this order.
DEMOS = (
    ("a", NodeFailure),
    ("b", BlueScreen),
    ("c", lambda node: AppCrash(node, "calltrack")),
    ("d", MiddlewareCrash),
)

#: Untraced runs per invocation; each unit's scaled time is its fastest.
REPEATS = 3
#: Reference loop samples taken right before the set-up.
SETUP_LOOP_SAMPLES = 11
#: Units per requested second, over all repeats.  The run size is a
#: fixed function of ``--seconds``, never of the clock, so the digest
#: depends only on the seed and the run length.  Rates were set so that
#: at ``--seconds 10`` at least 10 units lie beyond the p90.  On a 2-vCPU
#: x86-64 container with CPython 3.11 an untraced invocation then takes
#: ~13 s (chaos-drift), 11 s (campaign), 5 s (calltrack) and 7 s (scada).
UNITS_PER_SECOND = {"campaign": 30.0, "chaos-drift": 30.0, "calltrack-failover": 40.8, "scada-steady": 30.0}


def units_for(workload: str, seconds: float) -> int:
    """Timed units in one run of *seconds* (whole demo rounds for calltrack)."""
    units = max(1, round(seconds * UNITS_PER_SECOND[workload] / REPEATS))
    if workload == "calltrack-failover":
        units = len(DEMOS) * max(1, round(units / len(DEMOS)))
    return units


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (an actual sample; 0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def digest_of(value: Any) -> str:
    """sha256 of the canonical JSON form of *value*."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one workload run produced."""

    workload: str
    seed: int
    #: Host seconds of each timed unit, and the reference loop sample
    #: taken right before it.
    unit_s: List[float]
    loop_s: List[float]
    #: Host seconds of the set-up, and the reference samples before it.
    setup_s: float
    setup_loop_s: List[float]
    sim_ms: float
    attempted: int
    failed: int
    #: What attempted/failed count, e.g. "telephone events".
    ops: str
    checks: Dict[str, bool]
    #: Workload-specific simulated statistics (deterministic per seed).
    sim: Dict[str, float]
    #: Registry counter deltas over the timed units.
    counters: Dict[str, float]
    digest: str = ""

    @property
    def correct(self) -> bool:
        return all(self.checks.values())

    def scaled_unit_s(self) -> List[float]:
        """Each unit's host time scaled by the reference loop."""
        return reference.scaled(self.unit_s, self.loop_s)

    def scaled_setup_s(self) -> float:
        return self.setup_s * reference.NOMINAL_S / statistics.median(self.setup_loop_s)


@dataclass
class Timing:
    """Host times of identical untraced runs, combined."""

    #: Per unit: its fastest scaled time over the runs.
    unit_s: List[float]
    #: Per unit: its fastest raw host time over the runs.
    raw_unit_s: List[float]
    #: Per run: scaled set-up time, and scaled total of the timed units.
    setup_s: List[float]
    run_s: List[float]
    #: Median reference loop sample over every run.
    loop_s: float


class Run:
    """Probes (and, for a traced run, the span recorder) plus unit timing."""

    def __init__(self, recorder=None) -> None:
        self.patcher = Patcher()
        self.registry = Registry()
        self.applied = AppliedProbe()
        self.rpc = RpcProbe()
        self.recorder = recorder
        self.unit_s: List[float] = []
        self.loop_s: List[float] = []
        self.setup_s = 0.0
        self.setup_loop_s: List[float] = []

    def __enter__(self) -> "Run":
        try:
            self.registry.install(self.patcher)
            self.applied.install(self.patcher)
            self.rpc.install(self.patcher)
            if self.recorder is not None:
                self.recorder.install(self.patcher)
        except BaseException:
            self.patcher.restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.patcher.restore()

    @contextmanager
    def setup(self) -> Iterator[None]:
        self.setup_loop_s = [reference.sample() for _ in range(SETUP_LOOP_SAMPLES)]
        start = time.perf_counter()
        yield
        self.setup_s = time.perf_counter() - start

    @contextmanager
    def unit(self) -> Iterator[None]:
        self.loop_s.append(reference.sample())
        recorder = self.recorder
        if recorder is not None:
            recorder.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.unit_s.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.recording = False

    def drop_last_unit(self) -> None:
        """Leave the last unit out of the timings."""
        self.unit_s.pop()
        self.loop_s.pop()

    def outcome(self, workload: str, seed: int, **fields: Any) -> Outcome:
        return Outcome(workload=workload, seed=seed, unit_s=self.unit_s, loop_s=self.loop_s,
                       setup_s=self.setup_s, setup_loop_s=self.setup_loop_s, **fields)


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before[name] for name in after}


def _ckpt_kb_per_sim_s(counters: Dict[str, float], sim_ms: float) -> float:
    return counters["ckpt_bytes"] / 1024.0 / (sim_ms / 1000.0) if sim_ms else 0.0


# -- campaign and chaos-drift ----------------------------------------------


def _run_schedules(run: Run, workload: str, seed: int, units: int,
                   play: Callable[[int], Any]) -> Outcome:
    """*units* chaos runs, ``play(seed_base)`` each.

    A run that raises counts as a failed op, like one with an invariant
    violation, and fails the correctness check: its monitors never saw
    the run to the end.
    """
    # Every unit builds and settles its own testbed; set-up times one
    # such build, the fixed cost each unit repeats.
    with run.setup():
        build_chaos(seed=seed * SEED_STRIDE).start(settle=True)
    run.registry.retire()
    before = run.registry.totals()
    rows, sim_ms = [], 0.0
    for index in range(units):
        seed_base = seed * SEED_STRIDE + index
        with run.unit():
            try:
                (result,) = play(seed_base)
            except ReproError as exc:
                result = None
                rows.append({"seed": seed_base, "error": f"{type(exc).__name__}: {exc}"})
        if result is None:
            # No simulated time to credit it with: leave its host time out too.
            run.drop_last_unit()
        run.registry.retire()
        if result is not None:
            rows.append(result.as_wire())
            sim_ms += result.final_time
    violated = sum(1 for row in rows if row.get("violations"))
    crashed = sum(1 for row in rows if "error" in row)
    counters = _delta(run.registry.totals(), before)
    sim = {"runs": units, "violated_runs": violated, "crashed_runs": crashed,
           "failed_ops_ratio": (violated + crashed) / units,
           "ckpt_kb_per_sim_s": _ckpt_kb_per_sim_s(counters, sim_ms)}
    outcome = run.outcome(
        workload, seed, sim_ms=sim_ms, attempted=units, failed=violated + crashed,
        ops="schedule runs (violated or crashed)",
        checks={"zero invariant violations": violated == 0, "no schedule run raised": crashed == 0},
        sim=sim, counters=counters,
    )
    outcome.digest = digest_of({"rows": rows, "sim": sim, "counters": counters})
    return outcome


def run_campaign(run: Run, seed: int, units: int, sabotage: str = "") -> Outcome:
    """*units* generated chaos schedules, one ``campaign()`` call each."""
    return _run_schedules(run, "campaign", seed, units,
                          lambda seed_base: campaign(1, 1, seed_base, sabotage_name=sabotage))


def run_drift(run: Run, seed: int, units: int, sabotage: str = "") -> Outcome:
    """*units* runs of the fixed drifting fault mix, one testbed seed each."""
    return _run_schedules(run, "chaos-drift", seed, units,
                          lambda seed_base: drift_campaign(DRIFT_PROFILE, 1, seed_base, sabotage_name=sabotage))


# -- calltrack-failover -----------------------------------------------------


def _failover_cycle(demo: Any, faults: Campaign, make_fault: Callable[[str], Any]) -> Dict[str, Any]:
    """Fault the primary, wait for recovery, repair, wait for the rejoin."""
    pair = demo.pair
    primary = pair.primary_node()
    if primary is None:
        demo.run_for(CYCLE_GAP_MS)
        return {"error": "no primary at cycle start", "recovered": False, "rejoined_at": None}
    try:
        record = faults.run_fault(make_fault(primary))
        if not demo.systems[primary].is_up:
            faults.injector.inject_now(NodeReboot(primary, reinstall=True))
        elif not pair.engines[primary].alive:
            pair.reinstall_node(primary)
        deadline = demo.kernel.now + REJOIN_TIMEOUT_MS
        while not (pair.is_stable() and pair.backup_node() is not None) and demo.kernel.now < deadline:
            demo.run_for(REJOIN_POLL_MS)
    except ReproError as exc:
        return {"error": f"{type(exc).__name__}: {exc}", "recovered": False, "rejoined_at": None}
    rejoined = pair.is_stable() and pair.backup_node() is not None
    row = record.as_wire()
    row["outage_ms"] = record.recovery_latency
    row["rejoined_at"] = quantize(demo.kernel.now) if rejoined else None
    demo.run_for(CYCLE_GAP_MS)
    return row


def _never_applied(generated: Dict[int, float], app: Any, before: float = math.inf) -> List[int]:
    """Sequences generated before *before* that the running copy has not applied."""
    state = app.state() if app is not None else {}
    floor = state.get("seen_floor", 0)
    recent = set(state.get("seen_recent", []))
    return [seq for seq in sorted(generated) if generated[seq] < before and seq > floor and seq not in recent]


def run_calltrack(run: Run, seed: int, units: int) -> Outcome:
    """*units* fault -> recover -> rejoin cycles over the §4 demos.

    Events still missing from the running copy's state when the run
    ends (after the telephone stops and in-flight events drain) count as
    failed ops.  Each row also records how many events generated before
    the cycle were missing when it ended, which shows where losses began.
    """
    with run.setup():
        demo = build_demo(seed=seed)
        generated: Dict[int, float] = {}
        demo.telephone.add_listener(lambda event: generated.__setitem__(event.sequence, event.time))
        run.applied.reset(lambda: demo.kernel.now)
        demo.start(settle=True)
        demo.run_for(CALLTRACK_WARMUP_MS)
    faults = Campaign(demo.kernel, demo, settle_timeout=SETTLE_TIMEOUT_MS)
    before, start_ms = run.registry.totals(), demo.kernel.now
    rows = []
    for index in range(units):
        demo_id, make_fault = DEMOS[index % len(DEMOS)]
        cycle_start = demo.kernel.now
        with run.unit():
            row = _failover_cycle(demo, faults, make_fault)
        row["demo"] = demo_id
        # Only events older than the cycle: newer ones may still be in flight.
        row["missing_after"] = len(_never_applied(generated, demo.primary_app(), before=cycle_start))
        rows.append(row)
    sim_ms = demo.kernel.now - start_ms
    counters = _delta(run.registry.totals(), before)

    # Let in-flight events land before counting what was never applied.
    demo.telephone.stop()
    demo.run_for(DRAIN_MS)
    app = demo.primary_app()
    state = app.state() if app is not None else {}
    lost = _never_applied(generated, app)
    applied_at = run.applied.applied_at
    lags = [applied_at[seq] - generated[seq] for seq in sorted(generated) if seq in applied_at]
    outages = [row["outage_ms"] for row in rows if row["recovered"]]
    first_loss = next((i for i, row in enumerate(rows) if row["missing_after"]), None)
    sim = {
        "outage_ms_p50": percentile(outages, 0.50),
        "outage_ms_p90": percentile(outages, 0.90),
        "outage_samples": len(outages),
        "event_lag_ms_p50": percentile(lags, 0.50),
        "event_lag_ms_p99": percentile(lags, 0.99),
        "event_lag_samples": len(lags),
        "events_generated": len(generated),
        "events_lost": len(lost),
        "first_loss_cycle": -1 if first_loss is None else first_loss + 1,
        "failed_ops_ratio": len(lost) / max(1, len(generated)),
        "ckpt_kb_per_sim_s": _ckpt_kb_per_sim_s(counters, sim_ms),
    }
    checks = {
        "every failover recovered within the settle timeout": all(row["recovered"] for row in rows),
        "every failed node rejoined": all(row["rejoined_at"] is not None for row in rows),
        "a primary copy runs at the end": app is not None,
        "events applied <= events generated": state.get("events_processed", 0) <= len(generated)
        and set(applied_at) <= set(generated),
    }
    outcome = run.outcome(
        "calltrack-failover", seed, sim_ms=sim_ms, attempted=len(generated), failed=len(lost),
        ops="telephone events", checks=checks, sim=sim, counters=counters,
    )
    outcome.digest = digest_of({
        "rows": rows, "sim": sim, "counters": counters, "lost": lost,
        "trace": demo.trace.fingerprint(), "state": state,
    })
    return outcome


# -- scada-steady -----------------------------------------------------------


def run_scada(run: Run, seed: int, units: int) -> Outcome:
    """*units* fixed slices of simulated time with no faults, in steady state."""
    with run.setup():
        scenario = build_remote_monitoring(seed=seed)
        scenario.start(settle=True)
        scenario.run_for(SCADA_WARMUP_MS)
    scenario.run_for(SCADA_RUN_IN_MS)
    run.rpc.reset()
    before, start_ms = run.registry.totals(), scenario.kernel.now
    seen: List[Optional[int]] = []
    for _ in range(units):
        with run.unit():
            scenario.run_for(SLICE_MS)
        app = scenario.primary_app()
        seen.append(app.updates_seen() if app is not None else None)
    sim_ms = scenario.kernel.now - start_ms
    counters = _delta(run.registry.totals(), before)
    rpc = run.rpc
    sim = {
        "updates_seen": seen[-1] or 0,
        "rpc_invocations": rpc.invocations,
        "rpc_failures": rpc.failures,
        "failed_ops_ratio": rpc.failures / max(1, rpc.invocations),
        "ckpt_kb_per_sim_s": _ckpt_kb_per_sim_s(counters, sim_ms),
    }
    previous = [None] + seen[:-1]
    checks = {
        "the primary SCADA copy saw new updates in every slice": all(
            now is not None and (before_slice is None or now > before_slice)
            for before_slice, now in zip(previous, seen)
        ),
    }
    app = scenario.primary_app()
    outcome = run.outcome(
        "scada-steady", seed, sim_ms=sim_ms, attempted=rpc.invocations, failed=rpc.failures,
        ops="DCOM invocations", checks=checks, sim=sim, counters=counters,
    )
    outcome.digest = digest_of({
        "seen": seen, "sim": sim, "counters": counters,
        "trace": scenario.trace.fingerprint(), "state": app.state() if app is not None else None,
    })
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "campaign": run_campaign,
    "chaos-drift": run_drift,
    "calltrack-failover": run_calltrack,
    "scada-steady": run_scada,
}


def execute(workload: str, seed: int, units: int, recorder=None) -> Outcome:
    """One run of *workload*; every wrapper is removed when it returns."""
    with Run(recorder) as run:
        return WORKLOADS[workload](run, seed, units)


def execute_best_of(workload: str, seed: int, units: int, repeats: int) -> Tuple[Outcome, Timing]:
    """*repeats* identical untraced runs, each unit timed at its fastest.

    The runs are deterministic, so unit ``i`` does the same work in each
    of them; its least scaled time is the one least slowed by whatever
    else shares the host.  The runs must agree on the digest.  Returns
    the first run's outcome and the combined timing.
    """
    outcomes = [execute(workload, seed, units) for _ in range(repeats)]
    scaled = [o.scaled_unit_s() for o in outcomes]
    timing = Timing(
        unit_s=[min(times) for times in zip(*scaled)],
        raw_unit_s=[min(times) for times in zip(*(o.unit_s for o in outcomes))],
        setup_s=[o.scaled_setup_s() for o in outcomes],
        run_s=[sum(times) for times in scaled],
        loop_s=statistics.median([s for o in outcomes for s in o.loop_s] or [0.0]),
    )
    first = outcomes[0]
    first.checks[f"{repeats} runs gave the same digest"] = len({o.digest for o in outcomes}) == 1
    return first, timing
