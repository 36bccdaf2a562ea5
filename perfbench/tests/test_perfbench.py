"""Tests of the benchmark itself: determinism, tracing, failure counting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import reference, report, workloads
from perfbench.patching import installed_wrappers
from perfbench.spans import SpanRecorder, read_spans, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, "perfbench/run.py"]

#: Small run sizes: enough units to exercise every code path quickly.
SMALL = {"campaign": 3, "chaos-drift": 2, "calltrack-failover": 4, "scada-steady": 3}


def _run_cli(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(RUN + list(args), cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_same_digest_other_seed_other_inputs(workload):
    first = workloads.execute(workload, 0, SMALL[workload])
    again = workloads.execute(workload, 0, SMALL[workload])
    other = workloads.execute(workload, 1, SMALL[workload])
    assert first.correct and again.correct and other.correct
    assert first.digest == again.digest
    assert first.sim == again.sim
    assert other.digest != first.digest


def _fake_outcome(unit_s, loop_s, digest="d"):
    return workloads.Outcome(workload="w", seed=0, unit_s=unit_s, loop_s=loop_s, setup_s=unit_s[0],
                             setup_loop_s=[loop_s[0]], sim_ms=1.0, attempted=1, failed=0, ops="ops",
                             checks={}, sim={}, counters={}, digest=digest)


def test_best_of_takes_each_units_fastest_scaled_time(monkeypatch):
    nominal = reference.NOMINAL_S
    # Run 2 ran on a host twice as slow: its raw times are higher, its
    # scaled times are not.
    runs = iter([
        _fake_outcome([3.0, 1.0, 2.0], [nominal] * 3),
        _fake_outcome([2.0, 8.0, 5.0], [2 * nominal] * 3),
        _fake_outcome([2.0, 2.0, 0.5], [nominal] * 3),
    ])
    monkeypatch.setattr(workloads, "execute", lambda *args: next(runs))
    first, timing = workloads.execute_best_of("w", 0, 3, 3)
    assert timing.unit_s == [1.0, 1.0, 0.5]
    assert timing.raw_unit_s == [2.0, 1.0, 0.5]
    assert timing.setup_s == [3.0, 1.0, 2.0]
    assert timing.run_s == [6.0, 7.5, 4.5]
    assert first.correct

    runs = iter([_fake_outcome([1.0], [nominal]), _fake_outcome([1.0], [nominal], "other")])
    assert not workloads.execute_best_of("w", 0, 1, 2)[0].correct


def test_scaling_uses_the_median_of_nearby_loop_samples(monkeypatch):
    monkeypatch.setattr(reference, "WINDOW", 1)
    nominal = reference.NOMINAL_S
    loops = [nominal, nominal, 9 * nominal, 2 * nominal, 2 * nominal]
    # Unit 2's window is [1, 9, 2] x nominal: the burst sample is ignored.
    assert reference.scaled([1.0] * 5, loops) == [1.0, 1.0, 0.5, 0.5, 0.5]


def test_reference_loop_is_fixed_work():
    assert reference.run_loop() == reference.CHECKSUM
    assert reference.sample() > 0


def test_campaign_seed_selects_different_schedules():
    from repro.chaos.cli import campaign_tasks

    def schedules(seed):
        base = seed * workloads.SEED_STRIDE
        return [task[1].as_wire() for task in campaign_tasks(1, 1, base) + campaign_tasks(1, 1, base + 1)]

    assert schedules(0) == schedules(0)
    assert schedules(0) != schedules(1)


def test_traced_run_matches_untraced_and_removes_every_wrapper():
    from repro.apps import calltrack
    from repro.chaos.invariants import SplitBrainMonitor
    from repro.nt import memory
    from repro.nt.process import NTProcess
    from repro.simnet.kernel import SimKernel
    from repro.simnet.network import Network

    originals = {
        "send": Network.__dict__["send"],
        "schedule": SimKernel.__dict__["schedule"],
        "alive": NTProcess.__dict__["alive"],
        "on_tick": SplitBrainMonitor.__dict__["on_tick"],
        "copy_variables": memory.copy_variables,
        "calltrack.copy_variables": calltrack.copy_variables,
    }
    untraced = workloads.execute("chaos-drift", 0, 2)
    recorder = SpanRecorder()
    traced = workloads.execute("chaos-drift", 0, 2, recorder=recorder)

    assert traced.digest == untraced.digest
    counts = recorder.span_counts()
    assert counts["network.send"] > 0 and counts["chaos.on_tick"] > 0
    assert recorder.counts["kernel.schedule"] > 0
    assert installed_wrappers() == []
    assert calltrack.copy_variables is memory.copy_variables is originals["copy_variables"]
    assert originals == {
        "send": Network.__dict__["send"],
        "schedule": SimKernel.__dict__["schedule"],
        "alive": NTProcess.__dict__["alive"],
        "on_tick": SplitBrainMonitor.__dict__["on_tick"],
        "copy_variables": memory.copy_variables,
        "calltrack.copy_variables": calltrack.copy_variables,
    }


def test_self_time_of_nested_spans():
    # root [0, 100] has children [10, 40], [50, 70] and [60, 90]
    # (overlapping) plus [95, 120] (sticks out); [10, 40] has [20, 30].
    starts = [0, 10, 20, 50, 60, 95]
    ends = [100, 40, 30, 70, 90, 120]
    parents = [-1, 0, 1, 0, 0, 0]
    # root: 100 - |[10,40] u [50,90] u [95,100]| = 100 - (30 + 40 + 5)
    assert self_times(starts, ends, parents) == [25, 20, 10, 20, 30, 25]


def test_recorder_nests_spans_and_skips_reentry(tmp_path):
    recorder = SpanRecorder()
    inner = recorder.span("inner")
    outer = recorder.span("outer")

    def leaf(depth):
        return leaf(depth - 1) if depth else 0

    leaf = inner(leaf)

    @outer
    def root():
        return leaf(3) + leaf(0)

    root()  # not recording: no spans
    recorder.recording = True
    root()
    rows = [(recorder.names[n], p) for n, p in zip(recorder.name_ids, recorder.parents)]
    assert rows == [("outer", -1), ("inner", 0), ("inner", 0)]
    path = str(tmp_path / "x.spans")
    recorder.write(path)
    names, spans = read_spans(path)
    assert names == ["inner", "outer"]
    assert [(name, parent) for name, _start, _end, parent in spans] == rows
    assert all(end >= start for _name, start, end, _parent in spans)


@pytest.mark.parametrize("workload, runner, units", [
    ("campaign", workloads.run_campaign, 6),
    ("chaos-drift", workloads.run_drift, 2),
])
def test_sabotaged_chaos_run_counts_failed_runs(workload, runner, units):
    clean = workloads.execute(workload, 0, units)
    with workloads.Run() as run:
        broken = runner(run, 0, units, sabotage="disable-dual-primary-resolution")
    assert clean.correct and clean.failed == 0 and clean.attempted == units
    assert not broken.correct
    assert broken.attempted == units and broken.failed >= 1
    assert broken.sim["failed_ops_ratio"] == broken.failed / broken.attempted
    assert installed_wrappers() == []


def test_crashed_schedule_run_fails_the_check_and_is_not_timed(monkeypatch):
    from repro.errors import ReproError

    real_campaign = workloads.campaign

    def flaky(seeds, schedules, seed_base, sabotage_name=""):
        if seed_base == 1:
            raise ReproError("boom")
        return real_campaign(seeds, schedules, seed_base, sabotage_name=sabotage_name)

    monkeypatch.setattr(workloads, "campaign", flaky)
    outcome = workloads.execute("campaign", 0, 3)
    assert not outcome.correct
    assert not outcome.checks["no schedule run raised"]
    assert outcome.checks["zero invariant violations"]
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert len(outcome.unit_s) == len(outcome.loop_s) == 2


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    # campaign is runnable but left out: some generated schedules crash repro.
    assert [w["name"] for w in spec["workloads"]] == [name for name in workloads.WORKLOADS if name != "campaign"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == report.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_contract_json_last(trace):
    result = _run_cli("--workload", "scada-steady", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    expected = report.PER_LAYER if trace == "1" else report.END_TO_END
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        name: unit for name, (unit, _better) in expected.items()
    }


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run_cli("--workload", "chaos-drift", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert result.returncode != 0
    assert result.stdout == ""
