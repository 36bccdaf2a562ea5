"""Shape, contrast and per-task determinism of the deployer-tuning sweeps.

These run the S1-S3 sweeps of ``run_experiments`` at one seed; the claims
on the published rows are checked in
tests/integration/test_published_claims.py.
"""

from __future__ import annotations

import pytest

from repro.harness.sweeps import (
    DETECTOR_GRID,
    evaluate_policy_task,
    evaluate_strategy_task,
    POLICY_NAMES,
    STRATEGY_SCENARIOS,
    sweep_detectors,
    sweep_policies,
)
from tests.integration.test_published_claims import assert_adaptive_dominates


@pytest.fixture(scope="module")
def detector_rows():
    return sweep_detectors(seeds=1, schedules=2)


@pytest.fixture(scope="module")
def policy_rows():
    return sweep_policies(seeds=1)


def test_rows_follow_grid_order_and_shape(detector_rows):
    assert [(row["miss_threshold"], row["timeout_ms"]) for row in detector_rows] == [
        (point["heartbeat_miss_threshold"], point["heartbeat_timeout"]) for point in DETECTOR_GRID
    ]
    for row in detector_rows:
        assert row["runs"] == 2
        assert row["detected"] + row["missed"] == row["faults"]
        assert row["false_positives"] >= 0
        if row["detected"]:
            assert row["mean_latency_ms"] <= row["max_latency_ms"]
        else:
            assert row["mean_latency_ms"] is None


def test_higher_threshold_never_detects_faster(detector_rows):
    by_timeout = {}
    for row in detector_rows:
        by_timeout.setdefault(row["timeout_ms"], []).append(row)
    for rows in by_timeout.values():
        assert [row["miss_threshold"] for row in rows] == sorted(row["miss_threshold"] for row in rows)
        means = [row["mean_latency_ms"] for row in rows if row["detected"]]
        assert means and means == sorted(means)


def test_strategy_sweep_total_pair_loss_contrast():
    # The headline comparison: only log-replay-dr survives losing both
    # pair nodes — cold-passive has nobody left to recover anything.
    name, entries = STRATEGY_SCENARIOS[1]
    assert name == "total-pair-loss"
    cold = evaluate_strategy_task(("cold-passive", name, entries, 0))
    assert cold["recovered_by"] == "none"
    assert cold["applied"] == 0
    assert cold["lost"] == cold["sent"]

    dr = evaluate_strategy_task(("log-replay-dr", name, entries, 0))
    assert dr["recovered_by"] == "dr"
    assert dr["lost"] == 0
    assert dr["replayed"] > 0
    assert dr["recovery_ms"] is not None


def test_strategy_sweep_leader_follower_narrows_checkpoint_gap():
    name, entries = STRATEGY_SCENARIOS[0]
    assert name == "primary-crash"
    cold = evaluate_strategy_task(("cold-passive", name, entries, 0))
    lf = evaluate_strategy_task(("leader-follower", name, entries, 0))
    assert cold["recovered_by"] == lf["recovered_by"] == "pair"
    # Cold-passive replays into its 2s checkpoint gap; the update stream
    # loses at most the in-flight tail.
    assert lf["lost"] <= 2
    assert cold["lost"] > lf["lost"]


# -- policy sweep -----------------------------------------------------------


def test_policy_sweep_rows_shape_and_order(policy_rows):
    profiles = sorted({row["profile"] for row in policy_rows})
    assert [(row["profile"], row["policy"]) for row in policy_rows] == [
        (profile, policy) for profile in profiles for policy in POLICY_NAMES
    ]
    for row in policy_rows:
        assert row["runs"] == 1
        assert row["faults"] > 0
        assert row["mean_recovery_ms"] is not None
        assert row["spurious_failovers"] >= 0


def test_policy_sweep_only_adaptive_switches_strategies(policy_rows):
    # Gray is the switch-provoking profile: peer-gap evidence is seen by
    # both engines, so the serving primary reaches a hot-standby regime.
    by_policy = {row["policy"]: row for row in policy_rows if row["profile"] == "gray"}
    assert by_policy["adaptive"]["strategy_switches"] > 0
    assert all(
        row["strategy_switches"] == 0
        for row in policy_rows
        if row["policy"] != "adaptive"
    )


def test_policy_gate_passes_on_dominant_adaptive_and_fails_otherwise(policy_rows):
    assert_adaptive_dominates(policy_rows, "mixed")

    def row(policy, mean, spurious):
        return {
            "profile": "mixed",
            "policy": policy,
            "mean_recovery_ms": mean,
            "spurious_failovers": spurious,
        }

    assert_adaptive_dominates([row("static-default", 150.0, 2), row("adaptive", 100.0, 0)], "mixed")
    slow = [row("static-default", 90.0, 2), row("adaptive", 100.0, 0)]
    with pytest.raises(AssertionError, match="adaptive not below static-default"):
        assert_adaptive_dominates(slow, "mixed")
    trigger_happy = [row("static-default", 150.0, 0), row("adaptive", 100.0, 1)]
    with pytest.raises(AssertionError, match="adaptive spurious above static-default"):
        assert_adaptive_dominates(trigger_happy, "mixed")
    with pytest.raises(AssertionError, match="no adaptive row for profile 'mixed'"):
        assert_adaptive_dominates([row("static-default", 150.0, 0)], "mixed")


def test_policy_task_is_deterministic():
    first = evaluate_policy_task(("adaptive", "crashy", 0))
    second = evaluate_policy_task(("adaptive", "crashy", 0))
    assert first == second
