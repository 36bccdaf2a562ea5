"""Every claim EXPERIMENTS.md publishes, checked against the published run.

Each test runs one entry of :data:`repro.harness.run_experiments.EXPERIMENTS`
through :func:`run_experiment_task`, so the seeds and parameters are the
ones the registry publishes, and then checks the claims that entry's table
supports.  A registry entry without claims here fails the suite.
"""

import pytest

from repro.core.config import OfttConfig
from repro.core.drsite import DR_ACTIVATION_TIMEOUT
from repro.harness.run_experiments import EXPERIMENTS, run_experiment_task
from repro.harness.sweeps import DEFAULT_THRESHOLDS, DEFAULT_TIMEOUTS, POLICY_NAMES


def claims_f1(rows):
    """Both Figure 1 configurations carry data through a node failure."""
    assert all(row["survived"] for row in rows)
    assert all(row["primary_after"] != row["primary_before"] for row in rows)


def claims_f2(result):
    """Every Figure 2 component is alive and exchanging data."""
    assert result["engine_processes_alive"]
    assert result["ftim_linked"]
    assert result["checkpoints_mirrored"] > 0
    assert result["monitor_sees_primary"]
    assert not result["app_running_on_backup"]


def claims_f3(rows):
    """Table 1: every software element runs where the paper puts it."""
    assert all(row["app_running"] == row["expected_app_running"] for row in rows)
    assert sorted(row["role"] for row in rows if row["node"] != "test-pc") == ["backup", "primary"]


def claims_d(rows):
    """§4: operation continues through demos (a)-(d), each within 5 s."""
    assert all(row["continued_operation"] for row in rows)
    assert [row["demo"] for row in rows] == ["a", "b", "c", "d"]
    for row in rows:
        assert row["recovery_ms"] is not None and row["recovery_ms"] < 5_000.0


def claims_x1(rows):
    """Selective capture is tiny and constant; full grows with the state."""
    by_key = {(row["cold_kb"], row["mode"]): row["mean_bytes"] for row in rows}
    for size in (16, 64, 256):
        assert by_key[(size, "selective")] < by_key[(size, "full")] / 10
        assert by_key[(size, "incremental")] < by_key[(size, "full")] / 2
    assert by_key[(256, "full")] > by_key[(16, "full")] * 4
    assert by_key[(256, "selective")] == by_key[(16, "selective")]


def claims_x2(rows):
    """A hang is detected after the timeout, within four heartbeat periods."""
    assert all(row["detected"] for row in rows)
    latencies = [row["detection_ms"] for row in rows]
    assert latencies == sorted(latencies)
    for row in rows:
        assert row["timeout_ms"] <= row["detection_ms"] <= row["timeout_ms"] + 4 * row["heartbeat_period_ms"]


def claims_x3(rows):
    """§3.2: the original startup logic often shuts down; retries fix it."""
    rates = [row["shutdown_rate"] for row in rows]
    assert rates[0] > 0.2
    assert rates == sorted(rates, reverse=True)
    assert rates[-1] == 0.0


def claims_x4(rows):
    """The diverter loses < 1 % across a switchover, the naive sender more."""
    diverter, naive = rows
    assert diverter["loss_rate"] < naive["loss_rate"]
    assert diverter["loss_rate"] < 0.01
    assert naive["events_lost"] > diverter["events_lost"]


def claims_x5(rows):
    """The recovery rule decides between local restart and failover."""
    local, failover = rows
    assert local["recovered"] and failover["recovered"]
    assert not local["switched_over"] and local["local_restarts"] == 1
    assert failover["switched_over"] and failover["local_restarts"] == 0


def claims_x6(result):
    """OFTT detects a dead node in under half the DCOM RPC timeout."""
    assert result["dead_node_rpc_latency_ms"] >= result["rpc_timeout_config_ms"]
    assert result["dead_process_latency_ms"] < 100.0
    assert result["oftt_detection_latency_ms"] < result["dead_node_rpc_latency_ms"] / 2


def claims_x7(rows):
    """Selective saves shrink checkpoints; event-based saves lose nothing."""
    levels = {row["level"]: row for row in rows}
    assert levels["L2 selective"]["mean_checkpoint_bytes"] < levels["L1 init-only"]["mean_checkpoint_bytes"]
    assert levels["L3 event-based"]["checkpoints_taken"] >= levels["L2 selective"]["checkpoints_taken"]
    assert levels["L3 event-based"]["events_lost"] == 0


def claims_a1(rows):
    """A single LAN splits the pair under a NIC failure; a dual LAN hides it."""
    single, dual = rows
    assert single["ethernet_segments"] == 1
    assert single["dual_primary_window_ms"] > 0
    assert dual["dual_primary_window_ms"] == 0
    assert single["resolved_after_heal"] and dual["resolved_after_heal"]


def claims_a2(rows):
    """Generous heartbeat timeouts never take over falsely on a lossy link."""
    by_loss = {}
    for row in rows:
        by_loss.setdefault(row["loss"], []).append(row)
    for entries in by_loss.values():
        entries.sort(key=lambda row: row["timeout_ms"])
        takeovers = [row["false_takeovers"] for row in entries]
        assert takeovers == sorted(takeovers, reverse=True) or takeovers[-1] <= takeovers[0]
        assert entries[-1]["false_takeovers"] == 0


def claims_a3(rows):
    """Longer checkpoint periods trade traffic for staleness."""
    assert all(row["recovered"] for row in rows)
    checkpoints = [row["checkpoints_taken"] for row in rows]
    staleness = [row["max_staleness_ticks"] for row in rows]
    assert checkpoints == sorted(checkpoints, reverse=True)
    assert staleness == sorted(staleness)


def claims_bl(result):
    """The monitoring blackout is failover plus a few update periods."""
    assert result["resumed"]
    assert result["failover_latency_ms"] is not None
    assert result["blackout_ms"] < result["failover_latency_ms"] + 5 * 200.0
    assert result["blackout_ms"] > result["median_progress_gap_ms"]


def claims_s1(rows):
    """Desensitising the detector costs latency and buys fewer false positives, never safety."""
    assert [(row["miss_threshold"], row["timeout_ms"]) for row in rows] == [
        (threshold, timeout) for threshold in DEFAULT_THRESHOLDS for timeout in DEFAULT_TIMEOUTS
    ]
    for row in rows:
        assert (row["runs"], row["faults"], row["violations"]) == (12, 14, 0)
        assert row["detected"] + row["missed"] == row["faults"]
        assert row["mean_latency_ms"] <= row["max_latency_ms"]
    grid = {(row["miss_threshold"], row["timeout_ms"]): row for row in rows}
    for threshold in DEFAULT_THRESHOLDS:
        means = [grid[threshold, timeout]["mean_latency_ms"] for timeout in DEFAULT_TIMEOUTS]
        assert means == sorted(set(means))
        positives = [grid[threshold, timeout]["false_positives"] for timeout in DEFAULT_TIMEOUTS]
        assert positives == sorted(positives, reverse=True)
    for timeout in DEFAULT_TIMEOUTS:
        means = [grid[threshold, timeout]["mean_latency_ms"] for threshold in DEFAULT_THRESHOLDS]
        # Each extra consecutive miss costs one heartbeat period.
        for faster, slower in zip(means, means[1:]):
            assert slower - faster == pytest.approx(OfttConfig().heartbeat_period)
        positives = [grid[threshold, timeout]["false_positives"] for threshold in DEFAULT_THRESHOLDS]
        assert positives == sorted(positives, reverse=True)
    twitchiest = grid[DEFAULT_THRESHOLDS[0], DEFAULT_TIMEOUTS[0]]
    calmest = grid[DEFAULT_THRESHOLDS[-1], DEFAULT_TIMEOUTS[-1]]
    assert calmest["false_positives"] < twitchiest["false_positives"]
    # The attribution artifact: the longest timeout attributes one more detection.
    assert calmest["detected"] > twitchiest["detected"]


def claims_s2(rows):
    """Leader-follower narrows the checkpoint gap; only log-replay DR survives losing the pair."""
    cells = {(row["strategy"], row["scenario"]): row for row in rows}
    crash = {strategy: row for (strategy, scenario), row in cells.items() if scenario == "primary-crash"}
    loss = {strategy: row for (strategy, scenario), row in cells.items() if scenario == "total-pair-loss"}
    assert all(row["recovered_by"] == "pair" for row in crash.values())
    assert len({row["mean_recovery_ms"] for row in crash.values()}) == 1
    cold, follower, dr = crash["cold-passive"], crash["leader-follower"], crash["log-replay-dr"]
    # Cold-passive loses at most the 2 s checkpoint gap of 100 ms messages per run.
    assert 0 < cold["lost"] <= cold["runs"] * 2_000 // 100
    assert follower["lost"] * 10 < cold["lost"]
    assert follower["lost"] <= 2 * follower["runs"]
    # Within the pair the DR mirror does not narrow the gap.
    assert dr["lost"] * 10 >= cold["lost"] * 9
    survivor = loss.pop("log-replay-dr")
    assert survivor["recovered_by"] == "dr"
    assert survivor["lost"] == 0 and survivor["applied"] == survivor["sent"]
    assert survivor["replayed"] > 0
    assert DR_ACTIVATION_TIMEOUT < survivor["mean_recovery_ms"] < DR_ACTIVATION_TIMEOUT + 1_000.0
    for row in loss.values():
        assert row["recovered_by"] == "none"
        assert row["lost"] == row["sent"] and row["applied"] == 0


def assert_adaptive_dominates(rows, profile):
    """On *profile*, adaptive recovers faster than every static rule at no more spurious failovers."""
    by_policy = {row["policy"]: row for row in rows if row["profile"] == profile}
    assert "adaptive" in by_policy, f"no adaptive row for profile {profile!r}"
    adaptive = by_policy.pop("adaptive")
    assert by_policy, f"no static row for profile {profile!r}"
    for policy, row in by_policy.items():
        assert adaptive["mean_recovery_ms"] < row["mean_recovery_ms"], f"{profile}: adaptive not below {policy}"
        assert adaptive["spurious_failovers"] <= row["spurious_failovers"], f"{profile}: adaptive spurious above {policy}"


def claims_s3(rows):
    """No static rule wins everywhere; the adaptive policy dominates the mixed drift."""
    profiles = sorted({row["profile"] for row in rows})
    assert [(row["profile"], row["policy"]) for row in rows] == [
        (profile, policy) for profile in profiles for policy in POLICY_NAMES
    ]
    assert all(row["runs"] == 3 for row in rows)
    mean = {(row["profile"], row["policy"]): row["mean_recovery_ms"] for row in rows}
    spurious = {(row["profile"], row["policy"]): row["spurious_failovers"] for row in rows}
    statics = [policy for policy in POLICY_NAMES if policy != "adaptive"]

    for policy in statics:
        assert any(
            min(mean[profile, other] for other in POLICY_NAMES) < mean[profile, policy]
            for profile in profiles
        )
    for profile in ("crashy", "sticky"):
        assert mean[profile, "static-always-failover"] == min(mean[profile, p] for p in POLICY_NAMES)
    assert mean["gray", "static-safe"] == 0.0 and spurious["gray", "static-safe"] == 0
    assert mean["sticky", "static-local-only"] >= 8 * mean["sticky", "static-default"]

    for profile in profiles:
        assert spurious[profile, "adaptive"] == 0
    assert mean["gray", "adaptive"] == 0.0
    for profile in ("crashy", "partition", "sticky"):
        assert mean[profile, "adaptive"] == mean[profile, "static-default"]
    assert_adaptive_dominates(rows, "mixed")
    adaptive = mean["mixed", "adaptive"]
    assert round(100 * (1 - adaptive / min(mean["mixed", p] for p in statics))) >= 19
    assert round(100 * (1 - adaptive / mean["mixed", "static-default"])) >= 30

    switched = {row["policy"] for row in rows if row["strategy_switches"] > 0}
    assert switched == {"adaptive"}


CLAIMS = {
    "F1": claims_f1,
    "F2": claims_f2,
    "F3": claims_f3,
    "D": claims_d,
    "X1": claims_x1,
    "X2": claims_x2,
    "X3": claims_x3,
    "X4": claims_x4,
    "X5": claims_x5,
    "X6": claims_x6,
    "X7": claims_x7,
    "A1": claims_a1,
    "A2": claims_a2,
    "A3": claims_a3,
    "BL": claims_bl,
    "S1": claims_s1,
    "S2": claims_s2,
    "S3": claims_s3,
}


def test_every_registry_entry_has_claims():
    assert sorted(CLAIMS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_published_claims_hold(experiment_id):
    CLAIMS[experiment_id](run_experiment_task(experiment_id))
