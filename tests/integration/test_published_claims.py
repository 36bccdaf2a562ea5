"""Every claim EXPERIMENTS.md publishes, checked against the published run.

Each test runs one entry of :data:`repro.harness.run_experiments.EXPERIMENTS`
through :func:`run_experiment_task`, so the seeds and parameters are the
ones the registry publishes, and then checks the claims that entry's table
supports.  A registry entry without claims here fails the suite.
"""

import pytest

from repro.harness.run_experiments import EXPERIMENTS, run_experiment_task


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
}


def test_every_registry_entry_has_claims():
    assert sorted(CLAIMS) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_published_claims_hold(experiment_id):
    CLAIMS[experiment_id](run_experiment_task(experiment_id))
