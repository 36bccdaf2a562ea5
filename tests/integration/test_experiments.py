"""Integration smoke tests for every X-series experiment runner.

These assert the *shape* of each result — who wins, in which direction —
with other seeds and small parameters; test_published_claims.py checks
the published versions from the run_experiments registry.
"""

from repro.harness import experiments as E


def test_x1_checkpoint_cost_shape():
    rows = E.exp_checkpoint_cost(seed=41, cold_sizes_kb=[16, 64], run_time=10_000.0)
    by_key = {(row["cold_kb"], row["mode"]): row for row in rows}
    # Selective is dramatically smaller than full and does not grow with
    # the cold payload.
    assert by_key[(16, "selective")]["mean_bytes"] < by_key[(16, "full")]["mean_bytes"] / 10
    assert by_key[(64, "selective")]["mean_bytes"] == by_key[(16, "selective")]["mean_bytes"]
    # Full grows roughly linearly with the state size.
    assert by_key[(64, "full")]["mean_bytes"] > by_key[(16, "full")]["mean_bytes"] * 2
    # Incremental sits between: far below full, above selective here
    # (it re-ships every changed hot variable plus region overhead).
    assert by_key[(64, "incremental")]["mean_bytes"] < by_key[(64, "full")]["mean_bytes"] / 5
    # Checkpoints actually reached the peer (acks flowed).
    assert all(row["acked_seq"] > 0 for row in rows)


def test_x2_detection_latency_scales_with_timeout():
    rows = E.exp_detection_latency(
        seed=42,
        settings=[
            {"period": 50.0, "timeout": 200.0},
            {"period": 250.0, "timeout": 1_000.0},
        ],
    )
    assert all(row["detected"] for row in rows)
    fast, slow = rows
    # Detection happens after the timeout but within timeout + a few sweeps.
    assert fast["detection_ms"] >= fast["timeout_ms"]
    assert fast["detection_ms"] <= fast["timeout_ms"] + 4 * fast["heartbeat_period_ms"]
    assert slow["detection_ms"] > fast["detection_ms"]


def test_x3_retries_eliminate_false_shutdowns():
    rows = E.exp_startup(seeds=list(range(12)), retry_settings=[0, 5])
    original, fixed = rows
    assert original["retries"] == 0
    # §3.2: the original logic frequently shuts the first node down...
    assert original["false_shutdowns"] > 0
    # ...and the retry fix eliminates it.
    assert fixed["false_shutdowns"] == 0
    assert fixed["stable_pairs"] == fixed["runs"]


def test_x4_diverter_beats_naive_sender():
    rows = E.exp_diverter(seeds=[0, 1, 2])
    diverter, naive = rows
    assert diverter["variant"] == "diverter"
    assert diverter["events_lost"] <= naive["events_lost"]
    assert naive["events_lost"] > 0
    assert diverter["loss_rate"] < 0.01


def test_x5_rules_drive_recovery_style():
    rows = E.exp_recovery_rules(seed=43)
    local, failover = rows
    assert local["recovered"] and failover["recovered"]
    assert not local["switched_over"]
    assert local["local_restarts"] == 1
    assert failover["switched_over"]
    assert failover["local_restarts"] == 0


def test_x6_oftt_detects_faster_than_dcom_rpc():
    result = E.exp_dcom(seed=44)
    # Dead process: quick, explicit disconnect.
    assert result["dead_process_latency_ms"] < 100.0
    # Dead node: raw DCOM burns the whole RPC timeout...
    assert result["dead_node_rpc_latency_ms"] >= result["rpc_timeout_config_ms"]
    # ...while OFTT's heartbeats detect it within the short timeout.
    assert result["oftt_detection_latency_ms"] < result["dead_node_rpc_latency_ms"] / 2
    assert result["oftt_failover_latency_ms"] is not None


def test_x7_api_levels_tradeoff():
    rows = E.exp_api_levels(seed=45, warmup=20_000.0)
    levels = {row["level"]: row for row in rows}
    l1 = levels["L1 init-only"]
    l2 = levels["L2 selective"]
    l3 = levels["L3 event-based"]
    # Selective designation shrinks checkpoints.
    assert l2["mean_checkpoint_bytes"] < l1["mean_checkpoint_bytes"]
    # Event-based saving checkpoints more often...
    assert l3["checkpoints_taken"] >= l2["checkpoints_taken"]
    # ...and loses no completed work on failover.
    assert l3["events_lost"] == 0
