"""Unit tests for OFTT configuration and the status model."""

import dataclasses

import pytest

from repro.core.config import (
    GiveUpPolicy,
    OfttConfig,
    RecoveryAction,
    RecoveryRule,
    replace_config,
)
from repro.core.status import ComponentKind, ComponentStatus, StatusReport


def test_default_config_validates():
    OfttConfig().validate()


def test_config_holds_only_the_varied_knobs():
    # Fixed tunables are module constants beside their one reader.
    assert [f.name for f in dataclasses.fields(OfttConfig)] == [
        "heartbeat_period",
        "heartbeat_timeout",
        "heartbeat_miss_threshold",
        "use_exit_hooks",
        "checkpoint_period",
        "startup_wait",
        "startup_retries",
        "give_up_policy",
        "peer_heartbeat_period",
        "peer_heartbeat_timeout",
        "replication_strategy",
        "dr_node",
        "recovery_rules",
        "default_rule",
        "adaptive_policy",
    ]


def test_heartbeat_timeout_must_exceed_period():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), heartbeat_timeout=50.0, heartbeat_period=100.0)


def test_peer_timeout_must_exceed_period():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), peer_heartbeat_timeout=10.0)


def test_other_validations():
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), checkpoint_period=0.0)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), startup_retries=-1)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), peer_heartbeat_period=0.0)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), peer_heartbeat_period=-100.0, peer_heartbeat_timeout=500.0)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), startup_wait=0.0)
    with pytest.raises(ValueError):
        replace_config(OfttConfig(), startup_wait=-1.0)


def test_rule_lookup_falls_back_to_default():
    config = OfttConfig()
    rule = RecoveryRule(max_local_restarts=9)
    config = config.with_rule("special", rule)
    assert config.rule_for("special") is rule
    assert config.rule_for("other") is config.default_rule


def test_with_rule_does_not_mutate_original():
    config = OfttConfig()
    updated = config.with_rule("c", RecoveryRule())
    assert "c" in updated.recovery_rules
    assert "c" not in config.recovery_rules


def test_rule_presets():
    assert RecoveryRule.always_failover().max_local_restarts == 0
    local = RecoveryRule.local_only()
    assert local.escalation is RecoveryAction.IGNORE
    assert local.max_local_restarts >= 1_000_000


def test_giveup_policy_enum():
    assert GiveUpPolicy.SHUTDOWN.value == "shutdown"
    assert GiveUpPolicy.GO_PRIMARY.value == "go-primary"


def test_status_report_wire_roundtrip():
    report = StatusReport(
        node="n1",
        component="app",
        kind=ComponentKind.APPLICATION,
        status=ComponentStatus.RECOVERING,
        role="primary",
        time=12.5,
        detail={"restarts": 2},
    )
    assert StatusReport.from_wire(report.as_wire()) == report


def test_status_health_classification():
    assert ComponentStatus.RUNNING.is_healthy
    assert ComponentStatus.STARTING.is_healthy
    assert ComponentStatus.RECOVERING.is_healthy
    assert not ComponentStatus.FAILED.is_healthy
    assert not ComponentStatus.SUSPECTED.is_healthy
    assert not ComponentStatus.STOPPED.is_healthy
