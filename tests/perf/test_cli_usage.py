"""Usage errors in the --jobs CLIs exit 2, never 1.

Exit 1 means "violation / divergence / gate failed" in every toolkit
CLI, so input that cannot run — or that would make a gate compare a run
with itself — must be rejected as a usage error before any work starts.
"""

from __future__ import annotations

import pytest

from repro.chaos.cli import main as chaos_main
from repro.harness.run_experiments import main as experiments_main
from repro.perf.cli import main as perf_main
from repro.replay.cli import main as replay_main


@pytest.mark.parametrize("main, argv", [
    (chaos_main, ["--seeds", "1", "--schedules", "2"]),
    (replay_main, []),
    (experiments_main, ["X5"]),
    (perf_main, ["check-chaos"]),
], ids=["oftt-chaos", "oftt-replay", "run_experiments", "oftt-perf"])
def test_negative_jobs_is_a_usage_error(capsys, main, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--jobs", "-1"])
    assert exit_info.value.code == 2
    assert "--jobs: must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--policies", "--profiles", "bogus"], "unknown drift profile(s) bogus"),
    (["sweep", "--seeds", "0"], "--seeds and --schedules must be positive"),
    (["sweep", "--schedules", "0"], "--seeds and --schedules must be positive"),
    (["sweep", "--gate"], "--gate checks the policy sweep; it needs --policies"),
    (["check-chaos", "--jobs", "1"], "--jobs 1 resolves to 1 worker(s), need at least 2"),
], ids=["unknown-profile", "zero-seeds", "zero-schedules", "gate-without-policies",
        "check-chaos-serial"])
def test_perf_rejects_runs_that_cannot_run_or_check_nothing(capsys, argv, message):
    assert perf_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_check_chaos_auto_jobs_on_one_cpu_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    assert perf_main(["check-chaos", "--jobs", "0"]) == 2
    assert "--jobs 0 resolves to 1 worker(s)" in capsys.readouterr().err
