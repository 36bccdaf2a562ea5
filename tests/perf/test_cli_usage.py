"""Usage errors in the --jobs CLIs exit 2, never 1; a closed stdout is quiet.

Exit 1 means "violation / divergence / gate failed" in every toolkit
CLI, so input that cannot run must be rejected as a usage error before
any work starts, with a one-line message on stderr.  A reader that goes
away early (``| head``) ends the run with status 141, as SIGPIPE would,
and no traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.chaos.cli import main as chaos_main
from repro.harness.run_experiments import main as experiments_main
from repro.replay.cli import main as replay_main


@pytest.mark.parametrize("main, argv", [
    (chaos_main, ["--seeds", "1", "--schedules", "2"]),
    (replay_main, []),
    (experiments_main, ["X5"]),
], ids=["oftt-chaos", "oftt-replay", "run_experiments"])
def test_negative_jobs_is_a_usage_error(capsys, main, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--jobs", "-1"])
    assert exit_info.value.code == 2
    assert "--jobs: must be >= 0" in capsys.readouterr().err


def test_unknown_experiment_id_is_one_line_on_stderr(capsys):
    assert experiments_main(["BOGUS"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("run_experiments: unknown experiment ids: ['BOGUS']")


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("argv", [
    ["-m", "repro.harness.run_experiments", "F1"],
    ["-m", "repro.analysis", "--list-rules"],
], ids=["run_experiments", "oftt-lint"])
def test_closed_stdout_exits_quietly(argv):
    child = subprocess.Popen(
        [sys.executable, *argv],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # Close the read end before the child has imported anything, so its
    # first write meets a closed pipe.
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert child.returncode == 141
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err.decode()
