"""CLI contract tests and the dogfood gate.

The dogfood gate is the point of the whole subsystem: the analyzer must
pass over its own repository (``python -m repro.analysis src/repro``
exits 0 with every rule family on), and must fail loudly the moment a
violation is introduced.  Paths are anchored at the repository root, so
the gate holds whatever directory pytest runs from.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.cli import main

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


# -- dogfood gate --------------------------------------------------------


def test_repo_is_clean_in_strict_mode(capsys):
    # Every family, including the manifest-driven HOT and LIFE passes.
    code, out = run_cli([SRC_REPRO, "--strict", "--no-cache"], capsys)
    assert code == 0, f"analysis found violations:\n{out}"
    assert "0 finding(s)" in out
    assert "passes: det, com, effects, hot, life" in out


def test_repo_is_clean_via_module_invocation():
    completed = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "passes: det, com, effects, hot, life" in completed.stdout


def test_seeded_violation_flips_the_gate(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n\n\ndef stamp(kernel):\n    kernel.schedule(time.time(), stamp)\n",
        encoding="utf-8",
    )
    code, out = run_cli([SRC_REPRO, str(bad)], capsys)
    assert code == 1
    assert "DET001" in out


# -- CLI contract --------------------------------------------------------


def test_pass_selection_runs_only_requested_pass(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\n\n\ndef f():\n    return time.time()\n", encoding="utf-8")
    code, out = run_cli([str(bad), "--only", "COM,RACE"], capsys)
    assert code == 0  # determinism pass not selected
    assert "passes: com, effects" in out


def test_unknown_pass_is_a_usage_error(capsys):
    assert main([SRC_REPRO, "--only", "nope"]) == 2


def test_missing_path_is_a_usage_error(capsys):
    assert main([os.path.join(REPO_ROOT, "no", "such", "dir")]) == 2


def test_json_output_round_trips(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\n\nTOKEN = os.urandom(4)\n", encoding="utf-8")
    code, out = run_cli([str(bad), "--json"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["schema"] == "repro.analysis/v1"
    assert document["counts"]["error"] == 1
    assert document["findings"][0]["rule"] == "DET003"


def test_strict_gates_on_warnings(tmp_path, capsys):
    racy = tmp_path / "racy.py"
    racy.write_text(
        "class Pump:\n"
        "    def start(self):\n"
        "        self.kernel.schedule(5.0, self._a)\n"
        "        self.kernel.schedule(5.0, self._b)\n"
        "\n"
        "    def _a(self):\n"
        "        self.valve = 1\n"
        "\n"
        "    def _b(self):\n"
        "        self.valve = 2\n",
        encoding="utf-8",
    )
    lenient, _ = run_cli([str(racy)], capsys)
    strict, out = run_cli([str(racy), "--strict"], capsys)
    assert lenient == 0  # warnings do not gate by default
    assert strict == 1
    assert "RACE001" in out


def test_list_rules_catalogue(capsys):
    code, out = run_cli(["--list-rules"], capsys)
    assert code == 0
    for rule_id in (
        "DET001", "DET004", "COM001", "COM004", "RACE001", "RACE004",
        "RACE101", "RACE102", "RACE103",
        "PURE001", "PURE002", "PURE003", "PURE004",
        "HOT001", "HOT006",
        "LIFE001", "LIFE002", "LIFE003", "LIFE004", "LIFE005", "LIFE006",
        "GEN001", "GEN002",
    ):
        assert rule_id in out
    # The catalogue is grouped by family for scanability.
    assert "# LIFE" in out


def test_default_run_covers_every_family(tmp_path, capsys):
    bad = tmp_path / "impure.py"
    bad.write_text(
        "from repro.perf.executor import parallel_map\n"
        "\n"
        "SEEN = []\n"
        "\n"
        "\n"
        "def record(v):\n"
        "    SEEN.append(v)\n"
        "    return v\n"
        "\n"
        "\n"
        "def main(vs):\n"
        "    return parallel_map(record, vs)\n",
        encoding="utf-8",
    )
    code, out = run_cli([str(bad)], capsys)
    assert code == 1 and "PURE001" in out
    assert "passes: det, com, effects, hot, life" in out


def test_call_graph_is_built_once_per_run(tmp_path, capsys, monkeypatch):
    from repro.analysis import callgraph, cli, effects, hotpath, lifecycle

    calls = []

    def counting(files):
        calls.append(1)
        return callgraph.build_call_graph(files)

    for module in (cli, effects, hotpath, lifecycle):
        monkeypatch.setattr(module, "build_call_graph", counting)
    target = tmp_path / "mod.py"
    target.write_text("def f():\n    return 1\n", encoding="utf-8")
    code, _ = run_cli([str(target), "--no-cache"], capsys)
    assert code == 0
    assert calls == [1]  # shared by effects, hot and life


def test_syntax_error_is_reported_not_crashed(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    code, out = run_cli([str(broken)], capsys)
    assert code == 1
    assert "GEN001" in out


# -- per-directory rule profile (--relax) --------------------------------


def _entropy_file(root, name="gen.py"):
    path = root / name
    path.write_text("import os\n\nTOKEN = os.urandom(4)\n", encoding="utf-8")
    return path


def test_relax_downgrades_matching_rules_to_info(tmp_path, capsys):
    _entropy_file(tmp_path)
    code, out = run_cli([str(tmp_path), "--strict", "--relax", f"{tmp_path}=DET003"], capsys)
    assert code == 0
    assert "info DET003" in out  # still reported, no longer gating


def test_relax_is_scoped_to_the_prefix(tmp_path, capsys):
    inside = tmp_path / "covered"
    outside = tmp_path / "elsewhere"
    inside.mkdir()
    outside.mkdir()
    _entropy_file(inside)
    _entropy_file(outside)
    code, out = run_cli([str(tmp_path), "--relax", f"{inside}=DET003"], capsys)
    assert code == 1  # the un-relaxed copy still gates
    assert out.count("error DET003") == 1
    assert out.count("info DET003") == 1


def test_relax_accepts_slugs_and_is_repeatable(tmp_path, capsys):
    _entropy_file(tmp_path)
    wall = tmp_path / "wall.py"
    wall.write_text("import time\n\n\ndef f(kernel):\n    kernel.schedule(time.time(), f)\n", encoding="utf-8")
    code, out = run_cli(
        [str(tmp_path), "--relax", f"{tmp_path}=entropy", "--relax", f"{tmp_path}=wall-clock"],
        capsys,
    )
    assert code == 0
    assert "info DET003" in out
    assert "info DET001" in out


def test_relax_bad_spec_and_unknown_rule_are_usage_errors(capsys):
    assert main([SRC_REPRO, "--relax", "no-equals-sign"]) == 2
    assert main([SRC_REPRO, "--relax", "src=NOPE999"]) == 2


def test_tests_tree_is_clean_under_the_test_profile(capsys):
    # Mirrors `make lint-tests`: the planted-defect corpus legitimately
    # violates the race, purity and lifecycle rules, so those are relaxed.
    tests_dir = os.path.join(REPO_ROOT, "tests")
    corpus_dir = os.path.join(tests_dir, "analysis", "corpus")
    code, out = run_cli(
        [
            tests_dir, "--strict",
            "--relax", f"{tests_dir}=DET002,DET003,DET006,PURE001,PURE002,PURE003,PURE004",
            "--relax", f"{corpus_dir}=RACE001,RACE002,RACE003,RACE101,RACE102,RACE103,"
                       "LIFE001,LIFE002,LIFE003,LIFE004,LIFE005,LIFE006",
        ],
        capsys,
    )
    assert code == 0, f"tests/ lint failed under the relaxed profile:\n{out}"
