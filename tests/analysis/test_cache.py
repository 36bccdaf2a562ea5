"""Tests for the on-disk lint cache (repro.analysis.cache).

The load-bearing property: a cache hit must be indistinguishable from a
fresh run, and *any* change — file content, rule set, configuration —
must invalidate exactly the entries that could differ.  A stale cache
that masks a new finding would make ``make verify`` lie.
"""

from __future__ import annotations

import json

from repro.analysis import cache, cli

CLEAN_SOURCE = "def f():\n    return 1\n"
DIRTY_SOURCE = "import time\n\n\ndef f():\n    return time.time()\n"


def _run(tmp_path, target, extra=None):
    """Lint *target* with a cache in tmp_path; returns (exit, findings)."""
    argv = [
        str(target),
        "--format", "json",
        "--cache-path", str(tmp_path / "cache.json"),
    ] + (extra or [])
    import io
    from contextlib import redirect_stdout

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, json.loads(buffer.getvalue())["findings"]


def test_warm_run_matches_cold_run(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    cold_code, cold = _run(tmp_path, target)
    warm_code, warm = _run(tmp_path, target)
    assert (cold_code, cold) == (warm_code, warm)
    assert any(f["rule"] == "DET001" for f in cold)


def test_cache_matches_no_cache(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    _, cached = _run(tmp_path, target)
    _, uncached = _run(tmp_path, target, extra=["--no-cache"])
    assert cached == uncached


def test_stale_cache_never_masks_a_new_finding(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(CLEAN_SOURCE, encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert (code, findings) == (0, [])
    # The file gains a violation; the warm cache must re-analyse it.
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert code == 1
    assert any(f["rule"] == "DET001" for f in findings)


def test_removing_a_suppression_resurfaces_the_finding(tmp_path):
    target = tmp_path / "mod.py"
    suppressed = DIRTY_SOURCE.replace(
        "time.time()", "time.time()  # oftt-lint: ok[wall-clock]"
    )
    target.write_text(suppressed, encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert (code, findings) == (0, [])
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert code == 1 and findings


def test_unchanged_sibling_results_are_reused_per_file(tmp_path):
    clean = tmp_path / "clean_mod.py"
    clean.write_text(CLEAN_SOURCE, encoding="utf-8")
    dirty = tmp_path / "dirty_mod.py"
    dirty.write_text(DIRTY_SOURCE, encoding="utf-8")
    _run(tmp_path, tmp_path)
    # Touch only the clean file; the dirty file's det entry stays valid
    # and its finding must still be reported.
    clean.write_text(CLEAN_SOURCE + "\n# touched\n", encoding="utf-8")
    code, findings = _run(tmp_path, tmp_path)
    assert code == 1
    assert any(f["rule"] == "DET001" and f["path"].endswith("dirty_mod.py") for f in findings)


def test_ruleset_version_mismatch_invalidates(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    _run(tmp_path, target)
    cache_file = tmp_path / "cache.json"
    data = json.loads(cache_file.read_text(encoding="utf-8"))
    data["ruleset"] = "0000000000000000"
    # Poison the stored findings too: if the stale payload were trusted,
    # the finding below would vanish.
    data["project"]["findings"] = []
    data["files"] = {}
    cache_file.write_text(json.dumps(data), encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert code == 1
    assert any(f["rule"] == "DET001" for f in findings)


def test_corrupt_cache_file_is_ignored(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    (tmp_path / "cache.json").write_text("{not json", encoding="utf-8")
    code, findings = _run(tmp_path, target)
    assert code == 1
    assert any(f["rule"] == "DET001" for f in findings)


def test_config_change_invalidates_project_reuse(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text(DIRTY_SOURCE, encoding="utf-8")
    _, det_only = _run(tmp_path, target, extra=["--only", "DET"])
    _, all_passes = _run(tmp_path, target)
    assert det_only == all_passes  # same single DET001 either way
    # and both runs share one cache file without confusion
    data = json.loads((tmp_path / "cache.json").read_text(encoding="utf-8"))
    assert data["schema"] == cache.SCHEMA


def test_lifecycle_manifest_edit_invalidates_warm_cache(tmp_path):
    """Editing the lifecycle manifest must re-run the pass, not reuse."""
    target = tmp_path / "mod.py"
    target.write_text(
        "class Looper:\n"
        "    def __init__(self, kernel):\n"
        "        self.kernel = kernel\n"
        "        self._timer = None\n"
        "\n"
        "    def begin(self):\n"
        "        self._timer = self.kernel.arm(10.0, self._tick)\n"
        "\n"
        "    def stop(self):\n"
        "        pass\n"
        "\n"
        "    def _tick(self):\n"
        "        pass\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "life.manifest"
    manifest.write_text("pair timer Kernel.disarm -> cancel\n", encoding="utf-8")
    extra = ["--only", "LIFE", "--life-manifest", str(manifest), "--strict"]
    code, findings = _run(tmp_path, target, extra=extra)
    assert (code, findings) == (0, [])  # `arm` is not an acquire yet
    # The manifest gains the pair; the warm cache must not mask it.
    manifest.write_text("pair timer Kernel.arm -> cancel\n", encoding="utf-8")
    code, findings = _run(tmp_path, target, extra=extra)
    assert code == 1
    assert any(f["rule"] == "LIFE001" for f in findings)


def test_ruleset_version_is_stable_within_a_process():
    assert cache.ruleset_version() == cache.ruleset_version()
