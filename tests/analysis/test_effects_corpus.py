"""Corpus gate for the effects pass (wired into ``make verify`` via test).

Every ``*_planted.py`` file under ``tests/analysis/corpus/`` must
produce exactly the effects findings its ``# expect: RULEID[, RULEID]``
markers name, at the marked lines, and every ``*_clean.py`` twin exactly
what its markers name — nothing, unless the twin is specified to yield a
k = 0 race (the RACE10x twins are direct-direct conflicts: they must
surface as RACE00x, never as RACE10x).  A change to the call graph or
summary propagation that weakens (or over-triggers) any rule fails here
with the offending file named.
"""

from __future__ import annotations

import os
import re

import pytest

from repro.analysis import effects
from repro.analysis.walker import load_sources, run_passes

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
MARKER = re.compile(r"#\s*expect:\s*([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)")

# ``hot00X_*`` files belong to the hotpath pass (gated by
# tests/analysis/test_hotpath_corpus.py with their own root convention)
# and ``life00X_*`` files to the lifecycle pass (gated by
# tests/analysis/test_lifecycle_corpus.py under the default manifest).
PLANTED = sorted(
    f
    for f in os.listdir(CORPUS)
    if f.endswith("_planted.py") and not f.startswith(("hot", "life"))
)
CLEAN = sorted(
    f
    for f in os.listdir(CORPUS)
    if f.endswith("_clean.py") and not f.startswith(("hot", "life"))
)


def effects_findings(name):
    files, load_findings = load_sources([os.path.join(CORPUS, name)])
    assert load_findings == [], f"{name} failed to load cleanly"
    return run_passes(files, [effects.run])


def expected_markers(name):
    """[(rule_id, line)] from the file's ``# expect:`` markers, in report order."""
    with open(os.path.join(CORPUS, name), "r", encoding="utf-8") as handle:
        return [
            (rule_id, lineno)
            for lineno, line in enumerate(handle, start=1)
            for match in [MARKER.search(line)]
            if match
            for rule_id in sorted(token.strip() for token in match.group(1).split(","))
        ]


def test_corpus_is_complete():
    planted_rules = {rule_id for name in PLANTED for rule_id, _ in expected_markers(name)}
    assert planted_rules == {
        "RACE001", "RACE002", "RACE003",
        "RACE101", "RACE102", "RACE103",
        "PURE001", "PURE002", "PURE003", "PURE004",
    }
    # every planted file names the rule it plants
    for name in PLANTED:
        assert name[:7].upper() in {rule_id for rule_id, _ in expected_markers(name)}
    # every planted file has a clean twin
    assert [n.replace("_clean", "_planted") for n in CLEAN] == PLANTED


@pytest.mark.parametrize("name", PLANTED)
def test_planted_defect_is_flagged_exactly(name):
    expected = expected_markers(name)
    assert expected, f"{name} must carry an expect marker"
    found = [(f.rule.rule_id, f.line) for f in effects_findings(name)]
    assert found == expected


@pytest.mark.parametrize("name", CLEAN)
def test_clean_twin_stays_clean(name):
    found = [(f.rule.rule_id, f.line) for f in effects_findings(name)]
    assert found == expected_markers(name)
    assert not any(rule_id == name[:7].upper() for rule_id, _ in found)
