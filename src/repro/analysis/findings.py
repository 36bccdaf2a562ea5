"""Findings, severities, and the rule registry.

Every check the toolkit can emit is registered up front as a
:class:`Rule` with a stable id (``DET001``), a human slug
(``wall-clock``) used in suppression comments, a default severity and a
one-line rationale.  Passes emit :class:`Finding` instances referencing a
registered rule; the reporters and the suppression machinery only ever
see these two types, so the rule catalogue in ``ANALYSIS.md`` can be
regenerated mechanically (``python -m repro.analysis --list-rules``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ReproError


class AnalysisError(ReproError):
    """Misuse of the analysis toolkit (bad path, unknown rule/pass)."""


class Severity(enum.IntEnum):
    """Finding severities; ordering supports ``>=`` gate comparisons."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class Rule:
    """One registered check."""

    rule_id: str  # e.g. "DET001"
    slug: str  # e.g. "wall-clock"; used in suppression comments
    severity: Severity
    pass_name: str  # "det" | "com" | "effects" | "hot" | "life" | "gen"
    summary: str  # one-line rationale, shown by --list-rules


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to ``path:line:col``."""

    rule: Rule
    path: str
    line: int
    col: int
    message: str

    @property
    def severity(self) -> Severity:
        return self.rule.severity

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule.rule_id)

    def render(self) -> str:
        """Canonical single-line text form."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.severity} {self.rule.rule_id}[{self.rule.slug}] {self.message}"
        )

    def as_json(self) -> Dict[str, object]:
        """Stable wire form (schema asserted by the self-tests)."""
        return {
            "rule": self.rule.rule_id,
            "slug": self.rule.slug,
            "severity": str(self.severity),
            "pass": self.rule.pass_name,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


_REGISTRY: Dict[str, Rule] = {}
_BY_SLUG: Dict[str, Rule] = {}


def rule(rule_id: str, slug: str, severity: Severity, pass_name: str, summary: str) -> Rule:
    """Register (or fetch the identical re-registration of) a rule."""
    existing = _REGISTRY.get(rule_id)
    candidate = Rule(rule_id, slug, severity, pass_name, summary)
    if existing is not None:
        if existing != candidate:
            raise AnalysisError(f"conflicting registration for {rule_id}")
        return existing
    if slug in _BY_SLUG:
        raise AnalysisError(f"slug {slug!r} already used by {_BY_SLUG[slug].rule_id}")
    _REGISTRY[rule_id] = candidate
    _BY_SLUG[slug] = candidate
    return candidate


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[key] for key in sorted(_REGISTRY)]


def lookup(token: str) -> Rule:
    """Resolve a rule by id (``DET001``) or slug (``wall-clock``)."""
    found = _REGISTRY.get(token) or _BY_SLUG.get(token)
    if found is None:
        raise AnalysisError(f"unknown rule {token!r}")
    return found


def is_known(token: str) -> bool:
    """Whether *token* names a registered rule id or slug."""
    return token in _REGISTRY or token in _BY_SLUG


#: Parse failures are reported through the same Finding pipeline.
SYNTAX_RULE = rule(
    "GEN001",
    "syntax-error",
    Severity.ERROR,
    "gen",
    "File could not be parsed; no pass can vouch for it.",
)
