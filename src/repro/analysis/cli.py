"""Command-line driver: ``python -m repro.analysis`` / ``oftt-lint``.

Exit-code contract (relied on by ``make verify`` and the dogfood test):

* ``0`` — no gating findings (errors; plus warnings under ``--strict``)
* ``1`` — at least one gating finding
* ``2`` — usage or internal error (bad path, unknown rule family)

Examples::

    python -m repro.analysis src/repro                # every rule family, text
    python -m repro.analysis src/repro --format json  # machine output
    python -m repro.analysis src examples --only DET,RACE --strict
    python -m repro.analysis src tests --relax tests=DET002,DET006
    oftt-lint --list-rules

``--only FAMILY[,FAMILY...]`` runs exactly the passes that emit those
families (see :data:`PASSES`) and reports only their findings.

``--relax PREFIX=RULE[,RULE...]`` (repeatable) is the per-directory rule
profile: findings for the named rules in files under ``PREFIX`` are
downgraded to ``info`` so they never gate.  Tests legitimately draw
module-level randomness and read the environment (property-style test
generators, CLI fixtures), so ``make lint-tests`` relaxes the ambient
DET rules for ``tests/`` while keeping everything else at full strength.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.analysis import cache, comcheck, determinism, effects, hotpath, lifecycle
from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.findings import AnalysisError, Finding, Severity, all_rules, lookup
from repro.analysis.report import render_json, render_text
from repro.analysis.walker import Pass, SourceFile, load_sources, run_passes, suppression_errors

class PassEntry(NamedTuple):
    """One row of the pass table."""

    families: Tuple[str, ...]  # rule families the pass emits
    #: (files, shared call-graph getter, manifest path or None) -> findings
    run: Callable[[Sequence[SourceFile], Callable[[], CallGraph], Optional[str]], List[Finding]]
    manifest_option: Optional[str] = None  # option naming the pass's manifest


#: The pass table, in execution order.  Every pass runs unless ``--only``
#: narrows the families; the whole-program passes share one call graph,
#: and editing a pass's manifest invalidates its cached findings.
PASSES: Dict[str, PassEntry] = {
    "det": PassEntry(("DET",), lambda files, graph, manifest: determinism.run(files)),
    "com": PassEntry(("COM",), lambda files, graph, manifest: comcheck.run(files)),
    "effects": PassEntry(("RACE", "PURE"), lambda files, graph, manifest: effects.run(files, graph())),
    "hot": PassEntry(("HOT",), lambda files, graph, manifest: hotpath.run(
        files, graph(), hotpath.load_manifest(manifest)), "hot_manifest"),
    "life": PassEntry(("LIFE",), lambda files, graph, manifest: lifecycle.run(
        files, graph(), lifecycle.load_manifest(manifest)), "life_manifest"),
}

#: GEN findings (syntax/suppression hygiene) always pass ``--only``.
FAMILIES = ("GEN",) + tuple(family for entry in PASSES.values() for family in entry.families)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oftt-lint",
        description="Determinism linter, COM contract checker, and sim race detector.",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse (default: src/repro)")
    parser.add_argument("--only", default=None, metavar="FAMILIES",
                        help="restrict to the named rule families, e.g. --only LIFE,HOT: "
                             "runs exactly the passes those families need and reports "
                             "only their findings (plus GEN hygiene); default: all of "
                             f"{','.join(FAMILIES[1:])}")
    parser.add_argument("--hot-manifest", default=hotpath.DEFAULT_MANIFEST, metavar="PATH",
                        help="hot-root manifest for HOT001-006 "
                             "(default: the checked-in repro/analysis/hotpath.manifest)")
    parser.add_argument("--life-manifest", default=lifecycle.DEFAULT_MANIFEST, metavar="PATH",
                        help="acquire/release manifest for LIFE001-006 "
                             "(default: the checked-in repro/analysis/lifecycle.manifest)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache (always re-analyse)")
    parser.add_argument("--cache-path", default=cache.DEFAULT_PATH, metavar="PATH",
                        help=f"result cache location (default: {cache.DEFAULT_PATH})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--json", action="store_const", const="json", dest="format",
                        help="shorthand for --format json")
    parser.add_argument("--strict", action="store_true",
                        help="warnings gate the exit code too")
    parser.add_argument("--relax", action="append", default=[], metavar="PREFIX=RULES",
                        help="downgrade the named rules to info for files under PREFIX "
                             "(repeatable, e.g. --relax tests=DET002,DET006)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def parse_relaxations(specs: Sequence[str]) -> List[Tuple[str, Set[str]]]:
    """Parse ``PREFIX=RULE[,RULE...]`` specs into (prefix, rule-id set) pairs.

    Rules may be named by id (``DET002``) or slug (``unseeded-random``);
    unknown names are a usage error so a typo cannot silently relax
    nothing.
    """
    relaxations: List[Tuple[str, Set[str]]] = []
    for spec in specs:
        prefix, sep, names = spec.partition("=")
        rule_tokens = [token.strip() for token in names.split(",") if token.strip()]
        if not sep or not prefix.strip() or not rule_tokens:
            raise AnalysisError(f"bad --relax spec {spec!r}; expected PREFIX=RULE[,RULE...]")
        relaxations.append(
            (os.path.normpath(prefix.strip()), {lookup(token).rule_id for token in rule_tokens})
        )
    return relaxations


def _under(path: str, prefix: str) -> bool:
    normalized = os.path.normpath(path)
    return normalized == prefix or normalized.startswith(prefix + os.sep)


def apply_relaxations(
    findings: Sequence[Finding], relaxations: Sequence[Tuple[str, Set[str]]]
) -> List[Finding]:
    """Downgrade relaxed findings to INFO; everything else passes through."""
    relaxed: List[Finding] = []
    for finding in findings:
        for prefix, rule_ids in relaxations:
            if finding.rule.rule_id in rule_ids and _under(finding.path, prefix):
                finding = dataclasses.replace(
                    finding,
                    rule=dataclasses.replace(finding.rule, severity=Severity.INFO),
                )
                break
        relaxed.append(finding)
    return relaxed


def rule_family(rule_id: str) -> str:
    """Leading alphabetic prefix of a rule id (``LIFE003`` -> ``LIFE``)."""
    alpha = 0
    while alpha < len(rule_id) and rule_id[alpha].isalpha():
        alpha += 1
    return rule_id[:alpha]


def parse_only(spec: str) -> Set[str]:
    """Parse ``--only LIFE,HOT`` into a family set; typos are usage errors."""
    families = {token.strip().upper() for token in spec.split(",") if token.strip()}
    if not families:
        raise AnalysisError(f"bad --only spec {spec!r}; expected FAMILY[,FAMILY...]")
    unknown = sorted(families - set(FAMILIES))
    if unknown:
        raise AnalysisError(
            f"unknown rule family {', '.join(unknown)} (choose from {', '.join(sorted(FAMILIES))})"
        )
    return families


def list_rules() -> str:
    lines: List[str] = []
    family = None
    for entry in all_rules():
        if rule_family(entry.rule_id) != family:
            if family is not None:
                lines.append("")
            family = rule_family(entry.rule_id)
            lines.append(f"# {family}")
        lines.append(f"{entry.rule_id}  {entry.slug:24s} {str(entry.severity):8s} [{entry.pass_name}] {entry.summary}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        status = _main(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader went away (``| head``): point stdout at devnull so the
        # interpreter's exit flush cannot fail again, and exit with the
        # status of a writer killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        print(list_rules())
        return 0

    try:
        families = set(FAMILIES) if options.only is None else parse_only(options.only)
        pass_names = [name for name, entry in PASSES.items() if families.intersection(entry.families)]
        manifests = {
            name: getattr(options, PASSES[name].manifest_option)
            for name in pass_names
            if PASSES[name].manifest_option is not None
        }
        relaxations = parse_relaxations(options.relax)
        config_key = ";".join(f"{name}={cache.file_digest(path)}" for name, path in manifests.items())
        files, load_findings = load_sources(options.paths or ["src/repro"])
        shared: List[CallGraph] = []

        def graph() -> CallGraph:
            if not shared:
                shared.append(build_call_graph(files))
            return shared[0]

        named: List[Tuple[str, Pass]] = [
            (name, functools.partial(PASSES[name].run, graph=graph, manifest=manifests.get(name)))
            for name in pass_names
        ]
        if options.no_cache:
            findings = run_passes(files, [one_pass for _, one_pass in named])
        else:
            findings, _stats = cache.run_cached(files, named, options.cache_path, config_key)
            findings.extend(suppression_errors(files))
    except AnalysisError as exc:
        print(f"oftt-lint: {exc}", file=sys.stderr)
        return 2

    findings = sorted(load_findings + findings, key=Finding.sort_key)
    findings = apply_relaxations(findings, relaxations)
    if options.only is not None:
        findings = [f for f in findings if rule_family(f.rule.rule_id) in families | {"GEN"}]

    if options.format == "json":
        sys.stdout.write(render_json(findings, len(files), pass_names))
    else:
        print(render_text(findings, len(files), pass_names))

    gate = Severity.WARNING if options.strict else Severity.ERROR
    return 1 if any(f.severity >= gate for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
