"""The effects pass: interprocedural races and purity (RACE / PURE rules).

Two rule families ride on the same machinery — a module-level call graph
(:mod:`repro.analysis.callgraph`) and per-function effect summaries
propagated bottom-up with k-bounded inlining
(:mod:`repro.analysis.summaries`):

* **RACE001–004, RACE101–103** — same-tick handler races
  (:mod:`repro.analysis.races`).  Conflicts visible in the handler
  bodies themselves are the k = 0 rules RACE001–003; conflicts routed
  through up to ``max_k`` ``self.method()`` hops are RACE101–103 and
  carry the full call chain.

* **PURE001–004** check the contract ``parallel_map`` states but nothing
  enforced: tasks fanned out to spawn workers must be pure picklable
  functions of their arguments, or the byte-identical merge guarantee
  (PERF.md) silently breaks.

  - PURE001 ``impure-task`` — the task transitively writes module state
    (``global`` stores, mutation of module-level containers).  Each
    worker mutates its own copy; the merged result no longer equals the
    serial run.
  - PURE002 ``unpicklable-task`` — the task is a lambda, a nested
    function, or a bound method: it cannot be pickled by reference as a
    module-level function (bound methods also drag the whole instance
    into every worker).
  - PURE003 ``entropy-task`` — the task transitively reads ambient
    entropy (wall clock, global RNG, environment) and takes no seed-like
    parameter, so two workers — or two runs — disagree.
  - PURE004 ``task-mutates-argument`` — the task mutates its argument in
    place.  Serial runs see the mutation accumulate across items;
    spawned workers mutate pickled copies, so results diverge with the
    worker count.

PURE rules are errors: each one breaks the hard byte-identity contract
``tests/perf/test_parallel_determinism.py`` enforces.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis import races
from repro.analysis.callgraph import DEFAULT_MAX_K, CallGraph, build_call_graph, positional_params
from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.summaries import EffectSummary, compute_summaries
from repro.analysis.walker import SourceFile, import_aliases, resolve_call_name

IMPURE_TASK = rule(
    "PURE001", "impure-task", Severity.ERROR, "effects",
    "parallel_map task transitively writes module state; workers diverge from the serial run.",
)
UNPICKLABLE_TASK = rule(
    "PURE002", "unpicklable-task", Severity.ERROR, "effects",
    "parallel_map task is a lambda/nested function/bound method; not picklable by reference.",
)
ENTROPY_TASK = rule(
    "PURE003", "entropy-task", Severity.ERROR, "effects",
    "parallel_map task reads ambient entropy without a seed parameter.",
)
MUTATING_TASK = rule(
    "PURE004", "task-mutates-argument", Severity.ERROR, "effects",
    "parallel_map task mutates its argument in place; workers mutate pickled copies.",
)


# -- PURE001–004: parallel_map task purity ---------------------------------


def _task_expr(call: ast.Call) -> Optional[ast.AST]:
    """The task-function argument of a ``parallel_map`` call."""
    if call.args:
        return call.args[0]
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return None


def _enclosing_nested_def(scopes: Sequence[ast.AST], name: str) -> bool:
    """Whether *name* is a function defined inside an enclosing function."""
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name and node is not scope:
                return True
    return False


def _seedlike_params(node: ast.FunctionDef) -> bool:
    names = positional_params(node, drop_self=False)
    names += [arg.arg for arg in node.args.kwonlyargs]
    return any("seed" in name for name in names)


def _check_task(
    source_file: SourceFile,
    call: ast.Call,
    task: ast.AST,
    module: str,
    class_name: Optional[str],
    scopes: Sequence[ast.AST],
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    path, line, col = source_file.path, call.lineno, call.col_offset
    findings: List[Finding] = []

    if isinstance(task, ast.Lambda):
        return [Finding(
            UNPICKLABLE_TASK, path, line, col,
            "task is a lambda; spawn workers pickle tasks by reference, so it must "
            "be a module-level function",
        )]
    if isinstance(task, ast.Attribute):
        if isinstance(task.value, ast.Name) and task.value.id in ("self", "cls"):
            return [Finding(
                UNPICKLABLE_TASK, path, line, col,
                f"task self.{task.attr} is a bound method; it drags the whole instance "
                f"into every worker — use a module-level function",
            )]
    if isinstance(task, ast.Name) and _enclosing_nested_def(scopes, task.id):
        return [Finding(
            UNPICKLABLE_TASK, path, line, col,
            f"task {task.id} is a nested function; spawn workers cannot pickle it "
            f"by reference — move it to module level",
        )]

    key = graph.resolve_callable(task, module, class_name)
    if key is None or key not in summaries:
        return findings  # outside the analysed set; nothing to vouch for
    info = graph.functions[key]
    summary = summaries[key]
    task_name = info.short_name

    for name in sorted(summary.global_writes):
        chain = summary.global_writes[name]
        findings.append(Finding(
            IMPURE_TASK, path, line, col,
            f"task {task_name} transitively writes module state {name!r} "
            f"(via {graph.route((key,) + chain)}); the merged result is no "
            f"longer a pure function of the task arguments",
        ))
        break  # one impurity per call site is enough to gate
    if summary.ambient and not _seedlike_params(info.node):
        source = sorted(summary.ambient)[0]
        chain = summary.ambient[source]
        findings.append(Finding(
            ENTROPY_TASK, path, line, col,
            f"task {task_name} reads ambient entropy {source} "
            f"(via {graph.route((key,) + chain)}) and takes no seed parameter; "
            f"workers and reruns diverge",
        ))
    for param in sorted(summary.param_mutations):
        chain = summary.param_mutations[param]
        findings.append(Finding(
            MUTATING_TASK, path, line, col,
            f"task {task_name} mutates its argument {param!r} in place "
            f"(via {graph.route((key,) + chain)}); workers mutate pickled "
            f"copies, so results depend on the worker count",
        ))
        break
    return findings


def _check_parallel_map_sites(
    source_file: SourceFile,
    graph: CallGraph,
    summaries: Dict[str, EffectSummary],
) -> List[Finding]:
    findings: List[Finding] = []
    tree = source_file.tree
    if tree is None:
        return findings
    aliases = import_aliases(tree)
    module = source_file.module_name

    def visit(node: ast.AST, class_name: Optional[str], scopes: Tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, scopes)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, class_name, scopes + (child,))
                continue
            if isinstance(child, ast.Call):
                callee = resolve_call_name(child, aliases)
                if callee is not None and callee.split(".")[-1] == "parallel_map":
                    task = _task_expr(child)
                    if task is not None:
                        findings.extend(_check_task(
                            source_file, child, task, module, class_name,
                            scopes, graph, summaries,
                        ))
            visit(child, class_name, scopes)

    visit(tree, None, ())
    return findings


# -- pass entry point ------------------------------------------------------


def run(
    files: Sequence[SourceFile],
    graph: Optional[CallGraph] = None,
    max_k: int = DEFAULT_MAX_K,
) -> List[Finding]:
    """Pass entry point; *graph* is built from *files* when not shared."""
    if graph is None:
        graph = build_call_graph(files)
    summaries = compute_summaries(files, graph, max_k=max_k)
    findings = races.check(files, graph, summaries)
    for source_file in files:
        findings.extend(_check_parallel_map_sites(source_file, graph, summaries))
    return findings
