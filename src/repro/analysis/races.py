"""Same-tick handler races (RACE rules), checked by the effects pass.

Events that land at the same simulated timestamp run in schedule order:
the kernel's strictly increasing sequence number breaks the tie
(:mod:`repro.simnet.kernel`).  That keeps replay deterministic, but it
also *hides* logical races — two handlers touching the same state at an
equal timestamp produce whichever outcome the incidental schedule order
picks, and an innocent reordering of ``schedule()`` calls flips the
result while every test keeps passing.

Per class, the methods used as scheduled callbacks / process steps
(anything passed to ``schedule``/``spawn``/``add_callback``/``bind``/...)
are *handlers*.  Each handler's read/write/mutate/iterate sets over
``self.*`` come from its effect summary (:mod:`repro.analysis.summaries`),
which includes everything reachable through up to ``max_k``
``self.method()`` hops.  Pairs of handlers that can tie then yield one
finding per (attribute, kind):

* k = 0 — both sides touch the attribute in the handler body itself:

  - RACE001 ``race-write-write``    — both handlers store the attribute
  - RACE002 ``race-write-read``     — one stores what the other loads
  - RACE003 ``race-container-iter`` — one mutates a container the other
    iterates

* k > 0 — at least one side needs a helper hop, so the finding carries
  the call chain (``_on_ping_result -> _collect -> clear_callback``):
  RACE101 ``ip-race-write-write``, RACE102 ``ip-race-write-read``,
  RACE103 ``ip-race-container``.  A conflict already visible at k = 0 is
  not reported again at k > 0.

* RACE004 ``race-loop-capture`` — a closure passed to a registrar
  captures the loop variable (late binding: every callback sees the last
  value).

The conflict rules are warnings: the tiebreak order is sometimes the
designed behaviour (state machines stepping themselves).
Reviewed-and-intended pairs are annotated in place, e.g.
``# oftt-lint: ok[race-write-write]`` on the anchoring handler's ``def``
line.  RACE004 is an error — it is a plain bug.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.findings import Finding, Severity, rule
from repro.analysis.summaries import Chain, EffectSummary, direct_effects
from repro.analysis.walker import SourceFile, dotted_name, self_attr

WRITE_WRITE = rule(
    "RACE001", "race-write-write", Severity.WARNING, "effects",
    "Two same-tick handlers write one attribute; seq-number order decides.",
)
WRITE_READ = rule(
    "RACE002", "race-write-read", Severity.WARNING, "effects",
    "A same-tick handler reads what another writes; seq-number order decides.",
)
CONTAINER_ITER = rule(
    "RACE003", "race-container-iter", Severity.WARNING, "effects",
    "A same-tick handler mutates a container another iterates.",
)
LOOP_CAPTURE = rule(
    "RACE004", "race-loop-capture", Severity.ERROR, "effects",
    "Callback closure captures the loop variable; all callbacks see the last value.",
)
IP_WRITE_WRITE = rule(
    "RACE101", "ip-race-write-write", Severity.WARNING, "effects",
    "Same-tick handlers write one attribute through helper calls; order is the seq tiebreak.",
)
IP_WRITE_READ = rule(
    "RACE102", "ip-race-write-read", Severity.WARNING, "effects",
    "A same-tick handler reads what another writes through a helper call chain.",
)
IP_CONTAINER = rule(
    "RACE103", "ip-race-container", Severity.WARNING, "effects",
    "A same-tick handler mutates, through helpers, a container another iterates.",
)

#: Method names through which a callable becomes an event handler.
REGISTRARS = {"schedule", "add_callback", "bind", "spawn", "on_message", "subscribe"}

#: One side of a conflict: (handler name, chain to the effect).
Side = Tuple[str, Chain]


@dataclass
class ClassModel:
    """One class with its methods and the subset registered as handlers."""

    name: str
    path: str
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)
    handlers: Set[str] = field(default_factory=set)


def _callback_method_name(node: ast.AST) -> Optional[str]:
    """``name`` for a ``self.name`` callback reference (or ``self.name()``)."""
    attr = self_attr(node)
    if attr is not None:
        return attr
    if isinstance(node, ast.Call):  # spawn(self._run()) — generator call
        return self_attr(node.func)
    return None


def _is_registrar_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    callee = dotted_name(node.func)
    return callee is not None and callee.split(".")[-1] in REGISTRARS


def collect_models(files: Sequence[SourceFile]) -> List[ClassModel]:
    """Per-class handler models, in file order."""
    models: List[ClassModel] = []
    for source_file in files:
        if source_file.tree is None:
            continue
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            model = ClassModel(node.name, source_file.path)
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    model.methods[stmt.name] = stmt
            # A method becomes a handler when any method of the class
            # registers self.<method> with the kernel.
            for func in model.methods.values():
                for call in ast.walk(func):
                    if not _is_registrar_call(call):
                        continue
                    for arg in list(call.args) + [kw.value for kw in call.keywords]:
                        name = _callback_method_name(arg)
                        if name is not None and name in model.methods:
                            model.handlers.add(name)
            models.append(model)
    return models


def _check_loop_capture(source_file: SourceFile) -> List[Finding]:
    """RACE004: lambda in a loop body, capturing the loop variable,
    passed to a registrar."""
    findings: List[Finding] = []
    for loop in ast.walk(source_file.tree):
        if not isinstance(loop, (ast.For, ast.AsyncFor)):
            continue
        loop_vars = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
        if not loop_vars:
            continue
        for node in ast.walk(loop):
            if not _is_registrar_call(node):
                continue
            registrar = dotted_name(node.func).split(".")[-1]
            for arg in node.args:
                if not isinstance(arg, ast.Lambda):
                    continue
                lambda_params = {a.arg for a in arg.args.args + arg.args.kwonlyargs}
                captured = {
                    n.id
                    for n in ast.walk(arg.body)
                    if isinstance(n, ast.Name) and n.id in loop_vars and n.id not in lambda_params
                }
                if captured:
                    findings.append(
                        Finding(LOOP_CAPTURE, source_file.path, arg.lineno, arg.col_offset,
                                f"lambda passed to {registrar}() captures loop variable "
                                f"{', '.join(sorted(captured))}; bind it as a default or pass it as *args")
                    )
    return findings


def _sides(handlers: Dict[str, EffectSummary], effect: str, attr: str) -> List[Side]:
    """(handler, chain) for each handler whose *effect* set holds *attr*."""
    out: List[Side] = []
    for name in sorted(handlers):
        chain = getattr(handlers[name], effect).get(attr)
        if chain is not None:
            out.append((name, chain))
    return out


def _pairs(lhs: List[Side], rhs: List[Side]) -> List[Tuple[Side, Side]]:
    """Cross-handler (lhs, rhs) pairs, lhs-major in handler order."""
    return [(left, right) for left in lhs for right in rhs if left[0] != right[0]]


def _direct(sides: List[Side]) -> List[Side]:
    return [side for side in sides if not side[1]]


def _check_handler_conflicts(
    model: ClassModel, keys: Dict[str, str], handlers: Dict[str, EffectSummary], graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []

    def report(which, anchor: str, text: str) -> None:
        findings.append(Finding(which, model.path, model.methods[anchor].lineno, 0, f"{model.name}.{attr} {text}"))

    def route(side: Side) -> str:
        return graph.route((keys[side[0]],) + side[1])

    attrs: Set[str] = set()
    for summary in handlers.values():
        attrs.update(summary.self_writes)
        attrs.update(summary.self_reads)
    for attr in sorted(attrs):
        writers = _sides(handlers, "self_writes", attr)
        readers = _sides(handlers, "self_reads", attr)
        mutators = _sides(handlers, "self_mutates", attr)
        iterators = _sides(handlers, "self_iterates", attr)
        direct_writers = [name for name, _ in _direct(writers)]
        dunder = attr.startswith("__")

        # -- k = 0: both sides in the handler bodies (RACE001-003) ------
        if not dunder:
            if len(direct_writers) >= 2:
                report(WRITE_WRITE, direct_writers[0],
                       f"written by same-tick handlers {', '.join(direct_writers)}; "
                       f"order is only the seq tiebreak")
            read_pairs = _pairs(_direct(writers), _direct(readers))
            if read_pairs:
                (writer, _), (reader, _) = read_pairs[0]
                # Write-write supersedes write-read from the first pair of
                # writers on, taking handler pairs in name order.
                if len(direct_writers) < 2 or sorted((writer, reader)) < direct_writers[:2]:
                    report(WRITE_READ, writer,
                           f"written by {writer} and read by {reader} in same-tick handlers; "
                           f"order is only the seq tiebreak")
        # Only the container rule also covers dunder attributes.
        iter_pairs = _pairs(_direct(mutators), _direct(iterators))
        if iter_pairs:
            mutator = iter_pairs[0][0][0]
            report(CONTAINER_ITER, mutator,
                   f"mutated by {mutator} while another same-tick handler iterates it")
        if dunder:
            continue

        # -- k > 0: conflicts that need a helper hop (RACE101-103) ------
        if len(writers) >= 2 and len(direct_writers) < 2:
            report(IP_WRITE_WRITE, writers[0][0],
                   f"written by same-tick handlers via {'; '.join(route(w) for w in writers)}; "
                   f"order is only the seq tiebreak")
            continue
        # The container rule is classified before write-read: mutates
        # are writes and iterations are reads, and it is the more
        # precise diagnosis.
        iter_pairs = _pairs(mutators, iterators)
        if iter_pairs and all(m[1] or i[1] for m, i in iter_pairs):
            mutator, iterator = iter_pairs[0]
            report(IP_CONTAINER, mutator[0],
                   f"mutated via {route(mutator)} while {route(iterator)} iterates it "
                   f"in a same-tick handler")
        read_pairs = _pairs(writers, readers)
        if len(writers) < 2 and not iter_pairs and read_pairs and all(w[1] or r[1] for w, r in read_pairs):
            writer, reader = read_pairs[0]
            report(IP_WRITE_READ, writer[0],
                   f"written via {route(writer)} and read via {route(reader)} in same-tick handlers; "
                   f"order is only the seq tiebreak")
    return findings


def check(
    files: Sequence[SourceFile], graph: CallGraph, summaries: Dict[str, EffectSummary]
) -> List[Finding]:
    """RACE001-004 and RACE101-103 over *files*, given their summaries."""
    findings: List[Finding] = []
    for source_file in files:
        if source_file.tree is not None:
            findings.extend(_check_loop_capture(source_file))
    module_of_path = {f.path: f.module_name for f in files}
    for model in collect_models(files):
        module = module_of_path[model.path]
        keys: Dict[str, str] = {}
        handlers: Dict[str, EffectSummary] = {}
        for name in model.handlers:
            node = model.methods[name]
            key = graph.methods.get((module, model.name, name))
            if key is not None and graph.functions[key].node is node:
                keys[name], handlers[name] = key, summaries[key]
            else:  # a nested class is outside the call graph: k = 0 only
                info = FunctionInfo(name, module, name, model.name, model.path, node)
                handlers[name] = direct_effects(info, set(), {})
        if len(handlers) >= 2:
            findings.extend(_check_handler_conflicts(model, keys, handlers, graph))
    return findings
