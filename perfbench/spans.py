"""The traced run: spans around the public functions of each layer.

A span records a name, its start and end (``perf_counter_ns``) and the
index of the span open when it began (its parent, -1 for none).  Spans
live in compact arrays while the run goes on and are written to one
file when it ends (:meth:`SpanRecorder.write`).  A span is recorded
only while :attr:`SpanRecorder.recording` is set, which the workloads
do around each timed unit, so the per-layer numbers cover the same
work as the end-to-end ones.

A call that re-enters a function whose span is already the innermost
open one (``super()`` chains, recursion) gets no span of its own: its
time stays with the outer call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from perfbench.patching import Patcher, resolve

#: Span name -> the public functions it wraps (``module:Qual.name``).
SPANS: Dict[str, Tuple[str, ...]] = {
    "kernel.run": ("repro.simnet.kernel:SimKernel.run",),
    "network.send": ("repro.simnet.network:Network.send",),
    "network.usable_path": ("repro.simnet.network:Network.usable_path",),
    "network.path_ok": ("repro.simnet.network:Network.path_ok",),
    "trace.emit": ("repro.simnet.trace:TraceLog.emit",),
    "nt.walkthrough": ("repro.nt.memory:AddressSpace.walkthrough",),
    "ckpt.capture": ("repro.core.ftim:ClientFtim.capture",),
    "ckpt.merge": ("repro.core.checkpoint:Checkpoint.merged_onto",),
    "engine.heartbeat": ("repro.core.heartbeat:HeartbeatMonitor.beat",),
    "engine.announce": ("repro.core.roles:RoleNegotiator.on_peer_announce",),
    "engine.promote": ("repro.core.roles:RoleNegotiator.promote",),
    "msq.send": ("repro.msq.manager:QueueManager.send",),
    "com.invoke": ("repro.com.dcom:DcomExporter.invoke",),
    "opc.update_item": ("repro.opc.server:OpcServer.update_item",),
    "devices.scan": ("repro.devices.plc:PLC.scan_once", "repro.devices.plc:PlcOpcBridge.poll_once"),
    "apps.process_event": ("repro.apps.calltrack:CallTrackApp.process_event",),
}

#: Span name -> module-level functions, wrapped wherever they are imported.
FUNCTION_SPANS: Dict[str, str] = {
    "nt.copy_variables": "repro.nt.memory:copy_variables",
    "com.marshal": "repro.com.marshal:marshal_value",
}

#: Span name -> base class whose method of that name is wrapped on the
#: class and on every subclass that overrides it.
HIERARCHY_SPANS: Dict[str, Tuple[str, str]] = {
    "chaos.on_tick": ("repro.chaos.invariants:InvariantMonitor", "on_tick"),
    "faults.apply": ("repro.faults.faultlib:Fault", "apply"),
}

#: Counted calls without a span: these run hundreds of thousands of
#: times per run, and a span each would dominate the traced run.
COUNTS: Dict[str, str] = {
    "kernel.schedule": "repro.simnet.kernel:SimKernel.schedule",
    "kernel.cancel": "repro.simnet.kernel:SimKernel.cancel",
    "nt.process_alive": "repro.nt.process:NTProcess.alive",
    "engine.alive": "repro.core.engine:OfttEngine.alive",
}


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


class SpanRecorder:
    """Spans and call counts of one traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.counts: Dict[str, int] = {}
        self.recording = False
        self._stack: List[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str):
        """A wrapper factory that records a span around each call."""
        nid = self._name_id(name)
        recorder = self
        stack = self._stack
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        clock = time.perf_counter_ns

        def make(fn):
            def wrapper(*args, **kwargs):
                if not recorder.recording or (stack and name_ids[stack[-1]] == nid):
                    return fn(*args, **kwargs)
                index = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0)
                stack.append(index)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()

            return wrapper

        return make

    def count(self, name: str):
        """A wrapper factory that only counts calls."""
        counts = self.counts
        counts[name] = 0
        recorder = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if recorder.recording:
                    counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self, patcher: Patcher) -> None:
        """Wrap every function named in the tables above."""
        for name, paths in SPANS.items():
            for path in paths:
                owner, attr = resolve(path)
                patcher.patch_attr(owner, attr, self.span(name))
        for name, path in FUNCTION_SPANS.items():
            patcher.patch_function(path, self.span(name))
        for name, (path, method) in HIERARCHY_SPANS.items():
            module, cls_name = resolve(path)
            make = self.span(name)
            for cls in _subclasses(getattr(module, cls_name)):
                if method in vars(cls):
                    patcher.patch_attr(cls, method, make)
        for name, path in COUNTS.items():
            owner, attr = resolve(path)
            patcher.patch_attr(owner, attr, self.count(name))

    # -- results -----------------------------------------------------------

    def span_counts(self) -> Dict[str, int]:
        """Recorded spans per name."""
        tally = Counter(self.name_ids)
        return {name: tally.get(nid, 0) for nid, name in enumerate(self.names)}

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name, in host ms."""
        per_span = self_times(self.starts, self.ends, self.parents)
        totals = dict.fromkeys(self.names, 0)
        for nid, value in zip(self.name_ids, per_span):
            totals[self.names[nid]] += value
        return {name: ns / 1e6 for name, ns in totals.items()}

    def path_checks(self) -> int:
        """``path_ok`` calls plus ``usable_path`` calls not made by ``path_ok``."""
        if "network.usable_path" not in self.names:
            return 0
        usable = self.names.index("network.usable_path")
        path_ok = self.names.index("network.path_ok") if "network.path_ok" in self.names else -1
        checks = 0
        for nid, parent in zip(self.name_ids, self.parents):
            if nid == path_ok:
                checks += 1
            elif nid == usable and (parent < 0 or self.name_ids[parent] != path_ok):
                checks += 1
        return checks

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the four arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {"names": self.names, "spans": len(self.starts), "byteorder": sys.byteorder,
                  "arrays": ["name_ids:H", "starts:q", "ends:q", "parents:q"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.starts, self.ends, self.parents):
                column.tofile(handle)


def read_spans(path: str) -> Tuple[List[str], List[Tuple[str, int, int, int]]]:
    """Inverse of :meth:`SpanRecorder.write`: names and (name, start, end, parent) rows."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for spec in header["arrays"]:
            column = array(spec.split(":")[1])
            column.fromfile(handle, count)
            columns.append(column)
    names = header["names"]
    name_ids, starts, ends, parents = columns
    rows = [(names[n], s, e, p) for n, s, e, p in zip(name_ids, starts, ends, parents)]
    return names, rows


def self_times(starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]) -> List[int]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only
    the union of their intervals, clipped to the parent, is subtracted.
    """
    own = [end - start for start, end in zip(starts, ends)]
    covered_to: Dict[int, int] = {}
    for child in sorted(range(len(starts)), key=starts.__getitem__):
        parent = parents[child]
        if parent < 0:
            continue
        low = max(starts[child], covered_to.get(parent, starts[parent]))
        high = min(ends[child], ends[parent])
        if high > low:
            own[parent] -= high - low
            covered_to[parent] = high
    return own
