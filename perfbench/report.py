"""Metric definitions, their computation from a run, and the printed report.

``END_TO_END`` and ``PER_LAYER`` must list the same names, units and
directions as ``BENCHMARK.json`` (a test checks this).
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

from perfbench import reference
from perfbench.spans import SpanRecorder
from perfbench.workloads import Outcome, Timing, percentile

#: name -> (unit, better).  Host-time metrics of the untraced run.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "sim_s_per_s": ("sim_s/host_s", "higher"),
    "unit_ms_p50": ("ms", "lower"),
    "unit_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better).  Per-layer numbers of the traced run, plus
#: the workloads' simulated statistics (``sim.*``, 0 where a workload
#: has no such events).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "kernel.events": ("count", "lower"),
    "kernel.events_per_sim_s": ("1/sim_s", "lower"),
    "kernel.cancel_ratio": ("ratio", "lower"),
    "kernel.self_ms": ("ms", "lower"),
    "network.send.calls": ("count", "lower"),
    "network.send.self_ms": ("ms", "lower"),
    "network.usable_path.self_ms": ("ms", "lower"),
    "network.path_checks_per_send": ("ratio", "lower"),
    "network.drop_ratio": ("ratio", "lower"),
    "trace.emit.calls": ("count", "lower"),
    "trace.emit.self_ms": ("ms", "lower"),
    "chaos.on_tick.calls": ("count", "lower"),
    "chaos.on_tick.self_ms": ("ms", "lower"),
    "chaos.ticks_per_sim_s": ("1/sim_s", "lower"),
    "nt.walkthrough.calls": ("count", "lower"),
    "nt.walkthrough.self_ms": ("ms", "lower"),
    "nt.copy_variables.self_ms": ("ms", "lower"),
    "nt.process_alive.calls": ("count", "lower"),
    "ckpt.capture.calls": ("count", "lower"),
    "ckpt.capture.self_ms": ("ms", "lower"),
    "ckpt.merge.calls": ("count", "lower"),
    "ckpt.merge.self_ms": ("ms", "lower"),
    "ckpt.bytes_per_capture": ("bytes", "lower"),
    "ckpt.rejected": ("count", "lower"),
    "engine.heartbeat.calls": ("count", "lower"),
    "engine.heartbeat.self_ms": ("ms", "lower"),
    "engine.alive.calls": ("count", "lower"),
    "engine.announce.self_ms": ("ms", "lower"),
    "engine.switchovers": ("count", "lower"),
    "engine.local_restarts": ("count", "lower"),
    "msq.send.calls": ("count", "lower"),
    "msq.send.self_ms": ("ms", "lower"),
    "msq.retries": ("count", "lower"),
    "msq.dead_lettered": ("count", "lower"),
    "msq.ack_ratio": ("ratio", "higher"),
    "diverter.redirects": ("count", "lower"),
    "com.invoke.calls": ("count", "lower"),
    "com.invoke.self_ms": ("ms", "lower"),
    "com.marshal.self_ms": ("ms", "lower"),
    "opc.update_item.calls": ("count", "lower"),
    "opc.update_item.self_ms": ("ms", "lower"),
    "devices.scan.self_ms": ("ms", "lower"),
    "apps.process_event.self_ms": ("ms", "lower"),
    "faults.injected": ("count", "higher"),
    "trace_overhead_ratio": ("ratio", "lower"),
    "sim.outage_ms_p50": ("sim_ms", "lower"),
    "sim.outage_ms_p90": ("sim_ms", "lower"),
    "sim.event_lag_ms_p50": ("sim_ms", "lower"),
    "sim.event_lag_ms_p99": ("sim_ms", "lower"),
    "sim.ckpt_kb_per_sim_s": ("KB/sim_s", "lower"),
    "sim.failed_ops_ratio": ("ratio", "lower"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(outcome: Outcome, timing: Timing, import_s: float, peak_rss_mb: float) -> Dict[str, float]:
    """The host-time metrics of the untraced runs, in scaled host time.

    *import_s* is the scaled import time.
    """
    return {
        "sim_s_per_s": _ratio(outcome.sim_ms / 1000.0, sum(timing.unit_s)),
        "unit_ms_p50": percentile(timing.unit_s, 0.50) * 1000.0,
        "unit_ms_p90": percentile(timing.unit_s, 0.90) * 1000.0,
        "setup_s": import_s + statistics.median(timing.setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(recorder: SpanRecorder, traced: Outcome, timing: Timing) -> Dict[str, float]:
    """Per-layer metrics of the traced run (and its overhead over the untraced runs)."""
    calls = recorder.span_counts()
    calls.update(recorder.counts)
    self_ms = recorder.self_ms()
    counters = traced.counters
    sim_s = traced.sim_ms / 1000.0

    def c(name: str) -> float:
        return calls.get(name, 0)

    def s(name: str) -> float:
        return self_ms.get(name, 0.0)

    sim = traced.sim
    remote_sent = counters["msq_sent"] - counters["msq_local"]
    return {
        "kernel.events": c("kernel.schedule"),
        "kernel.events_per_sim_s": _ratio(c("kernel.schedule"), sim_s),
        "kernel.cancel_ratio": _ratio(c("kernel.cancel"), c("kernel.schedule")),
        "kernel.self_ms": s("kernel.run"),
        "network.send.calls": c("network.send"),
        "network.send.self_ms": s("network.send"),
        "network.usable_path.self_ms": s("network.usable_path"),
        "network.path_checks_per_send": _ratio(recorder.path_checks(), c("network.send")),
        "network.drop_ratio": _ratio(counters["net_dropped"], counters["net_dropped"] + counters["net_delivered"]),
        "trace.emit.calls": c("trace.emit"),
        "trace.emit.self_ms": s("trace.emit"),
        "chaos.on_tick.calls": c("chaos.on_tick"),
        "chaos.on_tick.self_ms": s("chaos.on_tick"),
        "chaos.ticks_per_sim_s": _ratio(c("chaos.on_tick"), sim_s),
        "nt.walkthrough.calls": c("nt.walkthrough"),
        "nt.walkthrough.self_ms": s("nt.walkthrough"),
        "nt.copy_variables.self_ms": s("nt.copy_variables"),
        "nt.process_alive.calls": c("nt.process_alive"),
        "ckpt.capture.calls": c("ckpt.capture"),
        "ckpt.capture.self_ms": s("ckpt.capture"),
        "ckpt.merge.calls": c("ckpt.merge"),
        "ckpt.merge.self_ms": s("ckpt.merge"),
        "ckpt.bytes_per_capture": _ratio(counters["ckpt_bytes"], counters["ckpt_submits"]),
        "ckpt.rejected": counters["ckpt_rejected"],
        "engine.heartbeat.calls": c("engine.heartbeat"),
        "engine.heartbeat.self_ms": s("engine.heartbeat"),
        "engine.alive.calls": c("engine.alive"),
        "engine.announce.self_ms": s("engine.announce"),
        "engine.switchovers": c("engine.promote"),
        "engine.local_restarts": counters["local_restarts"],
        "msq.send.calls": c("msq.send"),
        "msq.send.self_ms": s("msq.send"),
        "msq.retries": counters["msq_retries"],
        "msq.dead_lettered": counters["msq_dead_lettered"],
        "msq.ack_ratio": _ratio(counters["msq_acked"], remote_sent),
        "diverter.redirects": counters["diverter_redirects"],
        "com.invoke.calls": c("com.invoke"),
        "com.invoke.self_ms": s("com.invoke"),
        "com.marshal.self_ms": s("com.marshal"),
        "opc.update_item.calls": c("opc.update_item"),
        "opc.update_item.self_ms": s("opc.update_item"),
        "devices.scan.self_ms": s("devices.scan"),
        "apps.process_event.self_ms": s("apps.process_event"),
        "faults.injected": c("faults.apply"),
        "trace_overhead_ratio": _ratio(sum(traced.scaled_unit_s()), statistics.median(timing.run_s)),
        "sim.outage_ms_p50": sim.get("outage_ms_p50", 0.0),
        "sim.outage_ms_p90": sim.get("outage_ms_p90", 0.0),
        "sim.event_lag_ms_p50": sim.get("event_lag_ms_p50", 0.0),
        "sim.event_lag_ms_p99": sim.get("event_lag_ms_p99", 0.0),
        "sim.ckpt_kb_per_sim_s": sim["ckpt_kb_per_sim_s"],
        "sim.failed_ops_ratio": sim["failed_ops_ratio"],
    }


def render(outcome: Outcome, timing: Timing, metrics: Dict[str, float], import_s: float) -> List[str]:
    """The human-readable report of the untraced runs."""
    units = len(timing.unit_s)
    raw = timing.raw_unit_s
    sim = outcome.sim
    lines = [
        f"workload {outcome.workload}  seed {outcome.seed}  units {units}",
        f"end-to-end (untraced; host time scaled to a {reference.NOMINAL_S * 1e3:g} ms reference loop, "
        f"which took {timing.loop_s * 1e3:.3f} ms here; each unit at its fastest of {len(timing.run_s)} runs)",
        f"  sim_s_per_s    {metrics['sim_s_per_s']:12.3f}  sim s / host s  "
        f"({outcome.sim_ms / 1000.0:.1f} sim s in {sum(timing.unit_s):.3f} s, {units} units; "
        f"raw {outcome.sim_ms / 1000.0 / sum(raw) if raw else 0.0:.3f})",
        f"  unit_ms_p50    {metrics['unit_ms_p50']:12.3f}  host ms         (n={units}; "
        f"raw {percentile(raw, 0.50) * 1e3:.3f})",
        f"  unit_ms_p90    {metrics['unit_ms_p90']:12.3f}  host ms         (n={units}, "
        f"{units - math.ceil(0.9 * units)} beyond; raw {percentile(raw, 0.90) * 1e3:.3f})",
        f"  setup_s        {metrics['setup_s']:12.4f}  host s          "
        f"(import {import_s:.4f} s + median of {len(timing.setup_s)} builds "
        f"{statistics.median(timing.setup_s):.4f} s)",
        f"  peak_rss_mb    {metrics['peak_rss_mb']:12.1f}  MB",
    ]
    if "outage_ms_p50" in sim:
        lines += [
            f"  outage_ms_p50  {sim['outage_ms_p50']:12.1f}  sim ms          (n={sim['outage_samples']})",
            f"  outage_ms_p90  {sim['outage_ms_p90']:12.1f}  sim ms          (n={sim['outage_samples']})",
            f"  event_lag_ms_p50 {sim['event_lag_ms_p50']:10.3f}  sim ms          (n={sim['event_lag_samples']})",
            f"  event_lag_ms_p99 {sim['event_lag_ms_p99']:10.3f}  sim ms          (n={sim['event_lag_samples']})",
        ]
    lines.append(f"  ckpt_kb_per_sim_s {sim['ckpt_kb_per_sim_s']:9.3f}  KB / sim s")
    lines.append(
        f"  failed_ops_ratio {sim['failed_ops_ratio']:10.5f}  ratio           "
        f"({outcome.failed} of {outcome.attempted} {outcome.ops})"
    )
    lines.append("simulated statistics " + "  ".join(f"{k}={v:g}" for k, v in sim.items()))
    lines.append("checks")
    lines += [f"  {'PASS' if ok else 'FAIL'} {name}" for name, ok in outcome.checks.items()]
    lines.append(f"digest {outcome.digest}")
    return lines


def render_layers(metrics: Dict[str, float], spans: int, path: str) -> List[str]:
    """The per-layer table of a traced run."""
    lines = [f"per-layer (traced run, {spans} spans written to {path})"]
    for name, (unit, _better) in PER_LAYER.items():
        lines.append(f"  {name:30s} {metrics[name]:16.4f}  {unit}")
    return lines
