"""Result probes: the few observations the workloads' outputs need.

Probes are installed in both the untraced and the traced run, so they
cost the same on both sides of ``trace_overhead_ratio``.  None of them
schedules kernel events, emits trace records or changes a return value,
so the simulation is unchanged by them.

* :class:`Registry` remembers every ``OfttEngine``, ``QueueManager``,
  ``DiverterClient`` and ``Network`` built while it is installed and
  sums their counters (checkpoint bytes, MSMQ retries, drops, ...).
* :class:`AppliedProbe` records when the Call Track copy first applied
  each telephone event (``CallTrackApp.process_event`` returned True).
* :class:`RpcProbe` counts DCOM invocations and the ones that failed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from perfbench.patching import Patcher, resolve

#: counter name -> reader(instance) for every registered class.
COUNTERS: Dict[str, Dict[str, Callable[[Any], float]]] = {
    "repro.core.engine:OfttEngine": {
        "ckpt_bytes": lambda e: sum(e.checkpoint_sizes),
        "ckpt_submits": lambda e: len(e.checkpoint_sizes),
        "ckpt_rejected": lambda e: e.peer_store.rejected_count,
        "local_restarts": lambda e: e.local_restart_count,
    },
    "repro.msq.manager:QueueManager": {
        "msq_sent": lambda q: q.stats["sent"],
        "msq_local": lambda q: q.stats["delivered_local"],
        "msq_acked": lambda q: q.stats["acked"],
        "msq_retries": lambda q: q.stats["retries"],
        "msq_dead_lettered": lambda q: q.stats["dead_lettered"],
    },
    "repro.core.diverter:DiverterClient": {
        "diverter_redirects": lambda d: d.redirect_count,
    },
    "repro.simnet.network:Network": {
        "net_delivered": lambda n: n.delivered_count,
        "net_dropped": lambda n: n.dropped_count,
    },
}


class Registry:
    """Instances built since :meth:`install`, and the sums of their counters."""

    def __init__(self) -> None:
        self._live: Dict[str, List[Any]] = {path: [] for path in COUNTERS}
        self._retired: Dict[str, float] = {}

    def install(self, patcher: Patcher) -> None:
        for path, instances in self._live.items():
            module, name = resolve(path)
            cls = getattr(module, name)

            def make(init, instances=instances):
                def __init__(self, *args, **kwargs):
                    init(self, *args, **kwargs)
                    instances.append(self)

                return __init__

            patcher.patch_attr(cls, "__init__", make)

    def totals(self) -> Dict[str, float]:
        """Counter sums over every instance seen so far."""
        totals = dict.fromkeys((name for readers in COUNTERS.values() for name in readers), 0)
        for name, value in self._retired.items():
            totals[name] += value
        for path, instances in self._live.items():
            for name, read in COUNTERS[path].items():
                totals[name] += sum(read(instance) for instance in instances)
        return totals

    def retire(self) -> None:
        """Fold the live instances into the sums and drop the references.

        Called when their scenario is finished, so a long campaign does
        not keep every testbed alive.
        """
        self._retired = self.totals()
        for instances in self._live.values():
            instances.clear()


class AppliedProbe:
    """First time each telephone event sequence was applied by a copy."""

    def __init__(self) -> None:
        self.applied_at: Dict[int, float] = {}
        self.clock: Callable[[], float] = lambda: 0.0

    def reset(self, clock: Callable[[], float]) -> None:
        self.applied_at = {}
        self.clock = clock

    def install(self, patcher: Patcher) -> None:
        from repro.apps.calltrack import CallTrackApp

        probe = self

        def make(process_event):
            def wrapper(app, event):
                applied = process_event(app, event)
                if applied:
                    probe.applied_at.setdefault(int(event["sequence"]), probe.clock())
                return applied

            return wrapper

        patcher.patch_attr(CallTrackApp, "process_event", make)


class RpcProbe:
    """DCOM invocations (two-way, one-way, ping) and their failures.

    A two-way call fails when its :class:`RpcResult` is not ok; a ping
    when it is not ok or reports the object gone; a one-way call when no
    route existed to send it.
    """

    def __init__(self) -> None:
        self.invocations = 0
        self.failures = 0

    def reset(self) -> None:
        self.invocations = 0
        self.failures = 0

    def _on_call_result(self, event: Any) -> None:
        if not event.value.ok:
            self.failures += 1

    def _on_ping_result(self, event: Any) -> None:
        if not event.value.ok or event.value.value is False:
            self.failures += 1

    def install(self, patcher: Patcher) -> None:
        from repro.com.dcom import DcomExporter

        probe = self

        def make_two_way(on_result):
            def make(method):
                def wrapper(*args, **kwargs):
                    done = method(*args, **kwargs)
                    probe.invocations += 1
                    done.add_callback(on_result)
                    return done

                return wrapper

            return make

        def make_one_way(method):
            def wrapper(*args, **kwargs):
                sent = method(*args, **kwargs)
                probe.invocations += 1
                if not sent:
                    probe.failures += 1
                return sent

            return wrapper

        patcher.patch_attr(DcomExporter, "invoke", make_two_way(self._on_call_result))
        patcher.patch_attr(DcomExporter, "check_liveness", make_two_way(self._on_ping_result))
        patcher.patch_attr(DcomExporter, "invoke_oneway", make_one_way)
