"""Self-tests for the k = 0 race rules (RACE001-004) of the effects pass."""

from __future__ import annotations

from repro.analysis import effects

from tests.analysis.util import analyze, rule_ids


def race(source: str):
    return analyze(source, effects.run)


# -- RACE001 write/write -------------------------------------------------


def test_write_write_fires_on_two_scheduled_writers():
    findings = race(
        """
        class Pump:
            def start(self):
                self.kernel.schedule(5.0, self._open_valve)
                self.kernel.schedule(5.0, self._close_valve)

            def _open_valve(self):
                self.valve = "open"

            def _close_valve(self):
                self.valve = "closed"
        """
    )
    assert rule_ids(findings) == ["RACE001"]
    assert "valve" in findings[0].message


def test_write_write_quiet_when_only_one_writer_is_scheduled():
    assert race(
        """
        class Pump:
            def start(self):
                self.kernel.schedule(5.0, self._open_valve)

            def _open_valve(self):
                self.valve = "open"

            def close_now(self):
                self.valve = "closed"
        """
    ) == []


# -- RACE002 write/read --------------------------------------------------


def test_write_read_fires_between_scheduled_handlers():
    findings = race(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self._sample)
                self.kernel.schedule(1.0, self._report)

            def _sample(self):
                self.reading = 42

            def _report(self):
                self.trace.emit(self.reading)
        """
    )
    assert rule_ids(findings) == ["RACE002"]
    assert "reading" in findings[0].message


def test_write_read_quiet_on_disjoint_state():
    assert race(
        """
        class Gauge:
            def start(self):
                self.kernel.schedule(1.0, self._sample)
                self.kernel.schedule(1.0, self._report)

            def _sample(self):
                self.reading = 42

            def _report(self):
                self.trace.emit(self.report_count)
        """
    ) == []


# -- RACE003 container mutation vs iteration -----------------------------


def test_container_iter_fires():
    findings = race(
        """
        class Registry:
            def start(self):
                self.kernel.schedule(1.0, self._add_watch)
                self.kernel.schedule(1.0, self._sweep)

            def _add_watch(self):
                self.watches.append("w")

            def _sweep(self):
                for watch in self.watches:
                    watch.poll()
        """
    )
    ids = rule_ids(findings)
    assert "RACE003" in ids
    assert "watches" in [f.message for f in findings if f.rule.rule_id == "RACE003"][0]


def test_container_iter_quiet_on_snapshot_iteration_style():
    # Reading a scalar and mutating a different container do not collide.
    assert race(
        """
        class Registry:
            def start(self):
                self.kernel.schedule(1.0, self._add_watch)
                self.kernel.schedule(1.0, self._sweep)

            def _add_watch(self):
                self.pending.append("w")

            def _sweep(self):
                for watch in self.active:
                    watch.poll()
        """
    ) == []


# -- RACE004 loop-variable capture ---------------------------------------


def test_loop_capture_fires_on_lambda_in_loop():
    findings = race(
        """
        def arm(kernel, nodes):
            for node in nodes:
                kernel.schedule(1.0, lambda: node.poke())
        """
    )
    assert rule_ids(findings) == ["RACE004"]
    assert "node" in findings[0].message


def test_loop_capture_quiet_when_bound_as_default_or_args():
    assert race(
        """
        def arm(kernel, nodes):
            for node in nodes:
                kernel.schedule(1.0, lambda n=node: n.poke())
            for node in nodes:
                kernel.schedule(1.0, node.poke)
        """
    ) == []


# -- scoping -------------------------------------------------------------


def test_handlers_must_be_scheduled_to_pair():
    # Plain methods that are never registered with the kernel never race.
    assert race(
        """
        class Quiet:
            def _a(self):
                self.x = 1

            def _b(self):
                self.x = 2
        """
    ) == []


def test_handlers_of_a_nested_class_still_pair():
    # Classes defined inside a function are outside the call graph; their
    # handler bodies are still compared at k = 0.
    findings = race(
        """
        def build():
            class Pump:
                def start(self):
                    self.kernel.schedule(5.0, self._open_valve)
                    self.kernel.schedule(5.0, self._close_valve)

                def _open_valve(self):
                    self.valve = "open"

                def _close_valve(self):
                    self.valve = "closed"

            return Pump
        """
    )
    assert rule_ids(findings) == ["RACE001"]
