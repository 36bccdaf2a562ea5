"""Unit tests for the fieldbus, PLC scan loop, and the PLC→OPC bridge."""

import pytest

from repro.com.runtime import ComRuntime
from repro.devices.device import Actuator, Sensor
from repro.devices.fieldbus import Fieldbus
from repro.devices.plc import PLC, PlcOpcBridge
from repro.devices.signals import Constant, Step
from repro.opc.server import OpcServer
from repro.opc.types import Quality

from tests.conftest import make_world


def make_plant(seed=0):
    world = make_world(seed)
    bus = Fieldbus("bus0")
    bus.attach(Sensor("temp", Step(before=50.0, after=90.0, at_time=1_000.0)))
    bus.attach(Actuator("pump"))
    plc = PLC(world.kernel, "plc1", bus, world.rngs.stream("plc"), scan_period=50.0)
    plc.map_output("pump")
    return world, bus, plc


def test_fieldbus_attach_and_lookup():
    _world, bus, _plc = make_plant()
    assert [s.name for s in bus.sensors()] == ["temp"]
    assert [a.name for a in bus.actuators()] == ["pump"]
    with pytest.raises(KeyError):
        bus.device("ghost")
    with pytest.raises(ValueError):
        bus.attach(Sensor("temp", Constant(0.0)))


def test_fieldbus_attach_after_listing_keeps_name_order():
    _world, bus, _plc = make_plant()
    assert [s.name for s in bus.sensors()] == ["temp"]
    assert [a.name for a in bus.actuators()] == ["pump"]
    bus.attach(Sensor("level", Constant(1.0)))
    bus.attach(Sensor("zflow", Constant(2.0)))
    bus.attach(Actuator("fan"))
    assert [s.name for s in bus.sensors()] == ["level", "temp", "zflow"]
    assert [a.name for a in bus.actuators()] == ["fan", "pump"]


def test_fieldbus_down_blocks_io():
    world, bus, _plc = make_plant()
    bus.fail()
    with pytest.raises(IOError):
        bus.read_sensor("temp", 0.0, world.rngs.stream("x"))
    with pytest.raises(IOError):
        bus.write_actuator("pump", 1.0)
    bus.repair()
    assert bus.read_sensor("temp", 0.0, world.rngs.stream("x")) == 50.0


def test_plc_scan_reads_inputs_runs_logic_writes_outputs():
    world, bus, plc = make_plant()

    def interlock(inputs, outputs, _time):
        outputs["pump"] = 1.0 if inputs.get("temp", 0.0) > 80.0 else 0.0

    plc.add_logic(interlock)
    plc.start()
    world.run(500.0)
    assert plc.inputs["temp"] == 50.0
    assert bus.device("pump").commanded == 0.0
    world.run(1_500.0)
    assert plc.inputs["temp"] == 90.0
    assert bus.device("pump").commanded == 1.0
    assert plc.scan_count > 20


def test_plc_marks_bad_quality_on_sensor_failure():
    world, bus, plc = make_plant()
    plc.start()
    world.run(200.0)
    assert plc.input_quality["temp"] is Quality.GOOD
    bus.device("temp").fail()
    world.run(400.0)
    assert plc.input_quality["temp"] is Quality.BAD_DEVICE_FAILURE
    # Last good value is retained in the image.
    assert plc.inputs["temp"] == 50.0


def test_plc_stop_halts_scanning():
    world, _bus, plc = make_plant()
    plc.start()
    world.run(300.0)
    count = plc.scan_count
    plc.stop()
    world.run(1_000.0)
    assert plc.scan_count == count


def test_bridge_publishes_items_with_quality():
    world, bus, plc = make_plant()
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.P.1")
    bridge = PlcOpcBridge(world.kernel, plc, server, poll_period=100.0)
    plc.start()
    bridge.start()
    world.run(500.0)
    assert server.namespace.read("plc1.temp").value == 50.0
    assert server.namespace.read("plc1.pump").value == 0.0
    bus.device("temp").fail()
    world.run(1_000.0)
    assert server.namespace.read("plc1.temp").quality is Quality.BAD_DEVICE_FAILURE


def test_bridge_stop():
    world, _bus, plc = make_plant()
    system = world.add_machine("host")
    runtime = ComRuntime(system, world.network)
    server = OpcServer(runtime, "OPC.P.1")
    bridge = PlcOpcBridge(world.kernel, plc, server, poll_period=100.0)
    plc.start()
    bridge.start()
    world.run(300.0)
    polls = bridge.poll_count
    bridge.stop()
    world.run(1_000.0)
    assert bridge.poll_count == polls
