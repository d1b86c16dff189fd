"""The remaining subsystems: data plane, interrupts, time model,
figures harness helpers, $readmemh, public API."""

import pytest

from repro.common.bits import Bits
from repro.core.interrupts import Interrupt, InterruptQueue
from repro.perf.timemodel import MMIO_NS, NS_PER_SEC, SW_EVENT_NS, \
    TimeModel


class TestPublicApi:
    def test_top_level_exports(self):
        import repro
        assert repro.__version__
        assert callable(repro.simulate_source)
        runtime = repro.Runtime()
        assert runtime.board is not None


class TestInterruptQueue:
    def test_fifo_order(self):
        q = InterruptQueue()
        q.push_display("a")
        q.push_finish(3)
        q.push_display("b")
        kinds = []
        while q:
            kinds.append(q.pop().kind)
        assert kinds == [Interrupt.DISPLAY, Interrupt.FINISH,
                         Interrupt.DISPLAY]

    def test_action_payload(self):
        q = InterruptQueue()
        hits = []
        q.push_action(lambda: hits.append(1))
        q.pop().payload()
        assert hits == [1]

    def test_empty_pop(self):
        assert InterruptQueue().pop() is None


class TestTimeModel:
    def test_charges_accumulate(self):
        tm = TimeModel()
        tm.charge_sw_events(2)
        tm.charge_mmio(3)
        tm.charge_hw_ticks(50)
        expected = (2 * SW_EVENT_NS + 3 * MMIO_NS
                    + 50 * tm.fabric_tick_ns)
        assert tm.now_ns == pytest.approx(expected)

    def test_fabric_tick_matches_clock(self):
        tm = TimeModel(fabric_mhz=100.0)
        assert tm.fabric_tick_ns == pytest.approx(10.0)

    def test_seconds_conversion(self):
        tm = TimeModel()
        tm.charge_ns(2.5 * NS_PER_SEC)
        assert tm.now_seconds == pytest.approx(2.5)


class TestPerfTrace:
    def test_piecewise_series(self):
        from repro.perf.figures import piecewise_series
        series = piecewise_series([(0.0, 10.0), (5.0, 100.0)], 10.0, 10)
        assert series[0] == (0.0, 10.0)
        assert series[-1] == (10.0, 100.0)
        assert any(rate == 10.0 for _, rate in series[:5])


class TestDataPlane:
    def test_single_message_per_value_change(self):
        from repro.backend.compiler import CompileService
        from repro.core.runtime import Runtime
        rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                     enable_jit=False)
        rt.eval_source("assign led.val = pad.val;")
        rt.run(iterations=4)
        base = rt.plane.messages_sent
        rt.run(iterations=4)   # only the clock's own tick traffic
        quiet = rt.plane.messages_sent - base
        rt.board.pad.press(0)
        rt.run(iterations=4)
        busy = rt.plane.messages_sent - base - quiet
        assert busy > quiet  # pad/led changes add plane messages
        assert rt.board.leds.value == 1


class TestReadmem:
    def test_readmemh(self, tmp_path):
        data = tmp_path / "mem.hex"
        data.write_text("// header\nde ad\nbe ef\n")
        from repro.interp.sim import Simulator
        sim = Simulator.from_source(f"""
module t;
  reg [7:0] mem [0:3];
  initial begin
    $readmemh("{data}", mem);
    $display("%h %h %h %h", mem[0], mem[1], mem[2], mem[3]);
    $finish;
  end
endmodule""")
        sim.run()
        assert sim.output_lines == ["de ad be ef"]


class TestEngineAbi:
    def test_state_snapshot_roundtrip(self):
        """get_state/set_state between two software engines preserves
        registers and memories exactly (the migration contract)."""
        from repro.core.engines import SoftwareEngineAdapter
        from repro.ir.build import Subprogram
        from repro.verilog.parser import parse_module
        module = parse_module("""
module m(input wire clk);
  reg [7:0] a = 5;
  reg [7:0] mem [0:3];
  always @(posedge clk) a <= a + 1;
endmodule""")
        sub = Subprogram("m", module, False, "m", {})
        first = SoftwareEngineAdapter(sub)
        first.evaluate()  # startup: processes register sensitivities
        first.write("clk", Bits.from_int(1, 1))
        first.evaluate()
        while first.there_are_updates():
            first.update()
            first.evaluate()
        state = first.get_state()
        second = SoftwareEngineAdapter(
            Subprogram("m", module, False, "m", {}))
        second.set_state(state)
        assert second.get_state()["a"] == state["a"]
        assert int(state["a"]) == 6

    def test_software_to_hardware_state_transfer(self):
        from repro.backend.hardware import HardwareEngine
        from repro.backend.pycompile import compile_design
        from repro.core.engines import SoftwareEngineAdapter
        from repro.ir.build import Subprogram
        from repro.verilog.elaborate import elaborate_leaf
        from repro.verilog.parser import parse_module
        module = parse_module("""
module m(input wire clk, output wire [7:0] out);
  reg [7:0] a = 42;
  assign out = a;
endmodule""")
        sub = Subprogram("m", module, False, "m", {})
        sw = SoftwareEngineAdapter(sub)
        hw = HardwareEngine(sub, compile_design(
            elaborate_leaf(module)))
        hw.set_state(sw.get_state())
        hw.evaluate()
        assert hw.read("out").to_int_xz() == 42
