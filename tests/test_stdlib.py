"""Standard-library engines and the virtual board."""

import pytest

from repro.common.bits import Bits
from repro.stdlib.board import HostFifo, VirtualBoard


class TestBoard:
    def test_led_trace_records_changes(self):
        board = VirtualBoard()
        board.leds.set(1, 0)
        board.leds.set(1, 1)  # no change, no trace entry
        board.leds.set(3, 2)
        assert board.led_trace() == [(0, 1), (2, 3)]

    def test_lit_indices(self):
        board = VirtualBoard()
        board.leds.set(0b101, 0)
        assert board.leds.lit() == [0, 2]

    def test_buttons(self):
        board = VirtualBoard()
        board.pad.press(0)
        board.pad.press(2)
        assert board.pad.value == 0b101
        board.pad.release(0)
        assert board.pad.value == 0b100
        board.pad.release_all()
        assert board.pad.value == 0

    def test_out_of_range_button_ignored(self):
        board = VirtualBoard(pad_width=4)
        board.pad.press(9)
        assert board.pad.value == 0


class TestHostFifo:
    def test_back_pressure(self):
        fifo = HostFifo(depth=2)
        assert fifo.host_push(1) and fifo.host_push(2)
        assert not fifo.host_push(3)
        assert fifo.device_pop() == 1
        assert fifo.host_push(3)

    def test_source_rate_limits(self):
        fifo = HostFifo(depth=100)
        fifo.attach_source(bytes(range(100)), bytes_per_sec=1000.0)
        fifo.refill(0.010)  # 10 ms -> 10 bytes
        assert len(fifo.to_device) == 10
        fifo.refill(0.020)
        assert len(fifo.to_device) == 20

    def test_source_respects_depth(self):
        fifo = HostFifo(depth=4)
        fifo.attach_source(bytes(100), bytes_per_sec=1e9)
        fifo.refill(1.0)
        assert len(fifo.to_device) == 4
        for _ in range(4):
            fifo.device_pop()
        fifo.refill(2.0)
        assert len(fifo.to_device) == 4

    def test_source_exhaustion(self):
        fifo = HostFifo(depth=10)
        fifo.attach_source(b"ab", bytes_per_sec=1e9)
        fifo.refill(1.0)
        assert fifo.source_exhausted
        assert fifo.device_pop() == ord("a")


class TestStdlibEngines:
    def make(self, module_name, inst, params=""):
        from repro.core.runtime import Runtime
        rt = Runtime(enable_jit=False, implicit_stdlib=False)
        rt.eval_source(f"{module_name}{params} {inst}();")
        rt.run(iterations=2)
        return rt, rt.engines[inst]

    def test_clock_toggles_every_iteration(self):
        rt, clk = self.make("Clock", "c")
        values = []
        for _ in range(6):
            rt.run(iterations=1)
            values.append(clk.values["val"])
        assert values[:4] in ([0, 1, 0, 1], [1, 0, 1, 0])

    def test_pad_follows_board(self):
        rt, pad = self.make("Pad", "p", "#(4)")
        rt.board.pad.press(1)
        rt.run(iterations=2)
        assert pad.values["val"] == 0b10

    def test_led_writes_board(self):
        rt, led = self.make("Led", "l", "#(8)")
        led.write("val", Bits.from_int(0x55, 8))
        assert rt.board.leds.value == 0x55

    def test_memory_engine_read_write(self):
        rt, mem = self.make("Memory", "m", "#(4, 8)")
        mem.write("wen", Bits.from_int(1, 1))
        mem.write("waddr", Bits.from_int(3, 4))
        mem.write("wdata", Bits.from_int(99, 8))
        mem.write("raddr", Bits.from_int(3, 4))
        mem.write("clk", Bits.from_int(1, 1))  # posedge
        mem.write("clk", Bits.from_int(0, 1))
        mem.write("clk", Bits.from_int(1, 1))  # read back
        assert mem.read("rdata").to_int_xz() == 99

    def test_memory_state_migration(self):
        rt, mem = self.make("Memory", "m", "#(4, 8)")
        mem.words[5] = 42
        state = mem.get_state()
        rt2, mem2 = self.make("Memory", "m", "#(4, 8)")
        mem2.set_state(state)
        assert mem2.words[5] == 42

    def test_fifo_engine_pop_on_rreq(self):
        rt, fifo = self.make("Fifo", "f", "#(8, 4)")
        host = rt.board.fifo("f")
        host.host_push(7)
        fifo.end_step()
        assert fifo.read("empty").to_int_xz() == 0
        fifo.write("rreq", Bits.from_int(1, 1))
        fifo.write("clk", Bits.from_int(1, 1))
        assert fifo.read("rdata").to_int_xz() == 7
        fifo.write("clk", Bits.from_int(0, 1))
        assert fifo.read("empty").to_int_xz() == 1

    def test_fifo_write_back_to_host(self):
        rt, fifo = self.make("Fifo", "f", "#(8, 4)")
        fifo.write("wreq", Bits.from_int(1, 1))
        fifo.write("wdata", Bits.from_int(33, 8))
        fifo.write("clk", Bits.from_int(1, 1))
        assert list(rt.board.fifo("f").from_device) == [33]

    def test_unknown_stdlib_module(self):
        from repro.stdlib.engines import make_stdlib_engine
        from repro.ir.build import Subprogram
        from repro.verilog.parser import parse_module
        sub = Subprogram("x", parse_module("module X(); endmodule"),
                         True, "X", {})
        with pytest.raises(KeyError):
            make_stdlib_engine(sub, VirtualBoard())
