"""The runtime: JIT lifecycle, state transfer, eval window, scheduler."""

import pytest

from repro.backend.compiler import CompileService
from repro.core.runtime import Runtime

RUNNING = """
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
"""


def instant_runtime(**kwargs) -> Runtime:
    kwargs.setdefault("compile_service",
                      CompileService(latency_scale=0.0))
    return Runtime(**kwargs)


class TestSoftwareExecution:
    def test_runs_immediately_in_software(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING)
        rt.run(iterations=12)
        assert rt.user_engine_location() == "software"
        values = [v for _, v in rt.board.led_trace()]
        assert values[:4] == [1, 2, 4, 8]

    def test_rotation_wraps(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING)
        rt.run(iterations=40)
        values = [v for _, v in rt.board.led_trace()]
        assert 128 in values and values[values.index(128) + 1] == 1

    def test_button_pauses(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING)
        rt.run(iterations=10)
        rt.board.pad.press(0)
        rt.run(iterations=4)
        frozen = rt.board.leds.value
        rt.run(iterations=10)
        assert rt.board.leds.value == frozen


class TestJitLifecycle:
    def test_migration_preserves_state(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        rt.run(iterations=6)  # a few cycles in software first?
        trace = [v for _, v in rt.board.led_trace()]
        rt.run(iterations=200)
        assert rt.user_engine_location() == "hardware"
        after = [v for _, v in rt.board.led_trace()]
        # The sequence continues without restarting from 1.
        assert after[:len(trace)] == trace
        for prev, cur in zip(after, after[1:]):
            expected = 1 if prev == 128 else prev << 1
            assert cur == expected

    def test_forwarding_absorbs_components(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        rt.run(iterations=100)
        assert {"pad", "led"} <= rt.absorbed

    def test_open_loop_activates(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        rt.run(iterations=2000)
        assert rt._open_loop_active
        assert rt.virtual_clock_ticks > 500

    def test_compile_latency_hides_behind_simulation(self):
        rt = Runtime()  # real latency model
        rt.eval_source(RUNNING)
        rt.run(iterations=50)
        assert rt.user_engine_location() == "software"
        job = rt.compiler.jobs[-1]
        assert rt.time_model.now_seconds < job.ready_at_s

    def test_eval_moves_engine_back_to_software(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        rt.run(iterations=200)
        assert rt.user_engine_location() == "hardware"
        state_before = rt.board.leds.value
        # Modifying the program restarts the JIT from software...
        rt.eval_source("wire [7:0] shadow; assign shadow = cnt;")
        rt.run(iterations=2)
        # ...and a fresh compile brings it back to hardware.
        rt.run(iterations=300)
        assert rt.user_engine_location() == "hardware"
        assert rt.metrics.value("runtime.hw_migrations") >= 2

    def test_unsynthesizable_stays_in_software(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING + """
always @(posedge clk.val)
  #2 $display("never in hardware");
""")
        rt.run(iterations=60)
        assert rt.user_engine_location() == "software"
        assert rt.unsynthesizable

    def test_display_survives_migration(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING + """
always @(posedge clk.val)
  if (cnt == 8'd128)
    $display("wrap at %0d", cnt);
""")
        rt.run(iterations=2500)
        assert rt.user_engine_location() == "hardware"
        assert any("wrap at 128" in line for line in rt.output_lines)


class TestEvalWindow:
    def test_append_only_redeclaration_rejected(self):
        from repro.common.errors import ElaborationError
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        with pytest.raises(ElaborationError):
            rt.eval_source("module Rol(input wire q); endmodule")

    def test_statement_runs_once(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING)
        rt.run(iterations=4)
        rt.eval_statement('$display("hello once");')
        rt.run(iterations=20)
        assert rt.output_lines.count("hello once") == 1
        # Further evals must not re-run it.
        rt.eval_source("wire [7:0] probe; assign probe = cnt;")
        rt.run(iterations=20)
        assert rt.output_lines.count("hello once") == 1

    def test_finish_stops_program(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source("""
always @(posedge clk.val)
  $finish;
""")
        rt.run(iterations=50, until_finish=True)
        assert rt.finished == 0

    def test_incremental_construction(self):
        """The Figure 3 flow: items eval'd one at a time into a
        running program."""
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING.split("endmodule")[0] + "endmodule")
        rt.run(iterations=4)
        rt.eval_source("reg [7:0] cnt = 1;")
        rt.run(iterations=4)
        rt.eval_source("Rol r(.x(cnt));")
        rt.run(iterations=4)
        rt.eval_source(
            "always @(posedge clk.val) if (pad.val == 0) cnt <= r.y;")
        rt.run(iterations=4)
        assert not rt.board.led_trace()  # LEDs not connected yet
        rt.eval_source("assign led.val = cnt;")
        rt.run(iterations=8)
        assert rt.board.led_trace()


class TestPerformanceModel:
    def test_virtual_time_advances(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(RUNNING)
        rt.run(iterations=100)
        assert rt.time_model.now_seconds > 0

    def test_hardware_is_faster_than_software(self):
        def rate(jit):
            rt = instant_runtime(enable_jit=jit)
            rt.eval_source(RUNNING)
            rt.run(iterations=64)
            t0, c0 = rt.time_model.now_seconds, rt.virtual_clock_ticks
            rt.run(iterations=3000)
            return (rt.virtual_clock_ticks - c0) / (
                rt.time_model.now_seconds - t0)
        assert rate(True) > 100 * rate(False)

    def test_perf_trace_samples(self):
        rt = instant_runtime()
        rt.eval_source(RUNNING)
        rt.run(iterations=500)
        assert len(rt.perf.samples) >= 2
        assert rt.perf.final_rate() > 0


class TestStdlibIntegration:
    def test_gpio_loopback(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source("""
GPIO#(8) gpio();
assign gpio.wval = gpio.rval + 1;
""")
        rt.board.gpio.drive(41)
        rt.run(iterations=6)
        assert rt.board.gpio.out_value == 42

    def test_memory_component(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source("""
Memory#(4, 8) ram();
reg [3:0] phase = 0;
assign ram.clk = clk.val;
assign ram.wen = (phase < 4);
assign ram.waddr = phase;
assign ram.wdata = {4'd0, phase} + 8'd10;
assign ram.raddr = 4'd2;
always @(posedge clk.val)
  if (phase < 10)
    phase <= phase + 1;
assign led.val = ram.rdata;
""")
        rt.run(iterations=40)
        assert rt.board.leds.value == 12  # mem[2] == 12

    def test_reset_line(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source("""
reg [7:0] n = 5;
always @(posedge clk.val)
  if (rst.val) n <= 0;
  else n <= n + 1;
assign led.val = n;
""")
        rt.run(iterations=8)
        assert rt.board.leds.value > 0
        rt.board.reset = 1
        rt.run(iterations=8)
        assert rt.board.leds.value == 0
