"""The runtime: JIT lifecycle, state transfer, eval window, scheduler."""

import time
from unittest import mock

import pytest

from repro.backend.compiler import CompileService
from repro.backend.hardware import HardwareEngine
from repro.core.runtime import _OLOOP_MAX, _OLOOP_MIN, Runtime

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


MEMORY_LOG = """
Memory#(4, 8) ram();
reg [3:0] phase = 0;
assign ram.clk = clk.val;
assign ram.wen = (phase < 6);
assign ram.waddr = phase;
assign ram.wdata = {4'd0, phase} * 8'd3 + 8'd10;
assign ram.raddr = phase - 4'd1;
always @(posedge clk.val) begin
  phase <= phase + 1;
  $display("phase %0d rdata %0d", phase, ram.rdata);
end
assign led.val = ram.rdata;
"""


def memory_log_lines(count):
    """``phase p rdata r`` for the first ``count`` ticks: phases 0..5
    write 3p+10 at address p, and the display at phase p shows the word
    at p-2 (read on the previous edge)."""
    lines = []
    for tick in range(count):
        phase = tick % 16
        rdata = 3 * (phase - 2) + 10 if 2 <= phase <= 7 else 0
        lines.append(f"phase {phase} rdata {rdata}")
    return lines


class TestChargeInvariance:
    """Virtual time, per-tier event counts, plane messages and output
    are a function of the program alone: these pins were taken with a
    scheduler that polled and drained every engine in every round, and
    however the scheduler polls, drains or boxes, they must hold."""

    def check(self, rt, now_ns, tier_events, messages, lines):
        assert rt.time_model.now_ns == now_ns
        assert rt.time_model.tier_events == tier_events
        assert rt.plane.messages_sent == messages
        assert rt.output_lines == lines

    def test_pow_on_sw_fast(self):
        from repro.apps.pow import pow_program
        rt = Runtime(compile_service=CompileService(latency_scale=1e-3))
        rt.eval_source(pow_program(2, None, 8))
        rt.run(iterations=0)
        # Swap at the first window, whatever the host's codegen speed.
        rt._jobs["main"].codegen.result()
        rt.run(iterations=1400)
        assert rt.engine_tiers()["main"] == "sw-fast"
        self.check(rt, 298627500.0,
                   {"interpreted": 4, "sw-fast": 2408, "hardware": 1205},
                   2416, [
                       "nonce          5 digest 147fe6ae9563650b702c98006a"
                       "3aa55c9aca91a64d90c8164264dace18a6ec20",
                       "nonce          8 digest 14c6e4af1308421efb1a7c4ac9"
                       "e8a639155aa319e9a3e744cd9cfba6a9ffe1f7",
                       "max nonce reached"])
        assert rt.board.led_trace() == [(401, 5), (602, 8)]

    def test_interpreted_memory_changes_on_write(self):
        rt = instant_runtime(enable_jit=False)
        rt.eval_source(MEMORY_LOG)
        rt.run(iterations=60)
        self.check(rt, 16993800.0,
                   {"interpreted": 135, "sw-fast": 0, "hardware": 60},
                   494, memory_log_lines(30))
        assert [v for _, v in rt.board.led_trace()] == \
            [10, 13, 16, 19, 22, 25, 0] * 2

    def test_closed_loop_hardware_with_forwarding(self):
        rt = instant_runtime(enable_open_loop=False)
        rt.eval_source(MEMORY_LOG)
        rt.run(iterations=60)
        assert rt.engine_tiers()["main"] == "hardware"
        assert rt.absorbed == {"led", "pad", "ram", "rst"}
        self.check(rt, 1574940.0,
                   {"interpreted": 4, "sw-fast": 0, "hardware": 177},
                   307, memory_log_lines(30))

    def test_interpreted_subprograms_meet_on_the_plane(self):
        rt = instant_runtime(enable_jit=False, inline_user_logic=False)
        rt.eval_source(RUNNING + '\nalways @(posedge clk.val) '
                       '$display("cnt %0d", cnt);\n')
        rt.run(iterations=30)
        rt.board.pad.press(0)
        rt.run(iterations=6)
        rt.board.pad.release(0)
        rt.run(iterations=10)
        rotation = [f"cnt {1 << i}" for i in range(8)]
        self.check(rt, 10711920.0,
                   {"interpreted": 86, "sw-fast": 0, "hardware": 46},
                   222, rotation * 2 + ["cnt 1"] * 4 + rotation[1:4])

    def test_monitor_of_an_engine_that_never_runs(self):
        """``m`` only monitors an input: its text is queued at end_step
        and must come out with the next engines that run."""
        rt = instant_runtime(enable_jit=False, inline_user_logic=False)
        rt.eval_source("""
module Mon(input wire [7:0] v);
  initial $monitor("mon %0d", v);
endmodule
reg [7:0] cnt = 0;
always @(posedge clk.val) begin
  cnt <= cnt + 1;
  $display("cnt %0d", cnt);
end
Mon m(.v(cnt));
""")
        rt.run(iterations=12)
        self.check(rt, 2491440.0,
                   {"interpreted": 20, "sw-fast": 0, "hardware": 12}, 38,
                   [line for n in range(6)
                    for line in (f"cnt {n}", f"mon {n + 1}")])


# A counter that prints twice, close together, well after open loop
# has grown its batches to the ceiling.
COUNTER = """
reg [31:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n == 30000 || n == 30050)
    $display("n=%0d", n);
end
assign led.val = n[7:0];
"""


class TestOpenLoopBatches:
    """Open-loop batch sizes follow virtual state alone (§4.4): the host
    may be slow or fast, virtual time and output stay the same."""

    def run_counter(self, open_loop):
        calls = []

        def record(engine, steps):
            done = open_loop(engine, steps)
            calls.append((steps, done))
            return done

        rt = instant_runtime()
        rt.eval_source(COUNTER)
        with mock.patch.object(HardwareEngine, "open_loop", record):
            rt.run(iterations=200_000)
        assert rt._open_loop_active
        return rt, calls

    def test_virtual_time_ignores_host_speed(self):
        real = HardwareEngine.open_loop

        def slow(engine, steps):
            time.sleep(0.05)
            return real(engine, steps)

        fast, _ = self.run_counter(real)
        slowed, _ = self.run_counter(slow)
        for rt in (fast, slowed):
            assert rt.output_lines == ["n=30000", "n=30050"]
        assert slowed.time_model.now_ns == fast.time_model.now_ns
        assert slowed.iterations == fast.iterations
        assert slowed.board.leds.value == fast.board.leds.value

    def test_batches_double_then_fall_back_after_a_task(self):
        _, calls = self.run_counter(HardwareEngine.open_loop)
        steps = [s for s, _ in calls]
        growth = [_OLOOP_MIN]
        while growth[-1] < _OLOOP_MAX:
            growth.append(min(2 * growth[-1], _OLOOP_MAX))
        assert steps[:len(growth) + 1] == growth + [_OLOOP_MAX]
        # Each task stops its batch early and the next one runs what it
        # did (at least the minimum); every other batch doubles.
        short = [i for i, (s, done) in enumerate(calls) if done < s]
        assert len(short) == 2
        # The first task lands deep in a batch, the second early on.
        assert calls[short[0]][1] > _OLOOP_MIN > calls[short[1]][1]
        for i in short:
            assert steps[i + 1] == max(_OLOOP_MIN, calls[i][1])
        for i, (s, done) in enumerate(calls[:-1]):
            if i not in short:
                assert done == s
                assert steps[i + 1] == min(2 * s, _OLOOP_MAX)
