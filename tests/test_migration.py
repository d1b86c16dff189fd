"""Hard JIT scenarios: per-module migration, mid-stream handover."""

import pytest

from repro.backend.compiler import CompileService, CompilerModel
from repro.core.runtime import Runtime


class TestModuleGranularityJit:
    def test_each_subprogram_migrates_separately(self):
        """Without inlining (Figure 9.1), every instance is its own
        subprogram and each gets its own hardware engine."""
        rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                     inline_user_logic=False)
        rt.eval_source("""
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
""")
        rt.run(iterations=200)
        locations = rt.engine_locations()
        assert locations["main"] == "hardware"
        assert locations["r"] == "hardware"
        # And the program still behaves: LEDs rotate.
        values = [v for _, v in rt.board.led_trace()]
        assert values[:4] == [1, 2, 4, 8]

    def test_cross_engine_communication_in_hardware(self):
        """After migration the two hardware engines still exchange
        r_x/r_y over the data plane with correct values."""
        rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                     inline_user_logic=False)
        rt.eval_source("""
module Double(input wire [7:0] a, output wire [7:0] b);
  assign b = a * 2;
endmodule
reg [7:0] n = 1;
Double d(.a(n));
always @(posedge clk.val)
  if (n < 8'd100)
    n <= d.b;
assign led.val = n;
""")
        rt.run(iterations=300)
        assert rt.board.leds.value == 128  # 1,2,4,...,128 then stops


class TestMidStreamMigration:
    def test_fifo_stream_survives_migration(self, fixed_compile_latency):
        """Bytes streamed while the matcher is in software are counted;
        migration to hardware mid-stream loses none (state transfer
        plus a board-resident FIFO)."""
        from repro.apps.regex import (reference_match_count,
                                      regex_program)
        pattern = "ab"
        data = b"abxxabxxab" * 6
        want = reference_match_count(pattern, data)
        # Compile finishes after ~30 virtual ms: the stream starts in
        # software and finishes in hardware.
        fixed_compile_latency(0.03)
        service = CompileService()
        rt = Runtime(compile_service=service)
        text, _ = regex_program(pattern)
        rt.eval_source(text)
        rt.run(iterations=2)
        fifo = rt.board.fifo("input_fifo")
        fifo.attach_source(data, bytes_per_sec=1e12)
        saw_software = rt.user_engine_location() == "software"
        for _ in range(2000):
            rt.run(iterations=500)
            if fifo.source_exhausted and fifo.empty:
                break
        rt.run(iterations=2000)
        assert saw_software
        assert rt.user_engine_location() == "hardware"
        assert rt.board.leds.value == (want & 0xFF)

    def test_counter_value_continuous_across_migration(
            self, fixed_compile_latency):
        """The counter never restarts: the led trace is strictly the
        +1 sequence across the software->hardware boundary."""
        # Migrate after a few sw cycles.
        fixed_compile_latency(0.002)
        service = CompileService()
        # Open loop samples the LED only at batch boundaries; disable
        # it so the trace captures every cycle across the handover.
        rt = Runtime(compile_service=service, enable_open_loop=False)
        rt.eval_source("""
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n;
""")
        rt.run(iterations=4000)
        assert rt.user_engine_location() == "hardware"
        values = [v for _, v in rt.board.led_trace()]
        for prev, cur in zip(values, values[1:]):
            assert cur == (prev + 1) & 0xFF


class TestHandoverTiming:
    """A migration is invisible: the handover settles the new engine
    without replaying the clock edge the previous tier already applied,
    so the run finishes on the same tick as an interpreter-only run."""

    SRC = """
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  $display("n=%0d", n);
  if (n == 40) $finish;
end
assign led.val = n;
"""

    def _run(self, rt):
        rt.eval_source(self.SRC)
        rt.run_until_finish()
        return rt

    @pytest.mark.parametrize("sw_fast", [False, True])
    @pytest.mark.parametrize("open_loop", [False, True])
    def test_migrating_run_matches_interpreter(self, sw_fast, open_loop,
                                               fixed_compile_latency):
        ref = self._run(Runtime(enable_jit=False))
        # Lands on a clock-high window.
        fixed_compile_latency(0.003)
        service = CompileService()
        rt = self._run(Runtime(compile_service=service,
                               enable_sw_fastpath=sw_fast,
                               enable_open_loop=open_loop))
        assert rt.engine_tiers()["main"] == "hardware"
        assert rt.output_lines == ref.output_lines
        assert rt.virtual_clock_ticks == ref.virtual_clock_ticks
        assert rt.finished == ref.finished


class TestRepeatedEvalCycles:
    def test_many_evals_keep_state_monotonic(self):
        """Every eval restarts the JIT; registers survive each rebuild
        (append-only REPL, §7.2)."""
        rt = Runtime(compile_service=CompileService(latency_scale=0.0))
        rt.eval_source("""
reg [15:0] total = 0;
always @(posedge clk.val) total <= total + 1;
assign led.val = total[7:0];
""")
        last = -1
        for k in range(5):
            rt.run(iterations=600)
            current = rt.board.leds.value
            assert rt.user_engine_location() == "hardware"
            rt.eval_source(f"wire probe{k}; assign probe{k} = total[0];")
        rt.run(iterations=100)
        assert rt.metrics.value("runtime.hw_migrations") >= 5

    def test_generation_guard_drops_stale_compiles(self, monkeypatch):
        """A compile finishing after the program changed must not be
        installed (stale generation)."""
        # Never completes in this test.
        monkeypatch.setattr(CompilerModel, "base_s", 1000.0)
        service = CompileService()
        rt = Runtime(compile_service=service)
        rt.eval_source("reg [3:0] a = 0; "
                       "always @(posedge clk.val) a <= a + 1;")
        rt.run(iterations=10)
        first_jobs = list(rt.compiler.jobs)
        rt.eval_source("wire w0; assign w0 = a[0];")
        rt.run(iterations=10)
        # The first job was cancelled by the rebuild.
        assert all(j not in rt.compiler.jobs or j.delivered
                   for j in first_jobs)
        assert rt.user_engine_location() == "software"


class TestParameterizedSelects:
    def test_parameterized_select_reaches_hardware(self):
        """Part-select bounds and replication counts are folded at
        elaboration, so a parameterized select compiles in codegen and
        migrates like a literal ``n[7:0]``."""
        rt = Runtime(compile_service=CompileService(latency_scale=0.0))
        rt.eval_source("""
localparam W = 8;
reg [15:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n[W-1:0] ^ {W/4{n[1:0]}};
""")
        rt.run(iterations=2000)
        assert rt.metrics.value("runtime.fastpath_failures") == 0
        assert rt.user_engine_location() == "hardware"
        n = rt.engines["main"].get_state()["n"].to_uint()
        assert rt.board.leds.value == ((n & 0xFF) ^ ((n & 3) * 5)) & 0xFF
