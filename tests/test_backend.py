"""The compilation backend: netlists, placement, routing, timing,
resource estimation and the compile service."""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.backend.flow as flow_mod
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileJob, CompilerModel, \
    CompileService
from repro.backend.estimate import (estimate_resources,
                                    instrumentation_overhead)
from repro.backend.fabric import CYCLONE_V, Device, device_for
from repro.backend.flow import run_flow
from repro.backend.netlist import Netlist
from repro.backend.place import place
from repro.backend.route import route
from repro.backend.synth import synthesize
from repro.backend.synthcheck import check_design, check_native
from repro.backend.timing import analyze_timing
from repro.common.errors import PlacementError, SynthesisError
from repro.ir.build import Subprogram
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module


def design_of(text):
    return elaborate_leaf(parse_module(text))


COUNTER = """
module counter(input wire clk, input wire rst, output wire [7:0] out);
  reg [7:0] q = 0;
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
  assign out = q;
endmodule
"""


class TestSynthesize:
    def test_counter_netlist_simulates(self):
        nl = synthesize(design_of(COUNTER))
        state = {}
        for _ in range(5):
            state, _ = nl.step({"rst": 0}, state)
        values = nl.simulate_comb({"rst": 0}, state)
        q = sum(values[nl.outputs[f"out[{i}]"]] << i for i in range(8))
        assert q == 5

    def test_combinational_only(self):
        nl = synthesize(design_of("""
module gates(input wire a, input wire b, output wire o);
  assign o = (a & b) | (a ^ b);
endmodule"""))
        for a in (0, 1):
            for b in (0, 1):
                values = nl.simulate_comb({"a": a, "b": b})
                assert values[nl.outputs["o"]] == ((a & b) | (a ^ b))

    def test_mux_and_compare(self):
        nl = synthesize(design_of("""
module cmp(input wire [3:0] a, input wire [3:0] b,
           output wire [3:0] mx);
  assign mx = (a < b) ? a : b;
endmodule"""))
        import random
        rng = random.Random(3)
        for _ in range(30):
            a, b = rng.getrandbits(4), rng.getrandbits(4)
            ins = {f"a[{i}]": (a >> i) & 1 for i in range(4)}
            ins.update({f"b[{i}]": (b >> i) & 1 for i in range(4)})
            values = nl.simulate_comb(ins)
            mx = sum(values[nl.outputs[f"mx[{i}]"]] << i
                     for i in range(4))
            assert mx == min(a, b)

    def test_signed_compare_gate_level(self):
        nl = synthesize(design_of("""
module sc(input wire signed [3:0] a, input wire signed [3:0] b,
          output wire lt);
  assign lt = a < b;
endmodule"""))
        import random
        rng = random.Random(5)
        for _ in range(40):
            a, b = rng.getrandbits(4), rng.getrandbits(4)
            sa = a - 16 if a & 8 else a
            sb = b - 16 if b & 8 else b
            ins = {f"a[{i}]": (a >> i) & 1 for i in range(4)}
            ins.update({f"b[{i}]": (b >> i) & 1 for i in range(4)})
            values = nl.simulate_comb(ins)
            assert values[nl.outputs["lt"]] == int(sa < sb)

    def test_memories_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize(design_of("""
module m(input wire clk);
  reg [7:0] mem [0:3];
endmodule"""))

    def test_multiple_clocks_rejected(self):
        with pytest.raises(SynthesisError):
            synthesize(design_of("""
module m(input wire c1, input wire c2, output reg q);
  always @(posedge c1) q <= 1;
  always @(posedge c2) q <= 0;
endmodule"""))

    def test_loop_unrolling(self):
        nl = synthesize(design_of("""
module u(input wire [7:0] x, output reg [3:0] ones);
  integer i;
  always @(*) begin
    ones = 0;
    for (i = 0; i < 8; i = i + 1)
      ones = ones + x[i];
  end
endmodule"""))
        ins = {f"x[{i}]": 1 for i in range(8)}
        values = nl.simulate_comb(ins)
        assert sum(values[nl.outputs[f"ones[{i}]"]] << i
                   for i in range(4)) == 8


class TestPlaceRouteTiming:
    @pytest.fixture(scope="class")
    def flow_report(self):
        return run_flow(design_of(COUNTER), seed=3)

    def test_flow_succeeds(self, flow_report):
        assert flow_report.success, flow_report.summary()

    def test_all_cells_placed_uniquely(self, flow_report):
        locations = flow_report.placement.locations
        placed = [loc for name, loc in locations.items()
                  if flow_report.netlist.cells[name].kind in
                  ("LUT", "FF")]
        assert len(placed) == len(set(placed))

    def test_annealing_improves_cost(self):
        nl = synthesize(design_of(COUNTER))
        device = device_for(64)
        quick = place(nl, device, seed=1, effort=0.01)
        slow = place(nl, device, seed=1, effort=1.0)
        assert slow.cost <= quick.cost

    def test_placement_overflow_raises(self):
        nl = synthesize(design_of(COUNTER))
        with pytest.raises(PlacementError):
            place(nl, Device("tiny", 2, 2))

    def test_timing_report_fields(self, flow_report):
        t = flow_report.timing
        assert t.critical_path_ns > 0
        assert t.fmax_mhz == pytest.approx(
            1000.0 / t.critical_path_ns)
        assert t.levels >= 1

    def test_cyclone_v_capacity(self):
        assert CYCLONE_V.logic_elements > 100_000
        assert CYCLONE_V.clock_mhz == 50.0


class TestEstimator:
    def test_estimate_within_factor_of_real_flow(self):
        design = design_of(COUNTER)
        est = estimate_resources(design)
        real = synthesize(design).stats()
        assert real["luts"] / 6 <= est["luts"] <= real["luts"] * 6
        assert est["ffs"] == real["ffs"]

    def test_instrumentation_grows_with_state(self):
        small = design_of("""
module s(input wire clk, output reg [3:0] q);
  always @(posedge clk) q <= q + 1;
endmodule""")
        big = design_of("""
module b(input wire clk, output reg [63:0] q);
  always @(posedge clk) q <= q + 1;
endmodule""")
        assert instrumentation_overhead(big)["luts"] > \
            instrumentation_overhead(small)["luts"]

    def test_memories_counted_as_bits(self):
        d = design_of("""
module m(input wire clk);
  reg [31:0] mem [0:255];
endmodule""")
        assert estimate_resources(d)["mem_bits"] == 32 * 256


class TestSynthCheck:
    def test_display_ok_for_hw_not_native(self):
        d = design_of("""
module m(input wire clk);
  always @(posedge clk) $display("x");
endmodule""")
        assert check_design(d) == []
        assert check_native(d) != []

    def test_delay_unsynthesizable(self):
        d = design_of("""
module m(input wire clk);
  reg r;
  always @(posedge clk) #1 r <= 1;
endmodule""")
        assert any("delay" in v for v in check_design(d))

    def test_initial_unsynthesizable(self):
        d = design_of("""
module m(input wire clk);
  reg r;
  initial r = 0;
endmodule""")
        assert check_design(d)


class TestCompileService:
    def test_latency_grows_with_size(self):
        model = CompilerModel()
        assert model.duration_s(100) < model.duration_s(10_000)

    def test_virtual_time_completion(self):
        from repro.ir.build import Subprogram
        module = parse_module(COUNTER)
        sub = Subprogram("t", module, False, "counter", {})
        service = CompileService()
        job = service.submit(sub, now_s=0.0)
        assert job.state(job.duration_s - 1.0) == CompileJob.PENDING
        assert job.state(job.duration_s + 1.0) == CompileJob.DONE
        assert job.compiled is not None

    def test_cancel_all(self):
        from repro.ir.build import Subprogram
        module = parse_module(COUNTER)
        sub = Subprogram("t", module, False, "counter", {})
        service = CompileService()
        service.submit(sub, now_s=0.0)
        service.cancel_all()
        assert service.jobs == []
        assert service.metrics.value("compile.cancelled") == 1

    def test_full_flow_mode_reports_exact_area(self):
        from repro.ir.build import Subprogram
        module = parse_module(COUNTER)
        sub = Subprogram("t", module, False, "counter", {})
        service = CompileService(full_flow_max_luts=10_000)
        job = service.submit(sub, now_s=0.0)
        real = synthesize(job.design).count("LUT")
        overhead = instrumentation_overhead(job.design)["luts"]
        assert job.resources["luts"] == real + overhead
        assert "fmax_mhz" in job.resources


class _BrokenFirstLane(CompileQueue):
    """A process lane whose first submission comes back broken, as
    when a flow worker is killed mid-candidate."""

    def __init__(self):
        super().__init__(max_workers=1, kind="process")
        self.broke = False

    def submit(self, fn, *args, **kwargs):
        if self.broke:
            return super().submit(fn, *args, **kwargs)
        self.broke = True
        future = Future()
        future.set_exception(BrokenProcessPool("worker killed"))
        return future


class TestFlowLaneRecovery:
    def test_broken_pool_degrades_and_retries_the_candidate(self):
        design = design_of(COUNTER)
        lane = _BrokenFirstLane()
        try:
            report = run_flow(design, pool=lane)
        finally:
            lane.shutdown(wait=False)
        inline = run_flow(design, pool=None)
        assert report.summary() == inline.summary()
        assert report.placement.locations == inline.placement.locations
        assert report.placement.cost == inline.placement.cost
        assert lane.degraded and lane.kind == "thread"

    def test_candidate_bug_fails_the_compile_once(self, monkeypatch):
        calls = []

        def buggy(*args):
            calls.append(args[2])
            raise ValueError("placer bug")

        monkeypatch.setattr(flow_mod, "_pr_candidate", buggy)
        service = CompileService(
            latency_scale=0.0, full_flow_max_luts=10_000,
            queue=CompileQueue(max_workers=0),
            flow_queue=CompileQueue(max_workers=0), place_starts=2)
        job = service.submit(
            Subprogram("t", parse_module(COUNTER), False, "counter", {}),
            now_s=0.0)
        assert job.error == "placer bug"
        assert calls == [1, 2]  # each candidate seed ran once
        assert not service.flow_queue.degraded
