"""The process-parallel flow lane: payload forms, kernel equivalence,
multi-start determinism, and the success-gated placement store.

The contract under test (DESIGN.md §4.5): for a fixed ``(netlist,
device, seed)`` the flow result is bit-identical no matter which lane
runs it — inline, thread pool, or process pool, at any worker count or
multi-start width — and everything shipped across a process boundary
survives the round trip unchanged.
"""

import os
import pickle

import pytest

from repro.backend.cache import PlacementCache
from repro.backend.compilequeue import (CompileQueue,
                                        _default_flow_workers,
                                        default_place_starts)
from repro.backend.compiler import CompileService
from repro.backend.fabric import Device, device_for
from repro.backend.flow import run_flow
from repro.backend.netlist import Netlist
from repro.backend.place import _place_reference, place
from repro.backend.synth import synthesize
from repro.common.bits import Bits
from repro.ir.build import Subprogram
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module

COUNTER = """
module counter(input wire clk, input wire rst, output wire [7:0] out);
  reg [7:0] q = 0;
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
  assign out = q;
endmodule
"""

# Small enough to meet 50 MHz timing closure through the real flow.
ALU8 = """
module alu8(input wire clk, input wire [7:0] a, input wire [7:0] b,
            input wire op, output wire [7:0] out);
  reg [7:0] r = 0;
  always @(posedge clk)
    if (op) r <= a & b;
    else r <= a ^ b;
  assign out = r;
endmodule
"""

# Too slow for 50 MHz on its auto-sized device: routes, fails timing.
ALU16 = """
module alu(input wire clk, input wire [15:0] a, input wire [15:0] b,
           input wire [1:0] op, output wire [15:0] out);
  reg [15:0] r = 0;
  always @(posedge clk)
    case (op)
      2'd0: r <= a + b;
      2'd1: r <= a - b;
      2'd2: r <= a & b;
      default: r <= a ^ b;
    endcase
  assign out = r;
endmodule
"""


def design_of(text):
    return elaborate_leaf(parse_module(text))


def placement_key(placement):
    """Everything that identifies a placement result."""
    return (placement.seed, placement.cost, placement.warm_started,
            sorted(placement.locations.items()))


# ----------------------------------------------------------------------
# Payload / pickle round trips
# ----------------------------------------------------------------------
class TestPayloads:
    def test_netlist_payload_round_trip(self):
        netlist = synthesize(design_of(ALU8))
        back = Netlist.from_payload(netlist.to_payload())
        # Cell *order* matters: the placer's RNG draws depend on it.
        assert list(back.cells) == list(netlist.cells)
        for name, cell in netlist.cells.items():
            twin = back.cells[name]
            assert (twin.kind, list(twin.fanin), twin.truth, twin.value) \
                == (cell.kind, list(cell.fanin), cell.truth, cell.value)
        assert back.inputs == netlist.inputs
        assert back.outputs == netlist.outputs
        assert back.name == netlist.name

    def test_netlist_payload_survives_pickle(self):
        netlist = synthesize(design_of(COUNTER))
        payload = pickle.loads(pickle.dumps(netlist.to_payload()))
        back = Netlist.from_payload(payload)
        assert list(back.cells) == list(netlist.cells)

    def test_device_payload_round_trip(self):
        device = device_for(64)
        back = Device.from_payload(device.to_payload())
        assert (back.name, back.width, back.height, back.clock_mhz,
                back.channel_capacity, back.io_pads) == \
            (device.name, device.width, device.height, device.clock_mhz,
             device.channel_capacity, device.io_pads)
        assert Device.from_payload(
            pickle.loads(pickle.dumps(device.to_payload()))).name \
            == device.name

    def test_placement_pickle_round_trip(self):
        netlist = synthesize(design_of(ALU8))
        device = device_for(64)
        placement = place(netlist, device, seed=3)
        back = pickle.loads(pickle.dumps(placement))
        assert placement_key(back) == placement_key(placement)

    def test_flow_report_pickle_round_trip(self):
        report = run_flow(design_of(ALU8))
        back = pickle.loads(pickle.dumps(report))
        assert back.summary() == report.summary()
        assert placement_key(back.placement) == \
            placement_key(report.placement)
        assert back.routing.routed == report.routing.routed
        assert back.timing.fmax_mhz == report.timing.fmax_mhz

    def test_bits_pickle_round_trip(self):
        for b in (Bits.from_int(200, 8), Bits.xes(4), Bits.zs(3),
                  Bits(16, 0xbeef, 0x00ff, signed=True)):
            back = pickle.loads(pickle.dumps(b))
            assert (back.width, back.aval, back.bval, back.signed) == \
                (b.width, b.aval, b.bval, b.signed)


# ----------------------------------------------------------------------
# Fast kernel vs reference implementation
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("source", [COUNTER, ALU8])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fast_matches_reference(self, source, seed):
        netlist = synthesize(design_of(source))
        device = device_for(
            max(netlist.count("LUT") + netlist.count("FF"), 16))
        fast = place(netlist, device, seed=seed)
        ref = _place_reference(netlist, device, seed=seed)
        assert fast.locations == ref.locations
        assert fast.cost == ref.cost

    def test_fast_matches_reference_warm_start(self):
        netlist = synthesize(design_of(ALU8))
        device = device_for(64)
        hint = place(netlist, device, seed=1).locations
        fast = place(netlist, device, seed=2, effort=0.35, initial=hint)
        ref = _place_reference(netlist, device, seed=2, effort=0.35,
                               initial=hint)
        assert fast.warm_started and ref.warm_started
        assert fast.locations == ref.locations
        assert fast.cost == ref.cost


# ----------------------------------------------------------------------
# Determinism across lanes, worker counts, and multi-start widths
# ----------------------------------------------------------------------
class TestFlowDeterminism:
    @pytest.mark.parametrize("starts", [1, 2])
    def test_identical_across_all_execution_modes(self, starts):
        design = design_of(ALU8)
        baseline = run_flow(design, starts=starts, pool=None)
        lanes = [
            CompileQueue(max_workers=0),
            CompileQueue(max_workers=1, kind="thread"),
            CompileQueue(max_workers=2, kind="thread"),
            CompileQueue(max_workers=1, kind="process"),
            CompileQueue(max_workers=2, kind="process"),
        ]
        try:
            for lane in lanes:
                report = run_flow(design, starts=starts, pool=lane)
                assert placement_key(report.placement) == \
                    placement_key(baseline.placement), \
                    f"{lane.kind} x{lane.max_workers} diverged"
                assert report.summary() == baseline.summary()
                assert report.starts == starts
        finally:
            for lane in lanes:
                lane.shutdown(wait=False)

    def test_multi_start_winner_is_total_order(self):
        design = design_of(ALU8)
        netlist = synthesize(design)
        cells = netlist.count("LUT") + netlist.count("FF")
        device = device_for(max(cells, 16))
        report = run_flow(design, device=device, seed=1, starts=3)
        candidates = [place(netlist, device, seed=1 + k)
                      for k in range(3)]
        best = min(candidates, key=lambda p: (p.cost, p.seed))
        assert report.placement.seed == best.seed
        assert report.placement.cost == best.cost
        assert report.placement.locations == best.locations

    def test_warm_start_ignores_multi_start_width(self):
        """A warm-started compile quenches from the hint: one start,
        regardless of the configured fan-out."""
        design = design_of(ALU8)
        cache = PlacementCache()
        cold = run_flow(design, placement_cache=cache, starts=2)
        assert cold.starts == 2
        warm = run_flow(design, placement_cache=cache, starts=4)
        assert warm.placement.warm_started
        assert warm.starts == 1


# ----------------------------------------------------------------------
# Success-gated placement store (regression)
# ----------------------------------------------------------------------
class TestPlacementStoreGating:
    def test_failed_flow_does_not_store_placement(self):
        """A placement that missed timing must not seed later warm
        starts (it used to: run_flow stored unconditionally)."""
        cache = PlacementCache()
        design = design_of(ALU16)
        report = run_flow(design, placement_cache=cache)
        assert report.routing.routed
        assert not report.timing.meets_timing
        assert not report.success
        assert cache.metrics.value("placement.entries") == 0
        again = run_flow(design, placement_cache=cache)
        assert not again.placement.warm_started

    def test_routing_overflow_does_not_store_placement(self):
        cache = PlacementCache()
        design = design_of(ALU8)
        netlist = synthesize(design)
        cells = netlist.count("LUT") + netlist.count("FF")
        starved = device_for(max(cells, 16))
        starved = Device(name="starved", width=starved.width,
                         height=starved.height,
                         channel_capacity=1)
        report = run_flow(design, device=starved, placement_cache=cache)
        if report.routing.routed:
            pytest.skip("design routed even at channel capacity 1")
        assert cache.metrics.value("placement.entries") == 0

    def test_successful_flow_stores_placement(self):
        cache = PlacementCache()
        design = design_of(ALU8)
        report = run_flow(design, placement_cache=cache)
        assert report.success
        assert cache.metrics.value("placement.entries") == 1
        warm = run_flow(design, placement_cache=cache)
        assert warm.placement.warm_started


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
class TestEnvKnobs:
    def test_compile_workers_override(self, monkeypatch):
        monkeypatch.setenv("CASCADE_COMPILE_WORKERS", "3")
        assert _default_flow_workers() == 3
        queue = CompileQueue(kind="process")
        assert queue.max_workers == 3

    def test_compile_workers_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CASCADE_COMPILE_WORKERS", raising=False)
        assert _default_flow_workers() == max(1, os.cpu_count() or 1)

    def test_compile_workers_bad_value_falls_back(self, monkeypatch):
        monkeypatch.setenv("CASCADE_COMPILE_WORKERS", "lots")
        assert _default_flow_workers() == max(1, os.cpu_count() or 1)

    def test_place_starts_override(self, monkeypatch):
        monkeypatch.setenv("CASCADE_PLACE_STARTS", "2")
        assert default_place_starts() == 2
        monkeypatch.setenv("CASCADE_PLACE_STARTS", "0")
        assert default_place_starts() == 1  # clamped

    def test_place_starts_default_capped(self, monkeypatch):
        monkeypatch.delenv("CASCADE_PLACE_STARTS", raising=False)
        assert 1 <= default_place_starts() <= 4


# ----------------------------------------------------------------------
# End to end through the compile service
# ----------------------------------------------------------------------
class TestServiceFlowLane:
    def _service(self, flow_queue):
        return CompileService(full_flow_max_luts=10_000,
                              queue=CompileQueue(max_workers=0),
                              flow_queue=flow_queue, place_starts=2)

    def test_process_lane_matches_inline(self):
        sub = Subprogram("t", parse_module(ALU8), False, "alu8", {})
        inline = self._service(CompileQueue(max_workers=0))
        process = self._service(
            CompileQueue(max_workers=2, kind="process"))
        try:
            job_a = inline.submit(sub, now_s=0.0)
            job_b = process.submit(sub, now_s=0.0)
            assert job_a.resources == job_b.resources
            assert job_a.error is None and job_b.error is None
            hints_a = list(inline.placements._entries.values())
            hints_b = list(process.placements._entries.values())
            assert hints_a == hints_b and len(hints_a) == 1
            assert process.place_starts == 2
            # One job per start.
            assert process.flow_queue.stats()["submitted"] >= 2
        finally:
            process.flow_queue.shutdown(wait=False)

    def test_degraded_lane_still_correct(self):
        """A process lane that falls back to threads (sandboxes without
        fork/semaphores) must produce the same answer."""
        lane = CompileQueue(max_workers=1, kind="process")
        lane.kind = "thread"  # simulate the post-degrade state
        lane.degraded = True
        try:
            design = design_of(ALU8)
            report = run_flow(design, starts=2, pool=lane)
            baseline = run_flow(design, starts=2, pool=None)
            assert placement_key(report.placement) == \
                placement_key(baseline.placement)
            assert lane.stats()["degraded"]
        finally:
            lane.shutdown(wait=False)
