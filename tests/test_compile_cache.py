"""The asynchronous compile service, the content-addressed bitstream
cache, and warm-start placement."""

import threading
import time

import pytest

import repro.backend.compiler as compiler_mod
from repro.backend.cache import (BitstreamCache, PlacementCache,
                                 design_cache_key)
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileJob, CompileService
from repro.backend.flow import run_flow
from repro.core.runtime import Runtime
from repro.ir.build import Subprogram
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module
from tests.test_pycompile import count_schedules

COUNTER = """
module counter(input wire clk, input wire rst, output wire [7:0] out);
  reg [7:0] q = 0;
  always @(posedge clk)
    if (rst) q <= 0;
    else q <= q + 1;
  assign out = q;
endmodule
"""

ALU = """
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


def sub_of(text, name="t"):
    module = parse_module(text)
    return Subprogram(name, module, False, module.name, {})


class TestAsyncSubmission:
    def test_submit_does_not_run_compilation_on_caller_thread(self):
        """submit() must be O(front-end) host time: the slow work
        (codegen + the real flow) happens on the worker pool."""
        service = CompileService(full_flow_max_luts=10_000,
                                 queue=CompileQueue(max_workers=1))
        sub = sub_of(ALU)
        t0 = time.perf_counter()
        job = service.submit(sub, now_s=0.0)
        submit_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        _ = job.resources  # waits for the worker
        total_s = submit_s + (time.perf_counter() - t1)
        # The front-end is a small fraction of the whole compile.
        assert submit_s < total_s / 3
        host = service.metrics.value
        assert host("compile.host.codegen_s") + \
            host("compile.host.flow_s") > host("compile.host.submit_s")

    def test_results_deterministic_under_concurrent_submission(self):
        """A burst of concurrent compiles produces bit-identical
        artifacts to compiling serially on the caller's thread."""
        designs = [COUNTER, ALU8,
                   COUNTER.replace("counter", "counter2"),
                   ALU8.replace("alu8", "alu9")]
        concurrent = CompileService(full_flow_max_luts=10_000,
                                    queue=CompileQueue(max_workers=4))
        serial = CompileService(full_flow_max_luts=10_000,
                                queue=CompileQueue(max_workers=0))
        jobs_c = [concurrent.submit(sub_of(d, f"s{i}"), 0.0)
                  for i, d in enumerate(designs)]
        jobs_s = [serial.submit(sub_of(d, f"s{i}"), 0.0)
                  for i, d in enumerate(designs)]
        for jc, js in zip(jobs_c, jobs_s):
            assert jc.compiled is not None and js.compiled is not None
            assert jc.compiled.source == js.compiled.source
            assert jc.resources == js.resources
            assert jc.duration_s == js.duration_s
            assert jc.error is None and js.error is None

    def test_cancel_while_in_flight(self):
        """cancel_all() cancels queued futures and poisons the job."""
        gate = threading.Event()
        queue = CompileQueue(max_workers=1)
        queue.submit(gate.wait)  # occupy the single worker
        service = CompileService(queue=queue)
        job = service.submit(sub_of(COUNTER), now_s=0.0)
        assert not job.delivered
        service.cancel_all()
        gate.set()
        assert service.jobs == []
        assert service.metrics.value("compile.cancelled") == 1
        assert job.compiled is None
        assert "cancelled" in job.error

    def test_virtual_timeline_identical_across_runs(
            self, fixed_compile_latency):
        """Host-side asynchrony must not leak into virtual time: two
        fresh runtimes replaying the same program agree exactly."""
        source = """
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n;
"""
        def run_once():
            service = CompileService()
            rt = Runtime(compile_service=service,
                         enable_open_loop=False)
            rt.eval_source(source)
            rt.run(iterations=3000)
            return (rt.time_model.now_ns,
                    rt.metrics.value("runtime.hw_migrations"),
                    rt.board.leds.value)

        fixed_compile_latency(0.002)
        assert run_once() == run_once()


class TestSharedService:
    def test_rebuild_cancels_only_its_own_jobs(self,
                                               fixed_compile_latency):
        """Two runtimes on one service: an eval in one must not cancel
        the other's compile, which would strand it on sw-fast."""
        fixed_compile_latency(0.002)
        service = CompileService()
        source = ("reg [7:0] n = 0;\n"
                  "always @(posedge clk.val) n <= n + {step};\n"
                  "assign led.val = n;\n")
        a = Runtime(compile_service=service, enable_open_loop=False)
        a.eval_source(source.format(step=1))
        a.run(iterations=2)
        b = Runtime(compile_service=service, enable_open_loop=False)
        b.eval_source(source.format(step=2))
        b.run(iterations=2)
        a.run(iterations=3000)
        b.run(iterations=3000)
        assert a.engine_tiers()["main"] == "hardware"
        assert b.engine_tiers()["main"] == "hardware"
        assert service.metrics.value("compile.cancelled") == 0


class TestBitstreamCache:
    def test_second_compile_is_a_hit(self):
        service = CompileService()
        job1 = service.submit(sub_of(COUNTER), now_s=0.0)
        assert job1.compiled is not None
        job2 = service.submit(sub_of(COUNTER), now_s=100.0)
        assert service.metrics.value("compile.cache_hits") == 1
        assert service.metrics.value("compile.cache_misses") == 1
        assert job2.cache_hit
        assert job2.compiled is job1.compiled
        # Cache hits cost only the constant reprogramming latency.
        assert job2.duration_s == service.cache_hit_latency_s
        assert job2.duration_s < job1.duration_s

    def test_instrumented_and_native_are_distinct_entries(self):
        service = CompileService()
        j_inst = service.submit(sub_of(COUNTER), 0.0, instrumented=True)
        j_nat = service.submit(sub_of(COUNTER), 0.0, instrumented=False)
        assert service.metrics.value("compile.cache_misses") == 2
        assert service.metrics.value("compile.cache_hits") == 0
        assert j_inst.resources["luts"] > j_nat.resources["luts"]
        # Each mode hits its own entry on resubmission.
        service.submit(sub_of(COUNTER), 0.0, instrumented=True)
        service.submit(sub_of(COUNTER), 0.0, instrumented=False)
        assert service.metrics.value("compile.cache_hits") == 2

    def test_hit_skips_host_work(self):
        service = CompileService(full_flow_max_luts=10_000,
                                 queue=CompileQueue(max_workers=1))
        job1 = service.submit(sub_of(ALU8), now_s=0.0)
        assert job1.compiled is not None
        stages = service.queue.submitted
        t0 = time.perf_counter()
        job2 = service.submit(sub_of(ALU8), now_s=0.0)
        assert job2.compiled is not None
        warm_s = time.perf_counter() - t0
        host = service.metrics.value
        # The second submit did no codegen/flow at all.
        assert service.queue.submitted == stages
        assert warm_s < host("compile.host.codegen_s") + \
            host("compile.host.flow_s") + 0.05
        assert job2.resources == job1.resources

    def test_cached_model_still_works(self):
        """A rehydrated/cached artifact instantiates a working model."""
        service = CompileService()
        service.submit(sub_of(COUNTER), 0.0).compiled  # populate
        job = service.submit(sub_of(COUNTER), 0.0)
        model = job.compiled.instantiate()
        model.v_clk = 0
        model.evaluate()
        for _ in range(6):
            model.v_clk ^= 1
            model.evaluate()
            while model._nba:
                model.update()
                model.evaluate()
        assert model.v_q == 3

    def test_disk_layer_survives_service_restart(self, tmp_path):
        cold = CompileService(
            cache=BitstreamCache(disk_dir=str(tmp_path)))
        job1 = cold.submit(sub_of(COUNTER), 0.0)
        assert job1.compiled is not None
        warm = CompileService(
            cache=BitstreamCache(disk_dir=str(tmp_path)))
        job2 = warm.submit(sub_of(COUNTER), 0.0)
        assert warm.metrics.value("compile.cache_hits") == 1
        assert warm.cache.metrics.value("cache.disk_hits") == 1
        assert job2.resources == job1.resources
        model = job2.compiled.instantiate()
        model.v_clk = 0
        model.evaluate()
        model.v_clk = 1
        model.evaluate()
        while model._nba:
            model.update()
            model.evaluate()
        assert model.v_q == 1

    def test_disk_hit_builds_its_schedule_on_the_first_kernel(
            self, tmp_path, monkeypatch):
        """Rehydrating runs no analysis; the first open-loop kernel
        request runs it once, and the kernel is the one a fresh compile
        prints and leaves the state a fresh compile's does."""
        cold = CompileService(cache=BitstreamCache(disk_dir=str(tmp_path)))
        fresh = cold.submit(sub_of(COUNTER), 0.0).compiled
        built = count_schedules(monkeypatch)
        warm = CompileService(cache=BitstreamCache(disk_dir=str(tmp_path)))
        cached = warm.submit(sub_of(COUNTER), 0.0).compiled
        assert warm.cache.metrics.value("cache.disk_hits") == 1
        assert built == [] and cached.schedule is None
        kernel = cached.open_loop_kernel("v_clk")
        cached.open_loop_kernel("v_clk")
        assert built == [cached.schedule]
        assert kernel.source == fresh.open_loop_kernel("v_clk").source
        a, b = cached.instantiate(), fresh.instantiate()
        a.v_rst = b.v_rst = 0
        assert kernel(a, 37) == fresh.open_loop_kernel("v_clk")(b, 37) == 37
        assert vars(a) == vars(b) and a.v_q == 19

    def test_disk_hit_runs_sw_fast_like_the_interpreter(self, tmp_path):
        """A model rehydrated from disk carries its wake sets, so the
        fast path it runs on wakes exactly as the interpreter does."""
        src = """
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n == 50) $finish;
end
assign led.val = n;
"""

        def run(rt):
            rt.eval_source(src)
            rt.run(iterations=400, until_finish=True)
            return (rt.board.leds.value, rt.finished,
                    rt.virtual_clock_ticks, rt.time_model.now_ns)

        ref = run(Runtime(enable_jit=False))
        assert ref[:3] == (51, 0, 50)
        for disk_hits in (0, 1):
            service = CompileService(
                queue=CompileQueue(max_workers=0), latency_scale=1e9,
                cache=BitstreamCache(disk_dir=str(tmp_path)))
            rt = Runtime(compile_service=service)
            assert run(rt) == ref
            assert rt.engine_tiers()["main"] == "sw-fast"
            assert service.cache.metrics.value("cache.disk_hits") \
                == disk_hits

    def test_lru_eviction(self):
        cache = BitstreamCache(capacity=2)
        service = CompileService(cache=cache)
        service.submit(sub_of(COUNTER), 0.0).compiled
        service.submit(sub_of(ALU), 0.0).compiled
        service.submit(
            sub_of(COUNTER.replace("counter", "c3")), 0.0).compiled
        assert len(cache) == 2
        assert cache.metrics.value("cache.evictions") == 1
        # The oldest entry (COUNTER) was evicted: resubmit misses.
        service.submit(sub_of(COUNTER), 0.0)
        assert service.metrics.value("compile.cache_hits") == 0

    def test_key_covers_configuration(self):
        base = design_cache_key("module m; endmodule", True, 0)
        assert base != design_cache_key("module m; endmodule", False, 0)
        assert base != design_cache_key("module m; endmodule", True, 500)
        assert base == design_cache_key("module m; endmodule", True, 0)

    def test_key_covers_codegen_version(self, monkeypatch):
        """Entries written by an older code generator miss."""
        import repro.backend.cache as cache_mod
        base = design_cache_key("module m; endmodule", True, 0)
        monkeypatch.setattr(cache_mod, "CODEGEN_VERSION",
                            cache_mod.CODEGEN_VERSION + 1)
        assert base != design_cache_key("module m; endmodule", True, 0)


class TestFailureDelivery:
    def test_failed_job_reports_its_error(self, monkeypatch):
        """A FAILED job carries the toolchain's error, so whoever
        delivers it can show the error to the user."""
        def boom(design, class_name="CompiledModel"):
            raise RuntimeError("toolchain exploded")

        monkeypatch.setattr(compiler_mod, "compile_design", boom)
        service = CompileService(latency_scale=0.0)
        job = service.submit(sub_of(COUNTER), now_s=0.0)
        assert job.state(0.0) == CompileJob.FAILED
        assert job.compiled is None
        assert "toolchain exploded" in job.error
        assert service.metrics.value("compile.failed") == 1

    def test_runtime_surfaces_compile_failure(self, monkeypatch):
        def boom(design, class_name="CompiledModel"):
            raise RuntimeError("toolchain exploded")

        monkeypatch.setattr(compiler_mod, "compile_design", boom)
        rt = Runtime(compile_service=CompileService(latency_scale=0.0))
        rt.eval_source("""
reg [3:0] a = 0;
always @(posedge clk.val) a <= a + 1;
assign led.val = a;
""")
        rt.run(iterations=50)
        assert rt.user_engine_location() == "software"
        assert any("toolchain exploded" in msg
                   for msg in rt.unsynthesizable.values())

    def test_failures_deliver_at_virtual_ready_time(self, monkeypatch):
        """Failure is discovered when the (virtual) compile finishes,
        not at submission — §6.4's late-failure observation."""
        def boom(design, class_name="CompiledModel"):
            raise RuntimeError("no fit")

        monkeypatch.setattr(compiler_mod, "compile_design", boom)
        service = CompileService()
        job = service.submit(sub_of(COUNTER), now_s=0.0)
        assert job.state(job.duration_s - 1.0) == CompileJob.PENDING
        assert job.state(job.duration_s + 1.0) == CompileJob.FAILED


class TestWarmStartPlacement:
    def test_flow_warm_starts_from_cached_placement(self):
        # ALU8, not ALU: only *successful* flows store placements now,
        # and the 16-bit ALU misses 50 MHz timing on its auto device.
        cache = PlacementCache()
        design = elaborate_leaf(parse_module(ALU8))
        cold = run_flow(design, placement_cache=cache)
        assert cold.success
        assert not cold.placement.warm_started
        warm = run_flow(design, placement_cache=cache)
        assert warm.placement.warm_started
        # Reduced effort: far fewer annealing moves...
        assert warm.placement.moves_tried < cold.placement.moves_tried
        # ...without giving up solution quality.
        assert warm.placement.cost <= cold.placement.cost * 1.25
        assert warm.routing.routed

    def test_service_counts_warm_starts(self):
        """A cached placement for the same netlist shape warm-starts
        the placer even when the bitstream cache misses (here: two
        services sharing a placement cache, e.g. across sessions)."""
        shared = PlacementCache()
        s1 = CompileService(full_flow_max_luts=10_000,
                            placements=shared)
        s2 = CompileService(full_flow_max_luts=10_000,
                            placements=shared)
        assert s1.submit(sub_of(ALU8), 0.0).compiled is not None
        assert s1.metrics.value("compile.warm_starts") == 0
        assert s2.submit(sub_of(ALU8), 0.0).compiled is not None
        assert s2.metrics.value("compile.warm_starts") == 1
        assert shared.metrics.value("placement.hits") == 1


class _GatedQueue(CompileQueue):
    """A queue whose workers block on a gate, so tests can hold a
    compile in flight while other services submit the same key."""

    def __init__(self, max_workers=2):
        super().__init__(max_workers=max_workers, name="gated")
        self.gate = threading.Event()

    def submit(self, fn, *args, **kwargs):
        gate = self.gate

        def gated(*a, **k):
            gate.wait(30)
            return fn(*a, **k)

        return super().submit(gated, *args, **kwargs)


class TestSingleFlight:
    """Two tenants compiling the same key while it is in flight share
    one flow run (the cross-tenant half of SYNERGY-style dedup)."""

    def _pair(self):
        cache = BitstreamCache()
        placements = PlacementCache()
        queue = _GatedQueue()
        s1 = CompileService(cache=cache, placements=placements,
                            queue=queue)
        s2 = CompileService(cache=cache, placements=placements,
                            queue=queue)
        return cache, queue, s1, s2

    def test_second_submission_joins_the_leader(self):
        cache, queue, s1, s2 = self._pair()
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        assert not job1.single_flight
        assert job2.single_flight
        assert s2.metrics.value("compile.single_flight_joins") == 1
        # The follower submitted nothing: one worker, one flow run.
        assert queue.submitted == 1
        assert cache.metrics.value("cache.in_flight") == 1
        assert cache.metrics.value("cache.single_flight_joins") == 1
        queue.gate.set()
        assert job1.compiled is not None
        assert job2.compiled is job1.compiled
        assert job2.error is None
        # Full virtual price for both: host work is deduped, virtual
        # compile time is not (the join is invisible in the timeline).
        assert job2.duration_s == job1.duration_s
        assert cache.metrics.value("cache.in_flight") == 0

    def test_leader_with_joiners_is_not_cancelled(self):
        cache, queue, s1, s2 = self._pair()
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        s1.cancel_all()  # tenant 1's program changed under the compile
        # The leader's result is tenant 2's compile: it must survive.
        assert cache.metrics.value("cache.in_flight") == 1
        queue.gate.set()
        assert job1.error is None
        assert job2.compiled is not None
        assert job2.error is None
        # ...and the artifact still landed in the shared cache.
        job3 = s2.submit(sub_of(COUNTER), 100.0)
        assert job3.cache_hit

    def test_leader_cancellable_after_follower_leaves(self):
        cache, queue, s1, s2 = self._pair()
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        s2.submit(sub_of(COUNTER), 0.0)
        s2.cancel_all()  # the follower gives up its seat...
        s1.cancel_all()  # ...so the leader is cancellable again
        # Cancelling unregistered the key: nobody can join it now.
        assert cache.metrics.value("cache.in_flight") == 0
        queue.gate.set()
        assert job1.compiled is None
        assert "cancelled" in job1.error
        # A cancelled compile never populates the cache: the next
        # submission is a fresh miss with a fresh leader.
        s3 = CompileService(cache=cache, queue=CompileQueue(0))
        job4 = s3.submit(sub_of(COUNTER), 0.0)
        assert not job4.cache_hit and not job4.single_flight
        assert job4.compiled is not None

    def test_finished_compile_is_a_hit_not_a_join(self):
        cache, queue, s1, s2 = self._pair()
        queue.gate.set()  # nothing blocks
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        assert job1.compiled is not None
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        assert job2.cache_hit and not job2.single_flight
        assert s2.metrics.value("compile.cross_tenant_hits") == 1
        assert s2.metrics.value("compile.single_flight_joins") == 0


class _StagedQueue(CompileQueue):
    """A queue whose first two submissions each wait on their own gate,
    and flag when they have started running (so a cancel finds them
    running, not queued)."""

    def __init__(self):
        super().__init__(max_workers=2, name="staged")
        self.gates = [threading.Event(), threading.Event()]
        self.started = [threading.Event(), threading.Event()]
        self._calls = 0

    def submit(self, fn, *args, **kwargs):
        call, self._calls = self._calls, self._calls + 1
        if call < len(self.gates):
            inner, gate, started = fn, self.gates[call], \
                self.started[call]

            def fn(*a, **k):
                started.set()
                gate.wait(30)
                return inner(*a, **k)
        return super().submit(fn, *args, **kwargs)


class TestSharedFutures:
    """Every job of one compile reads the leader's futures, and only
    the leader's stages resolve them."""

    def test_crashed_stage_fails_leader_and_follower_alike(
            self, monkeypatch):
        cache, queue = BitstreamCache(), _GatedQueue()
        s1 = CompileService(cache=cache, queue=queue)
        s2 = CompileService(cache=cache, queue=queue)

        def crash(job, *args):
            raise RuntimeError("codegen stage crashed")

        monkeypatch.setattr(s1, "_codegen_stage", crash)
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        assert job2.single_flight
        queue.gate.set()
        assert job1.error == job2.error == "codegen stage crashed"
        assert job1.compiled is None and job2.compiled is None
        assert cache.metrics.value("cache.in_flight") == 0
        # A crash is not a deterministic toolchain result: not cached.
        assert len(cache) == 0

    def test_cancelled_leader_finishing_late_leaves_new_leader_alone(
            self):
        cache = BitstreamCache()
        queue = _StagedQueue()
        s1 = CompileService(cache=cache, queue=queue)
        s2 = CompileService(cache=cache, queue=queue)
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        assert queue.started[0].wait(30)
        s1.cancel_all()  # running, so it finishes; the key is released
        assert cache.metrics.value("cache.in_flight") == 0
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        assert not job2.cache_hit and not job2.single_flight
        assert cache.metrics.value("cache.in_flight") == 1
        queue.gates[0].set()  # the old worker finishes first
        assert job1.error == "compilation cancelled"
        assert cache.metrics.value("cache.in_flight") == 1
        assert len(cache) == 0
        queue.gates[1].set()
        assert job2.error is None
        assert job2.compiled is not None
        assert cache.metrics.value("cache.in_flight") == 0
        assert s2.submit(sub_of(COUNTER), 1.0).cache_hit


class TestVirtualTimeIsolation:
    """DESIGN.md §4.6: cross-tenant dedup saves host work only — with
    isolation on, a tenant's virtual timeline is bit-identical to
    running alone against a cold cache."""

    def test_cross_tenant_hit_charges_full_duration(self):
        cache = BitstreamCache()
        s1 = CompileService(cache=cache, isolate_virtual_time=True)
        job1 = s1.submit(sub_of(COUNTER), 0.0)
        assert job1.compiled is not None
        s2 = CompileService(cache=cache, isolate_virtual_time=True)
        job2 = s2.submit(sub_of(COUNTER), 0.0)
        assert job2.cache_hit
        assert s2.metrics.value("compile.cross_tenant_hits") == 1
        # Tenant 2 pays what it would have paid alone...
        assert job2.duration_s == job1.duration_s
        assert job2.duration_s > s2.cache_hit_latency_s
        # ...but a *local* recompile keeps the collapsed latency, just
        # like a solo runtime's compilation cache.
        job3 = s2.submit(sub_of(COUNTER), 100.0)
        assert job3.duration_s == s2.cache_hit_latency_s

    def test_without_isolation_hits_collapse(self):
        cache = BitstreamCache()
        s1 = CompileService(cache=cache)
        assert s1.submit(sub_of(COUNTER), 0.0).compiled is not None
        s2 = CompileService(cache=cache)
        job = s2.submit(sub_of(COUNTER), 0.0)
        assert job.cache_hit
        assert job.duration_s == s2.cache_hit_latency_s


class TestServiceStats:
    def test_stats_shape(self):
        service = CompileService()
        service.submit(sub_of(COUNTER), 0.0).compiled
        service.submit(sub_of(COUNTER), 0.0)
        m = service.metrics.snapshot()
        assert m["compile.attempted"] == 2
        assert m["compile.cache_hits"] == 1
        assert m["compile.cache_misses"] == 1
        assert m["compile.cancelled"] == 0
        assert {"compile.host.submit_s", "compile.host.codegen_s",
                "compile.host.flow_s", "compile.host.wait_s"} <= set(m)
        assert m["cache.entries"] == 1
        assert m["cache.in_flight"] == 0
        assert service.in_flight() == 0

    def test_repl_reports_compile_stats(self):
        from repro.core.repl import Repl
        repl = Repl(Runtime())
        line = repl.command(":time")
        assert "virtual time" in line
        assert "cache" in line and "compiles" in line
        stats = repl.command(":stats")
        assert "bitstream cache" in stats
        assert "host seconds" in stats
