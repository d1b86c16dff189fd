"""The software fast path (middle JIT tier): differential correctness.

Every program must behave identically — same $display stream, same
final outputs, same virtual-time tick count — whether it runs on the
interpreter, on the compiled-Python software fast path, or on the
(simulated) hardware engine.  Between the interpreter and the fast path
the bar is higher still: *bit-identical virtual time*, because the fast
path is charged at software rates precisely so that the paper's
timelines do not depend on whether it engaged.
"""

import random
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

import repro.backend.compiler as compiler_mod
import repro.backend.flow as flow_mod
import repro.core.runtime as runtime_mod
from repro.apps import nw, pow as pow_app, regex
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.core.engines import SoftwareEngineAdapter
from repro.backend.hardware import FastSoftwareEngine
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.study.corpus import generate_corpus

_NEVER = 1e9   # compile latency scale: fabric never becomes ready


def _interp_runtime():
    return Runtime(enable_jit=False)


def _inline_service(**kwargs):
    """A compile service whose stages run inline in ``submit``, so the
    model is ready at the first scheduler window."""
    return CompileService(queue=CompileQueue(max_workers=0), **kwargs)


def _fast_runtime():
    """JIT on, fabric compiles never ready -> only the software fast
    path can engage, at a deterministic moment (first window)."""
    return Runtime(compile_service=_inline_service(latency_scale=_NEVER))


def _sw_migrations(rt):
    return rt.metrics.value("runtime.sw_migrations")


def _hw_runtime():
    return Runtime(compile_service=CompileService(latency_scale=0.0),
                   enable_sw_fastpath=False, enable_open_loop=False)


def _observe(rt):
    plane = {name: (v.aval, v.bval)
             for name, v in sorted(rt.plane.values.items())}
    return {
        "lines": rt.output_lines[:],
        "ticks": rt.virtual_clock_ticks,
        "finished": rt.finished,
        "plane": plane,
    }


class TestCounterParity:
    SRC = """
wire clk;
Clock c(clk);
reg [7:0] n = 0;
always @(posedge clk) begin
  n <= n + 1;
  if (n == 5) $display("n=%d", n);
  if (n == 10) $finish;
end
"""

    def _run(self, rt):
        rt.eval_source(self.SRC)
        rt.run_until_finish()
        return rt

    def test_three_tiers_agree(self):
        a = self._run(_interp_runtime())
        b = self._run(_fast_runtime())
        c = self._run(_hw_runtime())
        # Interpreter vs fast path: everything is identical, including
        # tick counts — the fast swap must leave no timing trace.
        assert _observe(a) == _observe(b)
        # The hardware handover replays no clock edge, so the fabric
        # arm's output stream and tick count match too.
        assert _observe(c)["lines"] == _observe(a)["lines"]
        assert _observe(c)["ticks"] == _observe(a)["ticks"]
        assert _observe(c)["finished"] == _observe(a)["finished"]
        assert _sw_migrations(b) == 1
        assert isinstance(b.engines["main"], FastSoftwareEngine)

    def test_virtual_time_bit_identical(self):
        a = self._run(_interp_runtime())
        b = self._run(_fast_runtime())
        assert a.time_model.now_ns == b.time_model.now_ns

    def test_threaded_swap_timing_does_not_change_time(self):
        a = self._run(_interp_runtime())
        # Real worker pool: the swap lands at a host-dependent window.
        rt = Runtime(compile_service=CompileService(latency_scale=_NEVER))
        b = self._run(rt)
        assert a.time_model.now_ns == b.time_model.now_ns
        assert _observe(a) == _observe(b)

    def test_fast_events_tallied_under_own_tier(self):
        b = self._run(_fast_runtime())
        tiers = b.time_model.tier_events
        assert tiers["sw-fast"] > 0
        assert tiers["interpreted"] >= 0
        assert b.engine_tiers()["main"] == "sw-fast"


class TestSingleArrayWake:
    """A nonblocking write to the one array the comb logic reads must
    wake the fast path, exactly as it wakes the interpreter.  The array
    name has more than one character on purpose."""

    SRC = """
reg [7:0] mem [0:3];
initial mem[1] = 0;
wire [7:0] y;
assign y = mem[1] + 1;
assign led.val = y;
always @(posedge clk.val) mem[1] <= y;
always @(negedge clk.val) $display("led %0d", led.val);
"""

    def _run(self, rt):
        rt.eval_source(self.SRC)
        rt.run(iterations=402)
        return rt

    def test_fast_path_matches_interpreter(self):
        a = self._run(_interp_runtime())
        b = self._run(_fast_runtime())
        assert b.engine_tiers()["main"] == "sw-fast"
        assert a.output_lines[-1] == "led 202"
        assert _observe(a) == _observe(b)
        assert a.time_model.now_ns == b.time_model.now_ns


class TestEdgeSignalWrittenInThePass:
    """A block that writes an edge signal another block waits on: every
    block of a sequential pass tests the edges the pass began with, on
    sw-fast as on the interpreter (the hardware tier cannot take these
    programs: the derived clock is a second clock domain)."""

    SRC = {"same-edge": ("""
reg s = 0;
reg [7:0] q = 0;
reg [7:0] r = 0;
always @(posedge clk.val) s <= 1;
always @(posedge s) begin q = q + 1; s = 0; end
always @(posedge s) r = r + 1;
always @(negedge clk.val) $display("%0d %0d", q, r);
""", "20 20"), "derived-clock": ("""
reg d = 0;
reg [7:0] r = 0;
always @(posedge d) r = r + 1;
always @(posedge clk.val) d = ~d;
always @(negedge clk.val) $display("%0d", r);
""", "10")}

    def _run(self, rt, name):
        rt.eval_source(self.SRC[name][0])
        rt.run(iterations=40)
        return rt

    @pytest.mark.parametrize("name", sorted(SRC))
    def test_fast_path_matches_interpreter(self, name):
        a = self._run(_interp_runtime(), name)
        b = self._run(_fast_runtime(), name)
        assert b.engine_tiers()["main"] == "sw-fast"
        assert a.output_lines[-1] == self.SRC[name][1]
        assert _observe(a) == _observe(b)
        assert a.time_model.now_ns == b.time_model.now_ns


class TestSignedArrayWordTransfer:
    """An interpreter array word keeps the sign of the value stored into
    it; the handover must still give the compiled model the unsigned
    word, or every later rewrite of it looks like a change."""

    SRC = """
reg signed [23:0] r0 = 6354;
reg [8:0] r1 = 308;
reg [7:0] table_mem [0:3];
initial begin
  table_mem[0] = 107;
  table_mem[1] = 29;
  table_mem[2] = 189;
  table_mem[3] = 218;
end
wire w0;
assign w0 = r0 - table_mem[r1[1:0]];
always @(posedge clk.val) begin
  r1 <= r0;
  table_mem[r0[0]] <= r0;
  $display("%h %h %h", r0, r1, w0);
end
assign led.val = r0;
"""

    def _run(self, rt):
        rt.eval_source(self.SRC)
        rt.run(iterations=40)
        return rt

    def test_fast_path_matches_interpreter(self):
        a = self._run(_interp_runtime())
        b = self._run(_fast_runtime())
        assert b.engine_tiers()["main"] == "sw-fast"
        assert _observe(a) == _observe(b)
        assert a.time_model.now_ns == b.time_model.now_ns
        words = b.engines["main"].model.v_table_mem
        assert all(0 <= w < 256 for w in words)


class TestCorpusDifferential:
    """Every synthesizable corpus program, all three tiers."""

    CYCLES = 900

    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(n=31, seed=378)

    def _harness(self, student_id):
        return f"""
wire clk;
Clock c(clk);
reg start = 1;
wire done;
wire signed [15:0] score;
NW_{student_id} dut(.clk(clk), .start(start), .dbg_en(dbg), .dbg_level(lvl),
                    .done(done), .score(score));
reg dbg = 1;
reg [2:0] lvl = 1;
reg fired = 0;
always @(posedge clk) if (done && !fired) begin
  fired <= 1;
  $display("score=%d", score);
end
"""

    def _run_arm(self, rt, solution):
        rt.eval_source(solution.source)
        rt.eval_source(self._harness(solution.student_id))
        rt.run(iterations=self.CYCLES)
        return rt

    def test_all_tiers_agree_on_every_program(self, corpus):
        ran = 0
        for solution in corpus:
            if "max3(" in solution.source and \
                    "function signed [15:0] max3" not in solution.source:
                # A slice of the synthetic class calls a helper it never
                # wrote — the study's non-working submissions.  No tier
                # can run these.
                continue
            a = self._run_arm(_interp_runtime(), solution)
            b = self._run_arm(_fast_runtime(), solution)
            if b.unsynthesizable:
                continue  # not a fast-path candidate; interpreter-only
            c = self._run_arm(_hw_runtime(), solution)
            sid = solution.student_id
            assert _sw_migrations(b) == 1, f"student {sid}: no fast swap"
            oa, ob, oc = _observe(a), _observe(b), _observe(c)
            # Interpreter vs fast path: bit-identical in every respect.
            assert oa == ob, f"student {sid}: interp vs fast diverge"
            assert a.time_model.now_ns == b.time_model.now_ns, \
                f"student {sid}: virtual time diverges"
            # The hardware handover replays no clock edge, so the whole
            # per-cycle trace and the tick count agree too.
            assert oc["ticks"] == oa["ticks"], \
                f"student {sid}: tick counts diverge"
            assert oc["lines"] == oa["lines"], \
                f"student {sid}: hw trace diverges"
            ran += 1
        assert ran >= 10, f"only {ran} corpus programs exercised"


class TestAppsDifferential:
    def _pow(self, rt):
        rt.eval_source(pow_app.pow_program(target_zeros=30, max_nonce=2,
                                           quiet=True))
        rt.run(iterations=1200, until_finish=True)
        return rt

    def test_pow(self):
        a, b, c = (self._pow(r) for r in
                   (_interp_runtime(), _fast_runtime(), _hw_runtime()))
        assert _sw_migrations(b) == 1
        assert _observe(a) == _observe(b)
        assert _observe(c)["lines"] == _observe(a)["lines"]
        assert _observe(c)["finished"] == _observe(a)["finished"]
        assert a.time_model.now_ns == b.time_model.now_ns

    def _regex(self, rt):
        pattern = "ca(t|r)s?"
        data = b"cats and cars and cat"
        text, _ = regex.regex_program(pattern)
        rt.eval_source(text)
        rt.run(iterations=40)
        rt.board.fifo("input_fifo").attach_source(data, bytes_per_sec=1e12)
        rt.run(iterations=2500)
        return rt

    def test_regex(self):
        a, b, c = (self._regex(r) for r in
                   (_interp_runtime(), _fast_runtime(), _hw_runtime()))
        want = regex.reference_match_count("ca(t|r)s?",
                                           b"cats and cars and cat")
        assert a.board.leds.value == b.board.leds.value \
            == c.board.leds.value == (want & 0xFF)
        assert _sw_migrations(b) == 1
        assert _observe(a) == _observe(b)
        assert _observe(c)["lines"] == _observe(a)["lines"]
        assert a.time_model.now_ns == b.time_model.now_ns

    def _nw(self, rt):
        a = nw.random_dna(8, 7)
        b = nw.random_dna(10, 8)
        rt.eval_source(nw.nw_program(a, b))
        rt.run(iterations=3500, until_finish=True)
        return rt

    def test_nw(self):
        a, b, c = (self._nw(r) for r in
                   (_interp_runtime(), _fast_runtime(), _hw_runtime()))
        want = nw.nw_score(nw.random_dna(8, 7), nw.random_dna(10, 8))
        assert a.output_lines == [f"score {want}"]
        assert _sw_migrations(b) == 1
        assert _observe(a) == _observe(b)
        assert _observe(c)["lines"] == _observe(a)["lines"]
        assert _observe(c)["finished"] == _observe(a)["finished"]
        assert a.time_model.now_ns == b.time_model.now_ns


class TestDegradation:
    UNSYNTH = """
wire clk;
Clock c(clk);
reg x = 0;
reg [7:0] cnt = 0;
always begin
  #3 x = ~x;
end
always @(posedge clk) begin
  cnt <= cnt + 1;
  if (cnt == 20) begin
    $display("x=%b cnt=%d", x, cnt);
    $finish;
  end
end
"""

    def test_unsynthesizable_runs_interpreted_without_error(self):
        """A subprogram the fast tier cannot compile must run to
        completion on the interpreter with no user-visible error."""
        rt = _fast_runtime()
        rt.eval_source(self.UNSYNTH)
        rt.run(iterations=20_000, until_finish=True)
        assert rt.finished is not None
        assert rt.output_lines and rt.output_lines[0].startswith("x=")
        assert all("fail" not in line and "error" not in line.lower()
                   for line in rt.output_lines)
        assert _sw_migrations(rt) == 0
        assert isinstance(rt.engines["main"], SoftwareEngineAdapter)
        # Matches the interpreter-only run exactly.
        ref = Runtime(enable_jit=False)
        ref.eval_source(self.UNSYNTH)
        ref.run(iterations=20_000, until_finish=True)
        assert ref.output_lines == rt.output_lines
        assert ref.time_model.now_ns == rt.time_model.now_ns

    def test_fastpath_compile_failure_is_silent(self, monkeypatch):
        """An exploding codegen degrades to the interpreter; the user
        sees nothing."""
        def explode(design, class_name="CompiledModel"):
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr(compiler_mod, "compile_design", explode)
        rt = _fast_runtime()
        rt.eval_source(TestCounterParity.SRC)
        rt.run_until_finish()
        assert rt.finished is not None
        assert rt.metrics.value("runtime.fastpath_failures") == 1
        assert _sw_migrations(rt) == 0
        ref = Runtime(enable_jit=False)
        ref.eval_source(TestCounterParity.SRC)
        ref.run_until_finish()
        assert ref.output_lines == rt.output_lines
        assert ref.time_model.now_ns == rt.time_model.now_ns


class ManualQueue:
    """A compile queue whose futures only resolve when the test says so,
    and which (like a busy worker) refuses cancellation."""

    def __init__(self):
        self.jobs = []

    def submit(self, fn, *args, **kwargs):
        fut = Future()
        fut.set_running_or_notify_cancel()   # cancel() will now fail
        self.jobs.append((fut, fn, args, kwargs))
        return fut

    def cancel(self, future):
        return future.cancel()

    def resolve(self, index):
        fut, fn, args, kwargs = self.jobs[index]
        fut.set_result(fn(*args, **kwargs))


class TestStaleGeneration:
    V1 = """
wire clk;
Clock c(clk);
reg [7:0] a = 0;
always @(posedge clk) a <= a + 1;
"""
    V2 = """
reg [7:0] b = 0;
always @(posedge clk) b <= b + 2;
"""

    def test_edit_invalidates_in_flight_fast_compile(self):
        """A subprogram edited mid-session must never have a stale
        model swapped in: the rebuild replaces the runtime's job map."""
        queue = ManualQueue()
        rt = Runtime(compile_service=CompileService(latency_scale=_NEVER,
                                                    queue=queue))
        rt.eval_source(self.V1)
        rt.run(iterations=6)
        assert len(queue.jobs) >= 1
        n_before = len(queue.jobs)
        stale = rt._jobs["main"]
        old_generation = rt.generation
        # Edit the program while the old compile is still in flight.
        rt.eval_source(self.V2)
        rt.run(iterations=2)
        assert rt.generation > old_generation
        assert len(queue.jobs) > n_before   # resubmitted for the edit
        assert rt._jobs["main"] is not stale
        # The stale job completes late: it must be ignored.
        queue.resolve(n_before - 1)
        rt.run(iterations=6)
        assert _sw_migrations(rt) == 0
        assert isinstance(rt.engines["main"], SoftwareEngineAdapter)
        # The current-generation job completes: now the swap happens,
        # with a model that knows about the edit.
        queue.resolve(len(queue.jobs) - 1)
        rt.run(iterations=20)
        assert _sw_migrations(rt) == 1
        fast = rt.engines["main"]
        assert isinstance(fast, FastSoftwareEngine)
        assert "b" in fast.design.vars
        # Functional check: both registers advance after the swap.
        before_a = fast.read("a").to_int_xz(0)
        before_b = fast.read("b").to_int_xz(0)
        rt.run(iterations=8)
        assert fast.read("a").to_int_xz(0) != before_a
        assert fast.read("b").to_int_xz(0) != before_b


class TestReplCounters:
    def test_stats_and_time_show_tiers(self):
        repl = Repl(_fast_runtime())
        repl.feed(TestCounterParity.SRC + "\n")
        repl.command(":run 30")
        stats = repl.command(":stats")
        assert "sw-fast" in stats
        assert "migrations" in stats
        assert "fast-path compile failures" in stats
        time_out = repl.command(":time")
        assert "sw-fast" in time_out
        assert "interpreted" in time_out


class TestOneCompileJob:
    """Each admission generates its model once, inside its compile job;
    the fast path and the fabric share it."""

    COUNTER = """
reg [7:0] n = 0;
always @(posedge clk.val) n <= n + 1;
assign led.val = n;
"""

    def test_one_codegen_per_admission(self, monkeypatch):
        calls = []
        real = compiler_mod.compile_design

        def counting(design, *args, **kwargs):
            calls.append(design.name)
            return real(design, *args, **kwargs)

        monkeypatch.setattr(compiler_mod, "compile_design", counting)
        monkeypatch.setattr(runtime_mod, "compile_design", counting)
        service = _inline_service(latency_scale=_NEVER)
        cold = Runtime(compile_service=service)
        cold.eval_source(self.COUNTER)
        cold.run(iterations=4)
        assert len(calls) == 1
        assert cold.engine_tiers()["main"] == "sw-fast"
        # A cache hit already holds the model: no codegen at all.
        hit = Runtime(compile_service=service)
        hit.eval_source(self.COUNTER)
        hit.run(iterations=4)
        assert len(calls) == 1
        assert service.metrics.value("compile.cache_hits") == 1
        assert hit.engine_tiers()["main"] == "sw-fast"

    def test_failed_closure_still_runs_sw_fast(self, monkeypatch,
                                               fixed_compile_latency):
        """The codegen result survives a flow that misses closure; the
        error reaches the user at ready_at_s, not before."""
        def failing_flow(design, **kwargs):
            return SimpleNamespace(
                success=False, luts=10, fmax_mhz=12.5, phase_seconds={},
                routing=SimpleNamespace(routed=True),
                placement=SimpleNamespace(warm_started=False,
                                          locations={}),
                summary=lambda: "missed timing")

        monkeypatch.setattr(flow_mod, "run_flow", failing_flow)
        fixed_compile_latency(0.05)
        service = _inline_service(full_flow_max_luts=10_000)
        rt = Runtime(compile_service=service)
        rt.eval_source(self.COUNTER)
        rt.run(iterations=4)
        job = rt._jobs["main"]
        assert rt.time_model.now_seconds < job.ready_at_s
        assert rt.engine_tiers()["main"] == "sw-fast"
        assert rt.unsynthesizable == {}
        rt.run(virtual_seconds=job.ready_at_s - rt.time_model.now_seconds)
        rt.run(iterations=2)
        assert "timing closure" in rt.unsynthesizable["main"]
        assert rt.engine_tiers()["main"] == "sw-fast"
        assert rt.metrics.value("runtime.hw_migrations") == 0

    def test_one_job_per_subprogram_after_edits(self):
        service = _inline_service(latency_scale=_NEVER)
        rt = Runtime(compile_service=service)
        rt.eval_source(self.COUNTER)
        rt.run(iterations=4)
        for k in range(6):
            rt.eval_source(f"wire probe{k}; assign probe{k} = n[0];")
            rt.run(iterations=4)
        users = {sub.name for sub in rt.program.user_subprograms()}
        assert set(rt._jobs) == users
        assert service.metrics.value("compile.cancelled") == 6
        # The service holds no abandoned jobs either.
        assert service.jobs == list(rt._jobs.values())


class TestCodegenWakeups:
    def test_every_runtime_swaps_when_its_codegen_lands(self):
        """A codegen stage flags its runtime from the worker's thread,
        and the runtime scans its jobs only when flagged (the fabric is
        never due here).  A lost flag would leave a runtime interpreted
        for good; more workers than cores and a short switch interval
        make such interleavings likely."""
        import sys
        import time
        queue = CompileQueue(max_workers=4)
        service = CompileService(latency_scale=_NEVER, queue=queue)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runtimes = []
            for i in range(8):
                rt = Runtime(compile_service=service)
                rt.eval_source(f"reg [7:0] r = {i};\n"
                               f"always @(posedge clk.val) r <= r + {i + 1};")
                rt.run(iterations=0)
                runtimes.append(rt)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and any(
                    rt.engine_tiers()["main"] != "sw-fast"
                    for rt in runtimes):
                for rt in runtimes:
                    rt.run(iterations=2)
        finally:
            sys.setswitchinterval(interval)
            queue.shutdown()
        assert [rt.engine_tiers()["main"] for rt in runtimes] == \
            ["sw-fast"] * len(runtimes)
