"""Closed-loop batches on the software fast path (DESIGN.md §4.4).

``Runtime.run`` steps the first iteration of every call, so a run of
``run(iterations=1)`` N times is stepped by construction; the same
program run in longer calls goes through the batch kernel.  After every
call both must agree on everything a user or the performance model can
see: virtual time, per-tier events, plane messages, output, the LED
trace, iterations, tiers and the model's state.
"""

import pytest

from repro.apps.pow import pow_program
from repro.backend.compiler import CompileService
from repro.backend.compilequeue import CompileQueue
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.perf.timemodel import TimeModel
from repro.server.scheduler import default_window_budget


def fast_runtime(src, latency_scale=1e9, **kwargs):
    """A runtime on the software fast path from its first window: the
    codegen stage runs inline, and the fabric is ``latency_scale``
    away."""
    rt = Runtime(compile_service=CompileService(
        latency_scale=latency_scale, queue=CompileQueue(max_workers=0)),
        **kwargs)
    rt.eval_source(src)
    return rt


def observe(rt):
    state = {name: [(w.aval, w.bval) for w in v] if isinstance(v, list)
             else (v.aval, v.bval)
             for name, v in rt.engines["main"].get_state().items()}
    return {"now_ns": rt.time_model.now_ns,
            "tier_events": dict(rt.time_model.tier_events),
            "messages": rt.plane.messages_sent,
            "lines": list(rt.output_lines),
            "leds": rt.board.led_trace(),
            "iterations": rt.iterations,
            "finished": rt.finished,
            "tiers": rt.engine_tiers(),
            "state": state}


def stepped(rt, iterations):
    ran = 0
    for _ in range(iterations):
        if rt.finished is not None:
            break
        ran += rt.run(iterations=1)
    return ran


def batched_matches_stepped(make, chunks):
    """Run ``make()`` twice, in ``chunks`` and one iteration at a time,
    comparing after every chunk; returns the batched runtime."""
    batched, single = make(), make()
    for n in chunks:
        assert batched.run(iterations=n) == stepped(single, n)
        assert observe(batched) == observe(single)
    assert single.metrics.value("runtime.sw_batches") == 0
    return batched


COUNTER = """
reg [7:0] cnt = 0;
always @(posedge clk.val) cnt <= cnt + 1;
assign led.val = cnt;
"""

FINISH = """
reg [7:0] n = 0;
always @(posedge clk.val) begin
  n <= n + 1;
  if (n % 8'd5 == 0) $display("n %0d", n);
  if (n == 8'd37) $finish;
end
assign led.val = n >> 2;
"""

#: A register written nonblocking on one edge and blocking on the
#: other: the blocking writes must not be undone by the stale shadow.
BOTH_WAYS = """
reg [7:0] c = 0;
reg [7:0] x = 0;
always @(posedge clk.val) begin
  c <= c + 1;
  if (c == 0) x <= 5;
end
always @(negedge clk.val) x = x + 1;
always @(posedge clk.val) $display("x %0d", x);
assign led.val = x;
"""

#: The same with a part-select nonblocking write: the bits it leaves
#: alone keep their blocking updates.
BOTH_WAYS_PART = """
reg [7:0] c = 0;
reg [7:0] x = 0;
always @(posedge clk.val) begin
  c <= c + 1;
  if (c[0]) x[3:0] <= c[3:0];
end
always @(negedge clk.val) x = x + 8'h10;
always @(posedge clk.val) $display("x %h", x);
assign led.val = x;
"""

#: A comb always block (the fixpoint), an array shifted by a nonblocking
#: loop and read by logic, and an array written both ways.
ARRAYS = """
reg [7:0] w [0:3];
reg [7:0] m [0:3];
reg [7:0] y;
reg [1:0] i = 0;
integer k;
always @* y = w[0] ^ m[i];
always @(posedge clk.val) begin
  for (k = 0; k < 3; k = k + 1)
    w[k] <= w[k + 1];
  w[3] <= w[0] + 8'd7;
  m[i] <= y;
  m[i + 1] = m[i] + 8'd1;
  i <= i + 1;
  if (y[2:0] == 3'd5) $display("y %0d", y);
end
assign led.val = y;
"""

#: An array that only nonblocking writes change: its change alone
#: wakes the logic that reads it.
SHIFT = """
reg [7:0] w [0:3];
integer k;
always @(posedge clk.val) begin
  for (k = 0; k < 3; k = k + 1)
    w[k] <= w[k + 1];
  w[3] <= w[0] + 8'd7;
end
assign led.val = w[0] ^ w[2];
"""

#: A word written twice in one step, back to its old value: the first
#: write changed it, so the model wakes its readers.
TWICE = """
reg [7:0] m [0:1];
always @(posedge clk.val) begin
  m[0] <= m[0] + 8'd1;
  m[0] <= m[0];
end
assign led.val = m[0];
"""

#: A function that reads design state, which its method takes as an
#: argument; and a negedge block.
STATEFUL = """
reg [7:0] base = 5;
reg [7:0] q = 0;
reg [7:0] d = 0;
function [7:0] addb;
  input [7:0] x;
  addb = x + base;
endfunction
always @(posedge clk.val) begin
  q <= addb(q);
  base <= base + 1;
end
always @(negedge clk.val) d <= q ^ d;
assign led.val = d;
"""

#: A register written twice in one step, back to its old value: the
#: first write changed it, so the model wakes the logic that reads it,
#: as the interpreter does on each write that changes a value.
GLITCH = """
reg x = 0;
wire [7:0] y = x + 1;
always @(posedge clk.val) begin
  x <= 1;
  x <= 0;
end
assign led.val = y;
"""

#: A loop whose condition calls a function reading a register that a
#: function called in its body writes (blocking); ``k`` bounds it, so a
#: stale read ends it with wrong values rather than never.
LOOP_CALLS = """
reg [7:0] budget = 0;
reg [7:0] spent = 0;
reg [7:0] q = 0;
integer k;
function [7:0] spend;
  input [7:0] c;
  begin
    budget = budget + c;
    spend = budget;
  end
endfunction
function room;
  input [7:0] lim;
  room = budget < lim;
endfunction
always @(posedge clk.val) begin
  budget = 0;
  for (k = 0; k < 8 && room(8'd20 + q[3:0]); k = k + 1)
    spent <= spend(8'd3 + k[1:0]);
  q <= q + 1;
  if (q[2:0] == 3'd5)
    $display("q %0d spent %0d budget %0d k %0d", q, spent, budget, k);
end
assign led.val = spent;
"""

#: Sparse output: a derived clock, a register the led shows rarely.
SPARSE = """
reg [3:0] div = 0;
reg slow = 0;
reg [7:0] r = 0;
always @(posedge clk.val) begin
  div <= div + 1;
  if (div == 4'd15) slow <= ~slow;
end
always @(posedge slow) r <= r + 3;
assign led.val = r;
"""


class TestBatchedMatchesStepped:
    @pytest.mark.parametrize("src", [COUNTER, FINISH, BOTH_WAYS,
                                     BOTH_WAYS_PART, ARRAYS, SHIFT, TWICE,
                                     STATEFUL, SPARSE, GLITCH, LOOP_CALLS],
                             ids=["output-every-tick", "finish", "both-ways",
                                  "both-ways-part", "arrays", "array-shift",
                                  "word-written-twice", "stateful",
                                  "sparse", "scalar-written-twice",
                                  "loop-calls"])
    def test_programs(self, src):
        rt = batched_matches_stepped(lambda: fast_runtime(src),
                                     [3, 40, 1, 77, 200])
        assert rt.engine_tiers()["main"] == "sw-fast"
        assert rt.metrics.value("runtime.sw_batches") > 0

    def test_finish_mid_batch(self):
        rt = batched_matches_stepped(lambda: fast_runtime(FINISH), [500])
        assert rt.finished == 0 and rt.iterations < 500
        assert rt.output_lines[-1] == "n 35"

    def test_fabric_clock_that_is_not_a_whole_ns(self):
        # 33 MHz: a fabric tick is 30.30... ns, so virtual time is only
        # bit-identical when every charge is added in the stepped order.
        rt = batched_matches_stepped(
            lambda: fast_runtime(COUNTER, time_model=TimeModel(33)),
            [5, 301, 64])
        assert rt.time_model.now_ns != int(rt.time_model.now_ns)

    def test_pow_reaches_hardware_on_the_same_iteration(self):
        def make():
            rt = Runtime(compile_service=CompileService(
                latency_scale=1e-3, queue=CompileQueue(max_workers=0)),
                enable_open_loop=False)
            rt.eval_source(pow_program(2, None, 40))
            return rt
        rt = batched_matches_stepped(make, [2, 1400, 2000, 2500])
        assert rt.engine_tiers()["main"] == "hardware"
        # Hardware closed loop stays stepped.
        batches = rt.metrics.value("runtime.sw_batches")
        rt.run(iterations=200)
        assert rt.metrics.value("runtime.sw_batches") == batches

    def test_button_pressed_between_runs(self):
        # The board changes only between calls of run, and each call's
        # first iteration is stepped, so its window sees the press.
        src = """
reg [7:0] cnt = 1;
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= (cnt == 8'h80) ? 1 : cnt << 1;
assign led.val = cnt;
"""
        batched, single = fast_runtime(src), fast_runtime(src)
        for n, press in [(31, None), (9, 0), (16, None), (5, 2), (40, None)]:
            for rt in (batched, single):
                if press is None:
                    rt.board.pad.release_all()
                else:
                    rt.board.pad.press(press)
            assert batched.run(iterations=n) == stepped(single, n)
            assert observe(batched) == observe(single)
        assert batched.metrics.value("runtime.sw_batches") == 5

    def test_server_slice_cut_by_virtual_seconds(self):
        budget = default_window_budget()
        batched, single = fast_runtime(COUNTER), fast_runtime(COUNTER)
        stepped(single, 2)
        batched.run(iterations=2)
        for _ in range(3):
            ran = batched.run(iterations=100_000, virtual_seconds=budget)
            start_s, count = single.time_model.now_seconds, 0
            while single.time_model.now_seconds - start_s < budget:
                count += single.run(iterations=1)
            assert ran == count < 100_000
            assert observe(batched) == observe(single)
        assert batched.metrics.value("runtime.sw_batches") == 3


class TestBothWaysOnEveryTier:
    """The stale-shadow repro on the interpreter and sw-fast; batched
    and stepped sw-fast runs of it agree above, and the model's methods
    and the open-loop kernel are pinned in ``test_pycompile.py``."""

    @pytest.mark.parametrize("src, want", [
        (BOTH_WAYS, ["x 0", "x 6", "x 7", "x 8", "x 9", "x 10"]),
        (BOTH_WAYS_PART, ["x 00", "x 10", "x 21", "x 31", "x 43", "x 53"]),
    ], ids=["full", "part"])
    def test_interpreter_and_sw_fast(self, src, want):
        interp = Runtime(enable_jit=False)
        interp.eval_source(src)
        interp.run(iterations=12)
        assert interp.output_lines == want
        fast = fast_runtime(src)
        fast.run(iterations=12)
        assert fast.output_lines == want
        assert fast.time_model.now_ns == interp.time_model.now_ns


def interpreted(src, iterations):
    rt = Runtime(enable_jit=False)
    rt.eval_source(src)
    rt.run(iterations=iterations)
    return rt


def test_scalar_written_back_wakes_as_on_the_interpreter():
    # Each posedge writes x to 1 and back to 0; the interpreter wakes
    # y's assign on both writes, and so must the sw-fast model, stepped
    # or batched.
    interp = interpreted(GLITCH, 20)
    assert interp.time_model.now_ns == 3874200.0
    assert sum(interp.time_model.tier_events.values()) == 31 + 20
    for chunks in ([20], [1] * 20):
        fast = fast_runtime(GLITCH)
        for n in chunks:
            fast.run(iterations=n)
        assert fast.engine_tiers()["main"] == "sw-fast"
        assert fast.time_model.now_ns == interp.time_model.now_ns
        assert sum(fast.time_model.tier_events.values()) == \
            sum(interp.time_model.tier_events.values())


def test_loop_condition_calls_a_stateful_function():
    """The interpreter, the model's stepped methods, the batch kernel
    and the open-loop kernel agree on a loop whose condition calls a
    function that reads design state another call writes."""
    interp = interpreted(LOOP_CALLS, 60)
    want = observe(interp)
    assert want["lines"] and "k 0" not in want["lines"][0]
    # Stepped methods against the batch kernel, after every call.
    fast = batched_matches_stepped(lambda: fast_runtime(LOOP_CALLS),
                                   [3, 57])
    got = observe(fast)
    for key in ("now_ns", "lines", "leds", "state"):
        assert got[key] == want[key], key
    # Hardware in its first window, then open loop; a batch may end past
    # the bound, so the interpreter runs on to the same iteration.
    ol = Runtime(compile_service=CompileService(
        latency_scale=0.0, queue=CompileQueue(max_workers=0)),
        enable_sw_fastpath=False)
    ol.eval_source(LOOP_CALLS)
    ol.run(iterations=60)
    assert ol._open_loop_active
    interp.run(iterations=ol.iterations - interp.iterations)
    got, want = observe(ol), observe(interp)
    for key in ("lines", "state"):
        assert got[key] == want[key], key


ASSIGN_CALLS = """
reg [7:0] a = 1;
reg [7:0] st = 0;
reg [7:0] n = 0;
function [7:0] peek;
  input [7:0] x;
  peek = x + st;
endfunction
wire [7:0] y = peek(a);
always @(posedge clk.val) begin
  st <= st + 1;
  n <= n + 1;
  if (n < 5) $display("y %0d", y);
end
"""


def test_assign_wakes_on_what_its_function_reads():
    """A continuous assign is recomputed when design state that a
    function it calls reads changes, on every tier (DESIGN.md §4.4)."""
    want = ["y 1", "y 2", "y 3", "y 4", "y 5"]
    interp = interpreted(ASSIGN_CALLS, 24)
    assert interp.output_lines == want
    fast = batched_matches_stepped(lambda: fast_runtime(ASSIGN_CALLS),
                                   [3, 21])
    got = observe(fast)
    assert got["lines"] == want
    assert got["now_ns"] == interp.time_model.now_ns
    for open_loop in (False, True):
        hw = Runtime(compile_service=CompileService(
            latency_scale=0.0, queue=CompileQueue(max_workers=0)),
            enable_sw_fastpath=False, enable_open_loop=open_loop)
        hw.eval_source(ASSIGN_CALLS)
        hw.run(iterations=24)
        assert hw.engine_tiers()["main"] == "hardware"
        assert hw._open_loop_active == open_loop
        assert hw.output_lines == want


def test_stats_prints_the_batch_counters():
    repl = Repl(fast_runtime(COUNTER))
    repl.command(":run 40")
    m = repl.runtime.metrics_snapshot()
    assert m["runtime.sw_batches"] > 0
    assert (f"sw-fast batches: {m['runtime.sw_batches']} "
            f"({m['runtime.sw_batch_iterations']} iterations)"
            in repl.command(":stats").splitlines())
