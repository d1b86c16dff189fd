"""Differential tests: interpreter vs compiled model vs netlist.

The compiled model is our stand-in for the bitstream, so it must agree
bit-for-bit with the reference interpreter on two-state synthesizable
designs — this file drives both from the same stimuli and compares.
Combinational rows also step the gate-level netlist from
:func:`repro.backend.synth.synthesize`, so all three tiers agree on
every width and sign.
"""

import random
from unittest import mock

import pytest

from repro.backend import pycompile
from repro.backend.compiler import CompileService
from repro.backend.hardware import HardwareEngine
from repro.backend.kernels import KernelPrinter
from repro.backend.pycompile import compile_design
from repro.backend.synth import synthesize
from repro.common.bits import Bits
from repro.core.runtime import Runtime
from repro.interp.engine import SoftwareEngine
from repro.interp.sim import CollectingServices
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.parser import parse_module


def _attr(name):
    import re
    return "v_" + re.sub(r"\W", "_", name)


def _pins(var, value):
    """Netlist port name -> bit of ``value``, LSB first, for a variable."""
    if var.width == 1:
        return {var.name: value & 1}
    return {f"{var.name}[{i}]": (value >> i) & 1 for i in range(var.width)}


def run_both(text, stimuli, outputs, cycles=20, netlist=False):
    """Drive interpreter and compiled model (and, for a combinational
    design with ``netlist``, the synthesized netlist) with the same
    input sequence; return one trace per tier."""
    module = parse_module(text)
    design_i = elaborate_leaf(module)
    design_c = elaborate_leaf(module)
    interp = SoftwareEngine(design_i, CollectingServices())
    compiled = compile_design(design_c).instantiate()
    gates = synthesize(elaborate_leaf(module)) if netlist else None

    def settle_interp():
        interp.evaluate()
        while interp.there_are_updates():
            interp.update()
            interp.evaluate()

    def settle_compiled():
        compiled.evaluate()
        while compiled._nba:
            compiled.update()
            compiled.evaluate()

    # The runtime always evaluates engines once at startup (the first
    # scheduler iteration), which registers process sensitivities.
    settle_interp()
    settle_compiled()

    trace_i, trace_c, trace_n = [], [], []
    rng = random.Random(7)
    for cycle in range(cycles):
        values = stimuli(cycle, rng)
        pins = {}
        for name, value in values.items():
            var = design_i.vars[name]
            interp.poke(name, Bits.from_int(value, var.width))
            setattr(compiled, _attr(name),
                    value & ((1 << var.width) - 1))
            compiled._dirty = True
            pins.update(_pins(var, value))
        for clk in (1, 0):
            if "clk" in design_i.vars:
                interp.poke("clk", Bits.from_int(clk, 1))
                setattr(compiled, "v_clk", clk)
                compiled._dirty = True
            settle_interp()
            settle_compiled()
        trace_i.append(tuple(
            interp.peek(o).to_int_xz(0)
            & ((1 << design_i.vars[o].width) - 1) for o in outputs))
        trace_c.append(tuple(
            getattr(compiled, _attr(o)) for o in outputs))
        if gates is not None:
            _, outs = gates.step(pins)
            trace_n.append(tuple(
                sum(outs[port] << i for i, port
                    in enumerate(_pins(design_i.vars[o], 0)))
                for o in outputs))
    return (trace_i, trace_c, trace_n) if netlist else (trace_i, trace_c)


ALU = """
module alu(input wire clk, input wire [7:0] a, input wire [7:0] b,
           input wire [2:0] op, output reg [15:0] acc = 0);
  always @(posedge clk)
    case (op)
      3'd0: acc <= a + b;
      3'd1: acc <= a - b;
      3'd2: acc <= a * b;
      3'd3: acc <= {a, b};
      3'd4: acc <= a & b;
      3'd5: acc <= (a < b) ? 16'd1 : 16'd0;
      3'd6: acc <= acc ^ {b, a};
      default: acc <= acc >> 1;
    endcase
endmodule
"""

SIGNED = """
module s(input wire clk, input wire signed [7:0] a,
         input wire signed [7:0] b, output reg signed [15:0] r = 0);
  always @(posedge clk)
    if (a > b)
      r <= a * b;
    else if (a == b)
      r <= a >>> 2;
    else
      r <= a - b;
endmodule
"""

COMB_FSM = """
module fsm(input wire clk, input wire go, output reg [1:0] state,
           output reg out);
  always @(posedge clk)
    case (state)
      2'd0: if (go) state <= 2'd1;
      2'd1: state <= 2'd2;
      2'd2: state <= go ? 2'd3 : 2'd0;
      default: state <= 2'd0;
    endcase
  always @(*)
    out = (state == 2'd3);
endmodule
"""

MEMORY = """
module m(input wire clk, input wire [3:0] addr, input wire wen,
         input wire [7:0] din, output reg [7:0] dout);
  reg [7:0] store [0:15];
  always @(posedge clk) begin
    if (wen)
      store[addr] <= din;
    dout <= store[addr];
  end
endmodule
"""

FUNCTION = """
module f(input wire clk, input wire [7:0] x, output reg [7:0] y);
  function [7:0] gray;
    input [7:0] v;
    gray = v ^ (v >> 1);
  endfunction
  always @(posedge clk)
    y <= gray(x);
endmodule
"""

PARTSEL = """
module p(input wire clk, input wire [15:0] v, input wire [1:0] sel,
         output reg [3:0] nib, output reg [15:0] spun);
  always @(posedge clk) begin
    nib <= v[sel * 4 +: 4];
    spun <= {v[7:0], v[15:8]};
    spun[0] <= v[15];
  end
endmodule
"""

# Loops over constants are unrolled; the last one is not (its bound is
# a variable).  The loop variable keeps its final value.
LOOPS = """
module l(input wire clk, input wire [7:0] x, output reg [15:0] acc,
         output reg [7:0] last, output reg [7:0] rev);
  integer i;
  reg [3:0] j;
  reg [7:0] w [0:3];
  function [15:0] plus_i;  // reads the loop variable: no unrolling
    input [15:0] v;
    plus_i = v + i;
  endfunction
  always @(posedge clk) begin
    acc = 0;
    for (i = 3; i >= 0; i = i - 1)
      acc = acc + (x >> i);
    for (j = 0; j != 9; j = j + 3)
      rev[j[2:0]] <= x[j];
    for (i = 0; i < 3; i = i + 1)
      w[i + 1] <= x + i;
    last <= x + i;
    for (i = 0; i < x[1:0]; i = i + 1)
      acc = acc + i;
    for (i = 1; i < 3; i = i + 1)
      acc = plus_i(acc);
  end
endmodule
"""


# Combinational rows share one port list; every row drives ``y``.
PORTS = ("input wire [7:0] a, input wire [7:0] b, "
         "input wire signed [3:0] sa, input wire signed [7:0] sb, "
         "input wire c, input wire [3:0] u4")
COMB_INPUTS = {"a": 8, "b": 8, "sa": 4, "sb": 8, "c": 1, "u4": 4}


def _comb(expr, decls=""):
    return (f"module t({PORTS}, output wire [15:0] y);\n{decls}\n"
            f"  assign y = {expr};\nendmodule\n")


TIMES3 = """
  function signed [11:0] f;
    input signed [5:0] x;
    f = x * 3;
  endfunction"""

CASE_WIDE = f"""
module t({PORTS}, output reg [15:0] y);
  always @(*)
    case (a[1:0])
      8'd7: y = 16'd70;  // never: the selector is zero-extended
      8'd3: y = 16'd30;
      8'd1, 8'd2: y = 16'd12;
      default: y = 16'd99;
    endcase
endmodule
"""

# Combinational rows: interpreter, compiled model and netlist agree.
COMB_ROWS = [
    # A signed literal in an unsigned expression is zero-extended.
    ("literal-add", _comb("a + 4'sb1111")),
    ("literal-compare", _comb("a > 4'sb1111")),
    ("literal-and", _comb("a & 4'sb1001")),
    ("unsigned-cast-literal", _comb("$unsigned(sa) + 4'sb1111")),
    ("ternary-literals", _comb("(c ? 4'sb1111 : 4'sb0001) + 16'd0")),
    # An argument is extended by its own type, not the port's.
    ("function-arg-ident", _comb("f(u4)", TIMES3)),
    ("function-arg-select", _comb("f(a[3:0])", TIMES3)),
    # Part-select bounds and replication counts folded at elaboration.
    ("param-select", _comb("a[W-1:0]", "  localparam W = 8;")),
    ("param-repeat", _comb("{W/4{a[1:0]}}", "  localparam W = 8;")),
    # Controls.
    ("signed-compare", _comb("{sa < sb, sa < b, sb >= sa, a <= sb}")),
    ("ashr-signed", _comb("sb >>> 3")),
    ("ashr-unsigned", _comb("b >>> 3")),
    ("signed-cast", _comb("$signed(a[3:0]) * sb")),
    ("signed-mul", _comb("sa * sb")),
    ("signed-div", _comb("sb / (sa | 4'sd1)")),
    ("signed-mod", _comb("sb % (sa | 4'sd1)")),
    ("signed-concat", _comb("{sa, sb} + 16'd1")),
    ("case-narrow-selector", CASE_WIDE),
    # Shift amounts of 32 or more clear the value on the netlist too.
    ("shift-past-width", _comb("(a << b) ^ (a >> b)")),
]
# Every combinational row also steps the netlist, except the divider
# rows: the gate-level flow has no divider.
NETLIST_ROWS = {name for name, _ in COMB_ROWS} - {"signed-div", "signed-mod"}


@pytest.mark.parametrize("name,text,inputs,outputs", [
    ("alu", ALU, {"a": 8, "b": 8, "op": 3}, ["acc"]),
    ("signed", SIGNED, {"a": 8, "b": 8}, ["r"]),
    ("fsm", COMB_FSM, {"go": 1}, ["state", "out"]),
    ("memory", MEMORY, {"addr": 4, "wen": 1, "din": 8}, ["dout"]),
    ("function", FUNCTION, {"x": 8}, ["y"]),
    ("partsel", PARTSEL, {"v": 16, "sel": 2}, ["nib", "spun"]),
    ("loops", LOOPS, {"x": 8}, ["acc", "last", "rev"]),
] + [pytest.param(name, text, COMB_INPUTS, ["y"], id=name)
     for name, text in COMB_ROWS])
def test_compiled_matches_interpreter(name, text, inputs, outputs):
    def stimuli(cycle, rng):
        return {k: rng.getrandbits(w) for k, w in inputs.items()}

    traces = run_both(text, stimuli, outputs, cycles=40,
                      netlist=name in NETLIST_ROWS)
    for tier, trace in zip(("compiled", "netlist"), traces[1:]):
        assert trace == traces[0], f"{name}: interpreter vs {tier}"


def test_compiled_collects_display_tasks():
    module = parse_module("""
module d(input wire clk, input wire [7:0] n);
  always @(posedge clk)
    if (n > 8'd250)
      $display("big %0d", n);
endmodule""")
    compiled = compile_design(elaborate_leaf(module)).instantiate()
    compiled.v_n = 255
    compiled.v_clk = 1
    compiled._dirty = True
    compiled.evaluate()
    assert compiled._tasks and compiled._tasks[0][0] == "display"


def test_compiled_finish_sets_flag():
    module = parse_module("""
module d(input wire clk);
  reg [3:0] n = 0;
  always @(posedge clk) begin
    n <= n + 1;
    if (n == 4'd5)
      $finish;
  end
endmodule""")
    design = compile_design(elaborate_leaf(module))
    compiled = design.instantiate()
    done = design.open_loop_kernel("v_clk")(compiled, 100)
    assert compiled._finished == 0
    assert done < 100


def test_open_loop_matches_stepped_execution():
    module = parse_module("""
module c(input wire clk, output reg [15:0] q);
  always @(posedge clk) q <= q + 3;
endmodule""")
    design = elaborate_leaf(module)
    compiled = compile_design(design)
    a = compiled.instantiate()
    b = compile_design(design).instantiate()
    compiled.open_loop_kernel("v_clk")(a, 20)  # 20 half-cycles = 10 posedges
    for _ in range(10):
        for clk in (1, 0):
            b.v_clk = clk
            b._dirty = True
            b.evaluate()
            while b._nba:
                b.update()
                b.evaluate()
    assert a.v_q == b.v_q == 30


def test_unsynthesizable_rejected():
    from repro.common.errors import SynthesisError
    module = parse_module("""
module bad(input wire clk);
  reg r;
  initial r = 0;
endmodule""")
    with pytest.raises(SynthesisError):
        compile_design(elaborate_leaf(module))


def test_generated_source_is_python():
    module = parse_module("""
module tiny(input wire a, output wire b);
  assign b = ~a;
endmodule""")
    compiled = compile_design(elaborate_leaf(module))
    assert "def evaluate" in compiled.source
    compile(compiled.source, "<check>", "exec")


def test_signed_initializer_is_held_unsigned():
    module = parse_module("""
module init(input wire clk, output reg signed [3:0] q = -1);
  always @(posedge clk) q <= q;
endmodule""")
    model = compile_design(elaborate_leaf(module)).instantiate()
    assert model.v_q == 15


def _eval_comb_source(compiled):
    source = compiled.source
    start = source.index("    def _eval_comb(self):")
    return source[start:source.index("\n    def ", start + 1)]


def test_acyclic_network_is_one_levelized_pass():
    """pow's network is acyclic and has no comb always block: one pass
    in dependency order, pure functions inlined or tabulated, constant
    indices folded."""
    from repro.apps.pow import pow_program
    from repro.core.runtime import Runtime
    rt = Runtime(enable_jit=False)
    rt.eval_source(pow_program(target_zeros=6, max_nonce=3, quiet=True))
    rt.run(iterations=2)
    comb = _eval_comb_source(compile_design(rt.engines["main"].design))
    assert "for _pass" not in comb
    assert "f_miner_core_rotr" not in comb
    assert "f_miner_core_kconst" not in comb
    assert "< 16 else" not in comb


@pytest.mark.parametrize("body", [
    # reads its own target
    "wire [7:0] z; assign y = {y[6:0], a};",
    # a cycle through two assigns
    "wire [7:0] z; assign y = z + 1; assign z = y[3:0];",
    # a comb always block
    "reg [7:0] z; assign y = a; always @* z = y + 1;",
], ids=["self-read", "cycle", "comb-block"])
def test_cyclic_or_comb_block_keeps_the_fixpoint(body):
    module = parse_module(f"""
module loop(input wire a, output wire [7:0] y);
  {body}
endmodule""")
    comb = _eval_comb_source(compile_design(elaborate_leaf(module)))
    assert "for _pass" in comb


#: A sequential pass in which a block writes an edge signal another
#: block waits on.  SAME_EDGE: one rise of ``s`` runs both blocks, the
#: first of which lowers ``s`` again.  DERIVED_CLOCK: a block raises
#: ``d`` for a block that comes before it.
SAME_EDGE = """
module e(input wire clk, input wire go, output reg [7:0] q = 0,
         output reg [7:0] r = 0);
  reg s = 0;
  always @(posedge clk) s <= go;
  always @(posedge s) begin q = q + 1; s = 0; end
  always @(posedge s) r = r + 1;
endmodule"""

DERIVED_CLOCK = """
module d(input wire clk, input wire go, output reg [7:0] r = 0);
  reg d = 0;
  always @(posedge d) r = r + 1;
  always @(posedge clk) d = ~d;
endmodule"""


@pytest.mark.parametrize("text, outputs, want", [
    (SAME_EDGE, ["q", "r"], [(n, n) for n in range(1, 9)]),
    (DERIVED_CLOCK, ["r"], [(n // 2,) for n in range(2, 10)]),
], ids=["same-edge", "derived-clock"])
def test_blocks_test_the_edges_their_pass_began_with(text, outputs, want):
    trace_i, trace_c = run_both(text, lambda cycle, rng: {"go": 1}, outputs,
                                cycles=8)
    assert trace_i == want
    assert trace_c == want


BOTH_WAYS = """
module b(input wire clk, output reg [7:0] x = 0);
  reg [7:0] c = 0;
  always @(posedge clk) begin c <= c + 1; if (c == 0) x <= 5; end
  always @(negedge clk) x = x + 1;
endmodule"""

BOTH_WAYS_PART = """
module p(input wire clk, output reg [7:0] x = 0);
  reg [7:0] c = 0;
  always @(posedge clk) begin c <= c + 1; if (c[0]) x[3:0] <= c[3:0]; end
  always @(negedge clk) x = x + 8'h10;
endmodule"""


@pytest.mark.parametrize("text, want", [
    (BOTH_WAYS, [(6,), (7,), (8,), (9,), (10,)]),
    (BOTH_WAYS_PART, [(0x10,), (0x21,), (0x31,), (0x43,), (0x53,)]),
], ids=["full", "part"])
def test_update_copies_only_what_a_nonblocking_write_set(text, want):
    # x is written nonblocking on the posedge and blocking on the
    # negedge: an update must not copy the stale shadow back over the
    # blocking writes, nor the bits a part-select write left alone.
    trace_i, trace_c = run_both(text, lambda cycle, rng: {}, ["x"],
                                cycles=5)
    assert trace_i == want
    assert trace_c == want


def count_schedules(monkeypatch):
    """The schedules built from here on, in a list that grows."""
    built = []
    init = pycompile.Schedule.__init__

    def counting(self, design):
        init(self, design)
        built.append(self)
    monkeypatch.setattr(pycompile.Schedule, "__init__", counting)
    return built


def _stepped(model, clock_attr, steps):
    """Open loop on the model's own methods: what the kernel must do."""
    done = 0
    while done < steps:
        setattr(model, clock_attr, getattr(model, clock_attr) ^ 1)
        model._dirty = True
        model.evaluate()
        while model._nba:
            model.update()
            model.evaluate()
        done += 1
        if not done & 1:
            model._time += 1
        if model._tasks:
            break
    return done


class TestOpenLoopKernel:
    """The kernel against stepped evaluate/update execution, on the
    model's complete state (every ``v_``/``n_``/``p_``/``g_`` value,
    cone snapshots, ``_nba``, ``_dirty``, ``_time``, ``_tasks`` and
    ``_finished``) after every batch."""

    def run(self, text, batches, clock="v_clk", prepare=None):
        compiled = compile_design(elaborate_leaf(parse_module(text)))
        kernel = compiled.open_loop_kernel(clock)
        a, b = compiled.instantiate(), compiled.instantiate()
        if prepare is not None:
            prepare(a)
            prepare(b)
        history = []
        for steps in batches:
            done = kernel(a, steps)
            assert done == _stepped(b, clock, steps)
            assert vars(a) == vars(b)
            history.append((done, [t[0] for t in a._tasks]))
            a._tasks, b._tasks = [], []
        return kernel, a, history

    def test_display_stops_on_the_posedge_and_resumes_at_the_negedge(self):
        _, model, history = self.run("""
module d(input wire clk, output reg [7:0] q = 0);
  always @(posedge clk) begin
    q <= q + 1;
    if (q[1:0] == 2'd2)
      $display("q %d", q);
  end
endmodule""", [100, 100, 7, 100])
        # Posedges 3, 7 and 11 display, at half ticks 5, 13 and 21; a
        # batch stops after that posedge half, and the next one starts
        # at the negedge.
        assert history == [(5, ["display"]), (8, ["display"]), (7, []),
                           (1, ["display"])]
        assert model.v_clk == 1 and model.v_q == 11

    def test_odd_steps(self):
        _, model, history = self.run("""
module c(input wire clk, output reg [15:0] q = 0);
  always @(posedge clk) q <= q + 3;
endmodule""", [1, 3, 5, 0, 7])
        assert [done for done, _ in history] == [1, 3, 5, 0, 7]
        # ``_time`` counts each batch's own even half ticks (the
        # runtime sets the time between batches).
        assert model.v_q == 3 * 8 and model._time == 0 + 1 + 2 + 0 + 3

    def test_negedge_block(self):
        self.run("""
module n(input wire clk, output reg [7:0] up = 0, output reg [7:0] dn = 0);
  always @(posedge clk) up <= up + 1;
  always @(negedge clk) dn <= up ^ dn;
endmodule""", [9, 10, 33])

    def test_edge_on_a_register_derived_clock(self):
        # ``slow`` is a nonblocking target only edge controls read, on
        # both edges; its edge samples must match the model's.
        self.run("""
module r(input wire clk, output reg [7:0] q = 0);
  reg slow = 0;
  reg [1:0] div = 0;
  always @(posedge clk) begin
    div <= div + 1;
    if (div == 2'd3) slow <= ~slow;
  end
  always @(posedge slow) q <= q + 5;
  always @(negedge slow) q <= q ^ 8'h0f;
endmodule""", [17, 40, 64])

    def test_comb_always_keeps_the_fixpoint(self):
        kernel, _, _ = self.run("""
module s(input wire clk, output reg [7:0] y, output wire [7:0] z);
  reg [7:0] q = 1;
  always @(posedge clk) q <= q + y;
  always @* y = q + 1;
  assign z = y ^ q;
endmodule""", [6, 11, 30])
        assert "for _pass in range(128):" in kernel.source

    def test_array_shifted_by_a_nonblocking_loop(self):
        kernel, model, _ = self.run("""
module w(input wire clk, output wire [7:0] head);
  reg [7:0] w [0:7];
  integer i;
  always @(posedge clk) begin
    for (i = 0; i < 7; i = i + 1)
      w[i] <= w[i + 1];
    w[7] <= w[0] + 8'd3;
  end
  assign head = w[0];
endmodule""", [10, 31, 64])
        # Pending words go to a copy of the array, not to a list.
        assert "nw_v_w = v_w[:]" in kernel.source
        assert "nw_v_w.append" not in kernel.source
        assert model.g_v_w == 53  # one per posedge

    def test_array_written_both_ways(self):
        self.run("""
module b(input wire clk, output wire [7:0] out);
  reg [7:0] m [0:3];
  always @(posedge clk) begin
    m[1] <= m[0] + 1;
    m[0] = m[0] + 2;
    m[2] <= m[0];
    m[2] = m[3] ^ 8'h5a;
  end
  assign out = m[1] + m[2];
endmodule""", [12, 25])

    def test_pending_writes_at_entry(self):
        # An evaluate the engine ran before the batch left nonblocking
        # writes, array words among them, for the batch to apply.
        def prepare(model):
            model.v_clk = 1
            model.evaluate()
            assert model._nba and model.nw_v_m is not None
        self.run("""
module p(input wire clk, output reg [7:0] q = 0);
  reg [7:0] m [0:1];
  always @(posedge clk) begin
    m[0] <= q + 1;
    q <= m[0] + m[1];
    m[1] <= m[0];
  end
endmodule""", [8, 9], prepare=prepare)

    def test_finish_mid_batch(self):
        _, model, history = self.run("""
module f(input wire clk);
  reg [3:0] n = 0;
  always @(posedge clk) begin
    n <= n + 1;
    if (n == 4'd5)
      $finish;
  end
endmodule""", [100, 4])
        assert history[0] == (11, ["finish"])
        assert model._finished == 0

    def test_function_reading_design_state_runs_on_locals(self):
        kernel, _, _ = self.run("""
module g(input wire clk, output reg [7:0] q = 0);
  reg [7:0] base = 5;
  integer k;
  function [7:0] addb;
    input [7:0] x;
    addb = x + base;
  endfunction
  always @(posedge clk) begin
    for (k = 0; k < 2; k = k + 1)
      q <= addb(q);
    base <= base + 1;
  end
endmodule""", [7, 20])
        # The function takes the variable it reads as an argument, so
        # the kernel keeps its state in locals.
        assert "evaluate()" not in kernel.source
        assert "v_base)" in kernel.source

    @pytest.mark.parametrize("text, r", [(SAME_EDGE, 29),
                                         (DERIVED_CLOCK, 15)],
                             ids=["same-edge", "derived-clock"])
    def test_block_writing_an_edge_signal(self, text, r):
        def prepare(model):
            model.v_go = 1
        _, model, _ = self.run(text, [9, 16, 33], prepare=prepare)
        assert model.v_r == r  # after 29 rises of clk

    @pytest.mark.parametrize("text", [BOTH_WAYS, BOTH_WAYS_PART],
                             ids=["full", "part"])
    def test_register_written_both_ways(self, text):
        self.run(text, [9, 16, 33])

    def test_absorbed_memory_steps_as_in_closed_loop(self):
        """An absorbed clocked ``Memory``: after every open-loop batch,
        the model's complete state and the memory's words equal those
        of closed-loop hardware run the same number of half ticks."""
        text = """
Memory#(4, 8) ram();
reg [3:0] phase = 0;
reg [7:0] acc = 1;
assign ram.clk = clk.val;
assign ram.wen = phase[0];
assign ram.waddr = phase;
assign ram.wdata = acc + 8'd7;
assign ram.raddr = phase + 4'd3;
always @(posedge clk.val) begin
  phase <= phase + 1;
  acc <= (acc << 1) ^ ram.rdata;
  if (phase == 4'd9) $display("acc %0d", acc);
end
assign led.val = acc;
"""

        def runtime(**kwargs):
            rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                         **kwargs)
            rt.eval_source(text)
            return rt

        def state(rt):
            model = rt.engines["main"].model
            return ({k: v[:] if isinstance(v, list) else v
                     for k, v in vars(model).items()},
                    rt.engines["ram"].words[:])

        batches = []
        real = HardwareEngine.open_loop

        def record(engine, steps):
            start = rt.iterations
            done = real(engine, steps)
            batches.append((start, done, state(rt)))
            return done

        rt = runtime()
        with mock.patch.object(HardwareEngine, "open_loop", record):
            rt.run(iterations=1000)
        assert "ram" in rt.absorbed and len(batches) > 20
        assert max(done for _, done, _ in batches) == 32
        closed = runtime(enable_open_loop=False)
        for start, done, snapshot in batches:
            closed.run(iterations=start - closed.iterations)
            closed.run(iterations=done)
            assert state(closed) == snapshot
        assert closed.engines["ram"].words != [0] * 16
        assert rt.output_lines == closed.output_lines

    def test_one_schedule_for_the_model_and_every_kernel(self,
                                                          monkeypatch):
        built = count_schedules(monkeypatch)
        compiled = compile_design(elaborate_leaf(parse_module("""
module two(input wire clk, input wire clk2, input wire [3:0] a,
           output wire [7:0] y);
  reg [7:0] q = 0;
  reg [7:0] r = 0;
  reg [7:0] m [0:3];
  function [7:0] sq;
    input [3:0] x;
    sq = x * x;
  endfunction
  assign y = sq(a) + (q ^ r) * (q + r) - (q | r) * (r - q) + m[a[1:0]];
  always @(posedge clk) begin
    q <= q + 1;
    m[q[1:0]] <= q;
  end
  always @(posedge clk2) r <= r + m[0];
endmodule""")))
        schedule = compiled.schedule
        assert built == [schedule]
        assert schedule.nba_targets and schedule.nba_array_targets
        assert schedule.tables and any(key for _, key in schedule.cones)
        fields = repr(vars(schedule))
        compiled.open_loop_kernel("v_clk")
        compiled.open_loop_kernel("v_clk2")
        assert built == [schedule]
        # Printing the model or a kernel reads the schedule only, so it
        # prints the same text again.
        again = KernelPrinter(schedule).model("CompiledModel")
        assert again == compiled.source
        assert repr(vars(schedule)) == fields

    def test_built_on_request_and_kept(self):
        compiled = compile_design(elaborate_leaf(parse_module("""
module k(input wire clk, output reg q = 0);
  always @(posedge clk) q <= ~q;
endmodule""")))
        assert not compiled._kernels
        kernel = compiled.open_loop_kernel("v_clk")
        assert compiled.open_loop_kernel("v_clk") is kernel
        # The batch's state lives in locals: between loading and
        # storing back, ``self`` is touched only to queue tasks.
        body = kernel.source.split("while done < steps:")[1]
        loop = body.split("\n    self.")[0]
        assert "self." not in loop
