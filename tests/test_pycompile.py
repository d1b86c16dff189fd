"""Differential tests: interpreter vs compiled model vs netlist.

The compiled model is our stand-in for the bitstream, so it must agree
bit-for-bit with the reference interpreter on two-state synthesizable
designs — this file drives both from the same stimuli and compares.
Combinational rows also step the gate-level netlist from
:func:`repro.backend.synth.synthesize`, so all three tiers agree on
every width and sign.
"""

import random

import pytest

from repro.backend.pycompile import compile_design
from repro.backend.synth import synthesize
from repro.common.bits import Bits
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
    compiled = compile_design(elaborate_leaf(module)).instantiate()
    done = compiled.open_loop("v_clk", 100)
    assert compiled._finished == 0
    assert done < 100


def test_open_loop_matches_stepped_execution():
    module = parse_module("""
module c(input wire clk, output reg [15:0] q);
  always @(posedge clk) q <= q + 3;
endmodule""")
    design = elaborate_leaf(module)
    a = compile_design(design).instantiate()
    b = compile_design(design).instantiate()
    a.open_loop("v_clk", 20)  # 20 half-cycles = 10 posedges
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
