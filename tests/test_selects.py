"""Bit, part and word selects: one physical map on every tier.

Sizing maps each select to physical bits (or memory words) once; the
interpreter, the compiled model and synthesis apply that map.  Each row
below is a program whose select needs the map to get right: a signed
index, a non-zero or negative lsb, an ascending range, a ``-:`` select,
a memory word range, a function port's declared range, or a select
that reaches partly outside its base, where only the in-range bits are
read and written (IEEE 1364-2005 §5.2.1).  The interpreter and the
compiled model must both give the IEEE value (x read as 0); a
combinational row also steps the netlist, which must agree or refuse
the design with ``SynthesisError``.
"""

import pytest

from repro.common.bits import Bits
from repro.common.errors import SynthesisError
from repro.interp.sim import Simulator
from tests.test_pycompile import run_both

# (name, program, constant inputs, outputs, IEEE values).
# Sequential rows (with a clock) settle their registers first and are
# read after a few clock edges; combinational rows are read directly.
ROWS = [
    # An index is read with its own sign, on every read and write.
    ("signed-index", """
module t(input wire clk, output reg [7:0] q, output reg b,
         output reg [1:0] p);
  reg [3:-4] r = 0;
  reg signed [3:0] i = -2;
  always @(posedge clk) begin
    r[i] = 1;
    b <= r[i];
    p <= r[i +: 2];
    q <= r;
  end
endmodule""", {}, ["q", "b", "p"], (4, 1, 1)),
    ("signed-index-write", """
module t(input wire clk, output reg [3:-4] q = 0);
  reg signed [3:0] j = -1;
  always @(posedge clk) q[j] <= 1;
endmodule""", {}, ["q"], (8,)),
    # A write reaching past either end changes only its in-range bits.
    ("partial-write", """
module t(input wire clk, output reg [7:0] r = 0, output reg [7:0] s = 0);
  reg [3:0] i = 7;
  reg signed [3:0] j = -1;
  always @(posedge clk) begin
    r[i +: 2] <= 2'b01;
    s[j +: 2] <= 2'b10;
  end
endmodule""", {}, ["r", "s"], (128, 1)),
    # A read reaching below bit 0 reads x there ({1, x}).
    ("partial-read", """
module t(input wire [7:0] a, input wire [3:0] i, output wire [1:0] y);
  assign y = a[i -: 2];
endmodule""", {"a": 0xFF, "i": 0}, ["y"], (2,)),
    # The netlist honours "-:" and a non-zero lsb, or refuses them.
    ("netlist-minus", """
module t(input wire [7:0] a, input wire [3:0] i, output wire [1:0] y);
  assign y = a[i -: 2];
endmodule""", {"a": 0x04, "i": 2}, ["y"], (2,)),
    ("netlist-lsb", """
module t(input wire [7:0] a, input wire [3:0] i, output wire [1:0] y);
  wire [3:-4] b = a;
  assign y = b[i +: 2];
endmodule""", {"a": 0x0C, "i": 2}, ["y"], (0,)),
    # An identity map goes to gates; index bits past the msb clear it.
    ("index-past-msb", """
module t(input wire [7:0] a, input wire [3:0] i, output wire [2:0] y);
  assign y = {a[i], a[i +: 2]};
endmodule""", {"a": 0xFF, "i": 9}, ["y"], (0,)),
    # A function port keeps its declared range.
    ("function-port-range", """
module t(input wire [7:0] a, output wire y);
  function f;
    input [0:7] x;
    f = x[0];
  endfunction
  assign y = f(a);
endmodule""", {"a": 0x80}, ["y"], (1,)),
    # Ascending ranges: b[4 +: 2] is {b[4], b[5]}.
    ("ascending-read", """
module t(input wire [7:0] a, input wire [3:0] i, output wire [1:0] y);
  wire [0:7] b = a;
  assign y = b[i +: 2];
endmodule""", {"a": 0x0C, "i": 4}, ["y"], (3,)),
    # r[7 +: 2] is {r[7], r[8]}; r[7] is the least significant bit.
    ("ascending-write", """
module t(input wire clk, output reg [0:7] r = 0);
  reg [3:0] i = 7;
  always @(posedge clk) r[i +: 2] <= 2'b10;
endmodule""", {}, ["r"], (1,)),
    # Word ranges: a narrow signed index -1 is no word of m, and a bit
    # select of a word uses the word's declared range.
    ("memory-ascending-words", """
module t(input wire clk, output reg [7:0] q = 0, output reg [7:0] z = 0);
  reg [7:0] m [1:4];
  reg signed [1:0] k = -1;
  always @(posedge clk) begin
    m[1] <= 8'd11;
    m[2] <= 8'd22;
    m[3] <= 8'd33;
    m[4] <= 8'd44;
    m[k] <= 8'd99;
    q <= m[3];
    z <= m[k];
  end
endmodule""", {}, ["q", "z"], (33, 0)),
    ("memory-descending-words", """
module t(input wire clk, output reg [3:0] q = 0, output reg b = 0);
  reg [7:4] m [4:1];
  reg [2:0] w = 2;
  reg [2:0] j = 5;
  always @(posedge clk) begin
    m[1] <= 4'h1;
    m[2] <= 4'h2;
    m[3] <= 4'h4;
    m[4] <= 4'h8;
    q <= m[w];
    b <= m[w][j];
  end
endmodule""", {}, ["q", "b"], (2, 1)),
]

# Combinational rows whose selects map to gates.
GATE_LEVEL = {"index-past-msb", "function-port-range"}


@pytest.mark.parametrize("name,text,inputs,outputs,want",
                         [pytest.param(*row, id=row[0]) for row in ROWS])
def test_select_reads_and_writes_ieee_bits(name, text, inputs, outputs,
                                           want):
    def stimuli(cycle, rng):
        return inputs

    combinational = "clk" not in text
    try:
        traces = run_both(text, stimuli, outputs, cycles=3,
                          netlist=combinational)
    except SynthesisError:
        assert name not in GATE_LEVEL, f"{name}: not synthesized"
        traces = run_both(text, stimuli, outputs, cycles=3)
    for tier, trace in zip(("interpreter", "compiled", "netlist"), traces):
        assert trace[-1] == want, f"{name}: {tier}"


def test_partial_read_is_x_below_bit_zero():
    sim = Simulator.from_source("""
module t(input wire [7:0] a, input wire [3:0] i, output wire [1:0] y);
  assign y = a[i -: 2];
endmodule""", top="t")
    sim.poke("a", 0xFF)
    sim.poke("i", 0)
    y = sim.engine.peek("y")
    assert (y.aval, y.bval) == (0b11, 0b01)   # {1, x}


def test_function_port_keeps_its_range():
    sim = Simulator.from_source("""
module t(output wire y, output wire z);
  function f;
    input [0:7] x;
    f = x[0];
  endfunction
  reg [0:7] r = 8'b1000_0000;
  assign y = f(8'b1000_0000);
  assign z = r[0];
endmodule""", top="t")
    sim.run()
    assert (sim.peek_int("y"), sim.peek_int("z")) == (1, 1)


def test_function_local_writes_keep_their_range():
    sim = Simulator.from_source("""
module t(output wire [7:0] y);
  function [0:7] f;
    input [2:0] n;
    begin
      f = 0;
      f[n] = 1;
    end
  endfunction
  assign y = f(3'd1);
endmodule""", top="t")
    sim.run()
    assert sim.peek("y") == Bits.from_int(0b0100_0000, 8)
