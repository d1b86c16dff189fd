"""Interpreter behaviour: processes, scheduling, memories, monitors."""

import pytest

from repro.common.errors import EvalError
from repro.core.runtime import Runtime
from repro.interp.sim import Simulator, simulate_source


class TestProceduralSemantics:
    def test_nonblocking_swap(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [7:0] a = 1, b = 2;
  always #1 clk = ~clk;
  always @(posedge clk) begin
    a <= b;
    b <= a;
  end
  initial begin
    #4 $display("%0d %0d", a, b);
    $finish;
  end
endmodule""")
        assert out == ["1 2"]  # two swaps = identity

    def test_blocking_does_not_swap(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [7:0] a = 1, b = 2;
  always #1 clk = ~clk;
  always @(posedge clk) begin
    a = b;
    b = a;
  end
  initial begin
    #2 $display("%0d %0d", a, b);
    $finish;
  end
endmodule""")
        assert out == ["2 2"]

    def test_last_nba_wins(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [7:0] a = 0;
  always #1 clk = ~clk;
  always @(posedge clk) begin
    a <= 1;
    a <= 2;
  end
  initial begin
    #2 $display("%0d", a);
    $finish;
  end
endmodule""")
        assert out == ["2"]

    def test_while_and_repeat(self):
        out = simulate_source("""
module t;
  integer i;
  reg [7:0] n;
  initial begin
    n = 0;
    i = 0;
    while (i < 5) begin
      n = n + 2;
      i = i + 1;
    end
    repeat (3)
      n = n + 1;
    $display("%0d", n);
    $finish;
  end
endmodule""")
        assert out == ["13"]

    def test_forever_with_delay(self):
        out = simulate_source("""
module t;
  reg [7:0] n = 0;
  initial forever begin
    #1 n = n + 1;
  end
  initial begin
    #5;
    $display("%0d", n);
    $finish;
  end
endmodule""")
        assert out in (["4"], ["5"])  # race between #5 and 5th #1

    def test_runaway_loop_detected(self):
        with pytest.raises(EvalError):
            simulate_source("""
module t;
  reg [7:0] n = 0;
  initial while (1) n = n + 1;
endmodule""")

    def test_runaway_loop_detected_on_runtime(self):
        rt = Runtime()
        with pytest.raises(EvalError, match="budget"):
            rt.eval_source("reg [7:0] n = 0;\n"
                           "initial while (1) n = n + 1;\n")
            rt.run(iterations=5)

    def test_delay_nested_in_loop_if_and_case(self):
        out = simulate_source("""
module t;
  integer i;
  reg [1:0] k = 0;
  initial begin
    for (i = 0; i < 3; i = i + 1) begin
      if (i != 1) #1 $display("a%0d t=%0d", i, $time);
      else begin
        case (k)
          2'd0: #1 $display("case t=%0d", $time);
          default: $display("never");
        endcase
      end
    end
    $finish;
  end
  initial begin
    #1 $display("b1 t=%0d", $time);
    #1 $display("b2 t=%0d", $time);
  end
endmodule""")
        assert out == ["a0 t=1", "b1 t=1", "case t=2", "b2 t=2", "a2 t=3"]

    def test_function_locals_start_at_x_on_every_call(self):
        out = simulate_source("""
module t;
  reg [7:0] r1, r2;
  function [7:0] f;
    input [7:0] a;
    reg [7:0] acc;
    begin
      f = acc;
      acc = a;
    end
  endfunction
  initial begin
    r1 = f(8'd3);
    r2 = f(8'd4);
    $display("%b %b", r1, r2);
    $finish;
  end
endmodule""")
        assert out == ["xxxxxxxx xxxxxxxx"]

    def test_function_writes_local_through_dynamic_select(self):
        out = simulate_source("""
module t;
  function [7:0] setbit;
    input [7:0] v;
    input [2:0] i;
    reg [7:0] tmp;
    begin
      tmp = v;
      tmp[i] = 1'b1;
      tmp[i + 1 +: 2] = 2'b00;
      setbit = tmp;
    end
  endfunction
  initial begin
    $display("%b %b %b", setbit(8'h00, 3'd2), setbit(8'hff, 3'd7),
             setbit(8'hf0, 3'bx01));
    $finish;
  end
endmodule""")
        # In range; past the top (lost); an x index (lost).
        assert out == ["00000100 11111111 11110000"]

    def test_named_block(self):
        out = simulate_source("""
module t;
  initial begin : named
    $display("ok");
    $finish;
  end
endmodule""")
        assert out == ["ok"]

    def test_event_statement_in_initial(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  always #1 clk = ~clk;
  initial begin
    @(posedge clk);
    @(posedge clk);
    $display("t=%0d", $time);
    $finish;
  end
endmodule""")
        assert out == ["t=3"]


class TestCaseStatements:
    def test_case_priority(self):
        out = simulate_source("""
module t;
  reg [1:0] s = 2;
  initial begin
    case (s)
      0: $display("zero");
      1: $display("one");
      2: $display("two");
      default: $display("other");
    endcase
    $finish;
  end
endmodule""")
        assert out == ["two"]

    def test_casez_wildcards(self):
        out = simulate_source("""
module t;
  reg [3:0] s = 4'b1010;
  initial begin
    casez (s)
      4'b0???: $display("low");
      4'b1?1?: $display("match");
      default: $display("other");
    endcase
    $finish;
  end
endmodule""")
        assert out == ["match"]

    def test_case_with_x_selector_hits_exact_arm(self):
        out = simulate_source("""
module t;
  reg [1:0] s;
  initial begin
    case (s)
      2'b0x: $display("wrong");
      2'bxx: $display("allx");
      default: $display("default");
    endcase
    $finish;
  end
endmodule""")
        assert out == ["allx"]

    def test_multiple_labels(self):
        out = simulate_source("""
module t;
  reg [3:0] s = 7;
  initial begin
    case (s)
      1, 3, 5, 7, 9: $display("odd");
      default: $display("even");
    endcase
    $finish;
  end
endmodule""")
        assert out == ["odd"]


class TestMemories:
    def test_memory_write_read(self):
        out = simulate_source("""
module t;
  reg [31:0] mem [0:15];
  integer i;
  initial begin
    for (i = 0; i < 16; i = i + 1)
      mem[i] = i * i;
    $display("%0d %0d", mem[3], mem[15]);
    $finish;
  end
endmodule""")
        assert out == ["9 225"]

    def test_out_of_range_read_is_x(self):
        out = simulate_source("""
module t;
  reg [7:0] mem [0:3];
  initial begin
    $display("%b", mem[9]);
    $finish;
  end
endmodule""")
        assert out == ["xxxxxxxx"]

    def test_out_of_range_write_discarded(self):
        out = simulate_source("""
module t;
  reg [7:0] mem [0:3];
  initial begin
    mem[0] = 1;
    mem[9] = 5;
    $display("%0d", mem[0]);
    $finish;
  end
endmodule""")
        assert out == ["1"]

    def test_memory_element_bit_select(self):
        out = simulate_source("""
module t;
  reg [7:0] mem [0:3];
  initial begin
    mem[2] = 8'b0100_0000;
    $display("%0d", mem[2][6]);
    $finish;
  end
endmodule""")
        assert out == ["1"]

    def test_nonblocking_array_write(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [7:0] mem [0:3];
  always #1 clk = ~clk;
  always @(posedge clk)
    mem[1] <= 8'd42;
  initial begin
    #2 $display("%0d", mem[1]);
    $finish;
  end
endmodule""")
        assert out == ["42"]


class TestLValues:
    def test_concat_lvalue(self):
        out = simulate_source("""
module t;
  reg c;
  reg [7:0] s;
  initial begin
    {c, s} = 9'd300;
    $display("%0d %0d", c, s);
    $finish;
  end
endmodule""")
        assert out == ["1 44"]

    def test_part_select_lvalue(self):
        out = simulate_source("""
module t;
  reg [15:0] r = 0;
  initial begin
    r[11:4] = 8'hFF;
    $display("%0h", r);
    $finish;
  end
endmodule""")
        assert out == ["ff0"]

    def test_dynamic_bit_lvalue(self):
        out = simulate_source("""
module t;
  reg [7:0] r = 0;
  integer i;
  initial begin
    for (i = 0; i < 8; i = i + 2)
      r[i] = 1;
    $display("%b", r);
    $finish;
  end
endmodule""")
        assert out == ["01010101"]


class TestDisplayFormatting:
    def test_hex_binary_octal(self):
        out = simulate_source("""
module t;
  reg [7:0] v = 8'hA5;
  initial begin
    $display("%h %b %o %d", v, v, v, v);
    $finish;
  end
endmodule""")
        assert out == ["a5 10100101 245 165"]

    def test_write_concatenates(self):
        out = simulate_source("""
module t;
  initial begin
    $write("a");
    $write("b");
    $display("c");
    $finish;
  end
endmodule""")
        assert out == ["abc"]

    def test_percent_escape(self):
        out = simulate_source("""
module t;
  initial begin
    $display("100%% done");
    $finish;
  end
endmodule""")
        assert out == ["100% done"]

    def test_monitor(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [3:0] n = 0;
  always #1 clk = ~clk;
  always @(posedge clk) n <= n + 1;
  initial begin
    $monitor("n=%0d", n);
    #6 $finish;
  end
endmodule""")
        assert out[:3] == ["n=0", "n=1", "n=2"]

    def test_monitor_prints_each_change_once(self):
        out = simulate_source("""
module t;
  reg clk = 0;
  reg [3:0] n = 0;
  reg signed [3:0] s = -2;
  always #1 clk = ~clk;
  always @(posedge clk) begin
    n <= n + 1;
    s <= s + 1;
  end
  initial begin
    $monitor("n=%0d s=%0d x=%b", n, s, n[3] ? 1'bx : n[0]);
    #17 $finish;
  end
endmodule""")
        assert out == [f"n={n} s={n - 2} x={'x' if n > 7 else n & 1}"
                       for n in range(10)]


class TestSimulatorDriver:
    def test_poke_peek(self):
        sim = Simulator.from_source("""
module top(input wire [7:0] a, input wire [7:0] b,
           output wire [8:0] s);
  assign s = a + b;
endmodule""", top="top")
        sim.poke("a", 200)
        sim.poke("b", 100)
        assert sim.peek_int("s") == 300

    def test_step_clock(self):
        sim = Simulator.from_source("""
module top(input wire clk, output reg [7:0] q);
  always @(posedge clk) q <= q + 1;
endmodule""", top="top")
        sim.poke("clk", 0)
        sim.engine.set_state({"q": __import__(
            "repro.common.bits", fromlist=["Bits"]).Bits.from_int(0, 8)})
        sim.step_clock("clk", 5)
        assert sim.peek_int("q") == 5

    def test_finish_code(self):
        sim = Simulator.from_source("""
module t;
  initial $finish;
endmodule""")
        sim.run()
        assert sim.engine.finished == 0
