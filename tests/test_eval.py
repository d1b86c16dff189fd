"""Expression-evaluation semantics (context-determined sizing, sign,
part selects) checked through the reference simulator."""

import pytest

from repro.interp.sim import simulate_source


def eval_expr(decl: str, expr: str, fmt: str = "%0d") -> str:
    """Evaluate one expression in an initial block and return the
    $display output."""
    out = simulate_source(f"""
module t;
{decl}
  initial begin
    $display("{fmt}", {expr});
    $finish;
  end
endmodule""")
    return out[0]


class TestContextSizing:
    def test_carry_preserved_by_lhs_width(self):
        # 8-bit + 8-bit assigned to 9-bit keeps the carry.
        out = simulate_source("""
module t;
  reg [7:0] a = 200, b = 100;
  reg [8:0] s;
  initial begin
    s = a + b;
    $display("%0d", s);
    $finish;
  end
endmodule""")
        assert out == ["300"]

    def test_carry_lost_at_lhs_width(self):
        out = simulate_source("""
module t;
  reg [7:0] a = 200, b = 100, s;
  initial begin
    s = a + b;
    $display("%0d", s);
    $finish;
  end
endmodule""")
        assert out == ["44"]

    def test_shift_in_wide_context(self):
        out = simulate_source("""
module t;
  reg [7:0] a = 8'hFF;
  reg [15:0] s;
  initial begin
    s = a << 4;
    $display("%0h", s);
    $finish;
  end
endmodule""")
        assert out == ["ff0"]

    def test_comparison_operands_sized_to_max(self):
        assert eval_expr("reg [3:0] a = 15; reg [7:0] b = 15;",
                         "a == b") == "1"

    def test_concat_is_self_determined(self):
        assert eval_expr("reg [3:0] a = 4'hA; reg [3:0] b = 4'hB;",
                         "{a, b}", "%0h") == "ab"

    def test_replication(self):
        assert eval_expr("reg [1:0] a = 2'b10;", "{3{a}}", "%b") \
            == "101010"

    def test_ternary_width_max_of_arms(self):
        out = simulate_source("""
module t;
  reg c = 0;
  reg [3:0] a = 15;
  reg [7:0] b = 16;
  reg [8:0] s;
  initial begin
    s = (c ? a : b) + 8'd250;
    $display("%0d", s);
    $finish;
  end
endmodule""")
        assert out == ["266"]


class TestSignedness:
    def test_signed_comparison(self):
        assert eval_expr(
            "reg signed [7:0] a = -1; reg signed [7:0] b = 1;",
            "a < b") == "1"

    def test_unsigned_contagion(self):
        # One unsigned operand makes the comparison unsigned.
        assert eval_expr(
            "reg signed [7:0] a = -1; reg [7:0] b = 1;", "a < b") == "0"

    def test_signed_function(self):
        assert eval_expr("reg [7:0] a = 8'hFF;", "$signed(a)") == "-1"

    def test_unsigned_function(self):
        assert eval_expr("reg signed [7:0] a = -1;",
                         "$unsigned(a)") == "255"

    def test_arithmetic_right_shift(self):
        assert eval_expr("reg signed [7:0] a = -8;", "a >>> 1") == "-4"

    def test_logical_right_shift_on_signed_op(self):
        assert eval_expr("reg signed [7:0] a = -8;", "a >> 1") == "124"

    def test_signed_extension_on_assign(self):
        out = simulate_source("""
module t;
  reg signed [3:0] a = -2;
  reg signed [7:0] b;
  initial begin
    b = a;
    $display("%0d", b);
    $finish;
  end
endmodule""")
        assert out == ["-2"]

    def test_signed_literal_in_unsigned_expression(self):
        # The expression is unsigned, so the literal is zero-extended.
        assert eval_expr("reg [7:0] a = 1;", "a + 4'sb1111") == "16"

    def test_signed_cast_in_unsigned_expression(self):
        assert eval_expr("reg [7:0] a = 0;",
                         "$signed(4'b1111) + a") == "15"

    def test_case_with_one_unsigned_member_is_unsigned(self):
        out = simulate_source("""
module t;
  reg signed [3:0] s = -1;
  initial begin
    case (s)
      8'hFF: $display("sign-extended");
      8'h0F: $display("zero-extended");
    endcase
    $finish;
  end
endmodule""")
        assert out == ["zero-extended"]

    def test_signed_division_truncates(self):
        assert eval_expr("reg signed [7:0] a = -7; "
                         "reg signed [7:0] b = 2;", "a / b") == "-3"

    def test_modulo_follows_dividend(self):
        assert eval_expr("reg signed [7:0] a = -7; "
                         "reg signed [7:0] b = 2;", "a % b") == "-1"


class TestSelects:
    def test_bit_select(self):
        assert eval_expr("reg [7:0] a = 8'b10000000;", "a[7]") == "1"

    def test_part_select(self):
        assert eval_expr("reg [15:0] a = 16'habcd;", "a[11:4]",
                         "%0h") == "bc"

    def test_indexed_part_select_up(self):
        assert eval_expr("reg [15:0] a = 16'habcd; reg [3:0] i = 4;",
                         "a[i +: 8]", "%0h") == "bc"

    def test_indexed_part_select_down(self):
        assert eval_expr("reg [15:0] a = 16'habcd; reg [3:0] i = 11;",
                         "a[i -: 8]", "%0h") == "bc"

    def test_ascending_range_declaration(self):
        assert eval_expr("reg [0:7] a = 8'b10000000;", "a[0]") == "1"

    def test_out_of_range_select_is_x(self):
        assert eval_expr("reg [7:0] a = 0; reg [7:0] i = 200;",
                         "a[i]", "%b") == "x"

    def test_nonconstant_lsb_of_vector_via_shift(self):
        assert eval_expr("reg [7:0] a = 8'h42; reg [2:0] i = 4;",
                         "(a >> i) & 8'hF", "%0h") == "4"


class TestXZPropagation:
    def test_x_in_arith(self):
        assert eval_expr("reg [3:0] a; reg [3:0] b = 1;", "a + b",
                         "%b") == "xxxx"

    def test_x_equality_is_x(self):
        assert eval_expr("reg [3:0] a; reg [3:0] b = 1;", "a == b",
                         "%b") == "x"

    def test_case_equality_with_x(self):
        assert eval_expr("reg [3:0] a;", "a === 4'bxxxx") == "1"

    def test_definite_zero_and(self):
        assert eval_expr("reg [3:0] a;", "a & 4'b0000", "%b") == "0000"


class TestXResultSign:
    """An x result keeps its expression's sign, so ``>>>`` fills with
    its (unknown) MSB (IEEE 1364-2005 §5.1.13, §5.5)."""

    DECL = ("reg signed [7:0] a = -8, b = -16, z = 0, xs = 8'bx; "
            "reg c = 1'bx;")

    def test_ambiguous_ternary_merge(self):
        assert eval_expr(self.DECL, "(c ? a : b) >>> 1", "%b") \
            == "11111x00"

    def test_arithmetic_on_merge(self):
        assert eval_expr(self.DECL, "((c ? a : b) + 8'sd0) >>> 1", "%b") \
            == "xxxxxxxx"

    def test_negated_x(self):
        assert eval_expr(self.DECL, "(-xs) >>> 1", "%b") == "xxxxxxxx"

    def test_division_by_zero(self):
        assert eval_expr(self.DECL, "(a / z) >>> 1", "%b") == "xxxxxxxx"
        assert eval_expr(self.DECL, "(a % z) >>> 1", "%b") == "xxxxxxxx"


class TestSystemFunctions:
    def test_clog2(self):
        assert eval_expr("", "$clog2(256)") == "8"
        assert eval_expr("", "$clog2(255)") == "8"
        assert eval_expr("", "$clog2(1)") == "0"

    def test_bits(self):
        assert eval_expr("reg [14:0] a;", "$bits(a)") == "15"

    def test_time_advances(self):
        out = simulate_source("""
module t;
  initial begin
    #5 $display("%0d", $time);
    $finish;
  end
endmodule""")
        assert out == ["5"]

    def test_random_deterministic(self):
        out1 = simulate_source("""
module t;
  initial begin
    $display("%0d", $random);
    $finish;
  end
endmodule""")
        out2 = simulate_source("""
module t;
  initial begin
    $display("%0d", $random);
    $finish;
  end
endmodule""")
        assert out1 == out2


class TestFunctions:
    def test_function_call(self):
        out = simulate_source("""
module t;
  function [7:0] double;
    input [7:0] x;
    double = x << 1;
  endfunction
  initial begin
    $display("%0d", double(21));
    $finish;
  end
endmodule""")
        assert out == ["42"]

    def test_argument_extended_by_its_own_type(self):
        # An unsigned 8 assigned to a signed 6-bit input stays 8.
        out = simulate_source("""
module t;
  reg [3:0] u = 8;
  function signed [11:0] f;
    input signed [5:0] x;
    f = x * 3;
  endfunction
  initial begin
    $display("%0d %0d", f(u), f(4'sb1000));
    $finish;
  end
endmodule""")
        assert out == ["24 -24"]

    def test_function_with_locals_and_loop(self):
        out = simulate_source("""
module t;
  function [7:0] popcount;
    input [7:0] x;
    integer i;
    begin
      popcount = 0;
      for (i = 0; i < 8; i = i + 1)
        popcount = popcount + x[i];
    end
  endfunction
  initial begin
    $display("%0d", popcount(8'b1011_0110));
    $finish;
  end
endmodule""")
        assert out == ["5"]

    def test_recursive_reference_returns_value(self):
        out = simulate_source("""
module t;
  function [7:0] addsat;
    input [7:0] a;
    input [7:0] b;
    begin
      addsat = a + b;
      if (addsat < a)
        addsat = 8'hFF;
    end
  endfunction
  initial begin
    $display("%0d", addsat(200, 100));
    $finish;
  end
endmodule""")
        assert out == ["255"]
