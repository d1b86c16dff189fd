"""The sizing pass: every expression is sized once, at elaboration."""

import pytest

from repro.backend.pycompile import compile_design
from repro.backend.synth import synthesize
from repro.common.bits import Bits
from repro.common.errors import ElaborationError, TypeError_
from repro.interp.engine import SoftwareEngine
from repro.interp.sim import CollectingServices
from repro.verilog import ast
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.eval import const_eval
from repro.verilog.parser import parse_expr_text, parse_module
from repro.verilog.sizing import Select, size_design
from repro.verilog.visitor import walk


def design_of(text):
    return elaborate_leaf(parse_module(text))


def _rhs(design, index=0):
    return design.assigns[index].rhs


class TestAnnotations:
    def test_every_expression_is_sized(self):
        design = design_of("""
module m(input wire clk, input wire [7:0] a, output reg [7:0] q);
  function [3:0] low;
    input [7:0] v;
    reg [3:0] t;
    begin
      t = v[3:0];
      low = t;
    end
  endfunction
  wire [15:0] w = {2{a}} + low(a);
  always @(posedge clk) begin
    case (a[1:0])
      2'd0: q <= w[7:0];
      default: q <= a >> 1;
    endcase
  end
  initial #2 $display("%d", a);
endmodule""")
        roots = (list(design.assigns) + list(design.always)
                 + list(design.initials)
                 + [fn.body for fn in design.functions.values()])
        exprs = [n for root in roots for n in walk(root)
                 if isinstance(n, ast.Expr)]
        assert len(exprs) > 20
        for e in exprs:
            assert e.ctx_width >= e.width > 0

    def test_assignment_context_is_the_wider_side(self):
        design = design_of("""
module m(input wire [7:0] a, input wire [7:0] b, output wire [15:0] y,
         output wire [3:0] z);
  assign y = a + b;
  assign z = a + b;
endmodule""")
        wide, narrow = _rhs(design, 0), _rhs(design, 1)
        assert (wide.width, wide.ctx_width) == (8, 16)
        assert (wide.lhs.ctx_width, wide.rhs.ctx_width) == (16, 16)
        assert (narrow.width, narrow.ctx_width) == (8, 8)

    def test_comparison_operands_share_width_and_sign(self):
        design = design_of("""
module m(input wire signed [3:0] sa, input wire [7:0] b, output wire y);
  assign y = sa < b;
endmodule""")
        cmp = _rhs(design)
        assert (cmp.width, cmp.signed) == (1, False)
        for operand in (cmp.lhs, cmp.rhs):
            assert (operand.ctx_width, operand.ctx_signed) == (8, False)

    def test_signed_literal_takes_the_expression_sign(self):
        design = design_of("""
module m(input wire [7:0] a, output wire [15:0] y);
  assign y = a + 4'sb1111;
endmodule""")
        literal = _rhs(design).rhs
        assert literal.signed
        assert (literal.ctx_width, literal.ctx_signed) == (16, False)

    def test_function_argument_keeps_its_own_sign(self):
        design = design_of("""
module m(input wire [3:0] u, output wire [15:0] y);
  function signed [11:0] f;
    input signed [5:0] x;
    f = x * 3;
  endfunction
  assign y = f(u);
endmodule""")
        arg = _rhs(design).args[0]
        assert (arg.ctx_width, arg.ctx_signed) == (6, False)

    def test_case_group_is_sized_together(self):
        design = design_of("""
module m(input wire [1:0] s, output reg y);
  always @(*)
    case (s)
      8'd3: y = 1;
      default: y = 0;
    endcase
endmodule""")
        case = design.always[0].body
        assert case.expr.ctx_width == case.items[0].exprs[0].ctx_width == 8

    def test_constants_are_folded(self):
        design = design_of("""
module m(input wire [15:0] a, output wire [15:0] y, output wire [3:0] z);
  localparam W = 8;
  assign y = {W/4{a[W-1:W-4]}};
  assign z = a[W +: 4];
endmodule""")
        rep = _rhs(design, 0)
        assert rep.times == 2 and rep.inner.select == Select(1, 0, 16, 4)
        assert rep.width == 8
        assert _rhs(design, 1).width == 4
        assert _rhs(design, 1).select == Select(1, 0, 16, 8)

    def test_const_eval_reads_parameters(self):
        value = const_eval(parse_expr_text("P[3:0] + 1"),
                           {"P": Bits.from_int(0x1F, 8)})
        assert value.to_uint() == 0x10


class TestErrors:
    def test_undeclared_name_in_dead_code(self):
        with pytest.raises(TypeError_, match="undeclared"):
            design_of("""
module m(input wire clk);
  reg r;
  always @(posedge clk)
    if (1'b0) r <= ghost;
endmodule""")

    def test_nonconstant_part_select_bound(self):
        with pytest.raises(TypeError_, match="constant"):
            design_of("""
module m(input wire [7:0] a, input wire [2:0] i, output wire [7:0] y);
  assign y = a[i:0];
endmodule""")

    def test_wrong_argument_count(self):
        with pytest.raises(TypeError_, match="expects 1"):
            design_of("""
module m(input wire [7:0] a, output wire [7:0] y);
  function [7:0] f;
    input [7:0] x;
    f = x;
  endfunction
  assign y = f(a, a);
endmodule""")

    def test_node_sized_twice_in_different_contexts(self):
        design = design_of("""
module m(input wire [7:0] a, output wire [15:0] y, output wire [7:0] z);
  assign y = a;
  assign z = a;
endmodule""")
        design.assigns[1].rhs = design.assigns[0].rhs
        with pytest.raises(ElaborationError, match="twice"):
            size_design(design)


class TestUnsizedNodesRaise:
    """A node added after elaboration is never re-sized silently."""

    SOURCE = """
module m(input wire [7:0] a, output wire [7:0] y, output wire [7:0] z);
  assign y = a;
endmodule"""

    def _design(self):
        design = design_of(self.SOURCE)
        design.assigns.append(ast.ContinuousAssign(
            ast.Ident(["z"]), ast.Binary("+", ast.Ident(["a"]),
                                         ast.Ident(["a"]))))
        return design

    def test_interpreter(self):
        engine = SoftwareEngine(self._design(), CollectingServices())
        with pytest.raises(AttributeError):
            engine.evaluate()

    def test_compiled_model(self):
        with pytest.raises(AttributeError):
            compile_design(self._design())

    def test_netlist(self):
        with pytest.raises(AttributeError):
            synthesize(self._design())
