"""The Cascade IR: port promotion, flattening, inlining, nets."""

import re

import pytest

from repro.common.errors import ElaborationError, TypeError_
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.ir.build import build_ir
from repro.stdlib.components import STDLIB_MODULE_NAMES, stdlib_modules
from repro.verilog import ast
from repro.verilog.elaborate import ModuleLibrary, elaborate, elaborate_leaf
from repro.verilog.parser import parse_module, parse_source
from repro.verilog.printer import module_to_str


def make_library(*texts):
    library = ModuleLibrary(stdlib_modules())
    for text in texts:
        for m in parse_source(text).modules:
            library.declare(m)
    return library


def root_of(text):
    src = parse_source(text)
    return ast.Module("main", [], list(src.root_items))


RUNNING = """
module Rol(input wire [7:0] x, output wire [7:0] y);
  assign y = (x == 8'h80) ? 1 : (x << 1);
endmodule
"""

ROOT = """
Clock clk();
Pad#(4) pad();
Led#(8) led();
reg [7:0] cnt = 1;
Rol r(.x(cnt));
always @(posedge clk.val)
  if (pad.val == 0)
    cnt <= r.y;
assign led.val = cnt;
"""


class TestModuleGranularity:
    def test_one_subprogram_per_instance(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        assert set(program.subprograms) == {"main", "r", "clk", "pad",
                                            "led"}

    def test_figure4_port_promotion(self):
        """The root subprogram gets r_x/r_y promoted ports and the
        nested instantiation becomes assignments (Figure 4)."""
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        main = program.subprograms["main"]
        text = module_to_str(main.module_ast)
        assert "output" in text and "r_x" in text and "r_y" in text
        assert "assign r_x = cnt" in text
        assert "Rol" not in text  # no nested instantiation remains
        # Promoted names resolve only local variables.
        design = elaborate_leaf(main.module_ast)
        assert not any("." in name for name in design.vars)

    def test_net_single_driver_many_readers(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        net = program.nets["r.y"]
        assert net.driver == "r"
        assert "main" in net.readers
        clk_net = program.nets["clk.val"]
        assert clk_net.driver == "clk"

    def test_hierarchical_write_to_stdlib_input(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        net = program.nets["led.val"]
        assert net.driver == "main"
        assert "led" in net.readers

    def test_subprograms_are_standalone(self):
        """Every user subprogram elaborates as a leaf (no instances,
        no foreign names) — the IR invariant from §3.3."""
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=False)
        for sub in program.user_subprograms():
            design = elaborate_leaf(sub.module_ast)
            for port in sub.bindings:
                assert port in design.vars


class TestInlining:
    def test_user_logic_merges_into_one_subprogram(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        users = program.user_subprograms()
        assert len(users) == 1
        assert set(program.subprograms) == {"main", "clk", "pad", "led"}

    def test_inlined_names_are_prefixed(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert "r_x" in design.vars and "r_y" in design.vars

    def test_stdlib_never_inlined(self):
        library = make_library(RUNNING)
        program = build_ir(root_of(RUNNING + ROOT), library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=True)
        assert program.subprograms["led"].external

    def test_deep_hierarchy_inlines(self):
        library = make_library("""
module Leaf(input wire [3:0] a, output wire [3:0] b);
  assign b = a + 1;
endmodule
module Mid(input wire [3:0] p, output wire [3:0] q);
  wire [3:0] t;
  Leaf inner(.a(p), .b(t));
  assign q = t << 1;
endmodule
""")
        program = build_ir(root_of("""
wire [3:0] out;
Mid m(.p(4'd3), .q(out));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert "m_inner_a" in design.vars
        assert "m_q" in design.vars


REDECLARED_OUTPUT = """
module N(clk, q);
  input clk;
  output [7:0] q;
  reg [7:0] q = 3;
  always @(posedge clk) q <= q + 1;
endmodule
wire [7:0] q;
N n(.clk(clk.val), .q(q));
always @(posedge clk.val) $display("%0d", q);
"""

WIRE_INIT_OUTPUT = """
module W(a, q);
  input [7:0] a;
  output [7:0] q;
  wire [7:0] q = a + 1;
endmodule
"""

ASCENDING = """
module M(input wire [0:7] x, output wire [7:0] y);
  assign y = {x[7], x[0:6]};
endmodule
"""


def _tier_output(text, tier, inlined=True, iterations=4):
    """``$display`` output of ``text`` on one runtime tier."""
    from repro.backend.compiler import CompileService
    if tier == "interpreted":
        rt = Runtime(enable_jit=False, inline_user_logic=inlined)
    elif tier == "sw-fast":
        rt = Runtime(compile_service=CompileService(latency_scale=1e3),
                     inline_user_logic=inlined)
    else:
        rt = Runtime(compile_service=CompileService(latency_scale=0.0),
                     inline_user_logic=inlined, enable_open_loop=False)
    rt.eval_source(text)
    rt.run(iterations=0)
    for job in rt._jobs.values():
        job.codegen.result()
    rt.run(iterations=iterations)
    assert set(rt.engine_tiers().values()) == {tier, "stdlib"}
    return rt.output_lines


class TestPortDeclarations:
    def test_redeclared_output_of_an_inlined_child(self):
        """A non-ANSI output redeclared as a reg is one variable,
        whether or not its module is inlined."""
        for inlined in (True, False):
            assert _tier_output(REDECLARED_OUTPUT, "interpreted",
                                inlined, 8) == ["3", "4", "5", "6"]

    @pytest.mark.parametrize("tier,inlined", [
        ("interpreted", True), ("interpreted", False),
        ("sw-fast", True), ("hardware", True)])
    def test_redeclared_wire_keeps_its_initializer(self, tier, inlined):
        """``wire [7:0] q = a + 1;`` redeclaring an output drives it,
        inlined or not, as it does in the reference simulator."""
        from repro.interp.sim import simulate_source
        expected = simulate_source(WIRE_INIT_OUTPUT + """
module top;
  reg [7:0] r = 5;
  wire [7:0] q;
  W w(.a(r), .q(q));
  initial #1 $display("%0d", q);
endmodule
""", top="top")
        assert expected == ["6"]
        assert _tier_output(WIRE_INIT_OUTPUT + """
reg [7:0] r = 5;
wire [7:0] q;
W w(.a(r), .q(q));
always @(posedge clk.val) $display("%0d", q);
""", tier, inlined) == expected * 2

    @pytest.mark.parametrize("tier,inlined", [
        ("interpreted", True), ("interpreted", False),
        ("sw-fast", True), ("hardware", True)])
    def test_ascending_port_keeps_its_bit_order(self, tier, inlined):
        from repro.interp.sim import simulate_source
        expected = simulate_source(ASCENDING + """
module top;
  reg [7:0] r = 8'b00000011;
  wire [7:0] y;
  M m(.x(r), .y(y));
  initial #1 $display("%b", y);
endmodule
""", top="top")
        assert expected == ["10000001"]
        assert _tier_output(ASCENDING + """
reg [7:0] r = 8'b00000011;
wire [7:0] y;
M m(.x(r), .y(y));
always @(posedge clk.val) $display("%b", y);
""", tier, inlined) == expected * 2


class TestParameters:
    def test_parameter_override_specializes(self):
        library = make_library("""
module Width #(parameter W = 4)(output wire [W-1:0] v);
  assign v = {W{1'b1}};
endmodule
""")
        program = build_ir(root_of("""
wire [7:0] a;
Width#(8) w8(.v(a));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=True)
        design = elaborate_leaf(program.subprograms["main"].module_ast)
        assert design.vars["w8_v"].width == 8

    def test_two_instances_different_params(self):
        library = make_library("""
module Width #(parameter W = 4)(output wire [W-1:0] v);
  assign v = {W{1'b1}};
endmodule
""")
        program = build_ir(root_of("""
wire [2:0] a;
wire [5:0] b;
Width#(3) w3(.v(a));
Width#(6) w6(.v(b));
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=False)
        d3 = elaborate_leaf(program.subprograms["w3"].module_ast)
        d6 = elaborate_leaf(program.subprograms["w6"].module_ast)
        assert d3.vars["v"].width == 3
        assert d6.vars["v"].width == 6


class TestErrors:
    def test_unknown_module(self):
        with pytest.raises(ElaborationError):
            build_ir(root_of("Nope n();"), make_library())

    def test_duplicate_instance_names(self):
        with pytest.raises(ElaborationError):
            build_ir(root_of(RUNNING + """
reg [7:0] cnt = 0;
Rol r(.x(cnt));
Rol r(.x(cnt));
"""), make_library(RUNNING))

    def test_unresolvable_reference(self):
        with pytest.raises(TypeError_):
            build_ir(root_of("assign nothing.val = 1;"), make_library())

    def test_hierarchical_write_to_non_input(self):
        library = make_library(RUNNING)
        with pytest.raises(TypeError_):
            build_ir(root_of(RUNNING + """
reg [7:0] cnt = 0;
Rol r(.x(cnt));
assign r.y = 8'd1;
"""), library)

    def test_writing_stdlib_output_rejected(self):
        """clk.val is driven by the Clock engine; user code cannot
        drive it too (it is an output port, not an input)."""
        library = make_library(RUNNING)
        with pytest.raises(TypeError_):
            build_ir(root_of("""
Clock clk();
assign clk.val = 1;
"""), library, external=set(STDLIB_MODULE_NAMES))


class TestInternalVarPromotion:
    def test_foreign_read_of_internal_reg(self):
        """Reading a child's internal register promotes it as an
        output of the child subprogram."""
        library = make_library("""
module Counter(input wire clk);
  reg [7:0] hidden = 7;
endmodule
""")
        program = build_ir(root_of("""
Clock clk();
Counter c(.clk(clk.val));
wire [7:0] probe;
assign probe = c.hidden;
"""), library, external=set(STDLIB_MODULE_NAMES), inlined=False)
        net = program.nets["c.hidden"]
        assert net.driver == "c"
        assert "main" in net.readers
        design = elaborate_leaf(program.subprograms["c"].module_ast)
        assert design.vars["hidden"].direction == "output"


# ----------------------------------------------------------------------
# One front end: the IR and the simulator bind, size and reject alike
# ----------------------------------------------------------------------
FRONT_END_MODULES = """
module Leaf #(parameter W = 4, parameter [7:0] K = 8'd3,
              parameter YW = W * 2)
             (input wire [W-1:0] a, output wire signed [YW-1:0] y,
              output wire [K[1:0]:0] kq);
  localparam H = W / 2;
  wire [H:0] half = a[H:0];
  reg signed [YW-1:0] acc = -1;
  assign y = a + K + half + acc;
  assign kq = K;
endmodule
module Mid #(parameter N = 2)
            (input wire [N+1:0] x, output wire signed [2*N+3:0] z);
  wire signed [2*N+3:0] t;
  Leaf #(.W(N + 2)) l2(.a(x), .y(t));
  assign z = t - l2.half;
endmodule
module Foo #(parameter A = 1, parameter B = 2)(output wire [7:0] q);
  assign q = A + B;
endmodule
module Bar #(parameter W = 4)(output wire [W-1:0] r);
  assign r = 0;
endmodule
"""

LEGAL_FRONT_END = {
    "positional": """
reg [5:0] r = 5;
wire signed [11:0] y1;
Leaf #(6, 8'd7) l1(.a(r), .y(y1));
assign led.val = y1[7:0];
""",
    "named-ranged": """
reg [2:0] r = 5;
wire signed [5:0] y1;
wire [3:0] kq1;
Leaf #(.W(3), .K(9'h1ff)) l1(.a(r), .y(y1), .kq(kq1));
assign led.val = {2'b0, y1} ^ kq1;
""",
    "defaults-localparam": """
reg [3:0] r = 5;
wire signed [7:0] y1;
Leaf l1(.a(r), .y(y1));
assign led.val = y1 ^ l1.half;
""",
    "two-levels": """
reg [5:0] r = 5;
wire signed [9:0] z1;
Mid #(.N(3)) m(.x(r[4:0]), .z(z1));
assign led.val = z1[7:0] ^ m.l2.acc[7:0];
""",
}

#: The simulator's message for each program the IR used to accept.
ILLEGAL_FRONT_END = {
    "too-many-overrides": ("wire [7:0] q;\nFoo #(10, 20, 30) f(.q(q));\n",
                           "too many parameter overrides for 'Foo'"),
    "unknown-override": ("wire [7:0] q;\nFoo #(.NOPE(7)) f(.q(q));\n",
                         "module 'Foo' has no parameter(s) ['NOPE']"),
    "x-range": ("wire [3:0] r;\nBar #(4'bx) b(.r(r));\n",
                "port 'r' range has x/z bits"),
}


def _front_end(text):
    src = parse_source(FRONT_END_MODULES + text + "Led#(8) led();\n",
                       "<eval>")
    library = ModuleLibrary(stdlib_modules())
    for module in src.modules:
        library.declare(module)
    return ast.Module("main", [], list(src.root_items)), library


class TestFrontEndAgreement:
    @pytest.mark.parametrize("inlined", [False, True])
    @pytest.mark.parametrize("name", sorted(LEGAL_FRONT_END))
    def test_net_widths_match_the_elaborated_design(self, name, inlined):
        root, library = _front_end(LEGAL_FRONT_END[name])
        design = elaborate(root, library)
        program = build_ir(root, library,
                           external=set(STDLIB_MODULE_NAMES),
                           inlined=inlined)
        assert program.nets
        for net in program.nets.values():
            path, var = net.name.rsplit(".", 1)
            full = var if path == "main" else f"{path}.{var}"
            elaborated = design.vars[full]
            assert (net.width, net.signed) == \
                (elaborated.width, elaborated.signed), net.name
        for sub in program.user_subprograms():
            leaf = elaborate_leaf(sub.module_ast)
            for port, (net_name, _) in sub.bindings.items():
                net = program.nets[net_name]
                assert (leaf.vars[port].width, leaf.vars[port].signed) \
                    == (net.width, net.signed), (sub.name, port)

    @pytest.mark.parametrize("name", sorted(ILLEGAL_FRONT_END))
    def test_illegal_programs_fail_alike(self, name):
        text, message = ILLEGAL_FRONT_END[name]
        root, library = _front_end(text)
        with pytest.raises(ElaborationError, match=re.escape(message)) \
                as simulated:
            elaborate(root, library)
        for inlined in (False, True):
            with pytest.raises(ElaborationError) as built:
                build_ir(root, library,
                         external=set(STDLIB_MODULE_NAMES),
                         inlined=inlined)
            assert str(built.value) == str(simulated.value)
        repl = Repl(Runtime(enable_jit=False))
        assert repl.feed(FRONT_END_MODULES + text) == \
            [str(simulated.value)]
