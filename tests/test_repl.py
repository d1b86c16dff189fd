"""The REPL controller/view and elaboration details."""

import io

import pytest

from repro.common.bits import Bits
from repro.common.errors import ElaborationError
from repro.core.repl import Repl
from repro.core.runtime import Runtime
from repro.verilog.elaborate import ModuleLibrary, elaborate
from repro.verilog.parser import parse_source


class TestRepl:
    def make(self):
        return Repl(Runtime(), run_between_inputs=16)

    def test_feed_module_then_items(self):
        repl = self.make()
        assert repl.feed("module Inc(input wire [3:0] a, "
                         "output wire [3:0] b); assign b = a + 1; "
                         "endmodule") == []
        assert repl.feed("reg [3:0] n = 0;") == []
        assert repl.feed("Inc i(.a(n), .b());") == []

    def test_feed_statement(self):
        repl = self.make()
        assert repl.feed('$display("hi");') == []
        assert "hi" in repl.runtime.output_lines

    def test_feed_error_reported_not_raised(self):
        repl = self.make()
        errors = repl.feed("wire [ = garbage;")
        assert errors
        # The running program is unharmed.
        assert repl.feed("wire ok;") == []

    def test_commands(self):
        repl = self.make()
        assert "iterations" in repl.command(":run 10")
        assert "virtual time" in repl.command(":time")
        assert "clk" in repl.command(":where")
        assert repl.command(":quit") is None
        assert "unknown" in repl.command(":bogus")

    def test_interact_loop(self):
        repl = self.make()
        stdin = io.StringIO("wire [3:0] w;\n\n:time\n:quit\n")
        stdout = io.StringIO()
        repl.interact(stdin, stdout)
        assert "virtual time" in stdout.getvalue()

    def test_feed_file(self, tmp_path):
        path = tmp_path / "prog.v"
        path.write_text("reg [3:0] n = 2;\nassign led.val = n;\n")
        repl = self.make()
        assert repl.feed_file(str(path)) == []
        assert repl.runtime.board.leds.value == 2


class TestFailedEvalRollback:
    """An eval that fails to rebuild is undone; the program runs on."""

    COUNTER = ("reg [7:0] cnt = 0; "
               "always @(posedge clk.val) cnt <= cnt + 1;")
    FOO = ("module Foo #(parameter A = 1, parameter B = 2)"
           "(output wire [7:0] q); assign q = A + B; endmodule\n")

    def _cnt(self, repl):
        assert repl.feed('$display("cnt=%0d", cnt);') == []
        lines = [line for line in repl.drain_output()
                 if line.startswith("cnt=")]
        return int(lines[-1].split("=")[1])

    @pytest.mark.parametrize("bad, message", [
        ("assign led.val = nope;", "cannot resolve 'nope'"),
        (FOO + "wire [7:0] q; Foo #(10, 20, 30) f(.q(q));",
         "too many parameter overrides for 'Foo'"),
    ])
    def test_bad_eval_is_rolled_back(self, bad, message):
        repl = Repl(Runtime(enable_jit=False), run_between_inputs=16)
        assert repl.feed(self.COUNTER) == []
        items = list(repl.runtime.root_items)
        modules = dict(repl.runtime.library.modules)
        before = self._cnt(repl)
        errors = repl.feed(bad)
        assert len(errors) == 1 and message in errors[0]
        assert repl.runtime.root_items == items
        assert repl.runtime.library.modules == modules
        assert repl.feed('$display("alive");') == []
        assert "alive" in repl.drain_output()
        assert self._cnt(repl) > before

    def test_module_of_a_failed_eval_can_be_declared_again(self):
        repl = Repl(Runtime(enable_jit=False), run_between_inputs=16)
        assert repl.feed(self.FOO + "wire [7:0] q; Foo #(.NOPE(7)) "
                         "f(.q(q));")
        assert repl.feed(self.FOO + "wire [7:0] q; "
                         "Foo #(.B(7)) f(.q(q));") == []
        assert repl.feed('$display("q=%0d", q);') == []
        assert "q=8" in repl.drain_output()


class TestCompletenessHeuristic:
    """_complete must tokenize, not substring-count: ``"module" in
    "endmodule"`` made every balanced input look unbalanced."""

    def test_simple_statement_is_complete(self):
        assert Repl._complete("x <= 1;")
        assert Repl._complete("wire [3:0] w;")

    def test_one_line_module_is_complete(self):
        assert Repl._complete(
            "module m(input wire a, output wire b); "
            "assign b = a; endmodule")
        assert Repl._complete(
            "module m(); endmodule;")

    def test_open_blocks_are_incomplete(self):
        assert not Repl._complete("module m(input wire a);")
        assert not Repl._complete("always @(posedge clk) begin")
        assert not Repl._complete(
            "case (n) 0: x = 1;")  # awaiting endcase

    def test_balanced_begin_end_completes(self):
        assert Repl._complete(
            "always @(posedge clk) begin n <= n + 1; end")
        assert Repl._complete(
            "module m(); always @(posedge clk) begin "
            "n <= n + 1; end endmodule")

    def test_keywords_inside_identifiers_do_not_count(self):
        # "backend" contains "end"; "modulex" contains "module".
        assert Repl._complete("wire backend;")
        assert Repl._complete("reg modulex = 0;")
        assert not Repl._complete("function f; backend = 1;")

    def test_casez_casex_pair_with_endcase(self):
        assert Repl._complete(
            "always @(*) casez (n) 2'b1?: y = 1; endcase")
        assert not Repl._complete("casez (n) 2'b1?: y = 1;")


class TestInteract:
    """The interactive loop, driven end-to-end through StringIO."""

    def make(self):
        return Repl(Runtime(), run_between_inputs=16)

    def _run(self, script):
        repl = self.make()
        stdin = io.StringIO(script)
        stdout = io.StringIO()
        repl.interact(stdin, stdout)
        return repl, stdout.getvalue()

    def test_multi_line_module_buffers_until_balanced(self):
        repl, out = self._run(
            "module Inc(input wire [3:0] a, output wire [3:0] b);\n"
            "assign b = a + 1;\n"
            "endmodule\n"
            "reg [3:0] n = 3;\n"
            "Inc i(.a(n), .b());\n"
            ":quit\n")
        # The module declaration submitted at 'endmodule' (balanced),
        # without needing a blank line; no errors were printed.
        assert "error:" not in out
        assert "Inc" in repl.runtime.library.modules

    def test_one_line_module_submits_immediately(self):
        repl, out = self._run(
            "module M(input wire a, output wire b); "
            "assign b = a; endmodule\n"
            ":quit\n")
        assert "error:" not in out

    def test_statement_and_output(self):
        _, out = self._run('$display("ping");\n:quit\n')
        assert "ping" in out

    def test_commands_and_blank_line_submission(self):
        _, out = self._run(
            "wire t_clk;\n"
            "reg [3:0] r = 0;\n"
            "always @(posedge t_clk) begin\n"
            "r <= r + 1;\n"
            "end\n"
            "\n"
            ":time\n"
            ":stats\n"
            ":quit\n")
        assert "virtual time" in out
        assert "reliability:" in out

    def test_unknown_command_reported(self):
        _, out = self._run(":bogus\n:quit\n")
        assert "unknown command" in out

    def test_eof_ends_loop(self):
        _, out = self._run("wire w;\n")
        assert "CASCADE >>>" in out


class TestElaboration:
    def test_full_hierarchy_flattening(self):
        src = parse_source("""
module Leaf(input wire [3:0] a, output wire [3:0] b);
  assign b = a + 1;
endmodule
module Top(input wire [3:0] x, output wire [3:0] y);
  wire [3:0] mid;
  Leaf l1(.a(x), .b(mid));
  Leaf l2(.a(mid), .b(y));
endmodule""")
        library = ModuleLibrary(src.modules)
        design = elaborate(library.get("Top"), library)
        assert "l1.a" in design.vars and "l2.b" in design.vars

    def test_parameter_defaults_and_dependent(self):
        src = parse_source("""
module P #(parameter W = 4, parameter D = W * 2)();
  wire [D-1:0] bus;
endmodule""")
        library = ModuleLibrary(src.modules)
        design = elaborate(library.get("P"), library)
        assert design.vars["bus"].width == 8
        design2 = elaborate(library.get("P"), library,
                            {"W": Bits.from_int(3, 32)})
        assert design2.vars["bus"].width == 6

    def test_localparam_not_overridable(self):
        src = parse_source("""
module L();
  localparam K = 7;
endmodule""")
        library = ModuleLibrary(src.modules)
        with pytest.raises(ElaborationError):
            elaborate(library.get("L"), library,
                      {"K": Bits.from_int(1, 32)})

    def test_recursive_instantiation_bounded(self):
        src = parse_source("""
module R();
  R inner();
endmodule""")
        library = ModuleLibrary(src.modules)
        with pytest.raises(ElaborationError):
            elaborate(library.get("R"), library)

    def test_duplicate_declaration(self):
        src = parse_source("""
module D();
  wire w;
  reg w;
endmodule""")
        library = ModuleLibrary(src.modules)
        with pytest.raises(ElaborationError):
            elaborate(library.get("D"), library)

    def test_stats(self):
        src = parse_source("""
module S(input wire clk);
  reg [3:0] a;
  always @(posedge clk) begin
    a <= a + 1;
    $display("%0d", a);
  end
  always @(*) begin
    ;
  end
endmodule""")
        library = ModuleLibrary(src.modules)
        design = elaborate(library.get("S"), library)
        stats = design.stats()
        assert stats["always_blocks"] == 2
        assert stats["nonblocking_assigns"] == 1
        assert stats["display_statements"] == 1
