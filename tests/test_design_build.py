"""The sized design each user subprogram runs, built in one pass.

``build_ir`` hands every user subprogram the :class:`Design` its engines
run.  These tests hold that design to the stand-alone-leaf contract of
the IR: it equals what :func:`elaborate_leaf` makes of the subprogram's
printed module, and building it never sizes or mutates the parse tree
the runtime keeps across evals.
"""

import hashlib

import pytest

from repro.apps.nw import nw_program
from repro.apps.pow import pow_program
from repro.apps.regex import regex_program
from repro.backend.cache import design_cache_key
from repro.backend.compilequeue import CompileQueue
from repro.backend.compiler import CompileService
from repro.backend.pycompile import _attr, compile_design
from repro.backend.estimate import estimate_resources
from repro.common.errors import CascadeError
from repro.core.runtime import Runtime
from repro.interp.sim import Simulator
from repro.study.corpus import generate_corpus
from repro.verilog import ast
from repro.verilog.elaborate import elaborate_leaf
from repro.verilog.printer import item_to_str, module_to_str, stmt_to_str
from repro.verilog.visitor import walk

_CORPUS_HARNESS = """
wire clk;
Clock c(clk);
reg start = 1;
wire done;
wire signed [15:0] score;
NW_{sid} dut(.clk(clk), .start(start), .dbg_en(dbg), .dbg_level(lvl),
             .done(done), .score(score));
reg dbg = 1;
reg [2:0] lvl = 1;
always @(posedge clk) if (done) $display("score=%d", score);
"""

NW_ARGS = ("ACGTTGCA", "AGGTTCCA")
POW_ARGS = dict(target_zeros=8, max_nonce=40)


def _programs():
    programs = {"pow": pow_program(**POW_ARGS), "nw": nw_program(*NW_ARGS),
                "regex": regex_program("ab(c|d)*e")[0]}
    for solution in generate_corpus(n=31, seed=378):
        if "max3(" in solution.source and \
                "function signed [15:0] max3" not in solution.source:
            continue  # calls a helper the student never wrote
        programs[f"student{solution.student_id}"] = \
            solution.source + _CORPUS_HARNESS.format(sid=solution.student_id)
    return programs


PROGRAMS = _programs()


def _built(text, inlined):
    """A runtime that has built ``text`` (no JIT: every user
    subprogram stays on the engine that runs the handed-over design)."""
    rt = Runtime(enable_jit=False, inline_user_logic=inlined)
    rt.eval_source(text)
    rt.run(iterations=1)
    return rt


def _var(v):
    init = None if v.init is None else \
        (v.init.width, v.init.aval, v.init.bval, v.init.signed)
    return (v.name, v.kind, v.width, v.signed, v.msb, v.lsb, v.direction,
            init, v.array)


def _function(f):
    return (f.name, _var(f.ret), [_var(p) for p in f.ports],
            [_var(v) for v in f.locals_], stmt_to_str(f.body))


def _summary(design):
    return {
        "vars": [_var(v) for v in design.vars.values()],
        "assigns": [item_to_str(a) for a in design.assigns],
        "always": [item_to_str(a) for a in design.always],
        "initials": [item_to_str(i) for i in design.initials],
        "functions": [_function(f) for f in design.functions.values()],
        "resources": estimate_resources(design),
    }


class TestOnePassDesign:
    @pytest.mark.parametrize("inlined", [True, False])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_design_equals_the_leaf_elaboration(self, name, inlined):
        rt = _built(PROGRAMS[name], inlined)
        subs = rt.program.user_subprograms()
        assert subs
        for sub in subs:
            handed = rt.engines[sub.name].design
            leaf = elaborate_leaf(sub.module_ast)
            assert _summary(handed) == _summary(leaf), sub.name

    # The keys fold in CODEGEN_VERSION (7 here).
    @pytest.mark.parametrize("name, inlined, digests", [
        ("pow", True, {"main": "95fb925ece49eb4f"}),
        ("pow", False, {"main": "5e924575968b6efa",
                        "miner": "f3ff8445375f620d",
                        "miner.core": "bd655a79d24e9a2d"}),
        ("nw", True, {"main": "064a777210999f5b"}),
        ("nw", False, {"main": "4481a3c309a6ec4c",
                       "nw": "a701220dbff4acf8"}),
    ])
    def test_cache_keys_are_pinned(self, name, inlined, digests):
        rt = _built(PROGRAMS[name], inlined)
        keys = {sub.name: design_cache_key(module_to_str(sub.module_ast),
                                           True, 0)[:16]
                for sub in rt.program.user_subprograms()}
        assert keys == digests

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_generated_code_is_pinned(self, name):
        """The sha256 (first 12 hex digits) of the compiled model's
        source and then of the open-loop kernel for each edge signal,
        as the code generator printed them before the model and the
        kernel came to be printed from one schedule."""
        rt = _built(PROGRAMS[name], True)
        compiled = compile_design(rt.engines["main"].design)
        sources = [compiled.source] + [
            compiled.open_loop_kernel(_attr(sig)).source
            for sig in compiled.edge_signals]
        assert " ".join(hashlib.sha256(s.encode()).hexdigest()[:12]
                        for s in sources) == _CODEGEN_DIGESTS[name]


_CODEGEN_DIGESTS = {
    "nw": "2ab87c30134a 3cfa7b7dfde0 4a2c129f006f",
    "pow": "993a5e2cfae1 7af134fd846b d00adbef9e44",
    "regex": "63e2aad0792e 3efaa678be7c 47001e0851b2",
    "student0": "617ae6efe9f2 25f0705f01b9 a35d48b38ad3",
    "student10": "e10e5877262c 9439b1cb0d55 b071437fd6f0",
    "student11": "03d661372cae 004d0e26e9bb e7f014826897",
    "student13": "d60d4ae1c060 3b28fc74651e dffbaf54d21c",
    "student14": "a2e00fc9e2a2 73e46f92e26b f077804dac2d",
    "student15": "5fbfb66150ff 2724b6d6960e 27388ceb9b41",
    "student16": "764d6d88771e 1449194d4902 c8a7bd11322e",
    "student17": "d7a7b911ce7c c2d6f47e5d58 406c10ccf8f2",
    "student18": "357edfe16808 e3a68ecb6734 dda3525b06fa",
    "student19": "b7093aaf2509 088f407d812d 33bcddb9d81a",
    "student2": "6625442deab1 486b7a03c602 20be6e1c17fb",
    "student22": "6e9b139974c8 acb921986fb7 c259dba4b6c2",
    "student23": "f3a776a0256e c76946b9f724 c6cbbabc9a59",
    "student24": "5ab767e814e3 b156171ec371 6bd9d5d9c086",
    "student26": "70c1fd6bea3c ffa33520dc65 c2e86f0b7201",
    "student28": "9b1d8521dedc 20ccfd4b42fc ae92e134fd3a",
    "student29": "00e17e36ebcb 6f9fa662e0eb 3b3394f7414e",
    "student3": "65455e1e0e7b 97c277e1d308 0b0558dbec92",
    "student5": "a44979b74c8a 108cfd6e25fc 0e9f036af77c",
    "student6": "49838a0f3882 07e5b415e378 b61a042316cf",
    "student7": "35d10c2e406a 52abc9230e2d c1284c3b37a3",
    "student8": "06c696fe2141 d97f31f52a18 b093e2c9e495",
    "student9": "fc8aff702cb0 b0e4db27feb1 6fc95fb2d47e",
}


# ----------------------------------------------------------------------
# The parse tree stays as parsed
# ----------------------------------------------------------------------
_SIZING = ("width", "signed", "ctx_width", "ctx_signed", "select", "times")

SUM = """
module Sum #(parameter W = 4)(input wire [W-1:0] a, input wire [W-1:0] b,
                              output wire [W:0] s);
  assign s = a + b;
endmodule
"""


def _snapshot(rt):
    """Each library module and root item with its printed text."""
    nodes = list(rt.library.modules.values()) + list(rt.root_items)
    return [(node, module_to_str(node) if isinstance(node, ast.Module)
             else item_to_str(node)) for node in nodes]


def _annotated(node):
    return [type(n).__name__ for n in walk(node)
            if isinstance(n, ast.Expr) and
            any(hasattr(n, slot) for slot in _SIZING)]


class TestParseTreeUntouched:
    def test_evals_rollback_and_rebuilds_leave_the_parse_tree(self):
        rt = Runtime(compile_service=CompileService(
            queue=CompileQueue(max_workers=0), latency_scale=0.0))
        rt.eval_source(SUM + """
reg [7:0] x = 8'd200;
reg [7:0] y = 8'd100;
wire [4:0] s4;
wire [8:0] s8;
Sum #(4) n(.a(x[3:0]), .b(y[3:0]), .s(s4));
Sum #(8) w(.a(x), .b(y), .s(s8));
always @(posedge clk.val) x <= x + 8'd37;
""")
        parsed = _snapshot(rt)
        rt.run(iterations=6)
        rt.eval_source("always @(posedge clk.val) y <= y + s4;")
        parsed += _snapshot(rt)[len(parsed):]
        rt.run(iterations=6)
        with pytest.raises(CascadeError):
            with rt.atomic_eval():
                rt.eval_source("assign led.val = nowhere;")
        rt.run(iterations=6)
        rt.eval_source("reg [3:0] z = 3;")
        parsed += _snapshot(rt)[len(parsed):]
        rt.run(iterations=4)
        rt.eval_source("always @(posedge clk.val) z <= z + s8[3:0];")
        parsed += _snapshot(rt)[len(parsed):]
        rt.run(iterations=4)
        assert rt.finished is None
        for node, text in parsed:
            printed = module_to_str(node) if isinstance(node, ast.Module) \
                else item_to_str(node)
            assert printed == text
            assert _annotated(node) == [], text


# ----------------------------------------------------------------------
# One parsed subexpression, two instances, two contexts
# ----------------------------------------------------------------------
_BODY = """
reg [7:0] x = 8'd200;
reg [7:0] y = 8'd100;
wire [4:0] s4;
wire [8:0] s8;
Sum #(4) n(.a(x[3:0]), .b(y[3:0]), .s(s4));
Sum #(.W(8)) w(.a(x), .b(y), .s(s8));
always @(posedge {clk}) begin
  x <= x + 8'd37;
  y <= y + 8'd91;
  $display("%d %d", s4, s8);
end
"""

_CYCLES = 24


def _runtime_lines(rt, tier):
    rt.eval_source(SUM + _BODY.format(clk="clk.val"))
    rt.run(iterations=2 * _CYCLES + 4)
    tiers = {name: t for name, t in rt.engine_tiers().items()
             if t != "stdlib"}
    assert set(tiers.values()) == {tier}, tiers
    return rt.output_lines[:_CYCLES]


def _inline_service(**kwargs):
    return CompileService(queue=CompileQueue(max_workers=0), **kwargs)


class TestSharedSubexpression:
    @pytest.mark.parametrize("inlined", [True, False])
    def test_every_tier_sizes_each_instance_in_its_own_context(self, inlined):
        sim = Simulator.from_source(
            SUM + "module tb;\nreg clk = 0;\nalways #1 clk = ~clk;\n"
            + _BODY.format(clk="clk") + "endmodule\n", top="tb")
        sim.run(max_time=2 * _CYCLES + 1)
        want = sim.output_lines[:_CYCLES]
        assert len(want) == _CYCLES
        # The carry out of each sum shows: 4'd8 + 4'd4 = 12 in 5 bits.
        assert want[0].split() == ["12", "300"]
        interp = _runtime_lines(
            Runtime(enable_jit=False, inline_user_logic=inlined),
            "interpreted")
        fast = _runtime_lines(
            Runtime(compile_service=_inline_service(latency_scale=1e9),
                    inline_user_logic=inlined), "sw-fast")
        hardware = _runtime_lines(
            Runtime(compile_service=_inline_service(latency_scale=0.0),
                    enable_sw_fastpath=False, enable_open_loop=False,
                    inline_user_logic=inlined), "hardware")
        assert interp == want
        assert fast == want
        assert hardware == want

