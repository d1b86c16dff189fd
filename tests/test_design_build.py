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
from repro.stdlib.engines import ClockEngine
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

    # The keys fold in CODEGEN_VERSION (9 here).
    @pytest.mark.parametrize("name, inlined, digests", [
        ("pow", True, {"main": "93e218f4a04fd462"}),
        ("pow", False, {"main": "55ac126292bd504c",
                        "miner": "43621a2a59ea8dc0",
                        "miner.core": "ad3315844bfc7476"}),
        ("nw", True, {"main": "482ffe3a98de3c1e"}),
        ("nw", False, {"main": "bdf40e1bceb1c9f1",
                       "nw": "97a16acd3fb213d4"}),
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
        source and then of the open-loop kernel and the batch kernel for
        the model's input bound to a clock's ``val`` (``clk.val``, or
        ``c.val`` in the study corpus harness): the code that runs."""
        rt = _built(PROGRAMS[name], True)
        compiled = compile_design(rt.engines["main"].design)
        subs = rt.program.subprograms
        clocks = {subs[clock].bindings["val"][0]
                  for clock, engine in rt.engines.items()
                  if isinstance(engine, ClockEngine)}
        port, = [port for port, (net, direction)
                 in subs["main"].bindings.items()
                 if net in clocks and direction == "in"]
        sources = [compiled.source,
                   compiled.open_loop_kernel(_attr(port)).source,
                   compiled.batch_kernel(_attr(port)).source]
        assert " ".join(hashlib.sha256(s.encode()).hexdigest()[:12]
                        for s in sources) == _CODEGEN_DIGESTS[name]


_CODEGEN_DIGESTS = {
    "nw": "04e2ba7ed544 ce1990478d42 9f28f4eb25e4",
    "pow": "6ddd4291cf69 2f032cde122a be6c36146088",
    "regex": "6e4c8cbb6851 49a904d205af 227ae03fe6ac",
    "student0": "0006395d44a2 efbae84fd8c6 64d170ec149a",
    "student10": "44835e8d73fa b6a4b8cc9000 a7fc82bdbd00",
    "student11": "202588c13e5f 22aa4aedf562 7323a797212e",
    "student13": "c51f76055690 cde0cb340cc1 b12eb41fe04e",
    "student14": "bc8ed495232b 0f03402efd0e 35f0896adce7",
    "student15": "d73fc0d6d371 f75ea24c521a ef9e1e7c25f5",
    "student16": "c02812b9324e c089c5d8f8a1 135433f7ae36",
    "student17": "dcc019bcf4d7 0abd8181cf4d f74ef3280f27",
    "student18": "08a7a6f9da64 df819b9e37a7 245b5c7c0dc5",
    "student19": "5866f3a473c7 63f5407e0b57 e6538cb118ec",
    "student2": "d4c5144994e8 07a8368fe1e6 401d626ea8e9",
    "student22": "2c562e05f3de 5c354e46e01e 41ddaebfd147",
    "student23": "507eb9683d85 2f45026742ac 02b64e432678",
    "student24": "1b527a0971af c2df671ed6c0 9bbf8087ef4a",
    "student26": "39613b4d3da8 553a56ab792f 00688085d291",
    "student28": "bfbc6c18f00b 734d8bf1ef17 6457b845a965",
    "student29": "688ebe9f0030 d01ff9d63767 f6a8d4192e39",
    "student3": "0e626780e9b3 03f08bac07c7 6786ba4fe72a",
    "student5": "aea53f3987c1 004007cf7adf eb0d28010afd",
    "student6": "3d4423e98b56 7a7c17db4c5c 949f10b75173",
    "student7": "5944f1a9d099 d74ed8a54f74 e2f09396e18c",
    "student8": "eb1e7a83e18a 23a7b5c3a986 ce04213a9229",
    "student9": "e523be6ef0b7 1ba25f3ca1b5 e15626e75620",
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

