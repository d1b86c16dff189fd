"""Design -> compiled Python model (the functional half of a bitstream).

A hardware engine cannot run on a real FPGA here, so the "compiled"
artifact our Quartus stand-in produces is a generated Python class that
evaluates the design with plain machine integers, two-state, with
sensitivity-driven sequential blocks and a levelized combinational pass
(a fixpoint only where the network is cyclic or has comb ``always``
blocks).  It is bit-exact with the reference interpreter on
synthesizable designs (tested by differential tests) and one to two
orders of magnitude faster — the same *qualitative* gap that separates
an interpreted simulator from fabric, which the virtual time model then
scales to the paper's clock domains.

The structure of the generated class mirrors the Figure 10 hardware
transformation: one attribute per variable (``v_*``, arrays as lists
with a generation counter ``g_*``), a shadow per nonblocking target
(``n_*``) plus pending array words (``_nba_words``), the update flag
(``_nba``), previous edge samples (``p_*``) and the task queue
(``_tasks``).  Figure 10's open loop (``_oloop``) is a separate
function (:meth:`CompiledDesign.open_loop_kernel`) that toggles the
clock itself and keeps all of that state in locals for a whole batch;
the software fast path's closed-loop batch
(:meth:`CompiledDesign.batch_kernel`) is another.  :mod:`.kernels`
prints both.  The model and the kernels print from one
:class:`Schedule` of the design, and in each every block of a
sequential pass tests the edge signals as the pass began.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, \
    Sequence, Set, Tuple

from ..common.bits import Bits
from ..common.errors import SynthesisError
from ..verilog import ast
from ..verilog.elaborate import Design, Function
from ..verilog.eval import fold
from ..verilog.sizing import Select
from ..verilog.visitor import read_set_of, read_set_of_lvalue_indices, walk
from . import pyrt

__all__ = ["CODEGEN_VERSION", "CompiledDesign", "compile_design"]

#: Bumped whenever the generated model changes shape, so on-disk cache
#: entries written by an older code generator miss instead of loading.
CODEGEN_VERSION = 7

#: Pure single-port functions at most this wide become lookup tables.
_TABLE_MAX_BITS = 8
#: A combinational cone at least this costly is skipped while its
#: inputs and outputs are unchanged (cheaper ones just recompute).
_CONE_COST = 24
#: A ``for`` loop over constants running at most this many iterations
#: is unrolled.
_UNROLL_MAX = 64

_ARITH = {"+": "+", "-": "-", "*": "*"}
_BITWISE = {"&": "&", "|": "|", "^": "^"}
_COMPARE = {"==": "==", "!=": "!=", "===": "==", "!==": "!=",
            "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _mask(width: int) -> int:
    return (1 << width) - 1


_INT = re.compile(r"-?\d+")
#: Code made only of literals and these operators evaluates at codegen
#: time exactly as it would at run time (no shifts: they can explode).
_FOLDABLE = re.compile(r"[\d()+\-*&|^~ ]+")
#: Argument code cheap enough to repeat when a function is inlined.
_SIMPLE = re.compile(r"-?\d+|[A-Za-z_][\w.]*(\[\d+\])?")


def _lit(code: str) -> Optional[int]:
    """The value of constant generated code, else None."""
    return int(code) if _INT.fullmatch(code) else None


def _fold(code: str) -> str:
    """Constant-fold generated code built only from literals."""
    if _FOLDABLE.fullmatch(code) and not _INT.fullmatch(code):
        return str(eval(code))
    return code


class CompiledDesign:
    """The output of compilation: source text plus an instantiable
    model class.

    ``comb_wake`` and ``edge_wake`` describe the design's *activation*
    structure, mirroring the interpreter's sensitivity exactly:
    ``comb_wake`` is the set of names whose value change activates
    combinational evaluation (continuous-assign dependencies plus
    comb-always sensitivity lists), and ``edge_wake`` maps each signal
    appearing in an edge-sensitive event control to the set of edges
    registered on it.  The software fast path uses them to charge the
    same number of ABI-level evaluate calls as the interpreter would.
    Both, like ``edge_signals``, are class attributes of the generated
    model, so the source text alone is the whole artifact: a model
    rehydrated from it builds its ``schedule`` on the first kernel
    request.
    """

    def __init__(self, design: Design, source: str, model_class,
                 schedule: Optional["Schedule"] = None):
        self.design = design
        self.source = source
        self.model_class = model_class
        self.schedule = schedule
        self.edge_signals: List[str] = list(model_class._edge_signals)
        self.comb_wake: FrozenSet[str] = model_class._comb_wake
        self.edge_wake: Dict[str, FrozenSet[str]] = model_class._edge_wake
        self._kernels: Dict[Tuple[str, str], Callable] = {}

    def instantiate(self):
        return self.model_class()

    def open_loop_kernel(self, clock_attr: str) -> Callable[[object, int],
                                                            int]:
        """The open-loop kernel for the clock held in model attribute
        ``clock_attr``: ``kernel(model, steps)`` runs up to ``steps``
        half ticks and returns how many ran.  Printed on first request
        (only engines that reach open loop ask) and kept."""
        return self._kernel("open_loop", clock_attr)

    def batch_kernel(self, clock_attr: str) -> Callable:
        """The closed-loop batch kernel for the clock held in model
        attribute ``clock_attr`` (``KernelPrinter.batch``).  Printed on
        the software fast path's first batch and kept."""
        return self._kernel("batch", clock_attr)

    def _kernel(self, kind: str, clock_attr: str) -> Callable:
        kernel = self._kernels.get((kind, clock_attr))
        if kernel is None:
            from .kernels import KernelPrinter
            if self.schedule is None:
                self.schedule = Schedule(self.design)
            printer = KernelPrinter(self.schedule)
            source = (printer.kernel if kind == "open_loop"
                      else printer.batch)(clock_attr)
            namespace: Dict[str, object] = {}
            exec(compile(source, f"<{kind}:{self.design.name}>", "exec"),
                 namespace)
            kernel = namespace[kind]
            kernel.source = source  # type: ignore[attr-defined]
            self._kernels[kind, clock_attr] = kernel
        return kernel

    def wakes_on(self, name: str, old: int, new: int) -> bool:
        """Would the interpreter activate an evaluation event when
        ``name`` transitions ``old``→``new``?  True when the name feeds
        combinational logic, or when its LSB transition matches a
        registered edge."""
        if name in self.comb_wake:
            return True
        edges = self.edge_wake.get(name)
        if not edges:
            return False
        o, n = old & 1, new & 1
        if o == n:
            return False
        if n:
            return "posedge" in edges
        return "negedge" in edges


def _attr(name: str) -> str:
    return "v_" + re.sub(r"\W", "_", name)


class _Emitter:
    """Accumulates generated source lines."""

    def __init__(self):
        self.lines: List[str] = []

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def blank(self) -> None:
        self.lines.append("")

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


class _ExprCompiler:
    """Compiles sized expressions to Python int expressions.

    The value representation is an unsigned int in ``[0, 2**w)``; every
    node is computed at the context width and sign that sizing
    annotated, exactly as the interpreter's evaluator reads them, so
    results agree bit-for-bit on two-state inputs.  ``frame`` maps
    function ports and locals to code; ``local`` maps design variables
    the enclosing method has loaded into Python locals.  Constant
    sub-expressions fold at codegen time, and with them index, select
    and shift guards.
    """

    def __init__(self, printer: "_Printer",
                 frame: Optional[Dict[str, str]] = None,
                 local: Optional[Dict[str, str]] = None):
        self.c = printer
        self.frame = frame or {}
        self.local = local if local is not None else {}

    # -- public ----------------------------------------------------------
    def rvalue(self, expr: ast.Expr) -> Tuple[str, int, bool]:
        """(code, ctx_width, signed) for an expression."""
        return self._ctx(expr), expr.ctx_width, expr.ctx_signed

    def condition(self, expr: ast.Expr) -> str:
        """A Python truth test of ``expr``; comparisons and logical
        operators test directly instead of through a 0/1 value."""
        if isinstance(expr, ast.Binary):
            if expr.op in _COMPARE:
                return self._compare(expr)
            if expr.op in ("&&", "||"):
                py = "and" if expr.op == "&&" else "or"
                return (f"({self.condition(expr.lhs)}) {py} "
                        f"({self.condition(expr.rhs)})")
        if isinstance(expr, ast.Unary) and expr.op == "!":
            return f"not ({self.condition(expr.operand)})"
        return f"({self._ctx(expr)}) != 0"

    # -- helpers -----------------------------------------------------------
    def _read(self, name: str) -> str:
        if name in self.frame:
            return self.frame[name]
        return self.local.get(name) or f"self.{_attr(name)}"

    def low(self, sel: Select, index: ast.Expr, width: int = 1) -> str:
        """Code for the low position of a select ``width`` positions
        wide: the folded constant, or ``step * index + bias`` with the
        index read at its own sign.  A single position needs no sign
        when a negative index lands below 0 read signed and at or
        above ``span`` read unsigned."""
        if sel.low is not None:
            return str(sel.low)
        code = self._ctx(index)
        half = 1 << (index.ctx_width - 1)
        if index.ctx_signed and not (
                width == 1 and sel.step > 0 and sel.bias <= 0
                and sel.span <= half + sel.bias):
            code = f"((({code}) ^ {half}) - {half})"
        if sel.step < 0:
            code = f"-({code})"
        if sel.bias:
            code = f"(({code}) {'-' if sel.bias < 0 else '+'} " \
                f"{abs(sel.bias)})"
        return _fold(code)

    def _coerce(self, code: str, from_w: int, ctx: int, signed: bool) -> str:
        """Extend/truncate a value of width from_w to ctx using the
        expression's signedness."""
        if from_w == ctx:
            return code
        if from_w > ctx:
            return _fold(f"(({code}) & {_mask(ctx)})")
        if signed:
            # Sign-extend then re-mask.
            value = _lit(code)
            if value is not None:
                return str(pyrt.to_signed(value, from_w) & _mask(ctx))
            return f"({self._signed(code, from_w)} & {_mask(ctx)})"
        return code  # zero extension is a no-op for unsigned ints

    @staticmethod
    def _signed(code: str, width: int) -> str:
        """``code`` read as a two's-complement ``width``-bit value."""
        value = _lit(code)
        if value is not None:
            return str(pyrt.to_signed(value, width))
        half = 1 << (width - 1)
        return f"((({code}) ^ {half}) - {half})"

    def _signed_pair(self, lcode: str, rcode: str, ctx: int
                     ) -> Tuple[str, str]:
        return self._signed(lcode, ctx), self._signed(rcode, ctx)

    def _guarded(self, value, index: str, limit: int) -> str:
        """``value(i)`` when ``0 <= index < limit``, else 0.  A constant
        index is checked here; otherwise the index is bound once to a
        fresh local, which the condition computes before ``value``."""
        k = _lit(index)
        if k is not None:
            return value(str(k)) if 0 <= k < limit else "0"
        i = self.c.fresh("_i")
        return f"({value(i)} if 0 <= ({i} := {index}) < {limit} else 0)"

    # -- core ---------------------------------------------------------------
    def _ctx(self, expr: ast.Expr) -> str:
        ctx, signed = expr.ctx_width, expr.ctx_signed
        if isinstance(expr, ast.Number):
            width = expr.value.width
            value = expr.value.to_int_xz(0) & _mask(width)
            if signed and value >> (width - 1):
                value = (value - (1 << width)) & _mask(ctx)
            return str(value)
        if isinstance(expr, ast.StringLit):
            data = expr.value.encode("latin-1", "replace") or b"\0"
            return str(int.from_bytes(data, "big") & _mask(ctx))
        if isinstance(expr, ast.Ident):
            return self._coerce(self._read(expr.name), expr.width, ctx,
                                signed)
        if isinstance(expr, ast.IndexExpr):
            return self._coerce(self._index(expr), expr.width, ctx, signed)
        if isinstance(expr, ast.RangeExpr):
            return self._coerce(self._range(expr), expr.width, ctx, signed)
        if isinstance(expr, ast.Unary):
            return _fold(self._unary(expr, ctx))
        if isinstance(expr, ast.Binary):
            return _fold(self._binary(expr, ctx, signed))
        if isinstance(expr, ast.Ternary):
            cond = self.condition(expr.cond)
            then = self._ctx(expr.then)
            els = self._ctx(expr.els)
            return f"(({then}) if ({cond}) else ({els}))"
        if isinstance(expr, ast.Concat):
            return self._coerce(self._concat(expr.parts), expr.width, ctx,
                                signed)
        if isinstance(expr, ast.Repeat):
            inner = self._concat([expr.inner] * expr.times)
            return self._coerce(inner, expr.width, ctx, signed)
        if isinstance(expr, ast.Call):
            return self._call(expr, ctx, signed)
        raise SynthesisError(
            f"cannot compile expression {type(expr).__name__}")

    def _base(self, base: ast.Expr) -> str:
        if isinstance(base, ast.Ident):
            return self._read(base.name)
        return self._ctx(base)

    def _index(self, expr: ast.IndexExpr) -> str:
        sel = expr.select
        low = self.low(sel, expr.index)
        code = self._base(expr.base)
        if sel.word:
            return self._guarded(lambda i: f"{code}[{i}]", low, sel.span)
        return self._guarded(lambda i: f"((({code}) >> {i}) & 1)", low,
                             sel.span)

    def _range(self, expr: ast.RangeExpr) -> str:
        """The select's bits; those below bit 0 read as 0, and those
        above the base's top bit already are 0."""
        code = self._base(expr.base)
        mask = _mask(expr.width)
        sel = expr.select
        low = self.low(sel, expr.left, expr.width)
        k = _lit(low)
        if k is None and sel.step > 0 and sel.bias >= 0 \
                and not expr.left.ctx_signed:   # low is never negative
            code = f"(({code}) >> ({low}))"
        elif k is None:
            i = self.c.fresh("_i")
            code = (f"(({code}) >> {i} if ({i} := {low}) >= 0 "
                    f"else ({code}) << -{i})")
        elif k < 0:
            code = f"(({code}) << {-k})"
        elif k:
            code = f"(({code}) >> {k})"
        return f"(({code}) & {mask})"

    def _unary(self, expr: ast.Unary, ctx: int) -> str:
        op = expr.op
        inner = self._ctx(expr.operand)
        if op == "!":
            return f"(0 if ({inner}) else 1)"
        if op in ("&", "~&", "|", "~|", "^", "~^", "^~"):
            w = expr.operand.width
            if op == "&":
                return f"(1 if ({inner}) == {_mask(w)} else 0)"
            if op == "~&":
                return f"(0 if ({inner}) == {_mask(w)} else 1)"
            if op == "|":
                return f"(1 if ({inner}) else 0)"
            if op == "~|":
                return f"(0 if ({inner}) else 1)"
            if op == "^":
                return f"pyrt.red_xor({inner})"
            return f"(pyrt.red_xor({inner}) ^ 1)"
        if op == "~":
            return f"((~({inner})) & {_mask(ctx)})"
        if op == "-":
            return f"((-({inner})) & {_mask(ctx)})"
        if op == "+":
            return inner
        raise SynthesisError(f"unknown unary operator {op!r}")

    def _binary(self, expr: ast.Binary, ctx: int, signed: bool) -> str:
        op = expr.op
        l = self._ctx(expr.lhs)
        r = self._ctx(expr.rhs)
        if op in ("&&", "||"):
            py = "and" if op == "&&" else "or"
            return f"(1 if ((({l}) != 0) {py} (({r}) != 0)) else 0)"
        if op in _COMPARE:
            return f"(1 if {self._compare(expr, l, r)} else 0)"
        amount = _lit(r)
        if op in ("<<", "<<<"):
            if amount is not None:
                return f"((({l}) << {amount}) & {_mask(ctx)})" \
                    if amount < ctx else "0"
            return (f"(((({l}) << ({r})) & {_mask(ctx)}) "
                    f"if ({r}) < {ctx} else 0)")
        if op == ">>" or (op == ">>>" and not signed):
            if amount is not None:
                return f"(({l}) >> {amount})" if amount < ctx else "0"
            return f"((({l}) >> ({r})) if ({r}) < {ctx} else 0)"
        if op == ">>>":
            return f"pyrt.ashr({l}, {r}, {ctx})"
        if op == "**":
            return f"(pow({l}, {r}, {1 << ctx}))"
        if op in _ARITH:
            return f"((({l}) {_ARITH[op]} ({r})) & {_mask(ctx)})"
        if op == "/":
            if signed:
                sl, sr = self._signed_pair(l, r, ctx)
                return f"((pyrt.sdiv({sl}, {sr})) & {_mask(ctx)})"
            return f"((({l}) // ({r})) if ({r}) else 0)"
        if op == "%":
            if signed:
                sl, sr = self._signed_pair(l, r, ctx)
                return f"((pyrt.smod({sl}, {sr})) & {_mask(ctx)})"
            return f"((({l}) % ({r})) if ({r}) else 0)"
        if op in _BITWISE:
            return f"(({l}) {_BITWISE[op]} ({r}))"
        if op in ("^~", "~^"):
            return f"((~(({l}) ^ ({r}))) & {_mask(ctx)})"
        raise SynthesisError(f"unknown binary operator {op!r}")

    def _compare(self, expr: ast.Binary, l: Optional[str] = None,
                 r: Optional[str] = None) -> str:
        if l is None:
            l, r = self._ctx(expr.lhs), self._ctx(expr.rhs)
        if expr.lhs.ctx_signed and expr.op in ("<", "<=", ">", ">="):
            # Flipping the sign bit maps signed order onto unsigned
            # order, and folds into a constant operand.
            half = 1 << (expr.lhs.ctx_width - 1)
            l, r = _fold(f"(({l}) ^ {half})"), _fold(f"(({r}) ^ {half})")
        return f"({l}) {_COMPARE[expr.op]} ({r})"

    def _concat(self, parts: Sequence[ast.Expr]) -> str:
        """The parts side by side, each at its own width."""
        shift = sum(p.width for p in parts)
        out = []
        const = 0
        for p in parts:
            shift -= p.width
            code = self._ctx(p)
            value = _lit(code)
            if value is not None and value >= 0:
                const |= value << shift
            else:
                out.append(f"(({code}) << {shift})" if shift
                           else f"({code})")
        if const or not out:
            out.insert(0, str(const))
        return "(" + " | ".join(out) + ")" if len(out) > 1 else out[0]

    def _call(self, expr: ast.Call, ctx: int, signed: bool) -> str:
        name = expr.name
        if name in ("$signed", "$unsigned"):
            arg = expr.args[0]
            return self._coerce(self._ctx(arg), arg.width, ctx, signed)
        if name == "$clog2":
            return f"(pyrt.clog2({self._ctx(expr.args[0])}) & {_mask(ctx)})"
        if name == "$bits":
            return str(expr.args[0].width & _mask(ctx))
        if name.startswith("$"):
            raise SynthesisError(f"{name} cannot be synthesized")
        fn = self.c.s.design.functions[name]
        args = []
        for arg, port in zip(expr.args, fn.ports):
            code = self._ctx(arg)
            args.append(_fold(f"(({code}) & {_mask(port.width)})")
                        if arg.ctx_width > port.width else code)
        return self._coerce(self._apply(fn, args), fn.ret.width, ctx,
                            signed)

    def _apply(self, fn: Function, args: List[str]) -> str:
        """A call of ``fn``: a table lookup, the body inlined, or a
        method call, cheapest first."""
        info = self.c.s.fn_info[fn.name]
        if info.table is not None:
            return f"{info.table}[{args[0]}]"
        body = info.inline
        if body is not None:
            frame = {}
            for port, code in zip(fn.ports, args):
                if not _SIMPLE.fullmatch(code) and info.uses[port.name] > 1:
                    break
                frame[port.name] = code if _SIMPLE.fullmatch(code) \
                    else f"({code})"
            else:
                code = _ExprCompiler(self.c, frame)._ctx(body)
                if body.ctx_width > fn.ret.width:
                    code = _fold(f"(({code}) & {_mask(fn.ret.width)})")
                return code
        return f"self.{self.c.s.fn_names[fn.name]}(" \
            + ", ".join(args) + ")"


class _StmtCompiler:
    """Compiles statements inside always blocks (and functions).

    In the model's methods state is spelled as attributes of ``self``,
    and a blocking store to a variable loaded into a local also writes
    the attribute.  In the open-loop ``kernel`` every piece of state is
    a local named like its attribute, so nothing is written through,
    and a nonblocking array write goes to the array's pending copy."""

    def __init__(self, printer: "_Printer", emitter: _Emitter,
                 exprs: _ExprCompiler, nba_allowed: bool = True,
                 kernel: bool = False):
        self.c = printer
        self.e = emitter
        self.x = exprs
        self.nba_allowed = nba_allowed
        self.kernel = kernel
        self.st = "" if kernel else "self."
        #: The variables of the loops being unrolled, by name.
        self.loop_values: Dict[str, Bits] = {}
        self._tmp = 0

    def tmp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def compile(self, stmt: Optional[ast.Stmt], indent: int) -> None:
        if stmt is None or isinstance(stmt, ast.NullStmt):
            self.e.emit(indent, "pass")
            return
        self._compile(stmt, indent)

    def _compile(self, stmt: ast.Stmt, indent: int) -> None:
        if isinstance(stmt, ast.Block):
            if not stmt.stmts:
                self.e.emit(indent, "pass")
                return
            for sub in stmt.stmts:
                self._compile(sub, indent)
        elif isinstance(stmt, ast.BlockingAssign):
            self._assign(stmt.lhs, stmt.rhs, indent, blocking=True)
        elif isinstance(stmt, ast.NonblockingAssign):
            if not self.nba_allowed:
                raise SynthesisError(
                    "nonblocking assignment in function body")
            self._assign(stmt.lhs, stmt.rhs, indent, blocking=False)
        elif isinstance(stmt, ast.If):
            self.e.emit(indent, f"if {self.x.condition(stmt.cond)}:")
            self.compile(stmt.then, indent + 1)
            if stmt.els is not None:
                self.e.emit(indent, "else:")
                self.compile(stmt.els, indent + 1)
        elif isinstance(stmt, ast.Case):
            self._case(stmt, indent)
        elif isinstance(stmt, ast.For):
            if not self._unroll(stmt, indent):
                self._compile(stmt.init, indent)
                self.e.emit(indent, f"while {self.x.condition(stmt.cond)}:")
                self._compile(stmt.body, indent + 1)
                self._compile(stmt.step, indent + 1)
        elif isinstance(stmt, ast.RepeatStmt):
            count, _, _ = self.x.rvalue(stmt.count)
            var = self.tmp()
            self.e.emit(indent, f"for {var} in range({count}):")
            self.compile(stmt.body, indent + 1)
        elif isinstance(stmt, ast.SysTask):
            self._systask(stmt, indent)
        else:
            raise SynthesisError(
                f"{type(stmt).__name__} cannot be synthesized")

    def _unroll(self, stmt: ast.For, indent: int) -> bool:
        """Emit a loop whose variable only takes constant values (a
        constant start, a constant step, a test of constants, and a body
        that neither writes it nor calls a function that could see it)
        once per iteration, with the variable folded into every
        expression, then store its final value.  False, having emitted
        nothing, when the loop does not qualify or runs more than
        ``_UNROLL_MAX`` iterations."""
        init, step = stmt.init, stmt.step
        if not (isinstance(init, ast.BlockingAssign)
                and isinstance(init.lhs, ast.Ident)
                and isinstance(step, ast.BlockingAssign)
                and isinstance(step.lhs, ast.Ident)
                and step.lhs.name == init.lhs.name):
            return False
        name, width = init.lhs.name, init.lhs.width
        for node in walk(stmt.body):
            if isinstance(node, (ast.BlockingAssign, ast.NonblockingAssign)) \
                    and name in _lvalue_names(node.lhs):
                return False
            if isinstance(node, ast.Call) and not node.name.startswith("$"):
                info = self.c.s.fn_info[node.name]
                if name in info.reads or not info.side_effect_free:
                    return False
        # The start, test and step are evaluated as the interpreter
        # would, over the values of the loops unrolled around this one.
        consts, frame = self.loop_values, self.x.frame
        saved = frame.get(name)

        def const(expr: ast.Expr) -> Optional[int]:
            value = fold(expr, consts)
            return None if value is None or value.has_xz \
                else value.to_uint()

        values: List[int] = []
        value = const(init.rhs)
        try:
            while value is not None:
                value &= _mask(width)
                consts[name] = Bits.from_int(value, width, init.lhs.signed)
                test = const(stmt.cond)
                if not test:
                    break
                values.append(value)
                if len(values) > _UNROLL_MAX:
                    return False
                value = const(step.rhs)
            if value is None or test is None:
                return False
            for v in values:
                consts[name] = Bits.from_int(v, width, init.lhs.signed)
                frame[name] = str(v)
                self._compile(stmt.body, indent)
        finally:
            consts.pop(name, None)
            if saved is None:
                frame.pop(name, None)
            else:
                frame[name] = saved
        self._store_ident(init.lhs, str(value), width, indent, blocking=True)
        return True

    # -- assignments ---------------------------------------------------------
    def _assign(self, lhs: ast.Expr, rhs: ast.Expr, indent: int,
                blocking: bool) -> None:
        code, ctx, _ = self.x.rvalue(rhs)
        # A plain read is stored directly, unless a concatenation's
        # parts are stored one after another.
        if not (_lit(code) is not None or _SIMPLE.fullmatch(code)
                and not isinstance(lhs, ast.Concat)):
            tmp = self.tmp()
            self.e.emit(indent, f"{tmp} = {code}")
            code = tmp
        self._store(lhs, code, ctx, indent, blocking)

    def _store(self, lhs: ast.Expr, value: str, value_w: int, indent: int,
               blocking: bool) -> None:
        if isinstance(lhs, ast.Concat):
            pos = lhs.width
            for part in lhs.parts:
                w = part.width
                pos -= w
                chunk = f"((({value}) >> {pos}) & {_mask(w)})"
                tmp = self.tmp()
                self.e.emit(indent, f"{tmp} = {chunk}")
                self._store(part, tmp, w, indent, blocking)
            return
        if isinstance(lhs, ast.Ident):
            self._store_ident(lhs, value, value_w, indent, blocking)
            return
        if not isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
            raise SynthesisError(f"invalid l-value {type(lhs).__name__}")
        if not isinstance(lhs.base, ast.Ident):
            raise SynthesisError("unsupported nested l-value")
        if isinstance(lhs, ast.IndexExpr):
            low = self.x.low(lhs.select, lhs.index)
        else:
            low = self.x.low(lhs.select, lhs.left, lhs.width)
        if lhs.select.word:
            self._store_word(lhs, low, value, value_w, indent, blocking)
        else:
            self._store_bits(lhs, low, value, indent, blocking)

    def _target(self, name: str, blocking: bool) -> str:
        if name in self.x.frame:
            return self.x.frame[name]
        if blocking:
            return self.x.local.get(name) or f"self.{_attr(name)}"
        return f"{self.st}n_{_attr(name)}"

    def _written(self, name: str, blocking: bool, indent: int) -> None:
        """Bookkeeping after a store to a design variable: a blocking
        store through a method's local also writes the attribute back,
        and raises the dirty flag so combinational logic resettles."""
        if not blocking:
            self.e.emit(indent, f"{self.st}_nba = True")
            return
        local = self.x.local.get(name)
        if local is not None and not self.kernel:
            self.e.emit(indent, f"self.{_attr(name)} = {local}")
        self.e.emit(indent, f"{self.st}_dirty = True")

    def _store_ident(self, ident: ast.Ident, value: str, value_w: int,
                     indent: int, blocking: bool) -> None:
        name, w = ident.name, ident.width
        code = _fold(f"(({value}) & {_mask(w)})") if value_w > w else value
        self.e.emit(indent, f"{self._target(name, blocking)} = {code}")
        if not blocking and name in self.c.s.both_ways:
            self.e.emit(indent, f"{self.st}m_{_attr(name)} = {_mask(w)}")
        if name not in self.x.frame:
            self._written(name, blocking, indent)

    def _store_word(self, lhs: ast.IndexExpr, off: str, value: str,
                    value_w: int, indent: int, blocking: bool) -> None:
        name, nwords = lhs.base.name, lhs.select.span
        arr = self.x._read(name)
        masked = _fold(f"(({value}) & {_mask(lhs.width)})") \
            if value_w > lhs.width else value
        k = _lit(off)
        if k is None:
            tmp = self.tmp()
            self.e.emit(indent, f"{tmp} = {off}")
            self.e.emit(indent, f"if 0 <= {tmp} < {nwords}:")
            off, indent = tmp, indent + 1
        elif not 0 <= k < nwords:
            self.e.emit(indent, "pass")
            return
        if blocking:
            # Change-filtered like the interpreter's _set_word: a
            # same-value rewrite must not bump the generation counter,
            # or a self-sensitive comb block never settles.
            self.e.emit(indent, f"if {arr}[{off}] != {masked}:")
            self.e.emit(indent + 1, f"{arr}[{off}] = {masked}")
            self.e.emit(indent + 1, f"{self.st}g_{_attr(name)} += 1")
            self.e.emit(indent + 1, f"{self.st}_dirty = True")
        elif self.kernel:
            self.c.emit_pending_word(self.e, indent, name, off, masked)
            self.e.emit(indent, "_nba = True")
        else:
            # Each pending word carries its array and whether a change
            # to it wakes combinational logic, so update() does no
            # lookups.
            wakes = name in self.c.s.comb_wake
            self.e.emit(indent, f"self._nba_words.append(({arr}, {off}, "
                        f"{masked}, {wakes}))")
            self.e.emit(indent, "self._nba = True")

    def _store_bits(self, lhs: ast.Expr, low: str, value: str,
                    indent: int, blocking: bool) -> None:
        """Write the bits of a select that land inside its base: a
        constant select that fits in place, any other through
        ``pyrt.insert`` under a guard that some bit lands."""
        name, w, width = lhs.base.name, lhs.base.width, lhs.width
        target = self._target(name, blocking)
        k = _lit(low)
        if k is None:
            tmp = self.tmp()
            self.e.emit(indent, f"{tmp} = {low}")
            self.e.emit(indent, f"if {-width} < {tmp} < {w}:")
            low, indent = tmp, indent + 1
        elif not -width < k < w:
            self.e.emit(indent, "pass")
            return
        masked = not blocking and name in self.c.s.both_ways
        mask = f"{self.st}m_{_attr(name)}"
        if k is not None and 0 <= k <= w - width:
            self.e.emit(
                indent,
                f"{target} = ({target} & ~({_mask(width)} << {k})) | "
                f"((({value}) & {_mask(width)}) << {k})")
            if masked:
                self.e.emit(indent, f"{mask} |= {_mask(width) << k}")
        else:
            self.e.emit(indent, f"{target} = pyrt.insert({target}, {low}, "
                        f"{value}, {_mask(width)}, {_mask(w)})")
            if masked:
                self.e.emit(indent, f"{mask} = pyrt.insert({mask}, {low}, "
                            f"{_mask(width)}, {_mask(width)}, {_mask(w)})")
        if name not in self.x.frame:
            self._written(name, blocking, indent)

    # -- case ------------------------------------------------------------------
    def _case(self, stmt: ast.Case, indent: int) -> None:
        sel_code = self.x._ctx(stmt.expr)
        sel = self.tmp()
        self.e.emit(indent, f"{sel} = {sel_code}")
        first = True
        default: Optional[ast.Stmt] = None
        conds: List[Tuple[str, Optional[ast.Stmt]]] = []
        for item in stmt.items:
            if item.exprs is None:
                default = item.body
                continue
            tests = []
            for label in item.exprs:
                tests.append(self._label_test(sel, label, stmt.kind))
            conds.append((" or ".join(tests), item.body))
        for cond, body in conds:
            kw = "if" if first else "elif"
            first = False
            self.e.emit(indent, f"{kw} {cond}:")
            self.compile(body, indent + 1)
        if default is not None:
            if first:
                self.compile(default, indent)
            else:
                self.e.emit(indent, "else:")
                self.compile(default, indent + 1)

    def _label_test(self, sel: str, label: ast.Expr, kind: str) -> str:
        if isinstance(label, ast.Number) and kind in ("casez", "casex"):
            w = label.ctx_width
            v = label.value.as_signed() if label.ctx_signed \
                else label.value.as_unsigned()
            v = v.extend(w)
            if kind == "casez":
                wild = (~v.aval & v.bval) & _mask(w)
            else:
                wild = v.bval & _mask(w)
            care = ~wild & _mask(w)
            want = v.aval & care
            return f"(({sel}) & {care}) == {want}"
        code = self.x._ctx(label)
        return f"({sel}) == ({code})"

    # -- system tasks -------------------------------------------------------------
    def _systask(self, stmt: ast.SysTask, indent: int) -> None:
        if stmt.name in ("$display", "$write"):
            parts = []
            for arg in stmt.args:
                if isinstance(arg, ast.StringLit):
                    parts.append(repr(arg.value))
                else:
                    code, w, s = self.x.rvalue(arg)
                    parts.append(f"({code}, {w}, {s})")
            newline = stmt.name == "$display"
            self.e.emit(indent,
                        f"self._task_display(({', '.join(parts)},), "
                        f"{newline})")
        elif stmt.name in ("$finish", "$stop"):
            code = "0"
            if stmt.args:
                code, _, _ = self.x.rvalue(stmt.args[0])
            self.e.emit(indent, f"self._task_finish({code})")
        else:
            raise SynthesisError(f"{stmt.name} cannot be synthesized")


def _cost(expr: ast.Expr) -> int:
    """A rough evaluation cost: nodes, with calls weighing more."""
    return sum(8 if isinstance(n, ast.Call) else 1 for n in walk(expr))


def _lvalue_names(lhs: ast.Expr) -> List[str]:
    """The variables an l-value writes."""
    out = []
    stack = [lhs]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Ident):
            out.append(node.name)
        elif isinstance(node, (ast.IndexExpr, ast.RangeExpr)):
            stack.append(node.base)
        elif isinstance(node, ast.Concat):
            stack.extend(node.parts)
    return out


def _local(name: str) -> str:
    """The Python local a method loads a design variable into."""
    return "_" + _attr(name)


class _FnInfo:
    """What codegen knows about one Verilog function.

    ``reads`` and ``writes`` are the design variables it reads and
    writes, through its callees too; it is ``side_effect_free`` when it
    writes none and neither it nor a callee runs a system task.  A pure
    function (side effect free, reading only its arguments) compiles to
    a lookup ``table`` when it has one narrow port and no loops or
    calls, and otherwise may be ``inline``d: ``inline`` is the
    right-hand side when the body is one assignment of the result, and
    ``uses`` counts each port's references in it."""

    def __init__(self):
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.side_effect_free = True
        self.inline: Optional[ast.Expr] = None
        self.uses: Dict[str, int] = {}
        self.table: Optional[str] = None


def _calls(node: ast.Node) -> Iterator[str]:
    """The Verilog functions a subtree calls, by name."""
    return (n.name for n in walk(node)
            if isinstance(n, ast.Call) and not n.name.startswith("$"))


class Schedule:
    """One design analysed from its syntax tree: the blocks, edge
    signals and activation structure, the continuous assigns in
    dependency order with their cones, every called function's
    analysis and table, and the nonblocking targets.  The model's
    methods and each open-loop kernel print from it; printing adds
    nothing to it."""

    def __init__(self, design: Design):
        self.design = design
        vars_ = design.vars
        # Named by declaration order, so the model and a kernel printed
        # later agree on every method name.
        self.fn_names = {name: "f_" + re.sub(r"\W", "_", name) + f"_{i}"
                         for i, name in enumerate(design.functions)}
        self.fn_info: Dict[str, _FnInfo] = {}
        self.tables: List[str] = []
        self.comb_blocks: List[ast.AlwaysBlock] = []
        self.seq_blocks: List[ast.AlwaysBlock] = []
        for block in design.always:
            if block.ctrl is None:
                raise SynthesisError(
                    "always without event control cannot be synthesized")
            if block.ctrl.star or all(i.edge is None
                                      for i in block.ctrl.items):
                self.comb_blocks.append(block)
            elif all(i.edge is not None for i in block.ctrl.items):
                self.seq_blocks.append(block)
            else:
                raise SynthesisError(
                    "mixed edge/level sensitivity cannot be synthesized")
        if design.initials:
            raise SynthesisError("initial blocks cannot be synthesized")
        self.edge_signals: List[str] = []
        for block in self.seq_blocks:
            for item in block.ctrl.items:
                if not isinstance(item.expr, ast.Ident):
                    raise SynthesisError(
                        "edge expressions must be simple signals")
                if item.expr.name not in self.edge_signals:
                    self.edge_signals.append(item.expr.name)

        # Activation structure, mirroring the interpreter's sensitivity
        # registration (_build_assign_deps / _register_wait) exactly.
        self.comb_wake: Set[str] = set()
        for assign in design.assigns:
            self.comb_wake |= read_set_of(assign.rhs)
            self.comb_wake |= read_set_of_lvalue_indices(assign.lhs)
        for block in self.comb_blocks:
            if block.ctrl.star:
                self.comb_wake |= read_set_of(block.body)
            else:
                for item in block.ctrl.items:
                    self.comb_wake |= read_set_of(item.expr)
        self.edge_wake: Dict[str, Set[str]] = {}
        for block in self.seq_blocks:
            for item in block.ctrl.items:
                self.edge_wake.setdefault(item.expr.name, set()).add(
                    item.edge)

        # One walk over the always blocks finds the calls (the tables
        # follow their order) and the stores.
        logic_calls = dict.fromkeys(name for a in design.assigns
                                    for name in _calls(a))
        seq = set(self.seq_blocks)
        seq_calls: Set[str] = set()
        seq_stores: Set[str] = set()
        blocking = {name for a in design.assigns
                    for name in _lvalue_names(a.lhs)}
        self.nba_targets: Set[str] = set()
        self.nba_array_targets: Set[str] = set()
        for block in design.always:
            for node in walk(block.body):
                if isinstance(node, ast.Call) \
                        and not node.name.startswith("$"):
                    logic_calls[node.name] = None
                    if block in seq:
                        seq_calls.add(node.name)
                elif isinstance(node, ast.BlockingAssign):
                    blocking.update(_lvalue_names(node.lhs))
                    if block in seq:
                        seq_stores.update(_lvalue_names(node.lhs))
                elif isinstance(node, ast.NonblockingAssign):
                    for name in _lvalue_names(node.lhs):
                        (self.nba_array_targets if vars_[name].is_array
                         else self.nba_targets).add(name)
        for name in logic_calls:
            self._function_info(name)
        for fn in design.functions.values():
            if fn.name not in self.fn_info:  # uncalled, but printed
                for name in _calls(fn.body):
                    self._function_info(name)
        for name in logic_calls:
            blocking |= self.fn_info[name].writes
        #: Variables written nonblocking and also blocking: their shadow
        #: can go stale, so an update copies it only under a mask of the
        #: bits a nonblocking write set this step (``m_*``).
        self.both_ways = sorted(self.nba_targets & blocking)
        # Arrays logic also writes blocking: a kernel keeps their pending
        # nonblocking writes as words, not a copy, so a blocking write
        # after the copy is taken is not lost.
        self.word_pending = {name for name in blocking
                             if name in vars_ and vars_[name].is_array}
        # Whether a sequential block may write an edge signal blocking,
        # directly or through a function.
        self.writes_edges = bool(seq_stores & set(self.edge_signals)) or any(
            not self.fn_info[name].side_effect_free for name in seq_calls)
        self.calls_stateful = any(
            self.fn_info[name].reads
            or not self.fn_info[name].side_effect_free
            for name in logic_calls)

        self.assigns = list(design.assigns)
        self.reads = [self._assign_reads(a) for a in self.assigns]
        self.writes = [set(_lvalue_names(a.lhs)) for a in self.assigns]
        self.levelized = self._sort_assigns() and not self.comb_blocks
        #: Groups of assign indices, each with the snapshot attribute
        #: that gates it, or None for a cone cheap enough to recompute.
        self.cones: List[Tuple[List[int], Optional[str]]] = []
        if self.levelized:
            gated = 0
            for cone in self._cones():
                key = None
                if sum(_cost(self.assigns[i].rhs) for i in cone) \
                        >= _CONE_COST:
                    key, gated = f"_cone{gated}", gated + 1
                self.cones.append((cone, key))

    def _function_info(self, name: str) -> _FnInfo:
        info = self.fn_info.get(name)
        if info is None:
            info = self.fn_info[name] = _FnInfo()
            # Registered before the walk: a recursive call sees this
            # (conservatively impure) entry.
            info.side_effect_free = False
            self._analyse_function(self.design.functions[name], info)
        return info

    def _analyse_function(self, fn: Function, info: _FnInfo) -> None:
        short = fn.name.split(".")[-1]
        ports = {p.name for p in fn.ports}
        frame = ports | {v.name for v in fn.locals_} | {short, fn.name}
        info.reads = read_set_of(fn.body) - frame
        free, simple = True, True
        for node in walk(fn.body):
            if isinstance(node, (ast.BlockingAssign,
                                 ast.NonblockingAssign)):
                info.writes.update(set(_lvalue_names(node.lhs)) - frame)
            elif isinstance(node, ast.SysTask):
                free = False
            elif isinstance(node, (ast.For, ast.While, ast.RepeatStmt,
                                   ast.Forever)):
                simple = False
            elif isinstance(node, ast.Call) and \
                    not node.name.startswith("$"):
                simple = False
                callee = self._function_info(node.name)
                info.reads |= callee.reads
                info.writes |= callee.writes
                free = free and callee.side_effect_free
        info.side_effect_free = free = free and not info.writes
        if not free or info.reads:
            return
        if simple and len(fn.ports) == 1 \
                and fn.ports[0].width <= _TABLE_MAX_BITS:
            info.table = self._tabulate(fn)
            return
        body = fn.body
        if isinstance(body, ast.Block) and len(body.stmts) == 1:
            body = body.stmts[0]
        if isinstance(body, ast.BlockingAssign) \
                and isinstance(body.lhs, ast.Ident) \
                and body.lhs.name in (short, fn.name):
            idents = [n.name for n in walk(body.rhs)
                      if isinstance(n, ast.Ident)]
            if set(idents) <= ports:
                info.inline = body.rhs
                info.uses = {p: idents.count(p) for p in ports}

    def _tabulate(self, fn: Function) -> str:
        """Evaluate a pure one-port function on every argument value at
        codegen time; the generated model indexes the table instead."""
        e = _Emitter()
        e.emit(0, "class _Fn:")
        _Printer(self).function(e, fn)
        namespace: Dict[str, object] = {"pyrt": pyrt}
        exec(compile(e.source(), f"<table:{fn.name}>", "exec"), namespace)
        method = getattr(namespace["_Fn"], self.fn_names[fn.name])
        name = "_T" + self.fn_names[fn.name][1:]
        values = tuple(method(None, v) for v in range(1 << fn.ports[0].width))
        self.tables.append(f"{name} = {values!r}")
        return name

    def _assign_reads(self, a: ast.ContinuousAssign) -> Set[str]:
        """What an assign reads, through the functions it calls too."""
        reads = read_set_of(a.rhs) | read_set_of_lvalue_indices(a.lhs)
        for name in _calls(a.rhs):
            reads |= self.fn_info[name].reads
        return reads

    def _sort_assigns(self) -> bool:
        """Order the continuous assigns so drivers precede readers, and
        say whether the network is *levelizable*: one pass in that order
        settles it.  That holds when no assign depends on its own target
        (directly or through other assigns), each fully driven variable
        has one driver, and every function the assigns call is free of
        side effects; the variables such a function reads count as
        dependencies.  Otherwise the assigns keep their order, and a
        fixpoint settles the network."""
        assigns = self.assigns
        writers: Dict[str, List[int]] = {}
        full: Dict[str, int] = {}
        for i, a in enumerate(assigns):
            for name in self.writes[i]:
                writers.setdefault(name, []).append(i)
            if isinstance(a.lhs, ast.Ident):
                full[a.lhs.name] = full.get(a.lhs.name, 0) + 1
        levelized = all(len(writers[name]) == 1 for name in full) and all(
            self.fn_info[name].side_effect_free
            for a in assigns for name in _calls(a.rhs))
        order: List[int] = []
        state = [0] * len(assigns)  # 0 new, 1 visiting, 2 done

        def visit(i: int) -> None:
            nonlocal levelized
            if state[i] == 2:
                return
            if state[i] == 1:
                levelized = False
                return
            state[i] = 1
            for name in sorted(self.reads[i]):
                for j in writers.get(name, ()):
                    visit(j)
            state[i] = 2
            order.append(i)

        for i in range(len(assigns)):
            visit(i)
        if levelized:
            self.assigns, self.reads, self.writes = (
                [xs[i] for i in order]
                for xs in (self.assigns, self.reads, self.writes))
        return levelized

    def _cones(self) -> List[List[int]]:
        """Group assigns (kept in order) that are connected through a
        variable one writes and another reads or writes."""
        n = len(self.assigns)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        users: Dict[str, int] = {}
        for i in range(n):
            for name in self.writes[i]:
                users.setdefault(name, i)
        for i in range(n):
            for name in self.reads[i] | self.writes[i]:
                j = users.get(name)
                if j is not None:
                    parent[find(i)] = find(j)
        cones: Dict[int, List[int]] = {}
        for i in range(n):
            cones.setdefault(find(i), []).append(i)
        return list(cones.values())


class _Printer:
    """Prints the model class from a schedule, numbering the fresh names
    of that one print; :mod:`repro.backend.kernels` extends it to print
    the cycle kernels."""

    def __init__(self, schedule: Schedule):
        self.s = schedule
        self._fresh = 0

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def model(self, class_name: str) -> str:
        """Source of the model class ``class_name``."""
        s = self.s
        e = _Emitter()
        e.emit(0, f"class {class_name}:")
        # When _gate_wakes is True (the software fast path), update()
        # raises the dirty flag only for changes the interpreter would
        # also have activated on, so ABI-level call counts — and hence
        # virtual-time charges — match the interpreter bit for bit.
        e.emit(1, "_gate_wakes = False")
        e.emit(1, f"_comb_wake = frozenset({tuple(sorted(s.comb_wake))!r})")
        e.emit(1, "_edge_wake = {" + ", ".join(
            f"{name!r}: frozenset({tuple(sorted(edges))!r})"
            for name, edges in sorted(s.edge_wake.items())) + "}")
        e.emit(1, f"_edge_signals = {tuple(sorted(s.edge_signals))!r}")
        for i in range(len(s.comb_blocks)):
            # Comb-block snapshots start unset so every block runs once.
            e.emit(1, f"_comb_snap{i} = None")
        self._emit_init(e)
        for fn in s.design.functions.values():
            self.function(e, fn)
        e.emit(1, "def _eval_comb(self):")
        self._emit_comb(e, 2, {}, kernel=False)
        e.blank()
        self._compile_seq(e)
        self._emit_framework(e)
        return self._module(e)

    def _module(self, e: _Emitter) -> str:
        """Generated code with the imports and lookup tables it uses."""
        return "\n".join(["from repro.backend import pyrt", ""]
                         + self.s.tables + [""]) + e.source()

    # ------------------------------------------------------------------
    def _emit_init(self, e: _Emitter) -> None:
        e.emit(1, "def __init__(self):")
        for var in self.s.design.vars.values():
            attr = _attr(var.name)
            # A signed initializer reads negative; the model holds the
            # unsigned value of the variable's width.
            init = var.init.to_int_xz(0) & _mask(var.width) \
                if var.init is not None else 0
            if var.is_array:
                e.emit(2, f"self.{attr} = [{init}] * {var.array[0]}")
                e.emit(2, f"self.g_{attr} = 0")
            else:
                e.emit(2, f"self.{attr} = {init}")
        for name in sorted(self.s.nba_targets):
            attr = _attr(name)
            e.emit(2, f"self.n_{attr} = self.{attr}")
        for name in self.s.both_ways:
            e.emit(2, f"self.m_{_attr(name)} = 0")
        e.emit(2, "self._nba_words = []")
        for _, key in self.s.cones:
            if key:
                e.emit(2, f"self.{key} = None")
        # Previous samples for edge detection.
        for sig in self.s.edge_signals:
            e.emit(2, f"self.p_{_attr(sig)} = self.{_attr(sig)}")
        e.emit(2, "self._tasks = []")
        e.emit(2, "self._nba = False")
        e.emit(2, "self._dirty = True")
        e.emit(2, "self._finished = None")
        e.emit(2, "self._time = 0")
        e.blank()

    def function(self, e: _Emitter, fn: Function) -> None:
        short = fn.name.split(".")[-1]
        frame: Dict[str, str] = {}
        args = []
        for port in fn.ports:
            py = "a_" + re.sub(r"\W", "_", port.name)
            frame[port.name] = py
            args.append(py)
        for var in fn.locals_:
            frame[var.name] = "l_" + re.sub(r"\W", "_", var.name)
        ret_py = "r_" + re.sub(r"\W", "_", short)
        frame[short] = ret_py
        frame[fn.name] = ret_py
        e.emit(1, f"def {self.s.fn_names[fn.name]}(self, "
               + ", ".join(args) + "):")
        for var in fn.locals_:
            e.emit(2, f"{frame[var.name]} = 0")
        e.emit(2, f"{ret_py} = 0")
        exprs = _ExprCompiler(self, frame)
        stmts = _StmtCompiler(self, e, exprs, nba_allowed=False)
        stmts.compile(fn.body, 2)
        e.emit(2, f"return {ret_py}")
        e.blank()

    def _emit_comb(self, e: _Emitter, indent: int, local: Dict[str, str],
                   kernel: bool) -> None:
        """One settle of the combinational network: the levelized pass,
        or passes until nothing changes, with each comb block re-run
        when a snapshot of what it reads changes."""
        if self.s.levelized:
            self._emit_levelized(e, indent, local, kernel)
            return
        st = "" if kernel else "self."
        vars_ = self.s.design.vars
        exprs = _ExprCompiler(self, local=local)
        inner = indent + 1
        e.emit(indent, "for _pass in range(128):")
        e.emit(inner, f"{st}_dirty = False")
        for assign in self.s.assigns:
            code, ctx, _ = exprs.rvalue(assign.rhs)
            stmts = _StmtCompiler(self, e, exprs, kernel=kernel)
            tmp = stmts.tmp()
            e.emit(inner, f"{tmp} = {code}")
            lhs = assign.lhs
            if isinstance(lhs, ast.Ident) and lhs.name in vars_:
                # Change detection on full-variable targets (the common
                # case) for fast convergence.
                width = vars_[lhs.name].width
                target = exprs._read(lhs.name)
                value = f"(({tmp}) & {_mask(width)})" if ctx > width \
                    else tmp
                e.emit(inner, f"if {target} != ({value}):")
                e.emit(inner + 1, f"{target} = {value}")
                e.emit(inner + 1, f"{st}_dirty = True")
            else:
                stmts._store(lhs, tmp, ctx, inner, blocking=True)
        for i, block in enumerate(self.s.comb_blocks):
            snap = [f"{st}g_{_attr(name)}" if vars_[name].is_array
                    else exprs._read(name)
                    for name in sorted(read_set_of(block.body))
                    if name in vars_]
            e.emit(inner, f"_snap{i} = ({', '.join(snap)},)"
                   if snap else f"_snap{i} = ()")
            e.emit(inner, f"if _snap{i} != {st}_comb_snap{i}:")
            e.emit(inner + 1, f"{st}_comb_snap{i} = _snap{i}")
            _StmtCompiler(self, e, exprs, kernel=kernel).compile(
                block.body, inner + 1)
            e.emit(inner + 1, f"{st}_dirty = True")
        e.emit(inner, f"if not {st}_dirty:")
        e.emit(inner + 1, "break")
        e.emit(indent, "else:")
        e.emit(inner,
               "raise RuntimeError('combinational loop did not settle')")

    def _emit_levelized(self, e: _Emitter, indent: int,
                        local: Dict[str, str], kernel: bool) -> None:
        """The whole network in one pass, in dependency order.

        In the model's method the variables the network only reads are
        loaded into locals up front, and each fully driven variable is
        computed into a local that later assigns read; its attribute is
        stored unconditionally, which leaves the state a fixpoint would.
        The kernel already holds every variable in a local.  A gated
        cone is skipped while a snapshot of everything it reads and
        writes is unchanged, since recomputing it would change nothing."""
        s, vars_ = self.s, self.s.design.vars
        assigns, reads, writes = s.assigns, s.reads, s.writes
        st = "" if kernel else "self."
        written = set().union(*writes)
        if not kernel:
            local = {}
            for name in sorted(set().union(*reads) - written):
                if name in vars_:
                    local[name] = _local(name)
                    e.emit(indent, f"{local[name]} = self.{_attr(name)}")
        exprs = _ExprCompiler(self, local=local)
        for cone, key in s.cones:
            inner = indent
            if key:
                snap = [f"{st}g_{_attr(n)}" if vars_[n].is_array
                        else exprs._read(n)
                        for n in sorted(set().union(*(reads[i] for i in cone))
                                        - written) if n in vars_]
                snap += [exprs._read(n) for n in
                         sorted(set().union(*(writes[i] for i in cone)))]
                snap_code = "(" + ", ".join(snap) + ",)"
                e.emit(indent, f"if {snap_code} != {st}{key}:")
                inner = indent + 1
            for i in cone:
                a = assigns[i]
                code, ctx, _ = exprs.rvalue(a.rhs)
                lhs = a.lhs
                if isinstance(lhs, ast.Ident) and lhs.name in vars_:
                    width = vars_[lhs.name].width
                    if ctx > width:
                        code = _fold(f"(({code}) & {_mask(width)})")
                    if kernel:
                        e.emit(inner, f"{local[lhs.name]} = {code}")
                        continue
                    e.emit(inner, f"{_local(lhs.name)} = {code}")
                    e.emit(inner,
                           f"self.{_attr(lhs.name)} = {_local(lhs.name)}")
                    local[lhs.name] = _local(lhs.name)
                else:
                    stmts = _StmtCompiler(self, e, exprs, kernel=kernel)
                    tmp = stmts.tmp()
                    e.emit(inner, f"{tmp} = {code}")
                    stmts._store(lhs, tmp, ctx, inner, blocking=True)
            if key:
                e.emit(inner, f"{st}{key} = {snap_code}")
        e.emit(indent, f"{st}_dirty = False")

    def _emit_seq(self, e: _Emitter, indent: int, exprs: _ExprCompiler,
                  kernel: bool) -> None:
        """Run each sequential block whose edge fired, in order (a block
        sees earlier blocks' blocking writes), into ``fired``; then
        sample every edge signal.  Every block tests the edge signals as
        the pass began: an edge a block makes fires in the next round."""
        st = "" if kernel else "self."
        e.emit(indent, "fired = False")
        cur = {sig: exprs._read(sig) for sig in self.s.edge_signals}
        if self.s.writes_edges:
            for sig in self.s.edge_signals:
                e.emit(indent, f"e_{_attr(sig)} = {cur[sig]}")
                cur[sig] = f"e_{_attr(sig)}"
        # Blocks in a row with the same test run under one: no block
        # changes what the tests read.
        last = None
        for i, block in enumerate(self.s.seq_blocks):
            tests = []
            for item in block.ctrl.items:
                now = cur[item.expr.name]
                prev = f"{st}p_{_attr(item.expr.name)}"
                tests.append(f"not {prev} & 1 and {now} & 1"
                             if item.edge == "posedge"
                             else f"{prev} & 1 and not {now} & 1")
            test = " or ".join(tests)
            if test != last:
                e.emit(indent, f"if {test}:")
                e.emit(indent + 1, "fired = True")
            last = test
            if kernel:
                _StmtCompiler(self, e, exprs, kernel=True).compile(
                    block.body, indent + 1)
            else:
                e.emit(indent + 1, f"self._seq_blk{i}()")
        for sig in self.s.edge_signals:
            e.emit(indent, f"{st}p_{_attr(sig)} = {cur[sig]}")

    def _compile_seq(self, e: _Emitter) -> None:
        e.emit(1, "def _seq(self):")
        self._emit_seq(e, 2, _ExprCompiler(self), kernel=False)
        e.emit(2, "return fired")
        e.blank()
        for i, block in enumerate(self.s.seq_blocks):
            e.emit(1, f"def _seq_blk{i}(self):")
            exprs = _ExprCompiler(self, local=self._block_locals(e, block))
            stmts = _StmtCompiler(self, e, exprs)
            stmts.compile(block.body, 2)
            e.blank()

    def _block_locals(self, e: _Emitter,
                      block: ast.AlwaysBlock) -> Dict[str, str]:
        """Load the variables a sequential block reads more than once
        into locals (blocking stores write both back).  A block calling
        a function that writes design variables keeps every read on the
        attributes."""
        counts: Dict[str, int] = {}
        for node in walk(block.body):
            if isinstance(node, ast.Ident):
                counts[node.name] = counts.get(node.name, 0) + 1
            elif isinstance(node, ast.Call) and \
                    not node.name.startswith("$") and \
                    not self.s.fn_info[node.name].side_effect_free:
                return {}
        local: Dict[str, str] = {}
        for name in sorted(counts):
            if counts[name] > 1 and name in self.s.design.vars:
                local[name] = _local(name)
                e.emit(2, f"{local[name]} = self.{_attr(name)}")
        return local

    def _emit_framework(self, e: _Emitter) -> None:
        e.emit(1, "def evaluate(self):")
        e.emit(2, "_eval_comb, _seq = self._eval_comb, self._seq")
        e.emit(2, "for _round in range(64):")
        e.emit(3, "_eval_comb()")
        e.emit(3, "if not _seq():")
        e.emit(4, "return")
        e.emit(2, "raise RuntimeError('evaluation did not converge')")
        e.blank()
        e.emit(1, "def update(self):")
        e.emit(2, "changed = False")
        e.emit(2, "wake = False")
        for name in sorted(self.s.nba_targets):
            attr = _attr(name)
            indent = self._emit_merge(e, 2, name, "self.")
            e.emit(indent, f"if self.{attr} != self.n_{attr}:")
            match = self._edge_only_match(name, f"self.{attr}",
                                          f"self.n_{attr}")
            if name in self.s.comb_wake:
                e.emit(indent + 1, "wake = True")
            elif match:
                # Edge-only signal: activation requires the LSB
                # transition to match a registered edge.  When it does
                # not, keep the previous-sample variable in sync so a
                # later matching edge is still detected (_seq will not
                # run for this change).
                e.emit(indent + 1, f"if {match}:")
                e.emit(indent + 2, "wake = True")
                e.emit(indent + 1, "else:")
                e.emit(indent + 2, f"self.p_{attr} = self.n_{attr}")
            e.emit(indent + 1, f"self.{attr} = self.n_{attr}")
            e.emit(indent + 1, "changed = True")
        e.emit(2, "if self._nba_words:")
        e.emit(3, "for _arr, _off, _val, _wakes in self._nba_words:")
        e.emit(4, "if _arr[_off] != _val:")
        e.emit(5, "_arr[_off] = _val")
        e.emit(5, "changed = True")
        e.emit(5, "if _wakes:")
        e.emit(6, "wake = True")
        for name in sorted(self.s.nba_array_targets):
            e.emit(3, f"self.g_{_attr(name)} += 1")
        e.emit(3, "self._nba_words = []")
        e.emit(2, "self._nba = False")
        e.emit(2, "if changed and (wake or not self._gate_wakes):")
        e.emit(3, "self._dirty = True")
        e.emit(2, "return changed")
        e.blank()
        e.emit(1, "def there_are_updates(self):")
        e.emit(2, "return self._nba")
        e.blank()
        e.emit(1, "def _task_display(self, parts, newline):")
        e.emit(2, "self._tasks.append(('display', parts, newline))")
        e.blank()
        e.emit(1, "def _task_finish(self, code):")
        e.emit(2, "self._tasks.append(('finish', code, True))")
        e.emit(2, "self._finished = code")
        e.blank()

    def _emit_merge(self, e: _Emitter, indent: int, name: str,
                    st: str) -> int:
        """For a variable written both ways, open a block that runs only
        when a nonblocking write set bits of it this step, and that
        first merges those bits into the shadow; returns the indent the
        update of ``name`` continues at."""
        if name not in self.s.both_ways:
            return indent
        attr = _attr(name)
        e.emit(indent, f"if {st}m_{attr}:")
        e.emit(indent + 1, f"{st}n_{attr} = ({st}{attr} & ~{st}m_{attr}) "
               f"| ({st}n_{attr} & {st}m_{attr})")
        e.emit(indent + 1, f"{st}m_{attr} = 0")
        return indent + 1

    def _edge_only_match(self, name: str, old: str, new: str
                         ) -> Optional[str]:
        """For a signal only edge controls read, a test that its change
        ``old`` -> ``new`` matches a registered edge; else None."""
        edges = self.s.edge_wake.get(name)
        if not edges or name in self.s.comb_wake:
            return None
        if len(edges) == 2:
            return f"({old} ^ {new}) & 1"
        if "posedge" in edges:
            return f"{new} & ~{old} & 1"
        return f"{old} & ~{new} & 1"


def compile_design(design: Design,
                   class_name: str = "CompiledModel") -> CompiledDesign:
    """Compile a synthesizable design into a fast Python model."""
    schedule = Schedule(design)
    source = _Printer(schedule).model(class_name)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<compiled:{design.name}>", "exec"), namespace)
    return CompiledDesign(design, source, namespace[class_name], schedule)
