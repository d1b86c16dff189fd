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
(``n_*``) plus pending array writes (``nw_*``), the update flag
(``_nba``), previous edge samples (``p_*``) and the task queue
(``_tasks``).  This module analyses a design once into a
:class:`Schedule` and holds the expression and statement printers;
:class:`repro.backend.kernels.KernelPrinter` prints from them the
model's methods, Figure 10's open loop (``_oloop``,
:meth:`CompiledDesign.open_loop_kernel`), which toggles the clock
itself, and the software fast path's closed-loop batch
(:meth:`CompiledDesign.batch_kernel`).  Each of these entry points holds
the state in locals for the length of a call, and in each every block
of a sequential pass tests the edge signals as the pass began.
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
from ..verilog.visitor import calls_of, lvalue_names, read_set_of, walk
from . import pyrt

__all__ = ["CODEGEN_VERSION", "CompiledDesign", "compile_design"]

#: Bumped whenever the generated model changes shape, so on-disk cache
#: entries written by an older code generator miss instead of loading.
CODEGEN_VERSION = 9

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
        self._kernels: Dict[Tuple[str, str, tuple], Callable] = {}

    def instantiate(self):
        return self.model_class()

    def open_loop_kernel(self, clock_attr: str, hooks: tuple = ()
                         ) -> Callable[..., int]:
        """The open-loop kernel for the clock held in model attribute
        ``clock_attr`` and the absorbed clocked engines ``hooks``
        describes (``KernelPrinter.kernel``): ``kernel(model, steps,
        *engines)`` runs up to ``steps`` half ticks and returns how many
        ran.  Printed on first request (only engines that reach open
        loop ask) and kept."""
        return self._kernel("open_loop", clock_attr, hooks)

    def batch_kernel(self, clock_attr: str) -> Callable:
        """The closed-loop batch kernel for the clock held in model
        attribute ``clock_attr`` (``KernelPrinter.batch``).  Printed on
        the software fast path's first batch and kept."""
        return self._kernel("batch", clock_attr)

    def _kernel(self, kind: str, clock_attr: str,
                hooks: tuple = ()) -> Callable:
        kernel = self._kernels.get((kind, clock_attr, hooks))
        if kernel is None:
            from .kernels import KernelPrinter  # imports this module
            if self.schedule is None:
                self.schedule = Schedule(self.design)
            printer = KernelPrinter(self.schedule)
            source = printer.kernel(clock_attr, hooks) \
                if kind == "open_loop" else printer.batch(clock_attr)
            namespace: Dict[str, object] = {}
            exec(compile(source, f"<{kind}:{self.design.name}>", "exec"),
                 namespace)
            kernel = namespace[kind]
            kernel.source = source  # type: ignore[attr-defined]
            self._kernels[kind, clock_attr, hooks] = kernel
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
    function ports and locals to code; a design variable is read from
    the Python local named like its model attribute, which every entry
    point and every function method holds.  Constant sub-expressions
    fold at codegen time, and with them index, select and shift guards.
    """

    def __init__(self, printer: "KernelPrinter",
                 frame: Optional[Dict[str, str]] = None):
        self.c = printer
        self.frame = frame or {}

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
        return self.frame.get(name) or _attr(name)

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
        method call, cheapest first.  A method also takes the design
        variables the function reads or writes; when it writes any, the
        call stores what it returns into the caller's locals within the
        expression, so a loop condition sees them on every pass."""
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
        self.c.called.add(fn.name)
        call = f"self.{self.c.s.fn_names[fn.name]}(" \
            + ", ".join(args + info.params) + ")"
        if not info.returns:
            return call
        c = self.c.fresh("_c")
        stores = [f"({name} := {c}[{k}])"
                  for k, name in enumerate(info.returns, 2)]
        return f"(({c} := {call}), {', '.join(stores)}, " \
            f"(_dirty := {c}[1] or _dirty))[0][0]"


class _StmtCompiler:
    """Compiles statements inside always blocks (and functions).

    Every design variable is a Python local named like its model
    attribute (a function method takes the ones it reads or writes as
    arguments), so a store is a plain assignment.  A nonblocking write
    goes to the variable's shadow ``n_*``, or for an array word to the
    printer's pending words (:meth:`KernelPrinter.emit_pending_word`);
    a write of a target the printer flags also raises its change flag."""

    def __init__(self, printer: "KernelPrinter", emitter: _Emitter,
                 exprs: _ExprCompiler, nba_allowed: bool = True):
        self.c = printer
        self.e = emitter
        self.x = exprs
        self.nba_allowed = nba_allowed
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
                    and name in lvalue_names(node.lhs):
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
        return _attr(name) if blocking else f"n_{_attr(name)}"

    def _flag_old(self, name: str, blocking: bool, indent: int
                  ) -> Optional[str]:
        """Before a nonblocking write of a flagged scalar, a local
        holding its pending value; else None."""
        if blocking or name not in self.c.flags:
            return None
        old = self.c.fresh("_o")
        self.e.emit(indent, f"{old} = {self.c.pending_value(name)}")
        return old

    def _written(self, name: str, blocking: bool, indent: int,
                 old: Optional[str] = None) -> None:
        """Bookkeeping after a store to a design variable: a blocking
        store raises the dirty flag so combinational logic resettles, a
        nonblocking one the update flag and any change flag."""
        if blocking:
            self.e.emit(indent, "_dirty = True")
            return
        if old is not None:
            self.c.emit_write_flag(self.e, indent, name, old)
        self.e.emit(indent, "_nba = True")

    def _store_ident(self, ident: ast.Ident, value: str, value_w: int,
                     indent: int, blocking: bool) -> None:
        name, w = ident.name, ident.width
        code = _fold(f"(({value}) & {_mask(w)})") if value_w > w else value
        old = self._flag_old(name, blocking, indent)
        self.e.emit(indent, f"{self._target(name, blocking)} = {code}")
        if not blocking and name in self.c.s.both_ways:
            self.e.emit(indent, f"m_{_attr(name)} = {_mask(w)}")
        if name not in self.x.frame:
            self._written(name, blocking, indent, old)

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
            self.e.emit(indent + 1, f"g_{_attr(name)} += 1")
            self.e.emit(indent + 1, "_dirty = True")
        else:
            self.c.emit_pending_word(self.e, indent, name, off, masked)
            self.e.emit(indent, "_nba = True")

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
        old = self._flag_old(name, blocking, indent)
        masked = not blocking and name in self.c.s.both_ways
        mask = f"m_{_attr(name)}"
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
            self._written(name, blocking, indent, old)

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


class _FnInfo:
    """What codegen knows about one Verilog function.

    ``reads`` and ``writes`` are the design variables it reads and
    writes, through its callees too; it is ``side_effect_free`` when it
    writes none and neither it nor a callee runs a system task.  A pure
    function (side effect free, reading only its arguments) compiles to
    a lookup ``table`` when it has one narrow port and no loops or
    calls, and otherwise may be ``inline``d: ``inline`` is the
    right-hand side when the body is one assignment of the result, and
    ``uses`` counts each port's references in it.

    Its method takes the design variables it reads or writes after its
    ports (``params``, the callers' local names, with each written
    array's generation counter too), and returns the result alone, or
    when it writes any ``(result, dirty, *returns)`` with ``returns``
    the written ones' new values."""

    def __init__(self):
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.side_effect_free = True
        self.inline: Optional[ast.Expr] = None
        self.uses: Dict[str, int] = {}
        self.table: Optional[str] = None
        self.params: List[str] = []
        self.returns: List[str] = []


_LOOPS = (ast.For, ast.While, ast.RepeatStmt, ast.Forever)


def _nba_writes(stmt: Optional[ast.Stmt]) -> Dict[str, int]:
    """How many nonblocking writes of each variable one run of ``stmt``
    may make, on its longest path; a loop body counts twice."""
    out: Dict[str, int] = {}
    if isinstance(stmt, ast.NonblockingAssign):
        for name in lvalue_names(stmt.lhs):
            out[name] = out.get(name, 0) + 1
    elif isinstance(stmt, ast.Block):
        for sub in stmt.stmts:
            for name, n in _nba_writes(sub).items():
                out[name] = out.get(name, 0) + n
    elif isinstance(stmt, (ast.If, ast.Case)):
        arms = [stmt.then, stmt.els] if isinstance(stmt, ast.If) \
            else [item.body for item in stmt.items]
        for arm in arms:
            for name, n in _nba_writes(arm).items():
                out[name] = max(out.get(name, 0), n)
    elif isinstance(stmt, _LOOPS):
        out = {name: 2 * n for name, n in _nba_writes(stmt.body).items()}
    return out


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
            self.comb_wake |= design.assign_reads(assign)
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
                                    for name in calls_of(a))
        seq = set(self.seq_blocks)
        seq_calls: Set[str] = set()
        seq_stores: Set[str] = set()
        blocking = {name for a in design.assigns
                    for name in lvalue_names(a.lhs)}
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
                    blocking.update(lvalue_names(node.lhs))
                    if block in seq:
                        seq_stores.update(lvalue_names(node.lhs))
                elif isinstance(node, ast.NonblockingAssign):
                    for name in lvalue_names(node.lhs):
                        (self.nba_array_targets if vars_[name].is_array
                         else self.nba_targets).add(name)
        for name in logic_calls:
            self._function_info(name)
        for fn in design.functions.values():
            if fn.name not in self.fn_info:  # uncalled, but printed
                for name in calls_of(fn.body):
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
        #: Scalars whose change wakes logic and that one step may write
        #: nonblocking more than once: a step may write one and then
        #: write its old value back, and the interpreter wakes on each
        #: write that changes it, so a wake-gated update reads a
        #: per-write change flag ``wk_*``.  A comb block may run more
        #: than once a step, and so may every sequential block when one
        #: writes an edge signal.
        writes: Dict[str, int] = {}
        for block in design.always:
            repeat = block not in seq or self.writes_edges
            for name, n in _nba_writes(block.body).items():
                writes[name] = writes.get(name, 0) + (2 * n if repeat else n)
        self.flagged = {name for name, n in writes.items()
                        if n > 1 and (name in self.comb_wake
                                      or name in self.edge_wake)}
        #: The targets whose writes raise ``wk_*`` in the model's
        #: methods: the flagged scalars and every array whose pending
        #: writes are a copy, since the model's update reports a change.
        self.model_flags = self.flagged | (self.nba_array_targets
                                           - self.word_pending)

        self.assigns = list(design.assigns)
        self.reads = [design.assign_reads(a) for a in self.assigns]
        self.writes = [set(lvalue_names(a.lhs)) for a in self.assigns]
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
        effects = self.design.effects(fn.name)
        info.reads, info.writes = effects.reads, effects.writes
        info.side_effect_free = free = effects.side_effect_free
        short = fn.name.split(".")[-1]
        ports = {p.name for p in fn.ports}
        simple = True
        for node in walk(fn.body):
            if isinstance(node, _LOOPS):
                simple = False
            elif isinstance(node, ast.Call) and \
                    not node.name.startswith("$"):
                simple = False
                self._function_info(node.name)
        vars_ = self.design.vars
        for name in sorted((info.reads | info.writes) & vars_.keys()):
            info.params.append(_attr(name))
            if name in info.writes:
                info.returns.append(f"g_{_attr(name)}" if vars_[name].is_array
                                    else _attr(name))
        info.params += [r for r in info.returns if r.startswith("g_")]
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
        from .kernels import KernelPrinter  # imports this module
        e = _Emitter()
        e.emit(0, "class _Fn:")
        KernelPrinter(self).function(e, fn)
        namespace: Dict[str, object] = {"pyrt": pyrt}
        exec(compile(e.source(), f"<table:{fn.name}>", "exec"), namespace)
        method = getattr(namespace["_Fn"], self.fn_names[fn.name])
        name = "_T" + self.fn_names[fn.name][1:]
        values = tuple(method(None, v) for v in range(1 << fn.ports[0].width))
        self.tables.append(f"{name} = {values!r}")
        return name

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
            for a in assigns for name in calls_of(a.rhs))
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


def compile_design(design: Design,
                   class_name: str = "CompiledModel") -> CompiledDesign:
    """Compile a synthesizable design into a fast Python model."""
    from .kernels import KernelPrinter  # imports this module
    schedule = Schedule(design)
    source = KernelPrinter(schedule).model(class_name)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<compiled:{design.name}>", "exec"), namespace)
    return CompiledDesign(design, source, namespace[class_name], schedule)
