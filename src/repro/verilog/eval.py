"""Expression evaluation over sized expressions.

The interpreter (:mod:`repro.interp.engine`) and constant evaluation
during elaboration evaluate Verilog expressions here.  Widths and signs
are *not* decided here: :mod:`repro.verilog.sizing` decides them once,
at elaboration, for every tier.  :meth:`ExprEvaluator.eval` evaluates
each node at its annotated ``ctx_width``, extending operands with the
annotated ``ctx_signed`` — the *expression's* sign, which is signed only
when every operand of the context is (§5.5.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from ..common.bits import Bits
from ..common.errors import EvalError
from . import ast
from .sizing import Select, size_constant

__all__ = ["Scope", "ExprEvaluator", "const_eval", "ConstScope"]


class Scope(Protocol):
    """The values the evaluator reads from the surrounding design."""

    def read(self, name: str) -> Bits:
        """Current value of a scalar/vector variable."""
        ...

    def read_word(self, name: str, offset: int) -> Bits:
        """Current value of the word of memory ``name`` stored at
        ``offset`` (x when out of range)."""
        ...

    def call_function(self, name: str, args: List[Bits]) -> Bits:
        ...

    def sys_func(self, name: str, args: List[ast.Expr],
                 evaluator: "ExprEvaluator") -> Bits:
        """Evaluate a system function such as $time or $random."""
        ...


_ARITH_OPS = frozenset(["+", "-", "*", "/", "%"])
_BITWISE_OPS = frozenset(["&", "|", "^", "^~", "~^"])
_COMPARE_OPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
_LOGICAL_OPS = frozenset(["&&", "||"])
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>"])
_REDUCTION_OPS = frozenset(["&", "~&", "|", "~|", "^", "~^", "^~"])


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
class ExprEvaluator:
    """Evaluates sized expressions against a :class:`Scope`."""

    def __init__(self, scope: Scope):
        self.scope = scope

    # -- public API ----------------------------------------------------
    def eval(self, expr: ast.Expr) -> Bits:
        """The value of ``expr`` at its annotated context width."""
        ctx = expr.ctx_width
        signed = expr.ctx_signed
        if isinstance(expr, ast.Ident):
            return self._coerce(self._read_ident(expr), ctx, signed)
        if isinstance(expr, ast.Number):
            return self._coerce(expr.value, ctx, signed)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, ctx, signed)
        if isinstance(expr, ast.IndexExpr):
            return self._coerce(self._eval_index(expr), ctx, signed)
        if isinstance(expr, ast.RangeExpr):
            return self._coerce(self._eval_range(expr), ctx, signed)
        if isinstance(expr, ast.Unary):
            return self._eval_unary(expr, ctx, signed)
        if isinstance(expr, ast.Ternary):
            return self._eval_ternary(expr, ctx)
        if isinstance(expr, ast.Concat):
            parts = [self.eval(p) for p in expr.parts]
            return self._coerce(Bits.concat(parts), ctx, signed)
        if isinstance(expr, ast.Repeat):
            inner = self.eval(expr.inner)
            return self._coerce(inner.replicate(expr.times), ctx, signed)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, ctx, signed)
        if isinstance(expr, ast.StringLit):
            data = expr.value.encode("latin-1", "replace") or b"\0"
            return Bits.from_int(int.from_bytes(data, "big"), ctx)
        raise EvalError(f"cannot evaluate {type(expr).__name__}")

    def eval_bool(self, expr: ast.Expr) -> bool:
        """Condition truthiness: a known-1 bit somewhere."""
        return bool(self.eval(expr))

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _coerce(value: Bits, ctx: int, signed: bool) -> Bits:
        """Convert an operand to the propagated type and size: extended
        with the sign only when the propagated type is signed."""
        if value.width == ctx and value.signed == signed:
            return value
        v = value.as_signed() if signed else value.as_unsigned()
        if v.width == ctx:
            return v
        if v.width > ctx:
            return v.resize(ctx)
        return v.extend(ctx)

    def _read_ident(self, expr: ast.Ident) -> Bits:
        try:
            return self.scope.read(expr.name)
        except KeyError:
            raise EvalError(f"undeclared identifier {expr.name!r}") from None

    def low(self, sel: Select, index: ast.Expr) -> Optional[int]:
        """A select's low position, None for an x/z index."""
        if sel.low is not None:
            return sel.low
        value = self.eval(index)
        if value.has_xz:
            return None
        return sel.at(value.to_int() if value.signed else value.to_uint())

    def _base(self, base: ast.Expr) -> Bits:
        if isinstance(base, ast.Ident):
            return self._read_ident(base)
        return self.eval(base)

    def _eval_index(self, expr: ast.IndexExpr) -> Bits:
        sel = expr.select
        low = self.low(sel, expr.index)
        if low is None:
            return Bits.xes(expr.width)
        if sel.word:
            return self.scope.read_word(expr.base.name, low)
        return self._base(expr.base).select(low)

    def _eval_range(self, expr: ast.RangeExpr) -> Bits:
        low = self.low(expr.select, expr.left)
        if low is None:
            return Bits.xes(expr.width)
        return self._base(expr.base).part(low + expr.width - 1, low)

    def _eval_unary(self, expr: ast.Unary, ctx: int, signed: bool) -> Bits:
        op = expr.op
        if op == "!":
            return self._coerce(self.eval(expr.operand).log_not(),
                                ctx, signed)
        if op in _REDUCTION_OPS:
            v = self.eval(expr.operand)
            result = {
                "&": v.reduce_and, "~&": v.reduce_nand,
                "|": v.reduce_or, "~|": v.reduce_nor,
                "^": v.reduce_xor, "~^": v.reduce_xnor,
                "^~": v.reduce_xnor,
            }[op]()
            return self._coerce(result, ctx, signed)
        operand = self.eval(expr.operand)
        if op == "~":
            return operand.not_()
        if op == "-":
            return operand.neg()
        if op == "+":
            return operand.plus()
        raise EvalError(f"unknown unary operator {op!r}")

    def _eval_binary(self, expr: ast.Binary, ctx: int, signed: bool) -> Bits:
        op = expr.op
        if op in _LOGICAL_OPS:
            lhs = self.eval(expr.lhs)
            rhs = self.eval(expr.rhs)
            out = lhs.log_and(rhs) if op == "&&" else lhs.log_or(rhs)
            return self._coerce(out, ctx, signed)
        lhs = self.eval(expr.lhs)
        rhs = self.eval(expr.rhs)
        if op in _COMPARE_OPS:
            out = {
                "==": lhs.eq, "!=": lhs.neq,
                "===": lhs.case_eq, "!==": lhs.case_neq,
                "<": lhs.lt, "<=": lhs.le, ">": lhs.gt, ">=": lhs.ge,
            }[op](rhs)
            return self._coerce(out, ctx, signed)
        if op in _SHIFT_OPS:
            if op == "<<" or op == "<<<":
                return lhs.shl(rhs)
            if op == ">>":
                return lhs.shr(rhs)
            return lhs.ashr(rhs)
        if op == "**":
            return lhs.pow(rhs.extend(ctx) if rhs.width < ctx
                           else rhs.resize(ctx))
        if op in _ARITH_OPS:
            return {
                "+": lhs.add, "-": lhs.sub, "*": lhs.mul,
                "/": lhs.div, "%": lhs.mod,
            }[op](rhs)
        if op in _BITWISE_OPS:
            return {
                "&": lhs.and_, "|": lhs.or_, "^": lhs.xor_,
                "^~": lhs.xnor_, "~^": lhs.xnor_,
            }[op](rhs)
        raise EvalError(f"unknown binary operator {op!r}")

    def _eval_ternary(self, expr: ast.Ternary, ctx: int) -> Bits:
        cond = self.eval(expr.cond)
        if not cond.has_xz:
            return self.eval(expr.then if bool(cond) else expr.els)
        # Ambiguous condition: bitwise merge of both branches (§5.1.13).
        then = self.eval(expr.then)
        els = self.eval(expr.els)
        agree = ~(then.aval ^ els.aval) & ~(then.bval | els.bval)
        mask = (1 << ctx) - 1
        differ = ~agree & mask
        return Bits(ctx, (then.aval & agree) | differ,
                    (then.bval & agree) | differ)

    def _eval_call(self, expr: ast.Call, ctx: int, signed: bool) -> Bits:
        name = expr.name
        if name == "$signed":
            return self._coerce(self.eval(expr.args[0]).as_signed(), ctx,
                                signed)
        if name == "$unsigned":
            return self._coerce(self.eval(expr.args[0]).as_unsigned(), ctx,
                                signed)
        if name == "$clog2":
            v = self.eval(expr.args[0])
            if v.has_xz:
                return Bits.xes(ctx)
            n = v.to_uint()
            result = (n - 1).bit_length() if n > 1 else 0
            return self._coerce(Bits.from_int(result, 32, True), ctx, signed)
        if name == "$bits":
            return self._coerce(Bits.from_int(expr.args[0].width, 32), ctx,
                                signed)
        if name.startswith("$"):
            out = self.scope.sys_func(name, expr.args, self)
            return self._coerce(out, ctx, signed)
        args = [self.eval(a) for a in expr.args]
        return self._coerce(self.scope.call_function(name, args), ctx,
                            signed)


# ----------------------------------------------------------------------
# Constant evaluation
# ----------------------------------------------------------------------
class ConstScope:
    """A scope over a fixed table of named constants (parameters)."""

    def __init__(self, values: Optional[Dict[str, Bits]] = None):
        self.values = dict(values or {})

    def read(self, name: str) -> Bits:
        return self.values[name]

    def read_word(self, name: str, offset: int) -> Bits:
        raise EvalError(f"memory {name!r} in constant expression")

    def call_function(self, name: str, args: List[Bits]) -> Bits:
        raise EvalError(f"function call {name!r} in constant expression")

    def sys_func(self, name: str, args, evaluator) -> Bits:
        raise EvalError(f"system function {name!r} in constant expression")


def const_eval(expr: ast.Expr,
               params: Optional[Dict[str, Bits]] = None) -> Bits:
    """Size and evaluate a constant expression over parameter values."""
    size_constant(expr, params)
    return ExprEvaluator(ConstScope(params)).eval(expr)
