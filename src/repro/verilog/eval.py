"""Expression lowering over sized expressions.

The interpreter (:mod:`repro.interp.engine`) and constant evaluation
during elaboration both run Verilog expressions through here.  Widths
and signs are *not* decided here: :mod:`repro.verilog.sizing` decides
them once, at elaboration, for every tier.  :class:`Lowering` turns each
sized node, once, into a closure ``f(frame)`` that returns the node's
value as ``(aval, bval)`` int planes at its annotated ``ctx_width``,
extended with the annotated ``ctx_signed`` — the *expression's* sign,
which is signed only when every operand of the context is (§5.5.4).
Masks, extensions and select maps are fixed when a node is lowered, and
a node whose operands are all constant folds to its planes then.

The x/z rules themselves live in :mod:`repro.common.bits`, once, as
plane-level functions; a closure inlines at most the all-known fast
path.  A :class:`Scope` binds names: :class:`ConstScope` to parameter
values (:func:`const_eval`, and sizing's constant folding), the
interpreter's engine to its variables, memories, function frames,
functions and system functions.  ``frame`` is the current function
frame (a list of planes, one slot per port, local and result) or None
outside functions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ..common import bits as B
from ..common.bits import Bits
from ..common.errors import EvalError
from . import ast
from .sizing import Select, size_constant

__all__ = ["Scope", "ConstScope", "Lowering", "closure", "coerce",
           "const_eval", "fold"]

Planes = Tuple[int, int]
Frame = Optional[list]
Lowered = Callable[[Frame], Planes]
#: A lowered node: its planes when constant, else its closure.
Node = Union[Planes, Lowered]


class Scope:
    """Binds the names an expression reads.  Each hook returns the
    lowered node (planes or closure) at the node's self-determined
    width, or raises :class:`EvalError` when the construct is not
    available here."""

    def read(self, e: ast.Ident) -> Node:
        raise EvalError(f"undeclared identifier {e.name!r}")

    def read_word(self, e: ast.IndexExpr, low) -> Node:
        """Word ``low`` (see :meth:`Lowering.low`) of memory
        ``e.base``."""
        raise EvalError(f"memory {e.base.name!r} in constant expression")

    def call(self, e: ast.Call, args: List[Lowered]) -> Node:
        raise EvalError(f"function call {e.name!r} in constant expression")

    def sys_call(self, e: ast.Call, args: List[Lowered]) -> Node:
        raise EvalError(f"system function {e.name!r} in constant expression")


class ConstScope(Scope):
    """A scope over a fixed table of named constants (parameters)."""

    def __init__(self, values: Optional[Dict[str, Bits]] = None):
        self.values = dict(values or {})

    def read(self, e: ast.Ident) -> Node:
        value = self.values.get(e.name)
        if value is None:
            return super().read(e)
        return value.aval, value.bval


def closure(node: Node) -> Lowered:
    """A closure for a lowered node."""
    if type(node) is tuple:
        return lambda fr, c=node: c
    return node


def coerce(node: Node, w: int, cw: int, signed: bool) -> Node:
    """A ``w``-bit node converted to the context width ``cw``: truncated,
    or extended with the context's sign (:func:`repro.common.bits.extend`).
    Planes are stored masked, so only a set sign bit (signed) or an x/z
    MSB needs work."""
    if cw == w:
        return node
    if type(node) is tuple:
        return B.extend(*node, w, cw, signed)
    if cw < w:
        m = (1 << cw) - 1

        def trunc(fr):
            a, b = node(fr)
            return a & m, b & m
        return trunc
    top = 1 << (w - 1)
    extend = B.extend

    if signed:
        def sext(fr):
            a, b = node(fr)
            if (a | b) & top:
                return extend(a, b, w, cw, True)
            return a, b
        return sext

    def zext(fr):
        a, b = node(fr)
        if b & top:
            return extend(a, b, w, cw, False)
        return a, b
    return zext


class Lowering:
    """Lowers sized expressions against a :class:`Scope`."""

    def __init__(self, scope: Scope):
        self.scope = scope

    # -- public API ----------------------------------------------------
    def expr(self, e: ast.Expr) -> Lowered:
        """The closure for ``e`` at its annotated context width."""
        return closure(self.node(e))

    def node(self, e: ast.Expr) -> Node:
        """``e`` lowered: its planes when constant, else its closure."""
        return _RULES[type(e)](self, e, e.ctx_width, e.ctx_signed)

    def low(self, sel: Select, index: ast.Expr):
        """A select's low position: an int when constant, else a
        closure returning the position, or None for an x/z index."""
        if sel.low is not None:
            return sel.low
        idx = self.expr(index)
        w, signed = index.ctx_width, index.ctx_signed
        step, bias = sel.step, sel.bias
        top = 1 << (w - 1)

        def low(fr):
            a, b = idx(fr)
            if b:
                return None
            if signed and a & top:
                a -= top << 1
            return step * a + bias
        return low

    # -- leaves ----------------------------------------------------------
    def _number(self, e: ast.Number, cw: int, signed: bool) -> Node:
        v = e.value
        return B.extend(v.aval, v.bval, v.width, cw, signed)

    def _string(self, e: ast.StringLit, cw: int, signed: bool) -> Node:
        data = e.value.encode("latin-1", "replace") or b"\0"
        return int.from_bytes(data, "big") & ((1 << cw) - 1), 0

    def _ident(self, e: ast.Ident, cw: int, signed: bool) -> Node:
        return coerce(self.scope.read(e), e.width, cw, signed)

    # -- selects -----------------------------------------------------------
    def _part(self, base: Node, bw: int, low, width: int) -> Node:
        """Bits ``[low, low + width)`` of a ``bw``-bit node."""
        m = (1 << width) - 1
        part = B.part
        if type(low) is int:
            if type(base) is tuple:
                return part(*base, bw, low, width)
            if low < 0 or low + width > bw:
                return lambda fr: part(*base(fr), bw, low, width)
            if low == 0 and width == bw:
                return base

            def fixed(fr):
                a, b = base(fr)
                return a >> low & m, b >> low & m
            return fixed
        base = closure(base)
        xs = (m, m)

        def dynamic(fr):
            lo = low(fr)
            if lo is None:
                return xs
            a, b = base(fr)
            if 0 <= lo and lo + width <= bw:
                return a >> lo & m, b >> lo & m
            return part(a, b, bw, lo, width)
        return dynamic

    def _index(self, e: ast.IndexExpr, cw: int, signed: bool) -> Node:
        sel = e.select
        low = self.low(sel, e.index)
        if sel.word:
            value = self.scope.read_word(e, low)
        else:
            value = self._part(self.node(e.base), e.base.ctx_width, low, 1)
        return coerce(value, e.width, cw, signed)

    def _range(self, e: ast.RangeExpr, cw: int, signed: bool) -> Node:
        low = self.low(e.select, e.left)
        value = self._part(self.node(e.base), e.base.ctx_width, low,
                           e.width)
        return coerce(value, e.width, cw, signed)

    # -- operators ---------------------------------------------------------
    def _unary(self, e: ast.Unary, cw: int, signed: bool) -> Node:
        op = e.op
        const, (x,) = _operands(self.node(e.operand))
        m = (1 << cw) - 1
        if op == "!":
            rule = B.log_not
            return coerce(_done(lambda fr: rule(*x(fr)), const), 1, cw,
                          signed)
        if op in _REDUCTIONS:
            rule, wm = _REDUCTIONS[op], (1 << e.operand.ctx_width) - 1
            return coerce(_done(lambda fr: rule(*x(fr), wm), const), 1,
                          cw, signed)
        if op == "~":
            def not_(fr):
                a, b = x(fr)
                if not b:
                    return ~a & m, 0
                return B.not_(a, b, m)
            return _done(not_, const)
        if op == "-":
            def neg(fr):
                a, b = x(fr)
                if not b:
                    return -a & m, 0
                return B.neg(a, b, m)
            return _done(neg, const)
        if op == "+":
            plus = B.plus
            return _done(lambda fr: plus(*x(fr), m), const)
        raise EvalError(f"unknown unary operator {op!r}")

    def _binary(self, e: ast.Binary, cw: int, signed: bool) -> Node:
        op = e.op
        const, (x, y) = _operands(self.node(e.lhs), self.node(e.rhs))
        if op in _LOGICAL:
            rule = _LOGICAL[op]
            return coerce(_done(lambda fr: rule(*x(fr), *y(fr)), const),
                          1, cw, signed)
        if op in _COMPARES:
            test = _compare(op, x, y, e.lhs.ctx_width, e.lhs.ctx_signed)
            return coerce(_done(test, const), 1, cw, signed)
        m = (1 << cw) - 1
        if op in _SHIFTS:
            return _done(_shift(op, x, y, m, signed), const)
        if op == "**":
            rhs = e.rhs
            y = closure(coerce(y, rhs.ctx_width, cw, rhs.ctx_signed))
            pow_, ysigned = B.pow_, rhs.ctx_signed
            return _done(lambda fr: pow_(*x(fr), *y(fr), cw, signed, cw,
                                         ysigned), const)
        make = _ARITH.get(op)
        if make is None:
            raise EvalError(f"unknown binary operator {op!r}")
        return _done(make(x, y, m, signed), const)

    def _ternary(self, e: ast.Ternary, cw: int, signed: bool) -> Node:
        cond = self.node(e.cond)
        if type(cond) is tuple and not cond[1]:
            # A known constant condition takes one arm only.
            return self.node(e.then if cond[0] else e.els)
        const, (cond, then, els) = _operands(cond, self.node(e.then),
                                             self.node(e.els))
        m = (1 << cw) - 1
        merge = B.merge

        def ternary(fr):
            a, b = cond(fr)
            if not b:
                return then(fr) if a else els(fr)
            # Any x/z bit in the condition: bitwise merge of both arms
            # (§5.1.13).
            return merge(*then(fr), *els(fr), m)
        return _done(ternary, const)

    def _concat(self, e: ast.Concat, cw: int, signed: bool) -> Node:
        parts: List[Tuple[Node, int]] = []     # constants coalesced
        for p in e.parts:
            node, w = self.node(p), p.ctx_width
            if parts and type(node) is tuple and type(parts[-1][0]) is tuple:
                (a, b), pw = parts[-1]
                node, w = (a << w | node[0], b << w | node[1]), pw + w
                parts.pop()
            parts.append((node, w))
        if len(parts) == 1:
            return coerce(parts[0][0], e.width, cw, signed)
        steps = [(closure(node), w) for node, w in parts]

        def concat(fr):
            a = b = 0
            for f, w in steps:
                pa, pb = f(fr)
                a = a << w | pa
                b = b << w | pb
            return a, b
        return coerce(concat, e.width, cw, signed)

    def _repeat(self, e: ast.Repeat, cw: int, signed: bool) -> Node:
        const, (x,) = _operands(self.node(e.inner))
        w = e.inner.ctx_width
        # Multiplying a w-bit plane by 1 + 2^w + 2^2w ... lays the copies
        # side by side without carries.
        spread = sum(1 << (i * w) for i in range(e.times))

        def repeat(fr):
            a, b = x(fr)
            return a * spread, b * spread
        return coerce(_done(repeat, const), e.width, cw, signed)

    def _call(self, e: ast.Call, cw: int, signed: bool) -> Node:
        name = e.name
        if name == "$bits":
            return coerce((e.args[0].width, 0), 32, cw, signed)
        if name in ("$signed", "$unsigned"):
            return coerce(self.node(e.args[0]), e.width, cw, signed)
        if name == "$clog2":
            const, (x,) = _operands(self.node(e.args[0]))
            xs, extend = B.x_planes(cw), B.extend

            def clog2(fr):
                a, b = x(fr)
                if b:
                    return xs
                return extend((a - 1).bit_length() if a > 1 else 0, 0, 32,
                              cw, signed)
            return _done(clog2, const)
        args = [self.expr(a) for a in e.args]
        if name.startswith("$"):
            return coerce(self.scope.sys_call(e, args), e.width, cw, signed)
        return coerce(self.scope.call(e, args), e.width, cw, signed)


def _operands(*nodes: Node):
    """(whether every node is constant, their closures)."""
    return all(type(n) is tuple for n in nodes), [closure(n) for n in nodes]


def _done(f: Lowered, const: bool) -> Node:
    """``f``, folded to its planes when its operands are constant."""
    return f(None) if const else f


def _compare(op: str, x: Lowered, y: Lowered, w: int,
             signed: bool) -> Lowered:
    if op in ("==", "!="):
        hit, miss = (B.ONE, B.ZERO) if op == "==" else (B.ZERO, B.ONE)
        rule = B.eq if op == "==" else B.neq

        def equal(fr):
            xa, xb = x(fr)
            ya, yb = y(fr)
            if not (xb | yb):
                return hit if xa == ya else miss
            return rule(xa, xb, ya, yb)
        return equal
    if op in ("===", "!=="):
        rule = B.case_eq if op == "===" else B.case_neq
        return lambda fr: rule(*x(fr), *y(fr))
    compare, relation = B.compare, B.RELATIONS[op]
    top = 1 << (w - 1)
    one, zero = B.ONE, B.ZERO

    def relational(fr):
        xa, xb = x(fr)
        ya, yb = y(fr)
        if not (xb | yb or signed and (xa | ya) & top):
            return one if relation(xa, ya) else zero
        return compare(xa, xb, ya, yb, w, signed, op)
    return relational


def _shift(op: str, x: Lowered, y: Lowered, m: int,
           signed: bool) -> Lowered:
    """A shift of ``x`` by the unsigned, self-determined ``y``."""
    if op == ">>>" and signed:
        rule = B.ashr
        return lambda fr: rule(*x(fr), m, *y(fr))
    if op == ">>" or op == ">>>":
        rule = B.shr

        def right(fr):
            a, b = x(fr)
            n, nb = y(fr)
            if not (b | nb):
                return a >> n, 0
            return rule(a, b, m, n, nb)
        return right
    rule, w = B.shl, m.bit_length()

    def left(fr):
        a, b = x(fr)
        n, nb = y(fr)
        if not (b | nb) and n < w:
            return (a << n) & m, 0
        return rule(a, b, m, n, nb)
    return left


def _arith(fast, rule):
    """A closure maker for a binary rule whose all-known case is
    ``fast(xa, ya) & m``."""
    def make(x, y, m, signed):
        def arith(fr):
            xa, xb = x(fr)
            ya, yb = y(fr)
            if not (xb | yb):
                return fast(xa, ya) & m, 0
            return rule(xa, xb, ya, yb, m)
        return arith
    return make


def _quotient(rule):
    def make(x, y, m, signed):
        return lambda fr: rule(*x(fr), *y(fr), m, signed)
    return make


_ARITH = {
    "+": _arith(int.__add__, B.add),
    "-": _arith(int.__sub__, B.sub),
    "*": _arith(int.__mul__, B.mul),
    "/": _quotient(B.div),
    "%": _quotient(B.mod),
    "&": _arith(int.__and__, B.and_),
    "|": _arith(int.__or__, B.or_),
    "^": _arith(int.__xor__, B.xor_),
    "^~": _arith(lambda a, b: ~(a ^ b), B.xnor_),
    "~^": _arith(lambda a, b: ~(a ^ b), B.xnor_),
}
_LOGICAL = {"&&": B.log_and, "||": B.log_or}
_COMPARES = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
_SHIFTS = frozenset(["<<", ">>", "<<<", ">>>"])
_REDUCTIONS = {
    "&": B.reduce_and, "~&": B.reduce_nand, "|": B.reduce_or,
    "~|": B.reduce_nor, "^": B.reduce_xor, "~^": B.reduce_xnor,
    "^~": B.reduce_xnor,
}
_RULES = {
    ast.Number: Lowering._number,
    ast.StringLit: Lowering._string,
    ast.Ident: Lowering._ident,
    ast.IndexExpr: Lowering._index,
    ast.RangeExpr: Lowering._range,
    ast.Unary: Lowering._unary,
    ast.Binary: Lowering._binary,
    ast.Ternary: Lowering._ternary,
    ast.Concat: Lowering._concat,
    ast.Repeat: Lowering._repeat,
    ast.Call: Lowering._call,
}


# ----------------------------------------------------------------------
# Constant evaluation
# ----------------------------------------------------------------------
def fold(expr: ast.Expr,
         constants: Optional[Dict[str, Bits]] = None) -> Optional[Bits]:
    """The value of a sized expression when it is constant over
    ``constants``, else None."""
    try:
        node = Lowering(ConstScope(constants)).node(expr)
    except EvalError:
        return None
    return B.box(expr.ctx_width, *node, expr.ctx_signed)


def const_eval(expr: ast.Expr,
               params: Optional[Dict[str, Bits]] = None) -> Bits:
    """Size and evaluate a constant expression over parameter values."""
    size_constant(expr, params)
    node = Lowering(ConstScope(params)).node(expr)
    return B.box(expr.ctx_width, *node, expr.ctx_signed)
