"""Expression sizing: the one place where widths and signs are decided.

Verilog sizes an expression in two passes (IEEE 1364-2005 §5.4–§5.5):
each node's *self-determined* width and sign come bottom-up from its
operands, then the *context* width and the propagated sign flow back
down to every context-determined operand.  :func:`size_design` runs
both passes once, at the end of elaboration, over every expression of
a design — continuous assigns, always/initial bodies, function bodies
(with the function's ports and locals in scope), event controls,
delays and system-task arguments — and annotates each node with

* ``width``/``signed`` — its self-determined size;
* ``ctx_width``/``ctx_signed`` — the size it is evaluated at.
  Context-determined operands inherit their parent's.  Self-determined
  ones (conditions, shift amounts, indices, concatenation parts,
  reduction operands, system-function arguments) keep their own.
  Comparison operands, and a case selector with its items, share the
  widest width of their group and are signed only when all members
  are.  An assignment right-hand side, a function argument included,
  is evaluated at the wider of its own width and its target's, with
  its own sign;
* ``select`` on every bit, part and word select — the :class:`Select`
  that maps it to physical bits or words of its base — and ``times``
  on replications, the folded count.  An indexed part-select's width
  is its ``width``.

The interpreter, the compiled model, synthesis and the resource
estimator all read these annotations and neither size nor map
anything themselves, so the tiers cannot disagree about a width or
about which bits a select touches.  A node that reaches a backend
unsized raises; a node that would be sized twice in different contexts
is an elaboration error.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Set, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError, TypeError_
from . import ast

__all__ = ["Select", "size_design", "size_expr", "size_constant"]

_COMPARE_OPS = frozenset(["==", "!=", "===", "!==", "<", "<=", ">", ">="])
_LOGICAL_OPS = frozenset(["&&", "||"])
_SHIFT_OPS = frozenset(["<<", ">>", "<<<", ">>>"])
_REDUCTION_OPS = frozenset(["&", "~&", "|", "~|", "^", "~^", "^~"])


class Select(NamedTuple):
    """Where a bit, part or word select lands in its base.

    A bit or word select covers physical position ``low`` of a base
    ``span`` positions long, and a part-select ``width`` bits wide
    covers ``[low, low + width)``: position 0 is the base's least
    significant bit, or its first word when ``word`` (a memory).  A
    constant select folds ``low``; a dynamic one computes it with
    :meth:`at` from its index value, read with the index expression's
    own sign.  Positions outside ``[0, span)`` read as x (0 on the
    two-state tiers) and are never written; the others keep their true
    places (IEEE 1364-2005 §5.2.1)."""

    step: int
    bias: int
    span: int
    low: Optional[int] = None
    word: bool = False

    def at(self, index: int) -> int:
        """The low position for an index value."""
        return self.step * index + self.bias


class _Decl(NamedTuple):
    """What sizing needs of a name: a design ``Var`` has the same
    attributes."""

    width: int
    signed: bool
    msb: int
    lsb: int
    is_array: bool = False


class _Sizer:
    def __init__(self, lookup: Callable[[str], object], functions: Dict,
                 constants: Optional[Dict[str, Bits]] = None):
        self.lookup = lookup          # name -> _Decl or Var; KeyError
        self.functions = functions    # name -> elaborate.Function
        self.constants = constants or {}
        self.placed: Set[int] = set()

    # -- entry points ----------------------------------------------------
    def root(self, e: ast.Expr, min_width: int = 0) -> None:
        """Size ``e`` in a context at least ``min_width`` wide."""
        width, signed = self.size(e)
        self.place(e, max(width, min_width), signed)

    def assign(self, lhs: ast.Expr, rhs: ast.Expr) -> None:
        self.root(lhs)
        self.root(rhs, lhs.width)

    def event(self, ctrl: Optional[ast.EventControl]) -> None:
        if ctrl is not None:
            for item in ctrl.items:
                self.root(item.expr)

    def stmt(self, s: Optional[ast.Stmt]) -> None:
        if s is None or isinstance(s, ast.NullStmt):
            return
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign)):
            self.assign(s.lhs, s.rhs)
        elif isinstance(s, ast.Block):
            for sub in s.stmts:
                self.stmt(sub)
        elif isinstance(s, ast.If):
            self.root(s.cond)
            self.stmt(s.then)
            self.stmt(s.els)
        elif isinstance(s, ast.Case):
            self.case(s)
        elif isinstance(s, ast.For):
            self.stmt(s.init)
            self.root(s.cond)
            self.stmt(s.step)
            self.stmt(s.body)
        elif isinstance(s, ast.While):
            self.root(s.cond)
            self.stmt(s.body)
        elif isinstance(s, ast.RepeatStmt):
            self.root(s.count)
            self.stmt(s.body)
        elif isinstance(s, ast.Forever):
            self.stmt(s.body)
        elif isinstance(s, ast.DelayStmt):
            self.root(s.amount)
            self.stmt(s.stmt)
        elif isinstance(s, ast.EventStmt):
            self.event(s.ctrl)
            self.stmt(s.stmt)
        elif isinstance(s, ast.SysTask):
            for arg in s.args:
                self.root(arg)
        else:
            raise ElaborationError(f"cannot size {type(s).__name__}", s.loc)

    def case(self, s: ast.Case) -> None:
        group = [s.expr] + [e for item in s.items for e in item.exprs or ()]
        sizes = [self.size(e) for e in group]
        width = max(w for w, _ in sizes)
        signed = all(sg for _, sg in sizes)
        for e in group:
            self.place(e, width, signed)
        for item in s.items:
            self.stmt(item.body)

    # -- pass 1: self-determined size, bottom-up -------------------------
    def size(self, e: ast.Expr) -> Tuple[int, bool]:
        width, signed = self._natural(e)
        e.width, e.signed = width, signed
        return width, signed

    def _natural(self, e: ast.Expr) -> Tuple[int, bool]:
        if isinstance(e, ast.Number):
            return e.value.width, e.value.signed
        if isinstance(e, ast.StringLit):
            return max(8 * len(e.value), 8), False
        if isinstance(e, ast.Ident):
            decl = self._decl(e)
            return decl.width, decl.signed
        if isinstance(e, ast.IndexExpr):
            self.size(e.base)
            self._map(e, e.index, 1)
            if e.select.word:
                return e.base.width, e.base.signed
            return 1, False
        if isinstance(e, ast.RangeExpr):
            self.size(e.base)
            if e.mode == ":":
                bounds = (self.fold(e.left, "part-select msb"),
                          self.fold(e.right, "part-select lsb"))
                width = abs(bounds[0] - bounds[1]) + 1
                self._map(e, None, width, bounds)
                return width, False
            width = self.fold(e.right, "part-select width")
            if width <= 0:
                raise TypeError_("part-select width must be positive",
                                 e.loc)
            self._map(e, e.left, width)
            return width, False
        if isinstance(e, ast.Unary):
            width, signed = self.size(e.operand)
            if e.op == "!" or e.op in _REDUCTION_OPS:
                return 1, False
            return width, signed
        if isinstance(e, ast.Binary):
            lw, ls = self.size(e.lhs)
            rw, rs = self.size(e.rhs)
            if e.op in _COMPARE_OPS or e.op in _LOGICAL_OPS:
                return 1, False
            if e.op in _SHIFT_OPS or e.op == "**":
                return lw, ls
            return max(lw, rw), ls and rs
        if isinstance(e, ast.Ternary):
            self.size(e.cond)
            tw, ts = self.size(e.then)
            ew, es = self.size(e.els)
            return max(tw, ew), ts and es
        if isinstance(e, ast.Concat):
            return sum(self.size(p)[0] for p in e.parts), False
        if isinstance(e, ast.Repeat):
            inner, _ = self.size(e.inner)
            e.times = self.fold(e.count, "replication count")
            if e.times <= 0:
                raise TypeError_("replication count must be positive",
                                 e.loc)
            return e.times * inner, False
        if isinstance(e, ast.Call):
            return self._call(e)
        raise TypeError_(f"cannot size expression {type(e).__name__}",
                         e.loc)

    def _call(self, e: ast.Call) -> Tuple[int, bool]:
        sizes = [self.size(a) for a in e.args]
        name = e.name
        if name in ("$signed", "$unsigned"):
            return sizes[0][0], name == "$signed"
        if name in ("$time", "$stime"):
            return 64, False
        if name in ("$random", "$clog2"):
            return 32, True
        if name.startswith("$"):
            return 32, False
        fn = self.functions.get(name)
        if fn is None:
            raise TypeError_(f"unknown function {name!r}", e.loc)
        if len(fn.ports) != len(e.args):
            raise TypeError_(
                f"function {name!r} expects {len(fn.ports)} arguments, "
                f"got {len(e.args)}", e.loc)
        return fn.ret.width, fn.ret.signed

    def _decl(self, e: ast.Ident):
        try:
            return self.lookup(e.name)
        except KeyError:
            raise TypeError_(f"undeclared identifier {e.name!r}",
                             e.loc) from None

    def _map(self, e: ast.Expr, index: Optional[ast.Expr], width: int,
             bounds: Optional[Tuple[int, int]] = None) -> None:
        """Annotate select ``e``, ``width`` positions wide, with its
        :class:`Select`: from its ``index`` (the start of an indexed
        part-select), or from the folded ``bounds`` of ``[msb:lsb]``."""
        base = e.base
        decl = self._decl(base) if isinstance(base, ast.Ident) else None
        if decl is not None and decl.is_array:
            if isinstance(e, ast.RangeExpr):
                raise TypeError_("cannot part-select a memory", e.loc)
            # Words are stored from the lower declared index up.
            nwords, msb, lsb = decl.array
            step, bias, span, word = 1, -min(msb, lsb), nwords, True
        else:
            if isinstance(base, ast.IndexExpr) and base.select.word:
                decl = self._decl(base.base)   # a bit of a memory word
            msb, lsb = (decl.msb, decl.lsb) if decl is not None \
                else (base.width - 1, 0)
            step, bias = (1, -lsb) if msb >= lsb else (-1, lsb)
            span, word = abs(msb - lsb) + 1, False
            # The low position is the start of a "+:" select on a
            # descending range, and the end of it on an ascending one.
            if isinstance(e, ast.RangeExpr) and index is not None \
                    and (e.mode == "+:") == (step < 0):
                bias -= width - 1
        sel = Select(step, bias, span, word=word)
        if index is None:
            e.select = sel._replace(low=min(map(sel.at, bounds)))
            return
        value = self._value(index)
        if value is not None and not value.has_xz:
            sel = sel._replace(low=sel.at(
                value.to_int() if value.signed else value.to_uint()))
        e.select = sel

    def _value(self, e: ast.Expr) -> Optional[Bits]:
        """Size ``e`` self-determined; its value when it is constant."""
        from .eval import fold
        self.root(e)
        return fold(e, self.constants)

    def fold(self, e: ast.Expr, what: str) -> int:
        """The integer value of a constant sub-expression."""
        value = self._value(e)
        if value is None:
            raise TypeError_(f"{what} must be a constant expression",
                             e.loc)
        if value.has_xz:
            raise TypeError_(f"{what} has x/z bits", e.loc)
        return value.to_int() if value.signed else value.to_uint()

    # -- pass 2: context width and propagated sign, top-down ---------------
    def place(self, e: ast.Expr, width: int, signed: bool) -> None:
        if id(e) in self.placed:
            if (e.ctx_width, e.ctx_signed) != (width, signed):
                raise ElaborationError(
                    f"{type(e).__name__} is sized twice in different "
                    "contexts", e.loc)
            return
        self.placed.add(id(e))
        e.ctx_width, e.ctx_signed = width, signed
        if isinstance(e, (ast.IndexExpr, ast.RangeExpr)):
            self.place_self(e.base)   # _map placed the index
        elif isinstance(e, ast.Unary):
            if e.op == "!" or e.op in _REDUCTION_OPS:
                self.place_self(e.operand)
            else:
                self.place(e.operand, width, signed)
        elif isinstance(e, ast.Binary):
            self._place_binary(e, width, signed)
        elif isinstance(e, ast.Ternary):
            self.place_self(e.cond)
            self.place(e.then, width, signed)
            self.place(e.els, width, signed)
        elif isinstance(e, ast.Concat):
            for part in e.parts:
                self.place_self(part)
        elif isinstance(e, ast.Repeat):
            self.place_self(e.inner)
        elif isinstance(e, ast.Call):
            fn = self.functions.get(e.name)
            if fn is None:
                for arg in e.args:
                    self.place_self(arg)
            else:
                # An argument is assigned to its input port.
                for arg, port in zip(e.args, fn.ports):
                    self.place(arg, max(arg.width, port.width), arg.signed)

    def _place_binary(self, e: ast.Binary, width: int, signed: bool) -> None:
        op = e.op
        if op in _LOGICAL_OPS:
            self.place_self(e.lhs)
            self.place_self(e.rhs)
        elif op in _COMPARE_OPS:
            w = max(e.lhs.width, e.rhs.width)
            s = e.lhs.signed and e.rhs.signed
            self.place(e.lhs, w, s)
            self.place(e.rhs, w, s)
        elif op in _SHIFT_OPS or op == "**":
            self.place(e.lhs, width, signed)
            self.place_self(e.rhs)
        else:
            self.place(e.lhs, width, signed)
            self.place(e.rhs, width, signed)

    def place_self(self, e: ast.Expr) -> None:
        self.place(e, e.width, e.signed)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def size_design(design) -> None:
    """Annotate every expression of an elaborated design."""
    variables = design.vars
    sizer = _Sizer(variables.__getitem__, design.functions)
    for assign in design.assigns:
        sizer.assign(assign.lhs, assign.rhs)
    for block in design.always:
        sizer.event(block.ctrl)
        sizer.stmt(block.body)
    for block in design.initials:
        sizer.stmt(block.body)
    for fn in design.functions.values():
        frame = {v.name: v for v in fn.ports + fn.locals_}
        frame[fn.name] = frame[fn.ret.name] = fn.ret
        sizer.lookup = lambda name, frame=frame: \
            frame[name] if name in frame else variables[name]
        sizer.stmt(fn.body)


def size_expr(expr: ast.Expr, design) -> None:
    """Size one self-determined expression built after elaboration (the
    interpreter's ``@*`` sensitivity items)."""
    _Sizer(design.vars.__getitem__, design.functions).root(expr)


def size_constant(expr: ast.Expr,
                  params: Optional[Dict[str, Bits]] = None) -> None:
    """Size a constant expression over a table of parameter values."""
    params = params or {}

    def lookup(name: str) -> _Decl:
        value = params[name]
        return _Decl(value.width, value.signed, value.width - 1, 0)

    _Sizer(lookup, {}, params).root(expr)
