"""Abstract syntax tree for the Verilog subset.

Every node carries a :class:`~repro.common.errors.SourceLocation` and a
``_fields`` tuple naming its child-bearing attributes, which gives us a
uniform :meth:`Node.children` used by the visitors in
:mod:`repro.verilog.visitor`.

The tree distinguishes three layers:

* expressions (:class:`Expr` subclasses),
* statements (:class:`Stmt` subclasses, the bodies of always/initial
  blocks and functions),
* module items (:class:`Item` subclasses: declarations, continuous
  assigns, processes, instantiations).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from ..common.bits import Bits
from ..common.errors import SourceLocation


class Node:
    """Base class for all AST nodes."""

    _fields: Tuple[str, ...] = ()
    __slots__ = ("loc",)

    def __init__(self, loc: Optional[SourceLocation] = None):
        self.loc = loc or SourceLocation()

    def children(self) -> Iterable["Node"]:
        """All direct child nodes, in field order."""
        for name in self._fields:
            value = getattr(self, name)
            if isinstance(value, Node):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        yield item
                    elif isinstance(item, (list, tuple)):
                        for sub in item:
                            if isinstance(sub, Node):
                                yield sub

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


# ======================================================================
# Expressions
# ======================================================================
class Expr(Node):
    """Base of all expressions.

    :mod:`repro.verilog.sizing` fills the four size slots once, at the
    end of elaboration: ``width``/``signed`` (self-determined) and
    ``ctx_width``/``ctx_signed`` (what the node is evaluated at).
    """

    __slots__ = ("width", "signed", "ctx_width", "ctx_signed")


class Number(Expr):
    """A numeric literal, already parsed into a :class:`Bits` value.

    ``sized`` records whether the literal carried an explicit width,
    which matters for context-determined sizing.
    """

    _fields = ()
    __slots__ = ("value", "text", "sized")

    def __init__(self, value: Bits, text: str = "", sized: bool = True,
                 loc=None):
        super().__init__(loc)
        self.value = value
        self.text = text or value.to_verilog()
        self.sized = sized


class StringLit(Expr):
    _fields = ()
    __slots__ = ("value",)

    def __init__(self, value: str, loc=None):
        super().__init__(loc)
        self.value = value


class Ident(Expr):
    """A (possibly hierarchical) name such as ``cnt`` or ``r.y``."""

    _fields = ()
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[str], loc=None):
        super().__init__(loc)
        self.parts = tuple(parts)

    @property
    def name(self) -> str:
        return ".".join(self.parts)


class IndexExpr(Expr):
    """Bit select or memory word select: ``base[index]``.

    Sizing maps it to physical bits or words in ``select`` (a
    :class:`repro.verilog.sizing.Select`).
    """

    _fields = ("base", "index")
    __slots__ = ("base", "index", "select")

    def __init__(self, base: Expr, index: Expr, loc=None):
        super().__init__(loc)
        self.base = base
        self.index = index


class RangeExpr(Expr):
    """Part select ``base[msb:lsb]``, ``base[start+:w]`` or ``base[start-:w]``.

    ``mode`` is one of ``":"``, ``"+:"`` or ``"-:"``.  Sizing maps it
    to physical bits in ``select`` (a :class:`repro.verilog.sizing.Select`).
    """

    _fields = ("base", "left", "right")
    __slots__ = ("base", "left", "right", "mode", "select")

    def __init__(self, base: Expr, left: Expr, right: Expr, mode: str = ":",
                 loc=None):
        super().__init__(loc)
        self.base = base
        self.left = left
        self.right = right
        self.mode = mode


class Unary(Expr):
    """Unary operator: one of ``+ - ! ~ & | ^ ~& ~| ~^ ^~``."""

    _fields = ("operand",)
    __slots__ = ("op", "operand")

    def __init__(self, op: str, operand: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.operand = operand


class Binary(Expr):
    _fields = ("lhs", "rhs")
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, loc=None):
        super().__init__(loc)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs


class Ternary(Expr):
    _fields = ("cond", "then", "els")
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Expr, els: Expr, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.els = els


class Concat(Expr):
    _fields = ("parts",)
    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expr], loc=None):
        super().__init__(loc)
        self.parts = list(parts)


class Repeat(Expr):
    """Replication ``{count{inner}}``; sizing folds count into
    ``times``."""

    _fields = ("count", "inner")
    __slots__ = ("count", "inner", "times")

    def __init__(self, count: Expr, inner: Expr, loc=None):
        super().__init__(loc)
        self.count = count
        self.inner = inner


class Call(Expr):
    """A function call, user (``f(x)``) or system (``$time``)."""

    _fields = ("args",)
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr], loc=None):
        super().__init__(loc)
        self.name = name
        self.args = list(args)


# ======================================================================
# Supporting structures
# ======================================================================
class Range(Node):
    """A packed range ``[msb:lsb]`` (expressions, usually constant)."""

    _fields = ("msb", "lsb")
    __slots__ = ("msb", "lsb")

    def __init__(self, msb: Expr, lsb: Expr, loc=None):
        super().__init__(loc)
        self.msb = msb
        self.lsb = lsb


class EventItem(Node):
    """One entry of a sensitivity list: ``posedge clk``, ``negedge r``
    or a plain (level) expression."""

    _fields = ("expr",)
    __slots__ = ("edge", "expr")

    def __init__(self, edge: Optional[str], expr: Expr, loc=None):
        super().__init__(loc)
        self.edge = edge  # "posedge" | "negedge" | None
        self.expr = expr


class EventControl(Node):
    """``@(*)`` (star=True) or ``@(item or item, ...)``."""

    _fields = ("items",)
    __slots__ = ("star", "items")

    def __init__(self, star: bool, items: Sequence[EventItem], loc=None):
        super().__init__(loc)
        self.star = star
        self.items = list(items)


# ======================================================================
# Statements
# ======================================================================
class Stmt(Node):
    __slots__ = ()


class Block(Stmt):
    _fields = ("stmts",)
    __slots__ = ("stmts", "name")

    def __init__(self, stmts: Sequence[Stmt], name: Optional[str] = None,
                 loc=None):
        super().__init__(loc)
        self.stmts = list(stmts)
        self.name = name


class BlockingAssign(Stmt):
    _fields = ("lhs", "rhs")
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr, loc=None):
        super().__init__(loc)
        self.lhs = lhs
        self.rhs = rhs


class NonblockingAssign(Stmt):
    _fields = ("lhs", "rhs")
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr, loc=None):
        super().__init__(loc)
        self.lhs = lhs
        self.rhs = rhs


class If(Stmt):
    _fields = ("cond", "then", "els")
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Expr, then: Optional[Stmt],
                 els: Optional[Stmt] = None, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.then = then
        self.els = els


class CaseItem(Node):
    """``exprs`` is None for the default arm."""

    _fields = ("exprs", "body")
    __slots__ = ("exprs", "body")

    def __init__(self, exprs: Optional[Sequence[Expr]],
                 body: Optional[Stmt], loc=None):
        super().__init__(loc)
        self.exprs = list(exprs) if exprs is not None else None
        self.body = body


class Case(Stmt):
    """kind is 'case', 'casez' or 'casex'."""

    _fields = ("expr", "items")
    __slots__ = ("kind", "expr", "items")

    def __init__(self, kind: str, expr: Expr, items: Sequence[CaseItem],
                 loc=None):
        super().__init__(loc)
        self.kind = kind
        self.expr = expr
        self.items = list(items)


class For(Stmt):
    _fields = ("init", "cond", "step", "body")
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init: BlockingAssign, cond: Expr,
                 step: BlockingAssign, body: Stmt, loc=None):
        super().__init__(loc)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class While(Stmt):
    _fields = ("cond", "body")
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, loc=None):
        super().__init__(loc)
        self.cond = cond
        self.body = body


class RepeatStmt(Stmt):
    _fields = ("count", "body")
    __slots__ = ("count", "body")

    def __init__(self, count: Expr, body: Stmt, loc=None):
        super().__init__(loc)
        self.count = count
        self.body = body


class Forever(Stmt):
    _fields = ("body",)
    __slots__ = ("body",)

    def __init__(self, body: Stmt, loc=None):
        super().__init__(loc)
        self.body = body


class DelayStmt(Stmt):
    """``#amount stmt`` — procedural delay (unsynthesizable)."""

    _fields = ("amount", "stmt")
    __slots__ = ("amount", "stmt")

    def __init__(self, amount: Expr, stmt: Optional[Stmt], loc=None):
        super().__init__(loc)
        self.amount = amount
        self.stmt = stmt


class EventStmt(Stmt):
    """``@(ctrl) stmt`` inside a procedural body (unsynthesizable)."""

    _fields = ("ctrl", "stmt")
    __slots__ = ("ctrl", "stmt")

    def __init__(self, ctrl: EventControl, stmt: Optional[Stmt], loc=None):
        super().__init__(loc)
        self.ctrl = ctrl
        self.stmt = stmt


class SysTask(Stmt):
    """A system task statement: $display, $write, $finish, $monitor..."""

    _fields = ("args",)
    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr], loc=None):
        super().__init__(loc)
        self.name = name
        self.args = list(args)


class NullStmt(Stmt):
    _fields = ()
    __slots__ = ()


# ======================================================================
# Module items
# ======================================================================
class Item(Node):
    __slots__ = ()


class Port(Node):
    """An ANSI port declaration, or the resolved form of a non-ANSI one."""

    _fields = ("range_", "init")
    __slots__ = ("name", "direction", "net_kind", "signed", "range_",
                 "init")

    def __init__(self, name: str, direction: str, net_kind: str = "wire",
                 signed: bool = False, range_: Optional[Range] = None,
                 init: Optional[Expr] = None, loc=None):
        super().__init__(loc)
        self.name = name
        self.direction = direction  # "input" | "output" | "inout"
        self.net_kind = net_kind    # "wire" | "reg"
        self.signed = signed
        self.range_ = range_
        self.init = init            # ANSI `output reg q = 0` initializer


class Declarator(Node):
    """One name in a declaration, with optional unpacked (array)
    dimensions and an optional initializer."""

    _fields = ("dims", "init")
    __slots__ = ("name", "dims", "init")

    def __init__(self, name: str, dims: Sequence[Range] = (),
                 init: Optional[Expr] = None, loc=None):
        super().__init__(loc)
        self.name = name
        self.dims = list(dims)
        self.init = init


class NetDecl(Item):
    """wire/reg/integer/genvar declaration of one or more names."""

    _fields = ("range_", "decls")
    __slots__ = ("kind", "signed", "range_", "decls")

    def __init__(self, kind: str, signed: bool, range_: Optional[Range],
                 decls: Sequence[Declarator], loc=None):
        super().__init__(loc)
        self.kind = kind      # "wire" | "reg" | "integer" | "genvar" | ...
        self.signed = signed
        self.range_ = range_
        self.decls = list(decls)


class ParamDecl(Item):
    _fields = ("range_", "value")
    __slots__ = ("local", "name", "signed", "range_", "value")

    def __init__(self, local: bool, name: str, value: Expr,
                 signed: bool = False, range_: Optional[Range] = None,
                 loc=None):
        super().__init__(loc)
        self.local = local
        self.name = name
        self.signed = signed
        self.range_ = range_
        self.value = value


class ContinuousAssign(Item):
    _fields = ("lhs", "rhs")
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Expr, rhs: Expr, loc=None):
        super().__init__(loc)
        self.lhs = lhs
        self.rhs = rhs


class AlwaysBlock(Item):
    """``always @(ctrl) body``; ctrl may be None for ``always body``
    (a free-running process, only meaningful with delays inside)."""

    _fields = ("ctrl", "body")
    __slots__ = ("ctrl", "body")

    def __init__(self, ctrl: Optional[EventControl], body: Stmt, loc=None):
        super().__init__(loc)
        self.ctrl = ctrl
        self.body = body


class InitialBlock(Item):
    _fields = ("body",)
    __slots__ = ("body",)

    def __init__(self, body: Stmt, loc=None):
        super().__init__(loc)
        self.body = body


class Connection(Node):
    """One port connection in an instantiation. ``name`` is None for a
    positional connection; ``expr`` is None for an unconnected port."""

    _fields = ("expr",)
    __slots__ = ("name", "expr")

    def __init__(self, name: Optional[str], expr: Optional[Expr], loc=None):
        super().__init__(loc)
        self.name = name
        self.expr = expr


class Instantiation(Item):
    _fields = ("param_overrides", "connections")
    __slots__ = ("module_name", "inst_name", "param_overrides", "connections")

    def __init__(self, module_name: str, inst_name: str,
                 param_overrides: Sequence[Connection] = (),
                 connections: Sequence[Connection] = (), loc=None):
        super().__init__(loc)
        self.module_name = module_name
        self.inst_name = inst_name
        self.param_overrides = list(param_overrides)
        self.connections = list(connections)


class FunctionDecl(Item):
    """A Verilog function: inputs only, returns a value through its name."""

    _fields = ("range_", "ports", "locals_", "body")
    __slots__ = ("name", "signed", "range_", "ports", "locals_", "body")

    def __init__(self, name: str, signed: bool, range_: Optional[Range],
                 ports: Sequence[Port], locals_: Sequence[NetDecl],
                 body: Stmt, loc=None):
        super().__init__(loc)
        self.name = name
        self.signed = signed
        self.range_ = range_
        self.ports = list(ports)
        self.locals_ = list(locals_)
        self.body = body


class Module(Node):
    _fields = ("ports", "items")
    __slots__ = ("name", "ports", "items")

    def __init__(self, name: str, ports: Sequence[Port],
                 items: Sequence[Item], loc=None):
        super().__init__(loc)
        self.name = name
        self.ports = list(ports)
        self.items = list(items)

    def items_of(self, *types) -> List[Item]:
        return [i for i in self.items if isinstance(i, types)]


class SourceText(Node):
    """A compilation unit: a list of module declarations, plus any
    top-level items destined for Cascade's implicit root module."""

    _fields = ("modules", "root_items")
    __slots__ = ("modules", "root_items")

    def __init__(self, modules: Sequence[Module],
                 root_items: Sequence[Item] = (), loc=None):
        super().__init__(loc)
        self.modules = list(modules)
        self.root_items = list(root_items)
