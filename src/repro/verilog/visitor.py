"""Generic AST traversal helpers."""

from __future__ import annotations

import functools
from typing import Callable, Iterator, List, Set, Tuple

from . import ast


def walk(node: ast.Node) -> Iterator[ast.Node]:
    """Depth-first pre-order traversal of a subtree."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        children = list(current.children())
        stack.extend(reversed(children))


def find_all(node: ast.Node, *types) -> List[ast.Node]:
    """All nodes in the subtree that are instances of the given types."""
    return [n for n in walk(node) if isinstance(n, types)]


def calls_of(node: ast.Node) -> Iterator[str]:
    """The Verilog functions a subtree calls, by name."""
    return (n.name for n in walk(node)
            if isinstance(n, ast.Call) and not n.name.startswith("$"))


def lvalue_names(lhs: ast.Expr) -> List[str]:
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


#: Expression slots that sizing fills in; a copy starts without them.
_SIZING_SLOTS = {"width", "signed", "ctx_width", "ctx_signed", "select",
                 "times"}


@functools.cache
def _copied_slots(cls: type) -> Tuple[str, ...]:
    names = [s for c in reversed(cls.__mro__)
             for s in vars(c).get("__slots__", ())]
    if issubclass(cls, ast.Expr):
        names = [s for s in names if s not in _SIZING_SLOTS]
    return tuple(names)


def rebuild(node: ast.Node,
            fn: Callable[[ast.Expr, ast.Expr], ast.Node]) -> ast.Node:
    """A copy of ``node`` that shares no node with it: every node of the
    subtree is copied once, without sizing annotations.

    ``fn(old, new)`` is called for each expression, bottom-up, with the
    original and its copy (whose children are already rebuilt), and
    returns the node that takes its place: ``new``, possibly changed,
    or a replacement.  Non-node fields (names, operators, values) are
    immutable and shared.
    """
    cls = type(node)
    new = cls.__new__(cls)
    for slot in _copied_slots(cls):
        setattr(new, slot, getattr(node, slot))
    for field in cls._fields:
        value = getattr(node, field)
        if isinstance(value, ast.Node):
            setattr(new, field, rebuild(value, fn))
        elif isinstance(value, list):
            setattr(new, field, [rebuild(v, fn) for v in value])
    if isinstance(node, ast.Expr):
        return fn(node, new)
    return new


def read_set_of(node: ast.Node) -> Set[str]:
    """Names read by a statement/expression subtree.

    Assignment targets contribute their index expressions but not the
    written name itself (used to synthesise @(*) sensitivity lists).
    """
    reads: Set[str] = set()

    def visit_expr(e: ast.Expr) -> None:
        for n in walk(e):
            if isinstance(n, ast.Ident):
                reads.add(n.name)

    def visit_stmt(s: ast.Node) -> None:
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign)):
            reads.update(read_set_of_lvalue_indices(s.lhs))
            visit_expr(s.rhs)
        elif isinstance(s, ast.Block):
            for sub in s.stmts:
                visit_stmt(sub)
        elif isinstance(s, ast.If):
            visit_expr(s.cond)
            if s.then:
                visit_stmt(s.then)
            if s.els:
                visit_stmt(s.els)
        elif isinstance(s, ast.Case):
            visit_expr(s.expr)
            for item in s.items:
                for e in item.exprs or []:
                    visit_expr(e)
                if item.body:
                    visit_stmt(item.body)
        elif isinstance(s, ast.For):
            visit_stmt(s.init)
            visit_expr(s.cond)
            visit_stmt(s.step)
            visit_stmt(s.body)
        elif isinstance(s, ast.While):
            visit_expr(s.cond)
            visit_stmt(s.body)
        elif isinstance(s, ast.RepeatStmt):
            visit_expr(s.count)
            visit_stmt(s.body)
        elif isinstance(s, ast.Forever):
            visit_stmt(s.body)
        elif isinstance(s, (ast.DelayStmt, ast.EventStmt)):
            if s.stmt:
                visit_stmt(s.stmt)
        elif isinstance(s, ast.SysTask):
            for a in s.args:
                visit_expr(a)
        elif isinstance(s, ast.Expr):
            visit_expr(s)

    visit_stmt(node)
    return reads


def read_set_of_lvalue_indices(lhs: ast.Expr) -> Set[str]:
    """Names read by the index sub-expressions of an l-value."""
    reads: Set[str] = set()
    if isinstance(lhs, ast.IndexExpr):
        reads |= read_set_of(lhs.index)
        reads |= read_set_of_lvalue_indices(lhs.base)
    elif isinstance(lhs, ast.RangeExpr):
        reads |= read_set_of(lhs.left)
        reads |= read_set_of(lhs.right)
        reads |= read_set_of_lvalue_indices(lhs.base)
    elif isinstance(lhs, ast.Concat):
        for p in lhs.parts:
            reads |= read_set_of_lvalue_indices(p)
    return reads
