"""Generic AST traversal helpers."""

from __future__ import annotations

from typing import Callable, Iterator, List, Set

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


def map_exprs(node: ast.Node,
              fn: Callable[[ast.Expr], ast.Expr]) -> ast.Node:
    """Rewrite every expression-valued field in the subtree, bottom-up.

    ``fn`` receives each expression after its own children have been
    rewritten and returns the replacement (possibly the same object).
    Mutates the tree in place and returns the (possibly replaced) root:
    when ``node`` is itself an expression the caller must use the return
    value, since the root cannot be replaced in place.
    """

    def rewrite(e: ast.Expr) -> ast.Expr:
        _rewrite_children(e)
        return fn(e)

    def _rewrite_children(n: ast.Node) -> None:
        for field in n._fields:
            value = getattr(n, field)
            if isinstance(value, ast.Expr):
                setattr(n, field, rewrite(value))
            elif isinstance(value, ast.Node):
                _rewrite_children(value)
            elif isinstance(value, list):
                new_list = []
                for item in value:
                    if isinstance(item, ast.Expr):
                        new_list.append(rewrite(item))
                    else:
                        if isinstance(item, ast.Node):
                            _rewrite_children(item)
                        new_list.append(item)
                value[:] = new_list

    _rewrite_children(node)
    if isinstance(node, ast.Expr):
        return fn(node)
    return node


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
