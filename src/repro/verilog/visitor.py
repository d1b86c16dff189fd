"""Generic AST traversal helpers."""

from __future__ import annotations

from typing import Callable, Iterator, List

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
