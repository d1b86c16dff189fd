"""Elaboration: parsed modules -> flat, parameter-free designs.

Elaboration performs, in one place, the tasks that Cascade's IR layer
relies on (paper §3.3):

* parameter binding and substitution (``#(...)`` overrides),
* range resolution (every width becomes a concrete integer),
* hierarchy flattening with dotted-prefix naming — nested instantiations
  are replaced by continuous assignments between parent expressions and
  the child's promoted port variables, exactly the Figure 4
  transformation,
* registration of functions, processes and continuous assigns against a
  flat variable table,
* sizing: :func:`repro.verilog.sizing.size_design` annotates every
  expression with its width and sign, once, for every tier.

:func:`elaborate` flattens a whole hierarchy into a single
:class:`Design` (this is what the reference simulator and the baseline
"iVerilog" engine execute).  :func:`elaborate_leaf` elaborates a single
module without descending into instantiations (the Cascade IR calls this
per-subprogram after its own flattening).
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Sequence, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError
from . import ast
from .eval import const_eval
from .sizing import size_design
from .visitor import map_exprs

__all__ = ["Var", "Function", "Design", "ModuleLibrary", "elaborate",
           "elaborate_leaf"]

MAX_WIDTH = 1 << 20  # sanity bound on declared widths


class Var:
    """One flat variable (net, register or memory) in a design."""

    __slots__ = ("name", "kind", "width", "signed", "msb", "lsb",
                 "direction", "init", "array", "loc")

    def __init__(self, name: str, kind: str, width: int, signed: bool,
                 msb: int, lsb: int, direction: Optional[str] = None,
                 init: Optional[Bits] = None,
                 array: Optional[Tuple[int, int, int]] = None, loc=None):
        self.name = name
        self.kind = kind              # "wire" | "reg"
        self.width = width
        self.signed = signed
        self.msb = msb
        self.lsb = lsb
        self.direction = direction    # "input" | "output" | None
        self.init = init
        self.array = array            # (nwords, msb_index, lsb_index)
        self.loc = loc

    @property
    def is_array(self) -> bool:
        return self.array is not None

    def word_index(self, index: int) -> Optional[int]:
        """Storage offset for a declared array index, or None if out of
        range."""
        assert self.array is not None
        nwords, msb, lsb = self.array
        lo, hi = min(msb, lsb), max(msb, lsb)
        if not lo <= index <= hi:
            return None
        return index - lo

    def default_value(self) -> Bits:
        if self.init is not None:
            return self.init
        if self.kind == "reg":
            return Bits.xes(self.width)
        return Bits.xes(self.width)

    def __repr__(self) -> str:
        return (f"Var({self.name}, {self.kind}, [{self.msb}:{self.lsb}]"
                + (f", array={self.array}" if self.array else "") + ")")


class Function:
    """A resolved Verilog function."""

    __slots__ = ("name", "ret_width", "ret_signed", "ports", "locals_",
                 "body", "loc")

    def __init__(self, name: str, ret_width: int, ret_signed: bool,
                 ports: List[Tuple[str, int, bool]],
                 locals_: List[Tuple[str, int, bool]],
                 body: ast.Stmt, loc=None):
        self.name = name
        self.ret_width = ret_width
        self.ret_signed = ret_signed
        self.ports = ports        # [(name, width, signed)]
        self.locals_ = locals_    # [(name, width, signed)]
        self.body = body
        self.loc = loc


class Design:
    """A flat, elaborated design: the unit engines execute."""

    def __init__(self, name: str):
        self.name = name
        self.vars: Dict[str, Var] = {}
        self.functions: Dict[str, Function] = {}
        self.assigns: List[ast.ContinuousAssign] = []
        self.always: List[ast.AlwaysBlock] = []
        self.initials: List[ast.InitialBlock] = []
        self.params: Dict[str, Bits] = {}

    def add_var(self, var: Var) -> None:
        if var.name in self.vars:
            raise ElaborationError(f"duplicate declaration of {var.name!r}",
                                   var.loc)
        self.vars[var.name] = var

    def inputs(self) -> List[Var]:
        return [v for v in self.vars.values() if v.direction == "input"]

    def outputs(self) -> List[Var]:
        return [v for v in self.vars.values() if v.direction == "output"]

    def stats(self) -> Dict[str, int]:
        """Aggregate statistics (used by the class-study analysis)."""
        from .visitor import find_all
        blocking = nonblocking = displays = 0
        roots: List[ast.Node] = list(self.assigns) + list(self.always) \
            + list(self.initials)
        for root in roots:
            blocking += len(find_all(root, ast.BlockingAssign))
            nonblocking += len(find_all(root, ast.NonblockingAssign))
            displays += len([t for t in find_all(root, ast.SysTask)
                             if t.name in ("$display", "$write")])
        return {
            "vars": len(self.vars),
            "always_blocks": len(self.always),
            "blocking_assigns": blocking,
            "nonblocking_assigns": nonblocking,
            "display_statements": displays,
        }


class ModuleLibrary:
    """A name -> parsed-module table with duplicate detection."""

    def __init__(self, modules: Sequence[ast.Module] = ()):
        self.modules: Dict[str, ast.Module] = {}
        for m in modules:
            self.declare(m)

    def declare(self, module: ast.Module) -> None:
        if module.name in self.modules:
            raise ElaborationError(
                f"redeclaration of module {module.name!r}", module.loc)
        self.modules[module.name] = module

    def get(self, name: str, loc=None) -> ast.Module:
        try:
            return self.modules[name]
        except KeyError:
            raise ElaborationError(f"unknown module {name!r}", loc) \
                from None

    def __contains__(self, name: str) -> bool:
        return name in self.modules


# ----------------------------------------------------------------------
# Expression rewriting: parameter substitution + prefixing
# ----------------------------------------------------------------------
def _rewrite(node: ast.Node, params: Dict[str, Bits], prefix: str,
             local_names: frozenset = frozenset()) -> ast.Node:
    """Substitute parameters and apply the instance prefix, in place;
    returns the (possibly replaced) root for expression nodes."""

    def fn(e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.Ident):
            head = e.parts[0]
            if head in local_names:
                return e
            if len(e.parts) == 1 and head in params:
                value = params[head]
                return ast.Number(value, value.to_verilog(), True, loc=e.loc)
            if prefix:
                return ast.Ident((*prefix.split("."), *e.parts), e.loc)
            return e
        if isinstance(e, ast.Call) and not e.name.startswith("$"):
            if e.name not in local_names and prefix:
                e.name = f"{prefix}.{e.name}"
            return e
        return e

    return map_exprs(node, fn)


def _resolve_range(range_: Optional[ast.Range],
                   what: str) -> Tuple[int, int, int]:
    """(width, msb, lsb) of a resolved range; defaults to 1 bit."""
    if range_ is None:
        return 1, 0, 0
    msb_v = const_eval(range_.msb)
    lsb_v = const_eval(range_.lsb)
    if msb_v.has_xz or lsb_v.has_xz:
        raise ElaborationError(f"{what} range has x/z bits", range_.loc)
    msb = msb_v.to_int() if msb_v.signed else msb_v.to_uint()
    lsb = lsb_v.to_int() if lsb_v.signed else lsb_v.to_uint()
    width = abs(msb - lsb) + 1
    if width > MAX_WIDTH:
        raise ElaborationError(f"{what} is too wide ({width} bits)",
                               range_.loc)
    return width, msb, lsb


# ----------------------------------------------------------------------
# The elaborator
# ----------------------------------------------------------------------
class _Elaborator:
    def __init__(self, library: ModuleLibrary, recurse: bool,
                 max_depth: int = 64):
        self.library = library
        self.recurse = recurse
        self.max_depth = max_depth

    def elaborate(self, module: ast.Module, design: Design, prefix: str,
                  overrides: Dict[str, Bits], depth: int = 0) -> None:
        if depth > self.max_depth:
            raise ElaborationError(
                f"instantiation depth exceeds {self.max_depth} "
                "(recursive module?)", module.loc)
        items = copy.deepcopy(module.items)
        ports = copy.deepcopy(module.ports)

        params = self._bind_params(items, overrides, module)
        if not prefix:
            design.params.update(params)

        # Declare ports and nets.
        port_dirs: Dict[str, str] = {}
        for port in ports:
            width, msb, lsb = _resolve_range(
                self._subst_range(port.range_, params),
                f"port {port.name!r}")
            init = None
            if port.init is not None and port.net_kind == "reg":
                expr = _rewrite(copy.deepcopy(port.init), params, "")
                value = const_eval(expr)
                value = value.as_signed() if port.signed \
                    else value.as_unsigned()
                init = value.extend(width) if value.width < width \
                    else value.resize(width)
            design.add_var(Var(self._full(prefix, port.name), port.net_kind,
                               width, port.signed, msb, lsb, port.direction,
                               init, None, port.loc))
            port_dirs[port.name] = port.direction

        for item in items:
            if isinstance(item, ast.NetDecl):
                self._declare_net(item, design, prefix, params)

        # Functions next (bodies may be referenced by any process).
        local_funcs = [i for i in items if isinstance(i, ast.FunctionDecl)]
        for fn in local_funcs:
            self._declare_function(fn, design, prefix, params)

        # Behaviour: rewrite and register.
        for item in items:
            if isinstance(item, (ast.NetDecl, ast.ParamDecl,
                                 ast.FunctionDecl)):
                continue
            if isinstance(item, ast.Instantiation):
                self._elaborate_instance(item, design, prefix, params,
                                         depth)
                continue
            _rewrite(item, params, prefix)
            if isinstance(item, ast.ContinuousAssign):
                design.assigns.append(item)
            elif isinstance(item, ast.AlwaysBlock):
                design.always.append(item)
            elif isinstance(item, ast.InitialBlock):
                design.initials.append(item)
            else:
                raise ElaborationError(
                    f"unsupported module item {type(item).__name__}",
                    item.loc)

        # Initializers on regs become initial state; on wires they are
        # continuous assigns (wire w = expr).
        for item in items:
            if isinstance(item, ast.NetDecl):
                self._apply_initializers(item, design, prefix, params)

    # ------------------------------------------------------------------
    def _full(self, prefix: str, name: str) -> str:
        return f"{prefix}.{name}" if prefix else name

    def _subst_range(self, range_: Optional[ast.Range],
                     params: Dict[str, Bits]) -> Optional[ast.Range]:
        if range_ is None:
            return None
        r = copy.deepcopy(range_)
        _rewrite(r, params, "")
        return r

    def _bind_params(self, items: List[ast.Item],
                     overrides: Dict[str, Bits],
                     module: ast.Module) -> Dict[str, Bits]:
        params: Dict[str, Bits] = {}
        declared = set()
        for item in items:
            if not isinstance(item, ast.ParamDecl):
                continue
            if not item.local:
                declared.add(item.name)
            if not item.local and item.name in overrides:
                value = overrides[item.name]
            else:
                expr = _rewrite(copy.deepcopy(item.value), params, "")
                value = const_eval(expr)
            if item.range_ is not None:
                width, _, _ = _resolve_range(
                    self._subst_range(item.range_, params),
                    f"parameter {item.name!r}")
                value = (value.as_signed() if item.signed
                         else value.as_unsigned())
                value = value.extend(width) if value.width < width \
                    else value.resize(width)
            params[item.name] = value
        unknown = set(overrides) - declared
        if unknown:
            raise ElaborationError(
                f"module {module.name!r} has no parameter(s) "
                f"{sorted(unknown)}", module.loc)
        return params

    def _declare_net(self, item: ast.NetDecl, design: Design, prefix: str,
                     params: Dict[str, Bits]) -> None:
        kind = {"integer": "reg", "genvar": "reg", "tri": "wire",
                "supply0": "wire", "supply1": "wire"}.get(item.kind,
                                                          item.kind)
        width, msb, lsb = _resolve_range(
            self._subst_range(item.range_, params),
            f"declaration at {item.loc}")
        for decl in item.decls:
            full = self._full(prefix, decl.name)
            array = None
            if decl.dims:
                if len(decl.dims) > 1:
                    raise ElaborationError(
                        "multi-dimensional arrays are not supported",
                        decl.loc)
                _, a_msb, a_lsb = _resolve_range(
                    self._subst_range(decl.dims[0], params),
                    f"array {decl.name!r}")
                nwords = abs(a_msb - a_lsb) + 1
                array = (nwords, a_msb, a_lsb)
            if full in design.vars:
                existing = design.vars[full]
                # A net decl may re-declare a port to set reg-ness/width.
                if existing.direction is not None and array is None:
                    existing.kind = kind if kind == "reg" else existing.kind
                    if item.range_ is not None:
                        existing.width, existing.msb, existing.lsb = \
                            width, msb, lsb
                    existing.signed = existing.signed or item.signed
                    continue
                raise ElaborationError(f"duplicate declaration of {full!r}",
                                       decl.loc)
            design.add_var(Var(full, kind, width, item.signed, msb, lsb,
                               None, None, array, decl.loc))
            if item.kind == "supply0":
                design.vars[full].init = Bits.zeros(width)
            elif item.kind == "supply1":
                design.vars[full].init = Bits.ones(width)

    def _apply_initializers(self, item: ast.NetDecl, design: Design,
                            prefix: str, params: Dict[str, Bits]) -> None:
        for decl in item.decls:
            if decl.init is None:
                continue
            full = self._full(prefix, decl.name)
            var = design.vars[full]
            expr = _rewrite(copy.deepcopy(decl.init), params, prefix)
            if var.kind == "reg":
                value = const_eval(expr)
                value = value.as_signed() if var.signed \
                    else value.as_unsigned()
                var.init = value.extend(var.width) \
                    if value.width < var.width else value.resize(var.width)
            else:
                design.assigns.append(ast.ContinuousAssign(
                    ast.Ident(full.split("."), decl.loc), expr, decl.loc))

    def _declare_function(self, fn: ast.FunctionDecl, design: Design,
                          prefix: str, params: Dict[str, Bits]) -> None:
        ret_width, _, _ = _resolve_range(
            self._subst_range(fn.range_, params), f"function {fn.name!r}")
        ports = []
        local_names = {fn.name}
        for p in fn.ports:
            width, _, _ = _resolve_range(
                self._subst_range(p.range_, params),
                f"function input {p.name!r}")
            ports.append((p.name, width, p.signed))
            local_names.add(p.name)
        locals_ = []
        for decl_item in fn.locals_:
            width, _, _ = _resolve_range(
                self._subst_range(decl_item.range_, params),
                "function local")
            for d in decl_item.decls:
                locals_.append((d.name, width, decl_item.signed))
                local_names.add(d.name)
        body = copy.deepcopy(fn.body)
        _rewrite(body, params, prefix, frozenset(local_names))
        full = self._full(prefix, fn.name)
        if full in design.functions:
            raise ElaborationError(f"duplicate function {full!r}", fn.loc)
        design.functions[full] = Function(full, ret_width, fn.signed,
                                          ports, locals_, body, fn.loc)

    def _elaborate_instance(self, inst: ast.Instantiation, design: Design,
                            prefix: str, params: Dict[str, Bits],
                            depth: int) -> None:
        if not self.recurse:
            raise ElaborationError(
                f"unexpected instantiation {inst.inst_name!r} in leaf "
                "elaboration (the IR should have flattened it)", inst.loc)
        child = self.library.get(inst.module_name, inst.loc)
        child_prefix = self._full(prefix, inst.inst_name)

        # Evaluate parameter overrides in the parent's constant context.
        overrides: Dict[str, Bits] = {}
        if inst.param_overrides:
            names = [i.name for i in child.items
                     if isinstance(i, ast.ParamDecl) and not i.local]
            positional = [c for c in inst.param_overrides if c.name is None]
            if positional and len(positional) != len(inst.param_overrides):
                raise ElaborationError(
                    "cannot mix positional and named parameter overrides",
                    inst.loc)
            if positional:
                if len(positional) > len(names):
                    raise ElaborationError(
                        f"too many parameter overrides for "
                        f"{inst.module_name!r}", inst.loc)
                pairs = zip(names, positional)
            else:
                pairs = ((c.name, c) for c in inst.param_overrides)
            for name, conn in pairs:
                if conn.expr is None:
                    continue
                expr = _rewrite(copy.deepcopy(conn.expr), params, "")
                overrides[name] = const_eval(expr)

        # Connect ports: inputs become child_port = parent_expr; outputs
        # become parent_lvalue = child_port (the Figure 4 flattening).
        port_names = [p.name for p in child.ports]
        conns: Dict[str, Optional[ast.Expr]] = {}
        positional = [c for c in inst.connections if c.name is None]
        if positional and len(positional) != len(inst.connections):
            raise ElaborationError(
                "cannot mix positional and named connections", inst.loc)
        if positional:
            if len(positional) > len(port_names):
                raise ElaborationError(
                    f"too many connections for {inst.module_name!r}",
                    inst.loc)
            for name, conn in zip(port_names, positional):
                conns[name] = conn.expr
        else:
            for conn in inst.connections:
                if conn.name not in port_names:
                    raise ElaborationError(
                        f"module {inst.module_name!r} has no port "
                        f"{conn.name!r}", conn.loc)
                conns[conn.name] = conn.expr

        self.elaborate(child, design, child_prefix, overrides, depth + 1)

        for port in child.ports:
            expr = conns.get(port.name)
            if expr is None:
                continue
            expr = _rewrite(copy.deepcopy(expr), params, prefix)
            port_ident = ast.Ident(
                self._full(child_prefix, port.name).split("."), inst.loc)
            if port.direction == "input":
                design.assigns.append(
                    ast.ContinuousAssign(port_ident, expr, inst.loc))
            elif port.direction == "output":
                if not _is_lvalue(expr):
                    raise ElaborationError(
                        f"output port {port.name!r} must connect to an "
                        "l-value", inst.loc)
                design.assigns.append(
                    ast.ContinuousAssign(expr, port_ident, inst.loc))
            else:
                raise ElaborationError("inout ports are not supported",
                                       inst.loc)


def _is_lvalue(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return True
    if isinstance(expr, (ast.IndexExpr, ast.RangeExpr)):
        return _is_lvalue(expr.base)
    if isinstance(expr, ast.Concat):
        return all(_is_lvalue(p) for p in expr.parts)
    return False


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def elaborate(top: ast.Module, library: Optional[ModuleLibrary] = None,
              overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Fully elaborate ``top``, flattening the whole hierarchy."""
    design = Design(top.name)
    _Elaborator(library or ModuleLibrary(), recurse=True).elaborate(
        top, design, "", overrides or {})
    size_design(design)
    return design


def elaborate_leaf(module: ast.Module,
                   overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Elaborate a single module; instantiations inside it are an error
    (Cascade's IR flattens hierarchy before engines see a subprogram)."""
    design = Design(module.name)
    _Elaborator(ModuleLibrary(), recurse=False).elaborate(
        module, design, "", overrides or {})
    size_design(design)
    return design
