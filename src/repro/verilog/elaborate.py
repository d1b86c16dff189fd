"""Elaboration: parsed modules -> flat, parameter-free designs.

Elaboration performs, in one place, the tasks that Cascade's IR layer
relies on (paper §3.3):

* parameter binding and substitution (``#(...)`` overrides),
* range resolution (every width becomes a concrete integer),
* the instance tree (:func:`build_tree`): every instance with its
  parameters bound, its declarations sized and its port connections
  mapped — the one front end both the flattener below and the IR
  builder (:mod:`repro.ir.build`) consume,
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
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError
from . import ast
from .eval import const_eval
from .sizing import size_design
from .visitor import map_exprs

__all__ = ["Var", "Function", "Design", "ModuleLibrary", "Instance",
           "build_tree", "bind_params", "declare_vars", "resolve_range",
           "substitute_params", "elaborate", "elaborate_leaf"]

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


def substitute_params(node: ast.Node, params: Dict[str, Bits]) -> ast.Node:
    """Replace parameter names in ``node`` by their values, in place;
    returns the (possibly replaced) root."""
    return _rewrite(node, params, "")


def _fit(value: Bits, width: int, signed: bool) -> Bits:
    """``value`` cast to a declared width and signedness."""
    value = value.as_signed() if signed else value.as_unsigned()
    return value.extend(width) if value.width < width \
        else value.resize(width)


def resolve_range(range_: Optional[ast.Range], params: Dict[str, Bits],
                  what: str) -> Tuple[int, int, int]:
    """(width, msb, lsb) of a declared range; defaults to 1 bit."""
    if range_ is None:
        return 1, 0, 0
    range_ = substitute_params(copy.deepcopy(range_), params)
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


def bind_params(module: ast.Module,
                overrides: Dict[str, Bits]) -> Dict[str, Bits]:
    """Every parameter and localparam of ``module``, given the values an
    instantiation overrides."""
    params: Dict[str, Bits] = {}
    declared = set()
    for item in module.items:
        if not isinstance(item, ast.ParamDecl):
            continue
        if not item.local:
            declared.add(item.name)
        if not item.local and item.name in overrides:
            value = overrides[item.name]
        else:
            value = const_eval(
                substitute_params(copy.deepcopy(item.value), params))
        if item.range_ is not None:
            width, _, _ = resolve_range(item.range_, params,
                                        f"parameter {item.name!r}")
            value = _fit(value, width, item.signed)
        params[item.name] = value
    unknown = set(overrides) - declared
    if unknown:
        raise ElaborationError(
            f"module {module.name!r} has no parameter(s) "
            f"{sorted(unknown)}", module.loc)
    return params


_NET_KINDS = {"integer": "reg", "genvar": "reg", "tri": "wire",
              "supply0": "wire", "supply1": "wire"}


def declare_vars(module: ast.Module, params: Dict[str, Bits],
                 prefix: str = "") -> Dict[str, Var]:
    """The variables one instance of ``module`` declares — ports first,
    then nets, in source order — keyed by their local name and named by
    their dotted path under ``prefix``."""
    table: Dict[str, Var] = {}
    for port in module.ports:
        full = _full(prefix, port.name)
        if port.name in table:
            raise ElaborationError(f"duplicate declaration of {full!r}",
                                   port.loc)
        width, msb, lsb = resolve_range(port.range_, params,
                                        f"port {port.name!r}")
        table[port.name] = Var(full, port.net_kind, width, port.signed,
                               msb, lsb, port.direction, None, None,
                               port.loc)
    for item in module.items:
        if not isinstance(item, ast.NetDecl):
            continue
        kind = _NET_KINDS.get(item.kind, item.kind)
        width, msb, lsb = resolve_range(item.range_, params,
                                        f"declaration at {item.loc}")
        for decl in item.decls:
            full = _full(prefix, decl.name)
            array = None
            if decl.dims:
                if len(decl.dims) > 1:
                    raise ElaborationError(
                        "multi-dimensional arrays are not supported",
                        decl.loc)
                _, a_msb, a_lsb = resolve_range(
                    decl.dims[0], params, f"array {decl.name!r}")
                array = (abs(a_msb - a_lsb) + 1, a_msb, a_lsb)
            existing = table.get(decl.name)
            if existing is not None:
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
            init = None
            if item.kind == "supply0":
                init = Bits.zeros(width)
            elif item.kind == "supply1":
                init = Bits.ones(width)
            table[decl.name] = Var(full, kind, width, item.signed, msb, lsb,
                                   None, init, array, decl.loc)
    return table


def _is_lvalue(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Ident):
        return True
    if isinstance(expr, (ast.IndexExpr, ast.RangeExpr)):
        return _is_lvalue(expr.base)
    if isinstance(expr, ast.Concat):
        return all(_is_lvalue(p) for p in expr.parts)
    return False


def _full(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


# ----------------------------------------------------------------------
# The instance tree
# ----------------------------------------------------------------------
class Instance:
    """One node of the instance tree: a module with its parameters
    bound, its declarations sized and its ports connected."""

    def __init__(self, path: Tuple[str, ...], module: ast.Module,
                 params: Dict[str, Bits], external: bool = False,
                 parent: Optional["Instance"] = None,
                 connections: Optional[Dict[str, ast.Expr]] = None):
        self.path = path
        self.module = module
        self.params = params
        self.external = external
        self.parent = parent
        #: port -> connected expression, in the parent's scope with the
        #: parent's parameters substituted (unconnected ports absent).
        self.connections = connections or {}
        self.children: Dict[str, "Instance"] = {}
        self.vars = declare_vars(module, params, ".".join(path))

    def resolve(self, parts: Sequence[str]
                ) -> Optional[Tuple["Instance", str]]:
        """Resolve a (possibly hierarchical) name from this instance:
        returns (owning instance, variable name) or None."""
        node: Instance = self
        for part in parts[:-1]:
            node = node.children.get(part)
            if node is None:
                return None
        if parts[-1] in node.vars:
            return node, parts[-1]
        return None


def _param_overrides(item: ast.Instantiation, child: ast.Module,
                     params: Dict[str, Bits]) -> Dict[str, Bits]:
    """The ``#(...)`` values of ``item``, evaluated in the parent's
    constant context."""
    overrides: Dict[str, Bits] = {}
    if not item.param_overrides:
        return overrides
    names = [i.name for i in child.items
             if isinstance(i, ast.ParamDecl) and not i.local]
    positional = [c for c in item.param_overrides if c.name is None]
    if positional and len(positional) != len(item.param_overrides):
        raise ElaborationError(
            "cannot mix positional and named parameter overrides",
            item.loc)
    if positional:
        if len(positional) > len(names):
            raise ElaborationError(
                f"too many parameter overrides for "
                f"{item.module_name!r}", item.loc)
        pairs = zip(names, positional)
    else:
        pairs = ((c.name, c) for c in item.param_overrides)
    for name, conn in pairs:
        if conn.expr is not None:
            overrides[name] = const_eval(
                substitute_params(copy.deepcopy(conn.expr), params))
    return overrides


def _port_connections(item: ast.Instantiation, child: ast.Module,
                      params: Dict[str, Bits]) -> Dict[str, ast.Expr]:
    """Port name -> connected expression of ``item``, with the parent's
    parameters substituted."""
    port_names = [p.name for p in child.ports]
    conns: Dict[str, Optional[ast.Expr]] = {}
    positional = [c for c in item.connections if c.name is None]
    if positional and len(positional) != len(item.connections):
        raise ElaborationError(
            "cannot mix positional and named connections", item.loc)
    if positional:
        if len(positional) > len(port_names):
            raise ElaborationError(
                f"too many connections for {item.module_name!r}",
                item.loc)
        for name, conn in zip(port_names, positional):
            conns[name] = conn.expr
    else:
        for conn in item.connections:
            if conn.name not in port_names:
                raise ElaborationError(
                    f"module {item.module_name!r} has no port "
                    f"{conn.name!r}", conn.loc)
            conns[conn.name] = conn.expr
    out: Dict[str, ast.Expr] = {}
    for port in child.ports:
        expr = conns.get(port.name)
        if expr is None:
            continue
        expr = substitute_params(copy.deepcopy(expr), params)
        if port.direction == "output" and not _is_lvalue(expr):
            raise ElaborationError(
                f"output port {port.name!r} must connect to an "
                "l-value", item.loc)
        if port.direction not in ("input", "output"):
            raise ElaborationError("inout ports are not supported",
                                   item.loc)
        out[port.name] = expr
    return out


def build_tree(root: ast.Module, library: ModuleLibrary,
               external: Collection[str] = (),
               overrides: Optional[Dict[str, Bits]] = None,
               max_depth: int = 64) -> Instance:
    """Bind, size and connect every instance under ``root``.  Instances
    of ``external`` modules are leaves: their children are not built."""

    def build(path: Tuple[str, ...], module: ast.Module,
              overrides: Dict[str, Bits], parent: Optional[Instance],
              connections: Dict[str, ast.Expr]) -> Instance:
        if len(path) > max_depth:
            raise ElaborationError(
                f"instantiation depth exceeds {max_depth} "
                "(recursive module?)", module.loc)
        params = bind_params(module, overrides)
        inst = Instance(path, module, params, module.name in external,
                        parent, connections)
        if inst.external:
            return inst
        for item in module.items:
            if not isinstance(item, ast.Instantiation):
                continue
            if item.inst_name in inst.children:
                raise ElaborationError(
                    f"duplicate instance name {item.inst_name!r}",
                    item.loc)
            child = library.get(item.module_name, item.loc)
            inst.children[item.inst_name] = build(
                path + (item.inst_name,), child,
                _param_overrides(item, child, params), inst,
                _port_connections(item, child, params))
        return inst

    return build((), root, overrides or {}, None, {})


# ----------------------------------------------------------------------
# Flattening an instance tree into a Design
# ----------------------------------------------------------------------
def _initial_value(expr: ast.Expr, params: Dict[str, Bits], prefix: str,
                   var: Var) -> Bits:
    value = const_eval(_rewrite(copy.deepcopy(expr), params, prefix))
    return _fit(value, var.width, var.signed)


def _elaborate(inst: Instance, design: Design) -> None:
    module, params = inst.module, inst.params
    prefix = ".".join(inst.path)
    if not prefix:
        design.params.update(params)
    for var in inst.vars.values():
        design.add_var(var)
    for port in module.ports:
        if port.init is not None and port.net_kind == "reg":
            var = inst.vars[port.name]
            var.init = _initial_value(port.init, params, "", var)

    items = copy.deepcopy(module.items)
    # Functions next (bodies may be referenced by any process).
    for item in items:
        if isinstance(item, ast.FunctionDecl):
            _declare_function(item, design, prefix, params)

    # Behaviour: rewrite and register.
    for item in items:
        if isinstance(item, (ast.NetDecl, ast.ParamDecl,
                             ast.FunctionDecl)):
            continue
        if isinstance(item, ast.Instantiation):
            _elaborate_instance(inst, item, design)
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
        if not isinstance(item, ast.NetDecl):
            continue
        for decl in item.decls:
            if decl.init is None:
                continue
            var = inst.vars[decl.name]
            if var.kind == "reg":
                var.init = _initial_value(decl.init, params, prefix, var)
            else:
                design.assigns.append(ast.ContinuousAssign(
                    ast.Ident(var.name.split("."), decl.loc),
                    _rewrite(decl.init, params, prefix), decl.loc))


def _declare_function(fn: ast.FunctionDecl, design: Design, prefix: str,
                      params: Dict[str, Bits]) -> None:
    ret_width, _, _ = resolve_range(fn.range_, params,
                                    f"function {fn.name!r}")
    ports = []
    local_names = {fn.name}
    for p in fn.ports:
        width, _, _ = resolve_range(p.range_, params,
                                    f"function input {p.name!r}")
        ports.append((p.name, width, p.signed))
        local_names.add(p.name)
    locals_ = []
    for decl_item in fn.locals_:
        width, _, _ = resolve_range(decl_item.range_, params,
                                    "function local")
        for d in decl_item.decls:
            locals_.append((d.name, width, decl_item.signed))
            local_names.add(d.name)
    _rewrite(fn.body, params, prefix, frozenset(local_names))
    full = _full(prefix, fn.name)
    if full in design.functions:
        raise ElaborationError(f"duplicate function {full!r}", fn.loc)
    design.functions[full] = Function(full, ret_width, fn.signed,
                                      ports, locals_, fn.body, fn.loc)


def _elaborate_instance(inst: Instance, item: ast.Instantiation,
                        design: Design) -> None:
    """Elaborate a child, then connect its ports: inputs become
    child_port = parent_expr; outputs become parent_lvalue = child_port
    (the Figure 4 flattening)."""
    child = inst.children.get(item.inst_name)
    if child is None:
        raise ElaborationError(
            f"unexpected instantiation {item.inst_name!r} in leaf "
            "elaboration (the IR should have flattened it)", item.loc)
    _elaborate(child, design)
    prefix = ".".join(inst.path)
    for port in child.module.ports:
        expr = child.connections.get(port.name)
        if expr is None:
            continue
        expr = _rewrite(expr, {}, prefix)
        port_ident = ast.Ident((*child.path, port.name), item.loc)
        if port.direction == "input":
            design.assigns.append(
                ast.ContinuousAssign(port_ident, expr, item.loc))
        else:
            design.assigns.append(
                ast.ContinuousAssign(expr, port_ident, item.loc))


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def elaborate(top: ast.Module, library: Optional[ModuleLibrary] = None,
              overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Fully elaborate ``top``, flattening the whole hierarchy."""
    design = Design(top.name)
    _elaborate(build_tree(top, library or ModuleLibrary(),
                          overrides=overrides), design)
    size_design(design)
    return design


def elaborate_leaf(module: ast.Module,
                   overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Elaborate a single module; instantiations inside it are an error
    (Cascade's IR flattens hierarchy before engines see a subprogram)."""
    design = Design(module.name)
    _elaborate(Instance((), module, bind_params(module, overrides or {})),
               design)
    size_design(design)
    return design
