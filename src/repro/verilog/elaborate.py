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

A design owns its nodes, which sizing annotates: each item is copied
once from the parse tree while it is rewritten, and the parse tree is
never changed.

:func:`elaborate` flattens a whole hierarchy into a single
:class:`Design` (this is what the reference simulator and the baseline
"iVerilog" engine execute).  :func:`elaborate_leaf` elaborates a single
module without descending into instantiations; :func:`elaborate_owned`
takes over a module the IR already flattened and copied.
"""

from __future__ import annotations

from typing import Callable, Collection, Dict, List, Optional, Sequence, \
    Set, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError
from . import ast
from .eval import const_eval
from .sizing import size_design
from .visitor import calls_of, lvalue_names, read_set_of, \
    read_set_of_lvalue_indices, rebuild, walk

__all__ = ["Var", "Function", "Design", "ModuleLibrary", "Instance",
           "build_tree", "bind_params", "declare_net", "declare_vars",
           "resolve_range", "substitute_params", "elaborate",
           "elaborate_leaf", "elaborate_owned"]

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

    def default_value(self) -> Bits:
        return Bits.xes(self.width) if self.init is None else self.init

    def __repr__(self) -> str:
        return (f"Var({self.name}, {self.kind}, [{self.msb}:{self.lsb}]"
                + (f", array={self.array}" if self.array else "") + ")")


class Function:
    """A resolved Verilog function.  Its result, ports and locals are
    frame variables named by their local names, with their declared
    ranges."""

    __slots__ = ("name", "ret", "ports", "locals_", "body", "loc")

    def __init__(self, name: str, ret: Var, ports: List[Var],
                 locals_: List[Var], body: ast.Stmt, loc=None):
        self.name = name
        self.ret = ret
        self.ports = ports
        self.locals_ = locals_
        self.body = body
        self.loc = loc


class Effects:
    """What one call of a function may do to design state, through its
    callees too: the names outside its frame it ``reads`` and
    ``writes``, and whether it is ``side_effect_free`` (it writes none,
    and neither it nor a callee runs a system task)."""

    __slots__ = ("reads", "writes", "side_effect_free")

    def __init__(self):
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        # Until analysed: a recursive call sees this entry as impure.
        self.side_effect_free = False


class Design:
    """A flat, elaborated design: the unit engines execute."""

    def __init__(self, name: str):
        self.name = name
        self.vars: Dict[str, Var] = {}
        self.functions: Dict[str, Function] = {}
        self.assigns: List[ast.ContinuousAssign] = []
        self.always: List[ast.AlwaysBlock] = []
        self.initials: List[ast.InitialBlock] = []
        self._effects: Dict[str, Effects] = {}

    def add_var(self, var: Var) -> None:
        if var.name in self.vars:
            raise ElaborationError(f"duplicate declaration of {var.name!r}",
                                   var.loc)
        self.vars[var.name] = var

    def effects(self, name: str) -> Effects:
        """The effects of function ``name``, analysed on first request;
        every tier and the code generator read this one analysis."""
        effects = self._effects.get(name)
        if effects is not None:
            return effects
        effects = self._effects[name] = Effects()
        fn = self.functions[name]
        frame = {p.name for p in fn.ports} | {v.name for v in fn.locals_} \
            | {fn.name.split(".")[-1], fn.name}
        effects.reads = read_set_of(fn.body) - frame
        free = True
        for node in walk(fn.body):
            if isinstance(node, (ast.BlockingAssign, ast.NonblockingAssign)):
                effects.writes.update(set(lvalue_names(node.lhs)) - frame)
            elif isinstance(node, ast.SysTask):
                free = False
            elif isinstance(node, ast.Call) and not node.name.startswith("$"):
                callee = self.effects(node.name)
                effects.reads |= callee.reads
                effects.writes |= callee.writes
                free = free and callee.side_effect_free
        effects.side_effect_free = free and not effects.writes
        return effects

    def assign_reads(self, assign: ast.ContinuousAssign) -> Set[str]:
        """What a continuous assign reads: its right-hand side, its
        target's indices, and the design state the functions it calls
        read.  Every tier recomputes the assign when one of them
        changes (DESIGN.md §4.4)."""
        reads = read_set_of(assign.rhs) | read_set_of_lvalue_indices(
            assign.lhs)
        for name in calls_of(assign.rhs):
            reads |= self.effects(name).reads
        return reads

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


# ----------------------------------------------------------------------
# Expression rewriting: parameter substitution + prefixing
# ----------------------------------------------------------------------
def _rewrite(node: ast.Node, params: Dict[str, Bits], prefix: str,
             local_names: frozenset = frozenset()) -> ast.Node:
    """A copy of ``node`` with parameters substituted and the instance
    prefix applied (names in ``local_names`` are left alone)."""
    head = tuple(prefix.split(".")) if prefix else ()

    def fn(old: ast.Expr, e: ast.Expr) -> ast.Expr:
        if isinstance(e, ast.Ident):
            if e.parts[0] in local_names:
                return e
            if len(e.parts) == 1 and e.parts[0] in params:
                value = params[e.parts[0]]
                return ast.Number(value, value.to_verilog(), True, loc=e.loc)
            e.parts = head + e.parts
        elif isinstance(e, ast.Call) and prefix and \
                not e.name.startswith("$") and e.name not in local_names:
            e.name = f"{prefix}.{e.name}"
        return e

    return rebuild(node, fn)


def substitute_params(node: ast.Node, params: Dict[str, Bits]) -> ast.Node:
    """A copy of ``node`` with parameter names replaced by their
    values."""
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
    range_ = substitute_params(range_, params)
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
            value = const_eval(substitute_params(item.value, params))
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
            init = None
            if item.kind == "supply0":
                init = Bits.zeros(width)
            elif item.kind == "supply1":
                init = Bits.ones(width)
            declare_net(table, decl.name, Var(
                full, kind, width, item.signed, msb, lsb, None, init, array,
                decl.loc), item)
    return table


def declare_net(table: Dict[str, Var], name: str, var: Var,
                item: ast.NetDecl) -> None:
    """Enter the variable ``item`` declares as ``name``.  A net may
    re-declare a port, to make it a reg or set its range or sign: it
    then merges into the port's variable."""
    port = table.get(name)
    if port is None:
        table[name] = var
    elif port.direction is not None and var.array is None:
        if var.kind == "reg":
            port.kind = "reg"
        if item.range_ is not None:
            port.width, port.msb, port.lsb = var.width, var.msb, var.lsb
        port.signed = port.signed or item.signed
    else:
        raise ElaborationError(f"duplicate declaration of {var.name!r}",
                               var.loc)


def _is_lvalue(expr: ast.Expr, params: Dict[str, Bits]) -> bool:
    if isinstance(expr, ast.Ident):
        return len(expr.parts) > 1 or expr.parts[0] not in params
    if isinstance(expr, (ast.IndexExpr, ast.RangeExpr)):
        return _is_lvalue(expr.base, params)
    if isinstance(expr, ast.Concat):
        return all(_is_lvalue(p, params) for p in expr.parts)
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
                 params: Dict[str, Bits], vars_: Dict[str, Var],
                 external: bool = False,
                 parent: Optional["Instance"] = None,
                 connections: Optional[Dict[str, ast.Expr]] = None):
        self.path = path
        self.module = module
        self.params = params
        self.vars = vars_
        self.external = external
        self.parent = parent
        #: port -> connected expression as parsed, in the parent's scope
        #: (unconnected ports absent); consumers substitute the parent's
        #: parameters as they copy it.
        self.connections = connections or {}
        self.children: Dict[str, "Instance"] = {}

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
                substitute_params(conn.expr, params))
    return overrides


def _port_connections(item: ast.Instantiation, child: ast.Module,
                      params: Dict[str, Bits]) -> Dict[str, ast.Expr]:
    """Port name -> connected expression of ``item``, as parsed."""
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
        if port.direction == "output" and not _is_lvalue(expr, params):
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
        inst = Instance(path, module, params,
                        declare_vars(module, params, ".".join(path)),
                        module.name in external, parent, connections)
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
def _elaborate(inst: Instance, design: Design, own: bool = False) -> None:
    """Register ``inst``'s variables, functions and processes in
    ``design``, then its children's.  Each item is copied once with the
    instance's parameters and prefix applied; with ``own`` the module is
    already rewritten and ``design`` takes its nodes as they are."""
    module, params = inst.module, inst.params
    prefix = ".".join(inst.path)

    def rewrite(node: ast.Node, local_names: frozenset = frozenset()):
        return node if own else _rewrite(node, params, prefix, local_names)

    def initial_value(expr: ast.Expr, var: Var) -> Bits:
        return _fit(const_eval(rewrite(expr)), var.width, var.signed)

    for var in inst.vars.values():
        design.add_var(var)
    for port in module.ports:
        if port.init is not None and port.net_kind == "reg":
            var = inst.vars[port.name]
            var.init = initial_value(port.init, var)

    # Functions next (bodies may be referenced by any process).
    for item in module.items:
        if isinstance(item, ast.FunctionDecl):
            _declare_function(item, design, prefix, params, rewrite)

    # Behaviour: rewrite and register.
    for item in module.items:
        if isinstance(item, (ast.NetDecl, ast.ParamDecl,
                             ast.FunctionDecl)):
            continue
        if isinstance(item, ast.Instantiation):
            _elaborate_instance(inst, item, design)
            continue
        if isinstance(item, ast.ContinuousAssign):
            design.assigns.append(rewrite(item))
        elif isinstance(item, ast.AlwaysBlock):
            design.always.append(rewrite(item))
        elif isinstance(item, ast.InitialBlock):
            design.initials.append(rewrite(item))
        else:
            raise ElaborationError(
                f"unsupported module item {type(item).__name__}",
                item.loc)

    # Initializers on regs become initial state; on wires they are
    # continuous assigns (wire w = expr).
    for item in module.items:
        if not isinstance(item, ast.NetDecl):
            continue
        for decl in item.decls:
            if decl.init is None:
                continue
            var = inst.vars[decl.name]
            if var.kind == "reg":
                var.init = initial_value(decl.init, var)
            else:
                design.assigns.append(ast.ContinuousAssign(
                    ast.Ident(var.name.split("."), decl.loc),
                    rewrite(decl.init), decl.loc))


def _declare_function(fn: ast.FunctionDecl, design: Design, prefix: str,
                      params: Dict[str, Bits],
                      rewrite: Callable[..., ast.Node]) -> None:
    def frame_var(name: str, range_, signed: bool, what: str) -> Var:
        width, msb, lsb = resolve_range(range_, params, what)
        return Var(name, "reg", width, signed, msb, lsb)

    ret = frame_var(fn.name, fn.range_, fn.signed, f"function {fn.name!r}")
    ports = [frame_var(p.name, p.range_, p.signed,
                       f"function input {p.name!r}") for p in fn.ports]
    locals_ = [frame_var(d.name, item.range_, item.signed, "function local")
               for item in fn.locals_ for d in item.decls]
    local_names = frozenset([fn.name] + [v.name for v in ports + locals_])
    body = rewrite(fn.body, local_names)
    full = _full(prefix, fn.name)
    if full in design.functions:
        raise ElaborationError(f"duplicate function {full!r}", fn.loc)
    design.functions[full] = Function(full, ret, ports, locals_, body,
                                      fn.loc)


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
        expr = _rewrite(expr, inst.params, prefix)
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
def _sized(top: Instance, own: bool = False) -> Design:
    design = Design(top.module.name)
    _elaborate(top, design, own)
    size_design(design)
    return design


def elaborate(top: ast.Module, library: Optional[ModuleLibrary] = None,
              overrides: Optional[Dict[str, Bits]] = None) -> Design:
    """Fully elaborate ``top``, flattening the whole hierarchy."""
    return _sized(build_tree(top, library or ModuleLibrary(),
                             overrides=overrides))


def elaborate_leaf(module: ast.Module) -> Design:
    """Elaborate a single module; instantiations inside it are an error
    (Cascade's IR flattens hierarchy before engines see a subprogram)."""
    params = bind_params(module, {})
    return _sized(Instance((), module, params, declare_vars(module, params)))


def elaborate_owned(module: ast.Module, vars_: Dict[str, Var]) -> Design:
    """The design of a module with no parameters or instantiations that
    nobody else holds, given its sized variables: the design takes the
    module's nodes over as they are."""
    return _sized(Instance((), module, {}, vars_), own=True)
