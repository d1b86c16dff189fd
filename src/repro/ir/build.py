"""Cascade's distributed-system IR (paper §3.3, Figure 4).

The IR expresses the user's program as a set of stand-alone Verilog
subprograms — one per module instance (or one per *group* of inlined
instances, §4.2) — that communicate only over named nets routed by the
runtime's data/control plane.

The transformation is guided entirely by the syntax of Verilog:

* a static analysis identifies variables accessed by modules other than
  the one they are declared in (hierarchical reads such as ``r.y``,
  hierarchical writes to child input ports such as ``led.val``, and the
  expressions connected to instantiation ports);
* those variables are promoted to input/output ports with flattened
  names (``r.y`` becomes ``r_y``), giving the invariant that no
  subprogram names a variable outside its own syntactic scope;
* nested instantiations are replaced by continuous assignments, so the
  logical hierarchy becomes a flat set of peer subprograms.

Because Verilog has no pointers and no dynamic module allocation, the
analysis is tractable, sound and complete — exactly the property the
paper relies on (§3.3, §3.5).

Each user subprogram also carries the sized :class:`Design` its engines
run, built in the same pass from the instance tree, so the printed
module (a stand-alone leaf, and the compile cache's key) is never
elaborated again.

Standard-library components (Clock, Led, FIFO, ...) are *external*:
they are never inlined, and their subprograms are realised by
pre-compiled engines (:mod:`repro.stdlib.engines`) rather than by
compiling their Verilog.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError, TypeError_
from ..verilog import ast
from ..verilog.elaborate import (Design, Instance, ModuleLibrary, Var,
                                 build_tree, declare_net, elaborate_leaf,
                                 elaborate_owned, substitute_params)
from ..verilog.visitor import rebuild, walk

__all__ = ["Net", "Subprogram", "IRProgram", "build_ir"]


class Net:
    """A single-driver, multi-reader channel between subprograms."""

    __slots__ = ("name", "width", "signed", "driver", "readers")

    def __init__(self, name: str, width: int, signed: bool = False):
        self.name = name
        self.width = width
        self.signed = signed
        self.driver: Optional[str] = None     # subprogram name
        self.readers: List[str] = []

    def __repr__(self) -> str:
        return (f"Net({self.name}[{self.width}] "
                f"{self.driver}->{self.readers})")


class Subprogram:
    """One stand-alone Verilog subprogram plus its net bindings."""

    def __init__(self, name: str, module_ast: Optional[ast.Module],
                 external: bool, source_module: str,
                 params: Dict[str, Bits]):
        self.name = name
        self.module_ast = module_ast
        self.external = external
        self.source_module = source_module
        self.params = params
        #: The sized design a user subprogram's engines run: build_ir
        #: builds it with the module; a module given alone is elaborated.
        self.design: Optional[Design] = None if external or \
            module_ast is None else elaborate_leaf(module_ast)
        #: An external subprogram's port widths, for its engine.
        self.port_widths: Dict[str, int] = {}
        # port name -> (net name, "in" | "out")
        self.bindings: Dict[str, Tuple[str, str]] = {}

    def __repr__(self) -> str:
        return f"Subprogram({self.name}, module={self.source_module})"


class IRProgram:
    """The complete IR: subprograms plus the nets that connect them."""

    def __init__(self):
        self.subprograms: Dict[str, Subprogram] = {}
        self.nets: Dict[str, Net] = {}

    def add(self, sub: Subprogram) -> None:
        self.subprograms[sub.name] = sub

    def net(self, name: str, width: int, signed: bool = False) -> Net:
        if name not in self.nets:
            self.nets[name] = Net(name, width, signed)
        return self.nets[name]

    def bind(self, sub: Subprogram, port: str, net: Net,
             direction: str) -> None:
        sub.bindings[port] = (net.name, direction)
        if direction == "out":
            if net.driver is not None and net.driver != sub.name:
                raise ElaborationError(
                    f"net {net.name!r} has two drivers: {net.driver} "
                    f"and {sub.name}")
            net.driver = sub.name
        else:
            if sub.name not in net.readers:
                net.readers.append(sub.name)

    def user_subprograms(self) -> List[Subprogram]:
        return [s for s in self.subprograms.values() if not s.external]

    def external_subprograms(self) -> List[Subprogram]:
        return [s for s in self.subprograms.values() if s.external]


# ----------------------------------------------------------------------
# Group building
# ----------------------------------------------------------------------
def _collect_instances(root: Instance) -> List[Instance]:
    out = [root]
    stack = [root]
    while stack:
        node = stack.pop()
        for child in node.children.values():
            out.append(child)
            stack.append(child)
    return out


def _group_of(inst: Instance, inlined: bool) -> Instance:
    """The group leader for an instance: itself at module granularity or
    when external; the highest non-external ancestor when inlining."""
    if inst.external or not inlined:
        return inst
    node = inst
    while node.parent is not None and not node.parent.external:
        node = node.parent
    return node


def _sub_name(inst: Instance) -> str:
    return ".".join(inst.path) if inst.path else "main"


def _net_name(inst: Instance, var: str) -> str:
    return f"{_sub_name(inst)}.{var}"


def _num(value: int) -> ast.Number:
    bits = Bits.from_int(value, max(32, value.bit_length() + 1), True)
    return ast.Number(bits, str(value), False)


def _lvalue_base_idents(lhs: ast.Expr) -> List[ast.Ident]:
    if isinstance(lhs, ast.Ident):
        return [lhs]
    if isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
        return _lvalue_base_idents(lhs.base)
    if isinstance(lhs, ast.Concat):
        out = []
        for p in lhs.parts:
            out.extend(_lvalue_base_idents(p))
        return out
    return []


def _range(width: int) -> Optional[ast.Range]:
    """``[width-1:0]``, or none for a single bit."""
    return ast.Range(_num(width - 1), _num(0)) if width > 1 else None


class _GroupBuilder:
    """Builds the transformed stand-alone module for one group and its
    sized design.  Each item is copied once while it is renamed, and the
    module and the design share the copies; the design's variables are
    the instance tree's, as :func:`declare_vars` would read the module.
    """

    def __init__(self, program: IRProgram, leader: Instance,
                 members: List[Instance]):
        self.program = program
        self.leader = leader
        self.member_set = {id(m) for m in members}
        self.used_names: Set[str] = set()
        self.local_names: Dict[Tuple[int, str], str] = {}
        self.ports: List[ast.Port] = []
        self.items: List[ast.Item] = []
        self.port_vars: Dict[str, Var] = {}
        #: (sized variable, declaring item) of every net declared.
        self.net_decls: List[Tuple[Var, ast.NetDecl]] = []
        self.sub = Subprogram(_sub_name(leader), None, False,
                              leader.module.name, dict(leader.params))

    # -- naming ---------------------------------------------------------
    def local_name(self, inst: Instance, var: str) -> str:
        key = (id(inst), var)
        if key not in self.local_names:
            rel = inst.path[len(self.leader.path):]
            self.local_names[key] = self.fresh_name("_".join((*rel, var)))
        return self.local_names[key]

    def fresh_name(self, base: str) -> str:
        name = base
        n = 0
        while name in self.used_names:
            n += 1
            name = f"{base}__{n}"
        self.used_names.add(name)
        return name

    # -- declarations -----------------------------------------------------
    def add_port(self, port: ast.Port, width: int) -> None:
        """Append a port ``width`` bits wide (1 when it has no range)."""
        if port.name in self.port_vars:
            raise ElaborationError(
                f"duplicate declaration of {port.name!r}", port.loc)
        self.ports.append(port)
        self.port_vars[port.name] = Var(
            port.name, port.net_kind, width, port.signed, width - 1, 0,
            port.direction, loc=port.loc)

    # -- port promotion ---------------------------------------------------
    def promote(self, owner: Instance, var: str, direction: str) -> str:
        """Create (or reuse) a promoted port bound to the foreign
        variable's net; returns the local port name."""
        sig = owner.vars[var]
        net = self.program.net(_net_name(owner, var), sig.width,
                               sig.signed)
        for port, (net_name, d) in self.sub.bindings.items():
            if net_name == net.name and d == direction:
                return port
        base = "_".join((*owner.path, var))
        name = self.fresh_name(base)
        io = "output" if direction == "out" else "input"
        self.add_port(ast.Port(name, io, "wire", sig.signed,
                               _range(sig.width)), sig.width)
        self.program.bind(self.sub, name, net, direction)
        return name

    # -- member processing ---------------------------------------------
    def add_member(self, inst: Instance) -> None:
        params = inst.params
        # Register this member's names so mangling is deterministic.
        for name in inst.vars:
            self.local_name(inst, name)

        for port in inst.module.ports:
            var = inst.vars[port.name]
            if inst is self.leader:
                # The leader's declared ports remain real subprogram
                # ports.
                ported = substitute_params(port, params)
                if port.range_ is not None:
                    ported.range_ = ast.Range(_num(var.width - 1), _num(0))
                self.add_port(ported, 1 if port.range_ is None else var.width)
                net = self.program.net(_net_name(inst, port.name),
                                       var.width, var.signed)
                self.program.bind(
                    self.sub, port.name, net,
                    "in" if port.direction == "input" else "out")
                continue
            # Non-leader member: its ports become plain local variables.
            name = self.local_name(inst, port.name)
            kind = "reg" if var.kind == "reg" else "wire"
            init = None
            if port.init is not None and kind == "reg":
                init = substitute_params(port.init, params)
            decl = ast.NetDecl(kind, var.signed, _range(var.width),
                               [ast.Declarator(name, (), init)],
                               inst.module.loc)
            self.items.append(decl)
            self.net_decls.append((Var(name, kind, var.width, var.signed,
                                       var.width - 1, 0), decl))

        for item in inst.module.items:
            if isinstance(item, ast.ParamDecl):
                continue  # parameters are baked into the source
            if isinstance(item, ast.Instantiation):
                self._lower_instantiation(inst, item)
            elif isinstance(item, ast.FunctionDecl):
                self._process_function(inst, item)
            elif isinstance(item, ast.NetDecl):
                item = self._rename(inst, item)
                for decl in item.decls:
                    var = inst.vars[decl.name]
                    decl.name = self.local_name(inst, decl.name)
                    self.net_decls.append((Var(
                        decl.name, var.kind, var.width, var.signed, var.msb,
                        var.lsb, None, var.init, var.array, decl.loc), item))
                self.items.append(item)
            else:
                self.items.append(self._rename(
                    inst, item, self._lower_hierarchical_writes(inst, item)))

    def _process_function(self, inst: Instance,
                          item: ast.FunctionDecl) -> None:
        local = {item.name}
        local.update(p.name for p in item.ports)
        for decl_item in item.locals_:
            local.update(d.name for d in decl_item.decls)
        item = self._rename(inst, item, exclude=frozenset(local))
        old = item.name
        new_name = self.local_name(inst, old)
        if new_name != old:
            # The function's return variable shares its name; keep the
            # convention intact under mangling (recursion included).
            for node in walk(item):
                if isinstance(node, ast.Ident) and node.parts == (old,):
                    node.parts = (new_name,)
                elif isinstance(node, ast.Call) and node.name == old:
                    node.name = new_name
        item.name = new_name
        self.items.append(item)

    def _lower_instantiation(self, inst: Instance,
                             item: ast.Instantiation) -> None:
        child = inst.children[item.inst_name]
        child_in_group = id(child) in self.member_set
        for port in child.module.ports:
            expr = child.connections.get(port.name)
            if expr is None:
                continue
            lowered: Dict[int, str] = {}
            if port.direction == "output":
                self._lower_hierarchical_writes_lhs(inst, expr, lowered)
            expr = self._rename(inst, expr, lowered)
            if child_in_group:
                target: ast.Expr = ast.Ident(
                    (self.local_name(child, port.name),), item.loc)
            else:
                direction = "out" if port.direction == "input" else "in"
                target = ast.Ident(
                    (self.promote(child, port.name, direction),),
                    item.loc)
            if port.direction == "input":
                self.items.append(
                    ast.ContinuousAssign(target, expr, item.loc))
            else:
                self.items.append(
                    ast.ContinuousAssign(expr, target, item.loc))

    # -- hierarchical writes ---------------------------------------------
    def _lower_hierarchical_writes(self, inst: Instance,
                                   item: ast.Item) -> Dict[int, str]:
        """Promote an output port for each assignment target that
        refers to a foreign input port (e.g. ``assign led.val = cnt``);
        returns the port of each such identifier, by identity."""
        lowered: Dict[int, str] = {}
        for node in walk(item):
            if isinstance(node, (ast.ContinuousAssign, ast.BlockingAssign,
                                 ast.NonblockingAssign)):
                self._lower_hierarchical_writes_lhs(inst, node.lhs,
                                                    lowered)
        return lowered

    def _lower_hierarchical_writes_lhs(self, inst: Instance, lhs: ast.Expr,
                                       lowered: Dict[int, str]) -> None:
        for ident in _lvalue_base_idents(lhs):
            if len(ident.parts) == 1:
                continue
            resolved = inst.resolve(ident.parts)
            if resolved is None:
                raise TypeError_(
                    f"cannot resolve assignment target {ident.name!r}",
                    ident.loc)
            owner, var = resolved
            if id(owner) in self.member_set:
                continue  # internal: plain rename will handle it
            sig = owner.vars[var]
            if sig.direction != "input":
                raise TypeError_(
                    f"hierarchical write to {ident.name!r} is only "
                    "allowed when the target is an input port", ident.loc)
            lowered[id(ident)] = self.promote(owner, var, "out")

    # -- renaming -----------------------------------------------------------
    def _rename(self, inst: Instance, node: ast.Node,
                lowered: Optional[Dict[int, str]] = None,
                exclude: frozenset = frozenset()) -> ast.Node:
        """A copy of ``node`` in the group's namespace: ``inst``'s
        parameters substituted, its names mangled, foreign names
        promoted to ports, and each identifier in ``lowered`` bound to
        its output port.  Names in ``exclude`` stay as they are."""
        params = inst.params
        lowered = lowered or {}

        def fn(old: ast.Expr, e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.Ident):
                if id(old) in lowered:
                    return ast.Ident((lowered[id(old)],), e.loc)
                if len(e.parts) == 1 and e.parts[0] in params:
                    value = params[e.parts[0]]
                    return ast.Number(value, value.to_verilog(), True,
                                      loc=e.loc)
                if e.parts[0] in exclude:
                    return e
                return self._rename_ident(inst, e)
            if isinstance(e, ast.Call) and not e.name.startswith("$") \
                    and e.name not in exclude:
                e.name = self.local_name(inst, e.name)
            return e

        return rebuild(node, fn)

    def _rename_ident(self, inst: Instance, e: ast.Ident) -> ast.Expr:
        resolved = inst.resolve(e.parts)
        if resolved is None:
            raise TypeError_(
                f"cannot resolve {e.name!r} in {inst.module.name}", e.loc)
        owner, var = resolved
        if id(owner) in self.member_set:
            e.parts = (self.local_name(owner, var),)
        else:
            e.parts = (self.promote(owner, var, "in"),)
        return e

    # -- finish -------------------------------------------------------------
    def finish(self) -> None:
        """Set the subprogram's module and its sized design."""
        suffix = "_".join(self.leader.path) if self.leader.path else "root"
        module = ast.Module(f"{self.leader.module.name}__{suffix}",
                            self.ports, self.items,
                            self.leader.module.loc)
        self.sub.module_ast = module
        variables = dict(self.port_vars)
        for var, item in self.net_decls:
            declare_net(variables, var.name, var, item)
        self.sub.design = elaborate_owned(module, variables)


# ----------------------------------------------------------------------
# External subprograms and undriven-net promotion
# ----------------------------------------------------------------------
def _build_external(program: IRProgram, inst: Instance) -> None:
    """External (stdlib) instance: the subprogram keeps its module
    verbatim; every port binds to a net named after the instance path."""
    sub = Subprogram(_sub_name(inst), inst.module, True, inst.module.name,
                     dict(inst.params))
    for port in inst.module.ports:
        sig = inst.vars[port.name]
        sub.port_widths[port.name] = sig.width
        net = program.net(_net_name(inst, port.name), sig.width,
                          sig.signed)
        program.bind(sub, port.name, net,
                     "in" if port.direction == "input" else "out")
    program.add(sub)


def _promote_internal_outputs(program: IRProgram,
                              instances: List[Instance],
                              group_of: Dict[Instance, _GroupBuilder]
                              ) -> None:
    """Any net with readers but no driver names an internal variable of
    some user group: expose it there as an extra output port."""
    by_name = {_sub_name(inst): inst for inst in instances}
    for net in list(program.nets.values()):
        if net.driver is not None or not net.readers:
            continue
        owner_path, var = net.name.rsplit(".", 1)
        inst = by_name[owner_path]
        builder = group_of.get(inst)
        local = None if builder is None \
            else builder.local_names.get((id(inst), var))
        if local is not None:
            sig = inst.vars[var]
            builder.add_port(ast.Port(local, "output", "wire", sig.signed,
                                      _range(sig.width)), sig.width)
            program.bind(builder.sub, local, net, "out")


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_ir(root_module: ast.Module, library: ModuleLibrary,
             external: Optional[Set[str]] = None,
             inlined: bool = False) -> IRProgram:
    """Transform a program into the Cascade IR.

    Parameters
    ----------
    root_module:
        The (implicit) root module, including standard-library
        instantiations.
    library:
        All declared modules.
    external:
        Module names realised by pre-compiled engines (the standard
        library).  They become their own subprograms and are never
        inlined into user logic.
    inlined:
        When True, user logic is merged into a single subprogram
        (the §4.2 optimisation, Figure 9.2); when False every instance
        is its own subprogram (the baseline IR, Figure 9.1).

    The parse tree is only read: ``root_module`` and ``library`` may be
    built again, by the next eval, as they are.
    """
    external = external or set()
    program = IRProgram()
    root = build_tree(root_module, library, external)
    instances = _collect_instances(root)

    groups: Dict[Instance, List[Instance]] = {}   # leader -> members
    for inst in instances:
        groups.setdefault(_group_of(inst, inlined), []).append(inst)

    builders: List[_GroupBuilder] = []
    group_of: Dict[Instance, _GroupBuilder] = {}   # member -> builder
    for leader, members in groups.items():
        if leader.external:
            _build_external(program, leader)
            continue
        builder = _GroupBuilder(program, leader, members)
        for member in sorted(members, key=lambda m: len(m.path)):
            builder.add_member(member)
            group_of[member] = builder
        program.add(builder.sub)
        builders.append(builder)

    _promote_internal_outputs(program, instances, group_of)
    for builder in builders:
        builder.finish()
    return program
