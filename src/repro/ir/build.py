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

Standard-library components (Clock, Led, FIFO, ...) are *external*:
they are never inlined, and their subprograms are realised by
pre-compiled engines (:mod:`repro.stdlib.engines`) rather than by
compiling their Verilog.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Set, Tuple

from ..common.bits import Bits
from ..common.errors import ElaborationError, TypeError_
from ..verilog import ast
from ..verilog.elaborate import (Instance, ModuleLibrary, build_tree,
                                 substitute_params)
from ..verilog.visitor import map_exprs, walk

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


class _GroupBuilder:
    """Builds the transformed stand-alone module for one group."""

    def __init__(self, program: IRProgram, leader: Instance,
                 members: List[Instance]):
        self.program = program
        self.leader = leader
        self.member_set = {id(m) for m in members}
        self.used_names: Set[str] = set()
        self.local_names: Dict[Tuple[int, str], str] = {}
        self.ports: List[ast.Port] = []
        self.port_dirs: Dict[str, str] = {}
        self.items: List[ast.Item] = []
        self.sub = Subprogram(_sub_name(leader), None, False,
                              leader.module.name, dict(leader.params))

    # -- naming ---------------------------------------------------------
    def local_name(self, inst: Instance, var: str) -> str:
        key = (id(inst), var)
        if key in self.local_names:
            return self.local_names[key]
        rel = inst.path[len(self.leader.path):]
        base = "_".join((*rel, var)) if rel else var
        name = base
        n = 0
        while name in self.used_names:
            n += 1
            name = f"{base}__{n}"
        self.used_names.add(name)
        self.local_names[key] = name
        return name

    def fresh_name(self, base: str) -> str:
        name = base
        n = 0
        while name in self.used_names:
            n += 1
            name = f"{base}__{n}"
        self.used_names.add(name)
        return name

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
        rng = ast.Range(_num(sig.width - 1), _num(0)) \
            if sig.width > 1 else None
        self.ports.append(ast.Port(name, io, "wire", sig.signed, rng))
        self.port_dirs[name] = io
        self.program.bind(self.sub, name, net, direction)
        return name

    # -- member processing ---------------------------------------------
    def add_member(self, inst: Instance) -> None:
        items = copy.deepcopy(inst.module.items)
        is_leader = inst is self.leader

        # Register this member's names so mangling is deterministic.
        for name in inst.vars:
            self.local_name(inst, name)

        if is_leader:
            # The leader's declared ports remain real subprogram ports.
            for port in copy.deepcopy(inst.module.ports):
                substitute_params(port, inst.params)
                var = inst.vars[port.name]
                if port.range_ is not None:
                    port.range_ = ast.Range(_num(var.width - 1), _num(0))
                self.ports.append(port)
                self.port_dirs[port.name] = port.direction
                net = self.program.net(_net_name(inst, port.name),
                                       var.width, var.signed)
                self.program.bind(
                    self.sub, port.name, net,
                    "in" if port.direction == "input" else "out")
        else:
            # Non-leader member: its ports become plain local variables.
            for port in inst.module.ports:
                name = self.local_name(inst, port.name)
                var = inst.vars[port.name]
                rng = ast.Range(_num(var.width - 1), _num(0)) \
                    if var.width > 1 else None
                kind = "reg" if var.kind == "reg" else "wire"
                init = None
                if port.init is not None and kind == "reg":
                    init = substitute_params(copy.deepcopy(port.init),
                                             inst.params)
                self.items.append(ast.NetDecl(
                    kind, var.signed, rng,
                    [ast.Declarator(name, (), init)], inst.module.loc))

        for item in items:
            if isinstance(item, ast.ParamDecl):
                continue  # parameters are baked into the source
            if isinstance(item, ast.Instantiation):
                self._lower_instantiation(inst, item)
                continue
            substitute_params(item, inst.params)
            if isinstance(item, ast.FunctionDecl):
                self._process_function(inst, item)
                continue
            self._lower_hierarchical_writes(inst, item)
            self._rename(inst, item)
            if isinstance(item, ast.NetDecl):
                self._emit_net_decl(inst, item, is_leader)
            else:
                self.items.append(item)

    def _emit_net_decl(self, inst: Instance, item: ast.NetDecl,
                       is_leader: bool) -> None:
        keep: List[ast.Declarator] = []
        for decl in item.decls:
            new_name = self.local_name(inst, decl.name)
            if is_leader and decl.name in self.port_dirs:
                # Non-ANSI reg/width redeclaration of a port: keep it so
                # elaborate_leaf merges the attributes.
                decl.name = decl.name
                keep.append(decl)
                continue
            decl.name = new_name
            keep.append(decl)
        if keep:
            item.decls = keep
            self.items.append(item)

    def _process_function(self, inst: Instance,
                          item: ast.FunctionDecl) -> None:
        local = {item.name}
        local.update(p.name for p in item.ports)
        for decl_item in item.locals_:
            local.update(d.name for d in decl_item.decls)
        self._rename(inst, item, frozenset(local))
        old = item.name
        new_name = self.local_name(inst, old)
        if new_name != old:
            # The function's return variable shares its name; keep the
            # convention intact under mangling (recursion included).
            def fix(e: ast.Expr) -> ast.Expr:
                if isinstance(e, ast.Ident) and e.parts == (old,):
                    return ast.Ident((new_name,), e.loc)
                if isinstance(e, ast.Call) and e.name == old:
                    e.name = new_name
                return e
            map_exprs(item, fix)
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
            if port.direction == "output":
                self._lower_hierarchical_writes_lhs(inst, expr)
            expr = self._rename(inst, expr)
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
                                   item: ast.Item) -> None:
        """Rewrite assignment targets that refer to foreign input ports
        (e.g. ``assign led.val = cnt``) into promoted output ports."""
        for node in walk(item):
            if isinstance(node, (ast.ContinuousAssign, ast.BlockingAssign,
                                 ast.NonblockingAssign)):
                self._lower_hierarchical_writes_lhs(inst, node.lhs)

    def _lower_hierarchical_writes_lhs(self, inst: Instance,
                                       lhs: ast.Expr) -> None:
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
            port = self.promote(owner, var, "out")
            ident.parts = (port,)

    # -- renaming -----------------------------------------------------------
    def _rename(self, inst: Instance, node: ast.Node,
                exclude: frozenset = frozenset()) -> ast.Node:
        builder = self

        def fn(e: ast.Expr) -> ast.Expr:
            if isinstance(e, ast.Ident):
                if e.parts[0] in exclude:
                    return e
                return builder._rename_ident(inst, e)
            if isinstance(e, ast.Call) and not e.name.startswith("$"):
                if e.name not in exclude:
                    e.name = builder.local_name(inst, e.name)
                return e
            return e

        return map_exprs(node, fn)

    def _rename_ident(self, inst: Instance, e: ast.Ident) -> ast.Expr:
        resolved = inst.resolve(e.parts)
        if resolved is None:
            if len(e.parts) == 1 and e.parts[0] in self.port_dirs:
                # Already lowered to a promoted port (hierarchical
                # write targets are rewritten before renaming).
                return e
            raise TypeError_(
                f"cannot resolve {e.name!r} in {inst.module.name}", e.loc)
        owner, var = resolved
        if id(owner) in self.member_set:
            return ast.Ident((self.local_name(owner, var),), e.loc)
        name = self.promote(owner, var, "in")
        return ast.Ident((name,), e.loc)

    # -- finish -------------------------------------------------------------
    def finish(self) -> Subprogram:
        suffix = "_".join(self.leader.path) if self.leader.path else "root"
        module = ast.Module(f"{self.leader.module.name}__{suffix}",
                            self.ports, self.items,
                            self.leader.module.loc)
        self.sub.module_ast = module
        return self.sub


# ----------------------------------------------------------------------
# External subprograms and undriven-net promotion
# ----------------------------------------------------------------------
def _build_external(program: IRProgram, inst: Instance) -> None:
    """External (stdlib) instance: the subprogram keeps its module
    verbatim; every port binds to a net named after the instance path."""
    sub = Subprogram(_sub_name(inst), copy.deepcopy(inst.module), True,
                     inst.module.name, dict(inst.params))
    for port in inst.module.ports:
        sig = inst.vars[port.name]
        net = program.net(_net_name(inst, port.name), sig.width,
                          sig.signed)
        program.bind(sub, port.name, net,
                     "in" if port.direction == "input" else "out")
    program.add(sub)


def _promote_internal_outputs(program: IRProgram,
                              builders: Dict[str, _GroupBuilder]) -> None:
    """Any net with readers but no driver names an internal variable of
    some user group: expose it there as an extra output port."""
    for net in list(program.nets.values()):
        if net.driver is not None or not net.readers:
            continue
        owner_path, var = net.name.rsplit(".", 1)
        for builder in builders.values():
            leader = builder.leader
            inst = _find_instance(leader, owner_path)
            if inst is None or id(inst) not in builder.member_set:
                continue
            local = builder.local_names.get((id(inst), var))
            if local is None:
                continue
            sig = inst.vars[var]
            rng = ast.Range(_num(sig.width - 1), _num(0)) \
                if sig.width > 1 else None
            module = builder.sub.module_ast
            module.ports.append(
                ast.Port(local, "output", "wire", sig.signed, rng))
            program.bind(builder.sub, local, net, "out")
            break


def _find_instance(leader: Instance, path_str: str) -> Optional[Instance]:
    target = () if path_str == "main" else tuple(path_str.split("."))
    if leader.path == target:
        return leader
    if len(target) <= len(leader.path) or \
            target[:len(leader.path)] != leader.path:
        return None
    node = leader
    for part in target[len(leader.path):]:
        child = node.children.get(part)
        if child is None:
            return None
        node = child
    return node


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
    """
    external = external or set()
    program = IRProgram()
    root = build_tree(root_module, library, external)
    instances = _collect_instances(root)

    groups: Dict[int, List[Instance]] = {}
    leaders: Dict[int, Instance] = {}
    for inst in instances:
        leader = _group_of(inst, inlined)
        groups.setdefault(id(leader), []).append(inst)
        leaders[id(leader)] = leader

    builders: Dict[str, _GroupBuilder] = {}
    for leader_id, members in groups.items():
        leader = leaders[leader_id]
        if leader.external:
            _build_external(program, leader)
            continue
        builder = _GroupBuilder(program, leader, members)
        for member in sorted(members, key=lambda m: len(m.path)):
            builder.add_member(member)
        program.add(builder.finish())
        builders[builder.sub.name] = builder

    _promote_internal_outputs(program, builders)
    return program
