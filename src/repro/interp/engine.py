"""The software engine: an event-driven interpreter for one Design.

This is the paper's §5.1 — "software engines use a cycle-accurate
event-driven simulation strategy similar to iVerilog".  One
:class:`SoftwareEngine` executes one elaborated :class:`Design`
(a Cascade subprogram).  It exposes exactly the operations of the
Figure 7 target-specific ABI; :mod:`repro.core.abi` defines the abstract
interface it implements.

Implementation notes
--------------------
* Procedural code (always/initial bodies) runs on Python generators so a
  process can suspend on ``#delay`` and ``@(...)`` event controls and be
  resumed later — the mechanism behind unsynthesizable testbench code.
* Continuous assigns are re-evaluated lazily from a dependency map
  (paper: "Cascade computes data dependencies at compile-time and uses a
  lazy evaluation strategy ... to reduce the overhead of recomputing
  outputs").
* Nonblocking assigns resolve their l-value indices eagerly and queue
  primitive write operations, applied atomically by :meth:`update`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..common.bits import Bits
from ..common.errors import EvalError
from ..verilog import ast
from ..verilog.elaborate import Design, Function
from ..verilog.eval import ExprEvaluator
from ..verilog.sizing import size_expr
from ..verilog.visitor import find_all, walk
from .fmt import format_display

__all__ = ["SoftwareEngine", "EngineServices", "read_set_of"]

_LOOP_CAP = 1_000_000    # statement steps per activation
_EVAL_CAP = 1_000_000    # events per evaluate() drain


class EngineServices:
    """Callbacks an engine uses to talk to its runtime.

    The default implementation prints to stdout and keeps local time,
    which is what the standalone reference simulator wants; the Cascade
    runtime passes its own implementation that routes these through the
    interrupt queue.
    """

    def display(self, text: str, newline: bool = True) -> None:
        print(text, end="\n" if newline else "")

    def finish(self, code: int = 0) -> None:
        raise _FinishSignal(code)

    def now(self) -> int:
        return 0

    def fopen(self, path: str) -> Iterable[str]:
        with open(path, "r", encoding="utf-8") as f:
            return f.read().splitlines()


def _fit(value: Bits, width: int, signed: bool) -> Bits:
    """``value`` assigned to a variable of ``width`` and ``signed``."""
    v = value.as_signed() if signed else value.as_unsigned()
    return v.extend(width) if v.width < width else v.resize(width)


class _FinishSignal(Exception):
    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def _edge_cat(value: Bits) -> int:
    """0, 1 or 2(x/z) category of a value's LSB, for edge detection."""
    a = value.aval & 1
    b = value.bval & 1
    if b:
        return 2
    return a


def _is_posedge(old: int, new: int) -> bool:
    # 0->1, 0->x, x->1
    return (old == 0 and new != 0) or (old == 2 and new == 1)


def _is_negedge(old: int, new: int) -> bool:
    return (old == 1 and new != 1) or (old == 2 and new == 0)


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

    def visit_lvalue(e: ast.Expr) -> None:
        if isinstance(e, ast.Ident):
            return
        if isinstance(e, ast.IndexExpr):
            visit_lvalue(e.base)
            visit_expr(e.index)
        elif isinstance(e, ast.RangeExpr):
            visit_lvalue(e.base)
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, ast.Concat):
            for p in e.parts:
                visit_lvalue(p)

    def visit_stmt(s: ast.Node) -> None:
        if isinstance(s, (ast.BlockingAssign, ast.NonblockingAssign)):
            visit_lvalue(s.lhs)
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


class _Process:
    """One procedural thread (an always or initial block)."""

    __slots__ = ("pid", "gen", "done", "kind")

    def __init__(self, pid: int, gen, kind: str):
        self.pid = pid
        self.gen = gen
        self.done = False
        self.kind = kind  # "always" | "initial"


class _WaitEntry:
    """A process suspended on an event control."""

    __slots__ = ("process", "items", "names")

    def __init__(self, process: "_Process",
                 items: List[Tuple[Optional[str], ast.Expr, Bits]],
                 names: Set[str]):
        self.process = process
        self.items = items   # (edge, expr, previous value)
        self.names = names


class _Scope:
    """The evaluator scope over an engine's live state."""

    def __init__(self, engine: "SoftwareEngine"):
        self.engine = engine
        self.frames: List[Dict[str, Bits]] = []

    # -- frame management (function calls) ------------------------------
    def push_frame(self, frame: Dict[str, Bits]) -> None:
        self.frames.append(frame)

    def pop_frame(self) -> None:
        self.frames.pop()

    def _frame_lookup(self, name: str) -> Optional[Bits]:
        if self.frames and name in self.frames[-1]:
            return self.frames[-1][name]
        return None

    # -- Scope protocol ---------------------------------------------------
    def read(self, name: str) -> Bits:
        v = self._frame_lookup(name)
        if v is not None:
            return v
        return self.engine.values[name]

    def read_word(self, name: str, offset: int) -> Bits:
        words = self.engine.arrays[name]
        if 0 <= offset < len(words):
            return words[offset]
        return Bits.xes(self.engine.design.vars[name].width)

    def call_function(self, name: str, args: List[Bits]) -> Bits:
        return self.engine.call_function(name, args)

    def sys_func(self, name: str, args: List[ast.Expr],
                 evaluator: ExprEvaluator) -> Bits:
        return self.engine.sys_func(name, args, evaluator)


class SoftwareEngine:
    """Event-driven interpreter engine for one elaborated Design."""

    def __init__(self, design: Design,
                 services: Optional[EngineServices] = None,
                 random_seed: int = 1):
        self.design = design
        self.services = services or EngineServices()
        self.values: Dict[str, Bits] = {}
        self.arrays: Dict[str, List[Bits]] = {}
        self._rand_state = random_seed & 0xFFFFFFFF or 1

        self.scope = _Scope(self)
        self.evaluator = ExprEvaluator(self.scope)

        # Event machinery.
        self._dirty_assigns: deque = deque()
        self._dirty_set: Set[int] = set()
        self._runnable: deque = deque()
        self._update_queue: List[Tuple] = []
        self._sleeping: List[Tuple[int, int, _Process]] = []  # heap
        self._sleep_seq = 0
        self._waits_by_name: Dict[str, List[_WaitEntry]] = {}
        # Per-event-control activation metadata, computed once per ctrl
        # (keyed by identity: ctrl nodes live as long as the design).
        # Re-walking the expression tree on every wait registration and
        # every _check_waits call dominated the scheduler hot path.
        self._wait_meta: Dict[int, Tuple] = {}
        self._monitors: List[Tuple[List[ast.Expr], Optional[str]]] = []
        self._changed_outputs: Set[str] = set()
        self._finished: Optional[int] = None
        self._stmt_budget = _LOOP_CAP

        self._init_state()
        self._build_assign_deps()
        self._spawn_processes()

    # ------------------------------------------------------------------
    # Initialisation
    # ------------------------------------------------------------------
    def _init_state(self) -> None:
        for var in self.design.vars.values():
            if var.is_array:
                nwords = var.array[0]
                self.arrays[var.name] = [var.default_value()
                                         for _ in range(nwords)]
            else:
                self.values[var.name] = var.default_value()

    def _build_assign_deps(self) -> None:
        self._assign_deps: Dict[str, Set[int]] = {}
        for idx, assign in enumerate(self.design.assigns):
            reads = read_set_of(assign.rhs) | read_set_of_lvalue_indices(
                assign.lhs)
            for name in reads:
                self._assign_deps.setdefault(name, set()).add(idx)
            # Every assign is evaluated once at time zero.
            self._mark_assign(idx)

    def _spawn_processes(self) -> None:
        self._processes: List[_Process] = []
        pid = 0
        for block in self.design.initials:
            proc = _Process(pid, self._run_initial(block), "initial")
            self._processes.append(proc)
            self._runnable.append(proc)
            pid += 1
        for block in self.design.always:
            proc = _Process(pid, self._run_always(block), "always")
            self._processes.append(proc)
            self._runnable.append(proc)
            pid += 1

    def _run_initial(self, block: ast.InitialBlock):
        yield from self._exec(block.body)

    def _run_always(self, block: ast.AlwaysBlock):
        ctrl = block.ctrl
        if ctrl is not None and ctrl.star:
            names = sorted(read_set_of(block.body))
            items = [ast.EventItem(None, ast.Ident(n.split(".")))
                     for n in names]
            for item in items:
                size_expr(item.expr, self.design)
            ctrl = ast.EventControl(False, items, block.ctrl.loc)
        while True:
            if ctrl is not None:
                yield ("wait", ctrl)
            yield from self._exec(block.body)

    # ------------------------------------------------------------------
    # Value access and change notification
    # ------------------------------------------------------------------
    def peek(self, name: str) -> Bits:
        """Current value of a variable (ABI read)."""
        return self.values[name]

    def poke(self, name: str, value: Bits) -> None:
        """Deliver an input change (ABI write)."""
        var = self.design.vars[name]
        self._set_var(name, _fit(value, var.width, var.signed))

    def _set_var(self, name: str, value: Bits) -> None:
        old = self.values[name]
        if old.aval == value.aval and old.bval == value.bval:
            return
        self.values[name] = value
        self._notify(name, old, value)

    def _set_word(self, name: str, offset: int, value: Bits) -> None:
        old = self.arrays[name][offset]
        if old.aval == value.aval and old.bval == value.bval:
            return
        self.arrays[name][offset] = value
        self._notify(name, old, value)

    def _notify(self, name: str, old: Bits, new: Bits) -> None:
        var = self.design.vars.get(name)
        if var is not None and var.direction == "output":
            self._changed_outputs.add(name)
        for idx in self._assign_deps.get(name, ()):
            self._mark_assign(idx)
        entries = self._waits_by_name.get(name)
        if entries:
            self._check_waits(name, list(entries))

    def _mark_assign(self, idx: int) -> None:
        if idx not in self._dirty_set:
            self._dirty_set.add(idx)
            self._dirty_assigns.append(idx)

    def _check_waits(self, changed: str, entries: List[_WaitEntry]) -> None:
        for entry in entries:
            satisfied = False
            for i, (edge, expr, prev, names) in enumerate(entry.items):
                if changed not in names:
                    continue
                if prev is None:
                    # Memory sensitivity (eg @(*) over a reg array):
                    # element writes are change-filtered before
                    # notification, so any notification is a change.
                    if edge is None:
                        satisfied = True
                    continue
                new = self.evaluator.eval(expr)
                entry.items[i] = (edge, expr, new, names)
                if edge is None:
                    if new.aval != prev.aval or new.bval != prev.bval:
                        satisfied = True
                else:
                    old_c, new_c = _edge_cat(prev), _edge_cat(new)
                    if edge == "posedge" and _is_posedge(old_c, new_c):
                        satisfied = True
                    elif edge == "negedge" and _is_negedge(old_c, new_c):
                        satisfied = True
            if satisfied:
                self._unregister_wait(entry)
                self._runnable.append(entry.process)

    def _unregister_wait(self, entry: _WaitEntry) -> None:
        for name in entry.names:
            lst = self._waits_by_name.get(name)
            if lst and entry in lst:
                lst.remove(entry)

    def _register_wait(self, process: _Process,
                       ctrl: ast.EventControl) -> None:
        meta = self._wait_meta.get(id(ctrl))
        if meta is None:
            item_meta = []
            all_names: Set[str] = set()
            for item in ctrl.items:
                item_names = frozenset(read_set_of(item.expr))
                # A bare signal reference — the overwhelmingly common
                # case (@(posedge clk)) — can skip the evaluator and
                # read the value dict directly on every registration.
                ident = item.expr.name \
                    if isinstance(item.expr, ast.Ident) else None
                # A bare memory reference has no scalar value to
                # snapshot; it is tracked purely by change
                # notification (prev sentinel None).
                is_mem = ident is not None and ident in self.arrays
                item_meta.append((item.edge, item.expr, item_names,
                                  ident, is_mem))
                all_names |= item_names
            meta = (item_meta, tuple(all_names))
            self._wait_meta[id(ctrl)] = meta
        item_meta, names = meta
        values = self.values
        items = []
        for edge, expr, item_names, ident, is_mem in item_meta:
            if is_mem:
                items.append((edge, expr, None, item_names))
                continue
            current = values.get(ident) if ident is not None else None
            if current is None:
                current = self.evaluator.eval(expr)
            items.append((edge, expr, current, item_names))
        entry = _WaitEntry(process, items, names)
        waits = self._waits_by_name
        for name in names:
            waits.setdefault(name, []).append(entry)

    # ------------------------------------------------------------------
    # Statement execution (generator-based)
    # ------------------------------------------------------------------
    def _budget(self) -> None:
        self._stmt_budget -= 1
        if self._stmt_budget <= 0:
            raise EvalError(
                "statement budget exhausted (runaway loop in procedural "
                "code?)")

    def _exec(self, stmt: Optional[ast.Stmt]):
        if stmt is None:
            return
        self._budget()
        if isinstance(stmt, ast.Block):
            for sub in stmt.stmts:
                yield from self._exec(sub)
        elif isinstance(stmt, ast.BlockingAssign):
            self._do_blocking(stmt)
        elif isinstance(stmt, ast.NonblockingAssign):
            self._do_nonblocking(stmt)
        elif isinstance(stmt, ast.If):
            if self.evaluator.eval_bool(stmt.cond):
                yield from self._exec(stmt.then)
            else:
                yield from self._exec(stmt.els)
        elif isinstance(stmt, ast.Case):
            yield from self._exec_case(stmt)
        elif isinstance(stmt, ast.For):
            self._do_blocking(stmt.init)
            while self.evaluator.eval_bool(stmt.cond):
                self._budget()
                yield from self._exec(stmt.body)
                self._do_blocking(stmt.step)
        elif isinstance(stmt, ast.While):
            while self.evaluator.eval_bool(stmt.cond):
                self._budget()
                yield from self._exec(stmt.body)
        elif isinstance(stmt, ast.RepeatStmt):
            count = self.evaluator.eval(stmt.count)
            n = 0 if count.has_xz else count.to_uint()
            for _ in range(n):
                self._budget()
                yield from self._exec(stmt.body)
        elif isinstance(stmt, ast.Forever):
            while True:
                self._budget()
                yield from self._exec(stmt.body)
        elif isinstance(stmt, ast.DelayStmt):
            amount = self.evaluator.eval(stmt.amount)
            n = 1 if amount.has_xz else max(amount.to_uint(), 0)
            yield ("delay", n)
            yield from self._exec(stmt.stmt)
        elif isinstance(stmt, ast.EventStmt):
            yield ("wait", stmt.ctrl)
            yield from self._exec(stmt.stmt)
        elif isinstance(stmt, ast.SysTask):
            self._do_systask(stmt)
        elif isinstance(stmt, ast.NullStmt):
            pass
        else:
            raise EvalError(f"cannot execute {type(stmt).__name__}")

    def _select_case_arm(self, stmt: ast.Case) -> Optional[ast.Stmt]:
        """The body of the matching case arm (or default), or None."""
        wild_x = stmt.kind == "casex"
        is_plain = stmt.kind == "case"
        selector = self.evaluator.eval(stmt.expr)
        default_body = None
        for item in stmt.items:
            if item.exprs is None:
                default_body = item.body
                continue
            for e in item.exprs:
                label = self.evaluator.eval(e)
                if is_plain:
                    hit = bool(selector.case_eq(label))
                else:
                    hit = selector.matches(label, wild_x)
                if hit:
                    return item.body
        return default_body

    def _exec_case(self, stmt: ast.Case):
        body = self._select_case_arm(stmt)
        if body is not None:
            yield from self._exec(body)

    # ------------------------------------------------------------------
    # Assignment machinery
    # ------------------------------------------------------------------
    def _do_blocking(self, stmt: ast.BlockingAssign) -> None:
        value = self.evaluator.eval(stmt.rhs)
        for op in self._resolve_targets(stmt.lhs, value):
            self._apply_write(op)

    def _do_nonblocking(self, stmt: ast.NonblockingAssign) -> None:
        value = self.evaluator.eval(stmt.rhs)
        self._update_queue.extend(self._resolve_targets(stmt.lhs, value))

    def run_continuous(self, assign: ast.ContinuousAssign) -> None:
        """(Re-)evaluate one continuous assign."""
        value = self.evaluator.eval(assign.rhs)
        for op in self._resolve_targets(assign.lhs, value):
            self._apply_write(op)

    def _resolve_targets(self, lhs: ast.Expr, value: Bits) -> List[Tuple]:
        """Lower an l-value + value into primitive write operations.

        Ops: ("var", name, bits) | ("word", name, offset, bits) |
        ("bits", name, hi, lo, bits), at physical positions.
        """
        ops: List[Tuple] = []
        self._resolve_into(lhs, value, ops)
        return ops

    def _resolve_into(self, lhs: ast.Expr, value: Bits,
                      ops: List[Tuple]) -> None:
        if isinstance(lhs, ast.Concat):
            total = lhs.width
            v = value.resize(total) if value.width >= total \
                else value.extend(total)
            pos = total
            for part in lhs.parts:
                w = part.width
                chunk = v.part(pos - 1, pos - w)
                self._resolve_into(part, chunk, ops)
                pos -= w
            return
        if isinstance(lhs, ast.Ident):
            ops.append(("var", lhs.name, _fit(value, lhs.width, lhs.signed)))
            return
        if not isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
            raise EvalError(f"invalid l-value {type(lhs).__name__}")
        if not isinstance(lhs.base, ast.Ident):
            raise EvalError("unsupported nested l-value")
        sel = lhs.select
        low = self.evaluator.low(sel, lhs.index if isinstance(
            lhs, ast.IndexExpr) else lhs.left)
        width = lhs.width
        # An x index, or no bit or word in range: the write is lost.
        if low is None:
            return
        if sel.word:
            if 0 <= low < sel.span:
                ops.append(("word", lhs.base.name, low,
                            value.extend(width) if value.width < width
                            else value.resize(width)))
        elif -width < low < sel.span:
            ops.append(("bits", lhs.base.name, low + width - 1, low, value))

    def _apply_write(self, op: Tuple) -> None:
        """Apply one write, to the current function frame when it holds
        the name."""
        kind, name = op[0], op[1]
        if kind == "word":
            self._set_word(name, op[2], op[3])
            return
        frames = self.scope.frames
        frame = frames[-1] if frames and name in frames[-1] else None
        if kind == "var":
            value = op[2]
        else:
            old = self.values[name] if frame is None else frame[name]
            value = old.set_part(op[2], op[3], op[4])
        if frame is None:
            self._set_var(name, value)
        else:
            frame[name] = value

    # ------------------------------------------------------------------
    # Functions and system tasks
    # ------------------------------------------------------------------
    def call_function(self, name: str, args: List[Bits]) -> Bits:
        fn: Function = self.design.functions[name]
        frame: Dict[str, Bits] = {
            port.name: _fit(value, port.width, port.signed)
            for port, value in zip(fn.ports, args)}
        for var in fn.locals_ + [fn.ret]:
            frame[var.name] = Bits.xes(var.width)
        self.scope.push_frame(frame)
        try:
            self._exec_function_body(fn)
        finally:
            self.scope.pop_frame()
        result = frame[fn.ret.name]
        return result.as_signed() if fn.ret.signed else result

    def _exec_function_body(self, fn: Function) -> None:
        def run(stmt: Optional[ast.Stmt]) -> None:
            if stmt is None:
                return
            self._budget()
            if isinstance(stmt, ast.Block):
                for sub in stmt.stmts:
                    run(sub)
            elif isinstance(stmt, ast.BlockingAssign):
                self._do_blocking(stmt)
            elif isinstance(stmt, ast.If):
                if self.evaluator.eval_bool(stmt.cond):
                    run(stmt.then)
                else:
                    run(stmt.els)
            elif isinstance(stmt, ast.Case):
                run(self._select_case_arm(stmt))
            elif isinstance(stmt, ast.For):
                run(stmt.init)
                while self.evaluator.eval_bool(stmt.cond):
                    self._budget()
                    run(stmt.body)
                    run(stmt.step)
            elif isinstance(stmt, ast.While):
                while self.evaluator.eval_bool(stmt.cond):
                    self._budget()
                    run(stmt.body)
            elif isinstance(stmt, ast.RepeatStmt):
                count = self.evaluator.eval(stmt.count)
                for _ in range(0 if count.has_xz else count.to_uint()):
                    run(stmt.body)
            elif isinstance(stmt, ast.SysTask):
                self._do_systask(stmt)
            elif isinstance(stmt, ast.NullStmt):
                pass
            else:
                raise EvalError(
                    f"{type(stmt).__name__} not allowed in function body")

        run(fn.body)

    def sys_func(self, name: str, args: List[ast.Expr],
                 evaluator: ExprEvaluator) -> Bits:
        if name in ("$time", "$stime"):
            return Bits.from_int(self.services.now(), 64)
        if name == "$random":
            if args:
                seed = evaluator.eval(args[0])
                if not seed.has_xz:
                    self._rand_state = seed.to_uint() & 0xFFFFFFFF or 1
            # xorshift32: deterministic, decent spectral behaviour.
            s = self._rand_state
            s ^= (s << 13) & 0xFFFFFFFF
            s ^= s >> 17
            s ^= (s << 5) & 0xFFFFFFFF
            self._rand_state = s
            return Bits.from_int(s, 32, signed=True)
        raise EvalError(f"unknown system function {name!r}")

    def _do_systask(self, stmt: ast.SysTask) -> None:
        name = stmt.name
        if name in ("$display", "$write"):
            rendered = self._render_args(stmt.args)
            self.services.display(rendered, newline=name == "$display")
        elif name == "$monitor":
            self._monitors.append((stmt.args, None))
        elif name in ("$finish", "$stop"):
            code = 0
            if stmt.args:
                v = self.evaluator.eval(stmt.args[0])
                code = 0 if v.has_xz else v.to_uint()
            self._finished = code
            self.services.finish(code)
        elif name in ("$readmemh", "$readmemb"):
            self._do_readmem(stmt, base=16 if name == "$readmemh" else 2)
        else:
            raise EvalError(f"unknown system task {name!r}")

    def _render_args(self, args: List[ast.Expr]) -> str:
        rendered: List[object] = []
        for a in args:
            if isinstance(a, ast.StringLit):
                rendered.append(a.value)
            else:
                rendered.append(self.evaluator.eval(a))
        return format_display(rendered, self.design.name,
                              self.services.now())

    def _do_readmem(self, stmt: ast.SysTask, base: int) -> None:
        if len(stmt.args) < 2 or not isinstance(stmt.args[0],
                                                ast.StringLit):
            raise EvalError("$readmem requires a path and a memory")
        target = stmt.args[1]
        if not isinstance(target, ast.Ident):
            raise EvalError("$readmem target must be a memory name")
        var = self.design.vars.get(target.name)
        if var is None or not var.is_array:
            raise EvalError(f"{target.name!r} is not a memory")
        lines = self.services.fopen(stmt.args[0].value)
        words = []
        for line in lines:
            line = line.split("//")[0].strip()
            for token in line.split():
                if token.startswith("@"):
                    continue
                words.append(Bits.from_int(int(token, base), var.width))
        storage = self.arrays[target.name]
        for i, word in enumerate(words[:len(storage)]):
            storage[i] = word
        self._notify(target.name, Bits.xes(var.width),
                     Bits.zeros(var.width))

    # ------------------------------------------------------------------
    # ABI surface (Figure 7)
    # ------------------------------------------------------------------
    def there_are_evals(self) -> bool:
        return bool(self._dirty_assigns or self._runnable)

    def evaluate(self) -> None:
        """Drain all active evaluation events."""
        steps = 0
        self._stmt_budget = _LOOP_CAP
        while self._dirty_assigns or self._runnable:
            steps += 1
            if steps > _EVAL_CAP:
                raise EvalError("evaluation did not converge "
                                "(combinational loop?)")
            if self._dirty_assigns:
                idx = self._dirty_assigns.popleft()
                self._dirty_set.discard(idx)
                self.run_continuous(self.design.assigns[idx])
                continue
            proc = self._runnable.popleft()
            self._resume(proc)

    def _resume(self, proc: _Process) -> None:
        if proc.done:
            return
        try:
            request = next(proc.gen)
        except StopIteration:
            proc.done = True
            return
        except _FinishSignal:
            proc.done = True
            return
        kind, payload = request
        if kind == "wait":
            self._register_wait(proc, payload)
        elif kind == "delay":
            if payload <= 0:
                self._runnable.append(proc)
            else:
                self._sleep_seq += 1
                heapq.heappush(self._sleeping,
                               (self.services.now() + payload,
                                self._sleep_seq, proc))
        else:  # pragma: no cover
            raise EvalError(f"unknown process request {kind!r}")

    def there_are_updates(self) -> bool:
        return bool(self._update_queue)

    def update(self) -> None:
        """Apply all queued nonblocking updates atomically."""
        queue, self._update_queue = self._update_queue, []
        for op in queue:
            self._apply_write(op)

    def end_step(self) -> None:
        """Called between time steps: wake delayed processes whose time
        has come and refresh $monitor output."""
        now = self.services.now()
        while self._sleeping and self._sleeping[0][0] <= now:
            _, _, proc = heapq.heappop(self._sleeping)
            self._runnable.append(proc)
        for i, (args, last) in enumerate(self._monitors):
            text = self._render_args(args)
            if text != last:
                self._monitors[i] = (args, text)
                self.services.display(text)

    def next_wake_time(self) -> Optional[int]:
        """Earliest pending delayed wake-up, for the standalone
        simulator's time advance."""
        if self._sleeping:
            return self._sleeping[0][0]
        return None

    @property
    def finished(self) -> Optional[int]:
        return self._finished

    # -- state migration -------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        """Snapshot of all stateful elements (regs + memories)."""
        state: Dict[str, object] = {}
        for var in self.design.vars.values():
            if var.kind != "reg":
                continue
            if var.is_array:
                state[var.name] = list(self.arrays[var.name])
            else:
                state[var.name] = self.values[var.name]
        return state

    def set_state(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            var = self.design.vars.get(name)
            if var is None:
                continue
            if var.is_array:
                words = list(value)
                storage = self.arrays[name]
                for i in range(min(len(storage), len(words))):
                    storage[i] = words[i]
            else:
                self._set_var(name, value)

    # -- data plane --------------------------------------------------------
    def drain_output_changes(self) -> Set[str]:
        out = self._changed_outputs
        self._changed_outputs = set()
        return out


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
