"""The software engine: an event-driven interpreter for one Design.

This is the paper's §5.1 — "software engines use a cycle-accurate
event-driven simulation strategy similar to iVerilog".  One
:class:`SoftwareEngine` executes one elaborated :class:`Design`
(a Cascade subprogram).  It exposes exactly the operations of the
Figure 7 target-specific ABI; :mod:`repro.core.abi` defines the abstract
interface it implements.

Implementation notes
--------------------
* Nothing is walked at run time.  Each continuous assign, process body
  and function is lowered once, the first time it runs, into closures
  over ``(aval, bval)`` int planes (:mod:`repro.verilog.eval` lowers the
  expressions).  A statement with no ``#``/``@``/``forever`` inside is
  one closure call.  A process keeps a Python generator only over the
  statements that contain such a wait, so it can suspend on ``#delay``
  and ``@(...)`` event controls and be resumed later — the mechanism
  behind unsynthesizable testbench code.
* A plain ``case`` whose labels are all constant is a dict lookup on
  the selector's planes: ``case`` compares all four states, so an x/z
  selector matches only an identical label, else the default.
* Storage stays :class:`Bits`: ``values``/``arrays`` hold one per
  variable or memory word, boxed afresh only when a write changes its
  planes.  The ABI, state transfer and ``$display`` see Bits as before.
* Continuous assigns are re-evaluated lazily from a dependency map
  (paper: "Cascade computes data dependencies at compile-time and uses a
  lazy evaluation strategy ... to reduce the overhead of recomputing
  outputs").
* Nonblocking assigns resolve their l-value positions eagerly and queue
  primitive writes, applied atomically by :meth:`update`.
* A runaway loop is caught by a budget of statement steps per
  :meth:`evaluate`: each loop iteration charges one step plus the
  statements of its body.
"""

from __future__ import annotations

import heapq
from collections import deque
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..common.bits import (Bits, box, case_eq, matches, set_part,
                           x_planes)
from ..common.errors import EvalError
from ..verilog import ast
from ..verilog.elaborate import Design
from ..verilog.eval import Lowering, Scope, closure, coerce
from ..verilog.sizing import size_expr
from ..verilog.visitor import find_all, read_set_of, walk
from .fmt import format_display

__all__ = ["SoftwareEngine", "EngineServices"]

_LOOP_CAP = 1_000_000    # statement steps per activation
_EVAL_CAP = 1_000_000    # events per evaluate() drain
_MASK64 = (1 << 64) - 1


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


def _edge_cat(planes: Tuple[int, int]) -> int:
    """0, 1 or 2(x/z) category of a value's LSB, for edge detection."""
    return 2 if planes[1] & 1 else planes[0] & 1


def _is_posedge(old: int, new: int) -> bool:
    # 0->1, 0->x, x->1
    return (old == 0 and new != 0) or (old == 2 and new == 1)


def _is_negedge(old: int, new: int) -> bool:
    return (old == 1 and new != 1) or (old == 2 and new == 0)


def _nop(fr) -> None:
    return None


def _fail(message: str):
    """A statement or expression that raises when it runs."""
    def fail(*_args):
        raise EvalError(message)
    return fail


def _steps(stmt: Optional[ast.Stmt]) -> int:
    """The budget one pass over a loop body charges: an iteration step
    plus the statements in the body."""
    return 1 + (len(find_all(stmt, ast.Stmt)) if stmt is not None else 0)


def _waits(stmt: ast.Stmt) -> bool:
    """Whether a statement can suspend its process (or never ends)."""
    return any(isinstance(n, (ast.DelayStmt, ast.EventStmt, ast.Forever))
               for n in walk(stmt))


class _Lazy(dict):
    """A table that builds each entry on its first lookup."""

    __slots__ = ("build",)

    def __init__(self, build: Callable):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


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

    def __init__(self, process: "_Process", items: List[list],
                 names: Tuple[str, ...]):
        self.process = process
        self.items = items   # [edge, closure, previous planes, names]
        self.names = names


class _EngineScope(Scope):
    """Binds names to an engine's storage.  ``slots`` maps the names of
    the function frame being lowered (ports, locals and result) to
    their frame positions; other names are module variables."""

    def __init__(self, engine: "SoftwareEngine",
                 slots: Optional[Dict[str, int]] = None):
        self.engine = engine
        self.slots = slots or {}

    def read(self, e: ast.Ident):
        slot = self.slots.get(e.name)
        if slot is not None:
            return itemgetter(slot)
        values, name = self.engine.values, e.name
        if name not in values:
            return _fail(f"undeclared identifier {name!r}")

        def read(fr):
            v = values[name]
            return v.aval, v.bval
        return read

    def read_word(self, e: ast.IndexExpr, low):
        words = self.engine.arrays[e.base.name]
        n, xs = len(words), x_planes(e.width)
        if type(low) is int:
            if not 0 <= low < n:
                return xs

            def fixed(fr):
                v = words[low]
                return v.aval, v.bval
            return fixed

        def word(fr):
            lo = low(fr)
            if lo is None or not 0 <= lo < n:
                return xs
            v = words[lo]
            return v.aval, v.bval
        return word

    def call(self, e: ast.Call, args):
        ports = self.engine.design.functions[e.name].ports
        # An argument is assigned to its input port.
        args = [coerce(a, arg.ctx_width, port.width, port.signed)
                for a, arg, port in zip(args, e.args, ports)]
        functions, name = self.engine._functions, e.name
        if len(args) == 1:
            (a0,) = args
            return lambda fr: functions[name]([a0(fr)])
        if len(args) == 2:
            a0, a1 = args
            return lambda fr: functions[name]([a0(fr), a1(fr)])
        return lambda fr: functions[name]([a(fr) for a in args])

    def sys_call(self, e: ast.Call, args):
        engine, name = self.engine, e.name
        if name in ("$time", "$stime"):
            now = engine.services.now
            return lambda fr: (now() & _MASK64, 0)
        if name == "$random":
            seed = args[0] if args else None

            def random(fr):
                if seed is not None:
                    a, b = seed(fr)
                    if not b:
                        engine._rand_state = a & 0xFFFFFFFF or 1
                # xorshift32: deterministic, decent spectral behaviour.
                s = engine._rand_state
                s ^= (s << 13) & 0xFFFFFFFF
                s ^= s >> 17
                s ^= (s << 5) & 0xFFFFFFFF
                engine._rand_state = s
                return s, 0
            return random
        return _fail(f"unknown system function {name!r}")


class _Program:
    """Lowers the statements of one scope — module code, or one function
    body — into closures ``f(frame)`` over an engine."""

    def __init__(self, engine: "SoftwareEngine",
                 slots: Optional[Dict[str, int]] = None):
        self.engine = engine
        self.scope = _EngineScope(engine, slots)
        self.lower = Lowering(self.scope)
        self.in_function = slots is not None

    # -- statements that never suspend -----------------------------------
    def stmt(self, s: Optional[ast.Stmt]) -> Callable:
        """A closure running ``s`` to completion."""
        if s is None:
            return _nop
        if self.in_function and not isinstance(s, _FUNCTION_STMTS):
            return _fail(f"{type(s).__name__} not allowed in function body")
        rule = _STMTS.get(type(s))
        if rule is None:
            raise EvalError(f"cannot execute {type(s).__name__}")
        return rule(self, s)

    def _block(self, s: ast.Block):
        steps = tuple(f for f in map(self.stmt, s.stmts) if f is not _nop)
        if not steps:
            return _nop
        if len(steps) == 1:
            return steps[0]

        def block(fr):
            for f in steps:
                f(fr)
        return block

    def _blocking(self, s: ast.BlockingAssign):
        return self.assign(s.lhs, s.rhs, None)

    def _nonblocking(self, s: ast.NonblockingAssign):
        return self.assign(s.lhs, s.rhs, self.engine._update_queue)

    def _if(self, s: ast.If):
        cond = self.lower.expr(s.cond)
        then, els = self.stmt(s.then), self.stmt(s.els)

        def if_(fr):
            a, b = cond(fr)
            if a & ~b:
                then(fr)
            else:
                els(fr)
        return if_

    def _case(self, s: ast.Case):
        pick = self.arms(s, self.stmt)
        return lambda fr: pick(fr)(fr)

    def _for(self, s: ast.For):
        init, step = self.stmt(s.init), self.stmt(s.step)
        loop = self._while(ast.While(s.cond, s.body), step)

        def for_(fr):
            init(fr)
            loop(fr)
        return for_

    def _while(self, s: ast.While, step: Callable = _nop):
        cond, body = self.lower.expr(s.cond), self.stmt(s.body)
        budget, cost = self.engine._budget, _steps(s.body)

        def while_(fr):
            while True:
                a, b = cond(fr)
                if not a & ~b:
                    return
                budget(cost)
                body(fr)
                step(fr)
        return while_

    def _repeat(self, s: ast.RepeatStmt):
        count, body = self.lower.expr(s.count), self.stmt(s.body)
        budget, cost = self.engine._budget, _steps(s.body)

        def repeat(fr):
            a, b = count(fr)
            for _ in range(0 if b else a):
                budget(cost)
                body(fr)
        return repeat

    def _systask(self, s: ast.SysTask):
        engine, name = self.engine, s.name
        if name in ("$display", "$write"):
            render, newline = self.render(s.args), name == "$display"
            return lambda fr: engine.services.display(render(fr),
                                                      newline=newline)
        if name == "$monitor":
            render = self.render(s.args)
            return lambda fr: engine._monitors.append([render, None])
        if name in ("$finish", "$stop"):
            code = self.lower.expr(s.args[0]) if s.args else None

            def finish(fr):
                c = 0
                if code is not None:
                    a, b = code(fr)
                    c = 0 if b else a
                engine._finished = c
                engine.services.finish(c)
            return finish
        if name in ("$readmemh", "$readmemb"):
            base = 16 if name == "$readmemh" else 2
            return lambda fr: engine._do_readmem(s, base)
        return _fail(f"unknown system task {name!r}")

    def render(self, args: List[ast.Expr]) -> Callable[[list], str]:
        """A closure formatting ``$display``-style arguments."""
        parts: List[object] = []
        for a in args:
            if isinstance(a, ast.StringLit):
                parts.append(a.value)
            else:
                parts.append((self.lower.expr(a), a.ctx_width, a.ctx_signed))
        engine = self.engine

        def render(fr):
            return format_display(
                [p if type(p) is str else box(p[1], *p[0](fr), p[2])
                 for p in parts],
                engine.design.name, engine.services.now())
        return render

    def arms(self, s: ast.Case, lower: Callable) -> Callable:
        """A closure returning the lowered body (by ``lower``) of the
        arm ``s`` takes, or of its default."""
        sel = self.lower.expr(s.expr)
        default = None
        arms = []
        for item in s.items:
            if item.exprs is None:
                default = item.body
            else:
                arms.append(([self.lower.node(e) for e in item.exprs],
                             lower(item.body)))
        default = lower(default)
        if s.kind == "case" and all(type(label) is tuple
                                    for labels, _ in arms
                                    for label in labels):
            table: Dict[Tuple[int, int], Callable] = {}
            for labels, body in arms:
                for label in labels:
                    table.setdefault(label, body)
            get = table.get
            return lambda fr: get(sel(fr), default)
        arms = [([closure(label) for label in labels], body)
                for labels, body in arms]
        plain, wild_x = s.kind == "case", s.kind == "casex"
        m = (1 << s.expr.ctx_width) - 1

        def pick(fr):
            a, b = sel(fr)
            for labels, body in arms:
                for label in labels:
                    la, lb = label(fr)
                    if case_eq(a, b, la, lb)[0] if plain else \
                            matches(a, b, la, lb, m, wild_x):
                        return body
            return default
        return pick

    # -- assignments ---------------------------------------------------------
    def assign(self, lhs: ast.Expr, rhs: ast.Expr,
               queue: Optional[list]) -> Callable:
        """A blocking assignment, or a nonblocking one queueing its
        writes on ``queue``."""
        node, rw = self.lower.node(rhs), rhs.ctx_width
        if isinstance(lhs, ast.Concat):
            return self._assign_concat(lhs, closure(coerce(
                node, rw, lhs.width, rhs.ctx_signed)), queue)
        low, write = self.target(lhs, rhs.ctx_signed)
        value = closure(coerce(node, rw, lhs.width, lhs.signed))
        if low is None:
            if queue is None:
                return lambda fr: write(fr, 0, *value(fr))
            push = queue.append
            return lambda fr: push((write, 0, *value(fr)))
        # The value is evaluated before the position, as written.
        if queue is None:
            def put(fr):
                a, b = value(fr)
                lo = low(fr)
                if lo is not None:
                    write(fr, lo, a, b)
            return put
        push = queue.append

        def post(fr):
            a, b = value(fr)
            lo = low(fr)
            if lo is not None:
                push((write, lo, a, b))
        return post

    def _assign_concat(self, lhs: ast.Concat, value, queue):
        parts = []
        pos = lhs.width
        for p in lhs.parts:
            pos -= p.width
            low, write = self.target(p, False)
            parts.append((low, write, pos, (1 << p.width) - 1))

        def resolve(fr) -> List[tuple]:
            a, b = value(fr)
            ops = []
            for low, write, shift, m in parts:
                lo = 0 if low is None else low(fr)
                if lo is not None:
                    ops.append((write, lo, a >> shift & m, b >> shift & m))
            return ops
        if queue is not None:
            return lambda fr: queue.extend(resolve(fr))

        def put(fr):
            for write, lo, a, b in resolve(fr):
                write(fr, lo, a, b)
        return put

    def target(self, lhs: ast.Expr, signed: bool):
        """``(low, write)`` for one l-value.  ``write(frame, low, a, b)``
        stores planes already fitted to the target; ``low`` is None for
        a whole variable, else a closure returning the select's physical
        position, or None when the write is lost: an x/z index, or no
        bit or word in range.  A memory word keeps the value's sign
        ``signed``."""
        engine = self.engine
        if isinstance(lhs, ast.Ident):
            slot = self.scope.slots.get(lhs.name)
            if slot is None:
                return None, engine._var_writers[lhs.name]

            def frame_put(fr, low, a, b):
                fr[slot] = (a, b)
            return None, frame_put
        if not isinstance(lhs, (ast.IndexExpr, ast.RangeExpr)):
            raise EvalError(f"invalid l-value {type(lhs).__name__}")
        if not isinstance(lhs.base, ast.Ident):
            raise EvalError("unsupported nested l-value")
        sel, width, name = lhs.select, lhs.width, lhs.base.name
        low = self.lower.low(sel, lhs.index if isinstance(
            lhs, ast.IndexExpr) else lhs.left)
        first, span = (0 if sel.word else 1 - width), sel.span
        if type(low) is int:
            low = (lambda fr, c=low if first <= low < span else None: c)
        else:
            position = low

            def low(fr):
                lo = position(fr)
                return lo if lo is not None and first <= lo < span \
                    else None
        if sel.word:
            return low, engine._word_writer(name, signed)
        slot = self.scope.slots.get(name)
        w = lhs.base.width
        if slot is None:
            return low, engine._part_writer(name, width)

        def frame_part(fr, lo, a, b):
            fr[slot] = set_part(*fr[slot], w, lo, width, a, b)
        return low, frame_part

    # -- statements that may suspend -------------------------------------
    def gen(self, s: Optional[ast.Stmt]) -> Callable:
        """A generator function running ``s``; it yields ``("delay",
        n)`` and ``("wait", ...)`` requests to the scheduler."""
        if s is None or not _waits(s):
            f = self.stmt(s)

            def plain(fr):
                f(fr)
                yield from ()
            return plain
        return _GENS[type(s)](self, s)

    def _gen_block(self, s: ast.Block):
        steps = []
        for sub in s.stmts:
            if _waits(sub):
                steps.append((True, self.gen(sub)))
            else:
                f = self.stmt(sub)
                if f is not _nop:
                    steps.append((False, f))

        def block(fr):
            for waits, f in steps:
                if waits:
                    yield from f(fr)
                else:
                    f(fr)
        return block

    def _gen_if(self, s: ast.If):
        cond = self.lower.expr(s.cond)
        then, els = self.gen(s.then), self.gen(s.els)

        def if_(fr):
            a, b = cond(fr)
            yield from (then if a & ~b else els)(fr)
        return if_

    def _gen_case(self, s: ast.Case):
        pick = self.arms(s, self.gen)

        def case(fr):
            yield from pick(fr)(fr)
        return case

    def _gen_for(self, s: ast.For):
        init, step = self.stmt(s.init), self.stmt(s.step)
        loop = self._gen_while(ast.While(s.cond, s.body), step)

        def for_(fr):
            init(fr)
            yield from loop(fr)
        return for_

    def _gen_while(self, s: ast.While, step: Callable = _nop):
        cond, body = self.lower.expr(s.cond), self.gen(s.body)
        budget, cost = self.engine._budget, _steps(s.body)

        def while_(fr):
            while True:
                a, b = cond(fr)
                if not a & ~b:
                    return
                budget(cost)
                yield from body(fr)
                step(fr)
        return while_

    def _gen_repeat(self, s: ast.RepeatStmt):
        count, body = self.lower.expr(s.count), self.gen(s.body)
        budget, cost = self.engine._budget, _steps(s.body)

        def repeat(fr):
            a, b = count(fr)
            for _ in range(0 if b else a):
                budget(cost)
                yield from body(fr)
        return repeat

    def _gen_forever(self, s: ast.Forever):
        body, budget = self.gen(s.body), self.engine._budget
        cost = _steps(s.body)

        def forever(fr):
            while True:
                budget(cost)
                yield from body(fr)
        return forever

    def _gen_delay(self, s: ast.DelayStmt):
        amount, then = self.lower.expr(s.amount), self.gen(s.stmt)

        def delay(fr):
            a, b = amount(fr)
            yield ("delay", 1 if b else a)
            yield from then(fr)
        return delay

    def _gen_event(self, s: ast.EventStmt):
        request = ("wait", self.engine._wait_meta(s.ctrl))
        then = self.gen(s.stmt)

        def event(fr):
            yield request
            yield from then(fr)
        return event


_STMTS = {
    ast.Block: _Program._block,
    ast.BlockingAssign: _Program._blocking,
    ast.NonblockingAssign: _Program._nonblocking,
    ast.If: _Program._if,
    ast.Case: _Program._case,
    ast.For: _Program._for,
    ast.While: _Program._while,
    ast.RepeatStmt: _Program._repeat,
    ast.SysTask: _Program._systask,
    ast.NullStmt: lambda self, s: _nop,
}
_FUNCTION_STMTS = (ast.Block, ast.BlockingAssign, ast.If, ast.Case,
                   ast.For, ast.While, ast.RepeatStmt, ast.SysTask,
                   ast.NullStmt)
_GENS = {
    ast.Block: _Program._gen_block,
    ast.If: _Program._gen_if,
    ast.Case: _Program._gen_case,
    ast.For: _Program._gen_for,
    ast.While: _Program._gen_while,
    ast.RepeatStmt: _Program._gen_repeat,
    ast.Forever: _Program._gen_forever,
    ast.DelayStmt: _Program._gen_delay,
    ast.EventStmt: _Program._gen_event,
}


class SoftwareEngine:
    """Event-driven interpreter engine for one elaborated Design."""

    def __init__(self, design: Design,
                 services: Optional[EngineServices] = None):
        self.design = design
        self.services = services or EngineServices()
        self.values: Dict[str, Bits] = {}
        self.arrays: Dict[str, List[Bits]] = {}
        self._rand_state = 1  # $random's fixed seed

        # Event machinery.
        self._dirty_assigns: deque = deque()
        self._dirty_set: Set[int] = set()
        self._runnable: deque = deque()
        self._update_queue: List[Tuple] = []
        self._sleeping: List[Tuple[int, int, _Process]] = []  # heap
        self._sleep_seq = 0
        self._waits_by_name: Dict[str, List[_WaitEntry]] = {}
        self._monitors: List[list] = []     # [render, last text]
        self._changed_outputs: Set[str] = set()
        self._finished: Optional[int] = None
        self._stmt_budget = _LOOP_CAP

        # Lowered code, built on first use.
        self._module = _Program(self)
        self._assigns = _Lazy(self._lower_assign)
        self._functions = _Lazy(self._lower_function)
        self._notifiers = _Lazy(self._make_notifier)
        self._var_writers = _Lazy(self._make_var_writer)

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
            for name in self.design.assign_reads(assign):
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
        yield from self._module.gen(block.body)(None)

    def _run_always(self, block: ast.AlwaysBlock):
        ctrl = block.ctrl
        if ctrl is not None and ctrl.star:
            names = sorted(read_set_of(block.body))
            items = [ast.EventItem(None, ast.Ident(n.split(".")))
                     for n in names]
            for item in items:
                size_expr(item.expr, self.design)
            ctrl = ast.EventControl(False, items, block.ctrl.loc)
        if ctrl is None:
            # Nothing to wait on: each pass is charged to the budget.
            body, budget = self._module.gen(block.body), self._budget
            cost = _steps(block.body)
            while True:
                budget(cost)
                yield from body(None)
        request = ("wait", self._wait_meta(ctrl))
        if _waits(block.body):
            body = self._module.gen(block.body)
            while True:
                yield request
                yield from body(None)
        body = self._module.stmt(block.body)
        while True:
            yield request
            body(None)

    def _lower_assign(self, idx: int) -> Callable:
        assign = self.design.assigns[idx]
        return self._module.assign(assign.lhs, assign.rhs, None)

    def _lower_function(self, name: str) -> Callable[[list], tuple]:
        """A function as one callable over its argument planes (already
        fitted to the ports).  The frame holds ports, then locals, then
        the result; locals and result start at x on every call."""
        fn = self.design.functions[name]
        slots = {v.name: i for i, v in enumerate(fn.ports + fn.locals_)}
        ret = len(fn.ports) + len(fn.locals_)
        slots[fn.ret.name] = slots[fn.name] = ret
        tail = [x_planes(v.width) for v in fn.locals_ + [fn.ret]]
        body = _Program(self, slots).stmt(fn.body)

        def call(frame: list) -> tuple:
            frame += tail
            body(frame)
            return frame[ret]
        return call

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
        self._notifiers[name]()

    def _make_var_writer(self, name: str) -> Callable:
        """Whole-variable writes of ``name``."""
        values, notify = self.values, self._notifiers[name]
        var = self.design.vars[name]
        width, signed = var.width, var.signed

        def write(fr, low, a, b):
            old = values[name]
            if old.aval != a or old.bval != b:
                values[name] = box(width, a, b, signed)
                notify()
        return write

    def _part_writer(self, name: str, width: int) -> Callable:
        """Writes of ``width`` bits at a physical position of ``name``;
        the variable keeps its sign."""
        values, notify = self.values, self._notifiers[name]
        w = self.design.vars[name].width

        def write(fr, low, a, b):
            old = values[name]
            na, nb = set_part(old.aval, old.bval, w, low, width, a, b)
            if na != old.aval or nb != old.bval:
                values[name] = box(w, na, nb, old.signed)
                notify()
        return write

    def _word_writer(self, name: str, signed: bool) -> Callable:
        words, notify = self.arrays[name], self._notifiers[name]
        w = self.design.vars[name].width

        def write(fr, low, a, b):
            old = words[low]
            if old.aval != a or old.bval != b:
                words[low] = box(w, a, b, signed)
                notify()
        return write

    def _make_notifier(self, name: str) -> Callable[[], None]:
        """Propagates a change of ``name``: marks the assigns reading it
        and checks the processes waiting on it."""
        var = self.design.vars.get(name)
        is_output = var is not None and var.direction == "output"
        deps = tuple(self._assign_deps.get(name, ()))
        dirty, dirty_set = self._dirty_assigns, self._dirty_set
        waits, check = self._waits_by_name, self._check_waits

        def notify() -> None:
            if is_output:
                self._changed_outputs.add(name)
            for idx in deps:
                if idx not in dirty_set:
                    dirty_set.add(idx)
                    dirty.append(idx)
            entries = waits.get(name)
            if entries:
                check(name, list(entries))
        return notify

    def _mark_assign(self, idx: int) -> None:
        if idx not in self._dirty_set:
            self._dirty_set.add(idx)
            self._dirty_assigns.append(idx)

    def _wait_meta(self, ctrl: ast.EventControl) -> Tuple:
        """An event control lowered: per item its edge, value closure
        (None for a bare memory, tracked by change notification alone)
        and names read; plus every name read."""
        lower = self._module.lower
        items = []
        names: Set[str] = set()
        for item in ctrl.items:
            item_names = frozenset(read_set_of(item.expr))
            is_mem = isinstance(item.expr, ast.Ident) and \
                item.expr.name in self.arrays
            items.append((item.edge,
                          None if is_mem else lower.expr(item.expr),
                          item_names))
            names |= item_names
        return items, tuple(names)

    def _check_waits(self, changed: str, entries: List[_WaitEntry]) -> None:
        for entry in entries:
            satisfied = False
            for item in entry.items:
                edge, fn, prev, names = item
                if changed not in names:
                    continue
                if fn is None:
                    # Memory sensitivity (eg @(*) over a reg array):
                    # element writes are change-filtered before
                    # notification, so any notification is a change.
                    if edge is None:
                        satisfied = True
                    continue
                new = item[2] = fn(None)
                if edge is None:
                    if new != prev:
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

    def _register_wait(self, process: _Process, meta: Tuple) -> None:
        item_meta, names = meta
        items = [[edge, fn, None if fn is None else fn(None), item_names]
                 for edge, fn, item_names in item_meta]
        entry = _WaitEntry(process, items, names)
        waits = self._waits_by_name
        for name in names:
            waits.setdefault(name, []).append(entry)

    def _budget(self, cost: int) -> None:
        self._stmt_budget -= cost
        if self._stmt_budget <= 0:
            raise EvalError(
                "statement budget exhausted (runaway loop in procedural "
                "code?)")

    # ------------------------------------------------------------------
    # System tasks
    # ------------------------------------------------------------------
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
        self._notifiers[target.name]()

    # ------------------------------------------------------------------
    # ABI surface (Figure 7)
    # ------------------------------------------------------------------
    def there_are_evals(self) -> bool:
        return bool(self._dirty_assigns or self._runnable)

    def evaluate(self) -> None:
        """Drain all active evaluation events."""
        steps = 0
        self._stmt_budget = _LOOP_CAP
        dirty, dirty_set = self._dirty_assigns, self._dirty_set
        runnable, assigns = self._runnable, self._assigns
        while dirty or runnable:
            steps += 1
            if steps > _EVAL_CAP:
                raise EvalError("evaluation did not converge "
                                "(combinational loop?)")
            if dirty:
                idx = dirty.popleft()
                dirty_set.discard(idx)
                assigns[idx](None)
                continue
            self._resume(runnable.popleft())

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
        queue = self._update_queue
        ops = queue[:]
        queue.clear()
        for write, low, a, b in ops:
            write(None, low, a, b)

    def end_step(self) -> None:
        """Called between time steps: wake delayed processes whose time
        has come and refresh $monitor output."""
        now = self.services.now()
        while self._sleeping and self._sleeping[0][0] <= now:
            _, _, proc = heapq.heappop(self._sleeping)
            self._runnable.append(proc)
        for monitor in self._monitors:
            text = monitor[0](None)
            if text != monitor[1]:
                monitor[1] = text
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
