"""The code generator's printer (DESIGN.md §4.4).

One printer, over a design's :class:`~repro.backend.pycompile.Schedule`
and through the expression and statement printers of
:mod:`repro.backend.pycompile`, prints every entry point the compiled
design has, each from the same comb pass, sequential pass and update:

* the model class (:meth:`KernelPrinter.model`), whose ``evaluate``,
  ``update`` and ``_eval_comb`` answer the Figure 7 ABI one call at a
  time;
* the open-loop kernel (:meth:`KernelPrinter.kernel`, Figure 10's
  ``_oloop``), which toggles the clock and settles the model half tick
  by half tick;
* the software fast path's closed-loop batch (:meth:`KernelPrinter.batch`),
  which runs Figure 6 iterations of the wake-gated model and charges
  virtual time as the runtime's stepped loop would.

Each loads the model state it touches into locals named like the
attributes, runs on them, and stores what it wrote back on exit, so
between calls the whole state is in attributes.  A function that reads
or writes design variables takes them as arguments and hands back what
it wrote (see :meth:`KernelPrinter.function`).
"""

from __future__ import annotations

import re
from typing import List, Optional, Set, Tuple

from ..verilog import ast
from ..verilog.elaborate import Function
from ..verilog.visitor import read_set_of
from .pycompile import _SIMPLE, Schedule, _Emitter, _ExprCompiler, \
    _StmtCompiler, _attr, _fold, _lit, _mask

__all__ = ["KernelPrinter", "Hook"]

#: An absorbed clocked engine as an open-loop kernel sees it (see
#: :meth:`KernelPrinter.kernel`): ``(pokes, inputs, outputs, reads)``.
Hook = Tuple[Tuple[Tuple[str, str], ...], Tuple[str, ...],
             Tuple[str, ...], Tuple[Tuple[str, str], ...]]

#: Blanks out everything but identifier characters.
_WORDS = str.maketrans({chr(i): " " for i in range(128)
                        if not (chr(i).isalnum() or chr(i) == "_")})
#: How a generated statement stores to a name: assigned, or updated in
#: place; a call storing into its caller's locals binds them by ``:=``.
_STORES = ("=", "+=", "^=", "|=")
_BINDS = re.compile(r"\(([A-Za-z_]\w*) :=")


class KernelPrinter:
    """Prints a design's model class, open-loop kernel or closed-loop
    batch, numbering the fresh names of that one print.

    ``flags`` holds the nonblocking targets whose writes raise a
    per-write change flag ``wk_*`` in the print at hand: a scalar the
    schedule finds written at several sites and an array kept in a
    pending copy, so that an update sees every write that changed a
    value and not only the last."""

    def __init__(self, schedule: Schedule):
        self.s = schedule
        self._fresh = 0
        self.flags: Set[str] = set()
        #: The functions a printed call site calls as a method.
        self.called: Set[str] = set()
        self._comb: Optional[_Emitter] = None

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"{prefix}{self._fresh}"

    def _module(self, e: _Emitter) -> str:
        """Generated code with the imports and lookup tables it uses."""
        return "\n".join(["from repro.backend import pyrt", ""]
                         + self.s.tables + [""]) + e.source()

    # ------------------------------------------------------------------
    # State in locals
    # ------------------------------------------------------------------
    def _state(self) -> List[str]:
        """Every model attribute an entry point may hold in a local."""
        s, vars_ = self.s, self.s.design.vars
        state = [_attr(name) for name in vars_]
        state += [f"n_{_attr(name)}" for name in sorted(s.nba_targets)]
        state += [f"m_{_attr(name)}" for name in s.both_ways]
        state += [f"p_{_attr(sig)}" for sig in s.edge_signals]
        state += [f"g_{_attr(name)}" for name, var in vars_.items()
                  if var.is_array]
        state += [key for _, key in s.cones if key]
        state += [f"_comb_snap{i}" for i in range(len(s.comb_blocks))]
        state += [f"nw_{_attr(name)}" for name in sorted(s.nba_array_targets)]
        state += [f"wk_{_attr(name)}" for name in sorted(s.model_flags)]
        return state + ["_nba", "_dirty", "_time"]

    def _on_locals(self, e: _Emitter, indent: int, body: _Emitter) -> None:
        """``body``, after loading into locals the state it names and
        before storing back the state it writes."""
        text = "\n".join(body.lines)
        used = set(text.translate(_WORDS).split())
        stored = set(_BINDS.findall(text)) if ":=" in text else set()
        for line in body.lines:
            words = line.split(None, 2)
            if len(words) > 1 and words[1] in _STORES:
                stored.add(words[0])
        state = self._state()
        for name in state:
            if name in used:
                e.emit(indent, f"{name} = self.{name}")
        e.lines.extend(body.lines)
        for name in state:
            if name in stored:
                e.emit(indent, f"self.{name} = {name}")

    # ------------------------------------------------------------------
    # The model class
    # ------------------------------------------------------------------
    def model(self, class_name: str) -> str:
        """Source of the model class ``class_name``."""
        s = self.s
        self.flags = set(s.model_flags)
        e = _Emitter()
        e.emit(0, f"class {class_name}:")
        # When _gate_wakes is True (the software fast path), update()
        # raises the dirty flag only for changes the interpreter would
        # also have activated on, so ABI-level call counts — and hence
        # virtual-time charges — match the interpreter bit for bit.
        e.emit(1, "_gate_wakes = False")
        e.emit(1, f"_comb_wake = frozenset({tuple(sorted(s.comb_wake))!r})")
        e.emit(1, "_edge_wake = {" + ", ".join(
            f"{name!r}: frozenset({tuple(sorted(edges))!r})"
            for name, edges in sorted(s.edge_wake.items())) + "}")
        e.emit(1, f"_edge_signals = {tuple(sorted(s.edge_signals))!r}")
        for i in range(len(s.comb_blocks)):
            # Comb-block snapshots start unset so every block runs once.
            e.emit(1, f"_comb_snap{i} = None")
        self._emit_init(e)

        def method(name: str, fill) -> None:
            e.emit(1, f"def {name}(self):")
            body = _Emitter()
            fill(body, 2)
            self._on_locals(e, 2, body)
            e.blank()
        method("_eval_comb", self._emit_comb)
        method("evaluate", self._emit_evaluate)
        method("update", self._emit_model_update)
        self._emit_functions(e)
        e.emit(1, "def _task_display(self, parts, newline):")
        e.emit(2, "self._tasks.append(('display', parts, newline))")
        e.blank()
        e.emit(1, "def _task_finish(self, code):")
        e.emit(2, "self._tasks.append(('finish', code, True))")
        e.emit(2, "self._finished = code")
        e.blank()
        return self._module(e)

    def _emit_model_update(self, e: _Emitter, indent: int) -> None:
        """The model's ``update``: wake-gated when ``_gate_wakes`` is set
        (the software fast path), else raising ``_dirty`` on any change."""
        e.emit(indent, "_nba = False")
        e.emit(indent, "changed = False")
        e.emit(indent, "wake = False")
        self._emit_update(e, indent, gated=True, changes=True)
        e.emit(indent, "if (wake if self._gate_wakes else changed):")
        e.emit(indent + 1, "_dirty = True")

    def _emit_init(self, e: _Emitter) -> None:
        s = self.s
        e.emit(1, "def __init__(self):")
        for var in s.design.vars.values():
            attr = _attr(var.name)
            # A signed initializer reads negative; the model holds the
            # unsigned value of the variable's width.
            init = var.init.to_int_xz(0) & _mask(var.width) \
                if var.init is not None else 0
            if var.is_array:
                e.emit(2, f"self.{attr} = [{init}] * {var.array[0]}")
                e.emit(2, f"self.g_{attr} = 0")
            else:
                e.emit(2, f"self.{attr} = {init}")
        for name in sorted(s.nba_targets):
            attr = _attr(name)
            e.emit(2, f"self.n_{attr} = self.{attr}")
        for name in s.both_ways:
            e.emit(2, f"self.m_{_attr(name)} = 0")
        for name in sorted(s.nba_array_targets):
            e.emit(2, f"self.nw_{_attr(name)} = None")
        for name in sorted(s.model_flags):
            e.emit(2, f"self.wk_{_attr(name)} = False")
        for _, key in s.cones:
            if key:
                e.emit(2, f"self.{key} = None")
        # Previous samples for edge detection.
        for sig in s.edge_signals:
            e.emit(2, f"self.p_{_attr(sig)} = self.{_attr(sig)}")
        e.emit(2, "self._tasks = []")
        e.emit(2, "self._nba = False")
        e.emit(2, "self._dirty = True")
        e.emit(2, "self._finished = None")
        e.emit(2, "self._time = 0")
        e.blank()

    def _emit_functions(self, e: _Emitter) -> None:
        """The methods of the functions a printed call site calls, in
        declaration order; printing one may call further ones."""
        printed = {}
        while self.called - printed.keys():
            for fn in self.s.design.functions.values():
                if fn.name in self.called and fn.name not in printed:
                    printed[fn.name] = out = _Emitter()
                    self.function(out, fn)
        for fn in self.s.design.functions.values():
            if fn.name in printed:
                e.lines.extend(printed[fn.name].lines)

    def function(self, e: _Emitter, fn: Function) -> None:
        """A function's method.  The design variables it reads or writes
        are arguments named like the callers' locals; one that writes
        any returns ``(result, dirty, *written)``, each written array as
        its generation counter (its words change in place)."""
        info = self.s.fn_info[fn.name]
        short = fn.name.split(".")[-1]
        frame = {}
        args = []
        for port in fn.ports:
            py = "a_" + re.sub(r"\W", "_", port.name)
            frame[port.name] = py
            args.append(py)
        for var in fn.locals_:
            frame[var.name] = "l_" + re.sub(r"\W", "_", var.name)
        ret_py = "r_" + re.sub(r"\W", "_", short)
        frame[short] = ret_py
        frame[fn.name] = ret_py
        e.emit(1, f"def {self.s.fn_names[fn.name]}("
               + ", ".join(["self"] + args + info.params) + "):")
        for var in fn.locals_:
            e.emit(2, f"{frame[var.name]} = 0")
        e.emit(2, f"{ret_py} = 0")
        if info.returns:
            e.emit(2, "_dirty = False")
        stmts = _StmtCompiler(self, e, _ExprCompiler(self, frame),
                              nba_allowed=False)
        stmts.compile(fn.body, 2)
        e.emit(2, "return " + ", ".join([ret_py] + (
            ["_dirty"] + info.returns if info.returns else [])))
        e.blank()

    # ------------------------------------------------------------------
    # The shared passes
    # ------------------------------------------------------------------
    def _emit_evaluate(self, e: _Emitter, indent: int) -> None:
        """The model's ``evaluate``: comb and sequential rounds until no
        edge fires."""
        e.emit(indent, "for _round in range(64):")
        self._emit_comb(e, indent + 1)
        self._emit_seq(e, indent + 1)
        e.emit(indent + 1, "if not fired:")
        e.emit(indent + 2, "break")
        e.emit(indent, "else:")
        e.emit(indent + 1, "raise RuntimeError('evaluation did not converge')")

    def _emit_comb(self, e: _Emitter, indent: int) -> None:
        """One settle of the combinational network, the levelized pass
        or the fixpoint.  Printed once per print: the model's
        ``_eval_comb`` and ``evaluate`` share it."""
        if self._comb is None:
            self._comb = comb = _Emitter()
            if self.s.levelized:
                self._emit_levelized(comb, 0)
            else:
                self._emit_fixpoint(comb, 0)
        pad = "    " * indent
        e.lines.extend(pad + line for line in self._comb.lines)

    def _emit_fixpoint(self, e: _Emitter, indent: int) -> None:
        """Passes until nothing changes, with each comb block re-run
        when a snapshot of what it reads changes."""
        vars_ = self.s.design.vars
        exprs = _ExprCompiler(self)
        inner = indent + 1
        e.emit(indent, "for _pass in range(128):")
        e.emit(inner, "_dirty = False")
        for assign in self.s.assigns:
            code, ctx, _ = exprs.rvalue(assign.rhs)
            stmts = _StmtCompiler(self, e, exprs)
            tmp = stmts.tmp()
            e.emit(inner, f"{tmp} = {code}")
            lhs = assign.lhs
            if isinstance(lhs, ast.Ident) and lhs.name in vars_:
                # Change detection on full-variable targets (the common
                # case) for fast convergence.
                width = vars_[lhs.name].width
                target = _attr(lhs.name)
                value = f"(({tmp}) & {_mask(width)})" if ctx > width \
                    else tmp
                e.emit(inner, f"if {target} != ({value}):")
                e.emit(inner + 1, f"{target} = {value}")
                e.emit(inner + 1, "_dirty = True")
            else:
                stmts._store(lhs, tmp, ctx, inner, blocking=True)
        for i, block in enumerate(self.s.comb_blocks):
            snap = [f"g_{_attr(name)}" if vars_[name].is_array
                    else _attr(name)
                    for name in sorted(read_set_of(block.body))
                    if name in vars_]
            e.emit(inner, f"_snap{i} = ({', '.join(snap)},)"
                   if snap else f"_snap{i} = ()")
            e.emit(inner, f"if _snap{i} != _comb_snap{i}:")
            e.emit(inner + 1, f"_comb_snap{i} = _snap{i}")
            _StmtCompiler(self, e, exprs).compile(block.body, inner + 1)
            e.emit(inner + 1, "_dirty = True")
        e.emit(inner, "if not _dirty:")
        e.emit(inner + 1, "break")
        e.emit(indent, "else:")
        e.emit(inner,
               "raise RuntimeError('combinational loop did not settle')")

    def _emit_levelized(self, e: _Emitter, indent: int) -> None:
        """The whole network in one pass, in dependency order.  A gated
        cone is skipped while a snapshot of everything it reads and
        writes is unchanged, since recomputing it would change nothing."""
        s, vars_ = self.s, self.s.design.vars
        assigns, reads, writes = s.assigns, s.reads, s.writes
        written = set().union(*writes)
        exprs = _ExprCompiler(self)
        for cone, key in s.cones:
            inner = indent
            if key:
                snap = [f"g_{_attr(n)}" if vars_[n].is_array else _attr(n)
                        for n in sorted(set().union(*(reads[i] for i in cone))
                                        - written) if n in vars_]
                snap += [_attr(n) for n in
                         sorted(set().union(*(writes[i] for i in cone)))]
                snap_code = "(" + ", ".join(snap) + ",)"
                e.emit(indent, f"if {snap_code} != {key}:")
                inner = indent + 1
            for i in cone:
                a = assigns[i]
                code, ctx, _ = exprs.rvalue(a.rhs)
                lhs = a.lhs
                if isinstance(lhs, ast.Ident) and lhs.name in vars_:
                    width = vars_[lhs.name].width
                    if ctx > width:
                        code = _fold(f"(({code}) & {_mask(width)})")
                    e.emit(inner, f"{_attr(lhs.name)} = {code}")
                else:
                    stmts = _StmtCompiler(self, e, exprs)
                    tmp = stmts.tmp()
                    e.emit(inner, f"{tmp} = {code}")
                    stmts._store(lhs, tmp, ctx, inner, blocking=True)
            if key:
                e.emit(inner, f"{key} = {snap_code}")
        e.emit(indent, "_dirty = False")

    def _emit_seq(self, e: _Emitter, indent: int) -> None:
        """Run each sequential block whose edge fired, in order (a block
        sees earlier blocks' blocking writes), into ``fired``; then
        sample every edge signal.  Every block tests the edge signals as
        the pass began: an edge a block makes fires in the next round."""
        e.emit(indent, "fired = False")
        cur = {sig: _attr(sig) for sig in self.s.edge_signals}
        if self.s.writes_edges:
            for sig in self.s.edge_signals:
                e.emit(indent, f"e_{_attr(sig)} = {cur[sig]}")
                cur[sig] = f"e_{_attr(sig)}"
        exprs = _ExprCompiler(self)
        # Blocks in a row with the same test run under one: no block
        # changes what the tests read.
        last = None
        for block in self.s.seq_blocks:
            tests = []
            for item in block.ctrl.items:
                now = cur[item.expr.name]
                prev = f"p_{_attr(item.expr.name)}"
                tests.append(f"not {prev} & 1 and {now} & 1"
                             if item.edge == "posedge"
                             else f"{prev} & 1 and not {now} & 1")
            test = " or ".join(tests)
            if test != last:
                e.emit(indent, f"if {test}:")
                e.emit(indent + 1, "fired = True")
            last = test
            _StmtCompiler(self, e, exprs).compile(block.body, indent + 1)
        for sig in self.s.edge_signals:
            e.emit(indent, f"p_{_attr(sig)} = {cur[sig]}")

    # ------------------------------------------------------------------
    # Nonblocking writes and the update
    # ------------------------------------------------------------------
    def emit_pending_word(self, e: _Emitter, indent: int, name: str,
                          off: str, value: str) -> None:
        """A nonblocking write of word ``off`` of array ``name``: into a
        copy of the array taken at the step's first such write, or, when
        code also writes the array blocking, appended to a list of words
        that the update applies in order (so a later blocking write is
        not lost).  A flagged copy raises its ``wk_`` flag on a write
        that changes a word."""
        pending, arr = f"nw_{_attr(name)}", _attr(name)
        e.emit(indent, f"if {pending} is None:")
        if name in self.s.word_pending:
            e.emit(indent + 1, f"{pending} = []")
            e.emit(indent, f"{pending}.append(({off}, {value}))")
            return
        e.emit(indent + 1, f"{pending} = {arr}[:]")
        if name not in self.flags:
            e.emit(indent, f"{pending}[{off}] = {value}")
            return
        if not (_lit(value) is not None or _SIMPLE.fullmatch(value)):
            tmp = self.fresh("_w")
            e.emit(indent, f"{tmp} = {value}")
            value = tmp
        e.emit(indent, f"if {pending}[{off}] != {value}:")
        e.emit(indent + 1, f"{pending}[{off}] = {value}")
        e.emit(indent + 1, f"wk_{arr} = True")

    def pending_value(self, name: str) -> str:
        """The value scalar ``name`` takes once the nonblocking writes
        made so far this step apply."""
        attr = _attr(name)
        if name in self.s.both_ways:
            return f"(({attr} & ~m_{attr}) | (n_{attr} & m_{attr}))"
        return f"n_{attr}"

    def emit_write_flag(self, e: _Emitter, indent: int, name: str,
                        old: str) -> None:
        """After a nonblocking write of flagged scalar ``name`` that
        found its pending value ``old``: raise ``wk_`` when the write
        changed it in a way its readers wake on."""
        new = self.pending_value(name)
        test = self._edge_only_match(name, old, new) or f"{new} != {old}"
        e.emit(indent, f"if {test}:")
        e.emit(indent + 1, f"wk_{_attr(name)} = True")

    def _emit_update(self, e: _Emitter, indent: int, gated: bool,
                     changes: bool) -> None:
        """Apply the pending nonblocking writes.  ``gated`` (the
        software fast path) raises ``_dirty`` only for a change the
        interpreter would wake on, and keeps an edge-only signal's
        sample in step when its change matches no registered edge;
        with ``changes`` the wake goes to a local ``wake`` instead, and
        every change raises ``changed``.  With neither (the open-loop
        kernel) an evaluate always follows, which overwrites that
        bookkeeping."""
        s = self.s
        wake = "wake = True" if changes else "_dirty = True"
        for name in sorted(s.nba_targets):
            attr = _attr(name)
            inner = self._emit_merge(e, indent, name)
            flagged = name in self.flags
            if flagged:
                e.emit(inner, f"if wk_{attr}:")
                e.emit(inner + 1, f"wk_{attr} = False")
                e.emit(inner + 1, wake)
            match = gated and self._edge_only_match(name, attr, f"n_{attr}")
            wakes = gated and not flagged and name in s.comb_wake
            if not (changes or match or wakes):
                e.emit(inner, f"{attr} = n_{attr}")
                continue
            e.emit(inner, f"if {attr} != n_{attr}:")
            if changes:
                e.emit(inner + 1, "changed = True")
            if match and flagged:
                e.emit(inner + 1, f"if not ({match}):")
                e.emit(inner + 2, f"p_{attr} = n_{attr}")
            elif match:
                e.emit(inner + 1, f"if {match}:")
                e.emit(inner + 2, wake)
                e.emit(inner + 1, "else:")
                e.emit(inner + 2, f"p_{attr} = n_{attr}")
            elif wakes:
                e.emit(inner + 1, wake)
            e.emit(inner + 1, f"{attr} = n_{attr}")
        arrays = sorted(s.nba_array_targets)
        if not arrays:
            return
        e.emit(indent, "if " + " or ".join(
            f"nw_{_attr(name)} is not None" for name in arrays) + ":")
        for name in arrays:
            attr, inner = _attr(name), indent + 1
            if len(arrays) > 1:
                e.emit(inner, f"if nw_{attr} is not None:")
                inner += 1
            wakes = gated and name in s.comb_wake
            if name in s.word_pending:
                e.emit(inner, f"for _off, _val in nw_{attr}:")
                if changes or wakes:
                    e.emit(inner + 1, f"if {attr}[_off] != _val:")
                    e.emit(inner + 2, f"{attr}[_off] = _val")
                    if changes:
                        e.emit(inner + 2, "changed = True")
                    if wakes:
                        e.emit(inner + 2, wake)
                else:
                    e.emit(inner + 1, f"{attr}[_off] = _val")
            else:
                e.emit(inner, f"{attr} = nw_{attr}")
                if name in self.flags:
                    e.emit(inner, f"if wk_{attr}:")
                    e.emit(inner + 1, f"wk_{attr} = False")
                    if changes:
                        e.emit(inner + 1, "changed = True")
                    if wakes:
                        e.emit(inner + 1, wake)
            e.emit(inner, f"nw_{attr} = None")
        for name in arrays:
            e.emit(indent + 1, f"g_{_attr(name)} += 1")

    def _emit_merge(self, e: _Emitter, indent: int, name: str) -> int:
        """For a variable written both ways, open a block that runs only
        when a nonblocking write set bits of it this step, and that
        first merges those bits into the shadow; returns the indent the
        update of ``name`` continues at."""
        if name not in self.s.both_ways:
            return indent
        attr = _attr(name)
        e.emit(indent, f"if m_{attr}:")
        e.emit(indent + 1,
               f"n_{attr} = ({attr} & ~m_{attr}) | (n_{attr} & m_{attr})")
        e.emit(indent + 1, f"m_{attr} = 0")
        return indent + 1

    def _edge_only_match(self, name: str, old: str, new: str
                         ) -> Optional[str]:
        """For a signal only edge controls read, a test that its change
        ``old`` -> ``new`` matches a registered edge; else None."""
        edges = self.s.edge_wake.get(name)
        if not edges or name in self.s.comb_wake:
            return None
        if len(edges) == 2:
            return f"({old} ^ {new}) & 1"
        if "posedge" in edges:
            return f"{new} & ~{old} & 1"
        return f"{old} & ~{new} & 1"

    # ------------------------------------------------------------------
    # The open-loop kernel (Figure 10's _oloop)
    # ------------------------------------------------------------------
    def kernel(self, clock: str, hooks: Tuple[Hook, ...] = ()) -> str:
        """Source of ``open_loop(self, steps, h0, ...)``, which toggles
        the model attribute ``clock`` and settles the model ``steps``
        half ticks exactly as the model's own ``evaluate``/``update``
        would, and returns how many ran: it stops after a half tick that
        queued a task.  Every half tick ends with nothing pending, so on
        exit the kernel clears the change flags the model's ``evaluate``
        may have left, which its update does not read.

        Each hook ``(pokes, inputs, outputs, reads)`` is one absorbed
        clocked engine ``h<i>`` (``stdlib.engines.ClockedEngine``), held
        in locals ``h<i>_<port>`` from its ``values``: ``pokes`` are its
        input ports linked to model attributes and ``reads`` its output
        ports linked to them, each as ``(port, attribute)`` in the
        hardware engine's exchange order, and ``inputs``/``outputs`` are
        what its ``posedge`` takes and returns.  A port and its model
        variable are declared from the one net, so a copy needs no
        mask.  Where the model's methods would exchange with the
        engines, before each evaluate, the kernel does so on locals (see
        :meth:`_emit_exchange`); on exit it stores the linked inputs
        back and hands the engine the time."""
        e, body = _Emitter(), _Emitter()
        self.flags = set()
        e.emit(0, "def open_loop(" + ", ".join(
            ["self", "steps"] + [f"h{i}" for i in range(len(hooks))]) + "):")
        e.emit(1, "if steps <= 0:")
        e.emit(2, "return 0")
        e.emit(1, "_tasks = self._tasks")
        for i, (pokes, inputs, outputs, _) in enumerate(hooks):
            e.emit(1, f"h{i}s = h{i}.posedge")
            e.emit(1, f"h{i}v = h{i}.values")
            for port in dict.fromkeys([p for p, _ in pokes]
                                      + list(inputs) + list(outputs)):
                e.emit(1, f"h{i}_{port} = h{i}v[{port!r}]")
        # One half tick: evaluate rounds until no edge fires, then
        # update and evaluate again while nonblocking writes are
        # pending.
        body.emit(1, "done = 0")
        body.emit(1, "while done < steps:")
        body.emit(2, f"{clock} ^= 1")
        body.emit(2, "while True:")
        if hooks:
            self._emit_exchange(body, 3, hooks)
        else:
            self._emit_evaluate(body, 3)
        body.emit(3, "if not _nba:")
        body.emit(4, "break")
        body.emit(3, "_nba = False")
        self._emit_update(body, 3, gated=False, changes=False)
        body.emit(2, "done += 1")
        body.emit(2, "if not done & 1:")
        body.emit(3, "_time += 1")
        body.emit(2, "if _tasks:")
        body.emit(3, "break")
        self._on_locals(e, 1, body)
        for name in sorted(self.s.model_flags):
            e.emit(1, f"self.wk_{_attr(name)} = False")
        for i, (pokes, _, _, _) in enumerate(hooks):
            for port, _ in pokes:
                e.emit(1, f"h{i}v[{port!r}] = h{i}_{port}")
            e.emit(1, f"h{i}.set_time(_time)")
        e.emit(1, "return done")
        return self._module(e)

    def _emit_exchange(self, e: _Emitter, indent: int,
                       hooks: Tuple[Hook, ...]) -> None:
        """The hardware engine's ``_exchange`` and the ``evaluate`` that
        follows it, on locals: rounds that copy each linked model value
        into the engine's input, stepping the engine when ``clk`` rises,
        then each linked output into the model, and evaluate; up to 8
        rounds, until one moves nothing.  After the first round, one
        that moves nothing into the model ends the exchange: the model
        is as its last evaluate left it, so evaluating again, or another
        round, would change nothing."""
        inner = indent + 1
        e.emit(indent, "for _x in range(8):")
        e.emit(inner, "_poked = False")
        e.emit(inner, "_moved = False")
        for i, (pokes, inputs, outputs, _) in enumerate(hooks):
            for port, attr in pokes:
                local = f"h{i}_{port}"
                e.emit(inner, f"if {local} != {attr}:")
                e.emit(inner + 1, f"{local} = {attr}")
                e.emit(inner + 1, "_poked = True")
                if port == "clk":
                    e.emit(inner + 1, f"if {local}:")
                    e.emit(inner + 2, "".join(
                        f"h{i}_{p}, " for p in outputs) + f"= h{i}s(" +
                        ", ".join(["_time"] + [f"h{i}_{p}" for p in inputs])
                        + ")")
        for i, (_, _, _, reads) in enumerate(hooks):
            for port, attr in reads:
                e.emit(inner, f"if {attr} != h{i}_{port}:")
                e.emit(inner + 1, f"{attr} = h{i}_{port}")
                e.emit(inner + 1, "_moved = True")
        e.emit(inner, "if _x and not _moved:")
        e.emit(inner + 1, "break")
        self._emit_evaluate(e, inner)
        e.emit(inner, "if not (_poked or _moved):")
        e.emit(inner + 1, "break")

    # ------------------------------------------------------------------
    # Closed-loop batches on the software fast path (DESIGN.md §4.4)
    # ------------------------------------------------------------------
    def batch(self, clock: str) -> str:
        """Source of the generator ``batch(self, steps, it, now, costs,
        due, start, budget, last)``: up to ``steps`` Figure 6 iterations
        of the wake-gated model with its clock in attribute ``clock``,
        exactly as the runtime's stepped loop runs them when the model's
        engine is the clock's only reader.

        Each iteration adds to ``now`` what the stepped loop charges, in
        its order (``costs`` is ``(software event, MMIO, fabric tick,
        runtime overhead, ns per second)``): the clock's update and its
        message, one software event per ``evaluate`` or ``update`` the
        wake gating runs, and the window's overhead, after which
        ``_time`` follows the iteration count ``it``.  After a call that
        queued a task or moved an output off its ``last`` value it
        stores the outputs and yields ``(it, now)``, so the runtime can
        drain the plane and queue the tasks; it resumes with the new
        ``now``.  It stops after the window of an iteration that queued
        a task, or whose virtual time reaches ``due`` or runs ``budget``
        seconds past ``start``, and returns ``(it, now, calls)``."""
        s, e, body = self.s, _Emitter(), _Emitter()
        # Only a change the wake test reads needs a flag.
        self.flags = {name for name in s.model_flags
                      if name in s.flagged or name in s.comb_wake}
        outputs = [_attr(v.name) for v in s.design.vars.values()
                   if v.direction == "output"]
        e.emit(0, "def batch(self, steps, it, now, costs, due, start, budget, "
               "last):")
        e.emit(1, "sw, mmio, tick, rt, ns = costs")
        if outputs:
            e.emit(1, ", ".join(f"o_{attr}" for attr in outputs) + ", = last")
        e.emit(1, "_tasks = self._tasks")
        body.emit(1, "end = it + steps")
        body.emit(1, "calls = 0")
        body.emit(1, "halt = False")
        body.emit(1, "while it < end:")
        # The clock's update and its message to the model, which the
        # model's wake gating takes or lets pass.
        body.emit(2, "now += mmio")
        body.emit(2, "now += tick")
        body.emit(2, "now += mmio")
        body.emit(2, f"{clock} ^= 1")
        self._emit_clock_wake(body, 2, clock)
        body.emit(2, "while _dirty or _nba:")
        body.emit(3, "now += sw")
        body.emit(3, "calls += 1")
        body.emit(3, "if _dirty:")
        self._emit_evaluate(body, 4)
        body.emit(3, "else:")
        body.emit(4, "_nba = False")
        self._emit_update(body, 4, gated=True, changes=False)
        stop = ["_tasks"] + [f"{attr} != o_{attr}" for attr in outputs]
        body.emit(3, f"if {' or '.join(stop)}:")
        body.emit(4, "if _tasks:")
        body.emit(5, "halt = True")
        for name in outputs + ["_time"]:
            body.emit(4, f"self.{name} = {name}")
        body.emit(4, "now = yield it, now")
        body.emit(4, "_tasks = self._tasks")
        for attr in outputs:
            body.emit(4, f"o_{attr} = {attr}")
        body.emit(2, "it += 1")
        body.emit(2, "now += rt")
        body.emit(2, "_time = it >> 1")
        body.emit(2, "_s = now / ns")
        body.emit(2, "if halt or _s >= due or _s - start >= budget:")
        body.emit(3, "break")
        self._on_locals(e, 1, body)
        e.emit(1, "return it, now, calls")
        return self._module(e)

    def _emit_clock_wake(self, e: _Emitter, indent: int, clock: str) -> None:
        """What the fast path's ``poke_int`` does with the new clock
        level: raise ``_dirty`` when the interpreter would wake, else
        keep a registered edge's sample in step."""
        name = next(v.name for v in self.s.design.vars.values()
                    if _attr(v.name) == clock)
        edges = self.s.edge_wake.get(name, set())
        if name in self.s.comb_wake or len(edges) == 2:
            e.emit(indent, "_dirty = True")
        elif edges:
            rising = "posedge" in edges
            e.emit(indent, f"if {'' if rising else 'not '}{clock} & 1:")
            e.emit(indent + 1, "_dirty = True")
            e.emit(indent, "else:")
            e.emit(indent + 1, f"p_{clock} = {clock}")
