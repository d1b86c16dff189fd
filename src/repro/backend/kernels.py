"""Cycle kernels printed from a design's schedule (DESIGN.md §4.4).

Two print modes of one printer, over the schedule and through the
expression and statement printers of :mod:`repro.backend.pycompile`:
the open-loop kernel (Figure 10's ``_oloop``), which toggles the clock
and settles the model half tick by half tick, and the software fast
path's closed-loop batch, which runs Figure 6 iterations of the
wake-gated model and charges virtual time as the runtime's stepped loop
would.  Each keeps the model's state in locals for a whole call.  A
design's kernels are printed on its first kernel request, so this module
is imported then and not with the compiler.
"""

from __future__ import annotations

from typing import List

from .pycompile import _SIMPLE, _Emitter, _ExprCompiler, _Printer, _attr, \
    _lit

__all__ = ["KernelPrinter"]


class KernelPrinter(_Printer):
    """Prints a design's open-loop kernel or closed-loop batch."""

    #: Printing a closed-loop batch (:meth:`batch`), whose pending array
    #: words keep what its wake test needs.
    batching = False

    # ------------------------------------------------------------------
    # The open-loop kernel (Figure 10's _oloop)
    # ------------------------------------------------------------------
    def kernel(self, clock: str) -> str:
        """Source of ``open_loop(self, steps)``, which toggles the model
        attribute ``clock`` and settles the model ``steps`` half ticks
        exactly as the model's own ``evaluate``/``update`` would, and
        returns how many ran: it stops after a half tick that queued a
        task.  The state lives in locals for the whole batch and is
        stored back on exit.  A design that calls a function reading or
        writing design variables steps its own methods instead, since
        such a function sees the attributes."""
        e = _Emitter()
        e.emit(0, "def open_loop(self, steps):")
        if self.s.calls_stateful:
            e.emit(1, "evaluate, update = self.evaluate, self.update")
            e.emit(1, "done = 0")
            e.emit(1, "while done < steps:")
            e.emit(2, f"self.{clock} ^= 1")
            e.emit(2, "self._dirty = True")
            e.emit(2, "evaluate()")
            e.emit(2, "while self._nba:")
            e.emit(3, "update()")
            e.emit(3, "evaluate()")
            self._emit_kernel_tail(e, "self.")
            e.emit(1, "return done")
        else:
            self._emit_local_kernel(e, clock)
        return self._module(e)

    def _emit_kernel_tail(self, e: _Emitter, st: str) -> None:
        e.emit(2, "done += 1")
        e.emit(2, "if not done & 1:")
        e.emit(3, f"{st}_time += 1")
        e.emit(2, f"if {st}_tasks:")
        e.emit(3, "break")

    def _kernel_state(self) -> List[str]:
        """The model attributes a kernel holds in locals."""
        s, vars_ = self.s, self.s.design.vars
        state = [_attr(name) for name in vars_]
        state += [f"n_{_attr(name)}" for name in sorted(s.nba_targets)]
        state += [f"m_{_attr(name)}" for name in s.both_ways]
        state += [f"p_{_attr(sig)}" for sig in s.edge_signals]
        state += [f"g_{_attr(name)}" for name, var in vars_.items()
                  if var.is_array]
        state += [key for _, key in s.cones if key]
        state += [f"_comb_snap{i}" for i in range(len(s.comb_blocks))]
        return state + ["_nba", "_dirty", "_time"]

    def _emit_evaluate(self, e: _Emitter, indent: int) -> None:
        """The model's ``evaluate`` on locals: comb and sequential
        rounds until no edge fires."""
        local = {name: _attr(name) for name in self.s.design.vars}
        e.emit(indent, "for _round in range(64):")
        self._emit_comb(e, indent + 1, local, kernel=True)
        self._emit_seq(e, indent + 1, _ExprCompiler(self, local=local),
                       kernel=True)
        e.emit(indent + 1, "if not fired:")
        e.emit(indent + 2, "break")
        e.emit(indent, "else:")
        e.emit(indent + 1, "raise RuntimeError('evaluation did not converge')")

    def _emit_local_kernel(self, e: _Emitter, clock: str) -> None:
        s = self.s
        state = self._kernel_state()
        arrays = sorted(s.nba_array_targets)
        e.emit(1, "if steps <= 0:")
        e.emit(2, "return 0")
        for name in state:
            e.emit(1, f"{name} = self.{name}")
        e.emit(1, "_tasks = self._tasks")
        for name in arrays:
            e.emit(1, f"nw_{_attr(name)} = None")
        if arrays:
            # Words the model's own methods left pending join the
            # pending copies.
            e.emit(1, "if self._nba_words:")
            e.emit(2, "for _arr, _off, _val, _wakes in self._nba_words:")
            for i, name in enumerate(arrays):
                e.emit(3, f"{'el' if i else ''}if _arr is {_attr(name)}:")
                self.emit_pending_word(e, 4, name, "_off", "_val")
            e.emit(2, "self._nba_words = []")
        # One half tick: evaluate rounds until no edge fires, then
        # update and evaluate again while nonblocking writes are
        # pending.
        e.emit(1, "done = 0")
        e.emit(1, "while done < steps:")
        e.emit(2, f"{clock} ^= 1")
        e.emit(2, "while True:")
        self._emit_evaluate(e, 3)
        e.emit(3, "if not _nba:")
        e.emit(4, "break")
        e.emit(3, "_nba = False")
        self._emit_kernel_update(e, 3)
        self._emit_kernel_tail(e, "")
        for name in state:
            e.emit(1, f"self.{name} = {name}")
        e.emit(1, "return done")

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
        s, e = self.s, _Emitter()
        self.batching = True
        st = "self." if s.calls_stateful else ""
        outputs = [_attr(v.name) for v in s.design.vars.values()
                   if v.direction == "output"]
        state = [] if s.calls_stateful else self._kernel_state()
        flagged = self._flagged_arrays()
        e.emit(0, "def batch(self, steps, it, now, costs, due, start, budget, "
               "last):")
        e.emit(1, "sw, mmio, tick, rt, ns = costs")
        if outputs:
            e.emit(1, ", ".join(f"o_{attr}" for attr in outputs) + ", = last")
        for name in state:
            e.emit(1, f"{name} = self.{name}")
        if s.calls_stateful:
            e.emit(1, "evaluate, update = self.evaluate, self.update")
        for name in sorted(s.nba_array_targets):
            e.emit(1, f"nw_{_attr(name)} = None")
        for name in flagged:
            e.emit(1, f"wk_{_attr(name)} = False")
        e.emit(1, "_tasks = self._tasks")
        e.emit(1, "end = it + steps")
        e.emit(1, "calls = 0")
        e.emit(1, "halt = False")
        e.emit(1, "while it < end:")
        # The clock's update and its message to the model, which the
        # model's wake gating takes or lets pass.
        e.emit(2, "now += mmio")
        e.emit(2, "now += tick")
        e.emit(2, "now += mmio")
        e.emit(2, f"{st}{clock} ^= 1")
        self._emit_clock_wake(e, 2, clock, st)
        e.emit(2, f"while {st}_dirty or {st}_nba:")
        e.emit(3, "now += sw")
        e.emit(3, "calls += 1")
        e.emit(3, f"if {st}_dirty:")
        if s.calls_stateful:
            e.emit(4, "evaluate()")
            e.emit(3, "else:")
            e.emit(4, "update()")
        else:
            self._emit_evaluate(e, 4)
            e.emit(3, "else:")
            e.emit(4, "_nba = False")
            self._emit_batch_update(e, 4, flagged)
        stop = ["_tasks"] + [f"{st}{attr} != o_{attr}" for attr in outputs]
        e.emit(3, f"if {' or '.join(stop)}:")
        e.emit(4, "if _tasks:")
        e.emit(5, "halt = True")
        if not s.calls_stateful:
            for name in outputs + ["_time"]:
                e.emit(4, f"self.{name} = {name}")
        e.emit(4, "now = yield it, now")
        e.emit(4, "_tasks = self._tasks")
        for attr in outputs:
            e.emit(4, f"o_{attr} = {st}{attr}")
        e.emit(2, "it += 1")
        e.emit(2, "now += rt")
        e.emit(2, f"{st}_time = it >> 1")
        e.emit(2, "_s = now / ns")
        e.emit(2, "if halt or _s >= due or _s - start >= budget:")
        e.emit(3, "break")
        for name in state:
            e.emit(1, f"self.{name} = {name}")
        e.emit(1, "return it, now, calls")
        return self._module(e)

    def _flagged_arrays(self) -> List[str]:
        """Arrays whose nonblocking writes a batch kernel keeps in a copy
        and whose change wakes combinational logic: each write that
        changes a word raises the array's ``wk_`` flag, as the model's
        ``update`` would see the word change."""
        return [name for name in sorted(self.s.nba_array_targets)
                if name in self.s.comb_wake
                and name not in self.s.word_pending]

    def _emit_clock_wake(self, e: _Emitter, indent: int, clock: str,
                         st: str) -> None:
        """What the fast path's ``poke_int`` does with the new clock
        level: raise ``_dirty`` when the interpreter would wake, else
        keep a registered edge's sample in step."""
        name = next(v.name for v in self.s.design.vars.values()
                    if _attr(v.name) == clock)
        edges = self.s.edge_wake.get(name, set())
        if name in self.s.comb_wake or len(edges) == 2:
            e.emit(indent, f"{st}_dirty = True")
        elif edges:
            rising = "posedge" in edges
            e.emit(indent, f"if {'' if rising else 'not '}{st}{clock} & 1:")
            e.emit(indent + 1, f"{st}_dirty = True")
            e.emit(indent, "else:")
            e.emit(indent + 1, f"{st}p_{clock} = {st}{clock}")

    def _emit_batch_update(self, e: _Emitter, indent: int,
                           flagged: List[str]) -> None:
        """The model's wake-gated ``update`` on locals: it raises
        ``_dirty`` (clear when an update runs) only for a change the
        interpreter would wake on."""
        for name in sorted(self.s.nba_targets):
            attr = _attr(name)
            inner = self._emit_merge(e, indent, name, "")
            match = self._edge_only_match(name, attr, f"n_{attr}")
            if name not in self.s.comb_wake and not match:
                e.emit(inner, f"{attr} = n_{attr}")
                continue
            e.emit(inner, f"if {attr} != n_{attr}:")
            if match:
                e.emit(inner + 1, f"if {match}:")
                e.emit(inner + 2, "_dirty = True")
                e.emit(inner + 1, "else:")
                e.emit(inner + 2, f"p_{attr} = n_{attr}")
            else:
                e.emit(inner + 1, "_dirty = True")
            e.emit(inner + 1, f"{attr} = n_{attr}")
        arrays = sorted(self.s.nba_array_targets)
        if not arrays:
            return
        e.emit(indent, "if " + " or ".join(
            f"nw_{_attr(name)} is not None" for name in arrays) + ":")
        for name in arrays:
            attr, inner = _attr(name), indent + 1
            if len(arrays) > 1:
                e.emit(inner, f"if nw_{attr} is not None:")
                inner += 1
            if name in self.s.word_pending:
                # In order, as the model applies its pending words.
                e.emit(inner, f"for _off, _val in nw_{attr}:")
                e.emit(inner + 1, f"if {attr}[_off] != _val:")
                e.emit(inner + 2, f"{attr}[_off] = _val")
                if name in self.s.comb_wake:
                    e.emit(inner + 2, "_dirty = True")
            else:
                e.emit(inner, f"{attr} = nw_{attr}")
            if name in flagged:
                e.emit(inner, f"if wk_{attr}:")
                e.emit(inner + 1, f"wk_{attr} = False")
                e.emit(inner + 1, "_dirty = True")
            e.emit(inner, f"nw_{attr} = None")
        for name in arrays:
            e.emit(indent + 1, f"g_{_attr(name)} += 1")

    def emit_pending_word(self, e: _Emitter, indent: int, name: str,
                          off: str, value: str) -> None:
        """A nonblocking write of word ``off`` of array ``name`` in a
        kernel: into a copy of the array taken at the half tick's first
        such write, or into a dict of words when code also writes the
        array blocking.  A batch keeps such an array's words in a list,
        applied in order as the model's ``update`` applies them, and
        raises a copied array's ``wk_`` flag on a write that changes a
        word its readers wake on."""
        pending, arr = f"nw_{_attr(name)}", _attr(name)
        if self.batching and name in self.s.word_pending:
            e.emit(indent, f"if {pending} is None:")
            e.emit(indent + 1, f"{pending} = []")
            e.emit(indent, f"{pending}.append(({off}, {value}))")
            return
        e.emit(indent, f"if {pending} is None:")
        e.emit(indent + 1, f"{pending} = {{}}" if name in self.s.word_pending
               else f"{pending} = {arr}[:]")
        if self.batching and name in self._flagged_arrays():
            if not (_lit(value) is not None or _SIMPLE.fullmatch(value)):
                tmp = self.fresh("_w")
                e.emit(indent, f"{tmp} = {value}")
                value = tmp
            e.emit(indent, f"if {pending}[{off}] != {value}:")
            e.emit(indent + 1, f"{pending}[{off}] = {value}")
            e.emit(indent + 1, f"wk_{arr} = True")
            return
        e.emit(indent, f"{pending}[{off}] = {value}")

    def _emit_kernel_update(self, e: _Emitter, indent: int) -> None:
        """The kernel's ``update``: what the model's own leaves, less
        what the evaluate that always follows overwrites (the change
        and wake bookkeeping, and the edge samples)."""
        for name in sorted(self.s.nba_targets):
            inner = self._emit_merge(e, indent, name, "")
            e.emit(inner, f"{_attr(name)} = n_{_attr(name)}")
        arrays = sorted(self.s.nba_array_targets)
        if not arrays:
            return
        e.emit(indent, "if " + " or ".join(
            f"nw_{_attr(name)} is not None" for name in arrays) + ":")
        for name in arrays:
            attr, inner = _attr(name), indent + 1
            if len(arrays) > 1:
                e.emit(inner, f"if nw_{attr} is not None:")
                inner += 1
            if name in self.s.word_pending:
                e.emit(inner, f"for _off, _val in nw_{attr}.items():")
                e.emit(inner + 1, f"{attr}[_off] = _val")
            else:
                e.emit(inner, f"{attr} = nw_{attr}")
            e.emit(inner, f"nw_{attr} = None")
        for name in arrays:
            e.emit(indent + 1, f"g_{_attr(name)} += 1")
