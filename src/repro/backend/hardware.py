"""FPGA-resident hardware engines (paper §5.2), simulated.

A :class:`HardwareEngine` wraps the compiled model produced by
:mod:`repro.backend.pycompile` — our stand-in for the bitstream the
Figure 10 transformation would produce — behind the Figure 7 ABI.  It
supports the two optimisations that matter for performance:

* **ABI forwarding** (§4.3): standard-library engines can be absorbed,
  after which this engine answers ABI requests on their behalf and the
  runtime stops talking to them over the data/control plane;
* **open-loop scheduling** (§4.4): the engine runs many scheduler
  iterations internally, toggling its copy of the global clock, and
  returns control only when the iteration limit is reached or a system
  task requires runtime intervention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..common.bits import Bits
from ..core.abi import HARDWARE, SOFTWARE, CollectedTasks, Engine, \
    EngineTask
from ..interp.fmt import format_display
from ..ir.build import Subprogram
from ..verilog.elaborate import Design
from .pycompile import CompiledDesign, _attr

__all__ = ["HardwareEngine", "FastSoftwareEngine"]

#: What drain_output_changes returns when no output changed.
_UNCHANGED: Set[str] = frozenset()  # type: ignore[assignment]


class HardwareEngine(CollectedTasks, Engine):
    """One subprogram executing on the (simulated) fabric."""

    location = HARDWARE
    two_state = True

    def __init__(self, subprogram: Subprogram, compiled: CompiledDesign):
        CollectedTasks.__init__(self)
        self.subprogram = subprogram
        self.compiled = compiled
        self.design: Design = compiled.design
        self.model = compiled.instantiate()
        #: name -> (model attribute, width mask, width, signed), mapped
        #: once so the data plane's calls do no name mangling.
        self._ports: Dict[str, Tuple[str, int, int, bool]] = {
            v.name: (_attr(v.name), (1 << v.width) - 1, v.width, v.signed)
            for v in self.design.vars.values() if not v.is_array}
        self._outputs = [(v.name, _attr(v.name))
                         for v in self.design.vars.values()
                         if v.direction == "output"]
        self._out_last: Dict[str, int] = {
            name: getattr(self.model, attr) for name, attr in self._outputs}
        # Forwarding state.
        self.inner: List[Engine] = []
        #: Whether an absorbed engine has a ``clk`` port, which open
        #: loop must then step every half tick.
        self._clocked_inner = False
        self._to_inner: List[Tuple[str, Engine, str]] = []
        self._from_inner: List[Tuple[Engine, str, str, int]] = []
        self.clock_engine: Optional[Engine] = None
        self.clock_attr: Optional[str] = None

    # ------------------------------------------------------------------
    # State migration
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        state: Dict[str, object] = {}
        for var in self.design.vars.values():
            if var.kind != "reg":
                continue
            if var.is_array:
                state[var.name] = [Bits.from_int(w, var.width, var.signed)
                                   for w in getattr(self.model,
                                                    _attr(var.name))]
            else:
                state[var.name] = Bits.from_int(
                    getattr(self.model, _attr(var.name)), var.width,
                    var.signed)
        return state

    def set_state(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            var = self.design.vars.get(name)
            if var is None:
                continue
            # The model holds every value as an unsigned int of its
            # variable's width; a signed Bits (an interpreter array word
            # keeps the sign of the value stored into it) reads negative.
            mask = (1 << var.width) - 1
            if var.is_array:
                words = getattr(self.model, _attr(name))
                for i, w in enumerate(list(value)[:len(words)]):
                    words[i] = (w.to_int_xz(0) if isinstance(w, Bits)
                                else int(w)) & mask
                setattr(self.model, "g_" + _attr(name),
                        getattr(self.model, "g_" + _attr(name)) + 1)
            else:
                v = value.to_int_xz(0) if isinstance(value, Bits) \
                    else int(value)
                setattr(self.model, _attr(name), v & mask)
                shadow = "n_" + _attr(name)
                if hasattr(self.model, shadow):
                    setattr(self.model, shadow,
                            getattr(self.model, _attr(name)))
        self.model._dirty = True

    def sync_edge_samples(self) -> None:
        """Align edge-detection samples with current values, so the
        post-handover settle cannot fire edges the previous tier already
        consumed."""
        model = self.model
        for sig in self.compiled.edge_signals:
            attr = _attr(sig)
            setattr(model, "p_" + attr, getattr(model, attr))

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def write(self, port: str, value: Bits) -> None:
        self.poke_int(port, value.to_int_xz(0))

    def poke_int(self, port: str, value: int) -> None:
        attr, mask, _, _ = self._ports[port]
        value &= mask
        if getattr(self.model, attr) != value:
            setattr(self.model, attr, value)
            self.model._dirty = True

    def read(self, port: str) -> Bits:
        attr, _, width, signed = self._ports[port]
        return Bits.from_int(getattr(self.model, attr), width, signed)

    def drain_output_changes(self) -> Set[str]:
        changed: Set[str] = _UNCHANGED
        model = self.model
        last = self._out_last
        for name, attr in self._outputs:
            cur = getattr(model, attr)
            if cur != last[name]:
                last[name] = cur
                if not changed:
                    changed = set()
                changed.add(name)
        return changed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def there_are_evals(self) -> bool:
        return self.model._dirty or bool(self.inner) and any(
            inner.there_are_evals() for inner in self.inner)

    def evaluate(self) -> None:
        self.model.evaluate()
        if self.inner:
            self._exchange()
        self._collect_tasks()

    def there_are_updates(self) -> bool:
        return self.model._nba or bool(self.inner) and any(
            inner.there_are_updates() for inner in self.inner)

    def update(self) -> None:
        self.model.update()
        if self.inner:
            for inner in self.inner:
                if inner.there_are_updates():
                    inner.update()
            self._exchange()
        self._collect_tasks()

    def end_step(self) -> bool:
        if not self.inner:
            return False
        for inner in self.inner:
            inner.end_step()
        self._exchange()
        return True

    def set_time(self, time: int) -> None:
        self.model._time = time
        for inner in self.inner:
            inner.set_time(time)

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def _collect_tasks(self) -> None:
        tasks = self.model._tasks
        if not tasks:
            return
        self.model._tasks = []
        for kind, payload, newline in tasks:
            if kind == "display":
                args: List[object] = []
                for part in payload:
                    if isinstance(part, str):
                        args.append(part)
                    else:
                        value, width, signed = part
                        args.append(Bits.from_int(value, width, signed))
                self.push_display(
                    format_display(args, self.design.name,
                                   self.model._time), newline)
            else:
                self.push_finish(payload)
        for inner in self.inner:
            self._tasks.extend(inner.drain_tasks())

    # ------------------------------------------------------------------
    # ABI forwarding (§4.3)
    # ------------------------------------------------------------------
    def forward(self, inner: Engine) -> None:
        """Absorb a standard-library engine: link its ports to our local
        variables over shared nets and take over its scheduling."""
        sub: Subprogram = inner.subprogram  # type: ignore[attr-defined]
        my_nets = {net: port
                   for port, (net, _) in self.subprogram.bindings.items()}
        for port, (net, direction) in sub.bindings.items():
            my_port = my_nets.get(net)
            if my_port is None:
                continue
            attr = _attr(my_port)
            if direction == "in":
                self._to_inner.append((attr, inner, port))
            else:
                width = self.design.vars[my_port].width
                self._from_inner.append((inner, port, attr, width))
        self.inner.append(inner)
        self._clocked_inner |= "clk" in sub.port_widths
        self._exchange()

    def _exchange(self) -> None:
        """Exchange values with absorbed engines until stable."""
        model = self.model
        for _ in range(8):
            stable = True
            for attr, inner, port in self._to_inner:
                value = getattr(model, attr)
                if inner.peek_int(port) != value:
                    inner.poke_int(port, value)
                    stable = False
            for inner in self.inner:
                if inner.there_are_evals():
                    inner.evaluate()
                if inner.there_are_updates():
                    inner.update()
            for inner, port, attr, width in self._from_inner:
                value = inner.peek_int(port) & ((1 << width) - 1)
                if getattr(model, attr) != value:
                    setattr(model, attr, value)
                    model._dirty = True
                    stable = False
            if stable:
                return
            model.evaluate()

    def absorb_clock(self, clock_engine: Engine, clock_port: str) -> None:
        """Take over clock generation for open-loop scheduling: the
        engine toggles its own copy of the clock variable (Figure 10's
        ``_vars[0] <= _otick ? _vars[0]+1 : ...``)."""
        self.clock_engine = clock_engine
        self.clock_attr = _attr(clock_port)

    # ------------------------------------------------------------------
    # Open-loop scheduling (§4.4)
    # ------------------------------------------------------------------
    def open_loop(self, steps: int) -> int:
        model = self.model
        attr = self.clock_attr
        done = 0
        if not self._clocked_inner:
            # Fast path: no absorbed component is clocked, so sources
            # (Pad/Reset) stay constant during the batch and sinks
            # (Led/GPIO) only need the final values — run the compiled
            # loop and exchange once on exit.
            done = model.open_loop(attr, steps)
            if self.inner:
                self._exchange()
            self._collect_tasks()
        else:
            while done < steps:
                setattr(model, attr, getattr(model, attr) ^ 1)
                model._dirty = True
                self._exchange()
                model.evaluate()
                while model._nba or any(i.there_are_updates()
                                        for i in self.inner):
                    model.update()
                    for inner in self.inner:
                        if inner.there_are_updates():
                            inner.update()
                    self._exchange()
                    model.evaluate()
                done += 1
                if not (done & 1):
                    model._time += 1
                for inner in self.inner:
                    inner.set_time(model._time)
                self._collect_tasks()
                if self.has_tasks:
                    break
        # Propagate the final clock value back to the clock engine so
        # the runtime's view stays coherent.
        if self.clock_engine is not None:
            self.clock_engine.write(  # type: ignore[call-arg]
                "val", Bits.from_int(getattr(model, attr) & 1, 1))
            self.clock_engine.drain_output_changes()
        return done

    def __repr__(self) -> str:
        return f"HardwareEngine({self.subprogram.name})"


class FastSoftwareEngine(HardwareEngine):
    """The middle JIT tier: the compiled model running *as software*.

    Structurally identical to a hardware engine — it wraps the same
    compiled-Python model behind the same ABI — but it executes on the
    host's software budget, so the performance model charges it at
    software rates and every data-plane message stays heap-local.  The
    point is host wall-clock: the compiled model is one to two orders
    of magnitude faster per host second than the event-driven
    interpreter, and this tier makes that speed available milliseconds
    after admission, long before the fabric flow finishes.

    Virtual time must be **bit-identical** to the interpreter, so input
    writes and nonblocking updates raise the model's dirty flag only
    for changes the interpreter's sensitivity machinery would also have
    activated on (``CompiledDesign.comb_wake`` / ``edge_wake``); the
    ``_gate_wakes`` flag enables the matching gate inside the generated
    ``update``.  Forwarding and open-loop scheduling remain
    hardware-only optimisations — their payoff is avoiding the MMIO
    boundary, which this tier does not have.
    """

    location = SOFTWARE

    def __init__(self, subprogram: Subprogram, compiled: CompiledDesign):
        super().__init__(subprogram, compiled)
        self.model._gate_wakes = True

    def poke_int(self, port: str, value: int) -> None:
        attr, mask, _, _ = self._ports[port]
        value &= mask
        model = self.model
        old = getattr(model, attr)
        if old == value:
            return
        setattr(model, attr, value)
        if self.compiled.wakes_on(port, old, value):
            model._dirty = True
        elif port in self.compiled.edge_wake:
            # A transition matching no registered edge activates
            # nothing; keep the previous sample in sync (as _seq would
            # have) so the next matching edge is still detected.
            setattr(model, "p_" + attr, value)

    def __repr__(self) -> str:
        return f"FastSoftwareEngine({self.subprogram.name})"
