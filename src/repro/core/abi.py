"""The target-specific engine ABI (paper §3.5, Figure 7).

The runtime stays agnostic about *where* a subprogram executes by
talking to every engine through this interface.  New backend targets
extend Cascade by implementing it — the repository ships three:

* :class:`repro.core.engines.SoftwareEngineAdapter` — the interpreter
  (quickly compiled, low performance);
* :class:`repro.backend.hardware.HardwareEngine` — the simulated
  FPGA-resident engine (slowly compiled, high performance);
* the pre-compiled standard-library engines in
  :mod:`repro.stdlib.engines`.

Mapping to Figure 7: the paper's ``read``/``write`` broadcast and
discover input/output changes across the data/control plane.  Here the
plane is in-process, so ``write(port, value)`` delivers an input-change
event to the engine and ``read(port)`` / :meth:`drain_output_changes`
discover output-change events.  A two-state engine (the compiled model,
the standard library) also takes writes as plain ints through
``poke_int``, so a value is boxed into :class:`Bits` only where a
four-state reader or the plane's net table needs one.
``display``/``finish`` notifications travel in the opposite direction
(engine to runtime) through the :class:`EngineTask` objects returned by
:meth:`Engine.drain_tasks`.

This is **not** a user-exposed interface (§3.5): Verilog programmers
never see it.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Set

from ..common.bits import Bits

__all__ = ["Engine", "EngineTask", "SOFTWARE", "HARDWARE"]

SOFTWARE = "software"
HARDWARE = "hardware"


class EngineTask:
    """An unsynthesizable side effect produced by an engine: a pending
    $display/$write line or a $finish request."""

    __slots__ = ("kind", "text", "code", "newline")

    def __init__(self, kind: str, text: str = "", code: int = 0,
                 newline: bool = True):
        self.kind = kind      # "display" | "finish"
        self.text = text
        self.code = code
        self.newline = newline

    def __repr__(self) -> str:
        if self.kind == "display":
            return f"EngineTask(display, {self.text!r})"
        return f"EngineTask(finish, {self.code})"


class Engine(abc.ABC):
    """Abstract runtime state of one subprogram (Figure 7)."""

    #: SOFTWARE or HARDWARE — where ABI requests are processed, which
    #: determines their cost in the performance model.
    location: str = SOFTWARE
    #: False for an engine whose there_are_evals (there_are_updates) is
    #: always False; the scheduler then never asks it.
    raises_evals: bool = True
    raises_updates: bool = True
    #: True for an engine that holds two-state values and implements
    #: :meth:`poke_int`.
    two_state: bool = False

    # -- state migration (get_state / set_state) -------------------------
    @abc.abstractmethod
    def get_state(self) -> Dict[str, object]:
        """Snapshot all stateful elements so a replacement engine can
        inherit them (e.g. ``cnt`` keeps its value when Main moves from
        software to hardware)."""

    @abc.abstractmethod
    def set_state(self, state: Dict[str, object]) -> None:
        """Install a snapshot produced by another engine's get_state."""

    # -- data plane (read / write) ----------------------------------------
    @abc.abstractmethod
    def write(self, port: str, value: Bits) -> None:
        """Deliver an input-change event."""

    @abc.abstractmethod
    def read(self, port: str) -> Bits:
        """Current value of an output port."""

    def poke_int(self, port: str, value: int) -> None:
        """Two-state engines: ``write`` of a fully known value, given as
        an int in two's complement (masked to the port's width here)."""
        raise NotImplementedError

    @abc.abstractmethod
    def drain_output_changes(self) -> Set[str]:
        """Output ports whose values changed since the last drain.  Only
        evaluate/update, a write and end_step change outputs, so the
        plane drains only engines that did one of those."""

    # -- scheduling (Figure 6) ---------------------------------------------
    @abc.abstractmethod
    def there_are_evals(self) -> bool:
        """True when the engine has activated evaluation events."""

    @abc.abstractmethod
    def evaluate(self) -> None:
        """Process all activated evaluation events (EvalAll)."""

    @abc.abstractmethod
    def there_are_updates(self) -> bool:
        """True when the engine has activated update events."""

    @abc.abstractmethod
    def update(self) -> None:
        """Perform all activated update events atomically."""

    def end_step(self) -> bool:
        """Optional: called between time steps, when the interrupt queue
        is empty (how the standard clock re-queues its tick).  Returns
        True when the step may have changed an output or queued a task,
        so the runtime drains this engine."""
        return False

    def set_time(self, time: int) -> None:
        """Inform the engine of the current logical time (drives $time
        and delayed-process wake-ups).  Engines with no notion of time
        ignore it — part of the ABI so the scheduler never has to probe
        with hasattr on its hot path."""

    # -- unsynthesizable side effects (display / finish) --------------------
    def drain_tasks(self) -> List[EngineTask]:
        """Pending display/finish notifications for the runtime."""
        return []

    @property
    def has_tasks(self) -> bool:
        """False only when :meth:`drain_tasks` would return nothing (the
        scheduler then skips the drain); conservatively True here."""
        return True

    # -- optimisations (forward / open_loop) ---------------------------------
    def forward(self, inner: "Engine") -> None:
        """ABI forwarding (§4.3): absorb a standard component so this
        engine answers ABI requests on its behalf."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support ABI forwarding")

    def open_loop(self, steps: int) -> int:
        """Open-loop scheduling (§4.4): run up to ``steps`` full
        scheduler iterations internally, toggling the clock this engine
        absorbed each iteration; stop early when a system task needs
        runtime intervention.  Returns the number of iterations
        performed."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support open loop")


class CollectedTasks:
    """Mixin helper: queue display/finish tasks for drain_tasks."""

    def __init__(self):
        self._tasks: List[EngineTask] = []

    def push_display(self, text: str, newline: bool = True) -> None:
        self._tasks.append(EngineTask("display", text, newline=newline))

    def push_finish(self, code: int = 0) -> None:
        self._tasks.append(EngineTask("finish", code=code))

    def drain_tasks(self) -> List[EngineTask]:
        out, self._tasks = self._tasks, []
        return out

    @property
    def has_tasks(self) -> bool:
        return bool(self._tasks)
