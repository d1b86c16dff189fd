"""Adapter: the interpreter as an ABI engine.

Subprograms begin life here — "quickly compiled, low-performance,
software simulated engines" (§3.3) — and are replaced by hardware
engines when background compilation finishes.
"""

from __future__ import annotations

from typing import Dict, Set

from ..common.bits import Bits
from ..interp.engine import EngineServices, SoftwareEngine
from ..ir.build import Subprogram
# Not called here (the subprogram carries its design), but still bound:
# perfbench/tracing.py instruments this name.
from ..verilog.elaborate import elaborate_leaf  # noqa: F401
from .abi import SOFTWARE, CollectedTasks, Engine, EngineTask

__all__ = ["SoftwareEngineAdapter"]


class _RuntimeServices(EngineServices):
    """Engine services that queue side effects as ABI tasks."""

    def __init__(self, owner: "SoftwareEngineAdapter"):
        self.owner = owner
        self.time = 0

    def display(self, text: str, newline: bool = True) -> None:
        self.owner.push_display(text, newline)

    def finish(self, code: int = 0) -> None:
        self.owner.push_finish(code)

    def now(self) -> int:
        return self.time


class SoftwareEngineAdapter(CollectedTasks, Engine):
    """Runs one subprogram on the event-driven interpreter."""

    location = SOFTWARE

    def __init__(self, subprogram: Subprogram):
        CollectedTasks.__init__(self)
        self.subprogram = subprogram
        self.services = _RuntimeServices(self)
        self.design = subprogram.design
        self.core = SoftwareEngine(self.design, self.services)

    # -- state ----------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        return self.core.get_state()

    def set_state(self, state: Dict[str, object]) -> None:
        self.core.set_state(state)

    # -- data plane -------------------------------------------------------
    def write(self, port: str, value: Bits) -> None:
        self.core.poke(port, value)

    def read(self, port: str) -> Bits:
        return self.core.peek(port)

    def drain_output_changes(self) -> Set[str]:
        return self.core.drain_output_changes()

    # -- scheduling -------------------------------------------------------
    def there_are_evals(self) -> bool:
        return self.core.there_are_evals()

    def evaluate(self) -> None:
        self.core.evaluate()

    def there_are_updates(self) -> bool:
        return self.core.there_are_updates()

    def update(self) -> None:
        self.core.update()

    def end_step(self) -> None:
        self.core.end_step()

    def set_time(self, time: int) -> None:
        self.services.time = time

    def __repr__(self) -> str:
        return f"SoftwareEngineAdapter({self.subprogram.name})"
