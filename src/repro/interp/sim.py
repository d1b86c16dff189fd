"""The standalone reference simulator (the paper's iVerilog baseline).

:class:`Simulator` drives one :class:`SoftwareEngine` with the reference
scheduling algorithm of Figure 2: drain activated evaluation events,
then activate update events, and when the queue is empty advance time to
the next scheduled event (procedural delay).  Testbench-style programs
(initial blocks, ``always #1 clk = ~clk`` clocks, $display/$finish) run
to completion exactly as they would under an interpreted event-driven
simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..common.bits import Bits
from ..common.errors import CascadeError
from ..verilog.elaborate import Design, ModuleLibrary, elaborate
from ..verilog.parser import parse_source
from .engine import EngineServices, SoftwareEngine

__all__ = ["Simulator", "CollectingServices", "simulate_source"]


class CollectingServices(EngineServices):
    """Engine services that record output instead of printing."""

    def __init__(self):
        self.lines: List[str] = []
        self._partial = ""
        self.finish_code: Optional[int] = None
        self.time = 0

    def display(self, text: str, newline: bool = True) -> None:
        if newline:
            self.lines.append(self._partial + text)
            self._partial = ""
        else:
            self._partial += text

    def finish(self, code: int = 0) -> None:
        self.finish_code = code
        from .engine import _FinishSignal
        raise _FinishSignal(code)

    def now(self) -> int:
        return self.time

    def flush(self) -> None:
        if self._partial:
            self.lines.append(self._partial)
            self._partial = ""


class Simulator:
    """Drives one engine per the Figure 2 reference scheduler."""

    def __init__(self, design: Design,
                 services: Optional[CollectingServices] = None):
        self.services = services or CollectingServices()
        self.engine = SoftwareEngine(design, self.services)
        self.steps = 0

    @classmethod
    def from_source(cls, text: str, top: Optional[str] = None,
                    **kwargs) -> "Simulator":
        src = parse_source(text)
        if not src.modules:
            raise CascadeError("no modules in source")
        library = ModuleLibrary(src.modules)
        if top is None:
            instantiated = {
                inst.module_name
                for m in src.modules
                for inst in m.items
                if type(inst).__name__ == "Instantiation"}
            candidates = [m for m in src.modules
                          if m.name not in instantiated]
            top_module = candidates[-1] if candidates else src.modules[-1]
        else:
            top_module = library.get(top)
        design = elaborate(top_module, library)
        return cls(design, **kwargs)

    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Evaluate/update to a fixed point (one observable state)."""
        engine = self.engine
        engine.evaluate()
        while engine.there_are_updates():
            engine.update()
            engine.evaluate()
            if engine.finished is not None:
                return

    def run(self, max_time: int = 1_000_000,
            max_steps: int = 10_000_000) -> int:
        """Run until $finish, quiescence or ``max_time``; returns the
        final simulation time."""
        engine = self.engine
        self._settle()
        while engine.finished is None:
            wake = engine.next_wake_time()
            if wake is None:
                break
            if wake > max_time:
                self.services.time = max_time
                break
            self.services.time = wake
            engine.end_step()
            self.steps += 1
            if self.steps > max_steps:
                raise CascadeError("simulation exceeded max_steps")
            self._settle()
        engine.end_step()  # final $monitor refresh
        self.services.flush()
        return self.services.time

    # ------------------------------------------------------------------
    def poke(self, name: str, value) -> None:
        """Set an input (int or Bits) and re-settle combinational logic."""
        if not isinstance(value, Bits):
            var = self.engine.design.vars[name]
            value = Bits.from_int(int(value), var.width, var.signed)
        self.engine.poke(name, value)
        self._settle()

    def peek(self, name: str) -> Bits:
        return self.engine.peek(name)

    def peek_int(self, name: str) -> int:
        return self.engine.peek(name).to_int_xz()

    def step_clock(self, clock: str = "clk", cycles: int = 1) -> None:
        """Toggle a clock input through full cycles, settling after each
        half period (for designs driven from outside, no testbench)."""
        for _ in range(cycles):
            self.poke(clock, 1)
            while self.engine.there_are_updates():
                self.engine.update()
                self.engine.evaluate()
            self.services.time += 1
            self.engine.end_step()
            self._settle()
            self.poke(clock, 0)
            while self.engine.there_are_updates():
                self.engine.update()
                self.engine.evaluate()
            self.services.time += 1
            self.engine.end_step()
            self._settle()

    @property
    def output_lines(self) -> List[str]:
        self.services.flush()
        return self.services.lines


def simulate_source(text: str, top: Optional[str] = None,
                    max_time: int = 1_000_000) -> List[str]:
    """Parse, elaborate and run; return the captured $display output."""
    sim = Simulator.from_source(text, top)
    sim.run(max_time=max_time)
    return sim.output_lines
