"""Pre-compiled engines for standard-library components (§3.2, §4.3).

Components with IO side effects must be placed in hardware as soon as
they are instantiated — "emulating their behavior in software doesn't
make sense" — so Cascade keeps a catalog of pre-compiled engines for
them.  Ours operate directly on the :class:`~repro.stdlib.board.
VirtualBoard` peripherals, and advertise ``location = HARDWARE`` so the
performance model charges them fabric-side costs.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..common.bits import Bits
from ..ir.build import Subprogram
from .board import VirtualBoard
from ..core.abi import HARDWARE, CollectedTasks, Engine

__all__ = ["make_stdlib_engine", "ClockEngine", "PadEngine", "LedEngine",
           "ResetEngine", "GpioEngine", "MemoryEngine", "FifoEngine",
           "StdlibEngine"]


class StdlibEngine(CollectedTasks, Engine):
    """Common machinery: port values, change tracking, no-op scheduling."""

    location = HARDWARE

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        CollectedTasks.__init__(self)
        self.subprogram = subprogram
        self.board = board
        self.widths = subprogram.port_widths
        self.ports: Dict[str, Bits] = {
            port: Bits.zeros(width) for port, width in self.widths.items()}
        self._changed: Set[str] = set()
        self.time = 0

    # -- helpers ----------------------------------------------------------
    def _param(self, name: str, default: int) -> int:
        v = self.subprogram.params.get(name)
        return default if v is None else v.to_int_xz()

    def _set(self, port: str, value: int) -> None:
        width = self.widths[port]
        new = Bits.from_int(value, width)
        old = self.ports[port]
        if old.aval != new.aval or old.bval != new.bval:
            self.ports[port] = new
            self._changed.add(port)

    # -- ABI ---------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        return {}

    def set_state(self, state: Dict[str, object]) -> None:
        pass

    def write(self, port: str, value: Bits) -> None:
        width = self.widths[port]
        v = value.extend(width) if value.width < width \
            else value.resize(width)
        old = self.ports[port]
        if old.aval == v.aval and old.bval == v.bval:
            return
        self.ports[port] = v
        self.on_input(port, v)

    def read(self, port: str) -> Bits:
        return self.ports[port]

    # Integer fast paths used by hardware-engine forwarding, where the
    # exchange happens "in fabric" and Bits boxing would dominate.
    def poke_int(self, port: str, value: int) -> None:
        old = self.ports[port]
        masked = value & ((1 << self.widths[port]) - 1)
        if old.bval == 0 and old.aval == masked:
            return
        v = Bits.from_int(masked, self.widths[port])
        self.ports[port] = v
        self.on_input(port, v)

    def peek_int(self, port: str) -> int:
        v = self.ports[port]
        return v.aval & ~v.bval

    def drain_output_changes(self) -> Set[str]:
        out = self._changed
        if out:
            self._changed = set()
        return out

    def there_are_evals(self) -> bool:
        return False

    def evaluate(self) -> None:
        pass

    def there_are_updates(self) -> bool:
        return False

    def update(self) -> None:
        pass

    # -- subclass hooks -------------------------------------------------------
    def on_input(self, port: str, value: Bits) -> None:
        """React to an input-port change."""

    def set_time(self, time: int) -> None:
        self.time = time

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.subprogram.name})"


class ClockEngine(StdlibEngine):
    """The global clock: toggles ``val`` every scheduler iteration.

    The paper (§4.1): "Because the standard library's clock is just
    another engine, every two iterations of the scheduler correspond to
    a single virtual tick."  The toggle is queued as an *update* so it
    lands in the update phase like any sequential assignment.
    """

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        super().__init__(subprogram, board)
        self._pending = True  # tick queued for the next update phase

    def there_are_updates(self) -> bool:
        return self._pending

    def update(self) -> None:
        if self._pending:
            self._set("val", 1 - self.ports["val"].to_int_xz())
            self._pending = False

    def end_step(self) -> None:
        # Re-queue the tick once the interrupt queue is empty (§3.5).
        self._pending = True

    @property
    def value(self) -> int:
        return self.ports["val"].to_int_xz()


class ResetEngine(StdlibEngine):
    """Drives the board's reset line."""

    def end_step(self) -> None:
        self._set("val", self.board.reset)


class PadEngine(StdlibEngine):
    """Buttons: reflects the board's pad state onto ``val``."""

    def end_step(self) -> None:
        self._set("val", self.board.pad.value)

    def refresh(self) -> None:
        self._set("val", self.board.pad.value)


class LedEngine(StdlibEngine):
    """LEDs: input changes become visible board side effects."""

    def on_input(self, port: str, value: Bits) -> None:
        if port == "val":
            self.board.leds.set(value.to_int_xz(), self.time)


class GpioEngine(StdlibEngine):
    """GPIO: ``wval`` drives the board, ``rval`` reflects it."""

    def on_input(self, port: str, value: Bits) -> None:
        if port == "wval":
            self.board.gpio.out_value = value.to_int_xz()

    def end_step(self) -> None:
        self._set("rval", self.board.gpio.in_value)


class MemoryEngine(StdlibEngine):
    """A synchronous one-read one-write port RAM."""

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        super().__init__(subprogram, board)
        self.words: List[int] = [0] * (1 << self._param("ADDR", 8))
        self._mask = (1 << self._param("WIDTH", 32)) - 1
        self._last_clk = 0

    def on_input(self, port: str, value: Bits) -> None:
        if port != "clk":
            return
        clk = value.to_int_xz()
        if self._last_clk == 0 and clk == 1:
            self._on_posedge()
        self._last_clk = clk

    def _on_posedge(self) -> None:
        if bool(self.ports["wen"]):
            addr = self.ports["waddr"].to_int_xz()
            self.words[addr % len(self.words)] = \
                self.ports["wdata"].to_int_xz() & self._mask
        raddr = self.ports["raddr"].to_int_xz()
        self._set("rdata", self.words[raddr % len(self.words)])

    def get_state(self) -> Dict[str, object]:
        return {"words": list(self.words)}

    def set_state(self, state: Dict[str, object]) -> None:
        words = state.get("words")
        if words:
            for i in range(min(len(words), len(self.words))):
                self.words[i] = words[i]


class FifoEngine(StdlibEngine):
    """The standard-library FIFO, fed by the host through the board.

    ``rreq`` pops one element per clock edge; ``empty``/``full`` provide
    the back pressure that lets software-resident user logic keep up
    with the peripheral (§7.1).
    """

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        super().__init__(subprogram, board)
        self.fifo = board.fifo(subprogram.name)
        self._last_clk = 0
        self._refresh_status()

    def _refresh_status(self) -> None:
        self._set("empty", 1 if self.fifo.empty else 0)
        self._set("full", 1 if self.fifo.full else 0)

    def on_input(self, port: str, value: Bits) -> None:
        if port != "clk":
            return
        clk = value.to_int_xz()
        if self._last_clk == 0 and clk == 1:
            self._on_posedge()
        self._last_clk = clk

    def _now_seconds(self) -> float:
        # self.time counts *virtual clock* ticks.  Each scheduler
        # iteration (half a virtual clock cycle) costs one fabric tick,
        # so the virtual clock runs at fabric/2 = 25 MHz when fully in
        # hardware; one tick of self.time therefore spans 40 ns.
        return self.time / 25e6

    def _on_posedge(self) -> None:
        self.fifo.refill(self._now_seconds())
        if bool(self.ports["rreq"]) and not self.fifo.empty:
            self._set("rdata", self.fifo.device_pop())
        if bool(self.ports["wreq"]):
            self.fifo.from_device.append(self.ports["wdata"].to_int_xz())
        self._refresh_status()

    def end_step(self) -> None:
        # The host may have pushed new data between steps.
        self.fifo.refill(self._now_seconds())
        self._refresh_status()


_ENGINE_TYPES = {
    "Clock": ClockEngine,
    "Reset": ResetEngine,
    "Pad": PadEngine,
    "Led": LedEngine,
    "GPIO": GpioEngine,
    "Memory": MemoryEngine,
    "Fifo": FifoEngine,
}


def make_stdlib_engine(subprogram: Subprogram,
                       board: VirtualBoard) -> StdlibEngine:
    """Instantiate the pre-compiled engine for a stdlib subprogram."""
    engine_type = _ENGINE_TYPES.get(subprogram.source_module)
    if engine_type is None:
        raise KeyError(
            f"no pre-compiled engine for module "
            f"{subprogram.source_module!r}")
    return engine_type(subprogram, board)
