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
    """Common machinery: two-state port values, change tracking, no
    events of its own (its work happens on a write or at end_step)."""

    location = HARDWARE
    raises_evals = False
    raises_updates = False
    two_state = True

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        CollectedTasks.__init__(self)
        self.subprogram = subprogram
        self.board = board
        self.widths = subprogram.port_widths
        self._masks = {port: (1 << width) - 1
                       for port, width in self.widths.items()}
        #: Port values as unsigned ints: the board is two-state, so an
        #: x/z bit written here is stored as 0, as every consumer reads it.
        self.values: Dict[str, int] = dict.fromkeys(self.widths, 0)
        self._changed: Set[str] = set()
        self.time = 0

    # -- helpers ----------------------------------------------------------
    def _param(self, name: str, default: int) -> int:
        v = self.subprogram.params.get(name)
        return default if v is None else v.to_int_xz()

    def _set(self, port: str, value: int) -> bool:
        """Drive an output; True when its value changed."""
        value &= self._masks[port]
        if self.values[port] == value:
            return False
        self.values[port] = value
        self._changed.add(port)
        return True

    # -- ABI ---------------------------------------------------------------
    def get_state(self) -> Dict[str, object]:
        return {}

    def set_state(self, state: Dict[str, object]) -> None:
        pass

    def write(self, port: str, value: Bits) -> None:
        self.poke_int(port, value.to_int_xz(0))

    def read(self, port: str) -> Bits:
        return Bits.from_int(self.values[port], self.widths[port])

    def poke_int(self, port: str, value: int) -> None:
        value &= self._masks[port]
        if self.values[port] != value:
            self.values[port] = value
            self.on_input(port, value)

    def peek_int(self, port: str) -> int:
        # What a hardware engine that absorbed this one reads (§4.3).
        return self.values[port]

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
    def on_input(self, port: str, value: int) -> None:
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

    raises_updates = True
    #: ``val`` boxed, by value: the plane reads it every iteration.
    _LEVELS = (Bits.from_int(0, 1), Bits.from_int(1, 1))

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        super().__init__(subprogram, board)
        self._pending = True  # tick queued for the next update phase

    def read(self, port: str) -> Bits:
        return self._LEVELS[self.values[port]]

    def there_are_updates(self) -> bool:
        return self._pending

    def update(self) -> None:
        if self._pending:
            self._set("val", self.values["val"] ^ 1)
            self._pending = False

    def end_step(self) -> bool:
        # Re-queue the tick once the interrupt queue is empty (§3.5).
        self._pending = True
        return False

    @property
    def value(self) -> int:
        return self.values["val"]


class ResetEngine(StdlibEngine):
    """Drives the board's reset line."""

    def end_step(self) -> bool:
        return self._set("val", self.board.reset)


class PadEngine(StdlibEngine):
    """Buttons: reflects the board's pad state onto ``val``."""

    def end_step(self) -> bool:
        return self._set("val", self.board.pad.value)


class LedEngine(StdlibEngine):
    """LEDs: input changes become visible board side effects."""

    def on_input(self, port: str, value: int) -> None:
        if port == "val":
            self.board.leds.set(value, self.time)


class GpioEngine(StdlibEngine):
    """GPIO: ``wval`` drives the board, ``rval`` reflects it."""

    def on_input(self, port: str, value: int) -> None:
        if port == "wval":
            self.board.gpio.out_value = value

    def end_step(self) -> bool:
        return self._set("rval", self.board.gpio.in_value)


class MemoryEngine(StdlibEngine):
    """A synchronous one-read one-write port RAM."""

    def __init__(self, subprogram: Subprogram, board: VirtualBoard):
        super().__init__(subprogram, board)
        self.words: List[int] = [0] * (1 << self._param("ADDR", 8))
        self._mask = (1 << self._param("WIDTH", 32)) - 1

    def on_input(self, port: str, value: int) -> None:
        # ``clk`` is one bit wide: a change to 1 is a posedge.
        if port == "clk" and value:
            self._on_posedge()

    def _on_posedge(self) -> None:
        values = self.values
        if values["wen"]:
            self.words[values["waddr"] % len(self.words)] = \
                values["wdata"] & self._mask
        self._set("rdata", self.words[values["raddr"] % len(self.words)])

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
        self._refresh_status()

    def _refresh_status(self) -> bool:
        empty = self._set("empty", 1 if self.fifo.empty else 0)
        full = self._set("full", 1 if self.fifo.full else 0)
        return empty or full

    def on_input(self, port: str, value: int) -> None:
        # ``clk`` is one bit wide: a change to 1 is a posedge.
        if port == "clk" and value:
            self._on_posedge()

    def _now_seconds(self) -> float:
        # self.time counts *virtual clock* ticks.  Each scheduler
        # iteration (half a virtual clock cycle) costs one fabric tick,
        # so the virtual clock runs at fabric/2 = 25 MHz when fully in
        # hardware; one tick of self.time therefore spans 40 ns.
        return self.time / 25e6

    def _on_posedge(self) -> None:
        self.fifo.refill(self._now_seconds())
        values = self.values
        if values["rreq"] and not self.fifo.empty:
            self._set("rdata", self.fifo.device_pop())
        if values["wreq"]:
            self.fifo.from_device.append(values["wdata"])
        self._refresh_status()

    def end_step(self) -> bool:
        # The host may have pushed new data between steps.
        self.fifo.refill(self._now_seconds())
        return self._refresh_status()


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
