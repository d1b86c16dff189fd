"""The virtual development board.

The paper's experiments run on an Intel Cyclone V SoC dev board with
four buttons and a strip of LEDs, plus a host FIFO for streaming
workloads (§6.2).  We do not have that hardware, so this module provides
the closest synthetic equivalent: a :class:`VirtualBoard` with live
peripheral objects that standard-library engines perform *real* side
effects on.  Tests and examples observe the LED trace, press buttons and
feed the FIFO exactly the way a user would poke the physical board.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = ["VirtualBoard", "LedStrip", "ButtonPad", "HostFifo", "GpioBank"]


class LedStrip:
    """A strip of LEDs; records every change with its virtual time."""

    def __init__(self, width: int = 8):
        self.width = width
        self.value = 0
        self.trace: List[Tuple[int, int]] = []

    def set(self, value: int, time: int) -> None:
        value &= (1 << self.width) - 1
        if value != self.value:
            self.value = value
            self.trace.append((time, value))

    def lit(self) -> List[int]:
        """Indices of LEDs currently on."""
        return [i for i in range(self.width) if (self.value >> i) & 1]


class ButtonPad:
    """A bank of momentary buttons (1 = pressed)."""

    def __init__(self, width: int = 4):
        self.width = width
        self.value = 0

    def press(self, index: int) -> None:
        if 0 <= index < self.width:
            self.value |= 1 << index

    def release(self, index: int) -> None:
        if 0 <= index < self.width:
            self.value &= ~(1 << index)

    def release_all(self) -> None:
        self.value = 0


class HostFifo:
    """A host-fed FIFO peripheral: software pushes bytes in, hardware
    consumes them; hardware pushes results back out.

    A streaming *source* can be attached with a transport bandwidth
    (bytes per second of virtual time), modelling the memory-mapped IO
    bus between host and FPGA (paper §6.2): the FIFO then refills
    itself as virtual time advances, and the sustained IO rate is
    bounded by the transport exactly as on the real platform.
    """

    def __init__(self, depth: int = 16):
        self.depth = depth
        self.to_device: Deque[int] = deque()
        self.from_device: Deque[int] = deque()
        self.pushed = 0
        self.popped = 0
        self._source = None
        self._source_pos = 0
        self._bytes_per_sec = 0.0
        self._credit = 0.0
        self._last_refill_s = 0.0

    def attach_source(self, data: bytes,
                      bytes_per_sec: float = 555_000.0) -> None:
        """Stream ``data`` into the FIFO at the transport rate."""
        self._source = data
        self._source_pos = 0
        self._bytes_per_sec = bytes_per_sec
        self._credit = 0.0
        self._last_refill_s = 0.0

    @property
    def source_exhausted(self) -> bool:
        return self._source is None or \
            self._source_pos >= len(self._source)

    def refill(self, now_seconds: float) -> None:
        """Advance the transport to ``now_seconds`` of virtual time."""
        if self._source is None:
            return
        elapsed = max(now_seconds - self._last_refill_s, 0.0)
        self._last_refill_s = now_seconds
        self._credit = min(self._credit + elapsed * self._bytes_per_sec,
                           10 * self.depth)
        while self._credit >= 1.0 and \
                self._source_pos < len(self._source) and \
                len(self.to_device) < self.depth:
            self.to_device.append(self._source[self._source_pos])
            self._source_pos += 1
            self.pushed += 1
            self._credit -= 1.0

    def host_push(self, value: int) -> bool:
        """Host -> device; bounded by depth to model back pressure."""
        if len(self.to_device) >= self.depth:
            return False
        self.to_device.append(value)
        self.pushed += 1
        return True

    def device_pop(self) -> Optional[int]:
        if not self.to_device:
            return None
        self.popped += 1
        return self.to_device.popleft()

    @property
    def empty(self) -> bool:
        return not self.to_device

    @property
    def full(self) -> bool:
        return len(self.to_device) >= self.depth


class GpioBank:
    """A loop-back GPIO bank: test code sets inputs, reads outputs."""

    def __init__(self, width: int = 8):
        self.width = width
        self.in_value = 0    # board -> design
        self.out_value = 0   # design -> board

    def drive(self, value: int) -> None:
        self.in_value = value & ((1 << self.width) - 1)


class VirtualBoard:
    """All peripherals of the simulated dev board, plus a reset line."""

    def __init__(self, pad_width: int = 4, led_width: int = 8,
                 gpio_width: int = 8, fifo_depth: int = 16):
        self.pad = ButtonPad(pad_width)
        self.leds = LedStrip(led_width)
        self.gpio = GpioBank(gpio_width)
        self.fifos: Dict[str, HostFifo] = {}
        self.fifo_depth = fifo_depth
        self.reset = 0

    def fifo(self, name: str) -> HostFifo:
        if name not in self.fifos:
            self.fifos[name] = HostFifo(self.fifo_depth)
        return self.fifos[name]

    def led_trace(self) -> List[Tuple[int, int]]:
        return list(self.leds.trace)
