"""The runtime's ordered interrupt queue (§3.4).

System-task side effects (``$display`` text and ``$finish``) are stored
in arrival order and serviced between time steps, when the event queue
is empty and the system is in an observable state — the only window in
which changing the program cannot produce undefined behaviour.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

__all__ = ["Interrupt", "InterruptQueue"]


class Interrupt:
    """One queued interrupt."""

    __slots__ = ("kind", "payload")

    DISPLAY = "display"
    FINISH = "finish"

    def __init__(self, kind: str, payload=None):
        self.kind = kind
        self.payload = payload

    def __repr__(self) -> str:
        return f"Interrupt({self.kind}, {self.payload!r})"


class InterruptQueue:
    """FIFO of interrupts serviced in the between-steps window."""

    def __init__(self):
        self._queue: Deque[Interrupt] = deque()

    def push_display(self, text: str, newline: bool = True) -> None:
        self._queue.append(Interrupt(Interrupt.DISPLAY, (text, newline)))

    def push_finish(self, code: int = 0) -> None:
        self._queue.append(Interrupt(Interrupt.FINISH, code))

    def pop(self) -> Optional[Interrupt]:
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)
