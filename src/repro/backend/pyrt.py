"""Runtime support helpers for compiled (hardware-engine) models.

The Python code generated by :mod:`repro.backend.pycompile` represents
every signal as a plain non-negative int (two-state: x collapses to 0,
exactly as it would in a real bitstream after synthesis).  These helpers
implement the handful of Verilog operations that do not map directly to
a Python int expression.
"""

from __future__ import annotations

__all__ = ["sdiv", "smod", "ashr", "to_signed", "red_xor", "clog2",
           "insert"]


def to_signed(value: int, width: int) -> int:
    """Two's-complement reinterpretation."""
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value


def sdiv(a: int, b: int) -> int:
    """Division truncating toward zero (Verilog semantics); /0 -> 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def smod(a: int, b: int) -> int:
    """Remainder with the dividend's sign; %0 -> 0."""
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def ashr(value: int, amount: int, width: int) -> int:
    """Arithmetic shift right of a ``width``-bit two's-complement
    value, returned re-masked to ``width`` bits."""
    mask = (1 << width) - 1
    if amount >= width:
        return mask if value & (1 << (width - 1)) else 0
    return (to_signed(value, width) >> amount) & mask


def red_xor(value: int) -> int:
    """Reduction XOR (parity)."""
    return bin(value).count("1") & 1


def clog2(value: int) -> int:
    return (value - 1).bit_length() if value > 1 else 0


def insert(target: int, low: int, value: int, mask: int, full: int) -> int:
    """``target`` with ``value & mask`` written from bit ``low`` up; the
    bits that land below bit 0 or outside ``full`` (the target's mask)
    are dropped (IEEE 1364-2005 §5.2.1)."""
    if low < 0:
        return (target & ~(mask >> -low)) | ((value & mask) >> -low)
    return ((target & ~(mask << low)) | ((value & mask) << low)) & full
