"""Four-state, arbitrary-width bit vectors with IEEE 1364 semantics.

This module is the value substrate for everything else: the interpreter
evaluates Verilog expressions over :class:`Bits`, the backend constant-folds
with them, and the standard library moves them across the data plane.

Encoding
--------
Each bit is one of ``0``, ``1``, ``x`` (unknown) or ``z`` (high impedance).
We use the classic VPI two-plane encoding: bit *i* of :attr:`Bits.aval` and
:attr:`Bits.bval` jointly encode the logic value::

    (aval, bval) = (0, 0) -> 0
    (aval, bval) = (1, 0) -> 1
    (aval, bval) = (0, 1) -> z
    (aval, bval) = (1, 1) -> x

Values are immutable.  Operations follow the semantics in IEEE 1364-2005
sections 4 and 5: arithmetic over any x/z operand yields all-x, bitwise
operators propagate x per-bit, relational operators yield a 1-bit x when
either operand contains x/z, and case equality (``===``) compares the four
state exactly.

Each operator's x/z rule is written once, as a function over the two
planes (the "plane-level 4-state rules" after the class).  The
:class:`Bits` methods wrap those functions, and the interpreter's lowered
closures (:mod:`repro.verilog.eval`) call them directly on int planes.

Width discipline: operations here are *self-determined* — callers (the
lowering in :mod:`repro.verilog.eval`) are responsible for extending
operands to the context-determined width before invoking an operation,
exactly the way a Verilog simulator sizes its intermediates.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["Bits", "parse_literal", "BitsError"]


class BitsError(ValueError):
    """Raised for malformed literals or invalid Bits operations."""


def _mask(width: int) -> int:
    return (1 << width) - 1


class Bits:
    """An immutable four-state bit vector of fixed width.

    Parameters
    ----------
    width:
        Number of bits; must be positive.
    aval, bval:
        The two VPI planes (see module docstring).  Bits above ``width``
        are masked off.
    signed:
        Whether the vector is interpreted as two's complement in
        arithmetic and relational contexts.
    """

    __slots__ = ("width", "aval", "bval", "signed")

    def __init__(self, width: int, aval: int = 0, bval: int = 0,
                 signed: bool = False):
        if width <= 0:
            raise BitsError(f"Bits width must be positive, got {width}")
        m = _mask(width)
        _set_width(self, width)
        _set_aval(self, aval & m)
        _set_bval(self, bval & m)
        _set_signed(self, bool(signed))

    def __setattr__(self, name, value):  # pragma: no cover - safety net
        raise AttributeError("Bits is immutable")

    def __copy__(self) -> "Bits":
        return self

    def __deepcopy__(self, memo) -> "Bits":
        return self

    def __reduce__(self):
        # Slots + the __setattr__ guard break pickle's default state
        # restore; rebuild through the constructor instead.  Needed so
        # designs and flow reports can cross process boundaries.
        return (Bits, (self.width, self.aval, self.bval, self.signed))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_int(cls, value: int, width: int, signed: bool = False) -> "Bits":
        """Build a fully-known vector from a Python int (two's complement).

        Small values of common widths are interned: Bits is immutable
        (and shared freely — see ``__copy__``), so the counters, flags
        and literals that dominate simulation traffic all resolve to the
        same few hundred objects instead of being re-allocated on every
        event.
        """
        v = value & _mask(width)
        if v < 256 and width <= 64:
            key = (v, width, signed)
            cached = _interned.get(key)
            if cached is None:
                cached = _interned[key] = cls(width, v, 0, signed)
            return cached
        return cls(width, v, 0, signed)

    @classmethod
    def zeros(cls, width: int) -> "Bits":
        return cls.from_int(0, width)

    @classmethod
    def ones(cls, width: int) -> "Bits":
        return cls(width, _mask(width), 0)

    @classmethod
    def xes(cls, width: int) -> "Bits":
        cached = _interned_xes.get(width)
        if cached is None:
            m = _mask(width)
            cached = cls(width, m, m)
            if width <= 64:
                _interned_xes[width] = cached
        return cached

    @classmethod
    def zs(cls, width: int) -> "Bits":
        return cls(width, 0, _mask(width))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def has_xz(self) -> bool:
        """True when any bit is x or z."""
        return self.bval != 0

    @property
    def has_x(self) -> bool:
        return bool(self.aval & self.bval)

    @property
    def has_z(self) -> bool:
        return bool(~self.aval & self.bval & _mask(self.width))

    def is_zero(self) -> bool:
        """Fully known and equal to zero."""
        return self.bval == 0 and self.aval == 0

    def to_uint(self) -> int:
        """The unsigned integer value; raises if any bit is x/z."""
        if self.bval:
            raise BitsError(f"cannot convert {self!r} with x/z bits to int")
        return self.aval

    def to_int(self) -> int:
        """The signed-aware integer value; raises if any bit is x/z."""
        v = self.to_uint()
        if self.signed and v & (1 << (self.width - 1)):
            v -= 1 << self.width
        return v

    def to_int_xz(self, xz_as: int = 0) -> int:
        """Integer value with x/z bits replaced by ``xz_as`` (0 or 1)."""
        known = self.aval & ~self.bval
        if xz_as:
            known |= self.bval
        v = known & _mask(self.width)
        if self.signed and v & (1 << (self.width - 1)):
            v -= 1 << self.width
        return v

    def __int__(self) -> int:
        return self.to_int()

    def __bool__(self) -> bool:
        """Truthiness per Verilog: true iff some bit is a known 1."""
        return bool(self.aval & ~self.bval)

    def bit(self, i: int) -> str:
        """The character '0'/'1'/'x'/'z' for bit *i* (0 = LSB)."""
        if not 0 <= i < self.width:
            return "x"
        a = (self.aval >> i) & 1
        b = (self.bval >> i) & 1
        return ("0", "1", "z", "x")[a + 2 * b]

    def bits(self) -> Iterable[str]:
        """Bit characters, LSB first."""
        return (self.bit(i) for i in range(self.width))

    # ------------------------------------------------------------------
    # Equality / hashing (structural — use eq() for Verilog ==)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bits):
            return NotImplemented
        return (self.width, self.aval, self.bval) == \
            (other.width, other.aval, other.bval)

    def __hash__(self) -> int:
        return hash((self.width, self.aval, self.bval))

    def __repr__(self) -> str:
        return f"Bits({self.width}'{'s' if self.signed else ''}b{self.to_bin()})"

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def to_bin(self) -> str:
        return "".join(reversed(list(self.bits())))

    def to_hex(self) -> str:
        """Hex digits, with x/z shown when a nibble is entirely x/z,
        and X/Z when partially unknown (matching common simulators)."""
        out = []
        for lo in range(0, self.width, 4):
            n = min(4, self.width - lo)
            a = (self.aval >> lo) & _mask(n)
            b = (self.bval >> lo) & _mask(n)
            if b == 0:
                out.append(format(a, "x"))
            elif b == _mask(n):
                x_bits = a & b
                if x_bits == b:
                    out.append("x")
                elif x_bits == 0:
                    out.append("z")
                else:
                    out.append("X")
            else:
                out.append("X" if (a & b) else "Z")
        return "".join(reversed(out))

    def to_oct(self) -> str:
        out = []
        for lo in range(0, self.width, 3):
            n = min(3, self.width - lo)
            a = (self.aval >> lo) & _mask(n)
            b = (self.bval >> lo) & _mask(n)
            if b == 0:
                out.append(format(a, "o"))
            elif b == _mask(n):
                out.append("x" if (a & b) == b else "z")
            else:
                out.append("X" if (a & b) else "Z")
        return "".join(reversed(out))

    def to_dec(self) -> str:
        if self.bval:
            # Entirely x / entirely z print as single chars, else 'X'/'Z'.
            m = _mask(self.width)
            if self.bval == m and self.aval == m:
                return "x"
            if self.bval == m and self.aval == 0:
                return "z"
            return "X" if (self.aval & self.bval) else "Z"
        return str(self.to_int() if self.signed else self.aval)

    def to_verilog(self) -> str:
        """A literal string such as ``8'hff`` that re-parses to this value."""
        base = "sh" if self.signed else "h"
        if self.width % 4 or self.has_xz:
            base = "sb" if self.signed else "b"
            return f"{self.width}'{base}{self.to_bin()}"
        return f"{self.width}'{base}{self.to_hex()}"

    # ------------------------------------------------------------------
    # Structure: slicing, concatenation, extension
    # ------------------------------------------------------------------
    def extend(self, width: int) -> "Bits":
        """Extend (or truncate) to ``width``.

        Extension pads with the sign bit when signed; otherwise with the
        MSB when that bit is x/z (literal semantics), else zero.
        """
        if width == self.width:
            return self
        a, b = extend(self.aval, self.bval, self.width, width, self.signed)
        return box(width, a, b, self.signed)

    def resize(self, width: int) -> "Bits":
        """Zero-extend/truncate regardless of sign (assignment semantics
        use :meth:`extend`; this is the raw reinterpretation)."""
        if width == self.width:
            return self
        return Bits(width, self.aval, self.bval, self.signed)

    def as_signed(self) -> "Bits":
        return box(self.width, self.aval, self.bval, True)

    def as_unsigned(self) -> "Bits":
        return box(self.width, self.aval, self.bval, False)

    def select(self, i: int) -> "Bits":
        """Single-bit select; out of range yields 1'bx."""
        return box(1, *part(self.aval, self.bval, self.width, i, 1), False)

    def part(self, msb: int, lsb: int) -> "Bits":
        """Part select [msb:lsb]; out-of-range bits read as x."""
        if msb < lsb:
            raise BitsError(f"part select [{msb}:{lsb}] is reversed")
        width = msb - lsb + 1
        return box(width, *part(self.aval, self.bval, self.width, lsb,
                                 width), False)

    def set_part(self, msb: int, lsb: int, value: "Bits") -> "Bits":
        """A copy with bits [msb:lsb] replaced by ``value`` (resized)."""
        if msb < lsb:
            raise BitsError(f"part select [{msb}:{lsb}] is reversed")
        a, b = set_part(self.aval, self.bval, self.width, lsb,
                        msb - lsb + 1, value.aval, value.bval)
        return box(self.width, a, b, self.signed)

    @staticmethod
    def concat(parts: Iterable["Bits"]) -> "Bits":
        """Concatenate; the first element is the most significant."""
        parts = list(parts)
        if not parts:
            raise BitsError("empty concatenation")
        a = b = 0
        width = 0
        for p in parts:
            a = (a << p.width) | p.aval
            b = (b << p.width) | p.bval
            width += p.width
        return Bits(width, a, b)

    def replicate(self, n: int) -> "Bits":
        if n <= 0:
            raise BitsError(f"replication count must be positive, got {n}")
        return Bits.concat([self] * n)

    # ------------------------------------------------------------------
    # Operators: each applies its plane-level rule below
    # ------------------------------------------------------------------
    def _same_width(self, other: "Bits") -> int:
        if other.width != self.width:
            raise BitsError(
                f"width mismatch: {self.width} vs {other.width} "
                "(callers must extend operands to context width)")
        return self.width

    def _binary(self, other: "Bits", rule, *extra) -> "Bits":
        """``rule`` over two same-width operands; the result is signed
        only when both are."""
        w = self._same_width(other)
        a, b = rule(self.aval, self.bval, other.aval, other.bval,
                    _mask(w), *extra)
        return box(w, a, b, self.signed and other.signed)

    def _test(self, other: "Bits", rule, *extra) -> "Bits":
        """A 1-bit comparison of two same-width operands."""
        self._same_width(other)
        return box(1, *rule(self.aval, self.bval, other.aval, other.bval,
                             *extra), False)

    def _unary(self, rule, *extra) -> "Bits":
        a, b = rule(self.aval, self.bval, _mask(self.width), *extra)
        return box(self.width, a, b, self.signed)

    def _reduce(self, rule) -> "Bits":
        return box(1, *rule(self.aval, self.bval, _mask(self.width)),
                    False)

    def and_(self, other: "Bits") -> "Bits":
        return self._binary(other, and_)

    def or_(self, other: "Bits") -> "Bits":
        return self._binary(other, or_)

    def xor_(self, other: "Bits") -> "Bits":
        return self._binary(other, xor_)

    def xnor_(self, other: "Bits") -> "Bits":
        return self._binary(other, xnor_)

    def not_(self) -> "Bits":
        return self._unary(not_)

    def reduce_and(self) -> "Bits":
        return self._reduce(reduce_and)

    def reduce_or(self) -> "Bits":
        return self._reduce(reduce_or)

    def reduce_xor(self) -> "Bits":
        return self._reduce(reduce_xor)

    def reduce_nand(self) -> "Bits":
        return self._reduce(reduce_nand)

    def reduce_nor(self) -> "Bits":
        return self._reduce(reduce_nor)

    def reduce_xnor(self) -> "Bits":
        return self._reduce(reduce_xnor)

    def log_not(self) -> "Bits":
        return box(1, *log_not(self.aval, self.bval), False)

    def log_and(self, other: "Bits") -> "Bits":
        return box(1, *log_and(self.aval, self.bval, other.aval,
                                other.bval), False)

    def log_or(self, other: "Bits") -> "Bits":
        return box(1, *log_or(self.aval, self.bval, other.aval,
                               other.bval), False)

    def add(self, other: "Bits") -> "Bits":
        return self._binary(other, add)

    def sub(self, other: "Bits") -> "Bits":
        return self._binary(other, sub)

    def mul(self, other: "Bits") -> "Bits":
        return self._binary(other, mul)

    def div(self, other: "Bits") -> "Bits":
        return self._binary(other, div, self.signed and other.signed)

    def mod(self, other: "Bits") -> "Bits":
        return self._binary(other, mod, self.signed and other.signed)

    def pow(self, other: "Bits") -> "Bits":
        """``self ** other``: the base is read with its own sign and the
        exponent with the exponent's."""
        w = self.width
        a, b = pow_(self.aval, self.bval, other.aval, other.bval, w,
                    self.signed, other.width, other.signed)
        return box(w, a, b, self.signed)

    def neg(self) -> "Bits":
        return self._unary(neg)

    def plus(self) -> "Bits":
        return self._unary(plus)

    # Shift amounts are unsigned and self-determined (any width).
    def shl(self, other: "Bits") -> "Bits":
        return self._unary(shl, other.aval, other.bval)

    def shr(self, other: "Bits") -> "Bits":
        return self._unary(shr, other.aval, other.bval)

    def ashr(self, other: "Bits") -> "Bits":
        """>>> : arithmetic when the left operand is signed."""
        return self._unary(ashr if self.signed else shr,
                           other.aval, other.bval)

    def eq(self, other: "Bits") -> "Bits":
        return self._test(other, eq)

    def neq(self, other: "Bits") -> "Bits":
        return self._test(other, neq)

    def case_eq(self, other: "Bits") -> "Bits":
        return self._test(other, case_eq)

    def case_neq(self, other: "Bits") -> "Bits":
        return self._test(other, case_neq)

    def _compare(self, other: "Bits", op: str) -> "Bits":
        return self._test(other, compare, self.width,
                          self.signed and other.signed, op)

    def lt(self, other: "Bits") -> "Bits":
        return self._compare(other, "<")

    def le(self, other: "Bits") -> "Bits":
        return self._compare(other, "<=")

    def gt(self, other: "Bits") -> "Bits":
        return self._compare(other, ">")

    def ge(self, other: "Bits") -> "Bits":
        return self._compare(other, ">=")

    def matches(self, pattern: "Bits", wild_x: bool) -> bool:
        """casez (wild_x=False): z bits in either side are wildcards.
        casex (wild_x=True): x and z bits in either side are wildcards."""
        return matches(self.aval, self.bval, pattern.aval, pattern.bval,
                       _mask(self._same_width(pattern)), wild_x)


# ----------------------------------------------------------------------
# Plane-level 4-state rules
# ----------------------------------------------------------------------
# Every x/z rule of IEEE 1364-2005 §4-§5 is written here once, over the
# (aval, bval) planes of operands already extended to the operation's
# width ``w`` (mask ``m``).  Each returns the result's planes as a
# tuple.  The Bits methods above and the interpreter's lowered closures
# (:mod:`repro.verilog.eval`) both call these; a closure inlines at most
# the all-known fast path.
XZ1 = (1, 1)          # a 1-bit x
ONE = (1, 0)
ZERO = (0, 0)


def x_planes(width: int):
    """A ``width``-bit all-x value."""
    m = (1 << width) - 1
    return m, m


def signed_value(a: int, w: int) -> int:
    """A known ``w``-bit plane read as two's complement."""
    return a - (1 << w) if a >> (w - 1) & 1 else a


def extend(a: int, b: int, w: int, cw: int, signed: bool):
    """Planes of a ``w``-bit value at width ``cw``: truncated, or padded
    with its sign bit when ``signed``, else with an x/z MSB (literal
    semantics), else zero."""
    if cw <= w:
        m = (1 << cw) - 1
        return a & m, b & m
    msb_a = a >> (w - 1) & 1
    pad = ((1 << (cw - w)) - 1) << w
    if b >> (w - 1) & 1:
        return (a | pad if msb_a else a), b | pad
    if signed and msb_a:
        return a | pad, b
    return a, b


def part(a: int, b: int, w: int, low: int, width: int):
    """Bits ``[low, low + width)`` of a ``w``-bit value; positions
    outside ``[0, w)`` read as x."""
    m = (1 << width) - 1
    if low >= 0 and low + width <= w:
        return a >> low & m, b >> low & m
    lo = max(low, 0) - low
    hi = min(low + width, w) - low
    if hi <= lo:
        return m, m
    inr = ((1 << (hi - lo)) - 1) << lo
    if low >= 0:
        a, b = a >> low, b >> low
    else:
        a, b = a << -low, b << -low
    xs = m & ~inr
    return (a & inr) | xs, (b & inr) | xs


def set_part(a: int, b: int, w: int, low: int, width: int, va: int,
             vb: int):
    """A ``w``-bit value with bits ``[low, low + width)`` replaced by the
    low ``width`` bits of ``(va, vb)``; positions outside ``[0, w)`` are
    not written (IEEE 1364-2005 §5.2.1)."""
    field = (1 << width) - 1
    va &= field
    vb &= field
    if low >= 0:
        field, va, vb = field << low, va << low, vb << low
    else:
        field, va, vb = field >> -low, va >> -low, vb >> -low
    field &= (1 << w) - 1
    keep = ~field
    return (a & keep) | (va & field), (b & keep) | (vb & field)


def merge(ta: int, tb: int, ea: int, eb: int, m: int):
    """``c ? t : e`` with an x/z condition: bits both arms agree on and
    know keep their value, the rest are x (§5.1.13)."""
    agree = ~(ta ^ ea) & ~(tb | eb)
    differ = ~agree & m
    return (ta & agree) | differ, (tb & agree) | differ


def matches(a: int, b: int, pa: int, pb: int, m: int, wild_x: bool) -> bool:
    """casez (``wild_x`` false): z bits on either side are wildcards;
    casex: x and z bits are."""
    if wild_x:
        wild = b | pb
    else:
        wild = ((~a & b) | (~pa & pb)) & m
    care = ~wild & m
    return (a & care) == (pa & care) and (b & care) == (pb & care)


# -- bitwise, per bit --------------------------------------------------
def and_(xa, xb, ya, yb, m):
    r1 = xa & ~xb & ya & ~yb
    r0 = (~xa & ~xb | ~ya & ~yb) & m
    rx = ~(r0 | r1) & m
    return r1 | rx, rx


def or_(xa, xb, ya, yb, m):
    r1 = (xa & ~xb) | (ya & ~yb)
    r0 = ~xa & ~xb & ~ya & ~yb & m
    rx = ~(r0 | r1) & m
    return r1 | rx, rx


def xor_(xa, xb, ya, yb, m):
    rx = xb | yb
    return ((xa ^ ya) & ~rx & m) | rx, rx


def xnor_(xa, xb, ya, yb, m):
    return not_(*xor_(xa, xb, ya, yb, m), m)


def not_(a, b, m):
    return (~a & ~b & m) | b, b


# -- reductions and logical operators -> 1 bit -------------------------
def reduce_and(a, b, m):
    if ~a & ~b & m:
        return ZERO
    return XZ1 if b else ONE


def reduce_or(a, b, m):
    if a & ~b:
        return ONE
    return XZ1 if b else ZERO


def reduce_xor(a, b, m):
    return XZ1 if b else (bin(a).count("1") & 1, 0)


def reduce_nand(a, b, m):
    return not_(*reduce_and(a, b, m), 1)


def reduce_nor(a, b, m):
    return not_(*reduce_or(a, b, m), 1)


def reduce_xnor(a, b, m):
    return not_(*reduce_xor(a, b, m), 1)


def truth(a: int, b: int) -> int:
    """1 with a known-1 bit, 0 when all known and zero, else 2 (x)."""
    if a & ~b:
        return 1
    return 2 if b else 0


def log_not(a, b):
    return (ONE, ZERO, XZ1)[truth(a, b)]


def log_and(xa, xb, ya, yb):
    x, y = truth(xa, xb), truth(ya, yb)
    if x == 0 or y == 0:
        return ZERO
    return ONE if x == y == 1 else XZ1


def log_or(xa, xb, ya, yb):
    x, y = truth(xa, xb), truth(ya, yb)
    if x == 1 or y == 1:
        return ONE
    return ZERO if x == y == 0 else XZ1


# -- arithmetic: an x/z bit in any operand makes the result all x ------
def add(xa, xb, ya, yb, m):
    return (m, m) if xb | yb else ((xa + ya) & m, 0)


def sub(xa, xb, ya, yb, m):
    return (m, m) if xb | yb else ((xa - ya) & m, 0)


def mul(xa, xb, ya, yb, m):
    return (m, m) if xb | yb else ((xa * ya) & m, 0)


def _quotient_operands(xa, xb, ya, yb, m, signed):
    """Division operands as ints, None for an x/z operand or a zero
    divisor (both give all x)."""
    if xb | yb or not ya:
        return None
    if signed:
        w = m.bit_length()
        return signed_value(xa, w), signed_value(ya, w)
    return xa, ya


def div(xa, xb, ya, yb, m, signed):
    """Truncates toward zero; by zero, all x."""
    ops = _quotient_operands(xa, xb, ya, yb, m, signed)
    if ops is None:
        return m, m
    x, y = ops
    q = abs(x) // abs(y)
    return (-q if (x < 0) != (y < 0) else q) & m, 0


def mod(xa, xb, ya, yb, m, signed):
    """The remainder takes the dividend's sign; by zero, all x."""
    ops = _quotient_operands(xa, xb, ya, yb, m, signed)
    if ops is None:
        return m, m
    x, y = ops
    r = abs(x) % abs(y)
    return (-r if x < 0 else r) & m, 0


def pow_(xa, xb, ya, yb, w, signed, yw, ysigned):
    """``x ** y`` at width ``w``; the exponent is ``yw`` bits wide, read
    with its own sign."""
    m = (1 << w) - 1
    if xb | yb:
        return m, m
    base = signed_value(xa, w) if signed else xa
    exp = signed_value(ya, yw) if ysigned else ya
    if exp < 0:
        if base in (1, -1):
            return base ** (-exp & 1 or 2) & m, 0
        return (m, m) if base == 0 else ZERO
    return pow(base, exp, 1 << w), 0


def neg(a, b, m):
    return (m, m) if b else (-a & m, 0)


def plus(a, b, m):
    return (m, m) if b else (a, 0)


# -- shifts by an unsigned, self-determined amount (na, nb) ------------
def shl(a, b, m, na, nb):
    if nb:
        return m, m
    if na >= m.bit_length():
        return ZERO
    return (a << na) & m, (b << na) & m


def shr(a, b, m, na, nb):
    if nb:
        return m, m
    return a >> na, b >> na


def ashr(a, b, m, na, nb):
    """Signed ``>>>``: the MSB, known or not, fills the vacated bits."""
    if nb:
        return m, m
    w = m.bit_length()
    n = min(na, w)
    fill = m & ~(m >> n)
    a2, b2 = a >> n, b >> n
    if a >> (w - 1) & 1:
        a2 |= fill
    if b >> (w - 1) & 1:
        b2 |= fill
    return a2, b2


# -- comparisons -> 1 bit ----------------------------------------------
def eq(xa, xb, ya, yb):
    if xb | yb:
        return XZ1
    return ONE if xa == ya else ZERO


def neq(xa, xb, ya, yb):
    if xb | yb:
        return XZ1
    return ZERO if xa == ya else ONE


def case_eq(xa, xb, ya, yb):
    return ONE if xa == ya and xb == yb else ZERO


def case_neq(xa, xb, ya, yb):
    return ZERO if xa == ya and xb == yb else ONE


RELATIONS = {"<": int.__lt__, "<=": int.__le__, ">": int.__gt__,
              ">=": int.__ge__}


def compare(xa, xb, ya, yb, w, signed, op):
    """``<``, ``<=``, ``>`` or ``>=``: x when either side has x/z."""
    if xb | yb:
        return XZ1
    if signed:
        xa, ya = signed_value(xa, w), signed_value(ya, w)
    return ONE if RELATIONS[op](xa, ya) else ZERO


# Slot writers: Bits overrides __setattr__ to stay immutable.
_set_width = Bits.width.__set__
_set_aval = Bits.aval.__set__
_set_bval = Bits.bval.__set__
_set_signed = Bits.signed.__set__
_new = object.__new__


def box(width: int, aval: int, bval: int, signed: bool) -> Bits:
    """A Bits over planes already masked to ``width`` (no checks: the
    fast path for values computed on planes)."""
    v = _new(Bits)
    _set_width(v, width)
    _set_aval(v, aval)
    _set_bval(v, bval)
    _set_signed(v, signed)
    return v


# Intern tables for from_int / xes (bounded: values < 256, widths
# <= 64).
_interned: dict = {}
_interned_xes: dict = {}


# ----------------------------------------------------------------------
# Literal parsing
# ----------------------------------------------------------------------
_BASE_BITS = {"b": 1, "o": 3, "h": 4}
_DIGITS = {
    "b": "01xz?",
    "o": "01234567xz?",
    "h": "0123456789abcdefxz?",
}


def parse_literal(text: str, loc_hint: str = "") -> Bits:
    """Parse a Verilog numeric literal such as ``8'hFF``, ``'b1x0z``,
    ``4'sd7`` or plain ``42`` into a :class:`Bits`.

    Plain decimal literals are unsized (32-bit signed, per the spec).
    """
    s = text.strip().replace("_", "").lower()
    if not s:
        raise BitsError(f"empty literal {loc_hint}")
    if "'" not in s:
        try:
            value = int(s, 10)
        except ValueError:
            raise BitsError(f"bad decimal literal {text!r} {loc_hint}") from None
        return Bits.from_int(value, 32, signed=True)

    size_part, rest = s.split("'", 1)
    width = None
    if size_part:
        width = int(size_part)
        if width <= 0:
            raise BitsError(f"literal width must be positive in {text!r}")
    signed = False
    if rest[:1] == "s":
        signed = True
        rest = rest[1:]
    if not rest:
        raise BitsError(f"missing base in literal {text!r} {loc_hint}")
    base = rest[0]
    digits = rest[1:]
    if base == "d":
        if not digits:
            raise BitsError(f"missing digits in literal {text!r}")
        if digits in ("x", "z", "?"):
            w = width or 32
            return (Bits.xes(w) if digits == "x" else Bits.zs(w))
        try:
            value = int(digits, 10)
        except ValueError:
            raise BitsError(f"bad decimal digits in {text!r} {loc_hint}") from None
        w = width or 32
        b = Bits.from_int(value, w, signed)
        return b
    if base not in _BASE_BITS:
        raise BitsError(f"unknown base {base!r} in literal {text!r} {loc_hint}")
    if not digits:
        raise BitsError(f"missing digits in literal {text!r} {loc_hint}")
    per = _BASE_BITS[base]
    aval = bval = 0
    nbits = 0
    for ch in digits:
        if ch not in _DIGITS[base]:
            raise BitsError(f"bad digit {ch!r} in literal {text!r} {loc_hint}")
        aval <<= per
        bval <<= per
        if ch == "x":
            aval |= _mask(per)
            bval |= _mask(per)
        elif ch in ("z", "?"):
            bval |= _mask(per)
        else:
            aval |= int(ch, 16)
        nbits += per
    natural = Bits(max(nbits, 1), aval, bval, signed)
    if width is None:
        width = max(nbits, 32)
    return natural.extend(width) if width >= natural.width \
        else natural.resize(width)
