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

Width discipline: operations here are *self-determined* — callers (the
expression evaluator in :mod:`repro.interp.evaluator`) are responsible for
extending operands to the context-determined width before invoking an
operation, exactly the way a Verilog simulator sizes its intermediates.
"""

from __future__ import annotations

from typing import Iterable, Tuple

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
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "aval", aval & m)
        object.__setattr__(self, "bval", bval & m)
        object.__setattr__(self, "signed", bool(signed))

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

    @classmethod
    def bool_(cls, value) -> "Bits":
        """A 1-bit 0/1 from a Python truthy value."""
        return _TRUE if value else _FALSE

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
        if width < self.width:
            return Bits(width, self.aval, self.bval, self.signed)
        msb_a = (self.aval >> (self.width - 1)) & 1
        msb_b = (self.bval >> (self.width - 1)) & 1
        ext = _mask(width - self.width)
        if msb_b:
            pad_a, pad_b = (ext if msb_a else 0), ext
        elif self.signed and msb_a:
            pad_a, pad_b = ext, 0
        else:
            pad_a, pad_b = 0, 0
        return Bits(width,
                    self.aval | (pad_a << self.width),
                    self.bval | (pad_b << self.width),
                    self.signed)

    def resize(self, width: int) -> "Bits":
        """Zero-extend/truncate regardless of sign (assignment semantics
        use :meth:`extend`; this is the raw reinterpretation)."""
        if width == self.width:
            return self
        return Bits(width, self.aval, self.bval, self.signed)

    def as_signed(self) -> "Bits":
        return Bits(self.width, self.aval, self.bval, True)

    def as_unsigned(self) -> "Bits":
        return Bits(self.width, self.aval, self.bval, False)

    def select(self, i: int) -> "Bits":
        """Single-bit select; out of range yields 1'bx."""
        if not 0 <= i < self.width:
            return Bits.xes(1)
        return Bits(1, (self.aval >> i) & 1, (self.bval >> i) & 1)

    def part(self, msb: int, lsb: int) -> "Bits":
        """Part select [msb:lsb]; out-of-range bits read as x."""
        if msb < lsb:
            raise BitsError(f"part select [{msb}:{lsb}] is reversed")
        width = msb - lsb + 1
        if lsb >= 0 and msb < self.width:
            return Bits(width, self.aval >> lsb, self.bval >> lsb)
        a = b = 0
        for out_i, src_i in enumerate(range(lsb, msb + 1)):
            if 0 <= src_i < self.width:
                a |= ((self.aval >> src_i) & 1) << out_i
                b |= ((self.bval >> src_i) & 1) << out_i
            else:
                a |= 1 << out_i
                b |= 1 << out_i
        return Bits(width, a, b)

    def set_part(self, msb: int, lsb: int, value: "Bits") -> "Bits":
        """A copy with bits [msb:lsb] replaced by ``value`` (resized)."""
        if msb < lsb:
            raise BitsError(f"part select [{msb}:{lsb}] is reversed")
        width = msb - lsb + 1
        v = value.resize(width)
        a, b = self.aval, self.bval
        for out_i, dst_i in enumerate(range(lsb, msb + 1)):
            if 0 <= dst_i < self.width:
                a = (a & ~(1 << dst_i)) | (((v.aval >> out_i) & 1) << dst_i)
                b = (b & ~(1 << dst_i)) | (((v.bval >> out_i) & 1) << dst_i)
        return Bits(self.width, a, b, self.signed)

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
    # Bit-plane helpers
    # ------------------------------------------------------------------
    def _planes(self) -> Tuple[int, int, int, int]:
        """(is0, is1, isxz, mask) planes for this vector."""
        m = _mask(self.width)
        isxz = self.bval
        is1 = self.aval & ~isxz
        is0 = ~self.aval & ~isxz & m
        return is0, is1, isxz, m

    @staticmethod
    def _same_width(a: "Bits", b: "Bits") -> int:
        if a.width != b.width:
            raise BitsError(
                f"width mismatch: {a.width} vs {b.width} "
                "(callers must extend operands to context width)")
        return a.width

    def _result_signed(self, other: "Bits") -> bool:
        return self.signed and other.signed

    # ------------------------------------------------------------------
    # Bitwise operators (4-state, per-bit)
    # ------------------------------------------------------------------
    def and_(self, other: "Bits") -> "Bits":
        w = self._same_width(self, other)
        a0, a1, _, m = self._planes()
        b0, b1, _, _ = other._planes()
        r0 = a0 | b0
        r1 = a1 & b1
        rx = ~(r0 | r1) & m
        return Bits(w, r1 | rx, rx, self._result_signed(other))

    def or_(self, other: "Bits") -> "Bits":
        w = self._same_width(self, other)
        a0, a1, _, m = self._planes()
        b0, b1, _, _ = other._planes()
        r1 = a1 | b1
        r0 = a0 & b0
        rx = ~(r0 | r1) & m
        return Bits(w, r1 | rx, rx, self._result_signed(other))

    def xor_(self, other: "Bits") -> "Bits":
        w = self._same_width(self, other)
        _, _, ax, m = self._planes()
        _, _, bx, _ = other._planes()
        rx = ax | bx
        r1 = (self.aval ^ other.aval) & ~rx & m
        return Bits(w, r1 | rx, rx, self._result_signed(other))

    def xnor_(self, other: "Bits") -> "Bits":
        return self.xor_(other).not_()

    def not_(self) -> "Bits":
        _, _, rx, m = self._planes()
        r1 = ~self.aval & ~rx & m
        return Bits(self.width, r1 | rx, rx, self.signed)

    # ------------------------------------------------------------------
    # Reduction operators -> 1 bit
    # ------------------------------------------------------------------
    def reduce_and(self) -> "Bits":
        is0, _, isxz, m = self._planes()
        if is0:
            return Bits(1, 0, 0)
        if isxz:
            return Bits.xes(1)
        return Bits(1, 1, 0)

    def reduce_or(self) -> "Bits":
        _, is1, isxz, _ = self._planes()
        if is1:
            return Bits(1, 1, 0)
        if isxz:
            return Bits.xes(1)
        return Bits(1, 0, 0)

    def reduce_xor(self) -> "Bits":
        if self.bval:
            return Bits.xes(1)
        return Bits(1, bin(self.aval).count("1") & 1, 0)

    def reduce_nand(self) -> "Bits":
        return self.reduce_and().not_()

    def reduce_nor(self) -> "Bits":
        return self.reduce_or().not_()

    def reduce_xnor(self) -> "Bits":
        return self.reduce_xor().not_()

    # ------------------------------------------------------------------
    # Logical operators -> 1 bit
    # ------------------------------------------------------------------
    def log_not(self) -> "Bits":
        if bool(self):
            return Bits(1, 0, 0)
        if self.has_xz and (self.aval & ~self.bval) == 0:
            # No known-1 bit, but x/z bits could be 1 -> unknown.
            return Bits.xes(1)
        return Bits(1, 1, 0)

    def _truth(self) -> str:
        """'1', '0' or 'x' truthiness for logical operators."""
        if self.aval & ~self.bval:
            return "1"
        if self.bval:
            return "x"
        return "0"

    def log_and(self, other: "Bits") -> "Bits":
        a, b = self._truth(), other._truth()
        if a == "0" or b == "0":
            return Bits(1, 0, 0)
        if a == "1" and b == "1":
            return Bits(1, 1, 0)
        return Bits.xes(1)

    def log_or(self, other: "Bits") -> "Bits":
        a, b = self._truth(), other._truth()
        if a == "1" or b == "1":
            return Bits(1, 1, 0)
        if a == "0" and b == "0":
            return Bits(1, 0, 0)
        return Bits.xes(1)

    # ------------------------------------------------------------------
    # Arithmetic (x/z in any operand -> all-x result)
    # ------------------------------------------------------------------
    def _arith_ints(self, other: "Bits") -> Tuple[int, int, bool] | None:
        self._same_width(self, other)
        if self.bval or other.bval:
            return None
        signed = self._result_signed(other)
        if signed:
            return self.as_signed().to_int(), other.as_signed().to_int(), True
        return self.aval, other.aval, False

    def add(self, other: "Bits") -> "Bits":
        ops = self._arith_ints(other)
        if ops is None:
            return Bits.xes(self.width)
        a, b, signed = ops
        return Bits.from_int(a + b, self.width, signed)

    def sub(self, other: "Bits") -> "Bits":
        ops = self._arith_ints(other)
        if ops is None:
            return Bits.xes(self.width)
        a, b, signed = ops
        return Bits.from_int(a - b, self.width, signed)

    def mul(self, other: "Bits") -> "Bits":
        ops = self._arith_ints(other)
        if ops is None:
            return Bits.xes(self.width)
        a, b, signed = ops
        return Bits.from_int(a * b, self.width, signed)

    def div(self, other: "Bits") -> "Bits":
        ops = self._arith_ints(other)
        if ops is None or ops[1] == 0:
            return Bits.xes(self.width)
        a, b, signed = ops
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        return Bits.from_int(q, self.width, signed)

    def mod(self, other: "Bits") -> "Bits":
        ops = self._arith_ints(other)
        if ops is None or ops[1] == 0:
            return Bits.xes(self.width)
        a, b, signed = ops
        r = abs(a) % abs(b)
        if a < 0:
            r = -r
        return Bits.from_int(r, self.width, signed)

    def pow(self, other: "Bits") -> "Bits":
        if self.bval or other.bval:
            return Bits.xes(self.width)
        base = self.to_int() if self.signed else self.aval
        exp = other.to_int() if other.signed else other.aval
        if exp < 0:
            if base in (1, -1):
                return Bits.from_int(base ** (-exp & 1 or 2), self.width,
                                     self.signed)
            return Bits.xes(self.width) if base == 0 else \
                Bits.from_int(0, self.width, self.signed)
        return Bits.from_int(pow(base, exp, 1 << self.width), self.width,
                             self.signed)

    def neg(self) -> "Bits":
        if self.bval:
            return Bits.xes(self.width)
        return Bits.from_int(-self.to_int_xz() if self.signed else -self.aval,
                             self.width, self.signed)

    def plus(self) -> "Bits":
        if self.bval:
            return Bits.xes(self.width)
        return self

    # ------------------------------------------------------------------
    # Shifts
    # ------------------------------------------------------------------
    def _shift_amount(self, other: "Bits") -> int | None:
        if other.bval:
            return None
        return other.aval  # shift amounts are unsigned per spec

    def shl(self, other: "Bits") -> "Bits":
        n = self._shift_amount(other)
        if n is None:
            return Bits.xes(self.width)
        if n >= self.width:
            return Bits(self.width, 0, 0, self.signed)
        return Bits(self.width, self.aval << n, self.bval << n, self.signed)

    def shr(self, other: "Bits") -> "Bits":
        n = self._shift_amount(other)
        if n is None:
            return Bits.xes(self.width)
        if n >= self.width:
            return Bits(self.width, 0, 0, self.signed)
        return Bits(self.width, self.aval >> n, self.bval >> n, self.signed)

    def ashr(self, other: "Bits") -> "Bits":
        """>>> : arithmetic when the left operand is signed."""
        n = self._shift_amount(other)
        if n is None:
            return Bits.xes(self.width)
        if not self.signed:
            return self.shr(other)
        n = min(n, self.width)
        msb_a = (self.aval >> (self.width - 1)) & 1
        msb_b = (self.bval >> (self.width - 1)) & 1
        fill = _mask(n) << (self.width - n) if n else 0
        a = self.aval >> n
        b = self.bval >> n
        if msb_a:
            a |= fill
        if msb_b:
            b |= fill
        return Bits(self.width, a, b, True)

    # ------------------------------------------------------------------
    # Relational / equality -> 1 bit
    # ------------------------------------------------------------------
    def eq(self, other: "Bits") -> "Bits":
        self._same_width(self, other)
        if self.bval or other.bval:
            return Bits.xes(1)
        return Bits.bool_(self.aval == other.aval)

    def neq(self, other: "Bits") -> "Bits":
        return self.eq(other).log_not()

    def case_eq(self, other: "Bits") -> "Bits":
        self._same_width(self, other)
        return Bits.bool_(self.aval == other.aval and self.bval == other.bval)

    def case_neq(self, other: "Bits") -> "Bits":
        return Bits.bool_(not bool(self.case_eq(other)))

    def _relational(self, other: "Bits", op) -> "Bits":
        ops = self._arith_ints(other)
        if ops is None:
            return Bits.xes(1)
        a, b, _ = ops
        return Bits.bool_(op(a, b))

    def lt(self, other: "Bits") -> "Bits":
        return self._relational(other, lambda a, b: a < b)

    def le(self, other: "Bits") -> "Bits":
        return self._relational(other, lambda a, b: a <= b)

    def gt(self, other: "Bits") -> "Bits":
        return self._relational(other, lambda a, b: a > b)

    def ge(self, other: "Bits") -> "Bits":
        return self._relational(other, lambda a, b: a >= b)

    # ------------------------------------------------------------------
    # casez / casex wildcard matching
    # ------------------------------------------------------------------
    def matches(self, pattern: "Bits", wild_x: bool) -> bool:
        """casez (wild_x=False): z bits in either side are wildcards.
        casex (wild_x=True): x and z bits in either side are wildcards."""
        self._same_width(self, pattern)
        m = _mask(self.width)
        if wild_x:
            wild = self.bval | pattern.bval
        else:
            z_self = ~self.aval & self.bval
            z_pat = ~pattern.aval & pattern.bval
            wild = (z_self | z_pat) & m
        care = ~wild & m
        return (self.aval & care) == (pattern.aval & care) and \
            (self.bval & care) == (pattern.bval & care)


# Intern tables for from_int / xes (bounded: values < 256, widths
# <= 64) and the two 1-bit logical results.
_interned: dict = {}
_interned_xes: dict = {}
_FALSE = Bits(1, 0, 0)
_TRUE = Bits(1, 1, 0)


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
