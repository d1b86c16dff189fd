"""Tier 0's 4-state operator table, checked against the Bits methods.

Hypothesis draws operands with random x/z planes, widths 1-70 and mixed
signedness, runs every operator through the interpreter
(:class:`Simulator`) and compares each ``$display``ed result with the
same operation on :class:`Bits`, its operands extended to the context
width and sign that sizing decides (IEEE 1364-2005 §5.4-§5.5).  The
compiled tiers never see x and pow-tb never reaches these paths, so
this table is what keeps the interpreter's x/z results from changing
silently.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.common.bits import Bits, merge
from repro.interp.sim import Simulator

_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
           "&": "and_", "|": "or_", "^": "xor_", "^~": "xnor_",
           "~^": "xnor_"}
_COMPARE = {"==": "eq", "!=": "neq", "===": "case_eq", "!==": "case_neq",
            "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_SHIFT = {"<<": "shl", "<<<": "shl", ">>": "shr", ">>>": "ashr"}
_UNARY = {"~": "not_", "-": "neg", "+": "plus"}
_REDUCE = {"&": "reduce_and", "~&": "reduce_nand", "|": "reduce_or",
           "~|": "reduce_nor", "^": "reduce_xor", "~^": "reduce_xnor",
           "^~": "reduce_xnor"}
_ONE = Bits.from_int(1, 32, True)     # the literal ``1``


@st.composite
def _value(draw, max_width=70):
    """A vector with random x/z bits: mostly known, sometimes partly or
    wholly unknown."""
    width = draw(st.integers(1, max_width))
    m = (1 << width) - 1
    aval = draw(st.integers(0, m))
    bval = draw(st.sampled_from([0, 0, m, None]))
    if bval is None:
        bval = draw(st.integers(0, m))
    return Bits(width, aval, bval, draw(st.booleans()))


def _at(v: Bits, width: int, signed: bool) -> Bits:
    """``v`` as an operand of a context ``width`` wide and ``signed``."""
    return (v.as_signed() if signed else v.as_unsigned()).extend(width)


def _pair(x: Bits, y: Bits):
    """Two context-determined operands at their shared context."""
    width, signed = max(x.width, y.width), x.signed and y.signed
    return _at(x, width, signed), _at(y, width, signed)


def _decl(name: str, v: Bits) -> str:
    sign = "signed " if v.signed else ""
    return f"reg {sign}[{v.width - 1}:0] {name} = {v.to_verilog()};"


def _ternary(c: Bits, x: Bits, y: Bits) -> Bits:
    cx, cy = _pair(x, y)
    if not c.bval:
        return cx if c.aval else cy
    a, b = merge(cx.aval, cx.bval, cy.aval, cy.bval, (1 << cx.width) - 1)
    return Bits(cx.width, a, b, cx.signed)


def _index(i: Bits):
    """An index value as sizing reads it, None when x/z."""
    if i.bval:
        return None
    return i.to_int() if i.signed else i.aval


def _arm(kind: str, sel: Bits, labels) -> str:
    """The ``$display`` text of the arm a case statement takes."""
    group = [sel] + [v for _, v in labels]
    width = max(v.width for v in group)
    signed = all(v.signed for v in group)
    s = _at(sel, width, signed)
    for text, label in labels:
        v = _at(label, width, signed)
        hit = bool(s.case_eq(v)) if kind == "case" else \
            s.matches(v, kind == "casex")
        if hit:
            return text
    return "default"


def _case(kind: str, sel: str, labels) -> str:
    arms = "".join(f'    {name}: $display("{text}");\n'
                   for text, name in labels)
    return (f"  {kind} ({sel})\n{arms}"
            f'    default: $display("default");\n  endcase\n')


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(x=_value(), y=_value(), c=_value(3), i=_value(8), k=_value(),
       same=st.booleans(), flip=st.integers(0, 69))
def test_tier0_matches_bits(x, y, c, i, k, same, flip):
    # A label equal to the selector, or not, so arms are hit; and one
    # that differs from it only in the x/z plane of one bit.
    k = x if same else k
    near = Bits(x.width, x.aval, x.bval ^ 1 << flip % x.width, x.signed)
    rows = []        # (expression, expected Bits)
    for op, method in _BINARY.items():
        rows.append((f"x {op} y", getattr(_pair(x, y)[0], method)(
            _pair(x, y)[1])))
    for op, method in _COMPARE.items():
        cx, cy = _pair(x, y)
        rows.append((f"x {op} y", getattr(cx, method)(cy)))
    for op, method in _SHIFT.items():
        rows.append((f"x {op} y", getattr(x, method)(y)))
    rows.append(("x ** y", x.pow(y.extend(x.width))))
    for op, method in _UNARY.items():
        rows.append((f"{op}x", getattr(x, method)()))
    for op, method in _REDUCE.items():
        rows.append((f"{op}x", getattr(x, method)()))
    rows += [
        ("!x", x.log_not()),
        ("x && y", x.log_and(y)),
        ("x || y", x.log_or(y)),
        ("c ? x : y", _ternary(c, x, y)),
        # The merged value keeps the expression's sign (§5.5.1).
        ("(c ? x : y) >>> 1", _ternary(c, x, y).ashr(_ONE)),
        ("(x + y) >>> 1", _pair(x, y)[0].add(_pair(x, y)[1]).ashr(_ONE)),
        ("{x, y}", Bits.concat([x, y])),
        ("{3{x}}", x.replicate(3)),
        ("$signed(x) >>> 1", x.as_signed().ashr(_ONE)),
        ("$unsigned(x) >>> 1", x.as_unsigned().ashr(_ONE)),
    ]
    low = _index(i)
    for select, width, start in (("x[i]", 1, 0), ("x[i +: 3]", 3, 0),
                                 ("x[i -: 3]", 3, 2)):
        rows.append((select, Bits.xes(width) if low is None
                     else x.part(low - start + width - 1, low - start)))

    body = "".join(f'  $display("%b", {expr});\n' for expr, _ in rows)
    expected = [v.to_bin() for _, v in rows]
    for kind in ("case", "casez", "casex"):
        labels = [("near", near), ("y", y), ("k", k)]
        body += _case(kind, "x", [(text, text) for text, _ in labels])
        expected.append(_arm(kind, x, labels))
    # All-constant labels: the dict lookup on the selector's planes,
    # where the first of two equal labels wins.
    labels = [("near", near), ("k1", k), ("k2", k)]
    body += _case("case", "x", [(text, v.to_verilog())
                                for text, v in labels])
    expected.append(_arm("case", x, labels))

    source = "module t;\n" + "\n".join(
        _decl(name, v) for name, v in
        (("x", x), ("y", y), ("c", c), ("i", i), ("k", k),
         ("near", near))) + \
        f"\ninitial begin\n{body}  $finish;\nend\nendmodule\n"
    sim = Simulator.from_source(source)
    sim.run()
    got = sim.output_lines
    for n, (want, line) in enumerate(zip(expected, got)):
        assert line == want, (rows[n][0] if n < len(rows) else "case",
                              x, y, c, i, k)
    assert len(got) == len(expected)
