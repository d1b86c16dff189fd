"""Exception hierarchy shared across the whole system.

Every layer of the stack (lexer, parser, type checker, interpreter,
backend, runtime) raises a subclass of :class:`CascadeError`, so callers
such as the REPL can report any failure uniformly without crashing the
running program.
"""

from __future__ import annotations


class CascadeError(Exception):
    """Base class for every error raised by this package."""


class SourceLocation:
    """A position (line, column) within a named source buffer."""

    __slots__ = ("source_name", "line", "column")

    def __init__(self, source_name: str = "<input>", line: int = 0,
                 column: int = 0):
        self.source_name = source_name
        self.line = line
        self.column = column

    def __repr__(self) -> str:
        return f"{self.source_name}:{self.line}:{self.column}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SourceLocation):
            return NotImplemented
        return (self.source_name, self.line, self.column) == \
            (other.source_name, other.line, other.column)


class VerilogError(CascadeError):
    """An error with a source location, raised by the frontend."""

    def __init__(self, message: str, loc: SourceLocation | None = None):
        self.loc = loc or SourceLocation()
        super().__init__(f"{self.loc}: {message}")
        self.message = message


class LexError(VerilogError):
    """Malformed token in the input stream."""


class ParseError(VerilogError):
    """Input does not conform to the Verilog grammar subset."""


class TypeError_(VerilogError):
    """Semantic error: undeclared name, width mismatch, bad usage."""


class ElaborationError(VerilogError):
    """Error while binding parameters or instantiating modules."""


class EvalError(CascadeError):
    """Runtime error inside the interpreter."""


class SynthesisError(CascadeError):
    """The backend could not lower a construct to gates."""


class PlacementError(SynthesisError):
    """The design does not fit on the target fabric."""

class RoutingError(SynthesisError):
    """The router could not complete all nets."""


class TimingError(SynthesisError):
    """The routed design fails timing closure at the fabric clock."""
