"""Exception taxonomy shared across the simulator.

Two branches matter to callers: ValidationError for bad inputs and
unreadable files (CLI exit code 2) and NumericalError for computations
that cannot produce a trustworthy number (CLI exit code 3).
"""

from __future__ import annotations


class QpicError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(QpicError):
    """Invalid user input: parameters, netlists, CLI arguments."""


class RangeError(ValidationError):
    """A physical parameter left its validity range.

    The message always names the offending value and the limit.
    """


class NetlistError(ValidationError):
    """Syntax or semantic error in a line-format input file (netlist,
    material file, coupler fit), carrying the file position; ``path`` is
    set once a file has been named in the message."""

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.line = line
        self.column = column
        self.path = None
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


class NumericalError(QpicError):
    """A computation failed to converge or left its trusted regime."""


class PhaseMatchError(NumericalError):
    """No phase-matching solution inside the search band."""

