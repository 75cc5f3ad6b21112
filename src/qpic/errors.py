"""Exception taxonomy shared across the simulator, and the readers of the
numbers a public call takes.

Two branches matter to callers: ValidationError for bad inputs and
unreadable files (CLI exit code 2) and NumericalError for computations
that cannot produce a trustworthy number (CLI exit code 3). Each public
call reads its numbers with ``real``, ``reals``, ``finite``, ``axis`` or
``count``, which raise ValidationError for a non-number and RangeError for
a NaN or infinite scalar or point of a ``finite`` array or an axis; range
checks stay with the caller.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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


def real(value, what: str) -> float:
    """``value`` as a float: a ``numbers.Real`` (numpy scalars are, a str
    is not) that is finite (RangeError)."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise RangeError(f"{what} must be finite, got {value}")
    return float(value)


def reals(values, what: str, ndim: int | None = None,
          least: int = 0) -> np.ndarray:
    """``values`` as an array of its floating dtype (np.longdouble kept),
    else as float64; with ``ndim`` given, of that many dimensions and
    ``least`` or more entries. No copy and no finiteness pass: a grid's
    read costs one np.asarray, and range checks catch NaN and inf."""
    try:
        a = np.asarray(values)
    except ValueError:  # a ragged list
        a = np.asarray(None)
    if a.dtype.kind not in "biuf":  # a str, None or a ragged list
        raise ValidationError(f"{what} must be numbers, got {values!r}")
    if ndim is not None and (a.ndim != ndim or a.size < least):
        raise ValidationError(f"{what} must be a {ndim}-D array of {least} "
                              f"or more numbers, got shape {a.shape}")
    return a if a.dtype.kind == "f" else a.astype(float)


def finite(values, what: str, ndim: int | None = None,
           least: int = 0) -> np.ndarray:
    """``reals`` of ``values``, of any shape unless ``ndim`` is given,
    whose every entry must be finite (RangeError)."""
    a = reals(values, what, ndim, least)
    if not np.all(ok := np.isfinite(a)):
        raise RangeError(f"{what} must be finite, got "
                         f"{a.flat[np.argmin(ok)]}")
    return a


def axis(values, what: str, least: int) -> np.ndarray:
    """``finite`` of a 1-D axis of at least ``least`` points, which must
    be strictly increasing."""
    a = finite(values, what, 1, least)
    if not np.all(np.diff(a) > 0.0):
        raise ValidationError(f"{what} must be strictly increasing")
    return a


def count(n, what: str, least: int) -> int:
    """``n`` as an int of at least ``least``."""
    if not isinstance(n, numbers.Integral) or n < least:
        raise ValidationError(f"{what} {n!r} is not an int >= {least}")
    return int(n)
