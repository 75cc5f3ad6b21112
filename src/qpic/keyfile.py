"""The line format shared by netlists, material files and coupler fits.

``#`` starts a comment and blank lines are skipped. A ``key = value`` line
adds an entry to the current block; keys are case-insensitive. Any other
line is a header (``[section]``, returned as ``[section]`` in lower case,
or ``element <kind>``) that opens a new block; the lines before the first
header form a leading block with header None. Each loader checks its own
schema on the blocks; every error is a NetlistError naming the line, and
the column for a value.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from .errors import NetlistError, ValidationError


def read_blocks(text: str) -> list:
    """``[(header, line, {key: (text, line, column)})]`` in file order."""
    blocks = [(None, None, {})]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if "=" not in stripped:
            if stripped.startswith("["):
                if not stripped.endswith("]"):
                    raise NetlistError("unterminated section header",
                                       line=lineno)
                stripped = f"[{stripped[1:-1].strip().lower()}]"
            blocks.append((stripped, lineno, {}))
            continue
        key, value = line.split("=", 1)
        key = key.strip().lower()
        entries = blocks[-1][2]
        if key in entries:
            raise NetlistError(f"duplicate key {key!r}", line=lineno)
        column = len(line) - len(value.lstrip()) + 1
        entries[key] = (value.strip(), lineno, column)
    return blocks


def check_keys(block, required, optional, what: str):
    """Reject a block key outside ``required | optional`` or a missing
    required key; ``what`` names the block in the message."""
    _, line, entries = block
    for key, (_, kline, _) in entries.items():
        if key not in required and key not in optional:
            raise NetlistError(f"unknown key {key!r} in {what}", line=kline)
    missing = set(required) - set(entries)
    if missing:
        raise NetlistError(f"{what} missing key(s) {sorted(missing)}",
                           line=line)


def number(entry) -> float:
    """The finite float an entry's text spells."""
    text, line, column = entry
    try:
        value = float(text)
    except ValueError:
        raise NetlistError(f"not a number: {text!r}", line=line,
                           column=column) from None
    if not math.isfinite(value):
        raise NetlistError(f"value must be finite: {text!r}", line=line,
                           column=column)
    return value


@contextmanager
def in_file(path):
    """Prefix the message of a NetlistError raised inside with ``path``,
    unless a file read inside (a netlist's material) already named its own."""
    try:
        yield
    except NetlistError as exc:
        if exc.path is None:
            exc.path = path
            exc.args = (f"{path}: {exc}",)
        raise


@contextmanager
def at_line(line):
    """Re-raise a ValidationError raised inside, unless it is a NetlistError
    already, as a NetlistError at ``line``: the key whose value failed a
    check made after the reader."""
    try:
        yield
    except NetlistError:
        raise
    except ValidationError as exc:
        raise NetlistError(str(exc), line=line) from exc
