"""Run one qpic command the way the ``qpic`` entry point does, timing set-up.

Usage: entry.py READY_FILE TRACE_FILE|- [QPIC ARGS...]

This script imports ``qpic.cli`` from this checkout's ``src``, writes the
``time.monotonic()`` reading taken right after that import to READY_FILE
(the harness subtracts its own reading taken before spawning), then calls
``qpic.cli.main`` with QPIC ARGS and exits with its code. Without QPIC ARGS
it only imports: a set-up probe. With a TRACE_FILE it wraps the library
(see tracer.py) after the timestamp and writes the spans there on exit.
"""

import sys
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(_SRC))

import qpic.cli  # noqa: E402  (the import every CLI call pays)

READY = time.monotonic()


def main(argv) -> int:
    ready_file, trace_file, qpic_args = argv[0], argv[1], argv[2:]
    if not Path(qpic.cli.__file__).resolve().is_relative_to(_SRC):
        print(f"entry: imported {qpic.cli.__file__}, not the checkout's "
              f"qpic under {_SRC}", file=sys.stderr)
        return 97
    Path(ready_file).write_text(repr(READY), encoding="utf-8")
    if not qpic_args:
        return 0
    if trace_file == "-":
        return qpic.cli.main(qpic_args)
    from tracer import ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span(ROOT_SPAN, qpic.cli.main)(qpic_args)
    finally:
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
