"""Independent jobs on one forked process per available core.

``forked_map(fn, jobs)`` returns [fn(job) for job in jobs]. It deals the
jobs round robin over min(available cores, jobs) processes made with
POSIX ``fork``, the caller being one of them; the available cores are
those of the process's CPU affinity. Each child runs its share in job
order, up to its first error, sends (ok, result or exception, warnings)
per job back over a pipe with ``pickle``, and ends with ``os._exit``.
Every process runs the same code on the same inputs as the serial loop,
so the results are bit-identical whatever the worker count; one worker
is the caller alone, which forks nothing. The caller reaps every child,
also on error, and raises NumericalError for a child that ended without
its results (killed by a signal, say). It then walks the jobs in order:
it re-issues each job's warnings through its own filters (with the
registry of the module that raised them, as ``warnings.warn`` would), and
raises the first job's error. The one native thread pool of the process,
OpenBLAS's, stops and restarts around a fork by its own atfork handlers.

``detection`` imports this module inside the scans that use it, so that
the commands that run no scan of many jobs compile none of it.
"""

from __future__ import annotations

import os
import pickle
import sys
import warnings

from .errors import NumericalError


def forked_map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs], dealt over one forked process per
    available core; results, warnings and the first error come back in
    job order (see the module docstring)."""
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cores, len(jobs)))
    children = []  # (pid, read end of its pipe) of shares 1, 2, ...
    try:
        for share in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: run its share, send it, and end
                status = 1
                try:
                    os.close(read)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(_outcomes(fn, jobs[share::workers]),
                                    pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        shares = [_outcomes(fn, jobs[::workers])]
        for pid, pipe in children:
            try:
                shares.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise NumericalError(
                    f"worker process {pid} ended without its results") \
                    from None
    finally:
        for pid, pipe in children:
            pipe.close()  # a child still writing gets EPIPE and ends
            os.waitpid(pid, 0)
    results = []
    for i in range(len(jobs)):
        ok, value, caught = shares[i % workers][i // workers]
        _replay(caught)
        if not ok:
            raise value
        results.append(value)
    return results


def _outcomes(fn, jobs: list) -> list:
    """(ok, fn(job) or its exception, its warnings) of each job in turn,
    up to the first that raises; the caller's filters still apply."""
    outcomes = []
    for job in jobs:
        with warnings.catch_warnings(record=True) as caught:
            try:
                ok, value = True, fn(job)
            except Exception as exc:
                ok, value = False, exc
        outcomes.append((ok, value, [(w.message, w.category, w.filename,
                                      w.lineno) for w in caught]))
        if not ok:
            break
    return outcomes


def _replay(caught: list):
    """Issue recorded warnings again, each with the name and registry of
    the module whose file raised it, as ``warnings.warn`` would."""
    if not caught:
        return
    files = {getattr(m, "__file__", None): m
             for m in list(sys.modules.values())}
    for message, category, filename, lineno in caught:
        names = vars(files[filename]) if filename in files else {}
        warnings.warn_explicit(message, category, filename, lineno,
                               names.get("__name__"),
                               names.setdefault("__warningregistry__", {}))
