"""Span tracer for one qpic process, installed from outside the program.

``Tracer.install`` wraps the public functions of each qpic library module
(plus ``ElementMatrix.evaluate``) and rebinds every ``qpic.*`` module
attribute that holds one of them, so a name imported elsewhere with
``from .dispersion import index`` is traced too. Each call records a span
(name, start, end, parent) in memory; ``dump`` writes them when the
process ends. ``process_metrics`` turns one process's spans into the
benchmark's per-layer figures.

Spans nest strictly because qpic runs single-threaded here (the benchmark
unsets ``QPIC_THREADS``), so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("circuit", "cmt", "detection", "dispersion", "elements", "source")
METHODS = {"elements": ("ElementMatrix.evaluate",)}
ROOT_SPAN = "cli.main"
ROOT_FINDERS = ("dispersion.degenerate_wavelength",
                "dispersion.pc_matched_wavelength", "dispersion.tuning_curve")

# span name -> (parameter whose size is counted, counter name)
ARGUMENT_COUNTS = {
    "dispersion.index": ("wavelength", "dispersion.index_points"),
    "detection.hom_scan": ("delay_values", "detection.probes"),
}
# span name -> counter of the returned arrays' bytes (computed, not measured)
RESULT_BYTES = {
    "elements.ElementMatrix.evaluate": "elements.matrix_bytes",
}


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        n = 1
        for dim in shape:
            n *= dim
        return n
    try:
        return len(value)
    except TypeError:
        return 1


class Tracer:
    """Records spans of wrapped qpic calls in one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name id, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list = []  # (owner, attribute, original)

    def span(self, name: str, fn, count=None):
        """Return ``fn`` wrapped so that each call records a span."""
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if count is not None:
                count(args, kwargs, result)
            return result

        return traced

    def _counter(self, name, fn):
        """Counting hook for the span ``name``, or None."""
        counts = self.counts
        if name in ARGUMENT_COUNTS:
            param, key = ARGUMENT_COUNTS[name]
            params = list(inspect.signature(fn).parameters)
            if param not in params:
                self.absent.append(key)
                return None
            position = params.index(param)
            counts[key] = 0

            def count(args, kwargs, result):
                value = kwargs[param] if param in kwargs else args[position]
                counts[key] += _size(value)

            return count
        if name in RESULT_BYTES:
            key = RESULT_BYTES[name]
            counts[key] = 0

            def count(args, kwargs, result):
                counts[key] += int(getattr(result, "nbytes", 0))

            return count
        return None

    def install(self):
        """Wrap the library's public functions at every qpic binding."""
        replacements = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qpic.{layer}")
            if module is None:
                self.absent.append(f"{layer}.*")
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                replacements[id(obj)] = (obj, self.span(
                    name, obj, self._counter(name, obj)))
            for qualname in METHODS.get(layer, ()):
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(method) if isinstance(cls, type) else None
                if not inspect.isfunction(fn):
                    self.absent.append(f"{layer}.{qualname}")
                    continue
                name = f"{layer}.{qualname}"
                self._rebind(cls, method, self.span(
                    name, fn, self._counter(name, fn)))
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qpic"
                                      or module_name.startswith("qpic.")):
                continue
            for attr, obj in list(vars(module).items()):
                pair = replacements.get(id(obj))
                if pair is not None and pair[0] is obj:
                    self._rebind(module, attr, pair[1])

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counts": self.counts, "absent": self.absent}, fh)


# ---------------------------------------------------------------------------
# analysis of dumped spans

def self_times(spans):
    """Per-span self time: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(spans, names, wanted):
    """Summed duration of spans named in ``wanted`` that have no ancestor
    named in ``wanted`` (so nested calls are not counted twice)."""
    total = 0.0
    for name_id, start, end, parent in spans:
        if names[name_id] not in wanted:
            continue
        while parent >= 0 and names[spans[parent][0]] not in wanted:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def process_metrics(trace: dict) -> dict:
    """Per-layer figures of one process's dumped trace, or None where the
    traced name does not exist in this version of qpic."""
    names, spans = trace["names"], [tuple(s) for s in trace["spans"]]
    counts, absent = trace["counts"], set(trace["absent"])
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(names[span[0]], []).append(i)
    known = set(names)

    def calls(name):
        return len(by_name.get(name, ())) if name in known else None

    def layer_self(layer):
        if f"{layer}.*" in absent:
            return None
        prefix = layer + "."
        return sum(own[i] for n, idx in by_name.items()
                   if n.startswith(prefix) for i in idx)

    def inclusive(*wanted):
        return outermost(spans, names, set(wanted)) \
            if known.issuperset(wanted) else None

    root = [i for i in by_name.get(ROOT_SPAN, ()) if spans[i][3] < 0]
    metrics = {
        "cli.self_s": sum(own[i] for i in root),
        "circuit.self_s": layer_self("circuit"),
        "circuit.compositions": calls("circuit.element_matrices"),
        "elements.evaluations": calls("elements.ElementMatrix.evaluate"),
        "elements.self_s": layer_self("elements"),
        "elements.matrix_bytes": counts.get("elements.matrix_bytes"),
        "dispersion.index_calls": calls("dispersion.index"),
        "dispersion.index_points": counts.get("dispersion.index_points"),
        "dispersion.self_s": layer_self("dispersion"),
        "dispersion.roots_s": inclusive(*ROOT_FINDERS),
        "source.self_s": layer_self("source"),
        "source.jsa_builds": calls("source.build_jsa"),
        "source.build_jsa_s": inclusive("source.build_jsa"),
        "source.marginals_s": inclusive("source.marginal_spectra"),
        "cmt.self_s": layer_self("cmt"),
        "detection.scans": calls("detection.hom_scan"),
        "detection.probes": counts.get("detection.probes"),
        "detection.self_s": layer_self("detection"),
    }
    root_s = sum(spans[i][2] - spans[i][1] for i in root)
    return {"metrics": metrics, "root_s": root_s, "self_sum_s": sum(own)}
