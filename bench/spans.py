"""In-memory spans around calls into marklat's modules.

A span is ``[name, start, end, parent, op, note]``: perf_counter times,
the index of the enclosing span (or None), the id of the benchmark
operation it belongs to, and an optional value the wrapper records
(the rows of an LP and whether it was infeasible, whether a generator
yielded, ...).  Wrappers are installed on the module attributes that
callers look up at call time, and ``Tracer.restore`` puts the original
functions back.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _lp(args, kwargs, result):
    return [len(args[0]), result is None]


def _representable(args, kwargs, result):
    return 1 if result.representable else 0


# (span name, module the callers look the name up in, attribute, note):
# the span name is the module that defines the function.  A note
# function turns (args, kwargs, result) into the span's note.
FUNCTIONS = [
    ("feasibility.feasible_point", "marklat.boolmaps", "feasible_point", _lp),
    ("weights.induced_map", "marklat.boolmaps", "induced_map", None),
    ("boolmaps.is_representable", "marklat.boolmaps", "is_representable", _representable),
    ("boolmaps.report_to_json", "marklat.boolmaps", "report_to_json", None),
    ("weights.phi_count", "marklat.weights", "phi_count", None),
    ("hasse.build", "marklat.hasse", "build", None),
    ("hasse.to_dot", "marklat.hasse", "to_dot", None),
    ("hasse.diagram_to_json", "marklat.hasse", "diagram_to_json", None),
    ("counting.s_bruteforce", "marklat.counting", "s_bruteforce", None),
    ("counting.s_recursive", "marklat.counting", "s_recursive", None),
    ("counting.s_convolution", "marklat.counting", "s_convolution", None),
] + [
    # every module that imported enumerate_words by name calls its own copy
    ("core.enumerate_words", f"marklat.{mod}", "enumerate_words", None)
    for mod in ("core", "cli", "boolmaps", "weights")
]

# generator functions: one span per next() call, noted 1 when it yields
GENERATORS = [
    ("boolmaps.enumerate_wbm", "marklat.boolmaps", "enumerate_wbm"),
    ("counting.census_rows", "marklat.counting", "census_rows"),
]


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span and return its result and the span."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, perf_counter(), None, parent, self.op, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs), record
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, record = self.span(name, fn, *args, **kwargs)
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        tracer = self

        def step(it):
            try:
                item = next(it)
            except StopIteration:
                return None, False
            return item, True

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))

            def traced():
                while True:
                    (item, more), record = tracer.span(name, step, it)
                    record[5] = 1 if more else 0
                    if not more:
                        return
                    yield item

            return traced()

        return wrapper

    def install(self):
        """Replace every listed function with its traced wrapper."""
        for name, module, attr, note in FUNCTIONS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr), note))
        for name, module, attr in GENERATORS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.wrap_generator(name, getattr(mod, attr)))

    def _patch(self, mod, attr, wrapper):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def restore(self):
        """Put back every original function, last patch first."""
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the time that the union of its child
    spans covers inside it."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out
