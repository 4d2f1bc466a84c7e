"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of csviu's modules from outside
the package: each wrapper is bound under every name that already holds
the original function in any loaded ``csviu`` module, so calls made
through ``from .ops import operator_matrix`` in solver or stability are
traced as well.  ``uninstall`` puts the originals back, so untraced jobs
run the unmodified program.

A span has a name, start, end, parent span, job id and, for a few
functions, CPU seconds and a note on the result; spans stay in memory
until ``write`` is called.  Only calls from the thread that created the
tracer are recorded (the program calls its public functions from the
main thread; its worker threads run private helpers), which keeps one
parent stack valid.  Functions a later version of the program removes
are simply not wrapped and are listed by ``absent`` instead of failing
the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
import time
from array import array

#: csviu modules whose public functions are wrapped, in layer order.
LAYERS = ("model", "ops", "solver", "stability", "norms", "sim", "cli")

#: Span-level results recorded for the derived per-layer ratios.
NOTES = {
    "stability.search_detectability": lambda r: bool(getattr(r, "detectable", False)),
    "norms.vanishing_discount_sweep": lambda rows: len(rows),
    "sim.simulate_paths": lambda ens: sum(
        v.nbytes for v in vars(ens).values() if hasattr(v, "nbytes")
    ),
}

#: Public functions too small to trace: the wrapper would cost more
#: than the call.
SKIP = frozenset({"ops.sym_dim"})

#: Spans that also record process CPU time (to expose thread use).
CPU_SPANS = frozenset({"sim.simulate_paths"})


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    found = {}
    for name in names:
        fn = getattr(module, name, None)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            found[name] = fn
    return found


class Tracer:
    """Wraps csviu's public functions and records their spans.

    Spans are stored by column in arrays, which the garbage collector
    never scans, so a long traced run does not slow down as it grows.
    """

    def __init__(self, expected):
        """``expected`` lists the qualified names the metrics rely on."""
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job_of = array("q")
        self.cpu = {}
        self.note = {}
        self.job = -1
        self._stack = []
        self._owner = threading.get_ident()
        self._targets = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"csviu.{layer}")
            except ImportError:
                continue
            for name, fn in _public_functions(module).items():
                if f"{layer}.{name}" not in SKIP:
                    self._targets[f"{layer}.{name}"] = fn
        self.absent = sorted(q for q in expected if q not in self._targets)
        self._wrappers = {
            id(fn): self._wrap(qname, fn) for qname, fn in self._targets.items()
        }
        self._bound = []

    def _wrap(self, qname, fn):
        names, start, end, parent, job_of = self.names, self.start, self.end, self.parent, self.job_of
        stack, owner, cpu, notes = self._stack, self._owner, self.cpu, self.note
        clock, cpu_clock, thread_id = time.perf_counter, time.process_time, threading.get_ident
        note = NOTES.get(qname)
        with_cpu = qname in CPU_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if thread_id() != owner:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(qname)
            parent.append(stack[-1] if stack else -1)
            job_of.append(self.job)
            end.append(0.0)
            stack.append(index)
            cpu0 = cpu_clock() if with_cpu else 0.0
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                if with_cpu:
                    cpu[index] = cpu_clock() - cpu0
                stack.pop()
            if note is not None:
                notes[index] = note(result)
            return result

        return wrapper

    def install(self):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "csviu" or name.startswith("csviu.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._bound.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in self._bound:
            setattr(module, attr, value)
        self._bound.clear()

    def __len__(self):
        return len(self.names)

    def duration(self, i):
        return self.end[i] - self.start[i]

    def indices(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def stats(self):
        """Per-name calls, total duration and self time.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_time = [0.0] * len(self)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.duration(i)
        stats = {}
        for i, name in enumerate(self.names):
            entry = stats.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["wall_s"] += self.duration(i)
            entry["self_s"] += self.duration(i) - child_time[i]
        return stats

    def count_under(self, inner, outer):
        """Number of ``inner`` spans that have an ``outer`` ancestor."""
        count = 0
        for i in self.indices(inner):
            p = self.parent[i]
            while p >= 0 and self.names[p] != outer:
                p = self.parent[p]
            count += p >= 0
        return count

    def write(self, path):
        """Write the spans as gzip'd JSON lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fields = ["name", "start", "end", "parent", "job", "cpu_s", "note"]
            fh.write(json.dumps({"fields": fields}) + "\n")
            for i, name in enumerate(self.names):
                rec = [name, self.start[i], self.end[i], self.parent[i], self.job_of[i],
                       self.cpu.get(i), self.note.get(i)]
                fh.write(json.dumps(rec) + "\n")
