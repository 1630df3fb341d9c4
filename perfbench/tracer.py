"""Outside-in tracing of spinelab: wrap public functions, record spans.

A ``Tracer`` keeps every span in memory as four parallel arrays (name id,
parent index, start, end), in the order the spans were entered, so a
parent always precedes its children.  ``install`` rebinds the public
functions of the traced modules, and every name under which another
spinelab module imported them, to recording wrappers; the returned
``Installation`` undoes exactly that.  ``summarize`` turns the spans into
per-name call counts, self times and inclusive times.

Self time of a span is its duration minus the time covered by its child
spans.  Inclusive time of a name counts only its outermost spans, so a
function that reaches itself again through a wrapper is not counted twice.
Generator functions are counted, not timed: their body runs while the
caller iterates, so that time stays with the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = (
    "graphs",
    "symmetry",
    "spine",
    "equivariant",
    "linalg",
    "series",
    "algebra",
    "assembly",
    "verification",
    "report",
)

# methods wrapped in addition to module-level functions; both record as
# "algebra.matrix_in_degree"
TRACED_METHODS = (
    ("algebra", "AlgebraMorphism", "matrix_in_degree"),
    ("algebra", "ProductMorphism", "matrix_in_degree"),
)


def _truthy(counts, name, args, result):
    if result:
        counts[name + ".true"] += 1


def _result_len(counts, name, args, result):
    counts[name + ".items"] += len(result)


def _matrix_entries(counts, name, args, result):
    matrix = args[0]
    counts[name + ".entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


# extra counts taken from a call's arguments or result, by span name
RESULT_COUNTERS = {
    "graphs.is_admissible": _truthy,
    "equivariant.equivariant_isomorphic": _truthy,
    "spine.enumerate_admissible": _result_len,
    "linalg.rref": _matrix_entries,
}


# the per-span arrays and their typecodes, in the order a span file holds them
SPAN_FIELDS = (("name_ids", "i"), ("parents", "i"), ("starts", "d"), ("ends", "d"))


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        for field, typecode in SPAN_FIELDS:
            setattr(self, field, array(typecode))
        self.counts: Counter = Counter()
        self.current = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """A function that calls ``fn`` inside a span named ``name``."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_counted(name, fn)
        nid = self.name_id(name)
        on_result = RESULT_COUNTERS.get(name)
        clock = self.clock
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            index = len(starts)
            parent = self.current
            name_ids.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            self.current = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.current = parent
                starts[index] = start
                ends[index] = end
            if on_result is not None:
                on_result(self.counts, name, args, result)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_counted(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def dump(self, path: str) -> None:
        """Write every span and count: a JSON header line, then raw arrays."""
        header = {"names": self.names, "counts": dict(self.counts), "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in SPAN_FIELDS:
                getattr(self, field).tofile(fh)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        out = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            for name in header["names"]:
                out.name_id(name)
            out.counts.update(header["counts"])
            for field, typecode in SPAN_FIELDS:
                arr = array(typecode)
                arr.fromfile(fh, header["spans"])
                setattr(out, field, arr)
        return out

    def summarize(self) -> dict:
        """Per span name: ``calls``, ``self_s`` and outermost ``total_s``."""
        n = len(self.starts)
        names, name_ids, parents = self.names, self.name_ids, self.parents
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = parents[i]
            if parent >= 0:
                covered[parent] += durations[i]

        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in names}
        open_spans: list = []
        open_names: Counter = Counter()
        for i in range(n):
            parent = parents[i]
            while open_spans and open_spans[-1] != parent:
                open_names[name_ids[open_spans.pop()]] -= 1
            nid = name_ids[i]
            entry = stats[names[nid]]
            entry["calls"] += 1
            entry["self_s"] += durations[i] - covered[i]
            if open_names[nid] == 0:
                entry["total_s"] += durations[i]
            open_spans.append(i)
            open_names[nid] += 1
        return stats


class Installation:
    """The rebindings made by ``install``; ``undo`` restores the originals."""

    def __init__(self):
        self.rebound: list = []

    def undo(self) -> None:
        for owner, attr, original in reversed(self.rebound):
            setattr(owner, attr, original)
        self.rebound.clear()


def public_functions(module) -> dict:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


def install(tracer: Tracer) -> Installation:
    """Wrap the public functions of ``TRACED_MODULES`` and rebind every alias.

    Every loaded spinelab module (and the package itself) is searched for
    attributes that are one of the wrapped functions, and each is rebound
    to the same wrapper, so ``from spinelab.symmetry import canonical_form``
    elsewhere records under ``symmetry.canonical_form``.
    """
    wrappers = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"spinelab.{short}")
        for attr, fn in public_functions(module).items():
            wrappers[fn] = tracer.wrap(f"{short}.{attr}", fn)

    done = Installation()
    loaded = [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "spinelab" or name.startswith("spinelab."))
    ]
    for module in loaded:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                done.rebound.append((module, attr, value))
                setattr(module, attr, wrappers[value])

    for short, cls_name, method in TRACED_METHODS:
        owner = getattr(sys.modules[f"spinelab.{short}"], cls_name)
        original = vars(owner)[method]
        done.rebound.append((owner, method, original))
        setattr(owner, method, tracer.wrap(f"{short}.{method}", original))
    return done
