"""Outside-in tracer: spans around gptlab's public functions.

``Tracer.install`` replaces every public function of each traced module with
a wrapper, at every site that binds it: the defining module, each module that
did ``from .x import y``, the package namespace and module-level tables such
as ``statespace.BUILDERS``.  It also wraps the ``Matrix`` methods and a few
named methods and lazy properties (``ReversibleMap.matrix``,
``LriWitness.verify``, ``runner._Env.group``).  ``uninstall`` puts every
original back.  No file of the library changes.

A span is (name, parent, start, end), kept in flat in-memory arrays while the
run lasts.  Spans are recorded only inside an op (``Tracer.op``), so the
harness's own answer checks are not attributed to the library.  A span's self
time is its duration minus the durations of its child spans, so the self
times of all spans of one op add up to the op's wall time.

``arith`` is not wrapped: its calls take about a microsecond, so the wrapper
would dominate them.  Their cost lands in the callers' self time, as does
that of the small vector helpers and the ``Matrix`` shape properties.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("linalg", "lp", "geometry", "statespace", "decompose", "dynamics",
          "interactions", "scenario", "runner", "report", "cli")

# Private functions that are a layer's main loop, wrapped like public ones.
PRIVATE_FUNCTIONS = {"dynamics": ("_search_vertex_maps",)}

# Methods wrapped on their class; None means every method of the class.
METHODS = {
    "linalg": {"Matrix": None},
    "dynamics": {"ReversibleMap": ("matrix", "inverse", "verify")},
    "interactions": {"LriWitness": ("verify",)},
    "runner": {"_Env": ("group",)},
    "report": {"Report": ("to_dict", "to_json"), "CheckRecord": ("to_dict",)},
}

# Public helpers too small to time: their cost stays in the caller.
UNWRAPPED = {"linalg": ("vec", "vadd", "vsub", "vscale", "dot", "kron",
                        "is_zero_vec", "veq")}

ROOT = "bench.op"


def _count_infeasible(counters, result):
    counters["lp.infeasible"] += not result.feasible


def _count_face(counters, result):
    counters["geometry.faces"] += bool(result[0])


def _count_enumeration(counters, result):
    counters["interactions.explored"] += result.explored
    counters["interactions.lris"] += len(result)


def _count_elements(counters, result):
    counters["dynamics.elements"] += len(result)


# Counts read off a call's result at the layer boundary.
RESULT_HOOKS = {
    "lp.solve_equality_feasibility": _count_infeasible,
    "geometry.is_face": _count_face,
    "interactions.enumerate_lris": _count_enumeration,
    "dynamics._search_vertex_maps": _count_elements,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = RESULT_HOOKS.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            if len(stack) == 1:  # outside an op: not recorded
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def op(self):
        """Root span of one timed operation."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(ROOT))
        self.span_parent.append(-1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = perf_counter()
            self._stack.pop()

    # -- installation ----------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _wrap_member(self, raw, name):
        if isinstance(raw, property):
            return property(self._wrap(raw.fget, name), raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, name))
        return self._wrap(raw, name)

    def install(self):
        package = importlib.import_module("gptlab")
        modules = {layer: importlib.import_module(f"gptlab.{layer}") for layer in LAYERS}
        wrappers = {}  # original function -> wrapper
        for layer, mod in modules.items():
            extra = PRIVATE_FUNCTIONS.get(layer, ())
            skip = UNWRAPPED.get(layer, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra) and attr not in skip):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
            for cls_name, members in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                if members is None:
                    members = [m for m, raw in vars(cls).items()
                               if isinstance(raw, staticmethod) or (
                                   inspect.isfunction(raw)
                                   and (not m.startswith("_") or m in ("__matmul__", "__add__", "__sub__")))]
                for member in members:
                    self._set(cls, member,
                              self._wrap_member(vars(cls)[member], f"{layer}.{cls_name}.{member}"))
        # Rebind every site that holds one of the wrapped functions.
        for site in [package, *modules.values()]:
            for attr, obj in list(vars(site).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(site, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            self._set(obj, key, wrappers[value])

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # -- results ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self time and outermost inclusive time, in seconds."""
        names, parents = self.span_name, self.span_parent
        n = len(names)
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        incl_s = [0.0] * len(self.names)
        # Spans are stored in call order, so the open spans at span i are its
        # ancestors; a span nested in one of its own name adds no inclusive time.
        open_spans: list = []
        open_count = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            while open_spans and open_spans[-1] != parents[i]:
                open_count[names[open_spans.pop()]] -= 1
            calls[nid] += 1
            self_s[nid] += dur[i] - child[i]
            if not open_count[nid]:
                incl_s[nid] += dur[i]
            open_spans.append(i)
            open_count[nid] += 1
        return {name: {"calls": calls[k], "self_s": self_s[k], "incl_s": incl_s[k]}
                for k, name in enumerate(self.names) if calls[k]}

    def child_names(self, parent_name: str) -> list:
        """For each span called ``parent_name``, the set of its children's names."""
        pid = self._name_ids.get(parent_name)
        kids: dict = {}
        for i, p in enumerate(self.span_parent):
            if self.span_name[i] == pid:
                kids.setdefault(i, set())
            if p >= 0 and self.span_name[p] == pid:
                kids.setdefault(p, set()).add(self.names[self.span_name[i]])
        return list(kids.values())

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "id": i, "parent": self.span_parent[i],
                    "name": self.names[self.span_name[i]],
                    "start": self.span_start[i], "end": self.span_end[i],
                }) + "\n")

