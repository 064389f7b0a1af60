"""Spans around calls into the program's public functions.

A Tracer replaces each traced function, in every newtongraph module that
holds it, by a wrapper that records one span (name, start, end, parent) in
flat in-memory arrays while tracing is enabled; start and end are process
CPU seconds, the clock of the end-to-end times. Nothing inside the package
is edited. Counts that a call's arguments or result already tell (samples,
bisection depth, anchors tried, strayed solves) are derived there, not
traced separately. The spans are written out once, when the run ends.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import process_time

import numpy as np

PACKAGE = "newtongraph"
LAYERS = ("cli", "poly", "dynamics", "rays", "pullback", "combinatorial", "thurston")


# --- derived counts ---------------------------------------------------------


def _ray_samples(tracer, args, kwargs, result, dt):
    tracer.counts["rays.ray_samples"] += sum(len(e.points) for e in result.edges)


def _solve(tracer, args, kwargs, result, dt):
    if result is None:
        tracer.counts["rays.solve_none"] += 1


def _continue(tracer, args, kwargs, result, dt):
    depth = args[5] if len(args) > 5 else kwargs.get("depth", 0)
    if depth > 0:
        tracer.counts["rays.bisect_calls"] += 1


def _level(tracer, args, kwargs, result, dt):
    tracer.totals[f"pullback.level{result.level}_s"] += dt


def _lift_samples(tracer, args, kwargs, result, dt):
    tracer.counts["pullback.lift_samples"] += len(result)


def _orbit_steps(tracer, args, kwargs, result, dt):
    steps = result.steps
    tracer.counts["dynamics.orbit_steps"] += int(steps[steps >= 0].sum())


def _classify_steps(tracer, args, kwargs, result, dt):
    tracer.counts["dynamics.classify_steps"] += result.entry_step or 0


def _anchors(tracer, args, kwargs, result, dt):
    if result is not None:
        tracer.counts["combinatorial.anchors_tried"] += result.dart_bijection[0] + 1
    else:
        tracer.counts["combinatorial.anchors_tried"] += args[1].graph.n_darts


# (module, attribute, observer); a dotted attribute is a method on a class.
SPANS = (
    ("cli", "main", None),
    ("poly", "make_newton_map", None),
    ("poly", "roots_of", None),
    ("poly", "NewtonMap.evaluate_array", None),
    ("dynamics", "critical_orbits", None),
    ("dynamics", "render_basins", _orbit_steps),
    ("dynamics", "Raster.to_ppm", None),
    ("dynamics", "classify_point", _classify_steps),
    ("rays", "channel_diagram", _ray_samples),
    ("rays", "solve_preimage_near", _solve),
    ("rays", "continue_inverse_branch", _continue),
    ("rays", "nearest_edge_point", None),
    ("rays", "geograph_to_json", None),
    ("pullback", "compute_newton_graph", None),
    ("pullback", "pullback_level", _level),
    ("pullback", "lift_edge", _lift_samples),
    ("pullback", "lift_point", None),
    ("pullback", "extract_combinatorial", None),
    ("pullback", "newton_graph_to_json", None),
    ("pullback", "locate_face", None),
    ("combinatorial", "graph_from_json", None),
    ("combinatorial", "graph_to_json", None),
    ("combinatorial", "graphs_equivalent", _anchors),
    ("combinatorial", "validate_newton_graph", None),
    ("thurston", "multicurve_from_json", None),
    ("thurston", "transition_matrix", None),
    ("thurston", "leading_eigenvalue", None),
    ("thurston", "is_irreducible", None),
    ("thurston", "is_irreducible_obstruction", None),
)
# Called far too often for a span each; only counted.
COUNTED = (("sphere", "chordal_distance", "sphere.chordal_calls"),)


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for module, attr, observer in SPANS:
            owner, fname, original = self._resolve(module, attr)
            self._replace(owner, fname, original,
                          self._span(f"{module}.{fname}", original, observer))
        for module, attr, counter in COUNTED:
            owner, fname, original = self._resolve(module, attr)
            self._replace(owner, fname, original, self._counter(counter, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @staticmethod
    def _resolve(module, attr):
        owner = sys.modules[f"{PACKAGE}.{module}"]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        return owner, attr, getattr(owner, attr)

    def _replace(self, owner, attr, original, wrapper):
        """Swap the function in its own namespace and under every name by
        which another module of the package imported it."""
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith(PACKAGE):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        targets.append((mod, name))
        for target, name in targets:
            self._patches.append((target, name, getattr(target, name)))
            setattr(target, name, wrapper)

    def _span(self, name, fn, observer):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer.stack
            i = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(i)
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = process_time()
                stack.pop()
                tracer.start[i] = t0
                tracer.end[i] = t1
            if observer is not None:
                observer(tracer, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _counter(self, counter, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end) if len(self.end) else np.zeros(0)
        return nid, parent, start, end

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost calls only, so a
        recursion is not counted twice), self seconds, and calls without a
        child of the same name; per layer: self seconds."""
        nid, parent, start, end = self.arrays()
        n = len(nid)
        dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        same_as_parent = np.zeros(n, dtype=bool)
        same_as_parent[has_parent] = nid[parent[has_parent]] == nid[has_parent]
        has_same_child = np.zeros(n, dtype=bool)
        has_same_child[parent[same_as_parent]] = True
        spans = {}
        for k, name in enumerate(self.names):
            mine = nid == k
            spans[name] = {
                "calls": int(mine.sum()),
                "inclusive_s": float(dur[mine & ~same_as_parent].sum()),
                "self_s": float(self_time[mine].sum()),
                "leaf_calls": int((mine & ~has_same_child).sum()),
            }
        layers = {layer: 0.0 for layer in LAYERS}
        for name, s in spans.items():
            layers[name.split(".")[0]] += s["self_s"]
        return {"spans": spans, "layers": layers, "root_s": float(dur[~has_parent].sum())}

    def write(self, path: str) -> None:
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=nid,
                            parent=parent, start=start, end=end)
