"""Per-layer tracing that wraps tropcount's cross-module calls from outside.

The layers are the package's modules.  Where one module calls a public
function of another, the tracer swaps that name in the calling module's
namespace for a wrapper that records a span: name, start, end and the
enclosing span.  Nothing under src/ changes; `uninstall` puts the original
functions back.  Spans stay in memory until `write` saves them.

A span's self time is its duration minus the durations of its direct
children.  Every traced request starts a root span, so the layer self times
of a phase add up to the summed root spans, and what is left of the phase's
wall time is reported as unattributed.
"""

from __future__ import annotations

import gzip
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("graph", "plane", "enumeration", "moduli_maps", "linalg", "kontsevich", "cli")

# (module whose namespace is patched, attribute, span name).  The span name's
# first component is the layer that owns the function.  A module patched on
# its own attribute (cli.main, enumeration.fiber, ...) is an entry point the
# benchmark calls, or a function the module also calls internally through
# its globals, such as sampled_fiber -> fiber.
HOOKS = (
    ("cli", "main", "cli.main"),
    ("cli", "sampled_fiber", "enumeration.sampled_fiber"),
    ("cli", "fiber", "enumeration.fiber"),
    ("cli", "canonical_plane_form", "plane.canonical_plane_form"),
    ("cli", "plane_curve_to_json", "plane.plane_curve_to_json"),
    ("enumeration", "trivalent_trees_on_leaves", "graph.trivalent_trees_on_leaves"),
    ("enumeration", "derive_directions", "plane.derive_directions"),
    ("enumeration", "canonical_plane_form", "plane.canonical_plane_form"),
    ("enumeration", "ev_matrix", "moduli_maps.ev_matrix"),
    ("enumeration", "pi_matrix", "moduli_maps.pi_matrix"),
    ("enumeration", "ft4_coordinate", "moduli_maps.ft4_coordinate"),
    ("enumeration", "multiplicity", "moduli_maps.multiplicity"),
    ("enumeration", "solve", "linalg.solve"),
    ("enumeration", "base_trees", "enumeration.base_trees"),
    ("enumeration", "pi_config", "enumeration.pi_config"),
    ("enumeration", "fiber", "enumeration.fiber"),
    ("enumeration", "sampled_fiber", "enumeration.sampled_fiber"),
    ("moduli_maps", "det", "linalg.det"),
    ("kontsevich", "fiber", "enumeration.fiber"),
    ("kontsevich", "curve_multiplicity", "enumeration.curve_multiplicity"),
    ("kontsevich", "decompose_reducible", "enumeration.decompose_reducible"),
    ("kontsevich", "forget_points", "moduli_maps.forget_points"),
    ("kontsevich", "image_segments", "plane.image_segments"),
    ("kontsevich", "reducible_census", "kontsevich.reducible_census"),
    ("kontsevich", "tropical_intersection", "kontsevich.tropical_intersection"),
)

# Generator functions: one span per item drawn from them.
GENERATORS = frozenset({"graph.trivalent_trees_on_leaves"})

# Per-layer metrics: (name, unit, better).  Counts and inclusive times cover
# the traced set-up and the traced round; self times, `trace.wall_s` and
# `trace.unattributed_s` cover the traced round only, so that they add up.
METRICS = (
    ("graph.labeled_trees", "count", "lower"),
    ("graph.trees_s", "s", "lower"),
    ("graph.self_s", "s", "lower"),
    ("plane.canonical_calls", "count", "lower"),
    ("plane.canonical_s", "s", "lower"),
    ("plane.directions_s", "s", "lower"),
    ("plane.self_s", "s", "lower"),
    ("enumeration.base_trees_s", "s", "lower"),
    ("enumeration.base_classes", "count", "lower"),
    ("enumeration.fiber_self_s", "s", "lower"),
    ("enumeration.leaves", "count", "lower"),
    ("enumeration.solutions", "count", "higher"),
    ("enumeration.solution_share", "ratio", "higher"),
    ("enumeration.resamples", "count", "lower"),
    ("enumeration.self_s", "s", "lower"),
    ("moduli_maps.ft4_calls", "count", "lower"),
    ("moduli_maps.ft4_s", "s", "lower"),
    ("moduli_maps.pi_matrix_s", "s", "lower"),
    ("moduli_maps.ev_matrix_s", "s", "lower"),
    ("moduli_maps.multiplicity_s", "s", "lower"),
    ("moduli_maps.self_s", "s", "lower"),
    ("linalg.solve_calls", "count", "lower"),
    ("linalg.solve_unique", "count", "higher"),
    ("linalg.solve_s", "s", "lower"),
    ("linalg.det_calls", "count", "lower"),
    ("linalg.det_s", "s", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("kontsevich.census_self_s", "s", "lower"),
    ("kontsevich.intersect_calls", "count", "lower"),
    ("kontsevich.intersect_s", "s", "lower"),
    ("kontsevich.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, timed on a no-op function.

    A traced round and an untraced round of the same requests differ by
    more from machine noise than from the wrappers, so the overhead is
    estimated as spans recorded times this cost.
    """

    def noop():
        return None

    wrapped = Tracer()._wrap("calibration", noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return max(time.perf_counter() - start - plain, 0.0) / calls


class Tracer:
    """Span recorder for one traced run, bound to one import of tropcount."""

    def __init__(self, modules=None):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.base_classes: dict = {}
        self.phases: dict = {}  # phase -> (first span, end span, start, end)
        self._patches = []
        for mod_name, attr, span in HOOKS if modules is not None else ():
            mod = getattr(modules, mod_name)
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original, self._wrap(span, original)))

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        if name in GENERATORS:
            return self._wrap_generator(name, fn)
        by_kind = name == "enumeration.fiber"
        open_, close, counters = self._open, self._close, self.counters

        def wrapper(*args, **kwargs):
            span = f"{name}.{str(args[0]).lower()}" if by_kind else name
            idx = open_(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if by_kind and type(exc).__name__ == "GeneralPositionViolation":
                    counters["enumeration.resamples"] += 1
                raise
            close(idx)
            if name == "linalg.solve" and result.status == "unique":
                counters["linalg.solve_unique"] += 1
            elif by_kind:
                counters["enumeration.solutions"] += len(result)
            elif name == "enumeration.base_trees":
                self.base_classes[args[0]] = len(result)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        open_, close, counters = self._open, self._close, self.counters

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                idx = open_(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    close(idx)
                counters[name] += 1
                yield item

        return wrapper

    def install(self):
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    @contextmanager
    def phase(self, label):
        """Install the wrappers for one phase and record its span range."""
        first = len(self.starts)
        self.install()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.uninstall()
            self.phases[label] = (first, len(self.starts), start, end)

    # -- analysis ----------------------------------------------------------

    def _span_range(self, *labels):
        for label in labels:
            first, last, _, _ = self.phases[label]
            yield from range(first, last)

    def per_layer(self) -> dict:
        """Every per-layer metric, from the 'setup' and 'round' phases."""
        names, parents = self.names, self.parents
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        calls: Counter = Counter()
        incl: defaultdict = defaultdict(float)
        leaves = 0
        for i in self._span_range("setup", "round"):
            n = names[i]
            calls[n] += 1
            incl[n] += dur[i]
            p = parents[i]
            parent = names[p] if p >= 0 else None
            if (n == "plane.canonical_plane_form" and parent == "enumeration.fiber.ev") or (
                n == "moduli_maps.ft4_coordinate" and parent == "enumeration.fiber.pi"
            ):
                leaves += 1

        first, last, r0, r1 = self.phases["round"]
        self_time = {}
        for i in range(first, last):
            self_time[i] = self_time.get(i, 0.0) + dur[i]
            p = parents[i]
            if p >= 0:
                self_time[p] = self_time.get(p, 0.0) - dur[i]
        layer_self: defaultdict = defaultdict(float)
        fiber_self = census_self = 0.0
        for i, t in self_time.items():
            n = names[i]
            layer_self[n.split(".", 1)[0]] += t
            if n.startswith("enumeration.fiber."):
                fiber_self += t
            elif n == "kontsevich.reducible_census":
                census_self += t
        wall = r1 - r0
        _, _, s0, s1 = self.phases["setup"]

        solutions = self.counters["enumeration.solutions"]
        m = {
            "graph.labeled_trees": self.counters["graph.trivalent_trees_on_leaves"],
            "graph.trees_s": incl["graph.trivalent_trees_on_leaves"],
            "plane.canonical_calls": calls["plane.canonical_plane_form"],
            "plane.canonical_s": incl["plane.canonical_plane_form"],
            "plane.directions_s": incl["plane.derive_directions"],
            "enumeration.base_trees_s": incl["enumeration.base_trees"],
            "enumeration.base_classes": sum(self.base_classes.values()),
            "enumeration.fiber_self_s": fiber_self,
            "enumeration.leaves": leaves,
            "enumeration.solutions": solutions,
            "enumeration.solution_share": solutions / leaves if leaves else 0.0,
            "enumeration.resamples": self.counters["enumeration.resamples"],
            "moduli_maps.ft4_calls": calls["moduli_maps.ft4_coordinate"],
            "moduli_maps.ft4_s": incl["moduli_maps.ft4_coordinate"],
            "moduli_maps.pi_matrix_s": incl["moduli_maps.pi_matrix"],
            "moduli_maps.ev_matrix_s": incl["moduli_maps.ev_matrix"],
            "moduli_maps.multiplicity_s": incl["moduli_maps.multiplicity"],
            "linalg.solve_calls": calls["linalg.solve"],
            "linalg.solve_unique": self.counters["linalg.solve_unique"],
            "linalg.solve_s": incl["linalg.solve"],
            "linalg.det_calls": calls["linalg.det"],
            "linalg.det_s": incl["linalg.det"],
            "kontsevich.census_self_s": census_self,
            "kontsevich.intersect_calls": calls["kontsevich.tropical_intersection"],
            "kontsevich.intersect_s": incl["kontsevich.tropical_intersection"],
            "trace.setup_s": s1 - s0,
            "trace.wall_s": wall,
            "trace.unattributed_s": wall - sum(layer_self.values()),
            "trace.overhead_s": (last - first) * span_cost(),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def write(self, path):
        """Save every span as `index,parent,name,start,end` (gzip CSV)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,parent,name,start,end\n")
            for label, (first, last, start, end) in self.phases.items():
                fh.write(f"# phase {label} spans {first}-{last} {start!r} {end!r}\n")
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{p},{n},{s!r},{e!r}\n")

