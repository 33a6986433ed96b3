"""Per-layer tracing from outside the package.

`Tracer.install` replaces the public functions listed in TARGETS with
wrappers wherever a module of the package looks them up (module globals,
including names imported from another module, and class attributes for
methods), so no source file changes. Each wrapper records a span (name,
start, end, parent) and, for some functions, counts read from the call's
arguments and result. `Tracer.remove` puts every original back.

A span's parent is the innermost open span of the same thread; a thread
with no open span (a worker of the package's thread pool) takes the
innermost open span of the thread that installed the tracer. A layer's
self time is its spans' durations minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

PACKAGE = "rhfill"

LAYERS = ("groups", "cusped", "delta", "metric_checks", "filling_geometry",
          "flags", "automata", "convergence", "scenarios")

# layer -> public functions (or Class.method) of that layer's module that
# the workloads call; the work of a function not listed counts to its caller
TARGETS = {
    "groups": ("enumerate_ball",),
    "cusped": ("build_cusped_ball", "shortest_path", "ExactCuspedMetric.dist",
               "CuspedGraph.distance_matrix",
               "CuspedGraph.certified_pairs_matrix",
               "CuspedGraph.bfs_distances"),
    "delta": ("four_point_delta_sampled",),
    "metric_checks": ("verify_metric_lemmas", "comparison_lemma_check",
                      "horoball_entry_check", "quasidensity_check",
                      "deep_horoball_isometry_check"),
    "filling_geometry": ("build_quotient_cusped", "check_local_isometry",
                         "check_descent_quasigeodesic", "filling_map_report",
                         "lift_roundtrip_report", "check_uniform_delta",
                         "injectivity_report"),
    "flags": ("q_limit_set", "q_divergence"),
    "automata": ("nested_diameters", "check_compatibility"),
    "convergence": ("chabauty_check", "limit_set_convergence",
                    "edf_condition_check"),
    "scenarios": ("run_scenario",),
}

# inclusive times reported as <layer>.<function>.s
TIMED = (
    "groups.enumerate_ball",
    "convergence.chabauty_check", "convergence.limit_set_convergence",
    "convergence.edf_condition_check",
    "flags.q_limit_set",
    "automata.nested_diameters", "automata.check_compatibility",
    "cusped.build_cusped_ball", "cusped.distance_matrix",
    "cusped.certified_pairs_matrix", "cusped.bfs_distances",
    "delta.four_point_delta_sampled",
    "metric_checks.comparison_lemma_check",
    "metric_checks.horoball_entry_check", "metric_checks.quasidensity_check",
    "metric_checks.deep_horoball_isometry_check",
    "filling_geometry.build_quotient_cusped",
    "filling_geometry.check_local_isometry",
    "filling_geometry.check_descent_quasigeodesic",
    "filling_geometry.filling_map_report",
    "filling_geometry.lift_roundtrip_report",
    "filling_geometry.check_uniform_delta",
)

COUNTS = (
    "groups.ball_elements", "flags.q_divergence.calls",
    "flags.limit_cloud_points", "automata.containments_checked",
    "cusped.window_vertices", "cusped.window_edges",
    "cusped.distance_matrix.calls", "cusped.certified_pairs_matrix.calls",
    "cusped.bfs_sources", "delta.quadruples", "metric_checks.pairs_checked",
)

MIB = 1024 * 1024


def _count_call(name):
    def count(tracer, args, result):
        tracer.add(name, 1)
    return count


def _count_key(name, key):
    def count(tracer, args, result):
        if isinstance(result, dict) and key in result:
            tracer.add(name, int(result[key]))
    return count


def _count_window(tracer, args, result):
    tracer.add("cusped.window_vertices", result.n_vertices)
    tracer.add("cusped.window_edges", result.n_edges)


def _count_dense(tracer, args, result):
    """n^2 * 8 bytes, once per window whose all-pairs matrix was formed."""
    tracer.add("cusped.distance_matrix.calls", 1)
    graph = args[0]
    if graph not in tracer.dense_windows:
        tracer.dense_windows.add(graph)
        tracer.add("cusped.dense_matrix_mib", graph.n_vertices ** 2 * 8 / MIB)


COUNTERS = {
    "groups.enumerate_ball":
        lambda t, a, r: t.add("groups.ball_elements", len(r)),
    "cusped.build_cusped_ball": _count_window,
    "cusped.distance_matrix": _count_dense,
    "cusped.certified_pairs_matrix":
        _count_call("cusped.certified_pairs_matrix.calls"),
    "cusped.bfs_distances": _count_call("cusped.bfs_sources"),
    "delta.four_point_delta_sampled":
        lambda t, a, r: t.add("delta.quadruples", r.checked),
    "metric_checks.comparison_lemma_check":
        _count_key("metric_checks.pairs_checked", "pairs_checked"),
    "metric_checks.horoball_entry_check":
        _count_key("metric_checks.pairs_checked", "pairs_checked"),
    "metric_checks.deep_horoball_isometry_check":
        _count_key("metric_checks.pairs_checked", "pairs_checked"),
    "flags.q_divergence": _count_call("flags.q_divergence.calls"),
    "flags.q_limit_set":
        lambda t, a, r: t.add("flags.limit_cloud_points", r.size),
    "automata.check_compatibility":
        _count_key("automata.containments_checked", "containments_checked"),
}


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans and counts for one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent]
        self.counts: Counter = Counter()
        self.dense_windows = weakref.WeakSet()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def add(self, name: str, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = [name, layer, time.perf_counter(), None, parent]
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = time.perf_counter()
            if count is not None:
                count(tracer, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, targets in TARGETS.items():
            home = importlib.import_module(f"{PACKAGE}.{layer}")
            for target in targets:
                name = span_name(layer, target)
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original,
                                self._wrap(name, layer, original))
                    continue
                original = getattr(home, target)
                wrapper = self._wrap(name, layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results

    def metrics(self) -> dict[str, float]:
        """Self time per layer, inclusive time per TIMED function, COUNTS."""
        spans = self.spans
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[4] is not None:
                children[s[4]].append(i)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{name}.s": 0.0 for name in TIMED})
        for i, (name, layer, start, end, parent) in enumerate(spans):
            covered = _union_length([(max(spans[c][2], start),
                                      min(spans[c][3], end))
                                     for c in children[i]])
            out[f"{layer}.self_s"] += (end - start) - covered
            if f"{name}.s" in out and not _has_ancestor(spans, parent, name):
                out[f"{name}.s"] += end - start
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        out["cusped.dense_matrix_mib"] = float(
            self.counts.get("cusped.dense_matrix_mib", 0.0))
        return out


def _has_ancestor(spans, parent, name) -> bool:
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def metric_units() -> dict[str, str]:
    """Unit of every per-layer metric `Tracer.metrics` reports."""
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({name: "count" for name in COUNTS})
    units["cusped.dense_matrix_mib"] = "MiB"
    return units
