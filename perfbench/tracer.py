"""In-memory span tracer that wraps the package's functions from outside.

The program itself has no tracing hooks, so the traced run replaces module
attributes and class methods with timing wrappers and restores them
afterwards.  A name imported with `from .x import f` is a separate binding
in every importing module, so each function is patched in every loaded
`tangentflats` module that holds it (for example `intrinsic._radial_roots`
and `cli.compute_profile`).  Methods are patched on their class.

Not reachable from outside: the tracker's predictor, corrector and endgame
are closures inside `tangency._solve_once`, so their time shows as the
self time of the `tangency.solve_once` span.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import stats

LAYERS = ("rng", "projective", "schubert", "tangency", "bodies", "curvature",
          "intrinsic", "volumes", "cli")


class Tracer:
    """Spans and counters kept in memory until the run ends.

    A span is (name, start, end, parent index, command id); parent -1 marks
    a root.  Spans of one CLI command share the command id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.command = 0
        self.counts: Counter = Counter()
        self.minima: dict = {}
        self.missing: list[str] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name, observe=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.stack.pop()
                tracer.spans[index] = (name, start, tracer.clock(), parent,
                                       tracer.command)
            if observe is not None:
                observe(tracer, result)
            return result

        return traced

    def record_min(self, key, value):
        value = float(value)
        if key not in self.minima or value < self.minima[key]:
            self.minima[key] = value

    # -- patching ----------------------------------------------------------
    def patch_function(self, module: str, attr: str, name: str,
                       observe=None, on_error=None):
        owner = sys.modules.get(f"tangentflats.{module}")
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        traced = self.wrap(original, name, observe, on_error)
        for modname, mod in list(sys.modules.items()):
            if modname != "tangentflats" and not modname.startswith("tangentflats."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def patch_method(self, module: str, cls: str, attr: str, name: str):
        owner = getattr(sys.modules.get(f"tangentflats.{module}"), cls, None)
        original = owner.__dict__.get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries ---------------------------------------------------------
    def totals(self) -> dict:
        """name -> (call count, total seconds, list of durations)."""
        out: dict = defaultdict(lambda: [0, 0.0, []])
        for name, start, end, _, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2].append(end - start)
        return out

    def layer_self_times(self) -> dict:
        selfs = stats.self_times([(s, e, p) for _, s, e, p, _ in self.spans])
        out = {layer: 0.0 for layer in LAYERS}
        for (name, *_), value in zip(self.spans, selfs):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def root_time(self) -> float:
        return sum(e - s for _, s, e, p, _ in self.spans if p < 0)


# ---------------------------------------------------------------------------
# the package's layer boundaries

def _observe_count_batch(tracer, result):
    counts, degenerate, _, cond = result
    tracer.counts["schubert.draws"] += int(counts.shape[0])
    tracer.counts["schubert.degenerate_draws"] += int(degenerate.sum())
    tracer.counts["schubert.count1_draws"] += int((counts == 1).sum())
    if cond.size:
        tracer.record_min("schubert.min_condition", cond.min())


def _observe_solve_once(tracer, sols):
    tracer.counts["tangency.paths_regular"] += int(sols.tracked)
    tracer.counts["tangency.paths_singular"] += int(sols.singular)
    tracer.counts["tangency.paths_failed"] += int(sols.failed)
    tracer.counts["tangency.real_solutions"] += int(sols.real_count)


def _solve_once_failed(tracer, exc):
    log = getattr(exc, "path_log", None)
    if log is not None:
        tracer.counts["tangency.paths_failed"] += len(log)


def _observe_trial(tracer, count):
    if count < 0:
        tracer.counts["tangency.discarded_trials"] += 1


def _observe_surface_points(tracer, result):
    tracer.counts["curvature.nodes"] += int(result[0].shape[0])


FUNCTIONS = [
    # (module, attribute, span name, observer, error observer)
    ("projective", "uniform_flat_frames", "projective.uniform_flat_frames", None, None),
    ("projective", "lines_to_plucker", "projective.lines_to_plucker", None, None),
    ("projective", "haar_matrices", "projective.haar_matrices", None, None),
    ("schubert", "estimate_expected_degree", "schubert.estimate", None, None),
    ("schubert", "_delta13_batch", "schubert.batch", None, None),
    ("schubert", "_count_batch", "schubert.count_batch", _observe_count_batch, None),
    ("tangency", "average_tangent_count_empirical", "tangency.empirical", None, None),
    ("tangency", "_tau_trial", "tangency.trial", _observe_trial, None),
    ("tangency", "count_real_tangent_lines", "tangency.count_real", None, None),
    ("tangency", "tangency_quadric_of", "tangency.quadric_build", None, None),
    ("tangency", "solve_tangency_system", "tangency.solve", None, None),
    ("tangency", "_solve_once", "tangency.solve_once", _observe_solve_once,
     _solve_once_failed),
    ("bodies", "parse_body_file", "bodies.parse", None, None),
    ("curvature", "surface_grid", "curvature.surface_grid", None, None),
    ("curvature", "_radial_roots", "curvature.radial_roots", None, None),
    ("curvature", "surface_points", "curvature.surface_points",
     _observe_surface_points, None),
    ("curvature", "shape_operators", "curvature.shape_operators", None, None),
    ("curvature", "principal_curvature_arrays", "curvature.principal_curvatures", None, None),
    ("curvature", "tangent_volume_ratio_profile", "curvature.profile", None, None),
    ("curvature", "tangent_volume_ratio_convex", "curvature.ratio_convex", None, None),
    ("curvature", "tangent_line_volume_rp3", "curvature.line_volume_rp3", None, None),
    ("curvature", "min_curvature_radius", "curvature.min_curvature_radius", None, None),
    ("intrinsic", "compute_profile", "intrinsic.compute_profile", None, None),
    ("intrinsic", "body_volume", "intrinsic.body_volume", None, None),
    ("intrinsic", "polar_volume", "intrinsic.polar_volume", None, None),
    ("intrinsic", "sum_identity_residual", "intrinsic.sum_identity", None, None),
    ("intrinsic", "bound_check", "intrinsic.bound_check", None, None),
    ("intrinsic", "steiner_tube_volume", "intrinsic.steiner_tube_volume", None, None),
    ("volumes", "average_tangent_count", "volumes.average_tangent_count", None, None),
    ("volumes", "schubert_volume", "volumes.schubert_volume", None, None),
    ("cli", "emit", "cli.emit", None, None),
    ("cli", "cmd_delta", "cli.command.delta", None, None),
    ("cli", "cmd_tau", "cli.command.tau", None, None),
    ("cli", "cmd_omega", "cli.command.omega", None, None),
    ("cli", "cmd_intrinsic", "cli.command.intrinsic", None, None),
    ("cli", "main", "cli.main", None, None),
]

METHODS = [
    ("rng", "RngStream", "generator", "rng.generator"),
    ("bodies", "ConvexBody", "surface_value", "bodies.surface_value"),
    ("bodies", "ConvexBody", "surface_gradient", "bodies.surface_gradient"),
    ("bodies", "ConvexBody", "surface_hessian", "bodies.surface_hessian"),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the already imported package."""
    for module, attr, name, observe, on_error in FUNCTIONS:
        tracer.patch_function(module, attr, name, observe, on_error)
    for module, cls, attr, name in METHODS:
        tracer.patch_method(module, cls, attr, name)
