"""Tests of the benchmark's own arithmetic, workload generation and metric
declarations.  Run from the repository root with

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import measure  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def workdir():
    """Temporary directory under the benchmark's ignored output directory."""
    base = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="test-", dir=base)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]}, spec)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [(0.0, 10.0, -1),     # root
                 (1.0, 4.0, 0),       # child
                 (3.0, 6.0, 0),       # overlapping child: union is [1, 6]
                 (2.0, 3.0, 1),       # grandchild, not subtracted from root
                 (9.0, 12.0, 0)]      # child running past its parent: clipped
        self.assertEqual(stats.self_times(spans), [10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])

    def test_union_length(self):
        self.assertEqual(stats.union_length([]), 0.0)
        self.assertEqual(stats.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)

    def test_tracer_layer_self_times(self):
        clock = FakeClock()
        tr = tracing.Tracer(clock)

        def inner():
            clock.now += 2.0

        def outer(f):
            clock.now += 1.0
            f()
            clock.now += 3.0

        traced_inner = tr.wrap(inner, "curvature.inner")
        tr.wrap(outer, "intrinsic.outer")(traced_inner)
        selfs = tr.layer_self_times()
        self.assertEqual(selfs["intrinsic"], 4.0)
        self.assertEqual(selfs["curvature"], 2.0)
        self.assertEqual(tr.root_time(), 6.0)
        self.assertEqual(tr.spans[0][3], -1)
        self.assertEqual(tr.spans[1][3], 0)


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.top_percentile(19))
        self.assertEqual(stats.top_percentile(20), 50.0)
        self.assertEqual(stats.top_percentile(99), 50.0)
        self.assertEqual(stats.top_percentile(100), 90.0)
        self.assertEqual(stats.top_percentile(999), 90.0)
        self.assertEqual(stats.top_percentile(1000), 99.0)
        self.assertEqual(stats.top_percentile(10000), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50.0)
        self.assertEqual(stats.percentile(values, 90), 90.0)
        self.assertEqual(stats.percentile([5.0], 90), 5.0)

    def test_timing_summary_states_count(self):
        summary = stats.timing_summary(range(100))
        self.assertEqual(summary["n"], 100)
        self.assertIn("p90", summary)
        self.assertNotIn("p99", summary)
        self.assertNotIn("p50", stats.timing_summary(range(5)))


class PooledGateTest(unittest.TestCase):
    def test_pooled_residual_matches_direct_computation(self):
        groups_raw = [([2.0, 4.0, 4.0, 6.0], 3.5), ([0.0, 2.0, 2.0], 1.0)]
        groups, residuals = [], []
        for xs, target in groups_raw:
            mean = statistics.mean(xs)
            stderr = statistics.stdev(xs) / len(xs) ** 0.5
            groups.append((mean, stderr, len(xs), target))
            residuals += [x - target for x in xs]
        mean, stderr, n = stats.pooled_residual(groups)
        self.assertEqual(n, 7)
        self.assertAlmostEqual(mean, statistics.mean(residuals))
        self.assertAlmostEqual(stderr, statistics.stdev(residuals) / 7 ** 0.5)

    def test_gate_fails_far_from_target(self):
        cmd = workloads.Command(["delta"], items=10, role="delta")
        report = {"results": {"expected_degree":
                              {"mean": 1.9, "stderr": 0.01, "samples": 1000}}}
        message, covered = workloads.pooled_gate([(0, cmd, report, 0)] * 2)
        self.assertIsNotNone(message)
        self.assertEqual(covered, [0, 0])
        report["results"]["expected_degree"]["mean"] = 1.73
        self.assertIsNone(workloads.pooled_gate([(0, cmd, report, 0)] * 2)[0])

    def test_empirical_uses_formula_of_its_pass(self):
        formula = workloads.Command(["tau"], role="formula")
        empirical = workloads.Command(["tau"], items=12, role="empirical")
        rows = []
        for index, target in ((0, 3.0), (1, 5.0)):
            rows.append((index, formula,
                         {"results": {"average_tangent_count": target}}, 2 * index))
            rows.append((index, empirical,
                         {"results": {"average_tangent_count":
                                      {"mean": target + 0.1, "stderr": 0.3,
                                       "samples": 12}}}, 2 * index + 1))
        message, covered = workloads.pooled_gate(rows)
        self.assertIsNone(message)
        self.assertEqual(covered, [1, 3])

    def test_command_checks(self):
        quartic = workloads.Command(["omega"], role="quartic", target=2.0)
        self.assertIsNone(workloads.command_error(
            quartic, {"results": {"tangent_ratio": 2.0}}))
        self.assertIsNotNone(workloads.command_error(
            quartic, {"results": {"tangent_ratio": 2.001}}))
        intrinsic = workloads.Command(["intrinsic"], role="intrinsic")
        ok = {"sum_identity_residual": 1e-12, "bound_ok_k0": True,
              "bound_ok_k1": True}
        self.assertIsNone(workloads.command_error(intrinsic, {"results": ok}))
        self.assertIsNotNone(workloads.command_error(
            intrinsic, {"results": dict(ok, bound_ok_k1=False)}))
        self.assertIsNotNone(workloads.command_error(
            intrinsic, {"results": dict(ok, sum_identity_residual=1e-3)}))
        self.assertIsNotNone(workloads.command_error(intrinsic, None))


class WorkloadGenerationTest(unittest.TestCase):
    def generate(self, name, seed):
        with workdir() as d:
            wl = workloads.WORKLOADS[name](seed, d)
            passes = [wl.make_pass(i) for i in range(3)] + [wl.trace_pass()]
            argvs = [[a.replace(d, "<dir>") for a in c.argv]
                     for p in passes for c in p.commands]
            files = {}
            for argv in argvs:
                for a in argv:
                    if a.endswith(".body"):
                        with open(a.replace("<dir>", d)) as fh:
                            files[a] = fh.read()
            return argvs, files

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(self.generate(name, 7), self.generate(name, 7))

    def test_seed_changes_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(self.generate(name, 7), self.generate(name, 8))

    def test_passes_differ_within_a_run(self):
        argvs, _ = self.generate("generic-quadrics", 3)
        self.assertNotEqual(argvs[1][-1], argvs[3][-1])   # per-pass --seed


class DeclarationTest(unittest.TestCase):
    def test_every_printed_metric_is_declared(self):
        end_to_end, per_layer, _ = declared()
        self.assertEqual(set(measure.TIMED_METRICS) | {"setup_s"}, end_to_end)
        layer = set(measure.layer_metrics(tracing.Tracer(), 1.0))
        layer |= {"tracing_overhead", "parallel_efficiency", "cli.import_s",
                  "volumes.import_s", "failed_frac", "discarded_frac"}
        self.assertEqual(layer, per_layer)

    def test_declared_workloads_exist(self):
        _, _, spec = declared()
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))

    def test_end_to_end_has_setup_with_largest_bound(self):
        _, _, spec = declared()
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


class HookTest(unittest.TestCase):
    def test_every_layer_boundary_is_found_and_restored(self):
        from tangentflats import cli, curvature, intrinsic
        original = curvature._radial_roots
        tr = tracing.Tracer()
        tracing.install(tr)
        try:
            self.assertEqual(tr.missing, [])
            # from-imports are patched in each importing namespace
            self.assertIs(intrinsic._radial_roots, curvature._radial_roots)
            self.assertIsNot(intrinsic._radial_roots, original)
            self.assertIs(cli.compute_profile, intrinsic.compute_profile)
        finally:
            tr.uninstall()
        self.assertIs(intrinsic._radial_roots, original)
        self.assertIs(curvature._radial_roots, original)

    def test_traced_command_records_spans_per_command(self):
        from tangentflats import cli
        with workdir() as d:
            body = os.path.join(d, "s.body")
            with open(body, "w") as fh:
                fh.write(workloads.metric_sphere_text(0.5))
            runner = measure.Runner(cli)
            p = workloads.Pass(0, [workloads.Command(["omega", body, "--level", "1"]),
                                   workloads.Command(["omega", body, "--level", "1"])])
            tr, wall, recs = measure.traced_pass(runner, p, ("--workers", "1"))
        self.assertEqual([r["error"] for _, r in recs], [None, None])
        roots = [s for s in tr.spans if s[3] < 0]
        self.assertEqual([s[0] for s in roots], ["cli.main", "cli.main"])
        self.assertEqual([s[4] for s in roots], [0, 1])
        self.assertEqual(measure.layer_metrics(tr, wall)["curvature.profile_calls"], 2)


if __name__ == "__main__":
    unittest.main()
