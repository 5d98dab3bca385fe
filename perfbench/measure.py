"""Measuring process of the benchmark.

Imports the package from ./src, runs one workload's commands in this
process through `tangentflats.cli.main(argv)` (a closed loop with one
client: each command starts when the previous one has finished) and writes
what it measured as JSON to the path given by --out.  run.py starts it in
a fresh interpreter so that its CPU and memory figures cover only the
workload and its pool children.

Modes:
  timed  warm up, then run passes with --workers 1 until --seconds have
         elapsed, tracing off
  trace  run one fixed pass four times: serial untraced, with the CLI's
         default workers, and twice serial traced; the two traced runs must
         repeat every count exactly
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import stats
import tracer as tracing
import workloads

MIN_PASSES = 2
#: The timed run is serial.  With the CLI's default two pool workers on a
#: shared two-CPU host, 15-second block means of the same command varied
#: 2.5 times as much as serial ones, because a job waits for its slowest
#: worker whenever either CPU is taken by other load.
TIMED_EXTRA = ("--workers", "1")
#: End-to-end metrics the timed run measures; run.py adds setup_s.
TIMED_METRICS = ("cpu_s", "items_per_cpu_s", "peak_rss_mb")


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (Linux
    reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Runner:
    """Runs CLI commands in-process and keeps one record per command."""

    def __init__(self, cli):
        self.cli = cli
        self.records: list[dict] = []

    def run(self, cmd: workloads.Command, index: int, extra=()) -> dict:
        argv = list(cmd.argv) + list(extra)
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)   # looked up per call, so tracing applies
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        report = None
        if rc == 0:
            try:
                report = json.loads(out.getvalue())
            except ValueError:
                error = "report is not JSON"
        elif error is None:
            error = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
        if error is None:
            error = workloads.command_error(cmd, report)
        rec = {"argv": argv, "pass": index, "rc": rc, "wall_s": wall,
               "cpu_s": cpu, "items": cmd.items, "error": error,
               "cmd": cmd, "report": report}
        self.records.append(rec)
        return rec

    def apply_pooled_gate(self, records) -> None:
        rows = [(r["pass"], r["cmd"], r["report"], i) for i, r in records]
        message, covered = workloads.pooled_gate(rows)
        if message is not None:
            for i in covered:
                if self.records[i]["error"] is None:
                    self.records[i]["error"] = f"pooled gate: {message}"

    def summary(self) -> dict:
        failures = [f"{' '.join(r['argv'])}: {r['error']}"
                    for r in self.records if r["error"] is not None]
        lost = attempted = 0
        for r in self.records:
            d, a = workloads.discarded(r["cmd"], r["report"])
            lost, attempted = lost + d, attempted + a
        return {"attempted": len(self.records), "failed": len(failures),
                "failures": failures,
                "discarded_frac": lost / attempted if attempted else 0.0}


def run_pass(runner, p: workloads.Pass, extra=()) -> list:
    start = len(runner.records)
    for cmd in p.commands:
        runner.run(cmd, p.index, extra)
    return list(enumerate(runner.records))[start:]


def timed(runner, wl, seconds: float) -> dict:
    for cmd in wl.warmup():
        runner.run(cmd, -1, TIMED_EXTRA)
    passes, gated = [], []
    t_start = time.perf_counter()
    index = 0
    while index < MIN_PASSES or time.perf_counter() - t_start < seconds:
        recs = run_pass(runner, wl.make_pass(index), TIMED_EXTRA)
        gated.extend(recs)
        work = [r for _, r in recs if r["items"]]
        passes.append({
            "wall_s": sum(r["wall_s"] for _, r in recs),
            "cpu_s": sum(r["cpu_s"] for _, r in recs),
            "items": sum(r["items"] for r in work),
            "item_wall_s": sum(r["wall_s"] for r in work),
            "item_cpu_s": sum(r["cpu_s"] for r in work),
        })
        index += 1
    runner.apply_pooled_gate(gated)
    items = sum(p["items"] for p in passes)
    # The gated metrics are CPU time.  On a virtual machine, wall time also
    # holds the time the hypervisor gives the CPU to other guests (steal).
    # Over five seeds on a shared two-CPU machine, the quartile spread of
    # the wall-time figures was 0.13-0.14 where that of CPU time was
    # 0.08-0.10, so wall time is recorded and printed but not gated.
    # cpu_s is a mean over passes; the median of a run's four or five
    # passes spread more from run to run.
    return {"passes": passes,
            "measured_s": time.perf_counter() - t_start,
            "pass_timings": {k: stats.timing_summary(p[k] for p in passes)
                             for k in ("wall_s", "cpu_s")},
            "wall": {"wall_s": stats.median(p["wall_s"] for p in passes),
                     "items_per_s": items / sum(p["item_wall_s"] for p in passes)},
            "metrics": {
                "cpu_s": sum(p["cpu_s"] for p in passes) / len(passes),
                "items_per_cpu_s": items / sum(p["item_cpu_s"] for p in passes),
                "peak_rss_mb": peak_rss_mb()}}


def _strip(report):
    if report is None:
        return None
    return json.dumps({k: v for k, v in report.items() if k != "wall_time_s"},
                      sort_keys=True)


def count_signature(tr: tracing.Tracer) -> dict:
    """Every quantity of a traced run that must repeat exactly."""
    sig = {f"calls:{name}": entry[0] for name, entry in tr.totals().items()}
    sig.update({f"count:{k}": v for k, v in tr.counts.items()})
    sig.update({f"min:{k}": v for k, v in tr.minima.items()})
    return sig


def traced_pass(runner, p, extra):
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        start = len(runner.records)
        t0 = time.perf_counter()
        for k, cmd in enumerate(p.commands):
            tr.command = k
            runner.run(cmd, p.index, extra)
        wall = time.perf_counter() - t0
    finally:
        tr.uninstall()
    return tr, wall, list(enumerate(runner.records))[start:]


def layer_metrics(tr: tracing.Tracer, wall: float) -> dict:
    totals = tr.totals()

    def seconds(name):
        return totals[name][1] if name in totals else 0.0

    def calls(name):
        return totals[name][0] if name in totals else 0

    solve_ms = [1000.0 * d for d in totals["tangency.solve"][2]] \
        if "tangency.solve" in totals else []
    top = stats.top_percentile(len(solve_ms))
    solves = calls("tangency.solve")
    m = {
        "rng.generator_calls": calls("rng.generator"),
        "rng.generator_s": seconds("rng.generator"),
        "projective.uniform_flat_frames_s": seconds("projective.uniform_flat_frames"),
        "projective.lines_to_plucker_s": seconds("projective.lines_to_plucker"),
        "projective.haar_matrices_s": seconds("projective.haar_matrices"),
        "schubert.count_batch_s": seconds("schubert.count_batch"),
        "schubert.batches": calls("schubert.batch"),
        "schubert.degenerate_draws": tr.counts["schubert.degenerate_draws"],
        "schubert.count1_draws": tr.counts["schubert.count1_draws"],
        "schubert.min_condition": tr.minima.get("schubert.min_condition", 0.0),
        "tangency.solves": solves,
        "tangency.attempts": calls("tangency.solve_once"),
        "tangency.solve_s": seconds("tangency.solve"),
        "tangency.solve_samples": len(solve_ms),
        "tangency.solve_p50_ms": stats.percentile(solve_ms, 50)
        if top is not None else 0.0,
        "tangency.solve_p90_ms": stats.percentile(solve_ms, 90)
        if top is not None and top >= 90 else 0.0,
        "tangency.quadric_build_s": seconds("tangency.quadric_build"),
        "tangency.paths_regular": tr.counts["tangency.paths_regular"],
        "tangency.paths_singular": tr.counts["tangency.paths_singular"],
        "tangency.paths_failed": tr.counts["tangency.paths_failed"],
        "tangency.real_solutions": tr.counts["tangency.real_solutions"],
        "tangency.discarded_trials": tr.counts["tangency.discarded_trials"],
        "tangency.paths_singular_per_solve":
            tr.counts["tangency.paths_singular"] / solves if solves else 0.0,
        "bodies.surface_value_calls": calls("bodies.surface_value"),
        "bodies.surface_value_s": seconds("bodies.surface_value"),
        "bodies.surface_gradient_s": seconds("bodies.surface_gradient"),
        "bodies.surface_hessian_s": seconds("bodies.surface_hessian"),
        "bodies.parse_s": seconds("bodies.parse"),
        "curvature.surface_grid_s": seconds("curvature.surface_grid"),
        "curvature.radial_roots_calls": calls("curvature.radial_roots"),
        "curvature.radial_roots_s": seconds("curvature.radial_roots"),
        "curvature.surface_points_s": seconds("curvature.surface_points"),
        "curvature.shape_operators_s": seconds("curvature.shape_operators"),
        "curvature.profile_calls": calls("curvature.profile"),
        "curvature.nodes": tr.counts["curvature.nodes"],
        "intrinsic.compute_profile_calls": calls("intrinsic.compute_profile"),
        "intrinsic.compute_profile_s": seconds("intrinsic.compute_profile"),
        "intrinsic.body_volume_s": seconds("intrinsic.body_volume"),
        "cli.emit_s": seconds("cli.emit"),
        "trace.coverage": tr.root_time() / wall,
    }
    for sub in ("delta", "tau", "omega", "intrinsic"):
        m[f"cli.command_s.{sub}"] = seconds(f"cli.command.{sub}")
    for layer, value in tr.layer_self_times().items():
        m[f"{layer}.self_s"] = value
    return m


def trace(runner, wl, workers: int) -> dict:
    serial = ("--workers", "1")
    for cmd in wl.warmup():
        runner.run(cmd, -1, serial)
    p = wl.trace_pass()
    executions = {}
    t0 = time.perf_counter()
    executions["serial"] = run_pass(runner, p, serial)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    executions["default_workers"] = run_pass(runner, p)
    parallel_wall = time.perf_counter() - t0
    tr_a, wall_a, executions["traced"] = traced_pass(runner, p, serial)
    tr_b, wall_b, executions["traced_again"] = traced_pass(runner, p, serial)
    for recs in executions.values():
        runner.apply_pooled_gate(recs)

    problems = []
    sig_a, sig_b = count_signature(tr_a), count_signature(tr_b)
    for key in sorted(set(sig_a) | set(sig_b)):
        if sig_a.get(key) != sig_b.get(key):
            problems.append(f"count {key} differs between traced runs: "
                            f"{sig_a.get(key)} vs {sig_b.get(key)}")
    reference = [_strip(r["report"]) for _, r in executions["serial"]]
    for label, recs in executions.items():
        if [_strip(r["report"]) for _, r in recs] != reference:
            problems.append(f"reports of the {label} run differ from the "
                            "serial run at the same seed")
    if tr_a.missing:
        print("warning: layer hooks not found: " + ", ".join(tr_a.missing),
              file=sys.stderr)

    metrics = layer_metrics(tr_a, wall_a)
    metrics["tracing_overhead"] = stats.median([wall_a, wall_b]) / serial_wall
    metrics["parallel_efficiency"] = serial_wall / (workers * parallel_wall)
    return {"metrics": metrics, "problems": problems,
            "missing_hooks": tr_a.missing,
            "walls": {"serial_s": serial_wall, "default_workers_s": parallel_wall,
                      "traced_s": [wall_a, wall_b]},
            "spans": [list(s) for s in tr_a.spans],
            "counts": sig_a}


def environment(cli) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "workers": cli.build_parser().parse_args(["delta", "1", "3"]).workers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "trace"), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from tangentflats import cli

    env = environment(cli)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    runner = Runner(cli)
    if args.mode == "timed":
        result = timed(runner, wl, args.seconds)
    else:
        result = trace(runner, wl, env["workers"])
    result.update(runner.summary())
    result["environment"] = env
    result["commands"] = [{k: r[k] for k in ("argv", "pass", "rc", "wall_s",
                                             "cpu_s", "error")}
                          for r in runner.records]
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
