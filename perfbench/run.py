"""Benchmark entry point for tangentflats (standard library only).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 measures set-up time in fresh interpreters, then runs the
workload's passes for --seconds in a separate measuring process and
reports the end-to-end metrics.  --trace 1 runs one fixed pass serially
with every layer boundary wrapped and reports the per-layer metrics.
Each metric is printed as "metric <name> = <value> <unit>"; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Full records, with the environment and the spans,
are written under .perfbench_out/.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3            # fresh interpreters per run; setup_s is their median
IMPORTTIME_PROBES = 3
TIME_LIMIT_S = 175          # the whole run must end inside 180 s
OUT_DIR = ".perfbench_out"
#: One BLAS thread in every child.  OpenBLAS otherwise runs a second thread
#: on large arrays (the surface grids) that spins while idle, which added
#: about a quarter to surface-quadrature's CPU time and made it noisy.
BLAS_THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS")}
LOAD_NOTE = ("timings come from a shared machine; other load on it, visible "
             "in loadavg, skews them")

SETUP_PROBE = """\
import sys
from tangentflats.cli import parse_body_file
for path in sys.argv[1:]:
    parse_body_file(path)
"""


def load_declared() -> dict:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: {m["name"]: m for m in spec[key]}
            for key in ("workloads", "end_to_end", "per_layer")}


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def git_revision() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests (steal, /proc/stat)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def setup_times(files, probes: int) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and parse the
    workload's body files, timed from outside the process."""
    out = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, *files],
                       env=child_env(), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def import_times(probes: int) -> dict:
    """Cumulative import time of tangentflats.cli and tangentflats.volumes
    from `python -X importtime`, median over probes."""
    cli_s, volumes_s = [], []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import tangentflats.cli"], env=child_env(),
                              check=True, timeout=60, capture_output=True,
                              text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        # the package import pulls in every module but cli, then cli itself
        cli_s.append(cumulative.get("tangentflats", 0.0)
                     + cumulative.get("tangentflats.cli", 0.0))
        volumes_s.append(cumulative.get("tangentflats.volumes", 0.0))
    return {"cli.import_s": stats.median(cli_s),
            "volumes.import_s": stats.median(volumes_s)}


def run_child(args, mode: str, workdir: str, deadline: float) -> dict:
    out = os.path.join(workdir, "measure.json")
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--out", out]
    # a session of its own, so that a timeout also ends its pool workers
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("the measuring process ran out of time")
    if rc != 0:
        raise RuntimeError(f"the measuring process exited with code {rc}")
    with open(out) as fh:
        return json.load(fh)


def format_metric(name: str, value, unit: str) -> str:
    return f"metric {name} = {value!r} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "tangentflats", "cli.py")):
        print("error: run from the root of a tangentflats checkout "
              "(src/tangentflats/cli.py not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    declared = load_declared()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    env = {"nproc": nproc(), "cpu_count": os.cpu_count(),
           "blas_threads": BLAS_THREADS,
           "git_revision": git_revision(), "loadavg_before": loadavg(),
           "note": LOAD_NOTE}
    steal_before = steal_seconds()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            imports = import_times(IMPORTTIME_PROBES)
            child = run_child(args, "trace", workdir, deadline)
            metrics = dict(child["metrics"], **imports)
            metrics["failed_frac"] = child["failed"] / child["attempted"]
            metrics["discarded_frac"] = child["discarded_frac"]
            table = declared["per_layer"]
            spans = child.pop("spans")
        else:
            setup = setup_times(sorted(set(wl.setup_files())), SETUP_PROBES)
            child = run_child(args, "timed", workdir, deadline)
            metrics = dict(child["metrics"], setup_s=stats.median(setup))
            child["setup_probes_s"] = setup
            table = declared["end_to_end"]
            spans = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(child.pop("environment"), loadavg_after=loadavg(),
               steal_s=steal_seconds() - steal_before)

    problems = list(child.get("problems", []))
    undeclared = sorted(set(metrics) - set(table))
    missing = sorted(set(table) - set(metrics))
    if undeclared or missing:
        problems.append(f"metrics not matching BENCHMARK.json: undeclared "
                        f"{undeclared}, missing {missing}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "metrics": metrics, "problems": problems,
              **child}
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT_DIR, tag + "-spans.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "spans": spans}, fh)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{declared['workloads'][args.workload]['why']}")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in child["failures"]:
        print(f"FAILED {failure}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    for name in sorted(table):
        if name in metrics:
            print(format_metric(name, metrics[name], table[name]["unit"]))
    if not args.trace:
        per_layer = declared["per_layer"]
        frac = child["failed"] / child["attempted"]
        print(format_metric("failed_frac", frac, per_layer["failed_frac"]["unit"]))
        print(format_metric("discarded_frac", child["discarded_frac"],
                            per_layer["discarded_frac"]["unit"]))
        # wall time is printed for reading, not gated (see measure.timed)
        print(f"info wall_s = {child['wall']['wall_s']!r} s (median per pass)")
        print(f"info items_per_s = {child['wall']['items_per_s']!r} 1/s")
    correct = child["failed"] == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": {name: {"value": metrics[name],
                                         "unit": table[name]["unit"]}
                                  for name in sorted(table) if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
