"""Command line interface: reproducible experiments with structured reports.

Subcommands
-----------
volumes    closed-form volumes and the Schubert ratio for a given (k, n)
delta      expected-degree estimate (exact for k in {0, n-1}, MC for (1,3))
omega      tangent-flat volume ratio of a body from a body file
tau        average tangent count, by formula or by empirical line counting
intrinsic  intrinsic volume profile, Steiner check, sum identity, bounds

Reports are JSON documents with sorted keys; byte-identical for a fixed
seed apart from the wall_time_s field.  Exit codes: 0 success, 2 usage or
malformed input, 3 refusal on degenerate or out-of-validity input,
4 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bodies import BodyError, metric_sphere, parse_body_file
from .curvature import (NonConvexBodyError, SurfaceDegeneracyError,
                        surface_grid, tangent_line_volume_rp3,
                        tangent_volume_ratio_convex,
                        tangent_volume_ratio_semialgebraic)
from .intrinsic import (TubeRadiusError, bound_check, compute_profile,
                        steiner_tube_volume, sum_identity_residual)
from .rng import MCEstimate, RngStream
from .schubert import (EXPECTED_DEGREE_LINES_RP3, UnsupportedIndicesError,
                       estimate_expected_degree)
from .tangency import (DegenerateConfigurationError, PathFailureError,
                       average_tangent_count_empirical)
from .volumes import (TangentCountInputs, average_tangent_count,
                      grassmannian_dimension, orthogonal_volume,
                      projective_grassmannian_volume, schubert_ratio,
                      schubert_volume, sphere_volume)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
EXIT_NUMERICAL = 4

#: Exit code of every exception a command may end in; main prints the
#: message, then the per-path log of an exception that carries one.
EXIT_CODES = {
    BodyError: EXIT_USAGE, OSError: EXIT_USAGE,
    UnsupportedIndicesError: EXIT_USAGE,
    NonConvexBodyError: EXIT_REFUSED, SurfaceDegeneracyError: EXIT_REFUSED,
    TubeRadiusError: EXIT_REFUSED, DegenerateConfigurationError: EXIT_REFUSED,
    PathFailureError: EXIT_NUMERICAL,
}


def make_report(command: str, parameters: dict, seed, results: dict,
                degenerate: dict | None = None, t0: float | None = None) -> dict:
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "wall_time_s": (time.perf_counter() - t0) if t0 is not None else 0.0,
        "results": results,
        "degenerate_counts": degenerate or {},
        "version": __version__,
    }


def estimate_entry(est: MCEstimate) -> dict:
    return {"mean": est.mean, "stderr": est.stderr, "samples": est.samples,
            "degenerate": est.degenerate}


def emit(report: dict, args) -> None:
    payload = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    if args.format == "csv":
        lines = ["name,value,stderr,samples"]
        for name, entry in sorted(report["results"].items()):
            if isinstance(entry, dict):
                lines.append(f"{name},{entry['mean']},{entry['stderr']},{entry['samples']}")
            else:
                lines.append(f"{name},{entry},,")
        print("\n".join(lines))
    else:
        print(payload)


def at_least(low, kind):
    """argparse type for numbers of the given kind that must be >= low."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = kind.__name__          # argparse names it in errors
    return parse


positive_int = at_least(1, int)


def fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_volumes(args) -> int:
    t0 = time.perf_counter()
    k, n = args.k, args.n
    if not 0 <= k <= n - 1:
        return fail(EXIT_USAGE, f"need 0 <= k <= n-1, got (k, n) = ({k}, {n})")
    try:
        results = {
            "sphere_volume": sphere_volume(n),
            "orthogonal_volume": orthogonal_volume(n + 1),
            "grassmannian_volume": projective_grassmannian_volume(k, n),
            "schubert_ratio": schubert_ratio(k, n).value,
            "schubert_volume": schubert_volume(k, n),
            "dimension": grassmannian_dimension(k, n),
        }
        representable = all(0 < v < math.inf for v in results.values())
    except (OverflowError, ZeroDivisionError):
        representable = False
    if not representable:       # the exact volumes are all positive and finite
        return fail(EXIT_USAGE, f"(k, n) = ({k}, {n}): the volumes overflow or "
                                "underflow double precision")
    emit(make_report("volumes", {"k": k, "n": n}, None, results, t0=t0), args)
    return EXIT_OK


def cmd_delta(args) -> int:
    t0 = time.perf_counter()
    est = estimate_expected_degree(args.k, args.n, args.samples, args.seed,
                                   workers=args.workers)
    results = {"expected_degree": estimate_entry(est)}
    report = make_report("delta", {"k": args.k, "n": args.n,
                                   "samples": args.samples}, args.seed,
                         results, {"discarded_draws": est.degenerate}, t0)
    emit(report, args)
    return EXIT_OK


def cmd_omega(args) -> int:
    t0 = time.perf_counter()
    body = parse_body_file(args.body)
    if not 0 <= args.k <= body.n - 1:
        return fail(EXIT_USAGE, f"need 0 <= k <= n-1, got (k, n) = "
                                f"({args.k}, {body.n})")
    method = args.method
    if method == "auto":
        method = "convex" if body.convex else "semialgebraic"
    grid = surface_grid(body.n, args.level)
    results: dict = {}
    if args.sweep_radius:
        lo, hi, count = args.sweep_radius
        if body.kind != "metric_sphere":
            return fail(EXIT_USAGE, "--sweep-radius needs a metric sphere body")
        if not (count >= 1 and count.is_integer()):
            return fail(EXIT_USAGE, "--sweep-radius COUNT must be a positive "
                                    f"integer, got {count}")
        for r in np.linspace(lo, hi, int(count)):
            ratio = tangent_volume_ratio_convex(metric_sphere(body.n, r),
                                                args.k, grid)
            results[f"ratio_r_{r:.6f}"] = ratio
    elif method == "convex":
        results["tangent_ratio"] = tangent_volume_ratio_convex(body, args.k, grid)
    elif method == "h-integral":
        if body.n != 3:
            return fail(EXIT_USAGE, "h-integral method needs n = 3")
        vol = tangent_line_volume_rp3(body, grid)
        results["tangent_volume"] = vol
        results["tangent_ratio"] = vol / schubert_volume(1, 3)
    else:
        est = tangent_volume_ratio_semialgebraic(
            body, args.k, grid, args.samples, RngStream(args.seed))
        results["tangent_ratio"] = estimate_entry(est)
    report = make_report("omega", {"body": args.body, "k": args.k,
                                   "level": args.level, "method": method},
                         args.seed, results, {}, t0)
    emit(report, args)
    return EXIT_OK


def delta_source(text: str) -> str:
    """argparse type for --delta-source; returns the text unchanged."""
    kind, _, value = text.partition(":")
    if kind == "mc":
        positive_int(value)
    elif kind == "value":
        if not (math.isfinite(float(value)) and float(value) >= 0):
            raise argparse.ArgumentTypeError(
                f"value:<x> needs a finite x >= 0, got {value!r}")
    elif text not in ("exact", "reference"):
        raise argparse.ArgumentTypeError(
            f"expected exact, reference, mc:<samples> or value:<x>, got {text!r}")
    return text


def _resolve_delta(source: str, k: int, n: int, seed: int, workers: int):
    kind, _, value = source.partition(":")
    if kind == "mc":
        return estimate_expected_degree(k, n, int(value), seed,
                                        workers=workers).mean
    if kind == "value":
        return float(value)
    if source == "exact":
        if k not in (0, n - 1):
            raise UnsupportedIndicesError(
                f"the expected degree is exactly one only for k in {{0, n-1}}; "
                f"(k, n) = ({k}, {n}) needs 'reference', 'mc:<samples>' or "
                "'value:<x>'")
        return 1.0
    if (k, n) != (1, 3):
        raise UnsupportedIndicesError(
            "the packaged reference value covers (k, n) = (1, 3) only")
    return EXPECTED_DEGREE_LINES_RP3


def cmd_tau(args) -> int:
    t0 = time.perf_counter()
    k, n = args.k, args.n
    if not 0 <= k <= n - 1:
        return fail(EXIT_USAGE, f"need 0 <= k <= n-1, got (k, n) = ({k}, {n})")
    d = grassmannian_dimension(k, n)
    if len(args.bodies) != d:
        return fail(EXIT_USAGE,
                    f"(k, n) = ({k}, {n}) needs {d} body files, got {len(args.bodies)}")
    bodies = [parse_body_file(p) for p in args.bodies]
    if any(b.n != n for b in bodies):
        return fail(EXIT_USAGE, "all bodies must live in the same RP^n")
    delta = _resolve_delta(args.delta_source, k, n, args.seed, args.workers)
    results: dict = {"expected_degree": delta}
    degenerate: dict = {}
    if args.mode == "formula":
        grid = surface_grid(n, args.level)
        ratios = [tangent_volume_ratio_convex(b, k, grid) for b in bodies]
        tau = average_tangent_count(TangentCountInputs(k, n, tuple(ratios), delta))
        for i, r in enumerate(ratios):
            results[f"ratio_{i}"] = r
        results["average_tangent_count"] = tau
    else:
        if (k, n) != (1, 3) or any(b.matrix is None for b in bodies):
            return fail(EXIT_USAGE, "empirical mode counts tangent lines "
                                    "to quadrics in RP^3 only")
        est = average_tangent_count_empirical(bodies, args.trials,
                                              args.seed, args.workers)
        results["average_tangent_count"] = estimate_entry(est)
        degenerate["discarded_trials"] = est.degenerate
        degenerate["path_failure_trials"] = est.failed
    report = make_report("tau", {"k": k, "n": n, "mode": args.mode,
                                 "bodies": list(args.bodies),
                                 "trials": args.trials,
                                 "delta_source": args.delta_source},
                         args.seed, results, degenerate, t0)
    emit(report, args)
    return EXIT_OK


def cmd_intrinsic(args) -> int:
    t0 = time.perf_counter()
    body = parse_body_file(args.body)
    grid = surface_grid(body.n, args.level)
    profile = compute_profile(body, grid)
    results: dict = {f"V_{j}": float(v) for j, v in enumerate(profile.values)}
    results["volume"] = profile.volume
    results["polar_volume"] = profile.polar
    results["reach_estimate"] = profile.reach
    results["sum_identity_residual"] = sum_identity_residual(body, grid, profile)
    for k in range(body.n):
        results[f"bound_ok_k{k}"] = bound_check(body, k, grid, profile=profile)
    results["tube_volume"] = steiner_tube_volume(body, args.eps, profile)
    report = make_report("intrinsic", {"body": args.body, "eps": args.eps,
                                       "level": args.level}, None, results,
                         t0=t0)
    emit(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangentflats",
        description="random enumerative geometry of tangent flats")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", help="write the JSON report to this path")
        p.add_argument("--format", choices=("report", "csv"), default="report")
        p.add_argument("--workers", type=positive_int,
                       default=os.cpu_count() or 1)
        p.add_argument("--level", type=positive_int, default=4,
                       help="quadrature refinement level")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("volumes", help="closed-form volumes for (k, n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    common(p, seed=False)
    p.set_defaults(func=cmd_volumes, seed=None)

    p = sub.add_parser("delta", help="expected degree of the k-flat Grassmannian")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--samples", type=positive_int, default=1_000_000)
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("omega", help="tangent-flat volume ratio of a body")
    p.add_argument("body", help="body file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--method", choices=("auto", "convex", "semialgebraic",
                                        "h-integral"), default="auto")
    p.add_argument("--samples", type=positive_int, default=64,
                   help="tangent-plane Monte Carlo samples per node")
    p.add_argument("--sweep-radius", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "COUNT"),
                   help="metric spheres only: CSV-friendly radius sweep")
    common(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("tau", help="average tangent count")
    p.add_argument("bodies", nargs="+", help="body files, one per hypersurface")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--mode", choices=("formula", "empirical"), default="formula")
    p.add_argument("--trials", type=positive_int, default=200)
    p.add_argument("--delta-source", type=delta_source, default="reference",
                   help="exact | reference | mc:<samples> | value:<x>")
    common(p)
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("intrinsic", help="intrinsic volume profile and checks")
    p.add_argument("body", help="body file")
    p.add_argument("--eps", type=at_least(0, float), default=0.0,
                   help="tube radius for the Steiner evaluation")
    common(p, seed=False)
    p.set_defaults(func=cmd_intrinsic, seed=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        print("\n".join([f"error: {exc}", *getattr(exc, "path_log", ())]),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
