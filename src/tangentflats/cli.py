"""Command line interface: reproducible experiments with structured reports.

Subcommands
-----------
volumes    closed-form volumes and the Schubert ratio for a given (k, n)
delta      expected-degree estimate (exact for k in {0, n-1}, MC for (1,3))
omega      tangent-flat volume ratio of a body from a body file
tau        average tangent count, by formula or by empirical line counting
intrinsic  intrinsic volume profile, Steiner check, sum identity, bounds

Each command returns its parameters and results; main completes the report
(command, seed, version, wall_time_s), emits it as JSON with sorted keys,
byte-identical for a fixed seed apart from wall_time_s, and maps every
refusal to its exit code in EXIT_CODES: 0 success, 2 usage or malformed
input, 3 refusal on degenerate or out-of-validity input.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bodies import BodyError, metric_sphere, parse_body_file
from .curvature import (NonConvexBodyError, SurfaceDegeneracyError,
                        surface_grid, surface_sample, tangent_line_volume_rp3,
                        tangent_volume_ratio_convex,
                        tangent_volume_ratio_semialgebraic)
from .intrinsic import (TubeRadiusError, bound_check, compute_profile,
                        steiner_tube_volume, sum_identity_residual)
from .rng import DegenerateConfigurationError, MCEstimate, RngStream
from .schubert import (EXPECTED_DEGREE_LINES_RP3, UnsupportedIndicesError,
                       estimate_expected_degree)
from .tangency import average_tangent_count_empirical
from .volumes import (TangentCountInputs, average_tangent_count,
                      grassmannian_dimension, orthogonal_volume,
                      projective_grassmannian_volume, schubert_ratio,
                      schubert_volume, sphere_tangent_ratio, sphere_volume)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REFUSED = 3
MAX_SWEEP_RADII = 10_000        # largest COUNT of omega --sweep-radius
MAX_SAMPLES = 10 ** 9           # largest delta --samples and tau --delta-source mc:N
MAX_PLANE_SAMPLES = 1024        # largest omega --samples, 16x the default
MAX_TRIALS = 10 ** 6            # largest tau --trials
MAX_LEVEL = 7                   # largest --level: 128 * 4^6 grid nodes


class UsageError(ValueError):
    """A command line the command refuses after parsing: exit 2."""


#: Exit code of every exception a command may end in; main prints the
#: message, then the per-path log of an exception that carries one.
EXIT_CODES = {
    BodyError: EXIT_USAGE, OSError: EXIT_USAGE, UsageError: EXIT_USAGE,
    UnsupportedIndicesError: EXIT_USAGE,
    NonConvexBodyError: EXIT_REFUSED, SurfaceDegeneracyError: EXIT_REFUSED,
    TubeRadiusError: EXIT_REFUSED, DegenerateConfigurationError: EXIT_REFUSED,
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


def at_least(low, kind, most=math.inf):
    """argparse type for numbers of the given kind in [low, most]."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    parse.__name__ = kind.__name__          # argparse names it in errors
    return parse


positive_int = at_least(1, int)
sample_count = at_least(1, int, MAX_SAMPLES)


def check_flat_dimension(k: int, n: int) -> None:
    if not 0 <= k <= n - 1:
        raise UsageError(f"need 0 <= k <= n-1, got (k, n) = ({k}, {n})")


def cmd_volumes(args) -> dict:
    k, n = args.k, args.n
    check_flat_dimension(k, n)
    try:
        results = {
            "sphere_volume": sphere_volume(n),
            "orthogonal_volume": orthogonal_volume(n + 1),
            "grassmannian_volume": projective_grassmannian_volume(k, n),
            "schubert_ratio": schubert_ratio(k, n),
            "schubert_volume": schubert_volume(k, n),
            "dimension": grassmannian_dimension(k, n),
        }
        representable = all(0 < v < math.inf for v in results.values())
    except OverflowError:
        representable = False
    if not representable:       # the exact volumes are all positive and finite
        raise UsageError(f"(k, n) = ({k}, {n}): the volumes overflow or "
                         "underflow double precision")
    return {"parameters": {"k": k, "n": n}, "results": results}


def cmd_delta(args) -> dict:
    est = estimate_expected_degree(args.k, args.n, args.samples, args.seed,
                                   workers=args.workers)
    return {"parameters": {"k": args.k, "n": args.n, "samples": args.samples},
            "results": {"expected_degree": estimate_entry(est)},
            "degenerate_counts": {"discarded_draws": est.degenerate},
            "diagnostics": est.diagnostics}


def cmd_omega(args) -> dict:
    body = parse_body_file(args.body)
    check_flat_dimension(args.k, body.n)
    method = args.method
    if method == "auto":
        method = "convex" if body.convex else "semialgebraic"
    grid = surface_grid(body.n, args.level)
    parameters = {"body": args.body, "k": args.k, "level": args.level, "method": method}
    if args.sweep_radius:
        lo, hi, count = args.sweep_radius
        if body.kind != "metric_sphere":
            raise UsageError("--sweep-radius needs a metric sphere body")
        if method != "convex":
            raise UsageError(f"--sweep-radius takes the convex method, got {method}")
        if not (1 <= count <= MAX_SWEEP_RADII and count.is_integer()):
            raise UsageError("--sweep-radius COUNT must be an integer in "
                             f"[1, {MAX_SWEEP_RADII}], got {count}")
        return {"parameters": parameters, "results": {
            f"ratio_r_{r:.6f}": tangent_volume_ratio_convex(
                surface_sample(metric_sphere(body.n, r), grid), args.k)
            for r in np.linspace(lo, hi, int(count))}}
    if method == "h-integral" and body.n != 3:
        raise UsageError("h-integral method needs n = 3")
    sample = surface_sample(body, grid)
    if method == "convex":
        results = {"tangent_ratio": tangent_volume_ratio_convex(sample, args.k)}
    elif method == "h-integral":
        vol = tangent_line_volume_rp3(sample)
        results = {"tangent_volume": vol, "tangent_ratio": vol / schubert_volume(1, 3)}
    else:
        est = tangent_volume_ratio_semialgebraic(sample, args.k, args.samples,
                                                 RngStream(args.seed))
        results = {"tangent_ratio": estimate_entry(est)}
    return {"parameters": parameters, "results": results,
            "diagnostics": sample.diagnostics()}


def delta_source(text: str) -> str:
    """argparse type for --delta-source; returns the text unchanged."""
    kind, _, value = text.partition(":")
    if kind == "mc":
        sample_count(value)
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


def _formula_ratios(bodies, k: int, level: int):
    """Tangent-flat ratios of the bodies, the route of each and the
    quadrature nodes sampled: a metric sphere's ratio is the paper's closed
    form, every other body's the curvature quadrature on one shared grid,
    built only when some body needs it."""
    ratios, routes, nodes, grid = [], [], 0, None
    for body in bodies:
        if body.kind == "metric_sphere":
            ratios.append(sphere_tangent_ratio(k, body.n, body.radius))
            routes.append("closed_form")
            continue
        if grid is None:
            grid = surface_grid(body.n, level)
        sample = surface_sample(body, grid)
        ratios.append(tangent_volume_ratio_convex(sample, k))
        routes.append("quadrature")
        nodes += len(sample.J)
    return ratios, routes, nodes


def cmd_tau(args) -> dict:
    k, n = args.k, args.n
    check_flat_dimension(k, n)
    d = grassmannian_dimension(k, n)
    if len(args.bodies) != d:
        raise UsageError(f"(k, n) = ({k}, {n}) needs {d} body files, "
                         f"got {len(args.bodies)}")
    bodies = [parse_body_file(p) for p in args.bodies]
    if any(b.n != n for b in bodies):
        raise UsageError("all bodies must live in the same RP^n")
    delta = _resolve_delta(args.delta_source, k, n, args.seed, args.workers)
    results: dict = {"expected_degree": delta}
    report = {"parameters": {"k": k, "n": n, "mode": args.mode,
                             "bodies": list(args.bodies), "trials": args.trials,
                             "delta_source": args.delta_source},
              "results": results}
    if args.mode == "formula":
        ratios, routes, nodes = _formula_ratios(bodies, k, args.level)
        tau = average_tangent_count(TangentCountInputs(k, n, tuple(ratios), delta))
        if not math.isfinite(tau):
            raise UsageError("the average tangent count overflows double precision")
        for i, r in enumerate(ratios):
            results[f"ratio_{i}"] = r
        results["average_tangent_count"] = tau
        report["diagnostics"] = {"routes": routes, "nodes": nodes}
    else:
        if (k, n) != (1, 3) or any(b.matrix is None for b in bodies):
            raise UsageError("empirical mode counts tangent lines to quadrics "
                             "in RP^3 only")
        est = average_tangent_count_empirical(bodies, args.trials,
                                              args.seed, args.workers)
        results["average_tangent_count"] = estimate_entry(est)
        report["degenerate_counts"] = {"discarded_trials": est.degenerate,
                                       "path_failure_trials": est.failed}
        report["diagnostics"] = est.diagnostics
    return report


def cmd_intrinsic(args) -> dict:
    body = parse_body_file(args.body)
    grid = surface_grid(body.n, args.level)
    profile = compute_profile(body, grid)
    results: dict = {f"V_{j}": float(v) for j, v in enumerate(profile.values)}
    results["volume"] = profile.volume
    results["polar_volume"] = profile.polar
    results["reach_estimate"] = profile.reach
    results["sum_identity_residual"] = sum_identity_residual(profile)
    for k in range(body.n):
        results[f"bound_ok_k{k}"] = bound_check(profile, k)
    results["tube_volume"] = steiner_tube_volume(profile, args.eps)
    return {"parameters": {"body": args.body, "eps": args.eps, "level": args.level},
            "results": results, "diagnostics": profile.diagnostics}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept: a build takes about 1 ms."""
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
        p.add_argument("--level", type=at_least(1, int, MAX_LEVEL), default=4,
                       help=f"quadrature refinement level, at most {MAX_LEVEL}")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("volumes", help="closed-form volumes for (k, n)")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    common(p, seed=False)
    p.set_defaults(seed=None)

    p = sub.add_parser("delta", help="expected degree of the k-flat Grassmannian")
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--samples", type=sample_count, default=1_000_000,
                   help=f"Monte Carlo draws, at most {MAX_SAMPLES}")
    common(p)

    p = sub.add_parser("omega", help="tangent-flat volume ratio of a body")
    p.add_argument("body", help="body file")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--method", choices=("auto", "convex", "semialgebraic",
                                        "h-integral"), default="auto")
    p.add_argument("--samples", type=at_least(1, int, MAX_PLANE_SAMPLES), default=64,
                   help=f"tangent-plane Monte Carlo samples per node, at most {MAX_PLANE_SAMPLES}")
    p.add_argument("--sweep-radius", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "COUNT"),
                   help=f"metric spheres, convex method: COUNT <= {MAX_SWEEP_RADII} radii")
    common(p)

    p = sub.add_parser("tau", help="average tangent count")
    p.add_argument("bodies", nargs="+", help="body files, one per hypersurface")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--mode", choices=("formula", "empirical"), default="formula")
    p.add_argument("--trials", type=at_least(1, int, MAX_TRIALS), default=200,
                   help=f"empirical rotation trials, at most {MAX_TRIALS}")
    p.add_argument("--delta-source", type=delta_source, default="reference",
                   help=f"exact | reference | mc:<samples <= {MAX_SAMPLES}> | value:<x>")
    common(p)

    p = sub.add_parser("intrinsic", help="intrinsic volume profile and checks")
    p.add_argument("body", help="body file")
    p.add_argument("--eps", type=at_least(0, float), default=0.0,
                   help="tube radius for the Steiner evaluation")
    common(p, seed=False)
    p.set_defaults(seed=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:     # cmd_<command> is looked up per call, so a replaced one is the one run
        report = {"degenerate_counts": {}, **globals()[f"cmd_{args.command}"](args)}
        report.update(command=args.command, seed=args.seed, version=__version__,
                      wall_time_s=time.perf_counter() - t0)
        emit(report, args)
        return EXIT_OK
    except BrokenPipeError:
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        code = next(c for cls, c in EXIT_CODES.items() if isinstance(exc, cls))
        print("\n".join([f"error: {exc}", *getattr(exc, "path_log", ())]),
              file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
