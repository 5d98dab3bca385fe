"""The benchmark's workloads: seed-deterministic inputs, the CLI commands
each measured pass runs, and the correctness gates on their reports.

Every workload is a list of passes.  A pass is a short list of CLI
commands whose inputs are drawn from (workload, seed, pass index), so the
same seed always yields the same sequence of inputs; a timed run executes
passes until its time is up.  README.md in this directory says why each
workload was chosen.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

import stats

#: Reference expected degree of the Grassmannian of lines in RP^3 (the
#: value the package ships as EXPECTED_DEGREE_LINES_RP3).
EXPECTED_DEGREE = 1.7262
#: Gates on Monte Carlo estimates accept |estimate - target| <= NSIGMA stderr.
NSIGMA = 4.0
#: Quadrature nodes of one surface at the CLI's default --level 4 in RP^3
#: (64 polar x 128 azimuthal).  Fixed here so that nodes_per_s counts
#: requested work, not work the program happens to do.
NODES_PER_SURFACE = 8192
#: Tangent ratios of the two octahedral quartics, recorded at the commit
#: that introduced the benchmark.  The quadrature is deterministic.
QUARTIC_REFERENCE = {"convex": 1.2741399695891777,
                     "nonconvex": 2.168597810553167}
QUARTIC_RTOL = 1e-9
SUM_IDENTITY_TOL = 1e-4

DELTA_SAMPLES = 200_000          # draws per timed pass (49 batches of 4096)
DELTA_TRACE_SAMPLES = 409_600     # 100 batches in the traced run
# The CLI refuses (exit 3) a tau command with more than 5% degenerate
# trials, so a 12-trial command fails on a single one (seen once in about
# 4000 sphere trials); 20 trials, the fewest that tolerate one, count it
# instead and keep passes short, so that a timed run holds more of them.
TAU_TRIALS = 20                   # rotation trials per timed pass
TAU_TRACE_TRIALS = 100            # 100 solves, so p90 has 10 samples beyond
SURFACE_ELLIPSOIDS = 10           # intrinsic calls per surface-quadrature pass
INTRINSIC_EPS = 0.05              # well inside the reach of these ellipsoids
SPHERE_RADII = (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 4)


@dataclass
class Command:
    """One CLI invocation and what it contributes to the metrics."""

    argv: list[str]
    items: int = 0                  # draws, trials or nodes it asks for
    role: str = ""                  # how its report is checked and pooled
    target: float | None = None     # reference value for per-command gates


@dataclass
class Pass:
    index: int
    commands: list[Command] = field(default_factory=list)


def pass_rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512, so this is stable across processes
    return random.Random(f"{workload}:{seed}:{index}")


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def metric_sphere_text(radius: float) -> str:
    return f"kind = metric_sphere\nn = 3\nradius = {radius!r}\n"


def ellipsoid_text(semiaxes) -> str:
    return ("kind = ellipsoid\nn = 3\nsemiaxes = "
            + " ".join(repr(a) for a in semiaxes) + "\n")


def octahedral_quartic_text(a: float, b: float, convex: bool) -> str:
    """x^4+y^4+z^4 + a(x^2y^2+y^2z^2+z^2x^2) = b w^4, star-shaped around e_0."""
    lines = ["kind = implicit", "n = 3"]
    for j in (1, 2, 3):
        e = [0, 0, 0, 0]
        e[j] = 4
        lines.append("term = 1.0 " + " ".join(map(str, e)))
    for i, j in ((1, 2), (2, 3), (1, 3)):
        e = [0, 0, 0, 0]
        e[i] = e[j] = 2
        lines.append(f"term = {a!r} " + " ".join(map(str, e)))
    lines.append(f"term = {-b!r} 4 0 0 0")
    lines.append(f"convex = {'true' if convex else 'false'}")
    return "\n".join(lines) + "\n"


def random_semiaxes(rng: random.Random, lo=0.6, hi=1.8) -> list[float]:
    """Log-uniform semiaxes, the distribution the acceptance suite uses."""
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(3)]


class Workload:
    name = ""             # as declared in BENCHMARK.json, with its reason

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def make_pass(self, index: int) -> Pass:
        raise NotImplementedError

    def warmup(self) -> list[Command]:
        """Small untimed commands that fault in code paths before timing."""
        raise NotImplementedError

    def trace_pass(self) -> Pass:
        """The fixed pass the traced run executes."""
        return self.make_pass(0)

    def setup_files(self) -> list[str]:
        """Body files that a user of this workload parses at start-up."""
        return [c.argv[i] for c in self.make_pass(0).commands
                for i in range(1, len(c.argv)) if c.argv[i].endswith(".body")]

    def pass_seed(self, index: int) -> int:
        return pass_rng(self.name, self.seed, index).randrange(1 << 31)


class ExpectedDegree(Workload):
    name = "expected-degree"

    def _delta(self, samples: int, seed: int) -> Command:
        return Command(["delta", "1", "3", "--samples", str(samples),
                        "--seed", str(seed)], items=samples, role="delta")

    def make_pass(self, index):
        return Pass(index, [self._delta(DELTA_SAMPLES, self.pass_seed(index))])

    def warmup(self):
        return [self._delta(8192, self.pass_seed(-1))]

    def trace_pass(self):
        return Pass(0, [self._delta(DELTA_TRACE_SAMPLES, self.pass_seed(0))])


class _TauWorkload(Workload):
    def body_texts(self, index: int) -> list[str]:
        raise NotImplementedError

    def _tau(self, index: int, trials: int, seed: int) -> list[Command]:
        files = [_write(self.path(f"p{index}_b{j}.body"), text)
                 for j, text in enumerate(self.body_texts(index))]
        return [Command(["tau", *files, "--mode", "formula"], role="formula"),
                Command(["tau", *files, "--mode", "empirical", "--trials",
                         str(trials), "--seed", str(seed)],
                        items=trials, role="empirical")]

    def make_pass(self, index):
        return Pass(index, self._tau(index, TAU_TRIALS, self.pass_seed(index)))

    def warmup(self):
        # formula only: a short empirical run is refused on one degenerate trial
        return self.make_pass(0).commands[:1]

    def trace_pass(self):
        return Pass(0, self._tau(0, TAU_TRACE_TRIALS, self.pass_seed(0)))


class MainTheorem(_TauWorkload):
    name = "main-theorem"

    def body_texts(self, index):
        return [metric_sphere_text(r) for r in SPHERE_RADII]


class GenericQuadrics(_TauWorkload):
    name = "generic-quadrics"

    def body_texts(self, index):
        rng = pass_rng(self.name + "/bodies", self.seed, index)
        return [ellipsoid_text(random_semiaxes(rng)) for _ in range(4)]


class SurfaceQuadrature(Workload):
    name = "surface-quadrature"

    def make_pass(self, index):
        convex = _write(self.path("quartic_convex.body"),
                        octahedral_quartic_text(1.2, 1.0, True))
        nonconvex = _write(self.path("quartic_nonconvex.body"),
                           octahedral_quartic_text(-0.9, 1.0, False))
        cmds = [Command(["omega", convex, "--k", "1"], items=NODES_PER_SURFACE,
                        role="quartic", target=QUARTIC_REFERENCE["convex"]),
                Command(["omega", nonconvex, "--method", "h-integral"],
                        items=NODES_PER_SURFACE, role="quartic",
                        target=QUARTIC_REFERENCE["nonconvex"])]
        rng = pass_rng(self.name + "/bodies", self.seed, index)
        for j in range(SURFACE_ELLIPSOIDS):
            body = _write(self.path(f"p{index}_e{j}.body"),
                          ellipsoid_text(random_semiaxes(rng)))
            cmds.append(Command(["intrinsic", body, "--eps", str(INTRINSIC_EPS)],
                                items=NODES_PER_SURFACE, role="intrinsic"))
        return Pass(index, cmds)

    def warmup(self):
        cmds = self.make_pass(0).commands
        return [Command(cmds[0].argv + ["--level", "1"]),
                Command(cmds[2].argv)]


WORKLOADS = {cls.name: cls for cls in
             (ExpectedDegree, MainTheorem, GenericQuadrics, SurfaceQuadrature)}


# ---------------------------------------------------------------------------
# correctness gates

def command_error(cmd: Command, report: dict | None) -> str | None:
    """Per-command check of one report; None when it passes."""
    if report is None:
        return "no report"
    results = report.get("results", {})
    if cmd.role == "quartic":
        ratio = results.get("tangent_ratio")
        if not isinstance(ratio, float) or \
                abs(ratio - cmd.target) > QUARTIC_RTOL * abs(cmd.target):
            return f"tangent_ratio {ratio!r} differs from reference {cmd.target!r}"
    elif cmd.role == "intrinsic":
        residual = results.get("sum_identity_residual")
        if residual is None or not abs(residual) < SUM_IDENTITY_TOL:
            return f"sum_identity_residual {residual!r} not below {SUM_IDENTITY_TOL}"
        bounds = [k for k in results if k.startswith("bound_ok_k")]
        if not bounds or not all(results[k] is True for k in bounds):
            return "a bound_ok_k* flag is not true"
    return None


def pooled_gate(records) -> tuple[str | None, list[int]]:
    """Pool every Monte Carlo estimate of a run against its target.

    records: list of (pass index, Command, report or None, record index).
    delta estimates are compared with EXPECTED_DEGREE, empirical tau
    estimates with the formula report of the same pass.  Returns an error
    message (None when the gate passes) and the record indices it covers.
    """
    formula = {}
    for index, cmd, report, _ in records:
        if cmd.role == "formula" and report is not None:
            formula[index] = report["results"]["average_tangent_count"]
    groups, covered = [], []
    for index, cmd, report, rec in records:
        if cmd.role not in ("delta", "empirical"):
            continue
        covered.append(rec)
        if report is None:
            continue
        key = "expected_degree" if cmd.role == "delta" else "average_tangent_count"
        est = report["results"][key]
        target = EXPECTED_DEGREE if cmd.role == "delta" else formula.get(index)
        if target is None:
            return f"pass {index} has no formula report", covered
        groups.append((est["mean"], est["stderr"], est["samples"], target))
    if not covered:
        return None, covered
    try:
        resid, stderr, n = stats.pooled_residual(groups)
    except ValueError as exc:
        return str(exc), covered
    if abs(resid) > NSIGMA * stderr:
        return (f"pooled estimate misses its target by {resid:.5f} over {n} "
                f"samples, more than {NSIGMA:g} x stderr {stderr:.5f}"), covered
    return None, covered


def discarded(cmd: Command, report: dict | None) -> tuple[int, int]:
    """(discarded, attempted) draws or trials of one command."""
    if report is None or cmd.role not in ("delta", "empirical"):
        return 0, 0
    counts = report.get("degenerate_counts", {})
    lost = counts.get("discarded_draws", counts.get("discarded_trials", 0))
    return int(lost), cmd.items
