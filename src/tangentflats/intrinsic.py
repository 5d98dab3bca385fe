"""Spherical/projective intrinsic volumes, Steiner tube formula, polar
bodies, and the sum identity they satisfy.

A convex body C in RP^n is lifted to one component of its preimage on S^n;
volumes and intrinsic volumes agree with the lift.  The j-th intrinsic
volume is a quarter of the tangent volume ratio at k = n-1-j, and the full
collection satisfies

    4|C|/|S^n| + 4|C*|/|S^n| + sum_k ratio_k = 4,

where C* is the polar body of the lifted cone.

`compute_profile(body, grid)` samples the body once and builds its
IntrinsicProfile; the region volume reads the SurfaceSample, and the sum
identity, bound check and Steiner tube volume read the profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import atan, pi, sqrt

import numpy as np
from numpy.polynomial.polynomial import polyval

from .bodies import BodyError, ConvexBody, quadric
from .curvature import (NonConvexBodyError, QuadratureGrid, SurfaceSample,
                        _radial_roots, min_curvature_radius, surface_sample,
                        tangent_volume_ratio_profile)
from .rng import MCEstimate, RngStream
from .volumes import sphere_volume, steiner_coefficient

class TubeRadiusError(ValueError):
    """Requested tube radius exceeds the validity estimate."""


def _cap_profile_volume(rho: np.ndarray, weights: np.ndarray, n: int) -> float:
    """Volume of the star-shaped region with radial profile rho over the
    direction grid: weights @ I_{n-1}(rho), I_m(rho) = int_0^rho sin^m(t) dt,
    in closed form.  From rho = pi/6 up, the reduction
    I_m = -sin^{m-1}(rho) cos(rho) / m + (m-1)/m I_{m-2} from I_0 = rho and
    I_1 = 1 - cos(rho); below, where its terms cancel, the positive series
    I_m = sum_j (1/2)_j / j! sin^{m+1+2j}(rho) / (m+1+2j) of t = arcsin(u),
    whose 27 terms shrink at least 4-fold each."""
    m = n - 1
    s, c = np.sin(rho), np.cos(rho)
    inner = rho.copy() if m % 2 == 0 else 1.0 - c
    for j in range(2 + m % 2, m + 1, 2):
        inner = (j - 1) / j * inner - s ** (j - 1) * c / j
    small = rho < pi / 6
    j = np.arange(27)
    coef = np.cumprod(np.r_[1.0, 1.0 - 0.5 / j[1:]]) / (m + 1 + 2 * j)
    inner[small] = s[small] ** (m + 1) * polyval(s[small] ** 2, coef)
    return float(weights @ inner)


def body_volume(sample: SurfaceSample) -> float:
    """Volume of the convex region bounded by the sample's body, computed on
    one lifted component (equal to the projective volume), from its radial
    profile."""
    if not sample.body.convex:
        raise NonConvexBodyError("volume of the bounded region needs a convex body")
    return _cap_profile_volume(sample.rho, sample.grid.weights, sample.body.n)


def polar_body(body: ConvexBody) -> ConvexBody:
    """Polar dual of the lifted convex region.

    For a quadric region {x^T A x <= 0} the polar cone is the region of the
    inverse matrix, which keeps the computation exact; only quadric-backed
    kinds are supported.
    """
    if body.matrix is None:
        raise BodyError("polar body is implemented for quadric-backed kinds only")
    return quadric(np.linalg.inv(body.matrix))


def polar_volume(body: ConvexBody, grid: QuadratureGrid) -> float:
    """Volume of the polar of the lifted convex region, from the polar
    body's radial roots alone."""
    rho = _radial_roots(polar_body(body), grid.nodes)[0]
    return _cap_profile_volume(rho, grid.weights, body.n)


@dataclass(frozen=True)
class IntrinsicProfile:
    """Intrinsic volumes V_0..V_{n-1} of a convex body together with the
    region volume, polar volume, a conservative reach estimate, and the
    surface sample's diagnostics with the reach's source."""

    body: ConvexBody
    values: np.ndarray          # (n,) intrinsic volumes V_j
    ratios: np.ndarray          # (n,) tangent volume ratios, index k
    volume: float
    polar: float
    reach: float
    diagnostics: dict

    def __post_init__(self):
        if (np.asarray(self.values) < -1e-12).any():
            raise ValueError("intrinsic volumes of a convex body are nonnegative")


def compute_profile(body: ConvexBody, grid: QuadratureGrid) -> IntrinsicProfile:
    """Intrinsic volume profile of a convex quadric-backed body.  The polar
    comes first, refusing implicit bodies before any quadrature; the ratios,
    reach and region volume then come from one surface sample.  Beyond the
    curvature bound, the tube of a lifted body K meets that of -K once eps
    reaches pi/2 - R, R = arctan sqrt(-lam_0 / lam_1) the largest radial root
    (the angular circumradius of K about its star center)."""
    polar = polar_volume(body, grid)
    sample = surface_sample(body, grid)
    ratios = tangent_volume_ratio_profile(sample)
    values = ratios[::-1] / 4.0                       # V_j = ratio_{n-1-j} / 4
    if body.kind == "metric_sphere":
        reach, source = pi / 2 - body.radius, "radius"
    else:
        lam = body.eigh[0]
        reach, source = min((min_curvature_radius(sample), "curvature"),
                            (pi / 2 - atan(sqrt(-lam[0] / lam[1])), "circumradius"))
    return IntrinsicProfile(body, values, ratios, body_volume(sample), polar,
                            reach, {**sample.diagnostics(), "reach_source": source})


def steiner_tube_volume(profile: IntrinsicProfile, eps: float) -> float:
    """Volume of the eps-neighborhood by the tube expansion

        |C| + sum_k f_k(eps) |S^k| |S^{n-k-1}| V_k(C).

    Refuses eps beyond the profile's reach estimate rather than silently
    extrapolating past the formula's validity.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps > profile.reach + 1e-12:
        raise TubeRadiusError(
            f"tube radius {eps:.6g} exceeds the validity estimate "
            f"{profile.reach:.6g}")
    n = profile.body.n
    total = profile.volume
    for k in range(n):
        total += steiner_coefficient(k, n, eps) * sphere_volume(k) * \
            sphere_volume(n - k - 1) * profile.values[k]
    return total


def mc_tube_volume(body: ConvexBody, eps: float, samples: int,
                   rng: RngStream) -> MCEstimate:
    """Direct Monte Carlo tube volume: uniform points on S^n tested for
    projective distance <= eps from the body.

    Implemented for metric spheres, where the distance to the region is the
    exact angle gap; this is the independent oracle for the tube formula.
    """
    if body.kind != "metric_sphere":
        raise BodyError("direct tube sampling is implemented for metric spheres")
    n = body.n
    g = rng.generator()
    x = g.standard_normal((samples, n + 1))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    c = body.star_center()
    ang = np.arccos(np.clip(np.abs(x @ c), 0.0, 1.0))
    hit = ang <= body.radius + eps
    p = hit.mean()
    vol_rpn = sphere_volume(n) / 2.0
    mean = vol_rpn * p
    stderr = vol_rpn * np.sqrt(max(p * (1 - p), 0.0) / samples)
    return MCEstimate(float(mean), float(stderr), samples)


def sum_identity_residual(profile: IntrinsicProfile) -> float:
    """Deviation of 4|C|/|S^n| + 4|C*|/|S^n| + sum_k ratio_k from 4."""
    sn = sphere_volume(profile.body.n)
    lhs = 4.0 * profile.volume / sn + 4.0 * profile.polar / sn + profile.ratios.sum()
    return float(lhs - 4.0)


def bound_check(profile: IntrinsicProfile, k: int, slack: float = 1e-6) -> bool:
    """True iff the tangent volume ratio at k respects the universal bound of 4."""
    return bool(profile.ratios[k] <= 4.0 + slack)
