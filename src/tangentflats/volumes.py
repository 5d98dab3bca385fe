"""Closed-form volumes and the product formula for average tangent counts.

All quantities use the Riemannian metric induced by the spherical Pluecker
embedding of the Grassmannian and the metric <A, B> = tr(A^T B) / 2 on the
orthogonal group, so that

    |S^n|      = 2 pi^{(n+1)/2} / Gamma((n+1)/2)
    |O(n+1)|   = |S^n| |O(n)|,   |O(1)| = 2
    |Gr(k,n)|  = |O(n)| / (|O(k)| |O(n-k)|)          (k-planes in R^n)

The projective Grassmannian of k-flats in RP^n is Gr(k+1, n+1).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from math import acos, exp, gamma, log, pi, sqrt

import numpy as np


def grassmannian_dimension(k: int, n: int) -> int:
    """Dimension (k+1)(n-k) of the space of k-flats in RP^n."""
    return (k + 1) * (n - k)


def sphere_volume(n: int) -> float:
    """Surface volume of the unit n-sphere."""
    if n < 0:
        raise ValueError("need n >= 0")
    return 2.0 * pi ** ((n + 1) / 2) / gamma((n + 1) / 2)


def orthogonal_volume(n: int) -> float:
    """Volume of O(n) via the recursion |O(m+1)| = |S^m| |O(m)|, |O(1)| = 2."""
    if n < 1:
        raise ValueError("need n >= 1")
    vol = 2.0
    for m in range(1, n):
        vol *= sphere_volume(m)
    return vol


def grassmannian_volume(k: int, n: int) -> float:
    """Volume of the Grassmannian of k-planes in R^n."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return orthogonal_volume(n) / (orthogonal_volume(k) * orthogonal_volume(n - k)) \
        if 0 < k < n else 1.0


def projective_grassmannian_volume(k: int, n: int) -> float:
    """Volume of the space of k-flats in RP^n, i.e. |Gr(k+1, n+1)|."""
    return grassmannian_volume(k + 1, n + 1)


@dataclass(frozen=True)
class SchubertRatio:
    """The Gamma-factor ratio |Sch(k,n)| / |Gr(k+1,n+1)| for the special
    Schubert hypersurface of k-flats meeting a fixed (n-k-1)-flat."""

    value: float
    k: int
    n: int

    def __float__(self) -> float:
        return self.value

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("ratio must be positive")


def schubert_ratio(k: int, n: int) -> SchubertRatio:
    """Gamma((k+2)/2)Gamma((n-k+1)/2) / (Gamma((k+1)/2)Gamma((n-k)/2)).

    Symmetric under k -> n-1-k.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    value = (gamma((k + 2) / 2) / gamma((k + 1) / 2)) * \
            (gamma((n - k + 1) / 2) / gamma((n - k) / 2))
    return SchubertRatio(value, k, n)


def schubert_volume(k: int, n: int) -> float:
    """Volume of the special Schubert hypersurface in the k-flat Grassmannian."""
    return projective_grassmannian_volume(k, n) * schubert_ratio(k, n).value


def steiner_coefficient(k: int, n: int, eps: float) -> float:
    """The tube-expansion coefficient integral of cos^k(t) sin^{n-1-k}(t) on [0, eps].

    Evaluated by the 64-node Gauss-Legendre rule on [0, eps], within 1e-13
    relative for n <= 61; closed forms for special (k, n) are test oracles.
    """
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    if not 0 <= eps <= pi / 2:
        raise ValueError("eps must lie in [0, pi/2]")
    if eps == 0.0:
        return 0.0
    t, w = eps * _unit_legendre_rule()
    return float(w @ (np.cos(t) ** k * np.sin(t) ** (n - 1 - k)))


@functools.cache
def _unit_legendre_rule() -> np.ndarray:
    """Read-only (nodes, weights) of the 64-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(64)
    rule = np.array([x + 1.0, w]) / 2.0
    rule.flags.writeable = False        # built on first use, shared by every call
    return rule


def sphere_tangent_ratio(k: int, n: int, r):
    """Tangent-flat volume ratio of the metric sphere of radius r in RP^n:

        2 Gamma((n+1)/2) / (Gamma((k+2)/2) Gamma((n-k+1)/2))
            * cos(r)^k sin(r)^{n-k-1}

    Accepts scalar or array radii in (0, pi/2).
    """
    r = np.asarray(r, dtype=float)
    if not ((r > 0) & (r < pi / 2)).all():
        raise ValueError("radius must lie in (0, pi/2)")
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    const = 2.0 * gamma((n + 1) / 2) / (gamma((k + 2) / 2) * gamma((n - k + 1) / 2))
    out = const * np.cos(r) ** k * np.sin(r) ** (n - k - 1)
    return out if out.shape else float(out)


def max_sphere_line_tangent_ratio(n: int) -> tuple[float, float]:
    """Radius maximizing the line-tangency ratio among metric spheres, and
    the maximum value.

    The maximizer is arccos(1/sqrt(n-1)); the value approaches
    sqrt(8/(e pi)) * (1 + 1/(2n)) for large n.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    r_star = acos(1.0 / sqrt(n - 1))
    value = (4.0 / sqrt(pi)) * ((n - 2) / (n - 1)) ** ((n - 2) / 2) / sqrt(n - 1) \
        * gamma((n + 1) / 2) / gamma(n / 2)
    return r_star, value


def expected_degree_lines_asymptotic(n: int) -> float:
    """Leading term of the expected degree for lines in RP^n:

        8 / (3 pi^{5/2}) * n^{-1/2} * (pi^2 / 4)^n

    This is an asymptotic in n, not an evaluation of the defining integral;
    at small n it is only an order-of-magnitude guide.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    # work in logs: (pi^2/4)^n overflows moderately fast
    lg = log(8.0 / 3.0) - 2.5 * log(pi) - 0.5 * log(n) + n * log(pi * pi / 4.0)
    return exp(lg)


def average_scaling_factor(k: int, n: int, expected_degree: float) -> float:
    """Scaling factor of the kinematic formula recovered from the expected
    degree: degree / (|Gr(k+1,n+1)| * schubert_ratio^{(k+1)(n-k)})."""
    if expected_degree < 0:
        raise ValueError("expected degree must be nonnegative")
    d = grassmannian_dimension(k, n)
    return expected_degree / (projective_grassmannian_volume(k, n) *
                              schubert_ratio(k, n).value ** d)


@dataclass(frozen=True)
class TangentCountInputs:
    """Inputs of the product formula for the average tangent count.

    ratios holds one tangent-volume ratio per hypersurface; there must be
    exactly (k+1)(n-k) of them, each nonnegative.  expected_degree is exact
    (equal to one) for k in {0, n-1} and estimated otherwise.
    """

    k: int
    n: int
    ratios: tuple
    expected_degree: float

    def __post_init__(self):
        ratios = tuple(float(r) for r in self.ratios)
        d = grassmannian_dimension(self.k, self.n)
        if len(ratios) != d:
            raise ValueError(f"need {d} ratios for (k,n)=({self.k},{self.n}), "
                             f"got {len(ratios)}")
        if any(r < 0 for r in ratios):
            raise ValueError("ratios must be nonnegative")
        if self.expected_degree < 0:
            raise ValueError("expected degree must be nonnegative")
        object.__setattr__(self, "ratios", ratios)


def average_tangent_count(inputs: TangentCountInputs) -> float:
    """Average number of k-flats tangent to all hypersurfaces in random
    position: expected_degree times the product of the tangent ratios."""
    out = inputs.expected_degree
    for r in inputs.ratios:
        out *= r
    return out
