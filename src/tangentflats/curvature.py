"""Second fundamental form, principal curvatures, and quadrature of the
tangent-flat volume of a hypersurface.

A body is sampled once per grid: `surface_sample(body, grid)` solves the
radial roots, area element and principal curvatures at every node, and
every quadrature and check then reads that SurfaceSample, which carries its
body and grid.

All geometry happens on the double cover S^n.  A body's surface is
parametrized radially from an interior star center c:

    x(omega) = cos(rho) c + sin(rho) W omega,     omega in S^{n-1},

where W spans c-perp and rho(omega) is the root of F along the ray.  The
area element factors as

    J = sin(rho)^{n-2} sqrt(sin(rho)^2 + |grad rho|^2),

because the angular tangent directions stay orthogonal to the radial one.

The shape operator at a surface point x with respect to the inward normal is
the restriction of Hess(F)/|grad F| to the tangent space {x, grad F}^perp,
with the sign fixed so that a metric sphere of radius r has all principal
curvatures equal to cot(r).
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, gamma, pi

import numpy as np

from .bodies import BodyError, ConvexBody
from .rng import MCEstimate, RngStream
from .volumes import legendre_rule, sphere_volume

GRID_BUDGET_BASE = 128          # node budget at level 1 is 128, x4 per level
MAX_GRID_NODES = 2 ** 20        # twice level 7's budget; a larger grid is refused
DEGENERATE_DET_TOL = 1e-12


class NonConvexBodyError(ValueError):
    """Non-positive curvature found on a body declared convex."""


class SurfaceDegeneracyError(ValueError):
    """Surface parametrization or gradient degenerates at some node."""


# ---------------------------------------------------------------------------
# quadrature grid on S^{n-1}

@dataclass(frozen=True)
class QuadratureGrid:
    """Product quadrature on the direction sphere S^{n-1}.

    Gauss-Legendre in the polar angles, uniform in the azimuth; weights are
    renormalized to sum exactly to |S^{n-1}| so constants integrate exactly.
    """

    n: int
    nodes: np.ndarray     # (N, n) unit vectors, a view of a node-last (n, N) array
    weights: np.ndarray   # (N,) positive, summing to |S^{n-1}|

    def __post_init__(self):
        if (self.weights <= 0).any():
            raise ValueError("quadrature weights must be positive")


def grid_axis_points(n: int, level: int) -> int:
    """Points per polar axis: the total node budget 128 * 4^(level-1) spread
    over the n-1 angular axes (azimuth gets twice the polar count)."""
    m = n - 1
    budget = GRID_BUDGET_BASE * 4 ** (level - 1)
    return max(4, round((budget / 2.0) ** (1.0 / m)))


def surface_grid(n: int, level: int) -> QuadratureGrid:
    if n < 2:
        raise BodyError("need ambient projective dimension n >= 2")
    if level < 1:
        raise ValueError("level must be >= 1")
    m = n - 1
    P = grid_axis_points(n, level)
    if 2 * P ** m > MAX_GRID_NODES:     # from n = 8 the 4-point floor outgrows the budget
        raise BodyError(f"the grid on S^{m} needs {2 * P ** m} nodes, over {MAX_GRID_NODES}")
    x, w = legendre_rule(P) if m > 1 else np.empty((2, 0))     # S^1 has no polar axis
    theta = (x + 1.0) * (pi / 2)
    axes = [(theta, w * (pi / 2) * np.sin(theta) ** (m - 1 - j)) for j in range(m - 1)]
    nphi = 2 * P
    phi = np.arange(nphi) * (2 * pi / nphi)
    axes.append((phi, np.full(nphi, 2 * pi / nphi)))

    angle_grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    weight = np.ones_like(angle_grids[0])
    for wg in np.meshgrid(*[a[1] for a in axes], indexing="ij"):
        weight = weight * wg

    shape = angle_grids[0].shape
    pts = np.empty((n,) + shape)
    s = np.ones(shape)
    for j in range(m):
        pts[j] = s * np.cos(angle_grids[j])
        s = s * np.sin(angle_grids[j])
    pts[m] = s

    w = weight.ravel()
    w = w * (sphere_volume(n - 1) / w.sum())
    return QuadratureGrid(n, pts.reshape(n, -1).T, w)


# ---------------------------------------------------------------------------
# surface parametrization

def _radial_roots(body: ConvexBody, omega: np.ndarray):
    """Geodesic radius rho(omega) of the surface along each ray from the
    star center c, plus c and an orthonormal basis W (columns) of c-perp.
    Closed form for quadrics, whose c is the negative eigenvector.  On an
    implicit surface of degree d, F on the half circle of a ray is a binary
    form in (cos t, sin t), fitted by one solve to F at t_j = j pi/(d+1)
    (condition number 4.9 at d = 4).  By Horner in tan t on that form, a
    192-step scan brackets the first sign change on each ray (rejecting
    bodies not star-shaped around c), then Illinois regula falsi, each step
    at least an ulp inside the bracket, narrows it to two ulps."""
    if body.matrix is not None:
        lam, vec = body.eigh
        q = (omega ** 2) @ lam[1:]
        return np.arctan(np.sqrt(-lam[0] / q)), vec[:, 0], vec[:, 1:]
    c = body.star_center()
    W = _orthobasis_complement(c[:, None])[..., 0]
    omt = W @ omega.T                               # (n+1, N)
    s_in = body.interior_sign()
    if s_in == 0:
        raise SurfaceDegeneracyError("the star center lies on the surface")
    d = body.poly.degree
    tj = np.arange(d + 1) * (pi / (d + 1))
    V = np.sin(tj)[:, None] ** np.arange(d, -1, -1) * \
        np.cos(tj)[:, None] ** np.arange(d + 1)
    q = np.linalg.solve(V, np.stack([body.surface_value(
        (np.cos(t) * c[:, None] + np.sin(t) * omt).T) for t in tj]))
    N = omega.shape[0]
    lo, hi, flo, fhi = (np.empty(N) for _ in range(4))
    active, qa, t_prev, f_prev = np.arange(N), q, None, None
    for t in np.linspace(1e-9, pi / 2 - 1e-9, 192):
        f = np.polyval(qa, np.tan(t)) * np.cos(t) ** d
        out = np.sign(f) != s_in
        if out.any():
            idx = active[out]
            lo[idx], flo[idx] = (t, f[out]) if t_prev is None else (t_prev, f_prev[out])
            hi[idx], fhi[idx] = t, f[out]
            active, qa, f = active[~out], qa[:, ~out], f[~out]
            if not active.size:
                break
        t_prev, f_prev = t, f
    if active.size:
        raise SurfaceDegeneracyError(
            "no surface crossing along some rays; the body is not "
            "star-shaped around its center axis")
    side = np.zeros(N)          # -1 / +1: lo / hi moved on the last step
    active = np.arange(N)
    for _ in range(64):
        active = active[hi[active] - lo[active] > 2 * np.spacing(hi[active])]
        if not active.size:
            break
        a, b, fa, fb = lo[active], hi[active], flo[active], fhi[active]
        # the ulp margin closes the bracket once one end has converged
        ulp = np.spacing(b)
        t = np.clip(a - fa * (b - a) / (fb - fa), a + ulp, b - ulp)
        f = np.polyval(q[:, active], np.tan(t)) * np.cos(t) ** d
        inside = np.sign(f) == s_in
        # Illinois: halve the value kept at an end that stays put twice
        fb = np.where(inside & (side[active] < 0), 0.5 * fb, fb)
        fa = np.where(~inside & (side[active] > 0), 0.5 * fa, fa)
        lo[active] = np.where(inside | (f == 0), t, a)
        flo[active] = np.where(inside, f, fa)
        hi[active] = np.where(inside, b, t)
        fhi[active] = np.where(inside, fb, f)
        side[active] = np.where(inside, -1.0, 1.0)
    return 0.5 * (lo + hi), c, W


def surface_points(body: ConvexBody, grid: QuadratureGrid, roots):
    """Surface nodes x (N, n+1), a view of a node-last (n+1, N) array, and
    the area element J (N,), ray cosine |dF/dt| / |grad F| (N,) and gradient
    (N, n+1), a node-last view, there, from the (rho, c, W) that
    _radial_roots returned for grid."""
    rho, c, W = roots
    omt = W @ grid.nodes.T                          # (n+1, N)
    cos, sin = np.cos(rho), np.sin(rho)
    x = cos * c[:, None] + sin * omt

    G = body.surface_gradient(x.T).T
    dFdt = (G * (cos * omt - sin * c[:, None])).sum(0)
    if np.abs(dFdt).min() < 1e-13:
        raise SurfaceDegeneracyError("ray tangent to the surface at a node")
    # |grad rho|^2 from implicit differentiation; angular gradient directions
    # span {c, omega~}-perp
    G2 = (G ** 2).sum(0)
    ang2 = np.maximum(G2 - (c @ G) ** 2 - (G * omt).sum(0) ** 2, 0.0)
    grad_rho2 = sin ** 2 * ang2 / dFdt ** 2
    J = sin ** (grid.n - 2) * np.sqrt(sin ** 2 + grad_rho2)
    return x.T, J, np.abs(dFdt) / np.sqrt(G2), G.T


@dataclass(frozen=True)
class SurfaceSample:
    """A body's surface on a quadrature grid, the one input of every
    quadrature over it: the body and grid, radial profile rho from the star
    center, nodes x, area element J, descending principal curvatures (N, n-1)
    and ray cosines |dF/dt| / |grad F| at the radial roots."""

    body: ConvexBody
    grid: QuadratureGrid
    rho: np.ndarray
    x: np.ndarray
    J: np.ndarray
    principal: np.ndarray
    ray_cosine: np.ndarray

    def diagnostics(self) -> dict:
        """Node count, curvature extremes and smallest ray cosine, for reports."""
        return {"nodes": len(self.J), "min_principal_curvature": float(self.principal.min()),
                "max_abs_principal_curvature": float(np.abs(self.principal).max()),
                "min_ray_cosine": float(self.ray_cosine.min())}


def surface_sample(body: ConvexBody, grid: QuadratureGrid) -> SurfaceSample:
    """Radial roots, area element and principal curvatures at every node."""
    if grid.n != body.n:
        raise ValueError("grid dimension does not match the body")
    roots = _radial_roots(body, grid.nodes)
    x, J, ray_cosine, gradient = surface_points(body, grid, roots)
    return SurfaceSample(body, grid, roots[0], x, J,
                         principal_curvature_arrays(body, x, gradient), ray_cosine)


# ---------------------------------------------------------------------------
# curvature

def _orthobasis_complement(v: np.ndarray) -> np.ndarray:
    """Orthonormal bases (d, d-1, N) of v-perp for the columns of v (d, N),
    via a Householder reflector mapping e_0 to -sign(v_0) v."""
    d = v.shape[0]
    u = v.copy()
    u[0] += np.where(v[0] >= 0, 1.0, -1.0)
    u = u / np.linalg.norm(u, axis=0)
    return np.eye(d)[:, 1:, None] - (2.0 * u)[:, None] * u[None, 1:]


def shape_operators(body: ConvexBody, x: np.ndarray, gradient: np.ndarray):
    """Restricted shape operator matrices at surface nodes x (N, n+1), given
    the body's gradient (N, n+1) there.

    Returns (S, T, nu): S is (N, n-1, n-1) symmetric with the principal
    curvatures as eigenvalues, T the tangent bases (N, n+1, n-1) and nu the
    inward unit normals (N, n+1), each a view of a node-last array.
    """
    G = gradient.T
    Gn = np.linalg.norm(G, axis=0)
    if Gn.min() < 1e-12:
        raise SurfaceDegeneracyError("vanishing gradient on the surface")
    ghat = G / Gn
    s_in = body.interior_sign()

    B1 = _orthobasis_complement(x.T)                     # basis of x-perp
    g_in = np.einsum('in,ijn->jn', ghat, B1)
    B2 = _orthobasis_complement(g_in / np.linalg.norm(g_in, axis=0))
    T = np.einsum('ijn,jan->ian', B1, B2)                # {x, ghat}-perp

    if body.matrix is not None:
        HT = np.tensordot(2.0 * body.matrix, T, 1)
    else:
        HT = np.einsum('ijn,jan->ian', body.surface_hessian(x).transpose(1, 2, 0), T)
    S = -s_in * np.einsum('ian,ibn->abn', T, HT) / Gn
    S = 0.5 * (S + S.transpose(1, 0, 2))
    return S.transpose(2, 0, 1), T.transpose(2, 0, 1), (s_in * ghat).T


def principal_curvature_arrays(body: ConvexBody, x: np.ndarray,
                               gradient: np.ndarray) -> np.ndarray:
    """Principal curvatures at surface nodes x with the body's gradient
    there, sorted descending, (N, n-1): for n = 3 in closed form,
    m +- hypot((a - c)/2, b) of each [[a, b], [b, c]]."""
    S = shape_operators(body, x, gradient)[0]
    if S.shape[1] != 2:
        return np.linalg.eigvalsh(S)[:, ::-1]
    a, b, c = S[:, 0, 0], S[:, 0, 1], S[:, 1, 1]
    m, r = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    return np.array([m + r, m - r]).T


def elementary_symmetric(values: np.ndarray, k: int) -> np.ndarray:
    """k-th elementary symmetric polynomial along the last axis, batched."""
    e = _elementary_symmetric_all(values)
    if not 0 <= k < e.shape[1]:
        raise ValueError(f"need 0 <= k <= {e.shape[1] - 1}")
    return e[:, k]


def _elementary_symmetric_all(values: np.ndarray) -> np.ndarray:
    values = np.atleast_2d(values)
    N, m = values.shape
    e = np.zeros((N, m + 1))
    e[:, 0] = 1.0
    for j in range(m):
        e[:, 1:j + 2] += values[:, j:j + 1] * e[:, 0:j + 1].copy()
    return e


def _abs_minors(d: np.ndarray, k: int, mc_samples: int,
                generator: np.random.Generator) -> np.ndarray:
    """|det| of the diagonal forms d (N, m) restricted to mc_samples uniform
    k-planes each, shape (N, mc_samples), spanned by Gaussian (m, k) draws z
    from the generator in row order; only 1 < k < m needs the QR frame of z."""
    z = generator.standard_normal((d.shape[0], mc_samples, d.shape[1], k))
    if k == d.shape[1]:
        return np.repeat(np.abs(d.prod(axis=1))[:, None], mc_samples, axis=1)
    if k == 1:                       # the line through z: (z^2 . d) / |z|^2
        w = z[..., 0] ** 2
        return np.abs(w @ d[..., None])[..., 0] / w.sum(axis=2)
    q, _ = np.linalg.qr(z)
    return np.abs(np.linalg.det(q.transpose(0, 1, 3, 2) @ (d[:, None, :, None] * q)))


# ---------------------------------------------------------------------------
# tangent-flat volumes

def _ratio_prefactor(k: int, n: int) -> float:
    return gamma((k + 1) / 2) * gamma((n - k) / 2) / pi ** ((n + 1) / 2)


def tangent_volume_ratio_profile(sample: SurfaceSample) -> np.ndarray:
    """Tangent volume ratios for every k = 0..n-1 at once (convex bodies).

    Entry k is Gamma((k+1)/2)Gamma((n-k)/2) / pi^{(n+1)/2} times the surface
    integral of the k-th elementary symmetric polynomial of the principal
    curvatures.
    """
    if not sample.body.convex:
        raise NonConvexBodyError("tangent volume ratios by curvature integral "
                                 "require a convex body")
    n = sample.body.n
    d = sample.principal
    if d.min() <= 0.0 or np.abs(d).prod(axis=1).min() < DEGENERATE_DET_TOL:
        raise NonConvexBodyError(
            "non-positive principal curvature at a quadrature node of a "
            "body declared convex")
    sig = _elementary_symmetric_all(d)              # (N, n)
    wj = sample.grid.weights * sample.J
    integrals = wj @ sig[:, :n]
    return np.array([_ratio_prefactor(k, n) * integrals[k] for k in range(n)])


def tangent_volume_ratio_convex(sample: SurfaceSample, k: int) -> float:
    """Volume ratio of the manifold of tangent k-flats to the Schubert
    hypersurface volume, via the curvature integral (convex bodies)."""
    if not 0 <= k <= sample.body.n - 1:
        raise ValueError("need 0 <= k <= n-1")
    return float(tangent_volume_ratio_profile(sample)[k])


def abs_normal_curvature_integral(d1, d2):
    """Integral over tangent directions of |normal curvature| in dimension
    two:  pi/2 |d1+d2| when d1 d2 >= 0, else
    2 sqrt(-d1 d2) + 2 |d1+d2| |arctan(sqrt(-d1/d2)) - pi/4|.

    Symmetric in (d1, d2) and even under joint sign flip (bitwise, via
    canonicalization of the pair), continuous across d1 d2 = 0.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    lo = np.minimum(d1, d2)
    hi = np.maximum(d1, d2)
    flip = hi < -lo
    lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    same = lo * hi >= 0
    # positive and negative branch; (1, -1) stands in where the signs agree
    a, b = np.where(same, 1.0, hi), np.where(same, -1.0, lo)
    mixed = 2.0 * np.sqrt(-a * b) + \
        2.0 * np.abs(a + b) * np.abs(np.arctan(np.sqrt(-a / b)) - pi / 4)
    out = np.where(same, 0.5 * pi * np.abs(lo + hi), mixed)
    return out if out.shape else float(out)


def tangent_line_volume_rp3(sample: SurfaceSample) -> float:
    """Volume of the manifold of tangent lines of a surface in RP^3 as the
    surface integral of the direction-averaged |normal curvature|.

    Valid for surfaces with mixed curvature signs, unlike the elementary
    symmetric route.
    """
    if sample.body.n != 3:
        raise ValueError("this formula is specific to surfaces in RP^3")
    d = sample.principal
    h = abs_normal_curvature_integral(d[:, 0], d[:, 1])
    return float(np.sum(sample.grid.weights * sample.J * h))


def tangent_volume_ratio_semialgebraic(sample: SurfaceSample, k: int,
                                       mc_samples: int, rng: RngStream) -> MCEstimate:
    """Tangent volume ratio by the general (possibly non-convex) formula:
    nested surface quadrature with Monte Carlo over tangent k-planes of
    |det| of the restricted second fundamental form.

    The reported standard error covers the Monte Carlo part; quadrature
    truncation is separate and controlled by the grid level.
    """
    n = sample.body.n
    if not 0 <= k <= n - 1:
        raise ValueError("need 0 <= k <= n-1")
    pref = comb(n - 1, k) * _ratio_prefactor(k, n)
    wj = sample.grid.weights * sample.J * pref
    if k == 0:
        return MCEstimate(float(wj.sum()), 0.0, mc_samples)

    vals = _abs_minors(sample.principal, k, mc_samples, rng.generator())
    node_mean = vals.mean(axis=1)
    node_var = vals.var(axis=1, ddof=1) if mc_samples > 1 else np.zeros(len(wj))
    total = float(wj @ node_mean)
    stderr = float(np.sqrt((wj ** 2 @ node_var) / mc_samples))
    return MCEstimate(total, stderr, mc_samples)


def min_curvature_radius(sample: SurfaceSample) -> float:
    """Conservative reach proxy: min over nodes of 1/max|d_i|, capped at pi/4."""
    dmax = np.abs(sample.principal).max(axis=1)
    return float(min(pi / 4, 1.0 / dmax.max()))
