import itertools
from math import comb, gamma, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import tangentflats as tf
from conftest import octahedral_quartic, random_ellipsoid
from tangentflats import curvature
from tangentflats.bodies import ConvexBody
from tangentflats.curvature import (_abs_minors, _orthobasis_complement,
                                    _radial_roots, principal_curvature_arrays,
                                    shape_operators)


def curvatures(body, x):
    """Principal curvatures at surface points x, with the body's gradient."""
    return principal_curvature_arrays(body, x, body.surface_gradient(x))


def test_sphere_principal_curvatures():
    body = tf.metric_sphere(3, pi / 4)
    x = np.array([[np.cos(pi / 4), 0.0, np.sin(pi / 4), 0.0]])
    assert np.abs(curvatures(body, x) - 1.0).max() < 1e-9   # cot(pi/4)
    # tangent basis and normal invariants
    _, T, nu = shape_operators(body, x, body.surface_gradient(x))
    T, nu = T[0], nu[0]
    assert abs(x[0] @ nu) < 1e-12
    assert abs(np.linalg.norm(nu) - 1.0) < 1e-12
    assert np.abs(T.T @ T - np.eye(2)).max() < 1e-10
    assert np.abs(x[0] @ T).max() < 1e-10
    assert np.abs(nu @ T).max() < 1e-10


def test_sphere_flat_limit():
    r = pi / 2 - 1e-4
    body = tf.metric_sphere(3, r)
    x = np.array([[np.cos(r), np.sin(r), 0.0, 0.0]])
    assert np.abs(curvatures(body, x)).max() < 2e-4   # cot r -> 0


def _fd_shape_operator(A, x, eps=1e-6):
    """Finite-difference oracle: differentiate the inward unit normal field
    of {x^T A x = 0} on S^n along surface directions."""
    def project(y):
        y = y / np.linalg.norm(y)
        for _ in range(60):
            val = y @ A @ y
            G = 2 * A @ y
            G = G - (G @ y) * y
            y = y - val * G / (G @ G)
            y = y / np.linalg.norm(y)
            if abs(y @ A @ y) < 1e-15:
                break
        return y

    def inward_normal(y):
        G = 2 * A @ y
        G = G - (G @ y) * y
        return -G / np.linalg.norm(G)       # interior has x^T A x < 0

    x = project(x)
    nu = inward_normal(x)
    d = len(x)
    # tangent basis of {x, nu}-perp
    M = np.eye(d) - np.outer(x, x) - np.outer(nu, nu)
    w, vec = np.linalg.eigh(M)
    T = vec[:, w > 0.5]
    S = np.empty((T.shape[1], T.shape[1]))
    for j in range(T.shape[1]):
        xp = project(np.cos(eps) * x + np.sin(eps) * T[:, j])
        xm = project(np.cos(eps) * x - np.sin(eps) * T[:, j])
        dnu = (inward_normal(xp) - inward_normal(xm)) / (2 * eps)
        # B(t_i, t_j) = -<d nu / d t_j, t_i>
        S[:, j] = -(T.T @ dnu)
    return np.sort(np.linalg.eigvalsh(0.5 * (S + S.T)))[::-1]


def test_ellipsoid_curvature_finite_difference_oracle():
    # n = 3 takes the closed-form 2 x 2 eigenvalues, n = 4 eigvalsh
    cases = [(tf.ellipsoid(3, [1.4, 0.8, 0.6]),
              [[1.0, 1.4, 0.0, 0.0],                    # axis endpoint
               [1.0, 0.0, 0.8, 0.0],
               [1.0, 0.7, 0.35, 0.42]]),
             (tf.ellipsoid(4, [1.4, 0.8, 0.6, 1.1]),
              [[1.0, 0.0, 0.0, 0.0, 1.1],
               [1.0, 0.7, 0.35, 0.42, 0.3],
               [1.0, -0.5, 0.2, 0.1, -0.6]])]
    for body, pts in cases:
        A = body.matrix
        for raw in pts:
            x = np.array(raw) / np.linalg.norm(raw)
            expected = _fd_shape_operator(A, x)
            got = curvatures(body, _project_to_surface(A, x)[None])[0]
            assert got.shape == (body.n - 1,)
            assert np.abs(got - expected).max() < 1e-5


def _project_to_surface(A, x):
    x = x / np.linalg.norm(x)
    for _ in range(60):
        val = x @ A @ x
        G = 2 * A @ x
        G = G - (G @ x) * x
        x = x - val * G / (G @ G)
        x = x / np.linalg.norm(x)
    return x


_entry = st.floats(1e-200, 1.0) | st.floats(-1.0, -1e-200) | st.just(0.0)   # no subnormals
_symmetric_2x2 = st.tuples(_entry, _entry, _entry) | \
    _entry.map(lambda a: (a, 0.0, a))                  # umbilic: equal values


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_symmetric_2x2, min_size=1, max_size=16),
       exponent=st.integers(-30, 30))
def test_closed_form_2x2_curvatures_match_eigvalsh(rows, exponent):
    a, b, c = np.ldexp(np.array(rows, dtype=float).T, exponent)
    S = np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)
    with mock.patch.object(curvature, "shape_operators",
                           lambda *args: (S, None, None)):
        got = principal_curvature_arrays(None, None, None)
    ref = np.linalg.eigvalsh(S)[:, ::-1]
    scale = np.abs(S).max(axis=(1, 2))[:, None]
    assert got.shape == ref.shape
    assert (got[:, 0] >= got[:, 1]).all()
    assert (np.abs(got - ref) <= 8 * np.finfo(float).eps * scale).all()


def test_elementary_symmetric_brute_force():
    gen = tf.RngStream(5).generator()
    vals = gen.standard_normal((4, 5))
    for k in range(6):
        got = tf.elementary_symmetric(vals, k)
        for row, g in zip(vals, got):
            brute = sum(np.prod(list(c))
                        for c in itertools.combinations(row, k)) if k else 1.0
            assert g == pytest.approx(brute, rel=1e-12, abs=1e-12)


def test_sigma_of_sphere_frames():
    n, r = 4, 0.9
    body = tf.metric_sphere(n, r)
    x = np.zeros((1, n + 1))
    x[0, 0], x[0, 1] = np.cos(r), np.sin(r)
    d = curvatures(body, x)
    assert tf.elementary_symmetric(d, 0)[0] == 1.0
    for k in range(n):
        expect = comb(n - 1, k) * (1 / np.tan(r)) ** k
        assert tf.elementary_symmetric(d, k)[0] == pytest.approx(expect, rel=1e-9)
    # top symmetric polynomial is the product
    assert tf.elementary_symmetric(d, n - 1)[0] == pytest.approx(np.prod(d), rel=1e-12)


def mean_abs_minor(d, k, samples, seed):
    """Mean and standard error of |det| of the diagonal form d restricted to
    uniform k-planes."""
    vals = _abs_minors(np.asarray(d, dtype=float)[None], k, samples,
                       tf.RngStream(seed).generator())[0]
    return vals.mean(), vals.std(ddof=1) / np.sqrt(samples)


def test_mean_abs_minor_positive_definite(grid3_coarse):
    body = tf.ellipsoid(3, [1.2, 0.9, 0.7])
    x = _project_to_surface(body.matrix, np.array([1.0, 0.5, 0.4, -0.3]))
    d = curvatures(body, x[None])
    for k in (1, 2):
        mean, stderr = mean_abs_minor(d[0], k, 40_000, 7)
        expect = tf.elementary_symmetric(d, k)[0] / comb(2, k)
        assert abs(mean - expect) < 4 * max(stderr, 1e-12)
    # at k = 0 the restricted determinant is 1: no Monte Carlo error
    sample = tf.surface_sample(body, grid3_coarse)
    est0 = tf.tangent_volume_ratio_semialgebraic(sample, 0, 10, tf.RngStream(8))
    assert est0.stderr == 0.0
    assert est0.mean == pytest.approx(
        tf.tangent_volume_ratio_profile(sample)[0], rel=1e-12)


def test_mean_abs_minor_flat_and_saddle():
    mean, stderr = mean_abs_minor([0.0, 0.0], 1, 500, 9)
    assert mean == 0.0 and stderr == 0.0
    # oracle: mean over the circle of |cos^2 - sin^2| is 2/pi
    oracle = quad(lambda t: abs(np.cos(t) ** 2 - np.sin(t) ** 2) / pi,
                  -pi / 2, pi / 2)[0]
    assert oracle == pytest.approx(2 / pi, abs=1e-12)
    mean, stderr = mean_abs_minor([1.0, -1.0], 1, 200_000, 10)
    assert abs(mean - 2 / pi) < 4 * stderr


def test_abs_normal_curvature_integral():
    assert tf.abs_normal_curvature_integral(1.0, 1.0) == pytest.approx(pi, rel=1e-14)
    assert tf.abs_normal_curvature_integral(0.0, 0.0) == 0.0
    assert tf.abs_normal_curvature_integral(1.0, -1.0) == pytest.approx(2.0, rel=1e-14)
    # quadrature oracle on random pairs, both signs; the integrand has kinks
    # where the normal curvature vanishes, so hand those points to QUADPACK
    gen = tf.RngStream(11).generator()
    for _ in range(25):
        d1, d2 = gen.uniform(-2, 2, size=2)
        kinks = None
        if d1 * d2 < 0:
            t0 = np.arctan(np.sqrt(-d1 / d2))
            kinks = [-t0, t0]
        oracle = quad(lambda t: abs(d1 * np.cos(t) ** 2 + d2 * np.sin(t) ** 2),
                      -pi / 2, pi / 2, points=kinks, epsabs=1e-13, limit=200)[0]
        got = tf.abs_normal_curvature_integral(d1, d2)
        assert got == pytest.approx(oracle, abs=1e-10)
        # symmetries are exact
        assert got == tf.abs_normal_curvature_integral(d2, d1)
        assert got == tf.abs_normal_curvature_integral(-d1, -d2)


def test_abs_normal_curvature_integral_continuity():
    for d1 in (0.5, 1.0, 2.0):
        base = tf.abs_normal_curvature_integral(d1, 0.0)
        for eps in (1e-4, 1e-6, 1e-8):
            assert abs(tf.abs_normal_curvature_integral(d1, -eps) - base) < 1e-3
        assert abs(tf.abs_normal_curvature_integral(d1, -1e-8) - base) < 1e-4


def test_sphere_quadrature_oracle_small():
    # full (k, n, r) sweep is the acceptance gate; spot-check here
    for n in (3, 4):
        grid = tf.surface_grid(n, 3)
        for r in (pi / 6, pi / 3):
            body = tf.metric_sphere(n, r)
            prof = tf.tangent_volume_ratio_profile(tf.surface_sample(body, grid))
            for k in range(n):
                expect = tf.sphere_tangent_ratio(k, n, r)
                assert abs(prof[k] - expect) / expect < 1e-6


def test_grid_beyond_its_node_bound_is_refused_before_any_array(monkeypatch):
    # from n = 8 every polar axis keeps its 4-point floor whatever the level,
    # so n = 11 would take 2 * 4^10 nodes; every n <= 10 at a level up to 7
    # gets past the bound to its first rule or array
    class Built(Exception):
        pass

    def build(*args, **kwargs):
        raise Built

    monkeypatch.setattr(curvature, "legendre_rule", build)
    monkeypatch.setattr(np, "meshgrid", build)
    for n, level in itertools.product(range(2, 11), range(1, 8)):
        with pytest.raises(Built):
            tf.surface_grid(n, level)
    with pytest.raises(tf.BodyError, match="2097152 nodes, over 1048576"):
        tf.surface_grid(11, 1)


def test_circle_grid_builds_no_polar_rule(monkeypatch):
    # S^1 has only the azimuth; a Gauss-Legendre rule of its 4,096 polar
    # points at level 4 took 8 s and 0.3 GB, and grows as the points cubed
    def legendre_rule(points):
        raise AssertionError(f"a {points}-point rule built")

    monkeypatch.setattr(curvature, "legendre_rule", legendre_rule)
    grid = tf.surface_grid(2, 4)
    assert grid.nodes.shape == (8192, 2)
    assert grid.weights.sum() == pytest.approx(2 * pi, rel=1e-15)


def test_quadrature_error_decreases_for_ellipsoid():
    body = tf.ellipsoid(3, [1.6, 0.9, 0.5])
    ratio = {lv: tf.tangent_volume_ratio_convex(
        tf.surface_sample(body, tf.surface_grid(3, lv)), 1) for lv in (1, 2, 3, 5)}
    errs = [abs(ratio[lv] - ratio[5]) for lv in (1, 2, 3)]
    assert errs[1] < errs[0] and errs[2] <= errs[1]
    # the difference against the coarser level bounds the true truncation
    # error of the finer level
    est = abs(ratio[3] - ratio[2])
    assert est < 1e-4 and errs[2] <= est


def test_ratio_k0_is_area_constant(grid3):
    # ratio at k = 0 is Gamma(1/2)Gamma(n/2)/pi^{(n+1)/2} times the area
    body = tf.ellipsoid(3, [1.3, 0.8, 1.0])
    sample = tf.surface_sample(body, grid3)
    area = grid3.weights @ sample.J
    const = gamma(0.5) * gamma(1.5) / pi ** 2
    assert tf.tangent_volume_ratio_convex(sample, 0) == pytest.approx(
        const * area, rel=1e-12)
    sphere = tf.surface_sample(tf.metric_sphere(3, 0.8), grid3)
    assert tf.tangent_volume_ratio_convex(sphere, 0) == pytest.approx(
        2 * np.sin(0.8) ** 2, rel=1e-9)


def test_sphere_duality_pairs(grid3):
    r = pi / 6
    n = 3
    p1, p2 = (tf.tangent_volume_ratio_profile(tf.surface_sample(tf.metric_sphere(n, a), grid3))
              for a in (r, pi / 2 - r))
    for k in range(n):
        assert p1[k] == pytest.approx(p2[n - 1 - k], rel=1e-9)


def test_rotation_invariance_of_ratio(grid3):
    body = tf.ellipsoid(3, [1.5, 0.8, 1.1])
    g = tf.haar_matrices(4, 1, tf.RngStream(13).generator())[0]
    moved = tf.quadric(g @ body.matrix @ g.T)
    p1 = tf.tangent_volume_ratio_profile(tf.surface_sample(body, grid3))
    p2 = tf.tangent_volume_ratio_profile(tf.surface_sample(moved, grid3))
    assert np.abs(p1 - p2).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(np.log(0.5), np.log(2.0)), min_size=3, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_ratios_are_invariant_under_generated_rotations(grid3_coarse,
                                                        log_axes, seed):
    body = tf.ellipsoid(3, np.exp(log_axes))
    g = tf.haar_matrices(4, 1, tf.RngStream(seed).generator())[0]
    p1 = tf.tangent_volume_ratio_profile(tf.surface_sample(body, grid3_coarse))
    p2 = tf.tangent_volume_ratio_profile(
        tf.surface_sample(tf.quadric(g @ body.matrix @ g.T), grid3_coarse))
    assert np.abs(p1 - p2).max() < 1e-10


@pytest.mark.parametrize("body", [tf.ellipsoid(3, [1.5, 0.8, 1.1]),
                                  octahedral_quartic(1.2, 1.0, convex=True)],
                         ids=["ellipsoid", "quartic"])
def test_shape_operators_match_the_three_operand_contraction(grid3, body):
    x = tf.surface_sample(body, grid3).x
    G = body.surface_gradient(x)
    S, T, nu = shape_operators(body, x, G)
    H = body.surface_hessian(x)
    Gn = np.linalg.norm(G, axis=1)
    ref = np.einsum('nia,nij,njb->nab', T, H, T)
    ref = -body.interior_sign() * ref / Gn[:, None, None]
    ref = 0.5 * (ref + ref.transpose(0, 2, 1))
    assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(S, S.transpose(0, 2, 1))
    # T spans the tangent space {x, nu}-perp with orthonormal columns
    assert np.abs(T.transpose(0, 2, 1) @ T - np.eye(2)).max() < 1e-14
    assert np.abs(np.einsum('ni,nij->nj', x, T)).max() < 1e-14
    assert np.abs(np.einsum('ni,nij->nj', nu, T)).max() < 1e-14


def test_abs_minors_match_the_three_operand_contraction():
    # k = 1 and k = m skip the QR; every k must still agree with it
    for d in (tf.RngStream(29).generator().uniform(-2.0, 2.0, (50, 3)),
              tf.RngStream(37).generator().uniform(-2.0, 2.0, (20, 6))):
        N, m = d.shape
        for k in range(1, m + 1):
            got = _abs_minors(d, k, 16, tf.RngStream(31, k).generator())
            z = tf.RngStream(31, k).generator().standard_normal((N, 16, m, k))
            q, _ = np.linalg.qr(z)
            restricted = np.einsum('nsik,ni,nsil->nskl', q, d, q)
            ref = np.abs(restricted[..., 0, 0] if k == 1
                         else np.linalg.det(restricted))
            assert got.shape == (N, 16)
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_nonconvex_body_rejected(grid3_coarse):
    bumpy = octahedral_quartic(-0.9, 0.3, convex=True)    # wrongly declared
    with pytest.raises(tf.NonConvexBodyError):
        tf.tangent_volume_ratio_profile(tf.surface_sample(bumpy, grid3_coarse))
    with pytest.raises(tf.NonConvexBodyError):
        tf.tangent_volume_ratio_profile(
            tf.surface_sample(octahedral_quartic(-0.9, 0.3, False), grid3_coarse))


def test_tangent_line_volume_sphere(grid3):
    body = tf.metric_sphere(3, pi / 4)
    # h is constant pi on this sphere, so the volume is pi * |surface|
    area = tf.sphere_volume(2) * np.sin(pi / 4) ** 2
    assert tf.tangent_line_volume_rp3(tf.surface_sample(body, grid3)) == pytest.approx(
        pi * area, rel=1e-9)
    # the volume vanishes with the radius (area wins over the growing h)
    vols = [tf.tangent_line_volume_rp3(tf.surface_sample(tf.metric_sphere(3, r), grid3))
            for r in (1e-2, 1e-3, 1e-4)]
    assert vols[0] > vols[1] > vols[2] and vols[2] < 5e-3


def test_two_line_volume_formulas_agree(grid3):
    gen = tf.RngStream(17).generator()
    for _ in range(3):
        body = random_ellipsoid(gen)
        sample = tf.surface_sample(body, grid3)
        via_h = tf.tangent_line_volume_rp3(sample)
        via_sigma = tf.tangent_volume_ratio_convex(sample, 1) * tf.schubert_volume(1, 3)
        assert abs(via_h - via_sigma) / via_sigma < 1e-6


def test_semialgebraic_matches_convex(grid3_coarse):
    body = tf.ellipsoid(3, [1.2, 0.9, 0.8])
    sample = tf.surface_sample(body, grid3_coarse)
    exact = tf.tangent_volume_ratio_profile(sample)
    for k in (1, 2):
        est = tf.tangent_volume_ratio_semialgebraic(sample, k, 64,
                                                    tf.RngStream(19, k))
        # at k = n-1 the sampled plane is the whole tangent space, so the MC
        # variance vanishes; keep a rounding floor in the band
        assert abs(est.mean - exact[k]) < 4 * est.stderr + 1e-12


def test_semialgebraic_matches_h_integral_nonconvex(grid3_coarse):
    body = octahedral_quartic(-0.9, 0.3, convex=False)
    sample = tf.surface_sample(body, grid3_coarse)
    via_h = tf.tangent_line_volume_rp3(sample) / tf.schubert_volume(1, 3)
    est = tf.tangent_volume_ratio_semialgebraic(sample, 1, 96, tf.RngStream(23))
    assert abs(est.mean - via_h) < 4 * est.stderr


def test_grid_invariants():
    g2 = tf.surface_grid(3, 2)
    g3 = tf.surface_grid(3, 3)
    assert (g2.weights > 0).all()
    assert g2.nodes.shape[0] < g3.nodes.shape[0]
    assert g2.weights.sum() == pytest.approx(tf.sphere_volume(2), rel=1e-12)
    assert np.abs(np.linalg.norm(g2.nodes, axis=1) - 1).max() < 1e-12
    # node count is a deterministic function of the level
    assert tf.surface_grid(3, 2).nodes.shape == g2.nodes.shape
    # a sample needs a grid on the body's direction sphere
    with pytest.raises(ValueError, match="grid dimension does not match"):
        tf.surface_sample(tf.metric_sphere(4, 0.5), g2)


@pytest.mark.parametrize("a, convex, expected", [
    (1.2, True, 1.2741399695891777),
    (-0.9, False, 2.168597810553167),
], ids=["convex", "nonconvex"])
def test_octahedral_quartic_ratios_match_recorded_values(grid3, a, convex,
                                                         expected):
    """Ratios recorded with bisection roots and float-pow monomials; root
    finding and polynomial evaluation may move only the last bits."""
    body = octahedral_quartic(a, 1.0, convex)
    sample = tf.surface_sample(body, grid3)
    if convex:
        ratio = tf.tangent_volume_ratio_convex(sample, 1)
    else:
        ratio = tf.tangent_line_volume_rp3(sample) / tf.schubert_volume(1, 3)
    assert ratio == pytest.approx(expected, rel=1e-12, abs=0)


def _first_crossing(body, omega, steps=4096):
    """Oracle: first sign change of the true F along the ray omega from the
    star center, by a fine scan and scalar bisection down to adjacent floats."""
    c = body.star_center()
    w = _orthobasis_complement(c[:, None])[..., 0] @ omega
    s_in = body.interior_sign()

    def inside(t):
        x = np.cos(t)[:, None] * c + np.sin(t)[:, None] * w
        return np.sign(body.surface_value(x)) == s_in

    ts = np.linspace(1e-9, pi / 2 - 1e-9, steps)
    k = np.argmin(inside(ts))
    assert k > 0
    lo, hi = ts[k - 1], ts[k]
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(np.array([mid]))[0] else (lo, mid)
    return 0.5 * (lo + hi)


def _convex_sextic(b):
    """x^6 + y^6 + z^6 = b w^6, whose radii solve tan(rho)^6 sum omega^6 = b."""
    return tf.implicit_surface(3, [1.0, 1.0, 1.0, -b],
                               [[0, 6, 0, 0], [0, 0, 6, 0], [0, 0, 0, 6],
                                [6, 0, 0, 0]], convex=True)


def test_degree_two_implicit_matches_the_ellipsoid(grid3_coarse):
    semi = np.array([1.3, 0.9, 0.6])
    ell = tf.ellipsoid(3, semi)
    implicit = tf.implicit_surface(3, [-1.0, *(1 / semi ** 2)],
                                   np.diag([2, 2, 2, 2]), convex=True)
    omega = grid3_coarse.nodes
    rho_i, c_i, W_i = _radial_roots(implicit, omega)
    _, c_q, W_q = _radial_roots(ell, omega)
    # the same rays in the ellipsoid's frame (its center may be -c_i)
    s = np.sign(c_q @ c_i)
    rho_q = _radial_roots(ell, s * (omega @ W_i.T) @ W_q)[0]
    assert np.abs(rho_i - rho_q).max() <= 4 * np.spacing(rho_q).max()
    # with equal frames both bodies put their nodes at the same points
    assert np.allclose(s * c_q, c_i) and np.allclose(s * W_q, W_i)
    got = tf.tangent_volume_ratio_profile(tf.surface_sample(implicit, grid3_coarse))
    ref = tf.tangent_volume_ratio_profile(tf.surface_sample(ell, grid3_coarse))
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_sextic_radii_match_scalar_bisection_on_F():
    b = 0.7
    body = _convex_sextic(b)
    omega = tf.RngStream(41).generator().standard_normal((6, 3))
    omega = np.vstack([omega / np.linalg.norm(omega, axis=1, keepdims=True),
                       np.eye(3), np.full((1, 3), 3 ** -0.5)])
    rho = _radial_roots(body, omega)[0]
    ref = [_first_crossing(body, w) for w in omega]
    assert np.abs(rho - ref).max() < 1e-13
    exact = np.arctan((b / (omega ** 6).sum(1)) ** (1 / 6))
    assert np.abs(rho - exact).max() < 1e-13


def test_radial_roots_return_the_first_of_two_crossings():
    # (|p|^2 - w^2)(|p|^4_4 - 0.6 w^4): the unit sphere comes first along the
    # diagonal, the quartic first along the axes; every ray crosses twice
    sphere = [(1.0, [0, 2, 0, 0]), (1.0, [0, 0, 2, 0]), (1.0, [0, 0, 0, 2]),
              (-1.0, [2, 0, 0, 0])]
    quartic = [(1.0, [0, 4, 0, 0]), (1.0, [0, 0, 4, 0]), (1.0, [0, 0, 0, 4]),
               (-0.6, [4, 0, 0, 0])]
    body = tf.implicit_surface(3, [a * b for a, _ in sphere for b, _ in quartic],
                               [np.add(e, f) for _, e in sphere for _, f in quartic])
    assert body.poly.degree == 6
    omega = np.array([[1.0, 0, 0], [0, 0, 1.0], [3 ** -0.5] * 3,
                      [0.6, 0.8, 0], [0.8, 0.36, 0.48]])
    rho = _radial_roots(body, omega)[0]
    r_quartic = (0.6 / (omega ** 4).sum(1)) ** 0.25
    exact = np.arctan(np.minimum(1.0, r_quartic))
    assert np.abs(rho - exact).max() < 1e-13
    assert np.abs(rho - [_first_crossing(body, w) for w in omega]).max() < 1e-13
    assert (r_quartic < 1).any() and (r_quartic > 1).any()


def test_body_not_star_shaped_is_refused(grid3_coarse):
    # x1^2 - x2^2 + 0.1 (x0^2 + x3^2) stays positive along the x1 axis
    saddle = tf.implicit_surface(3, [1.0, -1.0, 0.1, 0.1],
                                 [[0, 2, 0, 0], [0, 0, 2, 0], [2, 0, 0, 0],
                                  [0, 0, 0, 2]], convex=True)
    with pytest.raises(tf.curvature.SurfaceDegeneracyError,
                       match="not star-shaped"):
        tf.tangent_volume_ratio_profile(tf.surface_sample(saddle, grid3_coarse))
    # F(e_0) = 0: the default center is on the surface, not inside it
    rim = tf.implicit_surface(3, [1.0, 1.0, 1.0, -1.0],
                              [[0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4],
                               [0, 2, 2, 0]])
    with pytest.raises(tf.curvature.SurfaceDegeneracyError,
                       match="center lies on the surface"):
        _radial_roots(rim, grid3_coarse.nodes)


@pytest.mark.parametrize("body", [
    octahedral_quartic(1.2, 1.0, True),
    _convex_sextic(0.7),
], ids=["quartic", "sextic"])
def test_radial_roots_evaluate_F_at_most_d_plus_2_times(monkeypatch, body):
    """d+1 samples fix the binary form on every ray, plus the interior sign;
    a scan or regula falsi that went back to F would call it per step."""
    calls = []
    value = ConvexBody.surface_value

    def counted(self, x):
        calls.append(len(x))
        return value(self, x)

    monkeypatch.setattr(ConvexBody, "surface_value", counted)
    d = body.poly.degree
    for level in (1, 2, 3, 4):
        calls.clear()
        _radial_roots(body, tf.surface_grid(3, level).nodes)
        assert len(calls) <= d + 2, (level, calls)
