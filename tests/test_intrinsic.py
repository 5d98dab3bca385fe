from math import pi

import numpy as np
import pytest
from scipy.integrate import quad

import tangentflats as tf
from conftest import random_ellipsoid
from tangentflats.intrinsic import _cap_profile_volume


def cap_volume_oracle(n, r):
    """One-dimensional oracle |S^{n-1}| int_0^r sin^{n-1}(t) dt."""
    return tf.sphere_volume(n - 1) * quad(
        lambda t: np.sin(t) ** (n - 1), 0.0, r, epsabs=1e-14)[0]


def cap_volume(r, grid):
    """Region volume of the metric sphere of radius r in RP^3."""
    return tf.body_volume(tf.surface_sample(tf.metric_sphere(3, r), grid))


def test_body_volume_against_cap_oracle(grid3):
    for r in (0.3, pi / 4, 1.1):
        assert abs(cap_volume(r, grid3) - cap_volume_oracle(3, r)) < 1e-8


@pytest.mark.parametrize("r", [0.2, 0.3, pi / 6, pi / 4, 1.1, 1.35])
def test_cap_volumes_match_the_closed_form(grid3, r):
    """On S^3 a cap of radius r has volume 2 pi (r - sin r cos r), and its
    polar is the cap of radius pi/2 - r."""
    def cap(a):
        return 2 * pi * (a - np.sin(a) * np.cos(a))

    assert cap_volume(r, grid3) == pytest.approx(cap(r), rel=1e-13, abs=0)
    polar = tf.polar_volume(tf.metric_sphere(3, r), grid3)
    assert polar == pytest.approx(cap(pi / 2 - r), rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cap_profile_volume_matches_gauss_legendre(n):
    """int_0^rho sin^{n-1}(t) dt per ray, against 64-node Gauss-Legendre,
    on both sides of the switch from the series to the reduction at pi/6."""
    xg, wg = np.polynomial.legendre.leggauss(64)
    rhos = np.concatenate([np.geomspace(1e-3, 0.5, 12),
                           [pi / 6 - 1e-12, pi / 6],
                           np.linspace(0.55, pi / 2 - 1e-3, 12)])
    for rho in rhos:
        t = 0.5 * rho * (xg + 1.0)
        reference = 0.5 * rho * (np.sin(t) ** (n - 1) @ wg)
        got = _cap_profile_volume(np.array([rho]), np.ones(1), n)
        assert got == pytest.approx(reference, rel=1e-13, abs=0)
    # the weights sum the rays
    both = _cap_profile_volume(rhos[[3, 20]], np.array([2.0, 0.5]), n)
    assert both == pytest.approx(
        2.0 * _cap_profile_volume(rhos[[3]], np.ones(1), n)
        + 0.5 * _cap_profile_volume(rhos[[20]], np.ones(1), n), rel=1e-15)


def test_polar_of_cap_is_dual_cap(grid3):
    r = 0.55
    body = tf.metric_sphere(3, r)
    assert abs(tf.polar_volume(body, grid3) - cap_volume_oracle(3, pi / 2 - r)) < 1e-8
    # self-dual radius
    assert cap_volume(pi / 4, grid3) == pytest.approx(
        tf.polar_volume(tf.metric_sphere(3, pi / 4), grid3), rel=1e-10)


def test_polar_of_ellipsoid_inverts_semiaxes(grid3):
    axes = np.array([1.5, 0.9, 0.6])
    dual = tf.polar_body(tf.ellipsoid(3, axes))
    expect = tf.ellipsoid(3, 1.0 / axes)
    # same quadric up to scale
    M1 = dual.matrix / np.abs(dual.matrix).max()
    M2 = expect.matrix / np.abs(expect.matrix).max()
    assert np.abs(M1 - M2).max() < 1e-12
    with pytest.raises(tf.BodyError):
        tf.polar_body(tf.implicit_surface(3, [1.0, -1.0],
                                          [[0, 2, 0, 0], [2, 0, 0, 0]]))


def test_intrinsic_volume_sphere_closed_forms(grid3):
    r = 0.7
    values = tf.compute_profile(tf.metric_sphere(3, r), grid3).values
    # j = 1 in RP^3 comes from k = 1
    assert values[1] == pytest.approx((2 / pi) * np.cos(r) * np.sin(r), rel=1e-9)
    # j = n-1 comes from k = 0
    assert values[2] == pytest.approx(np.sin(r) ** 2 / 2, rel=1e-9)


def test_intrinsic_volume_near_hemisphere_limit():
    grid = tf.surface_grid(3, 3)
    body = tf.metric_sphere(3, pi / 2 - 1e-5)
    assert tf.compute_profile(body, grid).values[2] == pytest.approx(0.5, abs=1e-4)


def test_profile_identity_with_ratios(grid3):
    body = tf.ellipsoid(3, [1.1, 0.9, 0.75])
    profile = tf.compute_profile(body, grid3)
    ratios = tf.tangent_volume_ratio_profile(tf.surface_sample(body, grid3))
    for j in range(3):
        assert profile.values[j] == ratios[2 - j] / 4.0


def test_steiner_zero_eps_is_volume(grid3):
    body = tf.metric_sphere(3, 0.5)
    profile = tf.compute_profile(body, grid3)
    assert tf.steiner_tube_volume(profile, 0.0) == profile.volume


def test_steiner_cap_tube_matches_cap_oracle(grid3):
    r, eps = pi / 6, 0.1
    body = tf.metric_sphere(3, r)
    profile = tf.compute_profile(body, grid3)
    tube = tf.steiner_tube_volume(profile, eps)
    assert abs(tube - cap_volume_oracle(3, r + eps)) < 1e-8


def test_steiner_refuses_eps_beyond_reach(grid3):
    r = pi / 6
    body = tf.metric_sphere(3, r)
    profile = tf.compute_profile(body, grid3)
    assert profile.reach == pytest.approx(pi / 2 - r, rel=1e-12)
    with pytest.raises(tf.TubeRadiusError):
        tf.steiner_tube_volume(profile, pi / 2 - r + 0.01)


def test_steiner_against_mc_tube(grid3):
    r, eps = pi / 6, 0.1
    body = tf.metric_sphere(3, r)
    profile = tf.compute_profile(body, grid3)
    tube = tf.steiner_tube_volume(profile, eps)
    est = tf.mc_tube_volume(body, eps, 200_000, tf.RngStream(31))
    assert abs(est.mean - tube) < 4 * est.stderr
    with pytest.raises(tf.BodyError):
        tf.mc_tube_volume(tf.ellipsoid(3, [1, 1, 1]), eps, 10, tf.RngStream(0))


def test_sum_identity_spheres(grid3):
    for r in (pi / 6, pi / 4, pi / 3):
        res = tf.sum_identity_residual(tf.compute_profile(tf.metric_sphere(3, r), grid3))
        assert abs(res) < 1e-5


def test_sum_identity_ellipsoids(grid3):
    gen = tf.RngStream(33).generator()
    for _ in range(3):
        res = tf.sum_identity_residual(tf.compute_profile(random_ellipsoid(gen), grid3))
        assert abs(res) < 1e-4


def test_bound_check_bodies(grid3):
    bodies = [tf.metric_sphere(3, r) for r in (0.2, pi / 4, 1.4)]
    for body in [*bodies, tf.ellipsoid(3, [1.0, 0.01, 0.01])]:      # a needle last
        profile = tf.compute_profile(body, grid3)
        for k in range(3):
            assert tf.bound_check(profile, k)
    # k = 0: the ratio is 4 V_{n-1} <= 4 directly
    gen = tf.RngStream(35).generator()
    body = random_ellipsoid(gen)
    ratio0 = tf.tangent_volume_ratio_convex(tf.surface_sample(body, grid3), 0)
    assert ratio0 == pytest.approx(4 * tf.compute_profile(body, grid3).values[2],
                                   rel=1e-12)
    assert ratio0 <= 4.0


def test_cap_intrinsic_volume_profile_in_radius():
    # Growing caps trade intrinsic volume between indices: V_{n-1} grows
    # from 0, V_0 falls from 1/2 (the value of a point), and the middle
    # index is symmetric about the self-dual radius.  All three follow from
    # the closed forms cos^2(r)/2, (2/pi) cos(r) sin(r), sin^2(r)/2.
    grid = tf.surface_grid(3, 3)
    rs = np.linspace(0.15, pi / 2 - 0.15, 12)
    values = np.array([tf.compute_profile(tf.metric_sphere(3, r), grid).values
                       for r in rs])
    assert (np.diff(values[:, 2]) > 0).all()
    assert (np.diff(values[:, 0]) < 0).all()
    assert np.allclose(values[:, 1], values[::-1, 1], atol=1e-9)
    assert np.allclose(values[:, 0], np.cos(rs) ** 2 / 2, atol=1e-9)
    assert np.allclose(values[:, 2], np.sin(rs) ** 2 / 2, atol=1e-9)


def test_cap_volume_derivative_is_area():
    grid = tf.surface_grid(3, 3)
    r, h = 0.8, 1e-5
    dv = (cap_volume(r + h, grid) - cap_volume(r - h, grid)) / (2 * h)
    area = grid.weights @ tf.surface_sample(tf.metric_sphere(3, r), grid).J
    assert abs(dv - area) < 1e-6 * max(1.0, area)
