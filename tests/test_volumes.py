from math import gamma, pi, sqrt

import mpmath
import numpy as np
import pytest

import tangentflats as tf


def test_sphere_volumes():
    assert tf.sphere_volume(1) == pytest.approx(2 * pi, rel=1e-14)
    assert tf.sphere_volume(2) == pytest.approx(4 * pi, rel=1e-14)
    assert tf.sphere_volume(3) == pytest.approx(2 * pi ** 2, rel=1e-14)


def test_orthogonal_volumes_recursion():
    assert tf.orthogonal_volume(1) == 2.0
    assert tf.orthogonal_volume(2) == pytest.approx(4 * pi, rel=1e-14)
    assert tf.orthogonal_volume(3) == pytest.approx(16 * pi ** 2, rel=1e-14)
    for n in range(2, 8):
        assert tf.orthogonal_volume(n) == pytest.approx(
            tf.sphere_volume(n - 1) * tf.orthogonal_volume(n - 1), rel=1e-13)


def test_grassmannian_volumes():
    assert tf.grassmannian_volume(1, 2) == pytest.approx(pi, rel=1e-14)
    # recursion oracle for Gr(2, 4)
    expect = tf.orthogonal_volume(4) / tf.orthogonal_volume(2) ** 2
    assert tf.grassmannian_volume(2, 4) == pytest.approx(expect, rel=1e-14)
    for n in range(1, 7):
        for k in range(n + 1):
            assert tf.grassmannian_volume(k, n) == pytest.approx(
                tf.grassmannian_volume(n - k, n), rel=1e-12)


def test_schubert_ratio_values():
    assert tf.schubert_ratio(1, 3).value == pytest.approx(pi / 4, rel=1e-14)
    assert tf.schubert_ratio(0, 1).value == pytest.approx(1 / pi, rel=1e-14)


def test_schubert_ratio_symmetry_exact():
    for n in range(2, 9):
        for k in range(n):
            a = tf.schubert_ratio(k, n).value
            b = tf.schubert_ratio(n - 1 - k, n).value
            assert a == b                       # bitwise: same Gamma products
            assert a * b == a ** 2


def test_steiner_coefficient_basics():
    assert tf.steiner_coefficient(0, 3, 0.0) == 0.0
    eps = 0.37
    assert tf.steiner_coefficient(0, 1, eps) == pytest.approx(eps, abs=1e-13)
    # antiderivative oracle sin(t)^2/2 for (k, n) = (1, 3)
    assert tf.steiner_coefficient(1, 3, pi / 4) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        tf.steiner_coefficient(1, 3, 2.0)


def test_steiner_coefficient_monotone():
    grid = np.linspace(0.01, pi / 2 - 0.01, 40)
    vals = [tf.steiner_coefficient(2, 5, e) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_steiner_coefficient_beta_total():
    # integral over the full quarter period is Beta((k+1)/2, (n-k)/2) / 2
    for n in range(2, 7):
        for k in range(n):
            total = tf.steiner_coefficient(k, n, pi / 2)
            beta = gamma((k + 1) / 2) * gamma((n - k) / 2) / gamma((n + 1) / 2)
            assert total == pytest.approx(beta / 2, abs=1e-10)


def test_steiner_coefficient_matches_incomplete_beta():
    # the integral is B(sin^2 eps; (m+1)/2, (k+1)/2) / 2 with m = n-1-k
    with mpmath.workdps(50):
        for n in range(2, 62):
            for k in range(n):
                a, b = mpmath.mpf(n - k) / 2, mpmath.mpf(k + 1) / 2
                for eps in (1e-3, 0.05, 0.3, 1.0, pi / 2):
                    exact = mpmath.betainc(a, b, 0, mpmath.sin(eps) ** 2) / 2
                    got = tf.steiner_coefficient(k, n, eps)
                    assert abs(got / exact - 1) <= 1e-13, (k, n, eps)


def test_sphere_tangent_ratio_values():
    assert tf.sphere_tangent_ratio(1, 3, pi / 4) == pytest.approx(4 / pi, rel=1e-13)
    # k < n-1 vanishes as r -> 0
    assert tf.sphere_tangent_ratio(1, 3, 1e-6) < 1e-5
    for n in range(2, 6):
        for r in (0.3, 0.7, 1.2):
            assert tf.sphere_tangent_ratio(0, n, r) == pytest.approx(
                2 * np.sin(r) ** (n - 1), rel=1e-13)
            assert tf.sphere_tangent_ratio(0, n, r) <= 2.0 + 1e-12


def test_sphere_tangent_ratio_universal_bound():
    rs = np.linspace(1e-3, pi / 2 - 1e-3, 1000)
    for n in range(2, 9):
        for k in range(n):
            vals = tf.sphere_tangent_ratio(k, n, rs)
            assert vals.max() <= 4.0 + 1e-9


def _golden_section_max(f, lo, hi, tol=1e-12):
    phi = (sqrt(5) - 1) / 2
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    while b - a > tol:
        if f(c) > f(d):
            b, d = d, c
            c = b - phi * (b - a)
        else:
            a, c = c, d
            d = a + phi * (b - a)
    return 0.5 * (a + b)


def test_max_sphere_line_ratio_argmax_oracle():
    for n in range(3, 11):
        r_star, value = tf.max_sphere_line_tangent_ratio(n)
        assert r_star == pytest.approx(np.arccos(1 / sqrt(n - 1)), abs=1e-14)
        r_num = _golden_section_max(lambda r: tf.sphere_tangent_ratio(1, n, r),
                                    1e-6, pi / 2 - 1e-6)
        assert abs(r_num - r_star) < 1e-8
        assert tf.sphere_tangent_ratio(1, n, r_star) == pytest.approx(value, rel=1e-12)


def test_max_sphere_line_ratio_asymptote():
    # the maximum approaches sqrt(8/(e pi)) from above as n grows
    target = sqrt(8 / (np.e * pi))
    v200 = tf.max_sphere_line_tangent_ratio(200)[1]
    assert abs(v200 / (target * (1 + 1 / 400)) - 1) < 1e-4
    with pytest.raises(ValueError):
        tf.max_sphere_line_tangent_ratio(2)


def test_expected_degree_asymptotic():
    # leading constant
    n = 5
    lead = tf.expected_degree_lines_asymptotic(n)
    assert lead * sqrt(n) / (pi ** 2 / 4) ** n == pytest.approx(
        8 / (3 * pi ** 2.5), rel=1e-12)
    # consecutive ratio approaches pi^2/4
    r100 = tf.expected_degree_lines_asymptotic(101) / tf.expected_degree_lines_asymptotic(100)
    assert abs(r100 - pi ** 2 / 4) < 0.02
    # the small-n leading term is NOT the true value at n = 3
    assert abs(tf.expected_degree_lines_asymptotic(3) - tf.EXPECTED_DEGREE_LINES_RP3) > 0.1


def test_average_scaling_factor():
    assert tf.average_scaling_factor(1, 3, 0.0) == 0.0
    # (k, n) = (0, 1): |Gr(1,2)| = pi, ratio = 1/pi, dimension 1
    assert tf.average_scaling_factor(0, 1, 1.0) == pytest.approx(1.0, rel=1e-13)
    val = tf.average_scaling_factor(1, 3, tf.EXPECTED_DEGREE_LINES_RP3)
    expect = tf.EXPECTED_DEGREE_LINES_RP3 / (2 * pi ** 2 * (pi / 4) ** 4)
    assert val == pytest.approx(expect, rel=1e-13)


def test_tangent_count_inputs_validation():
    with pytest.raises(ValueError):
        tf.TangentCountInputs(1, 3, (1.0, 1.0), 1.7)      # wrong length
    with pytest.raises(ValueError):
        tf.TangentCountInputs(1, 3, (1.0, 1.0, 1.0, -0.1), 1.7)
    with pytest.raises(ValueError):
        tf.TangentCountInputs(1, 3, (1.0,) * 4, -1.0)


def test_average_tangent_count():
    d = tf.grassmannian_dimension(1, 3)
    delta = 1.7262
    bound = tf.average_tangent_count(tf.TangentCountInputs(1, 3, (4.0,) * d, delta))
    assert bound == delta * 4.0 ** d
    zero = tf.average_tangent_count(tf.TangentCountInputs(1, 3, (1.0, 0.0, 2.0, 3.0), delta))
    assert zero == 0.0
    spheres = tf.average_tangent_count(
        tf.TangentCountInputs(1, 3, (4 / pi,) * 4, delta))
    assert spheres == pytest.approx(delta * (4 / pi) ** 4, rel=1e-14)
    assert spheres == pytest.approx(4.5366, abs=5e-4)


def test_average_tangent_count_multiplicative():
    base = (0.7, 1.1, 0.9, 1.3)
    doubled = (1.4, 1.1, 0.9, 1.3)
    v1 = tf.average_tangent_count(tf.TangentCountInputs(1, 3, base, 1.7262))
    v2 = tf.average_tangent_count(tf.TangentCountInputs(1, 3, doubled, 1.7262))
    assert v2 == 2.0 * v1


def test_expected_degree_trivial_cases_exact():
    for n in (1, 2, 5, 9):
        est0 = tf.estimate_expected_degree(0, n, 10, seed=0)
        assert est0.mean == 1.0 and est0.stderr == 0.0
        est1 = tf.estimate_expected_degree(n - 1, n, 10, seed=0)
        assert est1.mean == 1.0 and est1.stderr == 0.0
