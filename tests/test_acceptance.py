"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criterion 9's second clause is expected to fail at n = 3: the closed-form
maximum sits 11.31% from its large-n approximation there, just outside the
1/n^2 = 11.11% band the criterion demands (n >= 4 passes with margin).  See
README for the numbers; the check is implemented as stated rather than
loosened.
"""
from math import pi, sqrt

import numpy as np
import pytest

import tangentflats as tf
from tangentflats.projective import haar_matrices
from conftest import random_ellipsoid

SEED = 20240801


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def ellipsoid_suite():
    """Ten random ellipsoids with profiles at level 4, shared by criteria
    6, 7 and 10."""
    gen = tf.RngStream(SEED, 600).generator()
    grid = tf.surface_grid(3, 4)
    bodies = [random_ellipsoid(gen) for _ in range(10)]
    profiles = [tf.compute_profile(b, grid) for b in bodies]
    return grid, bodies, profiles


def test_criterion_1_expected_degree_monte_carlo():
    est = tf.estimate_expected_degree(1, 3, 1_000_000, seed=SEED)
    ok = 1.7212 <= est.mean <= 1.7312
    assert _report(1, ok,
                   f"expected degree (1,3) at 1e6 samples: {est.mean:.5f} "
                   f"+- {est.stderr:.5f}, window [1.7212, 1.7312], "
                   f"discarded {est.degenerate}")


def test_criterion_2_sphere_tangent_volume_oracle():
    worst = 0.0
    worst_case = None
    for n in range(3, 7):
        grid = tf.surface_grid(n, 4)
        for r in (pi / 6, pi / 4, pi / 3):
            prof = tf.tangent_volume_ratio_profile(
                tf.surface_sample(tf.metric_sphere(n, r), grid))
            for k in range(n):
                expect = tf.sphere_tangent_ratio(k, n, r)
                rel = abs(prof[k] - expect) / expect
                if rel > worst:
                    worst, worst_case = rel, (k, n, r)
    ok = worst < 1e-6
    assert _report(2, ok,
                   f"sphere quadrature vs closed form over n=3..6, "
                   f"worst rel err {worst:.2e} at (k,n,r)={worst_case}")


def test_criterion_3_main_theorem_empirical():
    bodies = [tf.metric_sphere(3, pi / 4)] * 4
    est = tf.average_tangent_count_empirical(bodies, trials=500, seed=SEED)
    target = 1.7262 * (4 / pi) ** 4
    ok1 = abs(est.mean - target) <= 3 * est.stderr
    line1 = (f"equal radii: {est.mean:.3f} +- {est.stderr:.3f} vs "
             f"{target:.3f} ({abs(est.mean - target) / est.stderr:.2f} sigma)")

    radii = (pi / 6, pi / 4, pi / 3, pi / 4)
    bodies = [tf.metric_sphere(3, r) for r in radii]
    est2 = tf.average_tangent_count_empirical(bodies, trials=500, seed=SEED + 1)
    ratios = tuple(tf.sphere_tangent_ratio(1, 3, r) for r in radii)
    target2 = tf.average_tangent_count(
        tf.TangentCountInputs(1, 3, ratios, 1.7262))
    ok2 = abs(est2.mean - target2) <= 3 * est2.stderr
    line2 = (f"mixed radii: {est2.mean:.3f} +- {est2.stderr:.3f} vs "
             f"{target2:.3f} ({abs(est2.mean - target2) / est2.stderr:.2f} sigma)")
    assert _report(3, ok1 and ok2, line1 + "; " + line2)


def test_criterion_4_complex_count():
    gen = tf.RngStream(SEED, 400).generator()
    quadrics = []
    for trial in range(100):
        for _ in range(4):
            A = gen.standard_normal((4, 4))
            quadrics.append(tf.tangency_quadric_of(0.5 * (A + A.T)))
    solves = tf.solve_tangency_system(np.reshape(quadrics, (100, 4, 6, 6)),
                                      [tf.RngStream(SEED, 401 + trial) for trial in range(100)])
    clean32 = 0
    all_accounted = True
    residual_ok = True
    parity_ok = True
    for sols in solves:
        all_accounted &= (sols.tracked + sols.singular + sols.failed == 32)
        if len(sols.solutions) == 32 and sols.residuals.max() < 1e-10:
            clean32 += 1
        residual_ok &= sols.residuals.max() < 1e-10
        parity_ok &= sols.real_count % 2 == 0
    ok = all_accounted and clean32 >= 99 and residual_ok and parity_ok
    assert _report(4, ok,
                   f"random quadrics over 100 draws: {clean32} with 32 finite "
                   f"solutions, paths accounted {all_accounted}, residuals "
                   f"ok {residual_ok}, real counts even {parity_ok}")


def test_criterion_5_affine_sphere_bound():
    gen = tf.RngStream(SEED, 500).generator()
    bodies, gs = [], []
    for trial in range(200):
        bodies.append([tf.affine_sphere(3, gen.standard_normal(3),
                                        gen.uniform(0.2, 1.2)) for _ in range(4)])
        gs.append(haar_matrices(4, 4, gen))
    solves = tf.count_real_tangent_lines(
        bodies, np.array(gs), [tf.RngStream(SEED, 501 + trial) for trial in range(200)])
    degenerate = sum(bool(r.degenerate or r.failed) for r in solves)
    max_count = max((r.real_count for r in solves if not (r.degenerate or r.failed)),
                    default=0)
    ok = max_count <= 12 and degenerate <= 10
    assert _report(5, ok,
                   f"affine spheres over 200 draws: max real count {max_count} "
                   f"(bound 12), degenerate draws {degenerate}")


def test_criterion_6_sum_identity(ellipsoid_suite):
    grid, bodies, profiles = ellipsoid_suite
    sn = tf.sphere_volume(3)
    worst_sphere = max(abs(tf.sum_identity_residual(
        tf.compute_profile(tf.metric_sphere(3, r), grid)))
                       for r in (pi / 6, pi / 4, pi / 3))
    worst_ell = max(abs(4 * p.volume / sn + 4 * p.polar / sn + p.ratios.sum() - 4)
                    for p in profiles)
    ok = worst_sphere < 1e-5 and worst_ell < 1e-4
    assert _report(6, ok,
                   f"sum identity residuals: spheres {worst_sphere:.2e} "
                   f"(< 1e-5), ellipsoids {worst_ell:.2e} (< 1e-4)")


def test_criterion_7_universal_bound(ellipsoid_suite):
    grid, bodies, profiles = ellipsoid_suite
    worst = 0.0
    for p in profiles:
        worst = max(worst, p.ratios.max())
    for r in (0.15, pi / 6, pi / 4, pi / 3, 1.4):
        worst = max(worst, tf.tangent_volume_ratio_profile(
            tf.surface_sample(tf.metric_sphere(3, r), grid)).max())
    needle = tf.ellipsoid(3, [1.0, 0.01, 0.01])
    worst = max(worst, tf.tangent_volume_ratio_profile(
        tf.surface_sample(needle, grid)).max())
    for n in (4, 5):
        gridn = tf.surface_grid(n, 3)
        worst = max(worst, tf.tangent_volume_ratio_profile(
            tf.surface_sample(tf.metric_sphere(n, pi / 4), gridn)).max())
    ok = worst <= 4.0 + 1e-6
    assert _report(7, ok, f"largest tangent volume ratio over all convex "
                          f"test bodies and all k: {worst:.8f} (bound 4)")


def test_criterion_8_steiner_formula():
    from scipy.integrate import quad
    r, eps = pi / 6, 0.1
    grid = tf.surface_grid(3, 4)
    body = tf.metric_sphere(3, r)
    profile = tf.compute_profile(body, grid)
    tube = tf.steiner_tube_volume(profile, eps)
    cap = tf.sphere_volume(2) * quad(lambda t: np.sin(t) ** 2, 0, r + eps,
                                     epsabs=1e-14)[0]
    err = abs(tube - cap)
    est = tf.mc_tube_volume(body, eps, 1_000_000, tf.RngStream(SEED, 800))
    pull = abs(est.mean - tube) / est.stderr
    ok = err < 1e-8 and pull <= 4
    assert _report(8, ok,
                   f"Steiner tube vs cap closed form: |diff| {err:.2e} (< 1e-8); "
                   f"vs direct MC at 1e6 samples: {pull:.2f} sigma (<= 4)")


def test_criterion_9_argmax_property():
    phi = (sqrt(5) - 1) / 2

    def golden_max(f, a, b, tol=1e-12):
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

    argmax_ok = True
    value_ok = True
    detail = []
    for n in range(3, 11):
        r_star, value = tf.max_sphere_line_tangent_ratio(n)
        r_num = golden_max(lambda r: tf.sphere_tangent_ratio(1, n, r),
                           1e-6, pi / 2 - 1e-6)
        argmax_ok &= abs(r_num - r_star) < 1e-8
        asym = sqrt(8 / (np.e * pi)) * (1 + 1 / (2 * n))
        rel = abs(value - asym) / value
        value_ok &= rel < 1 / n ** 2
        if rel >= 1 / n ** 2:
            detail.append(f"n={n}: rel err {rel:.6f} >= 1/n^2 = {1 / n ** 2:.6f}")
    ok = argmax_ok and value_ok
    assert _report(9, ok,
                   f"argmax matches arccos(1/sqrt(n-1)) to 1e-8 for n=3..10: "
                   f"{argmax_ok}; max-value sequence within 1/n^2 of the "
                   f"asymptotic: {value_ok}"
                   + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_10_line_volume_formulas_agree(ellipsoid_suite):
    grid, bodies, profiles = ellipsoid_suite
    sch = tf.schubert_volume(1, 3)
    worst = 0.0
    for body, p in zip(bodies, profiles):
        via_h = tf.tangent_line_volume_rp3(tf.surface_sample(body, grid))
        via_sigma = p.ratios[1] * sch
        worst = max(worst, abs(via_h - via_sigma) / via_sigma)
    for r in (pi / 6, pi / 4, pi / 3):
        sample = tf.surface_sample(tf.metric_sphere(3, r), grid)
        via_h = tf.tangent_line_volume_rp3(sample)
        via_sigma = tf.tangent_volume_ratio_convex(sample, 1) * sch
        worst = max(worst, abs(via_h - via_sigma) / via_sigma)
    ok = worst < 1e-6
    assert _report(10, ok,
                   f"curvature-integral vs direction-average line volumes on "
                   f"convex bodies: worst rel diff {worst:.2e} (< 1e-6)")
