import numpy as np
import pytest

import tangentflats as tf
from conftest import random_ellipsoid
from tangentflats import tangency
from tangentflats.projective import haar_matrices

SPHERE_RADII = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 4)


def main_theorem_spheres():
    return [tf.metric_sphere(3, r) for r in SPHERE_RADII]


def moved_quadrics(bodies, stream):
    gs = haar_matrices(4, 4, stream.generator())
    return [tf.tangency_quadric_of(g @ b.defining_matrix() @ g.T)
            for b, g in zip(bodies, gs)]


def random_symmetric(gen, scale=1.0):
    A = gen.standard_normal((4, 4)) * scale
    return 0.5 * (A + A.T)


def wedge(u, v):
    out = np.empty(6)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for idx, (i, j) in enumerate(pairs):
        out[idx] = u[i] * v[j] - u[j] * v[i]
    return out


def test_tangency_quadric_two_point_identity():
    gen = tf.RngStream(1).generator()
    for _ in range(30):
        A = random_symmetric(gen)
        M = tf.tangency_quadric_of(A).matrix
        u = gen.standard_normal(4)
        v = gen.standard_normal(4)
        p = wedge(u, v)
        expect = (u @ A @ u) * (v @ A @ v) - (u @ A @ v) ** 2
        assert p @ M @ p == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_tangency_quadric_identity_matrix():
    M = tf.tangency_quadric_of(np.eye(4)).matrix
    assert np.allclose(M, np.eye(6))
    assert np.linalg.eigvalsh(M).min() > 0     # no real tangent lines


def test_tangency_quadric_sphere_examples():
    A = np.diag([-1.0, 1.0, 1.0, 1.0])        # unit sphere in the chart x0=1
    Q = tf.tangency_quadric_of(A)
    # line through the affine point (1,0,0) with direction (0,0,1) is tangent
    p = wedge(np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
    assert abs(Q.value(p)) < 1e-12
    # a line through the chart origin is secant: negative sign
    p = wedge(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    assert Q.value(p) < 0
    with pytest.raises(ValueError):
        tf.tangency_quadric_of(np.diag([0.0, 1.0, 1.0, 1.0]))


def test_solver_generic_quadrics():
    gen = tf.RngStream(2).generator()
    for trial in range(5):
        quadrics = [tf.tangency_quadric_of(random_symmetric(gen)) for _ in range(4)]
        sols = tf.solve_tangency_system(quadrics, tf.RngStream(50, trial))
        assert sols.tracked + sols.singular + sols.failed == 32
        assert sols.finite_with_multiplicity == 32
        assert sols.residuals.max() < 1e-10
        assert sols.real_count % 2 == 0
        assert not sols.degenerate
        # every reported solution satisfies the Pluecker relation
        for p in sols.solutions:
            rel = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
            assert abs(rel) < 1e-9


def test_solver_deterministic():
    gen = tf.RngStream(3).generator()
    quadrics = [tf.tangency_quadric_of(random_symmetric(gen)) for _ in range(4)]
    s1 = tf.solve_tangency_system(quadrics, tf.RngStream(7))
    s2 = tf.solve_tangency_system(quadrics, tf.RngStream(7))
    assert s1.real_count == s2.real_count
    assert np.array_equal(s1.residuals, s2.residuals)


def test_solver_repeated_quadric_degenerate():
    gen = tf.RngStream(4).generator()
    A = random_symmetric(gen)
    B = random_symmetric(gen)
    C = random_symmetric(gen)
    quadrics = [tf.tangency_quadric_of(A), tf.tangency_quadric_of(A),
                tf.tangency_quadric_of(B), tf.tangency_quadric_of(C)]
    try:
        sols = tf.solve_tangency_system(quadrics, tf.RngStream(8))
        assert sols.degenerate
        assert sols.nonisolated > 0
    except tf.PathFailureError:
        pass                                   # an acceptable diagnosis too


def test_count_real_tangent_lines_common_rotation_equivariance():
    gen = tf.RngStream(5).generator()
    bodies = [tf.metric_sphere(3, 0.6), tf.ellipsoid(3, [1.2, 0.9, 0.7]),
              tf.affine_sphere(3, [0.2, -0.1, 0.3], 0.5),
              tf.metric_sphere(3, 1.0)]
    for trial in range(3):
        gs = haar_matrices(4, 4, gen)
        h = haar_matrices(4, 1, gen)[0]
        c1 = tf.count_real_tangent_lines(bodies, gs, tf.RngStream(60, trial))
        c2 = tf.count_real_tangent_lines(bodies, [h @ g for g in gs],
                                         tf.RngStream(60, trial))
        assert c1 == c2
        assert c1 % 2 == 0


def test_affine_sphere_real_bound_small():
    gen = tf.RngStream(6).generator()
    hit_degenerate = 0
    for trial in range(15):
        bodies = [tf.affine_sphere(3, gen.standard_normal(3), gen.uniform(0.2, 1.2))
                  for _ in range(4)]
        try:
            count = tf.count_real_tangent_lines(
                bodies, haar_matrices(4, 4, gen), tf.RngStream(70, trial))
        except tf.DegenerateConfigurationError:
            hit_degenerate += 1
            continue
        assert count <= 12 and count % 2 == 0
    assert hit_degenerate <= 2


def test_tau_empirical_deterministic_and_parallel():
    # 16 trials are two chunks, so two workers split them
    bodies = [tf.metric_sphere(3, np.pi / 4)] * 4
    e1 = tf.average_tangent_count_empirical(bodies, trials=16, seed=3)
    e2 = tf.average_tangent_count_empirical(bodies, trials=16, seed=3)
    assert e1 == e2
    e3 = tf.average_tangent_count_empirical(bodies, trials=16, seed=3, workers=2)
    assert e1 == e3


def test_trial_result_independent_of_chunk_companions():
    bodies = main_theorem_spheres()
    forms = np.array([tangency._normalize_forms(
        moved_quadrics(bodies, tf.RngStream(31, k))) for k in range(8)])
    rngs = [tf.RngStream(32, k) for k in range(8)]
    together = tangency._solve_batch(forms, rngs, tangency._MAX_STEPS)
    for k in range(8):
        alone = tangency._solve_batch(forms[k:k + 1], rngs[k:k + 1],
                                      tangency._MAX_STEPS)[0]
        chunked = together[k]
        assert (chunked.tracked, chunked.singular, chunked.failed,
                chunked.real_count) == (alone.tracked, alone.singular,
                                        alone.failed, alone.real_count)
        assert np.array_equal(chunked.residuals, alone.residuals)
        assert np.array_equal(chunked.solutions, alone.solutions)


def test_main_theorem_spheres_have_twelve_isolated_solutions():
    # four spheres have at most 12 common tangent lines (Macdonald, Pach and
    # Theobald); the other 20 paths stall on the excess component at infinity
    bodies = main_theorem_spheres()
    for trial in range(12):
        stream = tf.RngStream(21, trial)
        sols = tf.solve_tangency_system(moved_quadrics(bodies, stream),
                                        stream.substream(1 << 32))
        assert (sols.tracked, sols.singular, sols.failed) == (12, 20, 0)
        assert sols.real_count <= 12


def test_empirical_estimates_match_recorded_values():
    # recorded before the trials were tracked in chunks
    gen = tf.RngStream(9).generator()
    families = {"spheres": (main_theorem_spheres(), 3.85, 0.30707470067537607),
                "ellipsoids": ([random_ellipsoid(gen) for _ in range(4)], 4.45,
                               0.24271435147155268)}
    for name, (bodies, mean, stderr) in families.items():
        est = tf.average_tangent_count_empirical(bodies, trials=40, seed=2024)
        assert (est.mean, est.samples, est.degenerate) == (mean, 40, 0), name
        assert est.stderr == pytest.approx(stderr, rel=1e-12), name


def test_tau_shrinking_radius_kills_tangents():
    means = []
    for r in (0.3, 0.1, 0.03):
        bodies = [tf.metric_sphere(3, np.pi / 4)] * 3 + [tf.affine_sphere(3, [0.0, 0.0, 0.0], r)]
        est = tf.average_tangent_count_empirical(bodies, trials=12, seed=77)
        means.append(est.mean)
    assert means[0] > means[2]
    assert means[2] < 1.0
