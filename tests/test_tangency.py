import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def sphere_vectors(bodies, stream):
    return tangency._sphere_vectors(bodies, haar_matrices(4, 4, stream.generator()))


def random_symmetric(gen, scale=1.0):
    A = gen.standard_normal((4, 4)) * scale
    return 0.5 * (A + A.T)


def wedge(u, v):
    out = np.empty(6, dtype=np.result_type(u, v))
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for idx, (i, j) in enumerate(pairs):
        out[idx] = u[i] * v[j] - u[j] * v[i]
    return out


def test_tangency_quadric_two_point_identity():
    gen = tf.RngStream(1).generator()
    for _ in range(30):
        A = random_symmetric(gen)
        M = tf.tangency_quadric_of(A)
        u = gen.standard_normal(4)
        v = gen.standard_normal(4)
        p = wedge(u, v)
        expect = (u @ A @ u) * (v @ A @ v) - (u @ A @ v) ** 2
        assert p @ M @ p == pytest.approx(expect, rel=1e-10, abs=1e-10)


def test_tangency_quadric_identity_matrix():
    M = tf.tangency_quadric_of(np.eye(4))
    assert np.allclose(M, np.eye(6))
    assert np.linalg.eigvalsh(M).min() > 0     # no real tangent lines


def test_tangency_quadric_sphere_examples():
    A = np.diag([-1.0, 1.0, 1.0, 1.0])        # unit sphere in the chart x0=1
    M = tf.tangency_quadric_of(A)
    # line through the affine point (1,0,0) with direction (0,0,1) is tangent
    p = wedge(np.array([1.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]))
    assert abs(p @ M @ p) < 1e-12
    # a line through the chart origin is secant: negative sign
    p = wedge(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0]))
    assert p @ M @ p < 0
    with pytest.raises(tf.BodyError):
        tf.tangency_quadric_of(np.diag([0.0, 1.0, 1.0, 1.0]))


def test_tangency_quadric_test_is_scale_free():
    # eigenvalues -1, 1, 1 and 1e10, an ellipsoid with semiaxes 1e-5 1 1
    A = np.diag([-1.0, 1e10, 1.0, 1.0])
    for scale in (1e-8, 1.0, 1e8):
        assert np.isfinite(tf.tangency_quadric_of(scale * A)).all()
    with pytest.raises(tf.BodyError):
        tf.tangency_quadric_of(np.diag([-1.0, 1e13, 1.0, 1.0]))


def test_stacked_forms_equal_the_forms_of_each_matrix():
    gen = tf.RngStream(11).generator()
    A = gen.standard_normal((5, 4, 4, 4))
    A = A + np.swapaxes(A, -1, -2)
    forms, compounds = tf.tangency_quadric_of(A), tf.second_compound(A)
    assert forms.shape == compounds.shape == (5, 4, 6, 6)
    for idx in np.ndindex(5, 4):
        assert np.array_equal(forms[idx], tf.tangency_quadric_of(A[idx]))
        assert np.array_equal(compounds[idx], tf.second_compound(A[idx]))
    # one singular matrix anywhere in the stack is refused
    A[3, 2] = np.diag([0.0, 1.0, 1.0, 1.0])
    with pytest.raises(tf.BodyError):
        tf.tangency_quadric_of(A)


def test_stacked_compounds_are_c_ordered():
    gen = tf.RngStream(12).generator()
    A = gen.standard_normal((3, 4, 4, 4))
    for stack in (A, A + 1j * A, np.swapaxes(A, -1, -2)):
        compounds = tf.second_compound(stack)
        assert compounds.shape == (3, 4, 6, 6)
        assert compounds.flags.c_contiguous
    assert tf.tangency_quadric_of(A + np.swapaxes(A, -1, -2)).flags.c_contiguous


complex_vectors = st.lists(st.complex_numbers(max_magnitude=3.0), min_size=4,
                           max_size=4).map(np.array)


@settings(max_examples=200, deadline=None)
@given(complex_vectors, complex_vectors, complex_vectors)
def test_sphere_form_matches_second_compound(w, u, v):
    # p.p - q.q with q = L(w) p is p^T C2(I - w w^T) p on lines p = u ^ v
    p = wedge(u, v)
    C = tf.second_compound(np.eye(4) - np.outer(w, w))
    L = tangency._sphere_maps(np.tile(w, (4, 1)))
    F = tangency._sphere_homotopy(L, np.zeros_like(L), 1.0, p[None], np.zeros(1))[0]
    expect = p @ C @ p
    # relative to sums of absolute terms, which bound the rounding errors
    scale = np.abs(p) @ np.abs(C) @ np.abs(p) + (np.abs(L[:4] @ p) ** 2).sum()
    assert np.all(np.abs(F[0, :4] - expect) <= 1e-12 * scale)
    assert abs(F[0, 4] - p @ tf.PLUCKER_PAIRING @ p) <= 1e-12 * (np.abs(p) ** 2).sum()


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
    # 24 sphere trials are two chunks of at most 21, so two workers split them
    bodies = [tf.metric_sphere(3, np.pi / 4)] * 4
    e1 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3)
    e2 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3)
    assert e1 == e2
    e3 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3, workers=2)
    assert e1 == e3


def test_trial_result_independent_of_chunk_companions():
    bodies = main_theorem_spheres()
    forms = np.array([tangency._normalize_forms(
        moved_quadrics(bodies, tf.RngStream(31, k))) for k in range(8)])
    rngs = [tf.RngStream(32, k) for k in range(8)]
    # the total-degree route, then the sphere route on the same draws
    for W in (None, np.array([sphere_vectors(bodies, tf.RngStream(31, k))
                              for k in range(8)])):
        def solve(rows):
            return tangency._solve_batch(forms[rows], [rngs[k] for k in rows],
                                         None if W is None else W[rows])

        together = solve(list(range(8)))
        for k in range(8):
            alone, chunked = solve([k])[0], together[k]
            assert (chunked.tracked, chunked.singular, chunked.failed,
                    chunked.real_count) == (alone.tracked, alone.singular,
                                            alone.failed, alone.real_count)
            assert np.array_equal(chunked.residuals, alone.residuals)
            assert np.array_equal(chunked.solutions, alone.solutions)


def scalar_classify(Ms, sol):
    """The reality test of one endpoint with lstsq Newton steps, as it ran
    before classification was batched: the reference for _classify."""
    m = np.argmax(np.abs(sol))
    aligned = sol * (sol[m].conj() / abs(sol[m]))
    ratio = np.linalg.norm(aligned.imag) / np.linalg.norm(aligned.real)
    if ratio >= tangency._BORDERLINE_RATIO:
        return None, False, False, False
    x = aligned.real / np.linalg.norm(aligned.real)
    for _ in range(8):
        J = 2.0 * np.einsum('sij,j->si', Ms, x)
        r = np.concatenate([-np.einsum('i,sij,j->s', x, Ms, x), [0.0]])
        x = x + np.linalg.lstsq(np.vstack([J, x[None, :]]), r, rcond=1e-12)[0]
        x = x / np.linalg.norm(x)
    real = (ratio < tangency._REAL_RATIO and np.abs(
        np.einsum('i,sij,j->s', x, Ms, x)).max() < tangency._RESIDUAL_TOL)
    Jb = np.vstack([2.0 * np.einsum('sij,j->si', Ms, x), x[None, :]])
    sv = np.linalg.svd(Jb, compute_uv=False)
    return x, real, not real, real and sv[-1] < 1e-7 * sv[0]


def test_batched_classification_matches_the_scalar_reference():
    bodies = [tf.metric_sphere(3, 0.5), tf.ellipsoid(3, [0.7, 1.3, 1.1]),
              tf.ellipsoid(3, [1.6, 0.8, 0.9]),
              tf.affine_sphere(3, [0.1, 0.2, 0.0], 0.6)]
    gs = np.array([haar_matrices(4, 4, tf.RngStream(41, k).generator())
                   for k in range(4)])
    forms = tangency._moved_quadrics(bodies, gs)
    gen = tf.RngStream(42).generator()
    Ms, points = [], []
    for M, sols in zip(forms, tangency._solve_batch(forms, [
            tf.RngStream(43, k) for k in range(4)])):
        # the endpoints, and real solutions given a phase and an imaginary
        # part that makes them real, borderline, or not candidates at all
        noisy = [x * np.exp(2j * np.pi * gen.uniform())
                 + 1j * eps * gen.standard_normal(6) / np.sqrt(6)
                 for x in sols.real_solutions for eps in (1e-8, 1e-5, 1e-3)]
        points += [*sols.solutions, *noisy]
        Ms += [M] * (len(sols.solutions) + len(noisy))
    Ms, points = np.array(Ms), np.array(points)
    polished, *masks = tangency._classify(Ms, points, np.ones(len(points), bool))
    assert masks[0].sum() > 0 and masks[1].sum() > 0
    for row in range(len(points)):
        x, *flags = scalar_classify(Ms[row], points[row])
        assert [mask[row] for mask in masks] == flags, row
        if flags[0]:
            assert np.abs(polished[row] - x).max() < 1e-12


def test_sphere_start_data():
    L0, starts = tangency._sphere_start()
    assert starts.shape == (12, 6)
    F, J, _ = tangency._sphere_homotopy(L0, np.zeros_like(L0), 1.0, starts,
                                        np.zeros(12))
    assert np.abs(F).max() < 1e-12
    sv = np.linalg.svd(tangency._bordered(J, starts), compute_uv=False)
    assert (sv[:, -1] > 1e-7 * sv[:, 0]).all()
    again = tangency._sphere_start.__wrapped__()
    assert np.array_equal(again[0], L0) and np.array_equal(again[1], starts)


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
        # the sphere route tracks the 12 isolated solutions alone
        spheres = tangency._solve_one(tangency._normalize_forms(
            moved_quadrics(bodies, stream)), stream.substream(1 << 32),
            sphere_vectors(bodies, stream))
        assert (spheres.tracked, spheres.singular, spheres.failed) == (12, 0, 0)
        assert spheres.real_count == sols.real_count


def test_criterion_3_trial_260_has_four_real_lines():
    # the 32-path tracker with an Euler predictor lost paths on this draw of
    # the equal-radii run on every retry; both routes now count 4
    bodies = [tf.metric_sphere(3, np.pi / 4)] * 4
    assert tangency._tau_chunk((bodies, 20240801, [260])) == ([4], [])
    stream = tf.RngStream(20240801, 260)
    sols = tf.solve_tangency_system(moved_quadrics(bodies, stream),
                                    stream.substream(1 << 32))
    assert sols.real_count == 4


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


def test_mixed_family_counts_match_recorded_values():
    # a metric sphere, two ellipsoids and an affine sphere take the 32-path
    # route; recorded when endpoints were classified one at a time
    bodies = [tf.metric_sphere(3, 0.5), tf.ellipsoid(3, [0.7, 1.3, 1.1]),
              tf.ellipsoid(3, [1.6, 0.8, 0.9]),
              tf.affine_sphere(3, [0.1, 0.2, 0.0], 0.6)]
    counts, log = tangency._tau_chunk((bodies, 777, range(24)))
    assert counts == [0, 2, 6, 4, 2, 4, 0, 2, 4, 4, 2, 4,
                      6, 2, 4, 4, 2, 4, 4, 0, 2, 4, 4, 4]
    assert log == []


def test_tau_shrinking_radius_kills_tangents():
    means = []
    for r in (0.3, 0.1, 0.03):
        bodies = [tf.metric_sphere(3, np.pi / 4)] * 3 + [tf.affine_sphere(3, [0.0, 0.0, 0.0], r)]
        est = tf.average_tangent_count_empirical(bodies, trials=12, seed=77)
        means.append(est.mean)
    assert means[0] > means[2]
    assert means[2] < 1.0
