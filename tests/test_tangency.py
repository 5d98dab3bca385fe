import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tangentflats as tf
from conftest import random_ellipsoid
from tangentflats import homotopy, tangency
from tangentflats.projective import haar_matrices

SPHERE_RADII = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 4)


def main_theorem_spheres():
    return [tf.metric_sphere(3, r) for r in SPHERE_RADII]


def moved_quadrics(bodies, stream):
    gs = haar_matrices(4, 4, stream.generator())
    return [tf.tangency_quadric_of(g @ b.defining_matrix() @ g.T)
            for b, g in zip(bodies, gs)]


def target_systems(bodies, gs):
    """Normalized systems (..., 5, 6, 6) of the four bodies moved by the
    rotations gs (..., 4, 4, 4), as count_real_tangent_lines builds them."""
    A = np.array([body.defining_matrix() for body in bodies])
    return tangency._normalize_forms(tf.tangency_quadric_of(gs @ A @ np.swapaxes(gs, -1, -2)))


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


@pytest.mark.parametrize("start", ["shared", "per-row"])
def test_homotopy_is_the_straight_line_with_its_t_derivative(start):
    gen, R = tf.RngStream(43).generator(), 12
    p = gen.standard_normal((R, 6)) + 1j * gen.standard_normal((R, 6))
    t, gam = gen.uniform(0.05, 0.95, R), np.exp(2j * np.pi * gen.uniform(size=R))
    M0 = tangency._quadric_start()[0] if start == "shared" else \
        tangency._normalize_forms(random_complex_forms(gen, (R, 4)))
    M1 = tangency._normalize_forms(tf.tangency_quadric_of(
        np.array([random_symmetric(gen) for _ in range(4 * R)])).reshape(R, 4, 6, 6))
    evaluate = functools.partial(homotopy._homotopy, M0, M1, gam)
    H, J, dH = evaluate(p, t)
    # H is p^T M p and J = 2 M p for M = gam (1 - t) M0 + t M1
    M = (gam * (1 - t))[:, None, None, None] * M0 + t[:, None, None, None] * M1
    assert np.abs(H - np.einsum("ri,rkij,rj->rk", p, M, p)).max() <= 1e-12 * np.abs(H).max()
    assert np.abs(J - 2.0 * np.einsum("rkij,rj->rki", M, p)).max() <= 1e-12 * np.abs(J).max()
    # central differences in t: H is linear in t, so they are exact up to
    # rounding, far below the tolerance at h = 1e-5
    h = 1e-5
    central = (evaluate(p, t + h)[0] - evaluate(p, t - h)[0]) / (2 * h)
    assert np.abs(dH - central).max() <= 1e-8 * np.abs(dH).max()


def test_solver_generic_quadrics():
    gen = tf.RngStream(2).generator()
    quadrics = [[tf.tangency_quadric_of(random_symmetric(gen)) for _ in range(4)]
                for _ in range(5)]
    for sols in tf.solve_tangency_system(quadrics, [tf.RngStream(50, k) for k in range(5)]):
        assert sols.tracked + sols.singular + sols.failed == 32
        assert len(sols.solutions) == 32
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
    s1, s2 = (tf.solve_tangency_system([quadrics], [tf.RngStream(7)])[0]
              for _ in range(2))
    assert s1.real_count == s2.real_count
    assert np.array_equal(s1.residuals, s2.residuals)


def test_solver_repeated_quadric_degenerate():
    gen = tf.RngStream(4).generator()
    A = random_symmetric(gen)
    B = random_symmetric(gen)
    C = random_symmetric(gen)
    quadrics = [tf.tangency_quadric_of(A), tf.tangency_quadric_of(A),
                tf.tangency_quadric_of(B), tf.tangency_quadric_of(C)]
    sols = tf.solve_tangency_system([quadrics], [tf.RngStream(8)])[0]
    # non-isolated endpoints, or lost paths: an acceptable diagnosis too
    assert (sols.degenerate and sols.nonisolated > 0) or sols.failed


def test_count_real_tangent_lines_common_rotation_equivariance():
    gen = tf.RngStream(5).generator()
    bodies = [tf.metric_sphere(3, 0.6), tf.ellipsoid(3, [1.2, 0.9, 0.7]),
              tf.affine_sphere(3, [0.2, -0.1, 0.3], 0.5),
              tf.metric_sphere(3, 1.0)]
    gs, hs = [], []
    for trial in range(3):
        gs.append(haar_matrices(4, 4, gen))
        hs.append(haar_matrices(4, 1, gen)[0])
    gs = np.array(gs)
    rngs = [tf.RngStream(60, trial) for trial in range(3)]
    for r1, r2 in zip(tf.count_real_tangent_lines(bodies, gs, rngs),
                      tf.count_real_tangent_lines(bodies, np.array(hs)[:, None] @ gs, rngs)):
        assert not (r1.degenerate or r1.failed or r2.degenerate or r2.failed)
        assert r1.real_count == r2.real_count
        assert r1.real_count % 2 == 0


def test_affine_sphere_real_bound_small():
    gen = tf.RngStream(6).generator()
    bodies, gs = [], []
    for trial in range(15):
        bodies.append([tf.affine_sphere(3, gen.standard_normal(3), gen.uniform(0.2, 1.2))
                       for _ in range(4)])
        gs.append(haar_matrices(4, 4, gen))
    hit_degenerate = 0
    for sols in tf.count_real_tangent_lines(bodies, np.array(gs),
                                            [tf.RngStream(70, trial) for trial in range(15)]):
        assert not sols.failed
        if sols.degenerate:
            hit_degenerate += 1
            continue
        assert sols.real_count <= 12 and sols.real_count % 2 == 0
    assert hit_degenerate <= 2


def test_each_draw_may_have_its_own_bodies():
    # a (T, 4) stack of bodies gives every draw the SolutionSet it has alone
    gen = tf.RngStream(71).generator()
    bodies = [[tf.affine_sphere(3, gen.standard_normal(3), gen.uniform(0.2, 1.2))
               for _ in range(4)] for _ in range(3)]
    gs = np.array([haar_matrices(4, 4, gen) for _ in range(3)])
    rngs = [tf.RngStream(72, k) for k in range(3)]
    for k, together in enumerate(tf.count_real_tangent_lines(bodies, gs, rngs)):
        [alone] = tf.count_real_tangent_lines(bodies[k], gs[k:k + 1], rngs[k:k + 1])
        for name in ("solutions", "residuals", "real_solutions"):
            assert np.array_equal(getattr(together, name), getattr(alone, name)), name
        for name in ("tracked", "singular", "failed", "borderline", "real_singular",
                     "nonisolated", "work", "path_log"):
            assert getattr(together, name) == getattr(alone, name), name
    # one draw that mixes metric spheres with another body puts every draw on
    # the 32-path start, where four metric spheres stall 20 paths
    spheres = main_theorem_spheres()
    mixed = tf.count_real_tangent_lines([spheres, spheres[:3] + bodies[0][:1]], gs[:2],
                                        rngs[:2])
    assert (mixed[0].tracked, mixed[0].singular, mixed[0].paths) == (12, 20, 32)
    assert mixed[1].paths == 32
    [alone] = tf.count_real_tangent_lines(spheres, gs[:1], rngs[:1])
    assert (alone.tracked, alone.singular, alone.paths) == (12, 0, 12)
    # one check refuses every mismatch of bodies, rotations and streams
    refused = [(spheres, gs[0], rngs[:1]),                  # one unstacked 4-tuple
               (bodies[:2], gs, rngs),                      # two sets for three draws
               ([row[:3] for row in bodies], gs, rngs),     # three bodies a draw
               ([[row] for row in bodies], gs, rngs),       # bodies (3, 1, 4)
               (spheres, gs[:, :3], rngs),                  # three rotations a draw
               (spheres, gs[..., :3, :3], rngs),            # rotations of R^3
               (spheres, gs[:, :, None], rngs),             # rotations (3, 4, 1, 4, 4)
               (spheres, gs, rngs[:2])]                     # two streams for three draws
    for args in refused:
        with pytest.raises(ValueError, match=r"need rotations \(T, 4, 4, 4\)"):
            tf.count_real_tangent_lines(*args)
    with pytest.raises(ValueError):                         # one unstacked system
        tf.solve_tangency_system(moved_quadrics(spheres, rngs[0]), rngs[:1])


def test_tau_empirical_deterministic_and_parallel():
    # 24 ellipsoid trials are two chunks, of 20 and 4, so two workers split them
    assert tangency._CHUNK_ROWS // 32 == 20
    gen = tf.RngStream(4).generator()
    bodies = [random_ellipsoid(gen) for _ in range(4)]
    e1 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3)
    e2 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3)
    assert e1 == e2
    e3 = tf.average_tangent_count_empirical(bodies, trials=24, seed=3, workers=2)
    assert e1 == e3


def test_trial_result_independent_of_chunk_companions():
    spheres = main_theorem_spheres()
    gen = tf.RngStream(33).generator()
    ellipsoids = [random_ellipsoid(gen) for _ in range(4)]
    forms = {name: np.array([tangency._normalize_forms(
        moved_quadrics(bodies, tf.RngStream(31, k))) for k in range(8)])
        for name, bodies in (("spheres", spheres), ("ellipsoids", ellipsoids))}
    rngs = [tf.RngStream(32, k) for k in range(8)]
    # the sphere draws from a total-degree start; the ellipsoid draws from
    # the cached generic start
    for name, start in (("spheres", None), ("ellipsoids", tangency._quadric_start())):
        def solve(rows):
            return homotopy._solve_batch(forms[name][rows], [rngs[k] for k in rows],
                                         start)

        together = solve(list(range(8)))
        for k in range(8):
            alone, chunked = solve([k])[0], together[k]
            assert (chunked.tracked, chunked.singular, chunked.failed,
                    chunked.real_count) == (alone.tracked, alone.singular,
                                            alone.failed, alone.real_count)
            assert np.array_equal(chunked.residuals, alone.residuals)
            assert np.array_equal(chunked.solutions, alone.solutions)
            assert chunked.work == alone.work


def test_sphere_route_trial_independent_of_batch_and_grouping(monkeypatch):
    # a trial's roots come from per-trial products and gufuncs only, so it
    # gives the same bits alone, in a batch of 20, and in groups of another size
    bodies, rngs = main_theorem_spheres(), [tf.RngStream(46, k) for k in range(20)]
    gs = np.array([haar_matrices(4, 4, tf.RngStream(45, k).generator()) for k in range(20)])
    batches = [tf.count_real_tangent_lines(bodies, gs, rngs)]
    monkeypatch.setattr(tangency, "_SPHERE_GROUP", 7)
    batches.append(tf.count_real_tangent_lines(bodies, gs, rngs))
    for k in range(20):
        alone = tf.count_real_tangent_lines(bodies, gs[k:k + 1], rngs[k:k + 1])[0]
        for batch in batches:
            assert np.array_equal(batch[k].solutions, alone.solutions)
            assert np.array_equal(batch[k].residuals, alone.residuals)
            assert np.array_equal(batch[k].real_solutions, alone.real_solutions)
            assert batch[k].real_count == alone.real_count
            assert batch[k].work == alone.work
        assert (alone.tracked, alone.singular, alone.failed, alone.work.path_steps) == \
            (12, 0, 0, 0)


def random_complex_forms(gen, shape):
    A = gen.standard_normal(shape + (6, 6)) + 1j * gen.standard_normal(shape + (6, 6))
    return A + np.swapaxes(A, -1, -2)


@pytest.mark.parametrize("family", ["shared start", "per-row start", "spheres"])
def test_carried_first_stage_is_the_tangent_at_the_renormalized_point(family):
    # H is homogeneous of degree 2 in p, so the tangent that the last corrector
    # solve gives at pn, over |pn|, is the first RK4 stage at pn / |pn|
    gen, R = tf.RngStream(41).generator(), 16
    p = (gen.standard_normal((R, 6)) + 1j * gen.standard_normal((R, 6))) \
        * gen.uniform(0.5, 2.0, (R, 1))             # off the unit sphere
    t, gam = gen.uniform(0.0, 1.0, R), np.exp(2j * np.pi * gen.uniform(size=R))
    forms = tangency._normalize_forms(
        tf.tangency_quadric_of(np.array([random_symmetric(gen) for _ in range(4 * R)])
                               ).reshape(R, 4, 6, 6))
    if family == "shared start":
        M0 = tangency._quadric_start()[0]
    elif family == "per-row start":
        M0 = tangency._normalize_forms(random_complex_forms(gen, (R, 4)))
    else:                                           # sphere targets, shared start
        M0 = tangency._quadric_start()[0]
        X = haar_matrices(4, 4 * R, gen)[:, :, 0] / np.cos(gen.uniform(0.1, 1.5, (4 * R, 1)))
        forms = tangency._normalize_forms(tf.tangency_quadric_of(
            np.eye(4) - X[:, :, None] * X[:, None, :]).reshape(R, 4, 6, 6))
    evaluate = functools.partial(homotopy._homotopy, M0, forms, gam)
    H, J, dH = evaluate(p, t)
    _, tangent, ok = homotopy._newton_steps(J, p, -H, -dH)
    scale = np.linalg.norm(p, axis=1, keepdims=True)
    _, J1, dH1 = evaluate(p / scale, t)
    k1, ok1 = homotopy._newton_steps(J1, p / scale, -dH1)
    assert ok.all() and ok1.all()
    error = np.linalg.norm(tangent / scale - k1, axis=1)
    assert (error <= 1e-12 * np.linalg.norm(k1, axis=1)).all(), error.max()


def counted_solves(monkeypatch):
    """The (rows, right-hand sides) of every bordered solve, in call order."""
    calls, solve = [], homotopy._newton_steps

    def counted(J, p, *rhs):
        calls.append((len(p), len(rhs)))
        return solve(J, p, *rhs)

    monkeypatch.setattr(homotopy, "_newton_steps", counted)
    return calls


def ellipsoid_forms():
    gen = tf.RngStream(12).generator()
    bodies = [random_ellipsoid(gen) for _ in range(4)]
    return target_systems(bodies, haar_matrices(4, 4, tf.RngStream(5).generator()))


def test_a_tracker_step_solves_until_its_corrector_converges(monkeypatch):
    # one solve per row at t = 0 seeds the first RK4 stage; then each loop pass
    # makes three predictor solves and one corrector solve, then at most
    # three more with the tangent as a second right-hand side, on the rows
    # that have not yet converged or failed
    start = tangency._quadric_start()
    calls = counted_solves(monkeypatch)
    sols = homotopy._solve_batch(ellipsoid_forms()[None], [tf.RngStream(6)], start)[0]
    assert sols.tracked == 32 and calls[0] == (32, 1)
    i, passes = 1, 0
    while i < len(calls):
        rows = calls[i][0]
        assert calls[i:i + 4] == [(rows, 1)] * 4
        i, passes = i + 4, passes + 1
        for _ in range(3):
            if i == len(calls) or calls[i][1] == 1:
                break
            assert calls[i][1] == 2 and calls[i][0] <= rows
            rows, i = calls[i][0], i + 1
    assert passes == sols.work.max_path_steps
    assert sols.work.solves == sum(rows for rows, _ in calls)
    assert any(columns == 2 for _, columns in calls)


def test_a_large_predictor_error_rejects_the_step_after_one_solve(monkeypatch):
    # with no predictor error allowed, each pass ends after its first
    # corrector solve, every step is rejected and the paths stall at t = 0
    start = tangency._quadric_start()
    monkeypatch.setattr(homotopy, "_MAX_PREDICTOR_ERROR", 0.0)
    calls = counted_solves(monkeypatch)
    result = homotopy._solve_batch(ellipsoid_forms()[None], [tf.RngStream(6)], start)[0]
    assert (result.tracked, result.singular, result.failed) == (0, 0, 32)
    assert all(columns == 1 for _, columns in calls)
    work = result.work
    assert work.rejected_steps == work.path_steps > 0
    assert work.solves == sum(rows for rows, _ in calls) == 32 + 4 * work.path_steps
    assert len(result.path_log) == 32
    assert all("stalled at t = 0.000000000000" in line for line in result.path_log)


def test_each_path_has_its_own_step_budget(monkeypatch):
    # three steps reach t = 0.1 + 0.15 + 0.225 at most, so every path stalls;
    # the cached start is solved before the budget shrinks
    start = tangency._quadric_start()
    monkeypatch.setattr(homotopy, "_MAX_STEPS", 3)
    forms = target_systems(main_theorem_spheres(),
                           haar_matrices(4, 4, tf.RngStream(5).generator()))
    result = homotopy._solve_batch(forms[None], [tf.RngStream(6)], start)[0]
    assert (result.tracked, result.singular, result.failed) == (0, 0, 32)
    assert (result.work.max_path_steps, result.work.path_steps) == (3, 3 * 32)
    assert len(result.path_log) == 32
    assert all("stalled at t = 0." in line for line in result.path_log)


@pytest.mark.parametrize("route", ["spheres", "quadrics"])
def test_a_path_that_ends_on_another_paths_endpoint_is_lost(route):
    # a start whose row 1 repeats row 0 tracks path 1 onto path 0's endpoint
    M0, starts = tangency._quadric_start()
    starts = starts.copy()
    starts[1] = starts[0]
    gen = tf.RngStream(34).generator()
    bodies = main_theorem_spheres() if route == "spheres" else \
        [random_ellipsoid(gen) for _ in range(4)]
    forms = target_systems(bodies, haar_matrices(4, 4, gen))
    result = homotopy._solve_batch(forms[None], [tf.RngStream(35)], (M0, starts))[0]
    assert (result.failed, result.paths) == (1, len(starts))
    assert result.path_log == ("path 1: jumped onto path 0's endpoint",)


def test_a_solve_that_loses_paths_on_every_retry_returns_its_last_log(monkeypatch):
    # three steps a path stall every path of every tracked attempt; the
    # retries start from the total degree, so the last attempt has 32 paths.
    # Sphere trials are all flagged here, so both their retries are tracked
    tangency._quadric_start()
    monkeypatch.setattr(homotopy, "_MAX_STEPS", 3)
    monkeypatch.setattr(tangency, "_MAX_NULL_RATIO", -1.0)
    attempts, solve_batch = [], homotopy._solve_batch
    monkeypatch.setattr(homotopy, "_solve_batch",
                        lambda *args, **kwargs: attempts.append(1) or solve_batch(*args, **kwargs))
    gen = tf.RngStream(36).generator()
    ellipsoids = [random_ellipsoid(gen) for _ in range(4)]
    gs = haar_matrices(4, 4, gen)[None]
    for solve, tracked in (
            (lambda: tf.solve_tangency_system(
                [moved_quadrics(ellipsoids, tf.RngStream(37))], [tf.RngStream(38)]),
             homotopy._RETRIES + 1),
            (lambda: tf.count_real_tangent_lines(ellipsoids, gs, [tf.RngStream(39)]),
             homotopy._RETRIES + 1),
            (lambda: tf.count_real_tangent_lines(main_theorem_spheres(), gs,
                                                 [tf.RngStream(39)]), homotopy._RETRIES)):
        [result] = solve()
        assert len(attempts) == tracked
        attempts.clear()
        assert (result.failed, result.paths) == (32, 32)
        assert result.work.retries == homotopy._RETRIES
        assert [line.split(":")[0] for line in result.path_log] == \
            [f"path {i}" for i in range(32)]
        assert all("stalled at t = 0." in line for line in result.path_log)


@st.composite
def forms_and_rows(draw):
    """Forms (R, 5, 6, 6) real or complex, or shared (5, 6, 6), rows p (R, 6)
    and a sub-batch of row indices."""
    R = draw(st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["real", "complex", "shared"]))
    M = random_complex_forms(gen, (5,) if kind == "shared" else (R, 5))
    M = M.real.copy() if kind == "real" else M
    p = gen.standard_normal((R, 6)) + 1j * gen.standard_normal((R, 6))
    rows = draw(st.lists(st.integers(0, R - 1), min_size=1, max_size=R))
    return M, p, rows


@settings(max_examples=100, deadline=None)
@given(forms_and_rows())
def test_products_of_real_complex_and_shared_forms(case):
    M, p, rows = case
    Y = homotopy._products(M, p)
    flat = np.broadcast_to(M, (len(p), 5, 6, 6)).reshape(len(p), 30, 6)
    reference = np.einsum("rkj,rj->rk", flat, p).reshape(-1, 5, 6)
    scale = np.einsum("rkj,rj->rk", np.abs(flat), np.abs(p)).reshape(-1, 5, 6)
    assert Y.shape == (len(p), 5, 6) and Y.dtype == complex
    assert (np.abs(Y - reference) <= 1e-14 * scale).all()
    # no row depends on the batch it is in
    sub = homotopy._products(M if M.ndim == 3 else M[rows], p[rows])
    assert np.array_equal(sub, Y[rows])


def scalar_classify(Ms, sol):
    """The reality test of one endpoint with lstsq Newton steps, as it ran
    before classification was batched: the reference for _classify."""
    m = np.argmax(np.abs(sol))
    aligned = sol * (sol[m].conj() / abs(sol[m]))
    ratio = np.linalg.norm(aligned.imag) / np.linalg.norm(aligned.real)
    if ratio >= homotopy._BORDERLINE_RATIO:
        return None, False, False, False
    x = aligned.real / np.linalg.norm(aligned.real)
    for _ in range(8):
        J = 2.0 * np.einsum('sij,j->si', Ms, x)
        r = np.concatenate([-np.einsum('i,sij,j->s', x, Ms, x), [0.0]])
        x = x + np.linalg.lstsq(np.vstack([J, x[None, :]]), r, rcond=1e-12)[0]
        x = x / np.linalg.norm(x)
    real = (ratio < homotopy._REAL_RATIO and np.abs(
        np.einsum('i,sij,j->s', x, Ms, x)).max() < homotopy._RESIDUAL_TOL)
    Jb = np.vstack([2.0 * np.einsum('sij,j->si', Ms, x), x[None, :]])
    sv = np.linalg.svd(Jb, compute_uv=False)
    return x, real, not real, real and sv[-1] < 1e-7 * sv[0]


def test_batched_classification_matches_the_scalar_reference():
    bodies = [tf.metric_sphere(3, 0.5), tf.ellipsoid(3, [0.7, 1.3, 1.1]),
              tf.ellipsoid(3, [1.6, 0.8, 0.9]),
              tf.affine_sphere(3, [0.1, 0.2, 0.0], 0.6)]
    gs = np.array([haar_matrices(4, 4, tf.RngStream(41, k).generator())
                   for k in range(4)])
    forms = target_systems(bodies, gs)
    gen = tf.RngStream(42).generator()
    Ms, points = [], []
    for M, sols in zip(forms, homotopy._solve_batch(forms, [
            tf.RngStream(43, k) for k in range(4)], tangency._quadric_start())):
        # the endpoints, and real solutions given a phase and an imaginary
        # part that makes them real, borderline, or not candidates at all
        noisy = [x * np.exp(2j * np.pi * gen.uniform())
                 + 1j * eps * gen.standard_normal(6) / np.sqrt(6)
                 for x in sols.real_solutions for eps in (1e-8, 1e-5, 1e-3)]
        points += [*sols.solutions, *noisy]
        Ms += [M] * (len(sols.solutions) + len(noisy))
    Ms, points = np.array(Ms), np.array(points)
    polished, *masks = homotopy._classify(Ms, points, np.ones(len(points), bool))
    assert masks[0].sum() > 0 and masks[1].sum() > 0
    for row in range(len(points)):
        x, *flags = scalar_classify(Ms[row], points[row])
        assert [mask[row] for mask in masks] == flags, row
        if flags[0]:
            assert np.abs(polished[row] - x).max() < 1e-12


def test_quadric_start_data():
    G, starts = tangency._quadric_start()
    assert G.shape == (5, 6, 6) and starts.shape == (32, 6)
    assert not G.flags.writeable and not starts.flags.writeable
    assert np.array_equal(G[:4], G[:4].transpose(0, 2, 1))
    F, J = homotopy._target(np.broadcast_to(G, (32, 5, 6, 6)), starts)
    assert np.abs(F).max() < 1e-12
    sv = np.linalg.svd(homotopy._bordered(J, starts), compute_uv=False)
    assert (sv[:, -1] > 1e-7 * sv[:, 0]).all()
    again = tangency._quadric_start.__wrapped__()
    assert np.array_equal(again[0], G) and np.array_equal(again[1], starts)


def moved_systems(bodies, seed, trials):
    """Tangency forms (trials, 4, 6, 6) of the bodies moved by the rotations
    of RngStream(seed, trial), and the streams that tau gives those trials."""
    streams = [tf.RngStream(seed, trial) for trial in range(trials)]
    return (np.array([moved_quadrics(bodies, stream) for stream in streams]),
            [stream.substream(1 << 32) for stream in streams])


def sphere_route(bodies, seed, trials):
    """The eigenvalue route, with its retries, on the draws of moved_systems."""
    gs = np.array([haar_matrices(4, 4, tf.RngStream(seed, trial).generator())
                   for trial in range(trials)])
    return tf.count_real_tangent_lines(bodies, gs, moved_systems(bodies, seed, trials)[1])


def test_main_theorem_spheres_have_twelve_isolated_solutions():
    # four spheres have at most 12 common tangent lines (Macdonald, Pach and
    # Theobald); the other 20 paths stall on the excess component at infinity
    quadrics, rngs = moved_systems(main_theorem_spheres(), 21, 12)
    for sols, spheres in zip(tf.solve_tangency_system(quadrics, rngs),
                             sphere_route(main_theorem_spheres(), 21, 12)):
        assert (sols.tracked, sols.singular, sols.failed) == (12, 20, 0)
        assert sols.real_count <= 12
        # the eigenvalue route finds the 12 isolated solutions alone, untracked
        assert (spheres.tracked, spheres.singular, spheres.failed) == (12, 0, 0)
        assert spheres.work.path_steps == 0
        assert spheres.real_count == sols.real_count


@pytest.mark.parametrize("radii", [(0.1,) * 4, (1.2, 1.3, 1.4, 1.5), (0.1, 1.5, 0.1, 1.3)],
                         ids=["small", "near-pi/2", "mixed"])
def test_sphere_route_matches_the_32_path_route_at_extreme_radii(radii):
    # the eigenvalue route and the 32-path solve count the same real lines,
    # beyond the main theorem's radii too
    bodies = [tf.metric_sphere(3, r) for r in radii]
    quadrics, rngs = moved_systems(bodies, 22, 4)
    for sols, spheres in zip(tf.solve_tangency_system(quadrics, rngs),
                             sphere_route(bodies, 22, 4)):
        assert (spheres.tracked, spheres.singular, spheres.failed) == (12, 0, 0)
        assert sols.tracked == 12 and not sols.degenerate and not spheres.degenerate
        assert spheres.work.path_steps == 0
        assert spheres.real_count == sols.real_count


def test_sphere_draws_track_every_path_from_the_generic_start():
    # on the 32-path route from the cached generic start, every draw tracks
    # its 12 isolated solutions and stalls 20 paths on the excess component
    # inside the endgame window on the first attempt (draws 3 and 11 lost
    # paths just outside it with a fixed three-step corrector)
    quadrics, rngs = moved_systems(main_theorem_spheres(), 21, 12)
    firsts = homotopy._solve_batch(tangency._normalize_forms(quadrics),
                                   [rng.substream(0) for rng in rngs], tangency._quadric_start())
    for trial, first in enumerate(firsts):
        assert (first.tracked, first.singular, first.failed) == (12, 20, 0), trial
    # solve_tangency_system's counts, with no retry
    assert [first.real_count for first in firsts] == [0, 4, 4, 4, 4, 4, 6, 4, 8, 4, 8, 4]


def test_criterion_3_trial_260_has_four_real_lines():
    # the 32-path tracker with an Euler predictor lost paths on this draw of
    # the equal-radii run on every retry; both routes now count 4
    bodies = [tf.metric_sphere(3, np.pi / 4)] * 4
    assert tangency._count_chunk((bodies, 20240801, [260]))[:4] == ([4], 0, 0, [])
    stream = tf.RngStream(20240801, 260)
    sols = tf.solve_tangency_system([moved_quadrics(bodies, stream)],
                                    [stream.substream(1 << 32)])[0]
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
    counts, discarded, lost, log, *_ = tangency._count_chunk((bodies, 777, range(24)))
    assert counts == [0, 2, 6, 4, 2, 4, 0, 2, 4, 4, 2, 4,
                      6, 2, 4, 4, 2, 4, 4, 0, 2, 4, 4, 4]
    assert (discarded, lost, log) == (0, 0, [])


def test_sphere_counts_match_recorded_values():
    # the sphere route; recorded when it tracked 12 paths with an evaluator
    # of its own
    counts, discarded, lost, log, *_ = tangency._count_chunk(
        (main_theorem_spheres(), 777, range(24)))
    assert counts == [8, 4, 2, 0, 4, 4, 0, 4, 4, 4, 2, 4,
                      6, 4, 2, 4, 4, 2, 2, 0, 4, 0, 4, 4]
    assert (discarded, lost, log) == (0, 0, [])


def test_ellipsoid_counts_match_recorded_values():
    # recorded when every general trial started from a total-degree system
    gen = tf.RngStream(12).generator()
    bodies = [random_ellipsoid(gen) for _ in range(4)]
    counts, discarded, lost, log, *_ = tangency._count_chunk((bodies, 888, range(24)))
    assert counts == [6, 6, 4, 6, 4, 4, 2, 8, 12, 8, 6, 6,
                      2, 4, 8, 4, 4, 6, 4, 2, 6, 4, 6, 4]
    assert (discarded, lost, log) == (0, 0, [])


def test_tau_shrinking_radius_kills_tangents():
    means = []
    for r in (0.3, 0.1, 0.03):
        bodies = [tf.metric_sphere(3, np.pi / 4)] * 3 + [tf.affine_sphere(3, [0.0, 0.0, 0.0], r)]
        est = tf.average_tangent_count_empirical(bodies, trials=12, seed=77)
        means.append(est.mean)
    assert means[0] > means[2]
    assert means[2] < 1.0
