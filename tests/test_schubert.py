import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tangentflats as tf
from tangentflats.projective import (PLUCKER_PAIRING, haar_matrices, lines_to_plucker,
                                     uniform_flat_frames, uniform_lines)
from tangentflats.schubert import _count_batch, _delta13_batch, _det4


def line_through(p, q):
    """Pluecker vector of the line through two points of RP^3."""
    frame, _ = np.linalg.qr(np.column_stack([p, q]))
    return lines_to_plucker(frame.T[None, :, :])[0]


def qr_count_batch(plucker, tol=1e-10):
    """Reference counter: an orthonormal basis u, v of the kernel of the
    incidence system from a complete QR, and the discriminant of the
    Pluecker quadric restricted to span(u, v) in that basis."""
    M = plucker @ PLUCKER_PAIRING
    q, r = np.linalg.qr(M.transpose(0, 2, 1), mode="complete")
    diag = np.abs(np.einsum('bii->bi', r[:, :4, :]))
    degenerate = diag.min(axis=1) < 1e-8 * diag.max(axis=1)
    u = q[:, :, 4]
    v = q[:, :, 5]
    uP = u @ PLUCKER_PAIRING
    quu = 0.5 * np.einsum('bi,bi->b', uP, u)
    qvv = 0.5 * np.einsum('bi,bi->b', v @ PLUCKER_PAIRING, v)
    quv = np.einsum('bi,bi->b', uP, v)
    disc = quv ** 2 - 4.0 * quu * qvv
    scale = quv ** 2 + 4.0 * np.abs(quu * qvv) + 1e-300
    degenerate |= np.maximum(np.abs(quv), np.maximum(np.abs(quu), np.abs(qvv))) < 1e-12
    counts = np.where(disc > tol * scale, 2, 0)
    counts = np.where(np.abs(disc) <= tol * scale, 1, counts)
    counts = np.where(degenerate, -1, counts)
    return counts, degenerate, disc


def ruling_line(a, b):
    """Line of one ruling of the quadric x0 x3 = x1 x2: b x0 = a x1 and
    b x2 = a x3."""
    return line_through(np.array([a, b, 0.0, 0.0]), np.array([0.0, 0.0, a, b]))


def delta_lines(seed, batch, size=4096):
    """The (4, 6, size) draws of one `delta` batch: e0 ^ e1 and three uniform lines."""
    lines = np.zeros((4, 6, size))
    lines[0, 0] = 1.0
    uniform_lines(3, size, tf.RngStream(seed, batch).generator(), out=lines[1:])
    return lines


def test_closed_form_matches_qr_reference():
    # the 200,704 draws of `delta 1 3 --samples 200704 --seed 0`, and 8 batches
    # of four uniform lines
    worst = 0.0
    stacks = [delta_lines(0, batch) for batch in range(49)]
    stacks += [uniform_lines(4, 4096, tf.RngStream(1, batch).generator()) for batch in range(8)]
    for batch, lines in enumerate(stacks):
        counts, degenerate, disc, cond = _count_batch(lines)
        ref_counts, ref_degenerate, ref_disc = qr_count_batch(lines.transpose(2, 0, 1))
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(degenerate, ref_degenerate)
        assert ((0.0 <= cond) & (cond <= 1.0 + 1e-12)).all()
        worst = max(worst, np.abs(disc - ref_disc).max())
        if batch < 49:          # these are the draws `delta` counts
            ok = counts[~degenerate]
            assert _delta13_batch(0, batch, 4096) == (
                ok.sum(), (ok ** 2).sum(), ok.size, degenerate.sum())
    assert worst < 1e-12


def test_rotating_the_first_line_to_e0_e1_keeps_every_count():
    # why a `delta` draw may fix its first line: the rotation g = q^T, from a
    # complete QR of l_1's frame, takes l_1 to +-e0 ^ e1, and the count of
    # (e0 ^ e1, g l_2, g l_3, g l_4) is the count of the four lines
    frames = tf.RngStream(41).generator().standard_normal((20_000, 4, 2, 4))
    lines = lines_to_plucker(frames)
    lines /= np.linalg.norm(lines, axis=-1, keepdims=True)
    q, _ = np.linalg.qr(frames[:, 0].transpose(0, 2, 1), mode="complete")
    q[:, :, 3] *= np.linalg.det(q)[:, None]               # det q = 1
    moved = lines @ tf.second_compound(q)          # rows g l = C2(q^T) l = C2(q)^T l
    assert np.abs(np.abs(moved[:, 0, 0]) - 1.0).max() < 1e-12
    moved[:, 0] = np.eye(6)[0]
    counts, _, disc, _ = _count_batch(lines.transpose(1, 2, 0))
    moved_counts, _, _, _ = _count_batch(moved.transpose(1, 2, 0))
    sure = np.abs(disc) > 1e-9
    assert sure.sum() > 19_000 and np.isin(counts[sure], (0, 2)).all()
    assert np.array_equal(counts[sure], moved_counts[sure])


# seeds of the two samples below, fixed here and used nowhere else
FIXED_LINE_SEED, FOUR_LINE_SEED = 19, 23


def test_fixed_first_line_has_the_count_law_of_four_uniform_lines():
    # 163,840 `delta` draws against as many draws of four independent lines
    four = []
    for batch in range(40):
        counts, degenerate, _, _ = _count_batch(
            uniform_lines(4, 4096, tf.RngStream(FOUR_LINE_SEED, batch).generator()))
        ok = counts[~degenerate]
        four.append((ok.sum(), (ok ** 2).sum(), ok.size))
    fixed = [_delta13_batch(FIXED_LINE_SEED, batch, 4096)[:3] for batch in range(40)]
    moments = []
    for parts in (fixed, four):
        total, total_sq, kept = map(sum, zip(*parts))
        assert kept > 163_800
        moments.append((total / kept, (total_sq / kept - (total / kept) ** 2) / kept))
    (mean_fixed, var_fixed), (mean_four, var_four) = moments
    assert abs(mean_fixed - mean_four) <= 5.0 * np.sqrt(var_fixed + var_four)


def test_meet_form_examples():
    # two coordinate-axis lines sharing the point e0
    l1 = line_through(np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    l2 = line_through(np.array([1.0, 0, 0, 0]), np.array([0, 0, 1.0, 0]))
    assert abs(tf.line_meet_form(l1, l2)) < 1e-14
    # skew coordinate lines pair to +-1 after unit normalization
    l3 = line_through(np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0]))
    l4 = line_through(np.array([0, 0, 1.0, 0]), np.array([0, 0, 0, 1.0]))
    assert abs(tf.line_meet_form(l3, l4)) == pytest.approx(1.0, abs=1e-14)


def test_meet_form_vanishes_on_self():
    gen = tf.RngStream(1).generator()
    for fr in uniform_flat_frames(1, 3, 50, gen):
        p = lines_to_plucker(fr[None])[0]
        assert abs(tf.line_meet_form(p, p)) < 1e-12


def test_constructed_transversal_is_found():
    # build a line meeting three random lines: pick a point on l1 and
    # intersect the planes spanned with l2 and l3
    gen = tf.RngStream(2).generator()
    for _ in range(10):
        frames = uniform_flat_frames(1, 3, 3, gen)
        x = frames[0][0]                      # point on l1
        # plane through x and l2: orthogonal complement of its normal
        def plane_normal(line_frame, point):
            span = np.vstack([line_frame, point])
            # normal = null space of span
            _, _, vh = np.linalg.svd(span)
            return vh[-1]
        n2 = plane_normal(frames[1], x)
        n3 = plane_normal(frames[2], x)
        # transversal = intersection of the two planes
        _, _, vh = np.linalg.svd(np.vstack([n2, n3]))
        basis = vh[2:]                        # 2-dim kernel: the line
        q, _ = np.linalg.qr(basis.T)
        trans = lines_to_plucker(q.T[None])[0]
        lines = [lines_to_plucker(f[None])[0] for f in frames]
        for l in lines:
            assert abs(tf.line_meet_form(trans, l)) < 1e-10
        count = tf.count_line_transversals(lines[0], lines[1], lines[2], trans)
        assert count.degenerate or count.count >= 1


def test_regulus_is_degenerate():
    # four lines from one ruling of the quadric x0 x3 = x1 x2 share a whole
    # regulus of transversals, so the incidence system loses rank
    lines = [ruling_line(1.0, 0.3), ruling_line(1.0, -0.7),
             ruling_line(0.4, 1.0), ruling_line(1.0, 2.0)]
    out = tf.count_line_transversals(*lines)
    assert out.degenerate
    assert out.condition < 1e-8


def test_tangent_line_gives_one_transversal():
    # the transversals of three lines of one ruling are the other ruling; a
    # fourth line in the tangent plane at p = (1, 1, 1, 1), through p and off
    # the quadric, meets the quadric only at p, so it meets exactly one of
    # them, the line of the other ruling through p, as a double root
    lines = [ruling_line(1.0, 0.3), ruling_line(1.0, -0.7), ruling_line(0.4, 1.0)]
    p, r = np.array([1.0, 1.0, 1.0, 1.0]), np.array([1.0, 0.0, 0.0, -1.0])
    assert r @ np.array([1.0, -1.0, -1.0, 1.0]) == 0.0    # r is in the tangent plane
    assert r[0] * r[3] != r[1] * r[2]                     # and off the quadric
    out = tf.count_line_transversals(*lines, line_through(p, r))
    assert out.count == 1
    assert abs(out.discriminant) < 1e-14
    assert out.condition > 1e-2
    ref_counts, ref_degenerate, _ = qr_count_batch(
        np.array([*lines, line_through(p, r)])[None])
    assert (ref_counts[0], ref_degenerate[0]) == (1, False)


def test_pencil_is_degenerate():
    # two lines through p = e0, spanning the plane x2 = 0, and two lines in
    # the plane x3 = 0 that meet at e1 + e2, off the first plane: the
    # transversals are the pencil of lines through p in x3 = 0, a line of P^5
    # on the Pluecker quadric, so the incidence system keeps full rank but
    # the restricted form vanishes
    e = np.eye(4)
    lines = [line_through(e[0], e[3]), line_through(e[0], e[1] + e[3]),
             line_through(e[1], e[2]), line_through(e[1] + e[0], e[2] - e[0])]
    out = tf.count_line_transversals(*lines)
    assert out.degenerate
    assert out.condition > 1e-2
    assert qr_count_batch(np.array(lines)[None])[1][0]


def test_rotated_pencil_and_tangent_line_keep_their_counts():
    # the pencil and tangent-line configurations of the two tests above, moved
    # off the coordinate axes: a pairing matrix of rank 2 stays degenerate and
    # one of rank 3 stays a single transversal; so do four dependent lines, a
    # regulus and four lines through one point, whose det D is a rounding residue
    e, p = np.eye(4), np.array([1.0, 1.0, 1.0, 1.0])
    pencil = np.array([line_through(e[0], e[3]), line_through(e[0], e[1] + e[3]),
                       line_through(e[1], e[2]), line_through(e[1] + e[0], e[2] - e[0])])
    tangent = np.array([ruling_line(1.0, 0.3), ruling_line(1.0, -0.7),
                        ruling_line(0.4, 1.0), line_through(p, np.array([1.0, 0, 0, -1.0]))])
    regulus = np.array([ruling_line(1.0, 0.3), ruling_line(1.0, -0.7),
                        ruling_line(0.4, 1.0), ruling_line(1.0, 2.0)])
    concurrent = np.array([line_through(e[0], q) for q in (*e[1:], e[1] + 2 * e[2] - e[3])])
    for g in haar_matrices(4, 20, tf.RngStream(6).generator()):
        moved = tf.second_compound(g).T                  # l -> g l on Pluecker vectors
        assert tf.count_line_transversals(*pencil @ moved).degenerate
        assert tf.count_line_transversals(*tangent @ moved).count == 1
    moved = tf.second_compound(haar_matrices(4, 1000, tf.RngStream(7).generator()))
    for lines in (regulus, concurrent):
        moved_lines = (lines @ moved.transpose(0, 2, 1)).transpose(1, 2, 0)
        _, degenerate, _, cond = _count_batch(moved_lines)
        assert degenerate.all() and (cond < 1e-8).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(-60, 60))
def test_det4_matches_numpy_det(seed, symmetric, exponent):
    # relative to Hadamard's bound prod_i |row_i|, which both errors scale with
    A = np.ldexp(tf.RngStream(seed).generator().standard_normal((64, 4, 4)), exponent)
    if symmetric:
        A = A + A.transpose(0, 2, 1)
    bound = np.prod(np.linalg.norm(A, axis=2), axis=1)
    assert (np.abs(_det4(A.transpose(1, 2, 0)) - np.linalg.det(A)) <= 1e-12 * bound).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
       st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
def test_count_is_invariant_under_signs_scales_and_rotations(seed, signs, scales):
    gen = tf.RngStream(seed).generator()
    lines = uniform_lines(4, 1, gen)[:, :, 0]
    g = haar_matrices(4, 1, gen)[0]
    base = tf.count_line_transversals(*lines)
    assume(not base.degenerate and abs(base.discriminant) > 1e-6)
    moved = np.array(signs)[:, None] * np.array(scales)[:, None] * lines
    assert tf.count_line_transversals(*moved).count == base.count
    rotated = lines @ tf.second_compound(g).T            # the lines g l
    assert tf.count_line_transversals(*rotated).count == base.count


def test_counts_are_even_and_rotation_invariant():
    gen = tf.RngStream(3).generator()
    frames = uniform_flat_frames(1, 3, 4 * 1000, gen).reshape(1000, 4, 2, 4)
    plucker = lines_to_plucker(frames)
    plucker /= np.linalg.norm(plucker, axis=-1, keepdims=True)
    counts, degenerate, _, _ = _count_batch(plucker.transpose(1, 2, 0))
    ok = counts[~degenerate]
    assert degenerate.sum() < 5
    assert np.isin(ok, (0, 2)).all()          # no tangency at this tolerance

    # pre-rotating all four lines by a common rotation preserves each count
    g = haar_matrices(4, 1, tf.RngStream(4).generator())[0]
    rotated = np.einsum('ij,bckj->bcki', g, frames)
    pl2 = lines_to_plucker(rotated)
    pl2 /= np.linalg.norm(pl2, axis=-1, keepdims=True)
    counts2, deg2, _, _ = _count_batch(pl2.transpose(1, 2, 0))
    both = ~degenerate & ~deg2
    assert np.array_equal(counts[both], counts2[both])


def test_estimate_deterministic_and_seed_sensitive():
    e1 = tf.estimate_expected_degree(1, 3, 20_000, seed=5)
    e2 = tf.estimate_expected_degree(1, 3, 20_000, seed=5)
    e3 = tf.estimate_expected_degree(1, 3, 20_000, seed=6)
    assert e1 == e2
    assert e1.mean != e3.mean


def test_estimate_workers_equivalence():
    e1 = tf.estimate_expected_degree(1, 3, 12_000, seed=9, workers=1)
    e2 = tf.estimate_expected_degree(1, 3, 12_000, seed=9, workers=2)
    assert e1 == e2


def test_estimate_unsupported_indices():
    with pytest.raises(tf.UnsupportedIndicesError) as err:
        tf.estimate_expected_degree(2, 4, 100, seed=0)
    assert "scope" in str(err.value)


def test_estimate_value_and_variance_band():
    est = tf.estimate_expected_degree(1, 3, 100_000, seed=11)
    assert abs(est.mean - tf.EXPECTED_DEGREE_LINES_RP3) < 5 * est.stderr
    # per-draw variance: counts in {0, 2} with mean ~1.73 force ~0.47
    var = est.stderr ** 2 * est.samples
    assert 0.4 <= var <= 1.2


def test_estimate_stderr_scaling():
    e_small = tf.estimate_expected_degree(1, 3, 10_000, seed=13)
    e_large = tf.estimate_expected_degree(1, 3, 1_000_000, seed=13)
    ratio = e_small.stderr / e_large.stderr
    assert 8.0 < ratio < 12.5                 # ideal sqrt(100) = 10
