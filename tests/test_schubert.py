import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import tangentflats as tf
from tangentflats.projective import (PLUCKER_PAIRING, haar_matrices, lines_to_plucker,
                                     plucker_index_pairs, uniform_flat_frames)
from tangentflats.schubert import AB_FROM_PLUCKER, _count_batch, _delta13_batch, _hollow_det


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


def uniform_ab(count, size, gen):
    """count uniform lines per draw as unit (a, b) pairs held draw-last,
    (count, 2, 3, size): normalized gen.standard_normal((count, 2, 3, size))."""
    z = gen.standard_normal((count, 2, 3, size))
    return z / np.linalg.norm(z, axis=2, keepdims=True)


def plucker_to_ab(plucker):
    """(a, b) pairs (..., 2, 3) of Pluecker vectors (..., 6)."""
    return (plucker @ AB_FROM_PLUCKER.T).reshape(*plucker.shape[:-1], 2, 3)


def ab_to_plucker(lines):
    """Unit Pluecker vectors (B, 4, 6) of a (4, 2, 3, B) stack of (a, b) pairs."""
    return np.einsum('ij,ljb->bli', AB_FROM_PLUCKER.T, lines.reshape(4, 6, -1)) / 2


def delta_lines(seed, batch, size=4096):
    """The (4, 2, 3, size) draws of one `delta` batch, rebuilt from its stream:
    (e1, e1), line 2 in normal form from two uniforms and two uniform lines."""
    gen = tf.RngStream(seed, batch).generator()
    c = gen.uniform(-1.0, 1.0, (2, size))
    line2 = np.stack([c, np.sqrt(1.0 - c ** 2), np.zeros_like(c)], axis=1)
    line1 = np.broadcast_to(np.eye(3)[0][None, :, None], (2, 3, size))
    return np.concatenate([np.stack([line1, line2]), uniform_ab(2, size, gen)])


def test_closed_form_matches_qr_reference():
    # the 200,704 draws of `delta 1 3 --samples 200704 --seed 0`, and 8 batches
    # of four uniform lines
    worst = 0.0
    stacks = [delta_lines(0, batch) for batch in range(49)]
    stacks += [uniform_ab(4, 4096, tf.RngStream(1, batch).generator()) for batch in range(8)]
    for batch, lines in enumerate(stacks):
        counts, degenerate, disc, cond = _count_batch(lines)
        ref_counts, ref_degenerate, ref_disc = qr_count_batch(ab_to_plucker(lines))
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(degenerate, ref_degenerate)
        assert ((0.0 <= cond) & (cond <= 1.0 + 1e-12)).all()
        worst = max(worst, np.abs(disc - ref_disc).max())
        plucker = ab_to_plucker(lines)                  # cond = sqrt(det D)
        assert np.abs(cond - np.sqrt(np.abs(np.linalg.det(
            plucker @ plucker.transpose(0, 2, 1))))).max() < 1e-12
        if batch < 49:          # these are the draws `delta` counts
            ok = counts[~degenerate]
            svd = (cond < 1e-2) | (np.abs(disc) <= 1e-10)
            assert _delta13_batch(0, batch, 4096) == (
                ok.sum(), (ok ** 2).sum(), ok.size, degenerate.sum(),
                (counts == 1).sum(), svd.sum(), cond.min())
    assert worst < 1e-12


def test_plucker_to_ab_is_an_isometry_up_to_sqrt_2():
    # AB_FROM_PLUCKER / sqrt(2) is orthogonal and takes PLUCKER_PAIRING to
    # diag(I3, -I3) / 2 on (a, b), so a unit line has |a| = |b| = 1
    assert np.array_equal(AB_FROM_PLUCKER @ AB_FROM_PLUCKER.T, 2.0 * np.eye(6))
    pairing = AB_FROM_PLUCKER @ PLUCKER_PAIRING @ AB_FROM_PLUCKER.T / 4
    assert np.array_equal(pairing, np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]) / 2)
    lines = lines_to_plucker(uniform_flat_frames(1, 3, 1000, tf.RngStream(42).generator()))
    ab = plucker_to_ab(lines)
    assert ab.shape == (1000, 2, 3)
    assert np.abs(np.linalg.norm(ab, axis=2) - 1.0).max() < 1e-12
    assert np.abs(ab.reshape(-1, 6) @ AB_FROM_PLUCKER / 2 - lines).max() < 1e-15
    assert np.array_equal(plucker_to_ab(np.eye(6)[0]), [np.eye(3)[0]] * 2)   # e0 ^ e1


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
    counts, _, disc, _ = _count_batch(plucker_to_ab(lines).transpose(1, 2, 3, 0))
    moved_counts, _, _, _ = _count_batch(plucker_to_ab(moved).transpose(1, 2, 3, 0))
    sure = np.abs(disc) > 1e-9
    assert sure.sum() > 19_000 and np.isin(counts[sure], (0, 2)).all()
    assert np.array_equal(counts[sure], moved_counts[sure])


def test_rotating_the_second_line_to_normal_form_keeps_every_count():
    # why a `delta` draw may put its second line in normal form: rotations
    # (R_a, R_b) in SO(3) x SO(3) whose first two rows are Gram-Schmidt frames
    # of (a_1, a_2) and of (b_1, b_2) take line 1 to (e1, e1) and line 2 to
    # ((c1, sqrt(1 - c1^2), 0), (c2, sqrt(1 - c2^2), 0)), c = a_1.a_2, b_1.b_2,
    # and c is uniform on [-1, 1] (Archimedes), as the sampler draws it
    lines = uniform_ab(4, 20_000, tf.RngStream(43).generator())
    first, second = lines[0], lines[1]                         # (2, 3, B)
    cos = np.einsum('skb,skb->sb', first, second)
    bins, _ = np.histogram(cos, bins=10, range=(-1.0, 1.0))   # 4,000 +- 60 each
    assert np.abs(bins - 4000).max() < 300
    ortho = second - cos[:, None] * first
    ortho /= np.linalg.norm(ortho, axis=1, keepdims=True)
    frames = np.stack([first, ortho, np.cross(first, ortho, axis=1)], axis=1)
    assert np.abs(np.linalg.det(frames.transpose(0, 3, 1, 2)) - 1.0).max() < 1e-12
    moved = np.einsum('srkb,lskb->lsrb', frames, lines)        # R_s applied to each line
    normal = np.stack([cos, np.sqrt(1.0 - cos ** 2), np.zeros_like(cos)], axis=1)
    assert np.abs(moved[0] - np.eye(3)[0][None, :, None]).max() < 1e-12
    assert np.abs(moved[1] - normal).max() < 1e-12
    moved[0], moved[1] = np.eye(3)[0][None, :, None], normal
    counts, _, disc, _ = _count_batch(lines)
    moved_counts, _, _, _ = _count_batch(moved)
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
            uniform_ab(4, 4096, tf.RngStream(FOUR_LINE_SEED, batch).generator()))
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
        moved_lines = plucker_to_ab(lines @ moved.transpose(0, 2, 1))
        _, degenerate, _, cond = _count_batch(moved_lines.transpose(1, 2, 3, 0))
        assert degenerate.all() and (cond < 1e-8).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(-60, 60))
def test_hollow_det_matches_numpy_det(seed, exponent):
    # relative to Hadamard's bound prod_i |row_i|, which both errors scale with
    m = np.ldexp(tf.RngStream(seed).generator().standard_normal((6, 64)), exponent)
    M = np.zeros((64, 4, 4))
    for k, (i, j) in enumerate(plucker_index_pairs(4, 2)):
        M[:, i, j] = M[:, j, i] = m[k]
    bound = np.prod(np.linalg.norm(M, axis=2), axis=1)
    assert (np.abs(_hollow_det(m) - np.linalg.det(M)) <= 1e-12 * bound).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from((-1.0, 1.0)), min_size=4, max_size=4),
       st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=4))
def test_count_is_invariant_under_signs_scales_and_rotations(seed, signs, scales):
    gen = tf.RngStream(seed).generator()
    lines = ab_to_plucker(uniform_ab(4, 1, gen))[0]
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
    counts, degenerate, _, _ = _count_batch(plucker_to_ab(plucker).transpose(1, 2, 3, 0))
    ok = counts[~degenerate]
    assert degenerate.sum() < 5
    assert np.isin(ok, (0, 2)).all()          # no tangency at this tolerance

    # pre-rotating all four lines by a common rotation preserves each count
    g = haar_matrices(4, 1, tf.RngStream(4).generator())[0]
    rotated = np.einsum('ij,bckj->bcki', g, frames)
    pl2 = lines_to_plucker(rotated)
    pl2 /= np.linalg.norm(pl2, axis=-1, keepdims=True)
    counts2, deg2, _, _ = _count_batch(plucker_to_ab(pl2).transpose(1, 2, 3, 0))
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
