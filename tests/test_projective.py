import itertools

import numpy as np
import pytest

import tangentflats as tf
from tangentflats.projective import (haar_matrices, lines_to_plucker, plucker_index_pairs,
                                     uniform_flat_frames)


def plucker_embed(frames):
    """Pluecker coordinates of flats from their frames (..., k+1, n+1): the
    maximal minors over the lexicographic column subsets, (..., C(n+1, k+1)).
    The reference construction that lines_to_plucker is checked against."""
    frames = np.asarray(frames, dtype=float)
    k_plus_1, n_plus_1 = frames.shape[-2:]
    return np.stack([np.linalg.det(frames[..., list(cols)])
                     for cols in plucker_index_pairs(n_plus_1, k_plus_1)], axis=-1)


def projector(frame):
    return frame.T @ frame


def test_coordinate_flat_plucker():
    p = plucker_embed(np.eye(2, 4))
    expect = np.zeros(6)
    expect[0] = 1.0
    assert np.allclose(p, expect, atol=1e-14)


def test_plucker_relation_random_frames():
    gen = tf.RngStream(1).generator()
    frames = uniform_flat_frames(1, 3, 100, gen)
    for fr in frames:
        p = plucker_embed(fr)
        rel = p[0] * p[5] - p[1] * p[4] + p[2] * p[3]
        assert abs(rel) < 1e-10
        assert abs(np.linalg.norm(p) - 1.0) < 1e-12


def test_plucker_invariant_under_in_plane_rotation():
    gen = tf.RngStream(2).generator()
    for _ in range(100):
        fr = uniform_flat_frames(1, 3, 1, gen)[0]
        ang = gen.uniform(0, 2 * np.pi)
        rot = np.array([[np.cos(ang), np.sin(ang)], [-np.sin(ang), np.cos(ang)]])
        assert np.abs(projector(fr) - projector(rot @ fr)).max() < 1e-9
        assert np.allclose(plucker_embed(fr), plucker_embed(rot @ fr),
                           atol=1e-10)


def test_haar_rotation_deterministic():
    g1 = haar_matrices(4, 1, tf.RngStream(7, 5).generator())[0]
    g2 = haar_matrices(4, 1, tf.RngStream(7, 5).generator())[0]
    g3 = haar_matrices(4, 1, tf.RngStream(7, 6).generator())[0]
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)


def test_haar_rotation_orthogonality_bulk():
    gen = tf.RngStream(8).generator()
    gs = haar_matrices(4, 10_000, gen)
    err = np.abs(np.einsum('bij,bik->bjk', gs, gs) - np.eye(4)).max()
    assert err < 1e-12


def test_haar_first_coordinate_moments():
    n = 3
    gen = tf.RngStream(9).generator()
    gs = haar_matrices(n + 1, 100_000, gen)
    x0 = gs[:, 0, 0]           # (g e_0) . e_0
    se1 = x0.std(ddof=1) / np.sqrt(x0.size)
    assert abs(x0.mean()) < 4 * se1
    sq = x0 ** 2
    se2 = sq.std(ddof=1) / np.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / (n + 1)) < 4 * se2


def test_sample_flat_full_space_and_determinism():
    f = uniform_flat_frames(3, 3, 1, tf.RngStream(4).generator())[0]
    assert np.allclose(projector(f), np.eye(4), atol=1e-12)
    f1 = uniform_flat_frames(1, 3, 1, tf.RngStream(11, 2).generator())
    f2 = uniform_flat_frames(1, 3, 1, tf.RngStream(11, 2).generator())
    assert np.array_equal(f1, f2)


def test_sample_flat_principal_angle_moment():
    # E[sum cos^2(theta_i)] between a fixed 2-plane and a uniform 2-plane in
    # R^4 equals (k+1)^2/(n+1) = 1: E[P_W] = I/2 by invariance, so
    # E[tr(P_V P_W)] = tr(P_V)/2.
    gen = tf.RngStream(12).generator()
    frames = uniform_flat_frames(1, 3, 10_000, gen)
    V = np.eye(2, 4)
    M = np.einsum('ij,bkj->bik', V, frames)
    vals = (M ** 2).sum(axis=(1, 2))
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - 1.0) < 4 * se


def test_sample_flat_rotation_invariant_distribution():
    # moments of a fixed test function agree with and without a fixed
    # pre-rotation
    gen = tf.RngStream(13).generator()
    h = haar_matrices(4, 1, gen)[0]
    frames = uniform_flat_frames(1, 3, 20_000, gen)
    V = np.eye(2, 4)

    def moment(fr):
        M = np.einsum('ij,bkj->bik', V, fr)
        vals = (M ** 2).sum(axis=(1, 2))
        return vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)

    m1, s1 = moment(frames)
    m2, s2 = moment(frames @ h.T)
    assert abs(m1 - m2) < 4 * np.hypot(s1, s2)


def _compound_matrix(g: np.ndarray, k_plus_1: int) -> np.ndarray:
    """Induced action of g on wedge powers, computed brute force from minors."""
    n = g.shape[0]
    subsets = list(itertools.combinations(range(n), k_plus_1))
    out = np.empty((len(subsets), len(subsets)))
    for a, rows in enumerate(subsets):
        for b, cols in enumerate(subsets):
            out[a, b] = np.linalg.det(g[np.ix_(rows, cols)])
    return out


def test_plucker_equivariance_under_rotation():
    # the rotation g moves a frame F to F g^T, and its wedge by the second
    # compound of g, with no sign ambiguity
    for trial in range(20):
        f = uniform_flat_frames(1, 3, 1, tf.RngStream(31, trial).generator())[0]
        g = haar_matrices(4, 1, tf.RngStream(32, trial).generator())[0]
        lhs = plucker_embed(f @ g.T)
        rhs = _compound_matrix(g, 2) @ plucker_embed(f)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_lines_to_plucker_matches_embed():
    gen = tf.RngStream(33).generator()
    frames = uniform_flat_frames(1, 3, 50, gen)
    batch = lines_to_plucker(frames)
    for fr, row in zip(frames, batch):
        assert np.abs(row - plucker_embed(fr)).max() < 1e-12
    assert np.abs(batch - plucker_embed(frames)).max() < 1e-12


def test_pairing_is_the_determinant_of_both_frames():
    # p P q = det[u; v; u'; v'] for p = u ^ v and q = u' ^ v': a reference
    # that does not depend on how the pairing is written down
    gen = tf.RngStream(34).generator()
    frames = gen.standard_normal((200, 2, 2, 4))
    p, q = lines_to_plucker(frames[:, 0]), lines_to_plucker(frames[:, 1])
    pairing = np.einsum('bi,ij,bj->b', p, tf.PLUCKER_PAIRING, q)
    dets = np.linalg.det(frames.reshape(200, 4, 4))
    assert np.abs(pairing - dets).max() < 1e-12 * np.abs(dets).max() + 1e-13
    assert tf.line_meet_form(p[0], q[0]) == pytest.approx(dets[0], abs=1e-12)
    assert np.array_equal(tf.PLUCKER_PAIRING, tf.PLUCKER_PAIRING.T)
