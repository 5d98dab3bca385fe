"""Flats, the Pluecker embedding and Haar sampling.

Conventions
-----------
Every function here is batched: a scalar is a batch of one.  A k-flat in
RP^n is a row-orthonormal (k+1) x (n+1) frame, an array of shape
(..., k+1, n+1) whose row span is the corresponding (k+1)-plane in
R^{n+1}.  Pluecker coordinates are the wedge of the rows, listed over the
C(n+1, k+1) index subsets in lexicographic order and left unnormalized
(unit length for an orthonormal frame, up to sign for a given span).
Lines in RP^3 meet exactly when their coordinates pair to zero under
PLUCKER_PAIRING, which also gives the Pluecker quadric p^T P p / 2.
"""
from __future__ import annotations

import itertools

import numpy as np


def plucker_index_pairs(n_plus_1: int, k_plus_1: int):
    """Lexicographically ordered index subsets for Pluecker coordinates."""
    return list(itertools.combinations(range(n_plus_1), k_plus_1))


#: Incidence pairing of lines in RP^3: p @ PLUCKER_PAIRING @ q =
#: p01 q23 - p02 q13 + p03 q12 + p12 q03 - p13 q02 + p23 q01 = det[u; v; u'; v']
#: for p = u ^ v and q = u' ^ v', zero iff the lines meet.
PLUCKER_PAIRING = np.fliplr(np.diag([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])).copy()
PLUCKER_PAIRING.flags.writeable = False


def haar_matrices(n_plus_1: int, count: int, generator: np.random.Generator) -> np.ndarray:
    """Batch of Haar orthogonal matrices, shape (count, n+1, n+1).

    QR of standard Gaussian matrices with the R-diagonal sign correction;
    without the correction the distribution of Q is not invariant.
    """
    z = generator.standard_normal((count, n_plus_1, n_plus_1))
    q, r = np.linalg.qr(z)
    d = np.sign(np.einsum('bii->bi', r))
    d[d == 0] = 1.0
    return q * d[:, None, :]


def uniform_flat_frames(k: int, n: int, count: int,
                        generator: np.random.Generator) -> np.ndarray:
    """Batch of uniform k-flat frames, shape (count, k+1, n+1).

    Orthonormalizes Gaussian (n+1) x (k+1) matrices; the resulting span is
    O(n+1)-invariant in distribution, hence uniform on the Grassmannian.
    A rotation g moves a frame F to F @ g.T.
    """
    z = generator.standard_normal((count, n + 1, k + 1))
    q, _ = np.linalg.qr(z)
    return q.transpose(0, 2, 1)


def lines_to_plucker(frames: np.ndarray) -> np.ndarray:
    """Pluecker coordinates for a batch of line frames in RP^3.

    frames: (..., 2, 4) row pairs; returns (..., 6), the coordinates in the
    lexicographic order (01, 02, 03, 12, 13, 23), unnormalized.
    """
    u, v = frames[..., 0, :], frames[..., 1, :]
    return np.stack([u[..., i] * v[..., j] - u[..., j] * v[..., i]
                     for i, j in plucker_index_pairs(4, 2)], axis=-1)
