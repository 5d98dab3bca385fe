"""Expected degree of the Grassmannian of lines in RP^3 by direct counting
of real transversals to four random lines.

A line x meets a line l iff l @ PLUCKER_PAIRING @ x = 0, so the transversals
of four lines l_i are the points of the Pluecker quadric on the plane W that
P pairs to zero with V = span(l_i), and a draw's count lies in its pairing
matrix G_ij = l_i P l_j and Gram matrix D_ij = l_i . l_j.  P has signature
(3, 3), split between V and W, so the quadric is indefinite on W (2 real
transversals) iff P has signature (2, 2) on V, iff det G > 0.  On an
orthonormal basis of W its discriminant is disc = det G / det D, and |kappa|
= sqrt(det D) for W's Pluecker coordinates kappa: 2, 1 or 0 transversals as
disc is positive, within _TIE_TOL of 0, or negative.  W lies on the quadric
iff it is the radical V ^ W of P on V, iff G has rank 2.  Both determinants
round to about 1e-16 on dependent lines, so ties and draws with det D below
_GRAM_TOL are redone on an orthonormal basis of V (an SVD), where D = I.
A rotation taking l_1 to e0 ^ e1 keeps the count and leaves l_2..l_4 uniform
and independent, so a Monte Carlo draw is e0 ^ e1 and three uniform lines.

For k = 0 and k = n-1 the expected degree is exactly one (a point incident
to n random hyperplanes, or dually); other index pairs would need general
Schubert-problem solvers and are out of scope here, so they raise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projective import PLUCKER_PAIRING, plucker_index_pairs, uniform_lines
from .rng import MCEstimate, RngStream, parallel_map
from .tangency import DegenerateConfigurationError

#: Reference numerical value of the expected degree for lines in RP^3,
#: reliable to the five digits shown.
EXPECTED_DEGREE_LINES_RP3 = 1.7262

_BATCH = 4096          # fixed internal batch size; part of the determinism contract
_TIE_TOL = 1e-10       # |disc| <= 1 for unit lines, so an absolute band
_RANK_TOL = 1e-8       # |kappa| below it: the four lines are dependent
_GRAM_TOL = 1e-4       # det D above it: det G / det D is within about 1e-12


class UnsupportedIndicesError(ValueError):
    """(k, n) outside the supported scope {k=0, k=n-1, (k,n)=(1,3)}."""


@dataclass(frozen=True)
class TransversalCount:
    """Number of real lines meeting four given lines in RP^3.

    count is None when the transversals form a positive-dimensional family
    (rank-deficient incidence conditions, or a kernel on the Pluecker
    quadric).  A count of one only occurs within the tangency tolerance of
    the discriminant.  condition is |kappa|, the volume the four unit
    Pluecker vectors span (1 when orthonormal, degenerate below 1e-8).
    """

    count: int | None
    discriminant: float
    condition: float

    @property
    def degenerate(self) -> bool:
        return self.count is None


def line_meet_form(l, m) -> float:
    """Symmetric incidence pairing of two lines in RP^3 (zero iff they meet)."""
    return float(np.asarray(l, dtype=float) @ PLUCKER_PAIRING
                 @ np.asarray(m, dtype=float))


def _det4(A):
    """Determinants of 4 x 4 matrices A[i][j] (arrays of one shape) as
    det[u; v; u'; v'] = (u ^ v) @ PLUCKER_PAIRING @ (u' ^ v')."""
    top, bottom = ([A[r][i] * A[s][j] - A[r][j] * A[s][i]
                    for i, j in plucker_index_pairs(4, 2)] for r, s in ((0, 1), (2, 3)))
    return sum(PLUCKER_PAIRING[k, 5 - k] * top[k] * bottom[5 - k] for k in range(6))


def _count_batch(L: np.ndarray):
    """Vectorized transversal counting.

    L: (4, 6, B) unit Pluecker vectors of four lines per draw, draw-last.
    Returns (counts, degenerate, disc, cond) arrays; counts is -1 on
    degenerate draws and cond is |kappa|.  G has a zero diagonal, so det G =
    a^2 + b^2 + c^2 - 2(ab + bc + ca) with a, b, c = G01 G23, G02 G13, G03 G12.
    """
    M = PLUCKER_PAIRING @ L                                           # rows l_i P
    g = [np.einsum('kb,kb->b', M[i], L[j]) for i, j in plucker_index_pairs(4, 2)]
    a, b, c = (g[k] * g[5 - k] for k in range(3))
    det_g = a * a + b * b + c * c - 2.0 * (a * b + b * c + c * a)
    det_d = _det4([[np.einsum('kb,kb->b', L[i], L[j]) for j in range(4)] for i in range(4)])
    cond, disc = np.sqrt(np.abs(det_d)), det_g / np.maximum(det_d, 1e-300)
    rare, degenerate = (det_d < _GRAM_TOL) | (np.abs(disc) <= _TIE_TOL), cond < _RANK_TOL
    _, sv, vt = np.linalg.svd(L[..., rare].transpose(2, 0, 1))  # redo on an orthonormal basis of V
    eig = np.linalg.eigvalsh(vt[:, :4] @ PLUCKER_PAIRING @ vt[:, :4].transpose(0, 2, 1))
    cond[rare], disc[rare] = sv.prod(axis=1), eig.prod(axis=1)
    degenerate[rare] = (cond[rare] < _RANK_TOL) | (np.sort(np.abs(eig))[:, 1] < 1e-12)
    counts = np.select([degenerate, disc > _TIE_TOL, np.abs(disc) <= _TIE_TOL], [-1, 2, 1], 0)
    return counts, degenerate, disc, cond


def count_line_transversals(l1, l2, l3, l4) -> TransversalCount:
    """Count the real lines meeting four given lines in RP^3, each given by
    a Pluecker vector of any nonzero length."""
    plucker = np.array([l1, l2, l3, l4], dtype=float)
    plucker /= np.maximum(np.sqrt((plucker ** 2).sum(axis=1)), 1e-300)[:, None]
    counts, degenerate, disc, cond = _count_batch(plucker[:, :, None])
    return TransversalCount(None if degenerate[0] else int(counts[0]),
                            float(disc[0]), float(cond[0]))


def _delta13_batch(seed: int, batch_index: int, size: int):
    """One deterministic batch of counts for (k, n) = (1, 3), e0 ^ e1 fixed."""
    lines = np.zeros((4, 6, size))
    lines[0, 0] = 1.0
    uniform_lines(3, size, RngStream(seed, batch_index).generator(), out=lines[1:])
    counts, degenerate, _, _ = _count_batch(lines)
    ok = counts[~degenerate]
    return int(ok.sum()), int((ok ** 2).sum()), int(ok.shape[0]), int(degenerate.sum())


def estimate_expected_degree(k: int, n: int, samples: int, seed: int,
                             workers: int = 1) -> MCEstimate:
    """Monte Carlo estimate of the expected degree.

    Exact (mean 1, zero error) for k in {0, n-1}; for (k, n) = (1, 3) the
    average of real transversal counts over `samples` independent draws of
    four uniform lines, with degenerate draws discarded and reported.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    if k in (0, n - 1) and 0 <= k <= n - 1:
        return MCEstimate(1.0, 0.0, samples, seed)
    if (k, n) != (1, 3):
        raise UnsupportedIndicesError(
            f"(k, n) = ({k}, {n}) is outside the supported scope: exact "
            "values exist only for k in {0, n-1}, and direct counting is "
            "implemented for lines in RP^3; supply the expected degree "
            "externally for other index pairs")
    tasks = [(seed, b, min(_BATCH, samples - b * _BATCH))
             for b in range(-(-samples // _BATCH))]
    total, total_sq, kept, degenerate = map(
        sum, zip(*parallel_map(_delta13_batch, tasks, workers)))
    if kept == 0:
        raise DegenerateConfigurationError(f"all {degenerate} draws were degenerate")
    mean = total / kept
    var = (total_sq / kept - mean ** 2) * kept / max(kept - 1, 1)
    stderr = float(np.sqrt(var / kept))
    return MCEstimate(float(mean), stderr, kept, seed, degenerate=degenerate)
