"""Expected degree of the Grassmannian of lines in RP^3 by direct counting
of real transversals to four random lines.

A line is a pair (a, b) = (x + y, x - y) of unit 3-vectors, the self-dual and
anti-self-dual parts of its unit Pluecker vector: x = (p01, p02, p03) and y =
(p23, -p13, p12).  SO(4) acts on it as SO(3) x SO(3) (Gluck & Warner, Duke
Math. J. 50, 1983), and l P m = (a.a' - b.b') / 2, l.m = (a.a' + b.b') / 2.
So four lines whose a's and b's have Gram matrices A and B have the pairing
matrix G = (A - B) / 2 and the Gram matrix D = (A + B) / 2.  P has signature
(3, 3), so the Pluecker quadric on the plane W paired to zero with the lines'
span V, whose points are the transversals, is indefinite (2 real
transversals) iff det G > 0; on an orthonormal basis of W its discriminant
is disc = det G / det D, and |kappa| = sqrt(det D) for W's Pluecker
coordinates kappa: 2, 1 or 0 transversals as disc is positive, within
_TIE_TOL of 0, or negative; W lies on the quadric iff G has rank 2.  Both
determinants round to about 1e-16 on dependent lines, so ties and det D
below _GRAM_TOL are redone by an SVD of the stack over sqrt(2), an isometric
copy of the Pluecker vectors on which P = diag(I3, -I3).  A Monte Carlo draw
is e0 ^ e1 = (e1, e1), a second line in normal form ((c1, s1, 0), (c2, s2,
0)), s = sqrt(1 - c^2), with c uniform on [-1, 1] (the stabilizer SO(2) x
SO(2) of the first turns a uniform line into it; Archimedes), and two
uniform lines: by rotation invariance, the count law of four uniform lines.
For k in {0, n-1} the expected degree is exactly one (a point incident to n
random hyperplanes, or dually); other index pairs are out of scope and raise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .projective import PLUCKER_PAIRING, plucker_index_pairs
from .rng import (MAX_DISCARDED_SHARE, DegenerateConfigurationError, MCEstimate,
                  RngStream, parallel_map)

#: Reference numerical value of the expected degree for lines in RP^3,
#: reliable to the five digits shown.
EXPECTED_DEGREE_LINES_RP3 = 1.7262

_BATCH = 4096          # fixed internal batch size; part of the determinism contract
_TIE_TOL = 1e-10       # |disc| <= 1 for unit lines, so an absolute band
_RANK_TOL = 1e-8       # |kappa| below it: the four lines are dependent
_GRAM_TOL = 1e-4       # det D above it: det G / det D is within about 1e-12

#: (a, b) = AB_FROM_PLUCKER @ p and p = AB_FROM_PLUCKER.T @ (a, b) / 2, as
#: x = p[:3] and y = PLUCKER_PAIRING[:3] @ p.
AB_FROM_PLUCKER = np.vstack([np.eye(6)[:3] + PLUCKER_PAIRING[:3],
                             np.eye(6)[:3] - PLUCKER_PAIRING[:3]])
AB_FROM_PLUCKER.flags.writeable = False


class UnsupportedIndicesError(ValueError):
    """(k, n) outside the supported scope {k=0, k=n-1, (k,n)=(1,3)}."""


@dataclass(frozen=True)
class TransversalCount:
    """Number of real lines meeting four given lines in RP^3: None for a
    positive-dimensional family (dependent lines, or W on the Pluecker
    quadric), and 1 only within the tie tolerance of the discriminant.
    condition is |kappa|, the volume the four unit Pluecker vectors span (1
    when orthonormal, degenerate below 1e-8)."""

    count: int | None
    discriminant: float
    condition: float

    @property
    def degenerate(self) -> bool:
        return self.count is None


def line_meet_form(l, m) -> float:
    """Symmetric incidence pairing of two lines in RP^3 (zero iff they meet)."""
    return float(np.asarray(l, dtype=float) @ PLUCKER_PAIRING @ np.asarray(m, dtype=float))


def _hollow_det(m):
    """det of symmetric 4 x 4 matrices with zero diagonal and upper entries m
    = (m01, m02, m03, m12, m13, m23): p, q, r = m01 m23, m02 m13, m03 m12."""
    p, q, r = (m[k] * m[5 - k] for k in range(3))
    return p * p + q * q + r * r - 2.0 * (p * q + q * r + r * p)


def _count_batch(L: np.ndarray):
    """Vectorized transversal counting of L: (4, 2, 3, B) lines, four unit
    pairs (a, b) per draw, draw-last.  Returns (counts, degenerate, disc, cond)
    arrays; counts is -1 on degenerate draws and cond is |kappa|.  G has a zero
    diagonal, and D = I + M for a hollow M, whose det adds to det M the
    principal minors of orders 2 and 3: -M_ij^2 and 2 M_ij M_jk M_ik."""
    # a delta batch's heap peak must stay well under glibc's trim threshold,
    # twice its 786 KB line stack, or every batch gives its pages back and
    # faults them in again (up to 30% more CPU time): each (a.a', b.b') pair
    # is freed once halved, and g once det G is formed.  At 36 KB under the
    # threshold most edits anywhere in the package crossed it; the peak is
    # now about 165 KB under it (tracemalloc: 1,379 KB for 4,096 draws)
    ab = (np.einsum('skb,skb->sb', L[i], L[j]) for i, j in plucker_index_pairs(4, 2))
    g, m = zip(*(((a - b) * 0.5, (a + b) * 0.5) for a, b in ab))
    det_g = _hollow_det(g)
    del g
    det_d = 1.0 - sum(x * x for x in m) + _hollow_det(m) + 2.0 * sum(
        m[i] * m[j] * m[k] for i, j, k in ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)))
    cond, disc = np.sqrt(np.abs(det_d)), det_g / np.maximum(det_d, 1e-300)
    rare, degenerate = (det_d < _GRAM_TOL) | (np.abs(disc) <= _TIE_TOL), cond < _RANK_TOL
    scaled = L[..., rare].reshape(4, 6, -1).transpose(2, 0, 1) * np.sqrt(0.5)
    _, sv, vt = np.linalg.svd(scaled)               # redo on an orthonormal basis of V
    eig = np.linalg.eigvalsh(vt[:, :4] * np.repeat([1.0, -1.0], 3) @ vt[:, :4].transpose(0, 2, 1))
    cond[rare], disc[rare] = sv.prod(axis=1), eig.prod(axis=1)
    degenerate[rare] = (cond[rare] < _RANK_TOL) | (np.sort(np.abs(eig))[:, 1] < 1e-12)
    counts = np.select([degenerate, disc > _TIE_TOL, np.abs(disc) <= _TIE_TOL], [-1, 2, 1], 0)
    return counts, degenerate, disc, cond


def count_line_transversals(l1, l2, l3, l4) -> TransversalCount:
    """Count the real lines meeting four given lines in RP^3, each given by
    a Pluecker vector of any nonzero length."""
    plucker = np.array([l1, l2, l3, l4], dtype=float)
    plucker /= np.maximum(np.sqrt((plucker ** 2).sum(axis=1)), 1e-300)[:, None]
    ab = (plucker @ AB_FROM_PLUCKER.T).reshape(4, 2, 3, 1)
    counts, degenerate, disc, cond = _count_batch(ab)
    return TransversalCount(None if degenerate[0] else int(counts[0]),
                            float(disc[0]), float(cond[0]))


def _delta13_batch(seed: int, batch_index: int, size: int):
    """One deterministic batch of counts for (k, n) = (1, 3), with c from
    gen.uniform(-1, 1, (2, size)) and lines 3 and 4 from the normals after it.
    Returns the kept counts' sum, sum of squares and number, the degenerate,
    count-one and SVD-path draws (its test on the reported values), min |kappa|."""
    gen = RngStream(seed, batch_index).generator()
    lines = np.zeros((4, 2, 3, size))
    lines[0, :, 0], lines[1, :, 0] = 1.0, gen.uniform(-1.0, 1.0, (2, size))
    c = lines[1, :, 0]                  # a view: no second copy on the heap
    lines[1, :, 1] = np.sqrt(1.0 - c * c)
    uniform = gen.standard_normal(out=lines[2:])
    uniform /= np.sqrt(np.einsum('lskb,lskb->lsb', uniform, uniform))[:, :, None]
    counts, degenerate, disc, cond = _count_batch(lines)
    ok, svd = counts[~degenerate], (cond < np.sqrt(_GRAM_TOL)) | (np.abs(disc) <= _TIE_TOL)
    return (int(ok.sum()), int((ok ** 2).sum()), int(ok.shape[0]), int(degenerate.sum()),
            int((counts == 1).sum()), int(svd.sum()), float(cond.min()))


def estimate_expected_degree(k: int, n: int, samples: int, seed: int,
                             workers: int = 1) -> MCEstimate:
    """Monte Carlo estimate of the expected degree: exact (mean 1, zero
    error) for k in {0, n-1}; for (k, n) = (1, 3) the average of real
    transversal counts over `samples` independent draws of four uniform lines,
    with degenerate draws discarded and reported, and run diagnostics.  More
    than MAX_DISCARDED_SHARE of the draws degenerate raises."""
    if samples < 1:
        raise ValueError("need samples >= 1")
    if k in (0, n - 1) and 0 <= k <= n - 1:
        return MCEstimate(1.0, 0.0, samples)
    if (k, n) != (1, 3):
        raise UnsupportedIndicesError(
            f"(k, n) = ({k}, {n}) is outside the supported scope: exact "
            "values exist only for k in {0, n-1}, and direct counting is "
            "implemented for lines in RP^3; supply the expected degree "
            "externally for other index pairs")
    tasks = [(seed, b, min(_BATCH, samples - b * _BATCH))
             for b in range(-(-samples // _BATCH))]
    *sums, min_cond = zip(*parallel_map(_delta13_batch, tasks, workers))
    total, total_sq, kept, degenerate, count1, svd = map(sum, sums)
    if degenerate > MAX_DISCARDED_SHARE * samples:
        raise DegenerateConfigurationError(
            f"all {degenerate} draws were degenerate" if kept == 0 else
            f"{degenerate} of {samples} draws were degenerate")
    mean = total / kept
    var = (total_sq / kept - mean ** 2) * kept / max(kept - 1, 1)
    stderr = float(np.sqrt(var / kept))
    return MCEstimate(float(mean), stderr, kept, degenerate=degenerate, diagnostics={
        "count1_draws": count1, "svd_draws": svd, "min_condition": min(min_cond)})
