"""Expected degree of the Grassmannian of lines in RP^3 by direct counting
of real transversals to four random lines.

A line x meets a line l iff l @ PLUCKER_PAIRING @ x = 0.  For independent
lines the kernel of the 4 x 6 incidence matrix M is a plane whose Pluecker
coordinates kappa are the Hodge-signed maximal minors of M (a Laplace
expansion of 2 x 2 minors, no factorization), and the Pluecker quadric on it
has discriminant disc = -(L^2 P)(kappa, kappa) / |kappa|^2: a draw has 2, 1
or 0 transversals as disc is positive, within _TIE_TOL of 0, or negative.

For k = 0 and k = n-1 the expected degree is exactly one (a point incident
to n random hyperplanes, or dually); other index pairs would need general
Schubert-problem solvers and are out of scope here, so they raise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .projective import PLUCKER_PAIRING, plucker_index_pairs, uniform_lines
from .rng import MCEstimate, RngStream, parallel_map
from .tangency import DegenerateConfigurationError, second_compound

#: Reference numerical value of the expected degree for lines in RP^3,
#: reliable to the five digits shown.
EXPECTED_DEGREE_LINES_RP3 = 1.7262

_BATCH = 4096          # fixed internal batch size; part of the determinism contract
_TIE_TOL = 1e-10       # |disc| <= 1 for unit lines, so an absolute band
_RANK_TOL = 1e-8       # |kappa| below it: the four lines are dependent

_PAIRS = plucker_index_pairs(6, 2)
_I, _J = np.array(_PAIRS).T
# kappa_D sums sign * top[A] * bottom[B] over the permutations (D, A, B) of
# range(6) into increasing pairs (a Laplace expansion; sign = Hodge sign of D
# times Laplace sign of (A, B)).  Rows A, B and sign, each of shape (6, 15).
_LAPLACE = np.array([(_PAIRS.index(p[2:4]), _PAIRS.index(p[4:]),
                      (-1) ** sum(x > y for x, y in itertools.combinations(p, 2)))
                     for p in itertools.permutations(range(6))
                     if p[0] < p[1] and p[2] < p[3] and p[4] < p[5]]).reshape(15, 6, 3).T
#: The pairing PLUCKER_PAIRING induces on 2-vectors of R^6.
_PAIRING2 = second_compound(PLUCKER_PAIRING)


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


def _count_batch(plucker: np.ndarray):
    """Vectorized transversal counting.

    plucker: (B, 4, 6) unit Pluecker vectors of four lines per draw.
    Returns (counts, degenerate, disc, cond) arrays; counts is -1 on
    degenerate draws and cond is |kappa|.
    """
    # the incidence rows as (4, 6, B), so that every gather below takes rows
    M = np.ascontiguousarray((plucker @ PLUCKER_PAIRING).transpose(1, 2, 0))
    top = M[0, _I] * M[1, _J] - M[0, _J] * M[1, _I]        # (15, B)
    bottom = M[2, _I] * M[3, _J] - M[2, _J] * M[3, _I]
    kappa = sum(s[:, None] * top[a] * bottom[b] for a, b, s in zip(*_LAPLACE))
    norm2 = np.einsum('kb,kb->b', kappa, kappa)
    cond = np.sqrt(norm2)
    disc = -np.einsum('kb,kb->b', kappa, _PAIRING2 @ kappa) / np.maximum(norm2, 1e-300)
    degenerate = cond < _RANK_TOL
    tie = ~degenerate & (np.abs(disc) <= _TIE_TOL)
    if tie.any():       # only a tie can have the form vanish on the whole plane
        K = np.zeros((tie.sum(), 6, 6))
        K[:, _I, _J], K[:, _J, _I] = kappa[:, tie].T, -kappa[:, tie].T
        proj = K @ K.transpose(0, 2, 1) / norm2[tie, None, None]    # onto the plane
        degenerate[tie] = np.abs(proj @ PLUCKER_PAIRING @ proj).max(axis=(1, 2)) < 1e-12
    counts = np.where(disc > _TIE_TOL, 2, np.where(tie, 1, 0))
    counts[degenerate] = -1
    return counts, degenerate, disc, cond


def count_line_transversals(l1, l2, l3, l4) -> TransversalCount:
    """Count the real lines meeting four given lines in RP^3, each given by
    a Pluecker vector of any nonzero length."""
    plucker = np.array([l1, l2, l3, l4], dtype=float)
    plucker /= np.maximum(np.sqrt((plucker ** 2).sum(axis=1)), 1e-300)[:, None]
    counts, degenerate, disc, cond = _count_batch(plucker[None])
    return TransversalCount(None if degenerate[0] else int(counts[0]),
                            float(disc[0]), float(cond[0]))


def _delta13_batch(seed: int, batch_index: int, size: int):
    """One deterministic batch of transversal counts for (k, n) = (1, 3)."""
    gen = RngStream(seed, batch_index).generator()
    plucker = uniform_lines(4 * size, gen).reshape(size, 4, 6)
    counts, degenerate, _, _ = _count_batch(plucker)
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
