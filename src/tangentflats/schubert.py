"""Expected degree of the Grassmannian of lines in RP^3 by direct counting
of real transversals to four random lines.

A line meets another iff the symmetric incidence pairing of their Pluecker
vectors vanishes; the transversals of four lines are the intersection of
the kernel of the four incidence conditions (generically a projective line
in P^5) with the Pluecker quadric, so each draw contributes 0, 1 or 2, and
the expected value over Haar-random lines is the expected degree.

For k = 0 and k = n-1 the expected degree is exactly one (a point incident
to n random hyperplanes, or dually); other index pairs would need general
Schubert-problem solvers and are out of scope here, so they raise.
"""
from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .projective import PLUCKER_PAIRING, lines_to_plucker, uniform_flat_frames
from .rng import MCEstimate, RngStream

#: Reference numerical value of the expected degree for lines in RP^3,
#: reliable to the five digits shown.
EXPECTED_DEGREE_LINES_RP3 = 1.7262

_BATCH = 4096          # fixed internal batch size; part of the determinism contract
_DEGENERACY_TOL = 1e-10


class UnsupportedIndicesError(ValueError):
    """(k, n) outside the supported scope {k=0, k=n-1, (k,n)=(1,3)}."""


@dataclass(frozen=True)
class TransversalCount:
    """Number of real lines meeting four given lines in RP^3.

    count is None when the incidence conditions are rank deficient (the
    transversals form a positive-dimensional family).  A count of one only
    occurs within the tangency tolerance of the discriminant.
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


def _count_batch(plucker: np.ndarray, tol: float = _DEGENERACY_TOL):
    """Vectorized transversal counting.

    plucker: (B, 4, 6) unit Pluecker vectors of four lines per draw.
    Returns (counts, degenerate, disc, cond) arrays; counts is -1 on
    degenerate draws.
    """
    M = plucker @ PLUCKER_PAIRING                   # (B, 4, 6) rows of the system
    q, r = np.linalg.qr(M.transpose(0, 2, 1), mode="complete")
    diag = np.abs(np.einsum('bii->bi', r[:, :4, :]))
    cond = diag.min(axis=1) / np.maximum(diag.max(axis=1), 1e-300)
    degenerate = diag.min(axis=1) < 1e-8 * diag.max(axis=1)
    u = q[:, :, 4]
    v = q[:, :, 5]
    uP = u @ PLUCKER_PAIRING
    quu = 0.5 * np.einsum('bi,bi->b', uP, u)
    qvv = 0.5 * np.einsum('bi,bi->b', v @ PLUCKER_PAIRING, v)
    quv = np.einsum('bi,bi->b', uP, v)              # already the cross term
    disc = quv ** 2 - 4.0 * quu * qvv
    scale = quv ** 2 + 4.0 * np.abs(quu * qvv) + 1e-300
    # a vanishing quadratic means the whole kernel line lies on the quadric
    degenerate |= np.maximum(np.abs(quv), np.maximum(np.abs(quu), np.abs(qvv))) < 1e-12
    counts = np.where(disc > tol * scale, 2, 0)
    counts = np.where(np.abs(disc) <= tol * scale, 1, counts)
    counts = np.where(degenerate, -1, counts)
    return counts, degenerate, disc, cond


def count_line_transversals(l1, l2, l3, l4) -> TransversalCount:
    """Count the real lines meeting four given lines in RP^3."""
    plucker = np.array([l1, l2, l3, l4], dtype=float)[None, :, :]
    counts, degenerate, disc, cond = _count_batch(plucker)
    if degenerate[0]:
        return TransversalCount(None, float(disc[0]), float(cond[0]))
    return TransversalCount(int(counts[0]), float(disc[0]), float(cond[0]))


def _delta13_batch(seed: int, batch_index: int, size: int):
    """One deterministic batch of transversal counts for (k, n) = (1, 3)."""
    gen = RngStream(seed, batch_index).generator()
    frames = uniform_flat_frames(1, 3, 4 * size, gen).reshape(size, 4, 2, 4)
    plucker = lines_to_plucker(frames)
    plucker /= np.linalg.norm(plucker, axis=-1, keepdims=True)
    counts, degenerate, _, _ = _count_batch(plucker)
    ok = counts[~degenerate]
    return int(ok.sum()), int((ok ** 2).sum()), int(ok.shape[0]), int(degenerate.sum())


def _delta13_batch_star(args):
    return _delta13_batch(*args)


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
    nbatches = (samples + _BATCH - 1) // _BATCH
    tasks = []
    done = 0
    for b in range(nbatches):
        size = min(_BATCH, samples - done)
        tasks.append((seed, b, size))
        done += size
    if workers > 1:
        with Pool(workers) as pool:
            parts = pool.map(_delta13_batch_star, tasks)
    else:
        parts = [_delta13_batch(*t) for t in tasks]
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    kept = sum(p[2] for p in parts)
    degenerate = sum(p[3] for p in parts)
    mean = total / kept
    var = (total_sq / kept - mean ** 2) * kept / max(kept - 1, 1)
    stderr = float(np.sqrt(var / kept))
    return MCEstimate(float(mean), stderr, kept, seed, degenerate=degenerate)
