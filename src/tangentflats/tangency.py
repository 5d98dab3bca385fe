"""Real lines tangent to four quadrics in RP^3 by homotopy continuation.

Tangency of a line to a quadric {x^T A x = 0} is a quadratic condition on
Pluecker coordinates, given by the second compound matrix of A; together
with the Pluecker quadric this yields five quadrics in P^5, kept as arrays
of shape (..., 5, 6, 6) and solved by the tracker of `homotopy`.  Each
family takes a parameter homotopy (Morgan and Sommese, 1989) from a generic
complex member M0 of the family, whose regular solutions are solved once
per process on first use, to the normalized target forms M1.

- General quadrics, 32 paths: M0 is four random complex symmetric forms and
  the Pluecker quadric.  The total-degree start serves only to solve the
  cached starts and to retry trials that lost paths, on either route.
- Four metric spheres, A = I - w w^T with w = sec(r) g e_0, 12 paths: M0 is
  a member of the family F(X) = C2(I - X) - C2(X), one complex symmetric X
  per body.  F is affine in X and F(w w^T) = C2(I - w w^T), so every target
  lies in the family, and as a F(X0) + b F(X1) = (a + b) F((a X0 + b X1) /
  (a + b)), so does every point of the line, after any rescaling of its
  forms.  A generic member has 12 isolated solutions (Macdonald, Pach and
  Theobald, 2001); the other 20 total-degree paths end on the lines in the
  absolute quadric x.x = 0, which solve every member, and are not tracked.

A single system is a batch of one: both entry points take T systems or
rotation 4-tuples, a stream each, and return a SolutionSet per trial.  A
call's memory grows with T x paths, so the empirical average counts a chunk a call.
"""
from __future__ import annotations

import functools
from dataclasses import asdict

import numpy as np

from . import homotopy
from .bodies import BodyError
from .projective import PLUCKER_PAIRING, haar_matrices, plucker_index_pairs
from .rng import (MAX_DISCARDED_SHARE, DegenerateConfigurationError, MCEstimate,
                  RngStream, parallel_map)

#: Path rows tracked together: 20 general trials or 53 sphere trials, so a
#: 20-trial command is one batch and no loop pass runs on a few rows; 1280
#: rows saved no more CPU time, while peak memory grows with the rows.
_CHUNK_ROWS = 640
_START_SEED = 1989              # the cached generic start systems and their solves
_DEGENERATE, _PATHS_LOST = -1, -2   # per-trial counts of discarded trials


def second_compound(A: np.ndarray) -> np.ndarray:
    """Second compound matrices of the square matrices A (..., m, m): entries
    are the 2x2 minors det(A[{i,j},{k,l}]) over lexicographic index pairs."""
    A = np.asarray(A, dtype=np.result_type(A, float))
    m = A.shape[-1]
    i, j = np.array(plucker_index_pairs(m, 2)).T[:, :, None]
    flat = A.reshape(A.shape[:-2] + (m * m,))   # np.take keeps a stack C-ordered
    return (flat.take(m * i + i.T, -1) * flat.take(m * j + j.T, -1)
            - flat.take(m * i + j.T, -1) * flat.take(m * j + i.T, -1))


def tangency_quadric_of(A: np.ndarray) -> np.ndarray:
    """Tangency forms (..., 6, 6) of the quadrics {x^T A x = 0}, A (..., 4, 4).

    For p the wedge of points u, v the value p^T M p equals
    (u^T A u)(v^T A v) - (u^T A v)^2: negative for secant lines, zero for
    tangents, positive for lines missing the real quadric.
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] != (4, 4):
        raise ValueError("tangency quadrics are built from 4x4 matrices")
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    lam = np.abs(np.linalg.eigvalsh(A))
    if (lam.min(axis=-1) <= 1e-12 * lam.max(axis=-1)).any():
        raise BodyError("quadric matrix must be nonsingular")
    return second_compound(A)


def _normalize_forms(forms) -> np.ndarray:
    """The tangency forms (..., 4, 6, 6) and the Pluecker quadric, each of
    unit norm: (..., 5, 6, 6).  Squared norms are BLAS dot products, as in
    np.linalg.norm of one matrix, so no bit depends on the stack."""
    forms = np.asarray(forms)
    flat = forms.reshape(forms.shape[:-2] + (36,))
    sq = sum(np.matmul(x[..., None, :], x[..., None]) for x in (flat.real, flat.imag))
    pairing = np.broadcast_to(PLUCKER_PAIRING / np.linalg.norm(PLUCKER_PAIRING),
                              forms.shape[:-3] + (1, 6, 6))
    return np.concatenate([forms / np.sqrt(sq), pairing], axis=-3)


def solve_tangency_system(quadrics, rngs) -> list:
    """One SolutionSet per system of four tangency forms (T, 4, 6, 6) and the
    Pluecker quadric, one stream each: 32 paths from the cached generic start,
    and a retry from a total-degree start drawn from the stream for a solve
    that loses paths (failed > 0, with a per-path log, after the last)."""
    if np.shape(quadrics)[1:] != (4, 6, 6) or len(rngs) != len(quadrics):
        raise ValueError("need tangency forms (T, 4, 6, 6) and one stream per system")
    return homotopy._solve_trials(_normalize_forms(quadrics), rngs, _quadric_start())


@functools.cache
def _sphere_start():
    """A generic complex member (5, 6, 6) of the sphere family
    F(X) = C2(I - X) - C2(X), one complex symmetric X per body, and its 12
    isolated solutions, computed once per process on first use; the other 20
    total-degree endpoints lie on the lines in x.x = 0."""
    gen = RngStream(_START_SEED).generator()
    X = gen.standard_normal((4, 4, 4)) + 1j * gen.standard_normal((4, 4, 4))
    X = X + X.transpose(0, 2, 1)
    return homotopy._regular_start(_normalize_forms(
        second_compound(np.eye(4) - X) - second_compound(X)), 12, _START_SEED)


@functools.cache
def _quadric_start():
    """A generic complex system (5, 6, 6), four random complex symmetric
    forms and the Pluecker quadric, and its 32 regular solutions: the start
    of every general trial, computed once per process on first use."""
    gen = RngStream(_START_SEED).generator()
    A = gen.standard_normal((4, 6, 6)) + 1j * gen.standard_normal((4, 6, 6))
    return homotopy._regular_start(_normalize_forms(A + A.transpose(0, 2, 1)), 32,
                                   _START_SEED)


def _moved_quadrics(bodies, rotations) -> np.ndarray:
    """Normalized target systems (..., 5, 6, 6) of the moved bodies g X for
    bodies (4,) or (T, 4) and rotations (..., 4, 4, 4), broadcast against
    each other: the tangency forms of g A g^T (membership: x in gX iff
    g^T x in X) and the Pluecker quadric."""
    g, B = np.asarray(rotations, dtype=float), np.array(bodies, dtype=object)
    if B.shape[-1:] != (4,) or g.shape[-3:] != (4, 4, 4):
        raise ValueError("need four bodies and four rotations")
    A = np.array([body.defining_matrix() for body in B.flat]).reshape(B.shape + (4, 4))
    return _normalize_forms(tangency_quadric_of(g @ A @ np.swapaxes(g, -1, -2)))


def _start(bodies):
    """The cached start of the bodies' family: the 12-path sphere start if every
    body is a metric sphere, whose moved systems lie in the sphere family (g A
    g^T = I - w w^T, w = sec(r) g e_0, up to scale), else the 32-path one."""
    spheres = all(body.kind == "metric_sphere" for body in np.ravel(bodies))
    return _sphere_start() if spheres else _quadric_start()


def count_real_tangent_lines(bodies, rotations, rngs) -> list:
    """One SolutionSet per draw of four quadric bodies, one set for every draw
    or (T, 4), under rotation 4-tuples (T, 4, 4, 4), one stream each: its
    real_count is the draw's number of real tangent lines unless it is
    degenerate or lost paths (failed > 0)."""
    g = np.asarray(rotations, dtype=float)
    if g.ndim != 4 or np.shape(bodies)[:-1] not in ((), g.shape[:1]) or len(rngs) != len(g):
        raise ValueError("need rotations (T, 4, 4, 4), bodies (4,) or (T, 4), T streams")
    return homotopy._solve_trials(_moved_quadrics(bodies, g), rngs, _start(bodies))


def _count_chunk(args):
    """Real tangent counts of a run of trials solved as one batch, the path
    log of the first trial that lost paths after every retry (empty if none
    did), the tracker work of every attempt, and the paths regular, singular
    and lost (3,) of the last attempts; a discarded trial reads _DEGENERATE,
    or _PATHS_LOST."""
    bodies, seed, trials = args
    streams = [RngStream(seed, trial) for trial in trials]
    gs = np.array([haar_matrices(4, 4, s.generator()) for s in streams])
    results = count_real_tangent_lines(bodies, gs, [s.substream(1 << 32) for s in streams])
    log = next(([f"trial {t}: {r.failed} of {r.paths} paths lost", *r.path_log]
                for t, r in zip(trials, results) if r.failed), [])
    paths = np.array([(r.tracked, r.singular, r.failed) for r in results]).sum(axis=0)
    work = sum((r.work for r in results), homotopy.TrackerWork())
    return [_PATHS_LOST if r.failed else _DEGENERATE if r.degenerate else r.real_count
            for r in results], log, work, paths


# One trial and one attempt as batches of one; perfbench/tracer.py hooks both.
def _tau_trial(args) -> int:
    return _count_chunk((*args[:2], [args[2]]))[0][0]


def _solve_once(quadrics, rng: RngStream) -> homotopy.SolutionSet:
    result = homotopy._solve_batch(_normalize_forms(quadrics)[None], [rng.substream(0)],
                                   _quadric_start())[0]
    if result.failed:
        raise homotopy.PathFailureError(f"{result.failed} of {result.paths} paths lost",
                                        result.path_log)
    return result


def average_tangent_count_empirical(bodies, trials: int, seed: int,
                                    workers: int = 1) -> MCEstimate:
    """Empirical average of real tangent-line counts over independent Haar
    rotation 4-tuples of the given bodies.

    Trials are solved in chunks of at most _CHUNK_ROWS path rows, and
    workers > 1 spreads whole chunks over a process pool; no count depends
    on the chunking.  Degenerate draws are discarded and reported; more than
    MAX_DISCARDED_SHARE of them raises a diagnostic error.  The diagnostics
    hold the chunks, the paths regular, singular and lost of each trial's
    last attempt, and the TrackerWork fields of every attempt, summed over
    chunks (the longest path maximized, the smallest step minimized), so
    they are the same for every number of workers.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    size = _CHUNK_ROWS // len(_start(bodies)[1])       # solved before a pool forks
    chunks = [((tuple(bodies), seed, range(i, min(i + size, trials))),)
              for i in range(0, trials, size)]
    parts = parallel_map(_count_chunk, chunks, workers)
    counts = np.concatenate([c for c, *_ in parts])
    ok = counts[counts >= 0]
    degenerate = int((counts < 0).sum())
    failed = int((counts == _PATHS_LOST).sum())
    if degenerate > MAX_DISCARDED_SHARE * trials:
        exc = DegenerateConfigurationError(
            f"{degenerate} of {trials} trials discarded ({degenerate - failed} "
            f"degenerate, {failed} lost paths after every retry)")
        exc.path_log = next((log for _, log, *_ in parts if log), [])
        raise exc
    mean = float(ok.mean())
    stderr = float(ok.std(ddof=1) / np.sqrt(ok.size)) if ok.size > 1 else 0.0
    regular, singular, lost = sum(p for *_, p in parts).tolist()
    work = sum((w for *_, w, _ in parts), homotopy.TrackerWork())
    diagnostics = dict(chunks=len(parts), paths_regular=regular, paths_singular=singular,
                       paths_lost=lost, **asdict(work))
    return MCEstimate(mean, stderr, int(ok.size), degenerate=degenerate,
                      failed=failed, diagnostics=diagnostics)
