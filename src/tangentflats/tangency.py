"""Real lines tangent to four quadrics in RP^3.

Tangency of a line to a quadric {x^T A x = 0} is a quadratic condition on
Pluecker coordinates, given by the second compound matrix of A; together
with the Pluecker quadric this yields five quadrics in P^5, kept as arrays
of shape (..., 5, 6, 6).  General quadrics take the tracker of `homotopy` on
32 paths from a generic complex system (Morgan and Sommese, 1989), solved
once per process on first use.  Four metric spheres take no path: their 12
tangent lines (Macdonald, Pach and Theobald, 2001) are the rank-2
projectors P with c^T P c = cos^2 r, roots of quadrics that `_sphere_roots`
finds as eigenvectors (Stetter, 2004).  Both routes end in the tracker's
endgame, and retry a trial that lost paths from a total-degree start.

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

#: Rows solved together: 20 general trials or 53 sphere trials (12 roots), so
#: a 20-trial command is one batch and no loop pass runs on a few rows; 1280
#: rows saved no more CPU time, while peak memory grows with the rows.
_CHUNK_ROWS = 640
_START_SEED = 1989              # the cached generic start, sphere tables and their draws
_SPHERE_GROUP = 5               # sphere trials a Gram stack holds, 127 KB each
_MAX_NULL_RATIO, _MIN_ROOT_SEPARATION = 1e-8, 1e-7  # seen: at most 5.4e-13, at least 2.2e-6


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
    forms = _normalize_forms(quadrics)
    return homotopy._retry(forms, rngs, homotopy._solve_batch(
        forms, [rng.substream(0) for rng in rngs], _quadric_start()))


@functools.cache
def _sphere_tables():
    """The column among the 126 monomials in t of degree <= 4, by degree, of the
    product of each of degree <= 3 (56) and <= 2 (21), -1 past 4; a linear
    form (5,) and a start block (126, 14) for the null space."""
    mons = sorted((e for e in np.ndindex((5,) * 5) if sum(e) <= 4), key=sum)
    index, gen = {e: k for k, e in enumerate(mons)}, RngStream(_START_SEED).generator()
    return (np.array([[index.get(tuple(map(sum, zip(e, f))), -1) for f in mons[:21]]
                      for e in mons[:56]]), gen.standard_normal(5), gen.standard_normal((126, 14)))


def _sphere_roots(ww):
    """Unit Pluecker rows (T * 12, 6) of the lines tangent to four metric
    spheres I - w w^T, of w w^T (T, 4, 4, 4), and each trial's null-space
    ratio and root separation (T,), all per trial."""
    prod, form, start = _sphere_tables()
    T, (i, j) = len(ww), np.triu_indices(4)
    # tangency is w^T P w = 1: by the SVD of that and tr P = 2 in P's upper
    # entries, P = L_0 + sum_j t_j L_j; and sum_ab t_a t_b W_ab = P^2 - P, t_0 = 1
    U, s, Vt = np.linalg.svd(np.concatenate([ww[..., i, j] * (2.0 - (i == j)),
                                             np.broadcast_to(i == j, (T, 1, 10))], axis=1))
    L = np.zeros((T, 6, 4, 4))
    L[..., i, j] = L[..., j, i] = np.concatenate(
        [(np.array([1.0, 1, 1, 1, 2]) @ U / s)[:, None] @ Vt[:, :5], Vt[:, 5:]], axis=1)
    W = L[:, :, None] @ L[:, None]
    W[:, 0] -= L
    coef = np.eye(21)[prod[:6, :6].ravel()].T @ W[..., i, j].reshape(T, 36, 10)
    # the null space of the Gram matrix of the Macaulay rows (quadric, monomial
    # mu), not formed, by inverse subspace iteration, shifted, and Rayleigh-Ritz
    K, G = coef @ coef.transpose(0, 2, 1), np.zeros((T, 126, 126))
    for c in prod[:21, :21]:
        G[:, c[:, None], c] += K
    diagonal, shift = G.reshape(T, -1)[:, ::127], np.trace(G, 0, 1, 2)[:, None] * 1e-13 / 126
    diagonal += shift
    X = np.linalg.qr(np.linalg.solve(G, np.linalg.qr(np.linalg.solve(G, start))[0]))[0]
    diagonal -= shift
    lam, V = np.linalg.eigh(X.transpose(0, 2, 1) @ G @ X)
    N = X @ V[..., :12]
    # eigenvectors c of the form's action matrix give the roots' monomials N c
    Q, R = np.linalg.qr(N[:, :56])
    ev, C = np.linalg.eig(np.linalg.solve(R, Q.transpose(0, 2, 1) @ np.einsum(
        "j,tjsk->tsk", form, N[:, prod[:56, 1:6].T])))
    v = N @ C
    # C2(P) = p p^T / (p . p) for a rank-2 projector: p is its largest column
    C2 = second_compound(L[:, :1] + np.einsum("tjr,tjab->trab", v[:, 1:6] / v[:, :1], L[:, 1:]))
    p = np.take_along_axis(C2, np.linalg.norm(C2, axis=-2).argmax(-1)[..., None, None], -1)
    gaps = np.abs(ev[:, :, None] - ev[:, None]) + np.diag(np.full(12, np.inf))
    return ((p / np.linalg.norm(p, axis=-2, keepdims=True)).reshape(-1, 6),
            np.abs(lam[:, 11]) / lam[:, 12], gaps.min(axis=(1, 2)) / np.abs(ev).max(axis=1))


def _sphere_trials(forms, ww) -> list:
    """The sphere route's first attempt at the systems forms (T, 5, 6, 6) of
    four moved metric spheres I - w w^T, of w w^T (T, 4, 4, 4), in groups of
    _SPHERE_GROUP trials.  A flagged trial's roots enter the endgame at
    t = nan, as lost paths, to be retried."""
    n = _SPHERE_GROUP
    p, ratio, gap = (np.concatenate(x) for x in zip(*(
        _sphere_roots(ww[k:k + n]) for k in range(0, len(forms), n))))
    t = np.where((ratio <= _MAX_NULL_RATIO) & (gap >= _MIN_ROOT_SEPARATION), 1.0, np.nan)
    return homotopy._endgame(forms, p, np.repeat(t, 12), [homotopy.TrackerWork(
        null_space_ratio=r, root_separation=s) for r, s in zip(ratio.tolist(), gap.tolist())])


@functools.cache
def _quadric_start():
    """A generic complex system (5, 6, 6), four random complex symmetric forms
    and the Pluecker quadric, and its 32 solutions, checked regular: the start
    of every general trial, solved once per process on first use, read-only."""
    gen = RngStream(_START_SEED).generator()
    A = gen.standard_normal((4, 6, 6)) + 1j * gen.standard_normal((4, 6, 6))
    forms = _normalize_forms(A + A.transpose(0, 2, 1))
    result = homotopy._solve_batch(forms[None], [RngStream(_START_SEED, 1).substream(0)])[0]
    p = result.solutions
    F, J = homotopy._target(np.broadcast_to(forms, (32, 5, 6, 6)), p)
    if result.failed or not homotopy._full_rank(J, p).all() or np.abs(F).max() > 1e-12:
        raise RuntimeError("the cached start system is not regular")
    forms.flags.writeable = p.flags.writeable = False
    return forms, p


def _spheres(bodies) -> bool:
    """Whether every body is a metric sphere, so the draws take the sphere route."""
    return all(body.kind == "metric_sphere" for body in np.ravel(bodies))


def count_real_tangent_lines(bodies, rotations, rngs) -> list:
    """One SolutionSet per draw of four quadric bodies, one set for every draw
    or (T, 4), under rotation 4-tuples (T, 4, 4, 4), one stream each: its
    real_count is the draw's number of real tangent lines unless it is
    degenerate or lost paths (failed > 0)."""
    g, B = np.asarray(rotations, dtype=float), np.array(bodies, dtype=object)
    if g.shape[1:] != (4, 4, 4) or B.shape not in ((4,), (len(g), 4)) or len(rngs) != len(g):
        raise ValueError("need rotations (T, 4, 4, 4), bodies (4,) or (T, 4), T streams")
    A = np.array([body.defining_matrix() for body in B.flat]).reshape(B.shape + (4, 4))
    moved = g @ A @ np.swapaxes(g, -1, -2)      # x in gX iff g^T x in X
    if not _spheres(bodies):
        return solve_tangency_system(tangency_quadric_of(moved), rngs)
    forms = _normalize_forms(tangency_quadric_of(moved))
    return homotopy._retry(forms, rngs, _sphere_trials(forms, np.eye(4) - moved))


def _count_chunk(args):
    """Of a run of trials solved as one batch: the real tangent counts of the
    trials kept, the number discarded and, of those, the number that lost
    paths after every retry, the path log of the first of these (empty if
    none), the tracker work of every attempt, and the paths regular, singular
    and lost (3,) of the last attempts."""
    bodies, seed, trials = args
    streams = [RngStream(seed, trial) for trial in trials]
    gs = np.array([haar_matrices(4, 4, s.generator()) for s in streams])
    results = count_real_tangent_lines(bodies, gs, [s.substream(1 << 32) for s in streams])
    log = next(([f"trial {t}: {r.failed} of {r.paths} paths lost", *r.path_log]
                for t, r in zip(trials, results) if r.failed), [])
    counts = [r.real_count for r in results if not (r.failed or r.degenerate)]
    paths = np.array([(r.tracked, r.singular, r.failed) for r in results]).sum(axis=0)
    work = sum((r.work for r in results), homotopy.TrackerWork())
    lost = sum(r.failed > 0 for r in results)
    return counts, len(results) - len(counts), lost, log, work, paths


# One trial (-1 if discarded) and one attempt (its lost paths in `failed`) as
# batches of one; perfbench/tracer.py hooks both.
def _tau_trial(args) -> int:
    return (_count_chunk((*args[:2], [args[2]]))[0] or [-1])[0]


def _solve_once(quadrics, rng: RngStream) -> homotopy.SolutionSet:
    return homotopy._solve_batch(_normalize_forms(quadrics)[None], [rng.substream(0)],
                                 _quadric_start())[0]


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
    spheres = _spheres(bodies)      # the 32-path start is solved before a pool forks
    size = _CHUNK_ROWS // (12 if spheres else len(_quadric_start()[1]))
    chunks = [((tuple(bodies), seed, range(i, min(i + size, trials))),)
              for i in range(0, trials, size)]
    counts, discarded, lost_trials, logs, works, paths = zip(
        *parallel_map(_count_chunk, chunks, workers))
    ok, degenerate, failed = np.array(sum(counts, []), int), sum(discarded), sum(lost_trials)
    if degenerate > MAX_DISCARDED_SHARE * trials:
        exc = DegenerateConfigurationError(
            f"{degenerate} of {trials} trials discarded ({degenerate - failed} "
            f"degenerate, {failed} lost paths after every retry)")
        exc.path_log = next((log for log in logs if log), [])
        raise exc
    mean = float(ok.mean())
    stderr = float(ok.std(ddof=1) / np.sqrt(ok.size)) if ok.size > 1 else 0.0
    regular, singular, lost = sum(paths).tolist()
    work = asdict(sum(works, homotopy.TrackerWork()))
    if not spheres:             # the fields of the sphere route's eigenvalue solves
        del work["null_space_ratio"], work["root_separation"]
    diagnostics = dict(chunks=len(chunks), paths_regular=regular, paths_singular=singular,
                       paths_lost=lost, **{k: None if v == np.inf else v for k, v in work.items()})
    return MCEstimate(mean, stderr, int(ok.size), degenerate=degenerate,
                      failed=failed, diagnostics=diagnostics)
