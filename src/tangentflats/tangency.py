"""Real lines tangent to four quadrics in RP^3 by homotopy continuation.

Tangency of a line to a quadric {x^T A x = 0} is a quadratic condition on
Pluecker coordinates, given by the second compound matrix of A; together
with the Pluecker quadric this yields five quadrics in P^5, kept as arrays
of shape (..., 6, 6).  Each family takes a parameter homotopy (Morgan and
Sommese, 1989) along the straight line

    H = gamma (1 - t) p^T M0 p + t p^T M1 p

from a generic complex member M0 of the family, whose regular solutions are
solved once per process on first use, to the normalized target forms M1,
with a random complex gamma so that paths avoid the real discriminant.

- General quadrics, 32 paths: M0 is four random complex symmetric forms and
  the Pluecker quadric.  The total-degree start G_s = (a_s p)^2 - (b_s p)^2
  of generic linear forms, as M0, serves only to solve the cached starts and
  to retry trials that lost paths, on either route.
- Four metric spheres, A = I - w w^T with w = sec(r) g e_0, 12 paths: M0 is
  a member of the family F(X) = C2(I - X) - C2(X), one complex symmetric X
  per body.  F is affine in X and F(w w^T) = C2(I - w w^T), so every target
  lies in the family, and as a F(X0) + b F(X1) = (a + b) F((a X0 + b X1) /
  (a + b)), so does every point of the line, after any rescaling of its
  forms.  A generic member has 12 isolated solutions (Macdonald, Pach and
  Theobald, 2001); the other 20 total-degree paths end on the lines in the
  absolute quadric x.x = 0, which solve every member, and are not tracked.

The tracker has an RK4 predictor whose first stage is carried over from the
step before, a contracting Newton corrector that runs to convergence (1 to 4
Newton steps) and adaptive steps, and renormalizes to the unit sphere of C^6
after every step (the patch row of the bordered Jacobian is the conjugate of
the current point).  A step takes 4 to 7 evaluations and bordered solves,
about 5.4 on average: nearly every rejected step stops after its first
corrector solve.  The paths of several trials are tracked together as
rows of one array, each with its own t and step.

The routes differ only in their start; the endgame is the same.  Endpoints
are polished with guarded Newton steps, checked on the normalized target
system, and classified real when, after phase alignment and a real Newton
polish, the imaginary part is negligible, each stage in one array pass over
the batch.  Paths that stall just short of t = 1 but polish onto the solution
set are flagged singular rather than lost: they occur for families whose
tangency quadrics share a positive-dimensional complex solution component,
such as spheres on 32 paths, and carry no real lines.  A path that ends on
another's endpoint has jumped, and counts as lost.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bodies import BodyError
from .projective import PLUCKER_PAIRING, haar_matrices, plucker_index_pairs
from .rng import MCEstimate, RngStream, parallel_map

_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=5)))
_MAX_STEPS = 4000
_MAX_DT = 0.25
_NEWTON_ITERS = 4               # corrector steps a step may take
_MAX_PREDICTOR_ERROR = 1e-2     # a larger first corrector step rejects the step
_RETRIES = 2
#: Path rows tracked together: 20 general trials or 53 sphere trials, so a
#: 20-trial command is one batch and no loop pass runs on a few rows; 1280
#: rows saved no more CPU time, while peak memory grows with the rows.
_CHUNK_ROWS = 640
_START_SEED = 1989              # the cached generic start systems and their solves
_STALL_T = 1e-4                 # paths stalling past 1 - _STALL_T may still polish
_RESIDUAL_TOL = 1e-10
_REAL_RATIO = 1e-6
_BORDERLINE_RATIO = 1e-4
_DEGENERATE, _PATHS_LOST = -1, -2   # per-trial counts of discarded trials
#: Largest share of discarded Monte Carlo draws (tau trials, delta draws)
#: that an estimate accepts; a larger one raises DegenerateConfigurationError.
MAX_DISCARDED_SHARE = 0.05


@dataclass(frozen=True)
class TrackerWork:
    """Work of the homotopy tracker over solve attempts: path steps in all
    and of the longest path, rejected steps, the smallest step tried,
    attempts retried, and bordered row solves (first tangents, predictor
    and corrector).  Adding combines them, so the work of a run does not
    depend on how its trials were split."""

    path_steps: int = 0
    max_path_steps: int = 0
    rejected_steps: int = 0
    min_dt: float = math.inf
    retries: int = 0
    solves: int = 0

    def __add__(self, other):
        return TrackerWork(self.path_steps + other.path_steps,
                           max(self.max_path_steps, other.max_path_steps),
                           self.rejected_steps + other.rejected_steps,
                           min(self.min_dt, other.min_dt), self.retries + other.retries,
                           self.solves + other.solves)


class PathFailureError(RuntimeError):
    """A solve attempt lost homotopy paths; carries the log, a line per lost
    path, and the tracker work of the attempt."""

    def __init__(self, message, path_log, work=TrackerWork()):
        super().__init__(message)
        self.path_log, self.work = path_log, work


class DegenerateConfigurationError(RuntimeError):
    """Configuration flagged degenerate (non-isolated or borderline-real
    solutions).  When trials lost paths, path_log holds the log of the
    first of them."""

    path_log = ()


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


@dataclass(frozen=True)
class SolutionSet:
    """Result of one tangency solve.

    solutions holds the polished endpoints, one per path in path order, with
    residual below tolerance on all five equations, unit-normalized in C^6
    and pairwise distinct.  real_solutions is the subset that passed the
    reality test.  Path accounting: tracked + singular + failed = 32, or 12
    on the sphere route.  work is the tracker work of the attempt.
    """

    solutions: np.ndarray           # (S, 6) complex
    residuals: np.ndarray           # (S,)
    real_solutions: np.ndarray      # (R, 6) float
    tracked: int
    singular: int
    failed: int
    borderline: int
    real_singular: int
    nonisolated: int
    work: TrackerWork = TrackerWork()

    @property
    def real_count(self) -> int:
        return self.real_solutions.shape[0]

    @property
    def degenerate(self) -> bool:
        """Non-isolated behavior that makes the real count unreliable:
        borderline reality, a real solution with rank-deficient Jacobian, or
        clean tracks onto a rank-deficient endpoint (a positive-dimensional
        solution set, as for a repeated quadric).  Paths that stall just
        before t = 1 and polish onto such an endpoint are NOT flagged: they mark a complex excess component (as
        for four spheres) with no countable real lines, and count in
        `singular` instead."""
        return any((self.borderline, self.real_singular, self.nonisolated))


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


def solve_tangency_system(quadrics, rng: RngStream) -> SolutionSet:
    """Track all 32 paths for four tangency forms (4, 6, 6) plus the
    Pluecker quadric, from the cached generic start, and classify the
    endpoints.  A solve that loses paths is retried from a total-degree start
    with a fresh path-rotation constant, both derived from the stream; once
    the retry budget is exhausted PathFailureError carries the per-path log.
    """
    if len(quadrics) != 4:
        raise ValueError("need exactly four tangency quadrics")
    return _solve_one(_normalize_forms(quadrics), rng, _quadric_start())


def _solve_one(forms, rng, start):
    """A batch of one of _solve_trials that raises its PathFailureError."""
    result = _solve_trials(forms[None], [rng], start)[0][0]
    if isinstance(result, PathFailureError):
        raise result
    return result


def _solve_trials(forms, rngs, start):
    """_solve_batch with retries: trials whose attempt loses paths go into a
    later batch with the next substream, from a total-degree start.  Returns
    the results and the tracker work of every attempt."""
    results, pending, work = [None] * len(rngs), list(range(len(rngs))), TrackerWork()
    for attempt in range(_RETRIES + 1):
        batch = _solve_batch(forms[pending],
                             [rngs[i].substream(attempt) for i in pending],
                             None if attempt else start)
        work = sum((r.work for r in batch), work + TrackerWork(retries=attempt and len(pending)))
        for i, result in zip(pending, batch):
            results[i] = result
        pending = [i for i in pending if isinstance(results[i], PathFailureError)]
        if not pending:
            break
    return results, work


def _homotopy(M0, M1, gam, p, t):
    """Values, Jacobians and t-derivatives of H (the module docstring) at the
    rows p, for the start forms M0, shared (5, 6, 6) or per row, and the
    target forms M1 (R, 5, 6, 6) per row."""
    Y0, Y1 = _products(M0, p), _products(M1, p)
    G, F = (np.matmul(Y, p[:, :, None])[..., 0] for Y in (Y0, Y1))
    g, s = (gam * (1 - t))[:, None], t[:, None]
    return (g * G + s * F, 2.0 * (g[..., None] * Y0 + s[..., None] * Y1),
            F - gam[:, None] * G)


def _regular_start(forms, count):
    """The system forms (5, 6, 6) and its count regular solutions (count, 6):
    the endpoints of full bordered rank of its total-degree solve at a fixed
    seed, checked; both read-only, since every caller shares them."""
    p = _solve_one(forms, RngStream(_START_SEED, 1), None).solutions
    F, J = _target(np.broadcast_to(forms, (len(p), 5, 6, 6)), p)
    sv = np.linalg.svd(_bordered(J, p), compute_uv=False)
    regular = sv[:, -1] > 1e-7 * sv[:, 0]
    if regular.sum() != count or np.abs(F[regular]).max() > 1e-12:
        raise RuntimeError("a cached start system is not regular")
    p = p[regular]
    forms.flags.writeable = p.flags.writeable = False
    return forms, p


@functools.cache
def _sphere_start():
    """A generic complex member (5, 6, 6) of the sphere family
    F(X) = C2(I - X) - C2(X), one complex symmetric X per body, and its 12
    isolated solutions, computed once per process on first use; the other 20
    total-degree endpoints lie on the lines in x.x = 0."""
    gen = RngStream(_START_SEED).generator()
    X = gen.standard_normal((4, 4, 4)) + 1j * gen.standard_normal((4, 4, 4))
    X = X + X.transpose(0, 2, 1)
    return _regular_start(_normalize_forms(
        second_compound(np.eye(4) - X) - second_compound(X)), 12)


@functools.cache
def _quadric_start():
    """A generic complex system (5, 6, 6), four random complex symmetric
    forms and the Pluecker quadric, and its 32 regular solutions: the start
    of every general trial, computed once per process on first use."""
    gen = RngStream(_START_SEED).generator()
    A = gen.standard_normal((4, 6, 6)) + 1j * gen.standard_normal((4, 6, 6))
    return _regular_start(_normalize_forms(A + A.transpose(0, 2, 1)), 32)


def _bordered(J, p):
    """Jacobians bordered by the patch row conj(p) of the unit sphere."""
    return np.concatenate([J, p.conj()[:, None]], axis=1)


def _newton_steps(J, p, *rhs):
    """Bordered Newton steps (R, 6) for each right-hand side (R, 5), from one
    solve; ok is False on rows whose system is singular."""
    Jb, b = _bordered(J, p), np.zeros((len(J), 6, len(rhs)), dtype=complex)
    b[:, :5] = np.stack(rhs, axis=-1)
    ok = np.ones(len(J), dtype=bool)
    try:
        x = np.linalg.solve(Jb, b)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for q in range(len(J)):
            try:
                x[q] = np.linalg.solve(Jb[q], b[q])
            except np.linalg.LinAlgError:
                ok[q] = False
    return *x.transpose(2, 0, 1), ok


def _track(evaluate, params, owner, p):
    """Predictor-corrector continuation of the paths p (rows of the trials
    `owner`) from t = 0 to 1, in place, each with its own t, step dt and
    budget of _MAX_STEPS steps.  evaluate(*rows, p, t) gives H, dH/dp and
    dH/dt, where rows are the per-trial params taken at each path.  The
    predictor is classical RK4 on the path's tangent in the chart through
    the current point.  As H is homogeneous of degree 2 in p, the tangent
    that the last corrector solve also gives, over the corrected point's
    norm, is the next first stage (that Newton step is below 1e-9); a
    rejected step keeps it.  The corrector accepts a row at the first Newton
    step after its first that is below 1e-9, each step at most half the one
    before, within _NEWTON_ITERS steps; a first step above
    _MAX_PREDICTOR_ERROR rejects at once.  So a step is 3 predictor and 1 to
    4 corrector solves, each with an evaluation.  Every operation acts row
    by row, so no path depends on the others.  Returns the t each path
    reached or stalled at, and its steps, rejected steps, smallest step
    tried and bordered solves."""
    t, dt, active = np.zeros(len(p)), np.full(len(p), 0.1), np.ones(len(p), dtype=bool)
    path_steps, rejected = np.zeros((2, len(p)), dtype=int)
    solves = np.ones(len(p), dtype=int)     # the first tangent's solve
    idx, min_dt = owner[:0], dt.copy()
    _, J, dH = evaluate(*[x if x is None else x[owner] for x in params], p, t)
    K1, OK1 = _newton_steps(J, p, -dH)
    while active.any():
        if active.sum() != len(idx):        # paths only ever leave the set
            idx = np.flatnonzero(active)
            rows = [x if x is None else x[owner[idx]] for x in params]
        path_steps[idx] += 1
        min_dt[idx] = np.minimum(min_dt[idx], dt[idx])
        pc, tc = p[idx], t[idx]
        t_new = np.minimum(tc + dt[idx], 1.0)
        t_mid, h = tc + 0.5 * (t_new - tc), (t_new - tc)[:, None]

        def velocity(x, s):
            _, J, dH = evaluate(*rows, x, s)
            return _newton_steps(J, pc, -dH)

        k1, ok = K1[idx], OK1[idx]
        k2, ok2 = velocity(pc + 0.5 * h * k1, t_mid)
        k3, ok3 = velocity(pc + 0.5 * h * k2, t_mid)
        k4, ok4 = velocity(pc + h * k3, t_new)
        ok &= ok2 & ok3 & ok4
        pn = pc + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        H, J, _ = evaluate(*rows, pn, t_new)
        dd, okc = _newton_steps(J, pn, -H)
        pn, prev = pn + dd, np.linalg.norm(dd, axis=1)
        live = np.flatnonzero(ok & okc & (prev <= _MAX_PREDICTOR_ERROR))
        solves[idx] += 4
        ok, kn, sub, n = np.zeros(len(idx), dtype=bool), np.empty_like(pn), rows, len(idx)
        for _ in range(_NEWTON_ITERS - 1):
            if not len(live):
                break
            if len(live) < n:           # rows leave as they converge or fail
                n, sub = len(live), [x[live] for x in rows]
            q = pn[live]
            H, J, dH = evaluate(*sub, q, t_new[live])
            dd, kn[live], okc = _newton_steps(J, q, -H, -dH)
            solves[idx[live]] += 1
            pn[live], nrm = q + dd, np.linalg.norm(dd, axis=1)
            okc &= (nrm <= 0.5 * prev[live]) | (nrm < 1e-12)
            ok[live], prev[live] = okc & (nrm < 1e-9), nrm
            live = live[okc & (nrm >= 1e-9)]
        acc = idx[ok]
        scale = np.linalg.norm(pn[ok], axis=1, keepdims=True)
        p[acc], K1[acc] = pn[ok] / scale, kn[ok] / scale
        t[acc] = t_new[ok]
        dt[acc] = np.minimum(dt[acc] * 1.5, _MAX_DT)
        rej = idx[~ok]
        dt[rej] *= 0.5
        rejected[rej] += 1
        dead = active & ((dt < 1e-9) | (path_steps >= _MAX_STEPS))
        active &= ~dead & (t < 1.0)
    return t, path_steps, rejected, min_dt, solves


def _products(M, p):
    """M_s p (R, 5, 6) for the forms M (R, 5, 6, 6), or (5, 6, 6) shared, at rows
    p; real forms act on complex rows as one real matmul on (re, im) columns."""
    M = M.reshape(M.shape[:-3] + (30, 6))
    if M.ndim == 3 and M.dtype == float and p.dtype == complex:
        return np.matmul(M, p.view(float).reshape(-1, 6, 2)).view(complex).reshape(-1, 5, 6)
    return np.matmul(M, p[:, :, None]).reshape(-1, 5, 6)


def _target(Ms, p):
    """Values and Jacobians of the target forms Ms (R, 5, 6, 6) at rows p."""
    Y = _products(Ms, p)
    return np.matmul(Y, p[:, :, None])[..., 0], 2.0 * Y


def _pinv_step(F, J, p):
    """Renormalized minimum-norm Newton steps for target values F, Jacobians J."""
    pinv = np.linalg.pinv(_bordered(J, p), rcond=1e-12)
    x = p - np.matmul(pinv[:, :, :5], F[:, :, None])[..., 0]
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _polish(Ms, owner, p):
    """Guarded minimum-norm Newton steps at t = 1, in place: the pseudo-
    inverse handles endpoints on positive-dimensional components, where the
    bordered Jacobian is rank deficient and a plain solve blows up.  A trial
    stops once its residuals are all below 1e-15 or a round improves none."""
    T = owner[-1] + 1
    polishing = np.ones(T, dtype=bool)
    for _ in range(12):
        rows = np.flatnonzero(polishing[owner])
        F, J = _target(Ms[rows], p[rows])
        res_now = np.abs(F).max(axis=1)
        polishing &= np.bincount(owner[rows], res_now >= 1e-15, minlength=T) > 0
        keep = polishing[owner[rows]]
        if not keep.any():
            break
        rows, res_now = rows[keep], res_now[keep]
        p_try = _pinv_step(F[keep], J[keep], p[rows])
        improved = np.abs(_target(Ms[rows], p_try)[0]).max(axis=1) < res_now
        p[rows[improved]] = p_try[improved]
        polishing &= np.bincount(owner[rows], improved, minlength=T) > 0


def _solve_batch(forms, rngs, start) -> list:
    """Solve the systems (T, 5, 6, 6) of T trials together, one stream each,
    from start: a cached pair (M0, p0) of a generic member of the targets'
    family and its regular solutions, shared by every trial, or None for a
    total-degree start on 32 paths drawn from each stream.  Returns, per
    trial, its SolutionSet or the PathFailureError its attempt ended in, the
    same bit for bit whichever trials share the batch."""
    T, gens = len(rngs), [rng.generator() for rng in rngs]
    gam = np.exp(2j * np.pi * np.array([gen.uniform() for gen in gens]))
    if start is not None:       # a cached start, shared by every trial
        M0, starts = start
        evaluate, params = functools.partial(_homotopy, M0), (forms, gam)
        p = np.tile(starts, (T, 1))
    else:                       # G_s = (a_s p)^2 - (b_s p)^2, zero on a p = +-b p
        z = np.array([gen.standard_normal((4, 5, 6)) for gen in gens])
        a, b = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
        L = a[:, None] - _SIGNS[:, :, None] * b[:, None]
        p = np.linalg.svd(L)[2][..., -1, :].conj().reshape(-1, 6)
        M0 = a[..., :, None] * a[..., None, :] - b[..., :, None] * b[..., None, :]
        evaluate, params = _homotopy, (M0, forms, gam)
    paths = len(p) // T
    owner = np.repeat(np.arange(T), paths)
    t, *per_path = _track(evaluate, params, owner, p)
    work = [TrackerWork(int(n.sum()), int(n.max()), int(r.sum()), float(d.min()),
                        solves=int(s.sum()))
            for n, r, d, s in zip(*(x.reshape(T, paths) for x in per_path))]
    reached, near = t >= 1.0, (t < 1.0) & (t >= 1.0 - _STALL_T)
    Ms = forms[owner]
    _polish(Ms, owner, p)
    F, J = _target(Ms, p)
    residuals = np.abs(F).max(axis=1)
    small = residuals < _RESIDUAL_TOL
    good = (reached | near) & small
    tracked_clean, near_ok = reached & small, near & small

    # a clean track onto an endpoint of rank-deficient bordered Jacobian means
    # the solution set is positive dimensional there (non-transverse)
    sv = np.linalg.svd(_bordered(J[good], p[good]), compute_uv=False)
    nonisolated = tracked_clean.copy()
    nonisolated[good] &= sv[:, -1] < 1e-7 * sv[:, 0]

    # squared phase-aligned distances |x|^2 + |y|^2 - 2 |<x, y>|, good to about
    # 1e-15: a good path i < j with an endpoint this close means j jumped onto i
    P = p.reshape(T, paths, 6)
    sq = (P.real ** 2 + P.imag ** 2).sum(axis=2)
    gram = np.abs(np.matmul(P.conj(), P.transpose(0, 2, 1)))
    G = good.reshape(T, paths)
    jumped = np.triu(sq[:, :, None] + sq[:, None, :] - 2.0 * gram < 1e-12, 1) \
        & G[:, :, None] & G[:, None, :]
    onto, hit = jumped.argmax(axis=1), jumped.any(axis=1)
    G = G & ~hit

    tracked, singular, nonisolated = (x.reshape(T, -1).sum(axis=1).tolist()
                                      for x in (tracked_clean, near_ok, nonisolated))
    lost = (paths - G.sum(axis=1)).tolist()
    points, real, borderline, real_singular = _classify(Ms, p, G.ravel())
    results = []
    for k in range(T):
        if lost[k] > 0:
            results.append(PathFailureError(
                f"{lost[k]} of {paths} paths lost",
                [f"path {i}: jumped onto path {onto[k, i]}'s endpoint" if hit[k, i] else
                 f"path {i}: stalled at t = {t[k * paths + i]:.12f}, residual "
                 f"{residuals[k * paths + i]:.3e}" for i in np.flatnonzero(~G[k])],
                work[k]))
            continue
        i = slice(k * paths, (k + 1) * paths)
        results.append(SolutionSet(
            p[i], residuals[i], points[i][real[i]], tracked=tracked[k],
            singular=singular[k], failed=0, nonisolated=nonisolated[k],
            borderline=int(borderline[i].sum()),
            real_singular=int(real_singular[i].sum()), work=work[k]))
    return results


def _classify(Ms, p, good):
    """Reality of the good endpoints among the rows p: after phase alignment,
    those with |Im| < _BORDERLINE_RATIO |Re| get 8 real minimum-norm Newton
    steps, and are real if |Im| < _REAL_RATIO |Re| and the polished point
    solves Ms, else borderline.  Returns the polished points and the masks
    real, borderline and real-singular (a non-isolated real family)."""
    big = p[np.arange(len(p)), np.abs(p).argmax(axis=1)]
    aligned = p * (big.conj() / np.abs(big))[:, None]
    ratio = np.linalg.norm(aligned.imag, axis=1) / np.linalg.norm(aligned.real, axis=1)
    rows = np.flatnonzero(good & (ratio < _BORDERLINE_RATIO))
    Ms, x = Ms[rows], aligned.real[rows]
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    for _ in range(8):
        x = _pinv_step(*_target(Ms, x), x)
    F, J = _target(Ms, x)
    sv = np.linalg.svd(_bordered(J, x), compute_uv=False)
    real = (ratio[rows] < _REAL_RATIO) & (np.abs(F).max(axis=1) < _RESIDUAL_TOL)
    points = np.zeros((len(p), 6), dtype=x.dtype)
    points[rows] = x
    masks = np.zeros((3, len(p)), dtype=bool)
    masks[:, rows] = real, ~real, real & (sv[:, -1] < 1e-7 * sv[:, 0])
    return points, *masks


def _moved_quadrics(bodies, rotations) -> np.ndarray:
    """Normalized target systems (..., 5, 6, 6) of the moved bodies g X for
    rotations (..., 4, 4, 4): the tangency forms of g A g^T (membership:
    x in gX iff g^T x in X) and the Pluecker quadric."""
    g = np.asarray(rotations, dtype=float)
    if len(bodies) != 4 or g.shape[-3:] != (4, 4, 4):
        raise ValueError("need four bodies and four rotations")
    A = np.array([body.defining_matrix() for body in bodies])
    return _normalize_forms(tangency_quadric_of(g @ A @ np.swapaxes(g, -1, -2)))


def _start(bodies):
    """The cached start of the bodies' family: the 12-path sphere start if all
    are metric spheres, whose moved systems lie in the sphere family (g A g^T =
    I - w w^T, w = sec(r) g e_0, up to scale), else the 32-path generic one."""
    spheres = all(body.kind == "metric_sphere" for body in bodies)
    return _sphere_start() if spheres else _quadric_start()


def count_real_tangent_lines(bodies, rotations, rng: RngStream) -> int:
    """Number of real lines tangent to four rotated quadric bodies in RP^3;
    raises DegenerateConfigurationError for non-isolated or borderline draws."""
    sols = _solve_one(_moved_quadrics(bodies, rotations), rng, _start(bodies))
    if sols.degenerate:
        raise DegenerateConfigurationError(
            f"borderline reality: {sols.borderline}, singular real solutions: "
            f"{sols.real_singular}, non-isolated endpoints: {sols.nonisolated}")
    return sols.real_count


def _count_chunk(args):
    """Real tangent counts of a run of trials solved as one batch, the path
    log of the first trial that lost paths after every retry (empty if none
    did), the tracker work of every attempt, and the paths regular, singular
    and lost (3,) of the last attempts; a discarded trial reads _DEGENERATE,
    or _PATHS_LOST."""
    bodies, seed, trials = args
    streams = [RngStream(seed, trial) for trial in trials]
    gs = np.array([haar_matrices(4, 4, s.generator()) for s in streams])
    results, work = _solve_trials(_moved_quadrics(bodies, gs),
                                  [s.substream(1 << 32) for s in streams], _start(bodies))
    log = next(([f"trial {t}: {r}", *r.path_log] for t, r in zip(trials, results)
                if isinstance(r, PathFailureError)), [])
    paths = np.array([(0, 0, len(r.path_log)) if isinstance(r, PathFailureError)
                      else (r.tracked, r.singular, r.failed) for r in results]).sum(axis=0)
    return [_PATHS_LOST if isinstance(r, PathFailureError) else
            _DEGENERATE if r.degenerate else r.real_count for r in results], log, work, paths


# One trial and one attempt as batches of one; perfbench/tracer.py hooks both.
def _tau_trial(args) -> int:
    return _count_chunk((*args[:2], [args[2]]))[0][0]


def _solve_once(quadrics, rng: RngStream) -> SolutionSet:
    result = _solve_batch(_normalize_forms(quadrics)[None], [rng.substream(0)],
                          _quadric_start())[0]
    if isinstance(result, PathFailureError):
        raise result
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
    diagnostics = dict(chunks=len(parts), paths_regular=regular, paths_singular=singular,
                       paths_lost=lost, **asdict(sum((w for *_, w, _ in parts), TrackerWork())))
    return MCEstimate(mean, stderr, int(ok.size), seed, degenerate=degenerate,
                      failed=failed, diagnostics=diagnostics)
