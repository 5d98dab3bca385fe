"""Homotopy continuation for m quadrics p^T M_s p = 0 in P^(d-1), m = d - 1.

Every shape is read from the forms (..., m, d, d).  A solve tracks the
straight line H = gamma (1 - t) p^T M0 p + t p^T M1 p, with a random complex
gamma so that paths avoid the real discriminant, to the target forms M1 from
a start: a cached pair (M0, p0) of a generic member of the targets' family
and its regular solutions, or the total-degree system
G_s = (a_s p)^2 - (b_s p)^2 of generic linear forms, zero on a p = +-b p.

The tracker has an RK4 predictor whose first stage is carried over from the
step before, a contracting Newton corrector that runs to convergence (1 to 4
Newton steps) and adaptive steps, and renormalizes to the unit sphere of C^d
after every step (the patch row of the bordered Jacobian is the conjugate of
the current point).  The paths of several trials are tracked together as
rows of one array, each with its own t and step.

Every start has the same endgame: a guarded Newton polish, a residual check
on the target system and a reality test (phase alignment, then a real Newton
polish), each one array pass over the batch.  Paths that stall just short of
t = 1 but polish onto the solution set are singular, not lost: they mark a
positive-dimensional complex component shared by the family's forms (lines
tangent to four spheres, on 32 paths), with no real solutions.  A path that
ends on another's endpoint has jumped, and is lost.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream

_MAX_STEPS = 4000
_MAX_DT = 0.25
_NEWTON_ITERS = 4               # corrector steps a step may take
_MAX_PREDICTOR_ERROR = 1e-2     # a larger first corrector step rejects the step
_RETRIES = 2
_STALL_T = 1e-4                 # paths stalling past 1 - _STALL_T may still polish
_RESIDUAL_TOL = 1e-10
_RANK_RATIO = 1e-7              # bordered rank cut: smallest over largest singular value
_REAL_RATIO = 1e-6
_BORDERLINE_RATIO = 1e-4


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
    """A single solve attempt lost homotopy paths; carries the log, a line
    per lost path.  Only tangency._solve_once raises it: every batch entry
    point returns failed > 0 instead."""

    def __init__(self, message, path_log):
        super().__init__(message)
        self.path_log = path_log


@dataclass(frozen=True)
class SolutionSet:
    """Result of one solve of a system (m, d, d).

    solutions holds the polished endpoints, one per path in path order, with
    residual below tolerance on all m equations, unit-normalized in C^d
    and pairwise distinct, unless failed > 0 paths were lost: path_log then
    has a line for each.  real_solutions is the subset that passed the
    reality test.  Path accounting: tracked + singular + failed = paths, the
    paths of the start.  work is the tracker work of all of this trial's
    attempts, with retries = attempts - 1.
    """

    solutions: np.ndarray           # (S, d) complex
    residuals: np.ndarray           # (S,)
    real_solutions: np.ndarray      # (R, d) float
    tracked: int
    singular: int
    failed: int
    borderline: int
    real_singular: int
    nonisolated: int
    work: TrackerWork = TrackerWork()
    path_log: tuple = ()

    @property
    def paths(self) -> int:
        return self.tracked + self.singular + self.failed

    @property
    def real_count(self) -> int:
        return self.real_solutions.shape[0]

    @property
    def degenerate(self) -> bool:
        """Non-isolated behavior that makes the real count unreliable:
        borderline reality, a real solution with rank-deficient Jacobian, or
        clean tracks onto a rank-deficient endpoint (a positive-dimensional
        solution set, as for a repeated quadric).  Paths that stall just
        before t = 1 and polish onto such an endpoint are NOT flagged: they
        mark a complex excess component (as for four spheres) with no
        countable real solutions, and count in `singular` instead."""
        return any((self.borderline, self.real_singular, self.nonisolated))


def _solve_trials(forms, rngs, start):
    """_solve_batch with retries: trials whose attempt loses paths go into a
    later batch with the next substream, from a total-degree start.  Returns
    one SolutionSet per trial, of its last attempt, whose work sums all of
    that trial's attempts (retries = attempts - 1)."""
    results, pending = [None] * len(rngs), list(range(len(rngs)))
    for attempt in range(_RETRIES + 1):
        batch = _solve_batch(forms[pending],
                             [rngs[i].substream(attempt) for i in pending],
                             None if attempt else start)
        for i, result in zip(pending, batch):
            results[i] = result if not attempt else replace(
                result, work=results[i].work + result.work + TrackerWork(retries=1))
        pending = [i for i in pending if results[i].failed]
        if not pending:
            break
    return results


def _homotopy(M0, M1, gam, p, t):
    """Values, Jacobians and t-derivatives of H (the module docstring) at the
    rows p, for the start forms M0, shared (m, d, d) or per row, and the
    target forms M1 (R, m, d, d) per row."""
    Y0, Y1 = _products(M0, p), _products(M1, p)
    G, F = (np.matmul(Y, p[:, :, None])[..., 0] for Y in (Y0, Y1))
    g, s = (gam * (1 - t))[:, None], t[:, None]
    return (g * G + s * F, 2.0 * (g[..., None] * Y0 + s[..., None] * Y1),
            F - gam[:, None] * G)


def _regular_start(forms, count, seed):
    """The system forms (m, d, d) and its count regular solutions (count, d):
    the endpoints of full bordered rank of its total-degree solve at the
    given seed, checked; both read-only, since every caller shares them."""
    result = _solve_trials(forms[None], [RngStream(seed, 1)], None)[0]
    p = result.solutions
    F, J = _target(np.broadcast_to(forms, (len(p),) + forms.shape), p)
    regular = _full_rank(J, p)
    if result.failed or regular.sum() != count or np.abs(F[regular]).max() > 1e-12:
        raise RuntimeError("a cached start system is not regular")
    p = p[regular]
    forms.flags.writeable = p.flags.writeable = False
    return forms, p


def _bordered(J, p):
    """Jacobians bordered by the patch row conj(p) of the unit sphere."""
    return np.concatenate([J, p.conj()[:, None]], axis=1)


def _full_rank(J, p):
    """Rows whose bordered Jacobian passes the _RANK_RATIO cut (a NaN row fails)."""
    sv = np.linalg.svd(_bordered(J, p), compute_uv=False)
    return sv[:, -1] > _RANK_RATIO * sv[:, 0]


def _newton_steps(J, p, *rhs):
    """Bordered Newton steps (R, d) for each right-hand side (R, m), from one
    solve; ok is False on rows whose system is singular."""
    Jb, b = _bordered(J, p), np.zeros(p.shape + (len(rhs),), dtype=complex)
    b[:, :-1] = np.stack(rhs, axis=-1)
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
    4 corrector solves, each with an evaluation.  Every operation is a
    per-row matmul or solve, so no path depends on the others.  Returns the
    t each path reached or stalled at, and its steps, rejected steps,
    smallest step tried and bordered solves."""
    t, dt, active = np.zeros(len(p)), np.full(len(p), 0.1), np.ones(len(p), dtype=bool)
    path_steps, rejected = np.zeros((2, len(p)), dtype=int)
    solves = np.ones(len(p), dtype=int)     # the first tangent's solve
    idx, min_dt = owner[:0], dt.copy()
    _, J, dH = evaluate(*[x[owner] for x in params], p, t)
    K1, OK1 = _newton_steps(J, p, -dH)
    while active.any():
        if active.sum() != len(idx):        # paths only ever leave the set
            idx = np.flatnonzero(active)
            rows = [x[owner[idx]] for x in params]
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
    """M_s p (R, m, d) for the forms M (R, m, d, d) or (m, d, d) shared, at rows
    p; real forms act on complex rows as one real matmul on (re, im) columns."""
    m, d = M.shape[-3:-1]
    M = M.reshape(M.shape[:-3] + (m * d, d))
    if M.ndim == 3 and M.dtype == float and p.dtype == complex:
        return np.matmul(M, p.view(float).reshape(-1, d, 2)).view(complex).reshape(-1, m, d)
    return np.matmul(M, p[:, :, None]).reshape(-1, m, d)


def _target(Ms, p):
    """Values and Jacobians of the target forms Ms (R, m, d, d) at rows p."""
    Y = _products(Ms, p)
    return np.matmul(Y, p[:, :, None])[..., 0], 2.0 * Y


def _pinv_step(F, J, p):
    """Renormalized minimum-norm Newton steps for target values F, Jacobians J."""
    pinv = np.linalg.pinv(_bordered(J, p), rcond=1e-12)
    x = p - np.matmul(pinv[:, :, :-1], F[:, :, None])[..., 0]
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _polish(Ms, p):
    """Guarded minimum-norm Newton steps on the forms Ms at the rows p, in
    place: the pseudo-inverse handles endpoints on positive-dimensional
    components, where the bordered Jacobian is rank deficient and a plain
    solve blows up.  A row stops once its residual is below 1e-15 or a step
    does not reduce it."""
    rows = np.arange(len(p))
    for _ in range(12):
        F, J = _target(Ms[rows], p[rows])
        res_now = np.abs(F).max(axis=1)
        keep = res_now >= 1e-15
        rows, res_now = rows[keep], res_now[keep]
        if not len(rows):
            break
        p_try = _pinv_step(F[keep], J[keep], p[rows])
        improved = np.abs(_target(Ms[rows], p_try)[0]).max(axis=1) < res_now
        rows = rows[improved]
        p[rows] = p_try[improved]


def _solve_batch(forms, rngs, start) -> list:
    """Solve the systems (T, m, d, d) of T trials together, one stream each,
    from start: a cached pair (M0, p0) of a generic member of the targets'
    family and its regular solutions, shared by every trial, or None for a
    total-degree start on 2^m paths drawn from each stream.  Returns the
    SolutionSet of each trial, the same bit for bit whichever trials share
    the batch."""
    (T, m, d), gens = forms.shape[:3], [rng.generator() for rng in rngs]
    gam = np.exp(2j * np.pi * np.array([gen.uniform() for gen in gens]))
    if start is not None:       # a cached start, shared by every trial
        M0, starts = start
        evaluate, params = functools.partial(_homotopy, M0), (forms, gam)
        p = np.tile(starts, (T, 1))
    else:                       # G_s = (a_s p)^2 - (b_s p)^2, zero on a p = +-b p
        z = np.array([gen.standard_normal((4, m, d)) for gen in gens])
        a, b = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m)))
        L = a[:, None] - signs[:, :, None] * b[:, None]
        p = np.linalg.svd(L)[2][..., -1, :].conj().reshape(-1, d)
        M0 = a[..., :, None] * a[..., None, :] - b[..., :, None] * b[..., None, :]
        evaluate, params = _homotopy, (M0, forms, gam)
    paths = len(p) // T
    owner = np.repeat(np.arange(T), paths)
    t, *per_path = _track(evaluate, params, owner, p)
    work = [TrackerWork(int(n.sum()), int(n.max()), int(r.sum()), float(dt.min()),
                        solves=int(s.sum()))
            for n, r, dt, s in zip(*(x.reshape(T, paths) for x in per_path))]
    reached, near = t >= 1.0, (t < 1.0) & (t >= 1.0 - _STALL_T)
    Ms = forms[owner]
    _polish(Ms, p)
    F, J = _target(Ms, p)
    residuals = np.abs(F).max(axis=1)
    small = residuals < _RESIDUAL_TOL
    good = (reached | near) & small
    tracked_clean, near_ok = reached & small, near & small

    # a clean track onto an endpoint of rank-deficient bordered Jacobian means
    # the solution set is positive dimensional there (non-transverse)
    nonisolated = tracked_clean.copy()
    nonisolated[good] &= ~_full_rank(J[good], p[good])

    # squared phase-aligned distances |x|^2 + |y|^2 - 2 |<x, y>|, good to about
    # 1e-15: a good path i < j with an endpoint this close means j jumped onto i
    P = p.reshape(T, paths, d)
    sq = (P.real ** 2 + P.imag ** 2).sum(axis=2)
    gram = np.abs(np.matmul(P.conj(), P.transpose(0, 2, 1)))
    G = good.reshape(T, paths)
    jumped = np.triu(sq[:, :, None] + sq[:, None, :] - 2.0 * gram < 1e-12, 1) \
        & G[:, :, None] & G[:, None, :]
    onto, hit = jumped.argmax(axis=1), jumped.any(axis=1)
    G = G & ~hit

    tracked, singular, nonisolated = ((x & G.ravel()).reshape(T, -1).sum(axis=1).tolist()
                                      for x in (tracked_clean, near_ok, nonisolated))
    points, real, borderline, real_singular = _classify(Ms, p, G.ravel())
    results = []
    for k in range(T):
        i = slice(k * paths, (k + 1) * paths)
        results.append(SolutionSet(
            p[i], residuals[i], points[i][real[i]], tracked=tracked[k],
            singular=singular[k], failed=paths - tracked[k] - singular[k],
            nonisolated=nonisolated[k], borderline=int(borderline[i].sum()),
            real_singular=int(real_singular[i].sum()), work=work[k], path_log=tuple(
                f"path {j}: jumped onto path {onto[k, j]}'s endpoint" if hit[k, j] else
                f"path {j}: stalled at t = {t[k * paths + j]:.12f}, residual "
                f"{residuals[k * paths + j]:.3e}" for j in np.flatnonzero(~G[k]))))
    return results


def _classify(Ms, p, good):
    """Reality of the good endpoints among the rows p: after phase alignment,
    those with |Im| < _BORDERLINE_RATIO |Re| are polished as real points by
    _polish, and are real if |Im| < _REAL_RATIO |Re| and the polished point
    solves Ms, else borderline.  Returns the polished points and the masks
    real, borderline and real-singular (a non-isolated real family)."""
    big = p[np.arange(len(p)), np.abs(p).argmax(axis=1)]
    aligned = p * (big.conj() / np.abs(big))[:, None]
    ratio = np.linalg.norm(aligned.imag, axis=1) / np.linalg.norm(aligned.real, axis=1)
    rows = np.flatnonzero(good & (ratio < _BORDERLINE_RATIO))
    Ms, x = Ms[rows], aligned.real[rows]
    x = x / np.linalg.norm(x, axis=1, keepdims=True)
    _polish(Ms, x)
    F, J = _target(Ms, x)
    real = (ratio[rows] < _REAL_RATIO) & (np.abs(F).max(axis=1) < _RESIDUAL_TOL)
    points = np.zeros(p.shape, dtype=x.dtype)
    points[rows] = x
    masks = np.zeros((3, len(p)), dtype=bool)
    masks[:, rows] = real, ~real, real & ~_full_rank(J, x)
    return points, *masks
