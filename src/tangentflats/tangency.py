"""Real lines tangent to four quadrics in RP^3 by homotopy continuation.

Tangency of a line to a quadric {x^T A x = 0} is a quadratic condition on
Pluecker coordinates, given by the second compound matrix of A; together
with the Pluecker quadric this yields five quadrics in P^5, kept as arrays
of shape (..., 6, 6).  Two homotopies share one tracker:

- General quadrics: all 32 paths of a total-degree homotopy from a start
  system of squared generic linear forms, with a random complex factor so
  that paths avoid the real discriminant.
- Four metric spheres, A = I - w w^T with w = sec(r) g e_0: a parameter
  homotopy (Morgan and Sommese, 1989) along w(t) = W0 + tau (W1 - W0),
  tau = t / (t + gamma (1 - t)), from the 12 isolated solutions of a generic
  complex member W0.  For p = u ^ v the form is p.p - q.q with
  q = (w.u) v - (w.v) u = L(w) p, linear in w.  The other 20 total-degree
  paths end on the lines in the absolute quadric x.x = 0, tangent to every
  such sphere, and are not tracked.

The tracker has an RK4 predictor, a contracting Newton corrector and
adaptive steps, and renormalizes to the unit sphere of C^6 after every step
(the patch row of the bordered Jacobian is the conjugate of the current
point).  The paths of several trials are tracked together as rows of one
array, each with its own t and step.

Endpoints are checked on the normalized target system, deduplicated, and
classified real when, after phase alignment and a real Newton polish, the
imaginary part is negligible, each stage in one array pass over the batch.
On the 32-path route they are first polished with guarded Newton steps, and
paths that stall just short of t = 1 but polish onto the solution set are
flagged singular rather than lost: they occur for families whose tangency
quadrics share a positive-dimensional complex solution component, such as
spheres, and carry no real lines.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .bodies import BodyError
from .projective import PLUCKER_PAIRING, haar_matrices, plucker_index_pairs
from .rng import MCEstimate, RngStream, parallel_map

_TOTAL_PATHS = 32
_SPHERE_PATHS = 12              # isolated solutions of the sphere family
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=5)))
_MAX_STEPS = 4000
_MAX_DT = 0.25
_RETRIES = 2
#: Path rows tracked together: 8 general trials or 21 sphere trials.  More
#: rows save a little more CPU time, but peak memory grows with them.
_CHUNK_ROWS = 256
_SPHERE_START_SEED = 1989       # the generic member W0 and its solve
_STALL_T = 1e-4                 # paths stalling past 1 - _STALL_T may still polish
_RESIDUAL_TOL = 1e-10
_DEDUP_TOL = 1e-8
_REAL_RATIO = 1e-6
_BORDERLINE_RATIO = 1e-4
_DEGENERATE, _PATHS_LOST = -1, -2   # per-trial counts of discarded trials


class PathFailureError(RuntimeError):
    """More than one percent of the homotopy paths were lost; carries the
    per-path log for diagnosis."""

    def __init__(self, message, path_log):
        super().__init__(message)
        self.path_log = path_log


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

    solutions holds the polished endpoints with residual below tolerance on
    all five equations, unit-normalized in C^6; multiplicities counts the
    paths that merged into each.  real_solutions is the subset that passed
    the reality test.  Path accounting: tracked + singular + failed = 32,
    or 12 on the sphere route.
    """

    solutions: np.ndarray           # (S, 6) complex
    residuals: np.ndarray           # (S,)
    multiplicities: np.ndarray      # (S,) int
    real_solutions: np.ndarray      # (R, 6) float
    tracked: int
    singular: int
    failed: int
    merged: int
    borderline: int
    real_singular: int
    nonisolated: int

    @property
    def real_count(self) -> int:
        return self.real_solutions.shape[0]

    @property
    def finite_with_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def degenerate(self) -> bool:
        """Non-isolated behavior that makes the real count unreliable:
        merged endpoints, borderline reality, a real solution with
        rank-deficient Jacobian, or clean tracks onto a rank-deficient
        endpoint (a positive-dimensional solution set, as for a repeated
        quadric).  Paths that stall just before t = 1 and polish onto such an
        endpoint are NOT flagged: they mark a complex excess component (as
        for four spheres) with no countable real lines, and count in
        `singular` instead."""
        return any((self.merged, self.borderline, self.real_singular, self.nonisolated))


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


def _start_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit start solutions of every trial, the kernels of a - s b over the
    32 sign vectors s: (T * 32, 6) for a, b of shape (T, 5, 6)."""
    L = a[:, None] - _SIGNS[None, :, :, None] * b[:, None]
    starts = np.linalg.svd(L)[2][..., -1, :].conj().reshape(-1, 6)
    return starts / np.linalg.norm(starts, axis=1, keepdims=True)


def solve_tangency_system(quadrics, rng: RngStream) -> SolutionSet:
    """Track all 32 total-degree paths for four tangency forms (4, 6, 6) plus
    the Pluecker quadric and classify the endpoints.

    A solve that loses paths is retried with a fresh random path-rotation
    constant (derived deterministically from the stream); once the retry
    budget is exhausted PathFailureError carries the per-path log.
    """
    if len(quadrics) != 4:
        raise ValueError("need exactly four tangency quadrics")
    return _solve_one(_normalize_forms(quadrics), rng)


def _solve_one(forms, rng, W=None):
    """A batch of one of _solve_trials that raises its PathFailureError."""
    result = _solve_trials(forms[None], [rng], None if W is None else W[None])[0]
    if isinstance(result, PathFailureError):
        raise result
    return result


def _solve_trials(forms, rngs, W=None):
    """_solve_batch with retries: trials whose attempt loses paths go into a
    later batch with the next substream of their stream."""
    results, pending = [None] * len(rngs), list(range(len(rngs)))
    for attempt in range(_RETRIES + 1):
        batch = _solve_batch(forms[pending],
                             [rngs[i].substream(attempt) for i in pending],
                             None if W is None else W[pending])
        for i, result in zip(pending, batch):
            results[i] = result
        pending = [i for i in pending if isinstance(results[i], PathFailureError)]
        if not pending:
            break
    return results


def _homotopy(K, gam, p, t):
    """Values, Jacobians and t-derivatives of H = (1 - t) gam G + t F at the
    rows p.  Row r carries its trial's five forms M_s of F(p) = p^T M_s p
    stacked as K[r, :30], and the linear forms a, b of the start system
    G(p) = (a p)^2 - (b p)^2 as K[r, 30:35] and K[r, 35:]."""
    W = np.matmul(K, p[:, :, None])[..., 0]
    Y = W[:, :30].reshape(-1, 5, 6)
    ap, bp = W[:, 30:35], W[:, 35:]
    F = np.matmul(Y, p[:, :, None])[..., 0]
    gG = gam[:, None] * (ap ** 2 - bp ** 2)
    s = (1 - t)[:, None]
    JG = 2.0 * (ap[:, :, None] * K[:, 30:35] - bp[:, :, None] * K[:, 35:])
    J = (s * gam[:, None])[:, :, None] * JG + 2.0 * t[:, None, None] * Y
    return s * gG + t[:, None] * F, J, F - gG


def _sphere_maps(W):
    """The linear maps L(w), q = L(w) p = (w.u) v - (w.v) u for p = u ^ v, of
    the four vectors W (..., 4, 4), stacked as (..., 16, 6)."""
    L = np.zeros(W.shape + (6,), dtype=W.dtype)
    for a, (i, j) in enumerate(plucker_index_pairs(4, 2)):
        L[..., j, a] = W[..., i]
        L[..., i, a] = -W[..., j]
    return L.reshape(W.shape[:-2] + (16, 6))


def _sphere_homotopy(L0, Ld, gam, p, t):
    """Values, Jacobians and t-derivatives of H(p, t) = F(p; w(t)), with
    w(t) = W0 + tau (W1 - W0) and tau = t / (t + gam (1 - t)), at the rows p:
    F_s(p) = p.p - q_s.q_s with q_s = L(w_s) p, equal to
    p^T C2(I - w_s w_s^T) p, and the Pluecker quadric.  L0 = L(W0) is shared;
    row r carries L(W1 - W0) of its trial as Ld[r]."""
    s = t + gam * (1 - t)
    M = L0 + (t / s)[:, None, None] * Ld
    q = np.matmul(M, p[:, :, None]).reshape(-1, 4, 4)
    qd = np.matmul(Ld, p[:, :, None]).reshape(-1, 4, 4)
    Pp = np.matmul(PLUCKER_PAIRING, p[:, :, None])[..., 0]
    F = np.concatenate([(p * p).sum(axis=1)[:, None] - (q * q).sum(axis=2),
                        (p * Pp).sum(axis=1)[:, None]], axis=1)
    Mq = np.matmul(M.reshape(-1, 4, 4, 6).transpose(0, 1, 3, 2), q[..., None])
    J = 2.0 * np.concatenate([p[:, None] - Mq[..., 0], Pp[:, None]], axis=1)
    dH = np.zeros_like(F)
    dH[:, :4] = -2.0 * (gam / s ** 2)[:, None] * (q * qd).sum(axis=2)
    return F, J, dH


@functools.cache
def _sphere_start():
    """L(W0) for a generic complex member W0 of the sphere family, and its 12
    isolated solutions: solved once per process, on first use, with the
    32-path homotopy from a fixed seed, keeping the endpoints of full rank
    (the other 20 lie on the excess component)."""
    gen = RngStream(_SPHERE_START_SEED).generator()
    L0 = _sphere_maps(gen.standard_normal((4, 4)) + 1j * gen.standard_normal((4, 4)))
    L = L0.reshape(4, 4, 6)
    C = np.eye(6) - L.transpose(0, 2, 1) @ L
    p = solve_tangency_system(C, RngStream(_SPHERE_START_SEED, 1)).solutions
    F, J = _target(np.broadcast_to(_normalize_forms(C), (len(p), 5, 6, 6)), p)
    sv = np.linalg.svd(_bordered(J, p), compute_uv=False)
    regular = sv[:, -1] > 1e-7 * sv[:, 0]
    if regular.sum() != _SPHERE_PATHS or np.abs(F[regular]).max() > 1e-12:
        raise RuntimeError("the sphere family's start system is not regular")
    p = p[regular]
    L0.flags.writeable = p.flags.writeable = False     # shared by every caller
    return L0, p


def _bordered(J, p):
    """Jacobians bordered by the patch row conj(p) of the unit sphere."""
    return np.concatenate([J, p.conj()[:, None]], axis=1)


def _newton_steps(J, p, rhs):
    """Bordered Newton steps; ok is False on rows whose system is singular."""
    Jb, b = _bordered(J, p), np.zeros((len(J), 6, 1), dtype=complex)
    b[:, :5, 0] = rhs
    ok = np.ones(len(J), dtype=bool)
    try:
        return np.linalg.solve(Jb, b)[..., 0], ok
    except np.linalg.LinAlgError:
        out = np.zeros((len(J), 6), dtype=complex)
        for q in range(len(J)):
            try:
                out[q] = np.linalg.solve(Jb[q], b[q])[:, 0]
            except np.linalg.LinAlgError:
                ok[q] = False
        return out, ok


def _track(evaluate, params, owner, p):
    """Predictor-corrector continuation of the paths p (rows of the trials
    `owner`) from t = 0 to 1, in place, each with its own t and step dt; a
    trial stops after _MAX_STEPS steps.  evaluate(*rows, p, t) gives H, dH/dp
    and dH/dt, where rows are the per-trial params taken at each path.  The
    predictor is classical RK4 on the path's tangent in the chart through
    the current point.  Every operation acts row by row, so no path depends
    on the others.  Returns the t each path reached or stalled at."""
    t, dt, active = np.zeros(len(p)), np.full(len(p), 0.1), np.ones(len(p), dtype=bool)
    steps, idx = np.zeros(owner[-1] + 1, dtype=int), owner[:0]
    while active.any():
        if active.sum() != len(idx):        # paths only ever leave the set
            idx = np.flatnonzero(active)
            rows, live = [x[owner[idx]] for x in params], np.unique(owner[idx])
        steps[live] += 1
        pc, tc = p[idx], t[idx]
        t_new = np.minimum(tc + dt[idx], 1.0)
        t_mid, h = tc + 0.5 * (t_new - tc), (t_new - tc)[:, None]

        def velocity(x, s):
            _, J, dH = evaluate(*rows, x, s)
            return _newton_steps(J, pc, -dH)

        k1, ok = velocity(pc, tc)
        k2, ok2 = velocity(pc + 0.5 * h * k1, t_mid)
        k3, ok3 = velocity(pc + 0.5 * h * k2, t_mid)
        k4, ok4 = velocity(pc + h * k3, t_new)
        ok &= ok2 & ok3 & ok4
        pn = pc + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        prev = None
        for _ in range(3):
            H, J, _ = evaluate(*rows, pn, t_new)
            dd, okc = _newton_steps(J, pn, -H)
            ok &= okc
            pn = pn + dd
            nrm = np.linalg.norm(dd, axis=1)
            if prev is not None:
                ok &= (nrm <= 0.5 * prev) | (nrm < 1e-12)
            prev = nrm
        ok &= prev < 1e-9
        acc = idx[ok]
        p[acc] = pn[ok] / np.linalg.norm(pn[ok], axis=1, keepdims=True)
        t[acc] = t_new[ok]
        dt[acc] = np.minimum(dt[acc] * 1.5, _MAX_DT)
        dt[idx[~ok]] *= 0.5
        dead = active & ((dt < 1e-9) | (steps[owner] >= _MAX_STEPS))
        active &= ~dead & (t < 1.0)
    return t


def _target(Ms, p):
    """Values and Jacobians of the target forms Ms (R, 5, 6, 6) at rows p."""
    Y = np.matmul(Ms, p[:, None, :, None])[..., 0]
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


def _solve_batch(forms, rngs, W=None) -> list:
    """Solve the systems (T, 5, 6, 6) of T trials together, one stream each:
    by the 12-path sphere homotopy when W (T, 4, 4) holds each trial's
    sphere vectors, else by the 32-path total-degree homotopy.  Returns, per
    trial, its SolutionSet or the PathFailureError its attempt ended in, the
    same bit for bit whichever trials share the batch."""
    T, gens = len(rngs), [rng.generator() for rng in rngs]
    gam = np.exp(2j * np.pi * np.array([gen.uniform() for gen in gens]))
    if W is None:
        z = np.array([gen.standard_normal((4, 5, 6)) for gen in gens])
        a, b = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
        K = np.concatenate([forms.reshape(T, 30, 6), a, b], axis=1)
        evaluate, params, p = _homotopy, (K, gam), _start_points(a, b)
    else:
        L0, starts = _sphere_start()
        evaluate = functools.partial(_sphere_homotopy, L0)
        params, p = (_sphere_maps(W) - L0, gam), np.tile(starts, (T, 1))
    paths = len(p) // T
    owner = np.repeat(np.arange(T), paths)
    t = _track(evaluate, params, owner, p)
    reached, near = t >= 1.0, (t < 1.0) & (t >= 1.0 - _STALL_T) & (W is None)
    Ms = forms[owner]
    if W is None:
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
    # 1e-15: pairs above 1e-12 are certainly further apart than _DEDUP_TOL
    P = p.reshape(T, paths, 6)
    sq = (P.real ** 2 + P.imag ** 2).sum(axis=2)
    gram = np.abs(np.matmul(P.conj(), P.transpose(0, 2, 1)))
    close = sq[:, :, None] + sq[:, None, :] - 2.0 * gram < 1e-12

    tracked, singular, nonisolated = (x.reshape(T, -1).sum(axis=1).tolist()
                                      for x in (tracked_clean, near_ok, nonisolated))
    G = good.reshape(T, paths)
    if W is not None:           # a path that ends on another's endpoint jumped
        G = G & ~np.triu(close & G[:, :, None] & G[:, None, :], 1).any(axis=1)
    paired = (close & G[:, :, None] & G[:, None, :]
              & ~np.eye(paths, dtype=bool)).any(axis=(1, 2))
    lost = (paths - G.sum(axis=1)).tolist()
    points, real, borderline, real_singular = _classify(Ms, p, G.ravel())
    results = []
    for k in range(T):
        if lost[k] > 0.01 * paths:
            results.append(PathFailureError(
                f"{lost[k]} of {paths} paths lost before t = 1",
                [f"path {i}: stalled at t = {t[k * paths + i]:.12f}, residual "
                 f"{residuals[k * paths + i]:.3e}" for i in np.flatnonzero(~G[k])]))
            continue
        g = k * paths + np.flatnonzero(G[k])
        order = np.argsort(residuals[g])
        kept, mult = _merge(p[g], order) if paired[k] else \
            (order, np.ones(len(order), dtype=int))
        i = g[kept]
        results.append(SolutionSet(
            p[i], residuals[i], mult, points[i][real[i]], tracked=tracked[k],
            singular=singular[k], failed=lost[k], nonisolated=nonisolated[k],
            merged=int((mult > 1).sum()), borderline=int(borderline[i].sum()),
            real_singular=int(real_singular[i].sum())))
    return results


def _merge(sols, order):
    """Greedy merge, in residual order, of endpoints closer than _DEDUP_TOL
    after phase alignment; returns the kept indices and multiplicities."""
    kept, mult = [], []
    for i in order:
        for j, kdx in enumerate(kept):
            ov = np.vdot(sols[kdx], sols[i])
            if abs(ov) > 0 and np.linalg.norm(
                    sols[i] * np.exp(-1j * np.angle(ov)) - sols[kdx]) < _DEDUP_TOL:
                mult[j] += 1
                break
        else:
            kept.append(i)
            mult.append(1)
    return np.array(kept, dtype=int), np.array(mult, dtype=int)


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


def _sphere_vectors(bodies, rotations):
    """The vectors w = sec(r) g e_0 of the moved bodies, for which
    g A g^T = I - w w^T, as (..., 4, 4) for rotations (..., 4, 4, 4); None
    unless all four bodies are metric spheres."""
    if any(body.kind != "metric_sphere" for body in bodies):
        return None
    return np.asarray(rotations, dtype=float)[..., 0] / np.cos(
        [body.radius for body in bodies])[:, None]


def count_real_tangent_lines(bodies, rotations, rng: RngStream) -> int:
    """Number of real lines tangent to four rotated quadric bodies in RP^3;
    raises DegenerateConfigurationError for non-isolated or borderline draws."""
    sols = _solve_one(_moved_quadrics(bodies, rotations), rng,
                      _sphere_vectors(bodies, rotations))
    if sols.degenerate:
        raise DegenerateConfigurationError(
            f"merged endpoints: {sols.merged}, borderline reality: "
            f"{sols.borderline}, singular real solutions: "
            f"{sols.real_singular}, non-isolated endpoints: {sols.nonisolated}")
    return sols.real_count


def _tau_chunk(args) -> tuple[list[int], list[str]]:
    """Real tangent counts of a run of trials solved as one batch, and the
    path log of the first trial that lost paths after every retry (empty if
    none did); a discarded trial reads _DEGENERATE, or _PATHS_LOST."""
    bodies, seed, trials = args
    streams = [RngStream(seed, trial) for trial in trials]
    gs = np.array([haar_matrices(4, 4, s.generator()) for s in streams])
    results = _solve_trials(_moved_quadrics(bodies, gs),
                            [s.substream(1 << 32) for s in streams],
                            _sphere_vectors(bodies, gs))
    log = next(([f"trial {t}: {r}", *r.path_log] for t, r in zip(trials, results)
                if isinstance(r, PathFailureError)), [])
    return [_PATHS_LOST if isinstance(r, PathFailureError) else
            _DEGENERATE if r.degenerate else r.real_count for r in results], log


# One trial and one attempt as batches of one; perfbench/tracer.py hooks both.
def _tau_trial(args) -> int:
    return _tau_chunk((*args[:2], [args[2]]))[0][0]


def _solve_once(quadrics, rng: RngStream) -> SolutionSet:
    result = _solve_batch(_normalize_forms(quadrics)[None], [rng.substream(0)])[0]
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
    five percent of them raises a diagnostic error.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    spheres = all(body.kind == "metric_sphere" for body in bodies)
    if spheres:
        _sphere_start()                 # once, before a pool forks
    size = _CHUNK_ROWS // (_SPHERE_PATHS if spheres else _TOTAL_PATHS)
    chunks = [((tuple(bodies), seed, range(i, min(i + size, trials))),)
              for i in range(0, trials, size)]
    parts = parallel_map(_tau_chunk, chunks, workers)
    counts = np.concatenate([c for c, _ in parts])
    ok = counts[counts >= 0]
    degenerate = int((counts < 0).sum())
    failed = int((counts == _PATHS_LOST).sum())
    if degenerate > 0.05 * trials:
        exc = DegenerateConfigurationError(
            f"{degenerate} of {trials} trials discarded ({degenerate - failed} "
            f"degenerate, {failed} lost paths after every retry)")
        exc.path_log = next((log for _, log in parts if log), [])
        raise exc
    mean = float(ok.mean())
    stderr = float(ok.std(ddof=1) / np.sqrt(ok.size)) if ok.size > 1 else 0.0
    return MCEstimate(mean, stderr, int(ok.size), seed, degenerate=degenerate,
                      failed=failed)
