"""Real lines tangent to four quadrics in RP^3 by homotopy continuation.

Tangency of a line to a quadric {x^T A x = 0} is a quadratic condition on
Pluecker coordinates, given by the second compound matrix of A; together
with the Pluecker quadric this yields five quadrics in P^5 with total
degree 2^5 = 32.  All 32 paths of a total-degree homotopy are tracked from
a start system of squared generic linear forms, with a random complex
factor on the start system so that paths avoid the real discriminant, a
predictor-corrector loop with adaptive steps, and renormalization to the
unit sphere of C^6 after every step (the patch row of the bordered Jacobian
is the conjugate of the current point).  The paths of several trials are
tracked together as rows of one array, each with its own t and step.

Endpoints are polished with Newton on the target system, deduplicated, and
classified real when, after phase alignment and a real Newton polish, the
imaginary part is negligible.  Paths that stall just short of t = 1 but
polish onto the solution set are flagged singular rather than lost: they
occur systematically for families whose tangency quadrics share a
positive-dimensional complex solution component (affine spheres all touch
the imaginary conic of their chart at infinity), and such components carry
no real lines.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .projective import PLUCKER_PAIRING, haar_matrices, plucker_index_pairs
from .rng import MCEstimate, RngStream

_TOTAL_PATHS = 32
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=5)))
_MAX_STEPS = 4000
_RETRIES = 2
#: Trials tracked together.  Larger chunks save a little more CPU time, but
#: peak memory grows by about 0.45 MB per trial of a chunk.
_CHUNK_TRIALS = 8
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


@dataclass(frozen=True)
class PluckerQuadric:
    """Symmetric quadratic form on Pluecker space cutting out the tangent
    lines of one quadric surface.

    For p the wedge of points u, v the value p^T M p equals
    (u^T A u)(v^T A v) - (u^T A v)^2: negative for secant lines, zero for
    tangents, positive for lines missing the real quadric.
    """

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.shape != (6, 6) or np.abs(M - M.T).max() > 1e-10:
            raise ValueError("need a symmetric 6x6 matrix")
        object.__setattr__(self, "matrix", M)

    def value(self, p: np.ndarray) -> float:
        return float(p @ self.matrix @ p)


def second_compound(A: np.ndarray) -> np.ndarray:
    """Second compound matrix: entries are the 2x2 minors det(A[{i,j},{k,l}])
    over lexicographic index pairs."""
    M, pairs = np.empty((6, 6)), plucker_index_pairs(4, 2)
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            M[a, b] = A[i, k] * A[j, l] - A[i, l] * A[j, k]
    return M


def tangency_quadric_of(A: np.ndarray) -> PluckerQuadric:
    """Tangency condition of the quadric {x^T A x = 0} on Pluecker space."""
    A = np.asarray(A, dtype=float)
    if A.shape != (4, 4):
        raise ValueError("tangency quadrics are built from 4x4 matrices")
    if abs(np.linalg.det(A)) < 1e-12 * np.linalg.norm(A) ** 4:
        raise ValueError("quadric matrix must be nonsingular")
    return PluckerQuadric(second_compound(0.5 * (A + A.T)))


@dataclass(frozen=True)
class SolutionSet:
    """Result of one tangency solve.

    solutions holds the polished endpoints with residual below tolerance on
    all five equations, unit-normalized in C^6; multiplicities counts the
    paths that merged into each.  real_solutions is the subset that passed
    the reality test.  Path accounting: tracked + singular + failed = 32.
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
        rank-deficient Jacobian, or cleanly tracked paths landing on a
        rank-deficient endpoint (a positive-dimensional solution set, as for
        a repeated quadric).

        Paths that stall just before t = 1 and polish onto a rank-deficient
        endpoint are NOT flagged: they indicate a complex excess component
        (as for four spheres) that carries no countable real lines, and are
        reported in `singular` instead.
        """
        return (self.merged > 0 or self.borderline > 0
                or self.real_singular > 0 or self.nonisolated > 0)


def _normalize_forms(quadrics) -> np.ndarray:
    """The four tangency forms and the Pluecker quadric, each of unit norm."""
    Ms = []
    for Q in quadrics:
        M = Q.matrix if isinstance(Q, PluckerQuadric) else np.asarray(Q, float)
        Ms.append(M / np.linalg.norm(M))
    Ms.append(PLUCKER_PAIRING / np.linalg.norm(PLUCKER_PAIRING))
    return np.array(Ms)


def _start_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit start solutions of every trial, the kernels of a - s b over the
    32 sign vectors s: (T * 32, 6) for a, b of shape (T, 5, 6)."""
    L = a[:, None] - _SIGNS[None, :, :, None] * b[:, None]
    starts = np.linalg.svd(L)[2][..., -1, :].conj().reshape(-1, 6)
    return starts / np.linalg.norm(starts, axis=1, keepdims=True)


def solve_tangency_system(quadrics, rng: RngStream, max_steps: int = _MAX_STEPS,
                          retries: int = _RETRIES) -> SolutionSet:
    """Track all 32 total-degree paths for four tangency quadrics plus the
    Pluecker quadric and classify the endpoints.

    A solve that loses paths is retried with a fresh random path-rotation
    constant (derived deterministically from the stream); once the retry
    budget is exhausted PathFailureError carries the per-path log.
    """
    if len(quadrics) != 4:
        raise ValueError("need exactly four tangency quadrics")
    last_error = None
    for attempt in range(retries + 1):
        try:
            return _solve_once(quadrics, rng.substream(attempt), max_steps)
        except PathFailureError as exc:
            last_error = exc
    raise last_error


def _solve_once(quadrics, rng: RngStream, max_steps: int) -> SolutionSet:
    result = _solve_batch(_normalize_forms(quadrics)[None], [rng], max_steps)[0]
    if isinstance(result, PathFailureError):
        raise result
    return result


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


def _track(K, gam, owner, p, max_steps):
    """Predictor-corrector continuation of the paths p (rows of the trials
    `owner`) from t = 0 to 1, in place, each with its own t and step dt; a
    trial stops after max_steps steps.  Every operation acts row by row, so
    no path depends on the others.  Returns t and the t where paths stalled."""
    t, stalled_t, dt = np.zeros(len(p)), np.zeros(len(p)), np.full(len(p), 0.1)
    active = np.full(len(p), max_steps > 0)
    steps, idx = np.zeros(owner[-1] + 1, dtype=int), owner[:0]
    while active.any():
        if active.sum() != len(idx):        # paths only ever leave the set
            idx = np.flatnonzero(active)
            Ka, ga, live = K[owner[idx]], gam[owner[idx]], np.unique(owner[idx])
        steps[live] += 1
        pc, tc = p[idx], t[idx]
        t_new = np.minimum(tc + dt[idx], 1.0)
        _, J, dH = _homotopy(Ka, ga, pc, tc)
        dp, ok = _newton_steps(J, pc, -dH * (t_new - tc)[:, None])
        pn = pc + dp
        prev = None
        for _ in range(3):
            H, J, _ = _homotopy(Ka, ga, pn, t_new)
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
        dt[acc] = np.minimum(dt[acc] * 1.5, 0.1)
        dt[idx[~ok]] *= 0.5
        dead = active & ((dt < 1e-9) | (steps[owner] >= max_steps))
        stalled_t[dead] = t[dead]
        active &= ~dead & (t < 1.0)
    return t, stalled_t


def _solve_batch(forms, rngs, max_steps: int) -> list:
    """Solve the systems (T, 5, 6, 6) of T trials together, one stream each.
    Returns, per trial, its SolutionSet or the PathFailureError its attempt
    ended in, the same bit for bit whichever trials share the batch."""
    T, gens = len(rngs), [rng.generator() for rng in rngs]
    gam = np.exp(2j * np.pi * np.array([gen.uniform() for gen in gens]))
    z = np.array([gen.standard_normal((4, 5, 6)) for gen in gens])
    a, b = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    K = np.concatenate([forms.reshape(T, 30, 6), a, b], axis=1)
    owner = np.repeat(np.arange(T), _TOTAL_PATHS)
    p = _start_points(a, b)
    t, stalled_t = _track(K, gam, owner, p, max_steps)
    reached = (t >= 1.0)
    near = (~reached) & (stalled_t >= 1.0 - _STALL_T)

    # polish at t = 1 with guarded minimum-norm Newton steps: the pseudo-
    # inverse handles endpoints on positive-dimensional components, where the
    # bordered Jacobian is rank deficient and a plain solve blows up.  A trial
    # stops once its residuals are all below 1e-15 or a round improves none.
    K, gam, ones = K[owner], gam[owner], np.ones(len(p))
    polishing = np.ones(T, dtype=bool)
    for _ in range(12):
        rows = np.flatnonzero(polishing[owner])
        F, J, _ = _homotopy(K[rows], gam[rows], p[rows], ones[rows])
        res_now = np.abs(F).max(axis=1)
        polishing &= np.bincount(owner[rows], res_now >= 1e-15, minlength=T) > 0
        keep = polishing[owner[rows]]
        if not keep.any():
            break
        rows, res_now = rows[keep], res_now[keep]
        pinv = np.linalg.pinv(_bordered(J[keep], p[rows]), rcond=1e-12)
        p_try = p[rows] - np.matmul(pinv[:, :, :5], F[keep][:, :, None])[..., 0]
        p_try = p_try / np.linalg.norm(p_try, axis=1, keepdims=True)
        F_try = _homotopy(K[rows], gam[rows], p_try, ones[rows])[0]
        improved = np.abs(F_try).max(axis=1) < res_now
        p[rows[improved]] = p_try[improved]
        polishing &= np.bincount(owner[rows], improved, minlength=T) > 0
    F, J, _ = _homotopy(K, gam, p, ones)
    residuals = np.abs(F).max(axis=1)
    small = residuals < _RESIDUAL_TOL
    good = (reached | near) & small
    tracked_clean, near_ok = reached & small, near & small

    # rank of the bordered Jacobian at every good endpoint: a clean track
    # onto a rank-deficient endpoint means the target solution set itself is
    # positive dimensional there (non-transverse configuration)
    sv = np.linalg.svd(_bordered(J[good], p[good]), compute_uv=False)
    nonisolated = tracked_clean.copy()
    nonisolated[good] &= sv[:, -1] < 1e-7 * sv[:, 0]

    # squared phase-aligned distances |x|^2 + |y|^2 - 2 |<x, y>|, good to about
    # 1e-15: pairs above 1e-12 are certainly further apart than _DEDUP_TOL
    P = p.reshape(T, _TOTAL_PATHS, 6)
    sq = (P.real ** 2 + P.imag ** 2).sum(axis=2)
    gram = np.abs(np.matmul(P.conj(), P.transpose(0, 2, 1)))
    close = sq[:, :, None] + sq[:, None, :] - 2.0 * gram < 1e-12

    tracked, singular, nonisolated = (
        x.reshape(T, -1).sum(axis=1) for x in (tracked_clean, near_ok, nonisolated))
    results = []
    for k in range(T):
        rows = slice(k * _TOTAL_PATHS, (k + 1) * _TOTAL_PATHS)
        g = good[rows]
        lost = int((~g).sum())
        if lost > 0.01 * _TOTAL_PATHS:
            results.append(PathFailureError(
                f"{lost} of {_TOTAL_PATHS} paths lost before t = 1",
                [f"path {i}: stalled at t = {stalled_t[rows][i]:.12f}, residual "
                 f"{residuals[rows][i]:.3e}" for i in np.flatnonzero(~g)]))
            continue
        sols, res = p[rows][g], residuals[rows][g]
        order = np.argsort(res)
        pairs = close[k][np.ix_(g, g)]
        np.fill_diagonal(pairs, False)
        kept, mult = _merge(sols, order) if pairs.any() else \
            (order, np.ones(len(order), dtype=int))
        results.append(_classify(
            forms[k], sols[kept], res[kept], mult, tracked=int(tracked[k]),
            singular=int(singular[k]), failed=lost, nonisolated=int(nonisolated[k])))
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


def _classify(Ms, solutions, residuals, multiplicities, **paths) -> SolutionSet:
    """Reality classification with a real Newton polish; a real solution with
    rank-deficient Jacobian signals a non-isolated real family."""
    real_pts, borderline, real_singular = [], 0, 0
    for sol in solutions:
        m = np.argmax(np.abs(sol))
        aligned = sol * (sol[m].conj() / abs(sol[m]))
        ratio = np.linalg.norm(aligned.imag) / np.linalg.norm(aligned.real)
        if ratio >= _BORDERLINE_RATIO:
            continue
        x = aligned.real / np.linalg.norm(aligned.real)
        for _ in range(8):
            J = 2.0 * np.einsum('sij,j->si', Ms, x)
            r = np.concatenate([-np.einsum('i,sij,j->s', x, Ms, x), [0.0]])
            x = x + np.linalg.lstsq(np.vstack([J, x[None, :]]), r, rcond=1e-12)[0]
            x = x / np.linalg.norm(x)
        real_res = np.abs(np.einsum('i,sij,j->s', x, Ms, x)).max()
        if ratio < _REAL_RATIO and real_res < _RESIDUAL_TOL:
            J = 2.0 * np.einsum('sij,j->si', Ms, x)
            sv = np.linalg.svd(np.vstack([J, x[None, :]]), compute_uv=False)
            if sv[-1] < 1e-7 * sv[0]:
                real_singular += 1
            real_pts.append(x)
        else:
            borderline += 1
    return SolutionSet(
        solutions, residuals, multiplicities,
        np.array(real_pts) if real_pts else np.empty((0, 6)),
        merged=int((multiplicities > 1).sum()), borderline=borderline,
        real_singular=real_singular, **paths)


def _moved_quadrics(bodies, rotations) -> list:
    """Tangency quadrics of the moved bodies g X, whose matrices are
    g A g^T (membership: x in gX iff g^T x in X)."""
    if len(bodies) != 4 or len(rotations) != 4:
        raise ValueError("need four bodies and four rotations")
    return [tangency_quadric_of(g @ body.defining_matrix() @ g.T)
            for body, g in zip(bodies, np.asarray(rotations, dtype=float))]


def count_real_tangent_lines(bodies, rotations, rng: RngStream) -> int:
    """Number of real lines tangent to four rotated quadric bodies in RP^3;
    raises DegenerateConfigurationError for non-isolated or borderline draws."""
    sols = solve_tangency_system(_moved_quadrics(bodies, rotations), rng)
    if sols.degenerate:
        raise DegenerateConfigurationError(
            f"merged endpoints: {sols.merged}, borderline reality: "
            f"{sols.borderline}, singular real solutions: "
            f"{sols.real_singular}, non-isolated endpoints: {sols.nonisolated}")
    return sols.real_count


def _tau_chunk(args) -> tuple[list[int], list[str]]:
    """Real tangent counts of a run of trials solved as one batch, and the
    path log of the first trial that lost paths after every retry (empty if
    none did); a discarded trial reads _DEGENERATE, or _PATHS_LOST.  Trials
    whose attempt loses paths go into a later batch with the next substream,
    as in solve_tangency_system."""
    bodies, seed, trials = args
    streams = [RngStream(seed, trial) for trial in trials]
    forms = np.array([_normalize_forms(_moved_quadrics(
        bodies, haar_matrices(4, 4, s.generator()))) for s in streams])
    rngs = [s.substream(1 << 32) for s in streams]
    results, pending = [None] * len(rngs), list(range(len(rngs)))
    for attempt in range(_RETRIES + 1):
        batch = _solve_batch(forms[pending], [rngs[i].substream(attempt)
                                              for i in pending], _MAX_STEPS)
        for i, result in zip(pending, batch):
            results[i] = result
        pending = [i for i in pending if isinstance(results[i], PathFailureError)]
        if not pending:
            break
    log = next(([f"trial {t}: {r}", *r.path_log] for t, r in zip(trials, results)
                if isinstance(r, PathFailureError)), [])
    return [_PATHS_LOST if isinstance(r, PathFailureError) else
            _DEGENERATE if r.degenerate else r.real_count for r in results], log


def _tau_trial(args) -> int:
    return _tau_chunk((*args[:2], [args[2]]))[0][0]


def average_tangent_count_empirical(bodies, trials: int, seed: int,
                                    workers: int = 1) -> MCEstimate:
    """Empirical average of real tangent-line counts over independent Haar
    rotation 4-tuples of the given bodies.

    Trials are solved in chunks of _CHUNK_TRIALS, and workers > 1 spreads
    whole chunks over a process pool; no count depends on the chunking.
    Degenerate draws are discarded and reported; more than five percent of
    them raises a diagnostic error.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    chunks = [(tuple(bodies), seed, range(i, min(i + _CHUNK_TRIALS, trials)))
              for i in range(0, trials, _CHUNK_TRIALS)]
    if workers > 1 and len(chunks) > 1:
        with Pool(min(workers, len(chunks))) as pool:
            parts = pool.map(_tau_chunk, chunks)
    else:
        parts = [_tau_chunk(c) for c in chunks]
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
