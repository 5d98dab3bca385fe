"""Hypersurface descriptions: metric spheres, affine spheres, ellipsoids,
general quadrics and homogeneous implicit surfaces.

Every body lives in RP^n and is handled on the double cover S^n as the zero
set of a homogeneous polynomial F.  For the quadric-backed kinds the
defining matrix is normalized so that exactly one eigenvalue is negative;
the convex region is then {x : x^T A x < 0} and the negative eigenvector is
an interior point usable as a star center for parametrization.

Body files are plain key-value text; see `parse_body_text` for the schema.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import pi, tan

import numpy as np


class BodyError(ValueError):
    pass


class NonConvexQuadricError(BodyError):
    """Quadric matrix does not bound a strictly convex region."""


class BodyFileError(BodyError):
    """Malformed body file; carries the offending line number (None: the whole file)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _array(value, dtype, message: str) -> np.ndarray:
    """value as an array of dtype; a ragged or non-numeric one is refused
    with a BodyError whose message names the expected shape."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError):
        raise BodyError(message) from None


def _monomials(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Monomials x^e (M, N) at the points x (N, d) for the rows e of
    `exponents`, gathered from powers x^0 .. x^deg built by multiplication."""
    xt = x.T
    powers = np.empty((int(exponents.max(initial=0)) + 1,) + xt.shape)
    powers[0] = 1.0
    for k in range(1, powers.shape[0]):
        powers[k] = powers[k - 1] * xt
    mono = powers[exponents[:, 0], 0]
    for j in range(1, xt.shape[0]):
        mono = mono * powers[exponents[:, j], j]
    return mono


def _partial(coeffs: np.ndarray, exponents: np.ndarray, j: int):
    """Coefficients and exponents of the partial derivative in x_j."""
    keep = exponents[:, j] > 0
    e = exponents[keep].copy()
    c = coeffs[keep] * e[:, j]
    e[:, j] -= 1
    return c, e


def _evaluate(x: np.ndarray, parts) -> np.ndarray:
    """Values (len(parts), N) of polynomials given as (coeffs, exponents)."""
    x = np.atleast_2d(x)
    return np.stack([c @ _monomials(x, e) for c, e in parts])


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Homogeneous polynomial in n+1 variables given by monomials; the terms
    of its first and second partial derivatives are tabulated at construction."""

    coeffs: np.ndarray        # (M,)
    exponents: np.ndarray     # (M, n+1) nonnegative ints
    _gradient: list = field(init=False, repr=False, compare=False)
    _hessian: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        message = "need M coefficients and an M x (n+1) array of integer exponents"
        c, e = _array(self.coeffs, float, message), _array(self.exponents, int, message)
        if c.ndim != 1 or e.ndim != 2 or c.shape[0] != e.shape[0]:
            raise BodyError(message)
        degs = e.sum(axis=1)
        if len(set(degs.tolist())) != 1:
            raise BodyError("polynomial must be homogeneous")
        if (e < 0).any() or not np.isfinite(c).all():
            raise BodyError("exponents must be nonnegative and coefficients finite")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "exponents", e)
        d = e.shape[1]
        grad = [_partial(c, e, j) for j in range(d)]
        # upper triangle, row by row, in the order of np.triu_indices
        hess = [_partial(*grad[i], j) for i in range(d) for j in range(i, d)]
        object.__setattr__(self, "_gradient", grad)
        object.__setattr__(self, "_hessian", hess)

    @property
    def nvars(self) -> int:
        return self.exponents.shape[1]

    @property
    def degree(self) -> int:
        return int(self.exponents[0].sum())

    def value(self, x: np.ndarray) -> np.ndarray:
        return _evaluate(x, [(self.coeffs, self.exponents)])[0]

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """(N, n+1), a view of a node-last (n+1, N) array."""
        return _evaluate(x, self._gradient).T

    def hessian(self, x: np.ndarray) -> np.ndarray:
        """(N, n+1, n+1), a view of a node-last (n+1, n+1, N) array."""
        upper = _evaluate(x, self._hessian)
        i, j = np.triu_indices(self.nvars)
        out = np.empty((self.nvars, self.nvars, upper.shape[1]))
        out[i, j] = out[j, i] = upper
        return out.transpose(2, 0, 1)


@dataclass(frozen=True)
class ConvexBody:
    """A hypersurface in RP^n.

    For the quadric-backed kinds `matrix` is the normalized defining form
    (one negative eigenvalue), which encodes any affine chart; a metric
    sphere also keeps its geodesic `radius`.  For the implicit kind `poly`
    holds the homogeneous polynomial and `center` an interior star point on
    S^n.  `convex` records whether strict convexity is guaranteed by
    construction (quadric kinds) or merely declared (implicit kind).
    """

    kind: str
    n: int
    convex: bool
    matrix: np.ndarray | None = None
    poly: HomogeneousPolynomial | None = None
    center: np.ndarray | None = None
    radius: float | None = None

    def defining_matrix(self) -> np.ndarray:
        if self.matrix is None:
            raise BodyError(f"body kind {self.kind!r} has no quadric matrix")
        return self.matrix

    @cached_property
    def eigh(self):
        """Eigendecomposition of the quadric matrix, computed once per body."""
        return np.linalg.eigh(self.defining_matrix())

    def star_center(self) -> np.ndarray:
        """Interior point on S^n from which the surface is star-shaped."""
        if self.center is not None:
            return self.center
        return self.eigh[1][:, 0]

    def surface_value(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.matrix is not None:
            return ((x @ self.matrix) * x).sum(axis=1)
        return self.poly.value(x)

    def surface_gradient(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.matrix is not None:
            return (2.0 * self.matrix @ x.T).T
        return self.poly.gradient(x)

    def surface_hessian(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.matrix is not None:
            return np.broadcast_to(2.0 * self.matrix,
                                   (x.shape[0],) + self.matrix.shape)
        return self.poly.hessian(x)

    def interior_sign(self) -> float:
        """Sign of F on the declared interior region."""
        c = self.star_center()
        return float(np.sign(self.surface_value(c[None, :])[0]))


def _normalize_quadric(A: np.ndarray) -> np.ndarray:
    if not np.isfinite(A).all():
        raise BodyError("quadric matrix entries must be finite")
    A = 0.5 * A + 0.5 * A.T
    lam = np.linalg.eigvalsh(A)
    if np.abs(lam).min() < 1e-12 * np.abs(lam).max():
        raise NonConvexQuadricError("quadric matrix is singular")
    neg = int((lam < 0).sum())
    d = A.shape[0]
    if neg == d - 1:
        A = -A
        neg = 1
    if neg != 1:
        raise NonConvexQuadricError(
            f"signature has {neg} negative eigenvalues; a convex-bounding "
            "quadric needs exactly one after sign normalization")
    return A


def metric_sphere(n: int, radius: float) -> ConvexBody:
    """Metric sphere of geodesic radius r in RP^n: the quadric
    x_1^2 + ... + x_n^2 = tan(r)^2 x_0^2."""
    if not 0 < radius < pi / 2:
        raise BodyError("metric sphere radius must lie in (0, pi/2)")
    A = np.diag([-tan(radius) ** 2] + [1.0] * n)
    return ConvexBody("metric_sphere", n, True, matrix=A, radius=radius)


def affine_sphere(n: int, center, radius: float, chart: int = 0) -> ConvexBody:
    """Euclidean sphere in the affine chart x_chart = 1; convex in RP^n for
    any center and radius but not a metric sphere unless centered."""
    message = f"center must have {n} chart coordinates"
    center = _array(center, float, message)
    if center.shape != (n,):
        raise BodyError(message)
    if radius <= 0:
        raise BodyError("radius must be positive")
    if not 0 <= chart <= n:
        raise BodyError(f"chart must be one of 0..{n}, got {chart}")
    A = np.zeros((n + 1, n + 1))
    rest = [j for j in range(n + 1) if j != chart]
    A[rest, rest] = 1.0
    A[chart, rest] = -center
    A[rest, chart] = -center
    with np.errstate(all="ignore"):     # an overflow is refused as not finite
        A[chart, chart] = center @ center - radius * radius
    return ConvexBody("affine_sphere", n, True, matrix=_normalize_quadric(A))


def ellipsoid(n: int, semiaxes, chart: int = 0) -> ConvexBody:
    """Axis-aligned ellipsoid in the affine chart x_chart = 1."""
    semiaxes = _array(semiaxes, float, f"need {n} positive semiaxes")
    if semiaxes.shape != (n,) or not (semiaxes > 0).all():
        raise BodyError(f"need {n} positive semiaxes")
    if not 0 <= chart <= n:
        raise BodyError(f"chart must be one of 0..{n}, got {chart}")
    diag = np.empty(n + 1)
    rest = [j for j in range(n + 1) if j != chart]
    diag[chart] = -1.0
    with np.errstate(over="ignore", divide="ignore"):   # inf and 0 are refused
        diag[rest] = 1.0 / semiaxes ** 2
    _normalize_quadric(np.diag(diag))       # finite and nonsingular, as for `quadric`
    return ConvexBody("ellipsoid", n, True, matrix=np.diag(diag))


def quadric(A) -> ConvexBody:
    """General convex-bounding quadric {x^T A x = 0}; the matrix is sign
    normalized to a single negative eigenvalue and symmetrized, and scaled by
    a power of two, exactly, so that its largest entry lies in [1, 2)."""
    message = "need a square (n+1) x (n+1) quadric matrix with n >= 1"
    A = _array(A, float, message)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or len(A) < 2:
        raise BodyError(f"{message}, got shape {A.shape}")
    if np.isfinite(A).all():            # else refused by _normalize_quadric
        A = np.ldexp(A, 1 - np.frexp(np.abs(A).max(initial=0))[1])
    n = A.shape[0] - 1
    return ConvexBody("quadric", n, True, matrix=_normalize_quadric(A))


def implicit_surface(n: int, coeffs, exponents, center=None,
                     convex: bool = False) -> ConvexBody:
    """Hypersurface {F = 0} for a homogeneous polynomial F, star-shaped
    around `center` (defaults to e_0).  Convexity is declared, not proven;
    the quadrature routines verify it at their nodes when required."""
    poly = HomogeneousPolynomial(coeffs, exponents)
    if poly.nvars != n + 1:
        raise BodyError(f"polynomial must have {n + 1} variables")
    if center is None:
        center = np.eye(n + 1)[0]
    message = f"center must have {n + 1} homogeneous coordinates"
    center = _array(center, float, message)
    if center.shape != (n + 1,):
        raise BodyError(message)
    if not 0 < np.linalg.norm(center) < np.inf:
        raise BodyError("center must be a finite nonzero vector")
    center = center / np.linalg.norm(center)
    return ConvexBody("implicit", n, convex, poly=poly, center=center)


# ---------------------------------------------------------------------------
# body files

#: Largest n of a body file: 2 Gamma((n+1)/2) in the closed-form sphere
#: ratio overflows from n = 342 and the quadrature grid refuses from n = 11,
#: so no command returns a result beyond, and a matrix of (n+1)^2 entries
#: may not fit.
MAX_BODY_DIMENSION = 341


def parse_body_text(text: str, name: str = "<body>") -> ConvexBody:
    """Parse the key-value body format.

    Schema (one `key = value` per line, '#' starts a comment):

        kind = metric_sphere | affine_sphere | ellipsoid | quadric | implicit
        n = <int>
        radius = <float in radians>          # metric_sphere, affine_sphere
        center = <n floats>                  # affine_sphere (chart coords)
        semiaxes = <n floats>                # ellipsoid
        row = <n+1 floats>                   # quadric, one line per row
        term = <coeff> <n+1 integer exponents>   # implicit, repeated
        chart = <int>                        # optional, default 0
        convex = true | false                # implicit only, default false
    """
    fields: dict = {"row": [], "term": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BodyFileError(lineno, f"{name}: expected 'key = value', "
                                       f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "kind":
                fields["kind"] = value.lower()
            elif key == "n":
                fields["n"] = int(value)
            elif key == "radius":
                fields["radius"] = float(value)
            elif key == "chart":
                fields["chart"] = int(value)
            elif key == "convex":
                fields["convex"] = value.lower() in ("true", "yes", "1")
            elif key in ("center", "semiaxes"):
                fields[key] = [float(t) for t in value.split()]
            elif key == "row":
                fields["row"].append([float(t) for t in value.split()])
            elif key == "term":
                parts = value.split()
                fields["term"].append((float(parts[0]),
                                       [int(t) for t in parts[1:]]))
            else:
                raise BodyFileError(lineno, f"{name}: unknown key {key!r}")
        except BodyFileError:
            raise
        except (ValueError, IndexError) as exc:
            raise BodyFileError(lineno, f"{name}: bad value for {key!r}: "
                                        f"{exc}") from exc

    def require(key):
        if key not in fields:
            raise BodyFileError(None, f"{name}: missing required key {key!r}")
        return fields[key]

    kind = require("kind")
    n = require("n")
    if n < 1:       # RP^0 is a point, with no hypersurfaces
        raise BodyFileError(None, f"{name}: need n >= 1, got n = {n}")
    if n > MAX_BODY_DIMENSION:
        raise BodyFileError(None, f"{name}: need n <= {MAX_BODY_DIMENSION}, got n = {n}")
    chart = fields.get("chart", 0)
    try:
        if kind == "metric_sphere":
            return metric_sphere(n, require("radius"))
        if kind == "affine_sphere":
            return affine_sphere(n, require("center"), require("radius"), chart)
        if kind == "ellipsoid":
            return ellipsoid(n, require("semiaxes"), chart)
        if kind == "quadric":
            rows = fields["row"]
            if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
                raise BodyFileError(None, f"{name}: quadric needs {n + 1} rows "
                                          f"of {n + 1} entries")
            return quadric(np.array(rows))
        if kind == "implicit":
            terms = fields["term"]
            if not terms:
                raise BodyFileError(None, f"{name}: implicit body needs terms")
            coeffs = [t[0] for t in terms]
            expo = [t[1] for t in terms]
            if any(len(e) != n + 1 for e in expo):
                raise BodyFileError(None, f"{name}: each term needs {n + 1} exponents")
            return implicit_surface(n, coeffs, expo,
                                    center=fields.get("center"),
                                    convex=fields.get("convex", False))
    except BodyError as exc:
        if isinstance(exc, BodyFileError):
            raise
        raise BodyFileError(None, f"{name}: {exc}") from exc
    raise BodyFileError(None, f"{name}: unknown body kind {kind!r}")


def parse_body_file(path) -> ConvexBody:
    with open(path) as fh:
        return parse_body_text(fh.read(), name=str(path))

