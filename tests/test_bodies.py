import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tangentflats as tf
from tangentflats.bodies import BodyFileError, HomogeneousPolynomial


def test_metric_sphere_homogeneous_equation():
    r = 0.6
    body = tf.metric_sphere(3, r)
    # lifted points (cos r, sin r * omega) satisfy the quadric
    gen = tf.RngStream(1).generator()
    om = gen.standard_normal((20, 3))
    om /= np.linalg.norm(om, axis=1, keepdims=True)
    x = np.column_stack([np.full(20, np.cos(r)), np.sin(r) * om])
    assert np.abs(body.surface_value(x)).max() < 1e-12
    with pytest.raises(tf.BodyError):
        tf.metric_sphere(3, 2.0)


def test_quadric_signature_checks():
    with pytest.raises(tf.NonConvexQuadricError):
        tf.quadric(np.diag([-1.0, -1.0, 1.0, 1.0]))       # hyperboloid
    with pytest.raises(tf.NonConvexQuadricError):
        tf.quadric(np.diag([0.0, 1.0, 1.0, 1.0]))         # singular
    # sign normalization: n negatives flips to one negative
    b = tf.quadric(np.diag([1.0, -2.0, -3.0, -4.0]))
    lam = np.linalg.eigvalsh(b.matrix)
    assert (lam < 0).sum() == 1


def test_affine_sphere_membership():
    center = np.array([0.3, -0.2, 0.5])
    r = 0.4
    body = tf.affine_sphere(3, center, r)
    gen = tf.RngStream(2).generator()
    d = gen.standard_normal((20, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    pts = np.column_stack([np.ones(20), center + r * d])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.abs(body.surface_value(pts)).max() < 1e-12
    assert body.convex


def test_ellipsoid_membership_and_convexity():
    axes = np.array([1.5, 0.7, 0.9])
    body = tf.ellipsoid(3, axes)
    pts = np.column_stack([np.ones(3), np.diag(axes)])
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.abs(body.surface_value(pts)).max() < 1e-12


def test_rotate_body_membership_convention():
    gen = tf.RngStream(3).generator()
    body = tf.ellipsoid(3, [1.2, 0.8, 1.0])
    g = tf.haar_matrices(4, 1, tf.RngStream(4).generator())[0]
    moved = tf.quadric(g @ body.matrix @ g.T)
    # x on moved body iff g^T x on the original
    x = tf.surface_sample(body, tf.surface_grid(3, 2)).x
    assert np.abs(moved.surface_value(x @ g.T)).max() < 1e-10


def test_implicit_polynomial_evaluation():
    # F = x0^2 x1 - x2^3 is homogeneous of degree 3
    poly = tf.bodies.HomogeneousPolynomial(
        np.array([1.0, -1.0]), np.array([[2, 1, 0], [0, 0, 3]]))
    x = np.array([[1.0, 2.0, 1.0], [0.5, 1.0, -1.0]])
    assert np.allclose(poly.value(x), [1.0, 1.25])
    g = poly.gradient(x)
    assert np.allclose(g[0], [2 * 1 * 2, 1.0, -3.0])
    h = poly.hessian(x)
    assert np.allclose(h[0][0, 1], 2.0) and np.allclose(h[0][2, 2], -6.0)
    with pytest.raises(tf.BodyError):
        tf.bodies.HomogeneousPolynomial(np.array([1.0, 1.0]),
                                        np.array([[2, 0, 0], [1, 0, 0]]))


def _direct_terms(coeffs, exponents, x, partials=()):
    """Terms of a partial derivative of sum_m c_m x^e_m, by the x ** e
    formula, shape (N, M)."""
    c, e = coeffs.copy(), exponents.copy()
    for j in partials:
        c = c * e[:, j]
        e[:, j] = np.maximum(e[:, j] - 1, 0)
    return c * np.prod(x[:, None, :] ** e[None, :, :], axis=2)


@st.composite
def polynomials_and_points(draw):
    d = draw(st.integers(2, 4))
    degree = draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(st.integers(0, degree), min_size=d - 1,
                                  max_size=d - 1), min_size=1, max_size=6))
    # cut points of a composition of `degree` into d parts
    exponents = np.diff([[0] + sorted(r) + [degree] for r in rows], axis=1)
    coeffs = draw(st.lists(st.floats(-5, 5), min_size=len(rows),
                           max_size=len(rows)))
    coordinate = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                           st.floats(-3, 3))
    x = draw(st.lists(st.lists(coordinate, min_size=d, max_size=d),
                      min_size=1, max_size=5))
    return np.array(coeffs), exponents, np.array(x)


@settings(max_examples=200, deadline=None)
@given(polynomials_and_points())
def test_polynomial_matches_direct_powers(case):
    coeffs, exponents, x = case
    poly = HomogeneousPolynomial(coeffs, exponents)
    d = x.shape[1]

    def check(got, partials):
        terms = _direct_terms(coeffs, exponents, x, partials)
        # relative to the sum of |terms|, which bounds the rounding error
        assert np.all(np.abs(got - terms.sum(1))
                      <= 1e-13 * np.abs(terms).sum(1))

    check(poly.value(x), ())
    grad, hess = poly.gradient(x), poly.hessian(x)
    for i in range(d):
        check(grad[:, i], (i,))
        for j in range(d):
            check(hess[:, i, j], (i, j))


def test_polynomial_rejects_negative_exponents():
    with pytest.raises(tf.BodyError, match="nonnegative"):
        HomogeneousPolynomial(np.array([1.0, 1.0]),
                              np.array([[3, -1, 0], [0, 1, 1]]))


def floats(values):
    return " ".join(repr(float(v)) for v in values)


def bits(a):
    return None if a is None else (a.dtype, a.shape, a.tobytes())


def assert_same_body(parsed, built):
    """The same kind, fields and array bits."""
    def fields(b):
        poly = (None, None) if b.poly is None else (b.poly.coeffs, b.poly.exponents)
        return (b.kind, b.n, b.convex, b.radius,
                *map(bits, (b.matrix, b.center, *poly)))
    assert fields(parsed) == fields(built)


@pytest.mark.parametrize("text, body", [
    ("kind = metric_sphere\nn = 3\nradius = 0.5\n", tf.metric_sphere(3, 0.5)),
    ("kind = affine_sphere\nn = 3\ncenter = 0.1 0.2 -0.3\nradius = 0.4\n",
     tf.affine_sphere(3, [0.1, 0.2, -0.3], 0.4)),
    ("kind = ellipsoid\nn = 3\nsemiaxes = 1.0 0.8 0.5\n",
     tf.ellipsoid(3, [1.0, 0.8, 0.5])),
    ("kind = quadric\nn = 3\n" + "".join(
        f"row = {floats(r)}\n" for r in np.diag([-0.8, 1.0, 2.0, 0.5])),
     tf.quadric(np.diag([-0.8, 1.0, 2.0, 0.5]))),
    ("kind = implicit\nn = 3\nterm = 1.0 0 4 0 0\nterm = 1.0 0 0 4 0\n"
     "term = 1.0 0 0 0 4\nterm = -0.3 4 0 0 0\n",
     tf.implicit_surface(3, [1.0, 1.0, 1.0, -0.3],
                         [[0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4], [4, 0, 0, 0]])),
], ids=["metric_sphere", "affine_sphere", "ellipsoid", "quadric", "implicit"])
def test_body_files_parse_to_their_constructors(text, body):
    assert_same_body(tf.parse_body_text(text), body)


@st.composite
def quadric_body_files(draw):
    """A body file of a quadric kind, with repr floats, and its constructor's
    body.  A chart 0..n, or none for the default 0, is named on every kind;
    only affine spheres and ellipsoids read it."""
    n = draw(st.integers(2, 4))
    positive = st.floats(0.1, 10.0)
    kind = draw(st.sampled_from(
        ["metric_sphere", "affine_sphere", "ellipsoid", "quadric"]))
    lines = [f"kind = {kind}", f"n = {n}"]
    chart = draw(st.none() | st.integers(0, n))
    if chart is not None:
        lines.append(f"chart = {chart}")
    chart = chart or 0
    if kind == "metric_sphere":
        radius = draw(st.floats(0.01, 1.56))
        lines.append(f"radius = {radius!r}")
        return "\n".join(lines) + "\n", tf.metric_sphere(n, radius)
    if kind == "affine_sphere":
        center = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
        radius = draw(positive)
        lines += [f"center = {floats(center)}", f"radius = {radius!r}"]
        return "\n".join(lines) + "\n", tf.affine_sphere(n, center, radius, chart)
    if kind == "ellipsoid":
        axes = draw(st.lists(positive, min_size=n, max_size=n))
        lines.append(f"semiaxes = {floats(axes)}")
        return "\n".join(lines) + "\n", tf.ellipsoid(n, axes, chart)
    # one negative eigenvalue in a Haar-random frame
    lam = np.array(draw(st.lists(positive, min_size=n + 1, max_size=n + 1)))
    lam[0] = -lam[0]
    g = tf.haar_matrices(n + 1, 1, tf.RngStream(
        draw(st.integers(0, 2 ** 32 - 1))).generator())[0]
    A = g @ np.diag(lam) @ g.T
    lines += [f"row = {floats(row)}" for row in A]
    return "\n".join(lines) + "\n", tf.quadric(A)


@settings(max_examples=200, deadline=None)
@given(quadric_body_files())
def test_generated_quadric_body_files_parse_to_their_constructors(case):
    text, body = case
    assert_same_body(tf.parse_body_text(text), body)


@settings(max_examples=100, deadline=None)
@given(polynomials_and_points(),
       st.none() | st.sampled_from(["true", "Yes", "1", "false", "NO", "0"]),
       st.none() | st.integers(0, 2 ** 32 - 1))
def test_generated_implicit_body_files_parse_to_their_constructors(
        case, convex, seed):
    coeffs, exponents, _ = case
    d = exponents.shape[1]
    lines = ["kind = implicit", f"n = {d - 1}"]
    lines += [f"term = {float(c)!r} " + " ".join(map(str, e))
              for c, e in zip(coeffs, exponents)]
    center = None
    if seed is not None:
        center = tf.RngStream(seed).generator().standard_normal(d)
        lines.append(f"center = {floats(center)}")
    if convex is not None:
        lines.append(f"convex = {convex}")
    body = tf.implicit_surface(d - 1, coeffs, exponents, center=center,
                               convex=convex in ("true", "Yes", "1"))
    assert_same_body(tf.parse_body_text("\n".join(lines) + "\n"), body)


def test_body_file_errors_carry_line_numbers():
    with pytest.raises(BodyFileError) as err:
        tf.parse_body_text("kind = metric_sphere\nn == 3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(BodyFileError) as err:
        tf.parse_body_text("kind = metric_sphere\nn = 3\nradius = huge\n")
    assert "line 3" in str(err.value)
    with pytest.raises(BodyFileError):
        tf.parse_body_text("kind = dodecahedron\nn = 3\n")
    with pytest.raises(BodyFileError):
        tf.parse_body_text("kind = metric_sphere\nn = 3\n")   # missing radius
    with pytest.raises(BodyFileError) as err:
        tf.parse_body_text("kind = metric_sphere\nn = 3\nwobble = 1\n")
    assert "unknown key" in str(err.value)
    # an error of the whole file names no line
    with pytest.raises(BodyFileError) as err:
        tf.parse_body_text("kind = metric_sphere\nn = 3\n", name="q.body")
    assert err.value.line is None
    assert str(err.value) == "q.body: missing required key 'radius'"
