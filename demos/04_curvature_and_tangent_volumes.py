"""Curvature integrals for the volume of the manifold of tangent flats.

For a convex hypersurface the tangent-flat volume ratio is a Gamma-factor
times the surface integral of the elementary symmetric polynomials of the
principal curvatures.  In RP^3 the tangent-line volume also has a formula
valid without convexity, integrating the direction-averaged absolute normal
curvature; on convex bodies the two must agree, and they do to machine
precision.  Each body is sampled once on the grid, and every quadrature
reads that sample.
"""
import numpy as np

import tangentflats as tf

grid = tf.surface_grid(3, 4)

print("metric sphere r = pi/4 in RP^3: quadrature vs closed form")
body = tf.metric_sphere(3, np.pi / 4)
prof = tf.tangent_volume_ratio_profile(tf.surface_sample(body, grid))
for k in range(3):
    closed = tf.sphere_tangent_ratio(k, 3, np.pi / 4)
    print(f"  k={k}: quadrature {prof[k]:.12f}   closed {closed:.12f}")

print("\nellipsoid with semiaxes (1.5, 0.9, 0.6):")
ell = tf.ellipsoid(3, [1.5, 0.9, 0.6])
sample = tf.surface_sample(ell, grid)
prof = tf.tangent_volume_ratio_profile(sample)
print(f"  ratios by curvature integral: {np.round(prof, 8)}")

sch = tf.schubert_volume(1, 3)
via_h = tf.tangent_line_volume_rp3(sample) / sch
print(f"  k=1 ratio via |normal curvature| average: {via_h:.10f}")
print(f"  relative difference: {abs(via_h - prof[1]) / prof[1]:.2e}")

print("\ncurvature at a single point of the ellipsoid:")
x = np.array([[1.0, 1.5, 0.0, 0.0]])
x = x / np.linalg.norm(x)
d = tf.principal_curvature_arrays(ell, x, ell.surface_gradient(x))
sigma1, sigma2 = (tf.elementary_symmetric(d, k)[0] for k in (1, 2))
print(f"  principal curvatures at the long-axis endpoint: {d[0]}")
print(f"  sigma_1 = {sigma1:.8f},  sigma_2 = {sigma2:.8f}")

# the normal curvature along a uniform tangent direction z is (z^2 . d) / |z|^2
z = tf.RngStream(5).generator().standard_normal((50_000, 2)) ** 2
vals = np.abs(z @ d[0]) / z.sum(axis=1)
print(f"  E|restricted form| over random tangent lines: {vals.mean():.6f}"
      f" +- {vals.std(ddof=1) / np.sqrt(len(vals)):.6f}   (sigma_1/2 = {sigma1 / 2:.6f})")

print("\na non-convex star-shaped quartic (mixed curvature signs):")
terms, expo = [], []
for j in (1, 2, 3):
    e = [0, 0, 0, 0]; e[j] = 4
    terms.append(1.0); expo.append(list(e))
for (i, j) in ((1, 2), (2, 3), (1, 3)):
    e = [0, 0, 0, 0]; e[i] = 2; e[j] = 2
    terms.append(-0.9); expo.append(list(e))
terms.append(-0.3); expo.append([4, 0, 0, 0])
bumpy = tf.implicit_surface(3, terms, expo)
sample = tf.surface_sample(bumpy, grid)
vol_h = tf.tangent_line_volume_rp3(sample)
est = tf.tangent_volume_ratio_semialgebraic(sample, 1, 64, tf.RngStream(9))
print(f"  tangent-line ratio via |normal curvature|: {vol_h / sch:.6f}")
print(f"  same by Monte Carlo over tangent planes:   {est.mean:.6f}"
      f" +- {est.stderr:.6f}")
