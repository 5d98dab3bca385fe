"""The product formula for the average tangent count, checked empirically.

The average number of lines tangent to four randomly rotated convex bodies
in RP^3 equals the expected degree times the product of their tangent
volume ratios.  Both sides are computable here: the right side from
curvature integrals and the reference expected degree, the left side by
counting real tangent lines with the homotopy solver over many random
rotations.
"""
import numpy as np

import tangentflats as tf

TRIALS = 150          # raise for tighter error bars
radii = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 4)
bodies = [tf.metric_sphere(3, r) for r in radii]

ratios = tuple(tf.sphere_tangent_ratio(1, 3, r) for r in radii)
formula = tf.average_tangent_count(
    tf.TangentCountInputs(1, 3, ratios, tf.EXPECTED_DEGREE_LINES_RP3))
print(f"spheres with radii {np.round(radii, 4)}")
print(f"  tangent volume ratios: {np.round(ratios, 6)}")
print(f"  product formula: {formula:.4f}")

est = tf.average_tangent_count_empirical(bodies, trials=TRIALS, seed=7)
print(f"  empirical over {TRIALS} rotations: {est.mean:.3f} +- {est.stderr:.3f}"
      f"   ({abs(est.mean - formula) / est.stderr:.2f} sigma away,"
      f" {est.degenerate} degenerate draws)")

print("\nmixing body kinds (an ellipsoid among spheres):")
grid = tf.surface_grid(3, 4)
mixed = [tf.metric_sphere(3, np.pi / 4), tf.ellipsoid(3, [1.3, 0.9, 0.7]),
         tf.metric_sphere(3, np.pi / 3), tf.affine_sphere(3, [0.2, 0.0, -0.1], 0.6)]
ratios = tuple(tf.tangent_volume_ratio_convex(tf.surface_sample(b, grid), 1)
               for b in mixed)
formula = tf.average_tangent_count(
    tf.TangentCountInputs(1, 3, ratios, tf.EXPECTED_DEGREE_LINES_RP3))
print(f"  ratios: {np.round(ratios, 6)}")
print(f"  product formula: {formula:.4f}")
est = tf.average_tangent_count_empirical(mixed, trials=TRIALS, seed=8)
print(f"  empirical: {est.mean:.3f} +- {est.stderr:.3f}"
      f"   ({abs(est.mean - formula) / est.stderr:.2f} sigma away)")

print("\nuniversal bound: the count can never average above"
      f" {tf.EXPECTED_DEGREE_LINES_RP3} * 4^4 = "
      f"{tf.EXPECTED_DEGREE_LINES_RP3 * 256:.1f}")
