"""Real lines tangent to four quadrics in RP^3 by homotopy continuation.

Tangency to a quadric is one quadratic condition on Pluecker coordinates;
with the Pluecker relation this gives five quadrics in P^5 and a total
degree of 32.  Generic quadrics attain 32 complex solutions; real ones
come in pairs.  Spheres are special: twelve isolated solutions plus an
excess complex family, which the solver tracks and reports separately.
"""
import numpy as np

import tangentflats as tf
from tangentflats.projective import haar_matrices

gen = tf.RngStream(42).generator()

print("four random Gaussian quadrics:")
quadrics = []
for _ in range(4):
    A = gen.standard_normal((4, 4))
    quadrics.append(tf.tangency_quadric_of(0.5 * (A + A.T)))
[sols] = tf.solve_tangency_system([quadrics], [tf.RngStream(1)])
print(f"  tracked {sols.tracked}, singular {sols.singular}, failed {sols.failed}")
print(f"  finite solutions: {len(sols.solutions)}")
print(f"  worst residual: {sols.residuals.max():.2e}")
print(f"  real tangent lines: {sols.real_count}")

print("\nfour rotated metric spheres of radius pi/4:")
bodies = [tf.metric_sphere(3, np.pi / 4)] * 4
gs = haar_matrices(4, 4, gen)
qs = [tf.tangency_quadric_of(g @ b.defining_matrix() @ g.T)
      for b, g in zip(bodies, gs)]
[sols] = tf.solve_tangency_system([qs], [tf.RngStream(2)])
print(f"  tracked {sols.tracked} (the isolated solutions), singular "
      f"{sols.singular} (the excess complex family)")
print(f"  real tangent lines this draw: {sols.real_count}")

# every solve is a batch: one call tracks the 25 draws together, one stream
# and one SolutionSet per draw
print("\nreal counts over 25 random rotations of the four spheres:")
gs = np.array([haar_matrices(4, 4, gen) for _ in range(25)])
solves = tf.count_real_tangent_lines(bodies, gs, [tf.RngStream(3, t) for t in range(25)])
counts = [sols.real_count for sols in solves]
print(f"  {counts}")
print(f"  all even; mean {np.mean(counts):.2f}"
      f"  (the product formula predicts {1.7262 * (4 / np.pi) ** 4:.3f})")

print("\nfour affine unit spheres never exceed 12 real common tangents:")
draws, gs = [], []
for trial in range(25):
    draws.append([tf.affine_sphere(3, gen.standard_normal(3), gen.uniform(0.3, 1.0))
                  for _ in range(4)])
    gs.append(haar_matrices(4, 4, gen))
solves = tf.count_real_tangent_lines(draws, np.array(gs),
                                     [tf.RngStream(4, t) for t in range(25)])
print(f"  max over 25 draws: {max(sols.real_count for sols in solves)}")
