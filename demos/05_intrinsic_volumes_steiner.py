"""Intrinsic volumes, the Steiner tube formula, and the sum identity.

Each intrinsic volume of a convex body is a quarter of a tangent-flat
volume ratio, the Steiner formula reconstructs tube volumes from them, and
together with the region and polar volumes they always sum to 4 (after
normalizing by |S^n|).  Growing a spherical cap trades intrinsic volume
between the indices rather than growing all of them.
"""
import numpy as np

import tangentflats as tf

grid = tf.surface_grid(3, 4)

print("spherical cap of radius pi/6 in RP^3")
body = tf.metric_sphere(3, np.pi / 6)
profile = tf.compute_profile(body, grid)
print(f"  V = {np.round(profile.values, 8)}")
print(f"  |C| = {profile.volume:.8f}   |polar| = {profile.polar:.8f}"
      f"   reach estimate = {profile.reach:.6f}")

eps = 0.1
tube = tf.steiner_tube_volume(profile, eps)
cap = tf.body_volume(tf.surface_sample(tf.metric_sphere(3, np.pi / 6 + eps), grid))
print(f"  Steiner tube at eps={eps}: {tube:.10f}")
print(f"  cap of radius r+eps:       {cap:.10f}")

mc = tf.mc_tube_volume(body, eps, 400_000, tf.RngStream(12))
print(f"  direct Monte Carlo tube:   {mc.mean:.6f} +- {mc.stderr:.6f}")

print("\nsum identity 4|C|/|S^3| + 4|C*|/|S^3| + sum_k ratio_k = 4:")
for r in (np.pi / 6, np.pi / 4, np.pi / 3):
    res = tf.sum_identity_residual(tf.compute_profile(tf.metric_sphere(3, r), grid))
    print(f"  cap r={r:.4f}: residual {res:+.2e}")
gen = tf.RngStream(33).generator()
for _ in range(3):
    axes = np.exp(gen.uniform(np.log(0.6), np.log(1.8), size=3))
    res = tf.sum_identity_residual(tf.compute_profile(tf.ellipsoid(3, axes), grid))
    print(f"  ellipsoid {np.round(axes, 3)}: residual {res:+.2e}")

print("\nintrinsic-volume trade-off for growing caps:")
print("  r       V_0        V_1        V_2")
for r in np.linspace(0.2, np.pi / 2 - 0.2, 6):
    v = tf.compute_profile(tf.metric_sphere(3, r), grid).values
    print("  {:.3f}  {:.6f}  {:.6f}  {:.6f}".format(r, *v))
print("  (V_0 falls from 1/2, V_2 rises to 1/2, V_1 peaks at the"
      " self-dual radius pi/4)")
