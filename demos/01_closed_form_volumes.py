"""Closed-form volumes: spheres, orthogonal groups, Grassmannians, and the
special Schubert hypersurface.

Everything here is exact (up to double-precision Gamma evaluation); these
constants normalize all the integral-geometric quantities in the package.
"""
import numpy as np

import tangentflats as tf

print("unit spheres |S^n|")
for n in range(1, 7):
    print(f"  n={n}:  {tf.sphere_volume(n):.10f}")

print("\northogonal groups |O(n)| (recursion |O(n+1)| = |S^n| |O(n)|)")
for n in range(1, 6):
    print(f"  n={n}:  {tf.orthogonal_volume(n):.10f}")

print("\nGrassmannians of k-flats in RP^n and their Schubert ratios")
print("  (k, n)   |Gr(k+1,n+1)|   |Sch|/|Gr|      dim")
for n in range(2, 6):
    for k in range(n):
        vol = tf.projective_grassmannian_volume(k, n)
        ratio = tf.schubert_ratio(k, n)
        d = tf.grassmannian_dimension(k, n)
        print(f"  ({k}, {n})   {vol:12.6f}    {ratio:.8f}   {d}")

# the ratio is symmetric in k <-> n-1-k; lines in RP^3 give pi/4
print(f"\nlines in RP^3: ratio = {tf.schubert_ratio(1, 3):.10f}"
      f"  (pi/4 = {np.pi / 4:.10f})")
print(f"|Sch(1,3)| = {tf.schubert_volume(1, 3):.10f}"
      f"  (pi^3/2 = {np.pi ** 3 / 2:.10f})")
