"""Probabilistic enumerative geometry of flats tangent to convex
hypersurfaces in real projective space.

The library computes closed-form volumes of spheres, orthogonal groups,
Grassmannians and special Schubert hypersurfaces; curvature-integral volumes
of manifolds of tangent flats; spherical intrinsic volumes with the Steiner
tube formula; Monte Carlo estimates of the expected degree of the
Grassmannian of lines in RP^3; and exact real counts of lines tangent to
four quadrics by homotopy continuation, tying everything together in the
product formula for the average tangent count under random rotations.
"""

__version__ = "0.1.0"

from .rng import MCEstimate, RngStream
from .projective import (PLUCKER_PAIRING, ProjectivePoint, haar_matrices,
                         lines_to_plucker, plucker_embed, uniform_flat_frames)
from .volumes import (SchubertRatio, TangentCountInputs,
                      average_scaling_factor, average_tangent_count,
                      expected_degree_lines_asymptotic,
                      grassmannian_dimension, grassmannian_volume,
                      max_sphere_line_tangent_ratio, orthogonal_volume,
                      projective_grassmannian_volume, schubert_ratio,
                      schubert_volume, sphere_tangent_ratio, sphere_volume,
                      steiner_coefficient)
from .bodies import (BodyError, BodyFileError, ConvexBody,
                     NonConvexQuadricError, affine_sphere, ellipsoid,
                     format_body, implicit_surface, metric_sphere,
                     parse_body_file, parse_body_text, quadric, rotate_body)
from .curvature import (CurvatureFrame, NonConvexBodyError, QuadratureGrid,
                        SurfaceDegeneracyError, abs_normal_curvature_integral,
                        curvature_frame, elementary_symmetric, mean_abs_minor,
                        min_curvature_radius, surface_area, surface_grid,
                        tangent_line_volume_rp3, tangent_volume_ratio_convex,
                        tangent_volume_ratio_error,
                        tangent_volume_ratio_profile,
                        tangent_volume_ratio_semialgebraic)
from .intrinsic import (IntrinsicProfile, TubeRadiusError, body_volume,
                        bound_check, compute_profile, intrinsic_volume,
                        mc_tube_volume, polar_body, polar_volume,
                        steiner_tube_volume, sum_identity_residual)
from .schubert import (EXPECTED_DEGREE_LINES_RP3, TransversalCount,
                       UnsupportedIndicesError, count_line_transversals,
                       estimate_expected_degree, line_meet_form)
from .tangency import (DegenerateConfigurationError, PathFailureError,
                       SolutionSet, average_tangent_count_empirical,
                       count_real_tangent_lines, second_compound,
                       solve_tangency_system, tangency_quadric_of)
