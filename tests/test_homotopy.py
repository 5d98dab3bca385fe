import numpy as np
import pytest

import tangentflats as tf
from tangentflats import homotopy


def conics(a, b):
    """The circle x^2 + y^2 = z^2 and the ellipse x^2/a^2 + y^2/b^2 = z^2 as
    forms (2, 3, 3): two quadrics in P^2 with 4 total-degree paths."""
    return np.array([np.diag([1.0, 1.0, -1.0]), np.diag([a ** -2, b ** -2, -1.0])])


@pytest.mark.parametrize("a, b, real", [(2, 0.5, 4), (1.5, 0.8, 4), (2, 1.5, 0), (0.5, 0.7, 0)])
def test_two_conics_meet_in_their_real_count(a, b, real):
    # the ellipse crosses the unit circle in 4 real points when one semiaxis
    # is longer than 1 and the other shorter, and misses it otherwise; with
    # no real candidate the real polish gets no rows
    F = conics(a, b)
    sols = homotopy._solve_batch(F[None], [tf.RngStream(7, 0)], None)[0]
    assert isinstance(sols, homotopy.SolutionSet)
    assert (sols.tracked + sols.singular, sols.failed, len(sols.solutions)) == (4, 0, 4)
    assert sols.solutions.shape == (4, 3) and sols.residuals.max() < 1e-10
    assert sols.real_count == real and not sols.degenerate
    for x in sols.real_solutions:
        assert np.abs(np.einsum("i,kij,j->k", x, F, x)).max() < 1e-10

