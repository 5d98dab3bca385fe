import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


#: How TrackerWork adds each field; its defaults are the identities
WORK_RULES = {"path_steps": sum, "max_path_steps": max, "rejected_steps": sum, "min_dt": min,
              "retries": sum, "solves": sum, "null_space_ratio": max, "root_separation": min}
count, step = st.integers(0, 10 ** 6), st.floats(1e-12, 1.0) | st.just(math.inf)
works = st.builds(homotopy.TrackerWork, count, count, count, step, count, count,
                  st.floats(0.0, 1.0), step)


@given(st.lists(works, max_size=6), st.integers(0, 6))
def test_tracker_work_adds_each_field_by_its_rule(parts, cut):
    assert list(WORK_RULES) == [f.name for f in dataclasses.fields(homotopy.TrackerWork)]
    zero = homotopy.TrackerWork()
    total = sum(parts, zero)
    for name, rule in WORK_RULES.items():
        assert getattr(total, name) == rule([getattr(work, name) for work in (zero, *parts)]), name
    # any split of a sum adds up to the whole
    assert sum(parts[:cut], zero) + sum(parts[cut:], zero) == total


def test_a_singular_row_fails_alone_in_the_per_row_fallback():
    # one all-zero bordered row makes the stacked solve raise LinAlgError;
    # the per-row fallback marks that row only and solves the others alone
    gen = tf.RngStream(5).generator()
    J = gen.standard_normal((4, 5, 6)) + 1j * gen.standard_normal((4, 5, 6))
    p = gen.standard_normal((4, 6)) + 1j * gen.standard_normal((4, 6))
    rhs = [gen.standard_normal((4, 5)) + 1j * gen.standard_normal((4, 5)) for _ in range(2)]
    J[2], p[2] = 0, 0
    *steps, ok = homotopy._newton_steps(J, p, *rhs)
    assert ok.tolist() == [True, True, False, True]
    for x in steps:
        assert x.shape == (4, 6) and not x[2].any()
    for q in (0, 1, 3):
        *solo, solo_ok = homotopy._newton_steps(J[q:q + 1], p[q:q + 1],
                                                *(b[q:q + 1] for b in rhs))
        assert solo_ok.tolist() == [True]
        for x, y in zip(steps, solo):
            assert np.array_equal(x[q], y[0])
