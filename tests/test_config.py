"""SolverConfig rejects every field value a solve could not use."""

import dataclasses
import math

import pytest

from fucik_branch.config import SolverConfig

FLOAT_FIELDS = ["tol_abs", "tol_rel", "alpha0"]
INT_FIELDS = ["max_steps"]


def test_fields_are_the_ones_callers_set():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == \
        ["tol_abs", "tol_rel", "alpha0", "max_steps"]


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_float_field_must_be_finite_and_positive(field):
    assert getattr(SolverConfig(**{field: 0.5}), field) == 0.5
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1e-3):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})


@pytest.mark.parametrize("field", INT_FIELDS)
def test_limit_must_be_an_int_at_least_1(field):
    assert getattr(SolverConfig(**{field: 1}), field) == 1
    for bad in (0, -3, 2.5, 3.0, True, math.nan, "4"):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: bad})
