"""The contract of the package's 14 immutable record types.

Every record takes its fields by position or keyword, in one order, rejects
a missing or unknown keyword, refuses assignment and deletion, and shows its
fields in that order in repr. A value record compares and hashes by its
fields; an identity record (one that holds arrays, fields or other records)
compares by identity.
"""

import copy
import math
import pickle

import numpy as np
import pytest

import fucik_branch
from fucik_branch import (Branch, BranchPoint, BranchSeed, EigenPair, Field, FucikCurves,
                          Grid, Jacobian, LSDecomposition, ProblemParams,
                          SolveReport, SolverError, SplitEigenPair, Termination,
                          TransformedField, VectorInequalityReport)

GRID = Grid(math.pi, 9)
U = Field(GRID, np.linspace(-1.0, 1.0, 9))
SEED = BranchSeed(k=2, which=1, gamma=0.5, p=3.0)
POINT = BranchPoint(s=0.0, lam=4.5, u=U, alpha=1e-3, l2=1e-3, h12=2e-3, in_cone=True,
                    corrector_tol=1e-10, iterations=2)

# Each value record's fields, in constructor order, followed by one variant
# per field that changes that field alone.
VALUES = {
    Grid: ({"length": math.pi, "n_interior": 199},
           [{"length": 2.0}, {"n_interior": 99}]),
    ProblemParams: ({"p": 3.0, "gamma": 0.5, "lam": 10.0},
                    [{"p": 4.0}, {"gamma": 0.25}, {"lam": 12.0}]),
    BranchSeed: ({"k": 2, "which": 1, "gamma": 0.5, "p": 3.0, "alpha0": 1e-3},
                 [{"k": 3}, {"which": 2}, {"gamma": 0.25}, {"p": 1.5}, {"alpha0": 2e-3}]),
    Termination: ({"kind": "MeetsTrivial", "mu": 1.0, "detail": ""},
                  [{"mu": 2.0}, {"detail": "why"}]),
    VectorInequalityReport: ({"p": 3.0, "n_samples": 10, "c1_emp": 0.5, "c2_emp": 1.5,
                              "c1_floor": 0.25, "violations": 0},
                             [{"p": 4.0}, {"n_samples": 11}, {"c1_emp": 0.6},
                              {"c2_emp": 1.6}, {"c1_floor": 0.3}, {"violations": 1}]),
}

IDENTITIES = {
    Field: {"grid": GRID, "values": np.zeros(9)},
    EigenPair: {"k": 1, "value": 1.0, "vector": U},
    SplitEigenPair: {"k": 2, "gamma": 0.5, "lambda1": 4.1, "lambda2": 4.4, "v1": U,
                     "v2": -U, "eta": 0.3},
    FucikCurves: {"lambda_plus": np.array([1.0]), "lambda_minus": np.array([2.0]),
                  "n_plus": np.array([1]), "n_minus": np.array([1])},
    SolveReport: {"solution": U, "iterations": 3, "final_residual": 1e-12,
                  "coercivity_estimate": 0.5, "ball_radius_used": math.inf},
    TransformedField: {"v": U, "coeff": 2.0},
    LSDecomposition: {"alpha": 0.5, "v": U},
    BranchPoint: {"s": 0.0, "lam": 4.5, "u": U, "alpha": 1e-3, "l2": 1e-3, "h12": 2e-3,
                  "in_cone": True, "corrector_tol": 1e-10, "iterations": 2,
                  "h12_original": None},
    Branch: {"seed": SEED, "points": (POINT,), "termination": Termination("MaxSteps"),
             "lambda_seed": 4.5, "eta": 0.3},
}

ALL = {**{cls: fields for cls, (fields, _) in VALUES.items()}, **IDENTITIES}
# the fields a constructor lets the caller leave out
DEFAULTS = {"length", "n_interior", "alpha0", "mu", "detail", "h12_original"}


def test_every_record_type_is_covered():
    classes = {obj for obj in map(fucik_branch.__dict__.get, fucik_branch.__all__)
               if isinstance(obj, type)}
    assert classes - {Jacobian, SolverError} == set(ALL)
    assert len(ALL) == 14


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = cls(**ALL[cls])
    for name, value in ALL[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value or name == "values"
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_repr_lists_the_fields_in_constructor_order(cls):
    record = cls(*ALL[cls].values())
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in ALL[cls])
    assert repr(record) == f"{cls.__name__}({fields})"


def test_repr_is_pinned():
    # the first is the seed line of a branch run's console.txt
    assert repr(SEED) == "BranchSeed(k=2, which=1, gamma=0.5, p=3.0, alpha0=0.001)"
    assert (repr(Termination("MeetsTrivial", mu=1.0))
            == "Termination(kind='MeetsTrivial', mu=1.0, detail='')")
    assert repr(Grid()) == "Grid(length=3.141592653589793, n_interior=199)"


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_constructor_rejects_a_missing_or_unknown_keyword(cls):
    fields = ALL[cls]
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    for name in fields.keys() - DEFAULTS:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in fields.items() if k != name})
    with pytest.raises(TypeError):
        cls(*fields.values(), 0)


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    fields, variants = VALUES[cls]
    a, b = cls(**fields), cls(*fields.values())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(fields.values()))
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(fields.values())
    for change in variants:
        other = cls(**{**fields, **change})
        assert a != other and not a == other, change


def test_equal_grids_are_one_cache_key():
    assert Grid() == Grid(math.pi, 199)
    assert hash(Grid()) == hash(Grid(math.pi, 199))
    assert len({Grid(), Grid(math.pi, 199), Grid(2.0, 199)}) == 2


def test_value_equality_takes_the_identity_shortcut_per_field():
    nan = float("nan")
    fields = {"p": 3.0, "n_samples": 10, "c2_emp": 1.5, "c1_floor": 0.25, "violations": 0}
    a = VectorInequalityReport(c1_emp=nan, **fields)
    assert a == a
    assert a == VectorInequalityReport(c1_emp=nan, **fields)
    assert a != VectorInequalityReport(c1_emp=float("nan"), **fields)


@pytest.mark.parametrize("cls", IDENTITIES, ids=lambda c: c.__name__)
def test_identity_records_compare_by_identity(cls):
    a, b = cls(**IDENTITIES[cls]), cls(**IDENTITIES[cls])
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_copies_and_pickles_keep_the_fields(cls):
    record = cls(**ALL[cls])
    if cls in VALUES:
        hash(record)  # as an lru_cache key would
    for clone in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and repr(clone) == repr(record)
        assert (clone == record) == (cls in VALUES)
        if cls in VALUES:
            assert hash(clone) == hash(record)


@pytest.mark.parametrize("n", [3, 199])
def test_copies_and_pickles_of_a_field_stay_frozen(n):
    u = Field(Grid(math.pi, n), np.linspace(-1.0, 1.0, n))
    for clone in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert type(clone) is Field and clone.grid == u.grid
        assert clone.values.tobytes() == u.values.tobytes()
        assert clone.values.flags.writeable is False
        with pytest.raises(ValueError):
            clone.values[0] = 2.0
