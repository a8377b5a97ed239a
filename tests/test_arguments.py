"""Every public scalar and array parameter is checked by name: one table each, one rule each.

A real parameter refuses True, "1", None and an integer outside the float
range; an integer parameter refuses True, "1" and None.  OUT_OF_RANGE
adds, for every parameter whose rule is more than its type, values of
the type outside its range (a theta of 0 or 1.5, a NaN tol, a max_iter
or seed of -1, a rho of 2 beta, a reg whose planted rhs overflows).
OUT_OF_RANGE_AT does so where another argument sets the range: a rho
whose threshold rho * reg overflows at reg 10, a geometric law's ratio
passed as its exponent.  Each refusal is a ValueError
"<parameter> must <rule>, got <the value's repr>", the one form
`operators._real` and `_integer` give.  Where None is a legal value (an
operator without a dimension, a default, the absent regime-II pair), it
is not tried.  A second test reads the signatures of everything
`kmsolve` exports, so a new float or int parameter that is missing from
the table fails by name.

An array parameter refuses an entry that is a boolean, a string or other
value float() cannot read, an integer outside the float range, NaN or
None, with a ValueError whose message starts with "<parameter> must" or
"<parameter> contains".
"""

import inspect
import math
import re
import sys

import numpy as np
import pytest

import kmsolve
from kmsolve import (
    ErrorModel,
    IsmOperator,
    OperatorSpec,
    ParamSchedule,
    Problem,
    box_intersection_pieces,
    constant_schedule,
    delta_threshold,
    emit_error,
    iterate,
    lambda_ceiling_ii,
    lasso_fbs_pieces,
    make_affine,
    make_box_projection,
    make_fb_composition,
    make_identity,
    make_soft_threshold,
    plant_lasso,
    quadratic_gradient,
    solve_fbs,
    spectral_norm,
    validate_schedule,
)

HUGE = 10**400  # an integer that float() cannot convert


def _same(x):
    return x


def _schedule(**fields):
    return ParamSchedule(lambda k: 0.0, lambda k: 0.5, **fields)


def _fb_pieces():
    return make_soft_threshold(0.1, 2), IsmOperator(apply=_same, beta=1.0)


def _run(**options):
    prob = Problem(operator=make_identity(2), z0=[1.0, 0.0], z_star=[0.0, 0.0])
    return iterate(prob, _schedule(), **{"max_iter": 3, **options})


_LASSO = plant_lasso(n_samples=12, n_features=8, support_size=2, reg=0.4, seed=3)

# (callable, parameter): (build with the value, "real" or "integer", None is legal)
SCALARS = {
    ("OperatorSpec", "theta"): (lambda v: OperatorSpec(apply=_same, theta=v, dim=None), "real", False),
    ("OperatorSpec", "dim"): (lambda v: OperatorSpec(apply=_same, theta=1.0, dim=v), "integer", True),
    ("IsmOperator", "beta"): (lambda v: IsmOperator(apply=_same, beta=v), "real", False),
    ("make_identity", "dim"): (make_identity, "integer", True),
    ("make_soft_threshold", "gamma"): (lambda v: make_soft_threshold(v, 2), "real", False),
    ("make_soft_threshold", "dim"): (lambda v: make_soft_threshold(0.3, v), "integer", True),
    ("make_affine", "theta"): (lambda v: make_affine(0.5 * np.eye(2), np.zeros(2), theta=v), "real", False),
    ("make_fb_composition", "rho"): (lambda v: make_fb_composition(*_fb_pieces(), v), "real", False),
    ("ParamSchedule", "sigma"): (lambda v: _schedule(sigma=v, delta=1.0), "real", True),
    ("ParamSchedule", "delta"): (lambda v: _schedule(sigma=0.01, delta=v), "real", True),
    ("constant_schedule", "alpha"): (lambda v: constant_schedule(v, 0.5), "real", False),
    ("constant_schedule", "lam"): (lambda v: constant_schedule(0.1, v), "real", False),
    ("constant_schedule", "sigma"): (lambda v: constant_schedule(0.1, 0.5, sigma=v, delta=1.0), "real", True),
    ("constant_schedule", "delta"): (lambda v: constant_schedule(0.1, 0.5, sigma=0.01, delta=v), "real", True),
    ("ErrorModel", "magnitude"): (lambda v: ErrorModel(kind="power-decay", magnitude=v, exponent=2.0), "real", False),
    ("ErrorModel", "exponent"): (lambda v: ErrorModel(kind="power-decay", magnitude=0.1, exponent=v), "real", False),
    ("ErrorModel", "seed"): (lambda v: ErrorModel(kind="power-decay", seed=v), "integer", False),
    ("ErrorModel.power_decay", "magnitude"): (lambda v: ErrorModel.power_decay(v, 2.0), "real", False),
    ("ErrorModel.power_decay", "exponent"): (lambda v: ErrorModel.power_decay(0.1, v), "real", False),
    ("ErrorModel.power_decay", "seed"): (lambda v: ErrorModel.power_decay(0.1, 2.0, seed=v), "integer", False),
    ("ErrorModel.geometric", "magnitude"): (lambda v: ErrorModel.geometric(v, 0.5), "real", False),
    ("ErrorModel.geometric", "ratio"): (lambda v: ErrorModel.geometric(0.1, v), "real", False),
    ("ErrorModel.geometric", "seed"): (lambda v: ErrorModel.geometric(0.1, 0.5, seed=v), "integer", False),
    ("ErrorModel.from_norms", "seed"): (lambda v: ErrorModel.from_norms([0.1], seed=v), "integer", False),
    ("validate_schedule", "horizon"): (lambda v: validate_schedule(_schedule(), horizon=v), "integer", False),
    ("validate_schedule", "theta"): (lambda v: validate_schedule(_schedule(), theta=v), "real", False),
    ("delta_threshold", "alpha"): (lambda v: delta_threshold(v, 0.01), "real", False),
    ("delta_threshold", "sigma"): (lambda v: delta_threshold(0.1, v), "real", False),
    ("lambda_ceiling_ii", "alpha"): (lambda v: lambda_ceiling_ii(v, 0.01, 1.0), "real", False),
    ("lambda_ceiling_ii", "sigma"): (lambda v: lambda_ceiling_ii(0.1, v, 1.0), "real", False),
    ("lambda_ceiling_ii", "delta"): (lambda v: lambda_ceiling_ii(0.1, 0.01, v), "real", False),
    ("iterate", "tol"): (lambda v: _run(tol=v), "real", False),
    ("iterate", "max_iter"): (lambda v: _run(max_iter=v), "integer", False),
    ("iterate", "divergence_norm"): (lambda v: _run(divergence_norm=v), "real", False),
    ("solve_fbs", "rho"): (lambda v: solve_fbs(*_fb_pieces(), v, [1.0, 0.0], _schedule()), "real", False),
    ("plant_lasso", "n_samples"): (lambda v: plant_lasso(n_samples=v), "integer", False),
    ("plant_lasso", "n_features"): (lambda v: plant_lasso(n_features=v), "integer", False),
    ("plant_lasso", "support_size"): (lambda v: plant_lasso(support_size=v), "integer", False),
    ("plant_lasso", "reg"): (lambda v: plant_lasso(reg=v), "real", False),
    ("plant_lasso", "seed"): (lambda v: plant_lasso(seed=v), "integer", False),
    ("lasso_fbs_pieces", "rho"): (lambda v: lasso_fbs_pieces(_LASSO, v), "real", False),
    ("emit_error", "dim"): (lambda v: emit_error(ErrorModel.power_decay(0.1, 2.0), 0, v), "integer", False),
}

# (callable, parameter) of SCALARS: values of the parameter's type outside its range
OUT_OF_RANGE = {
    ("OperatorSpec", "theta"): [0.0, 1.5, -1.0, math.nan],
    ("OperatorSpec", "dim"): [0, -1],
    ("IsmOperator", "beta"): [0.0, -1.0, math.inf, math.nan],
    ("make_identity", "dim"): [0],
    ("make_soft_threshold", "gamma"): [0.0, -1.0, math.inf, math.nan],
    ("make_soft_threshold", "dim"): [0],
    ("make_affine", "theta"): [0.0, 1.5],
    # _fb_pieces has beta 1, so 2.0 is 2 beta; the message repeats the integer 2 as passed
    ("make_fb_composition", "rho"): [0.0, -1.0, 2.0, 2, math.inf, math.nan],
    ("ErrorModel", "magnitude"): [-1.0, math.inf, math.nan],
    ("ErrorModel", "exponent"): [math.inf, -math.inf, math.nan],
    ("ErrorModel", "seed"): [-1],
    ("ErrorModel.power_decay", "magnitude"): [-1.0],
    ("ErrorModel.power_decay", "exponent"): [math.inf],
    ("ErrorModel.power_decay", "seed"): [-1],
    ("ErrorModel.geometric", "magnitude"): [-1.0, math.inf],
    ("ErrorModel.geometric", "ratio"): [0.0, -0.5, math.inf, math.nan],
    ("ErrorModel.geometric", "seed"): [-1],
    ("ErrorModel.from_norms", "seed"): [-1],
    ("validate_schedule", "horizon"): [-1],
    ("validate_schedule", "theta"): [0.0, 1.5],
    ("delta_threshold", "alpha"): [-0.1, 1.0, math.nan],
    ("lambda_ceiling_ii", "alpha"): [-0.1, 1.0],
    ("lambda_ceiling_ii", "sigma"): [-1.0],
    ("lambda_ceiling_ii", "delta"): [0.0, -1.0],
    ("iterate", "tol"): [math.nan],
    ("iterate", "max_iter"): [-1],
    ("iterate", "divergence_norm"): [math.nan],
    ("solve_fbs", "rho"): [0.0, 2.0, 2],
    # n_features defaults to 200
    ("plant_lasso", "n_samples"): [199, 0],
    ("plant_lasso", "support_size"): [0, 201],
    # the largest float is finite, but the planted rhs = matrix @ x_star + reg * w overflows
    ("plant_lasso", "reg"): [-1.0, 0.0, math.inf, math.nan, sys.float_info.max],
    ("plant_lasso", "seed"): [-1],
    # at _LASSO's reg 0.4 the threshold rho * reg of the smallest float underflows to 0
    ("lasso_fbs_pieces", "rho"): [-1.0, 0.0, math.inf, 5e-324],
    ("emit_error", "dim"): [0, -1],
}

# (callable, parameter, the other argument's setting): (build with the value, values outside the range it sets)
OUT_OF_RANGE_AT = {
    # the threshold rho * reg of a finite rho overflows
    ("lasso_fbs_pieces", "rho", "reg=10"): (
        lambda v: lasso_fbs_pieces(plant_lasso(12, 8, 2, reg=10.0, seed=3), v),
        [1e308, sys.float_info.max],
    ),
    ("make_fb_composition", "rho", "beta=0.25"): (
        lambda v: make_fb_composition(make_soft_threshold(0.1, 2), IsmOperator(apply=_same, beta=0.25), v),
        [0.5, 1.0],
    ),
    ("ErrorModel", "exponent", "geometric"): (
        lambda v: ErrorModel(kind="geometric", magnitude=0.1, exponent=v),
        [0.0, -0.5, math.inf, math.nan],
    ),
    ("ErrorModel", "magnitude", "custom-list"): (
        lambda v: ErrorModel(kind="custom-list", norms=(0.1,), magnitude=v),
        [-1.0, math.nan],
    ),
    ("ErrorModel", "exponent", "custom-list"): (
        lambda v: ErrorModel(kind="custom-list", norms=(0.1,), exponent=v),
        [math.inf],
    ),
}

# float and int parameters the table leaves out, and why
NOT_ARGUMENTS = {
    # the step index, evaluated on every step of a run
    ("ErrorModel.norm_at", "k"),
    ("emit_error", "k"),
}
# exported records whose fields a computation fills in, not arguments
RECORDS = {
    "RunResult",
    "RateCertificate",
    "ConsistencyItem",
    "ConsistencyReport",
    "ConditionCheck",
    "ConditionReport",
    "LassoInstance",
}


def _cases():
    for (owner, param), (build, kind, none_ok) in SCALARS.items():
        values = {"True": True, "'1'": "1"}
        if not none_ok:
            values["None"] = None
        if kind == "real":
            values["huge"] = HUGE
        for label, value in values.items():
            yield pytest.param(build, param, value, id=f"{owner}-{param}-{label}")
    for (owner, param), values in OUT_OF_RANGE.items():
        for value in values:
            yield pytest.param(SCALARS[owner, param][0], param, value, id=f"{owner}-{param}-{value!r}")
    for (owner, param, setting), (build, values) in OUT_OF_RANGE_AT.items():
        for value in values:
            yield pytest.param(build, param, value, id=f"{owner}-{param}-{setting}-{value!r}")


@pytest.mark.parametrize("build, param, value", list(_cases()))
def test_a_bad_scalar_is_refused_by_name(build, param, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(param)} must .*, got {re.escape(repr(value))}$"):
        build(value)


def _scalar_parameters(name, fn):
    params = inspect.signature(fn).parameters.values()
    return {(name, p.name) for p in params if p.annotation in ("float", "int", "float | None", "int | None")}


def test_the_table_covers_every_exported_float_and_int_parameter():
    found = set()
    for name in kmsolve.__all__:
        obj = getattr(kmsolve, name)
        if name in RECORDS or not callable(obj):
            continue
        found |= _scalar_parameters(name, obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(member, classmethod)):
                    found |= _scalar_parameters(f"{name}.{attr}", getattr(obj, attr))
    listed = set(SCALARS) | NOT_ARGUMENTS
    assert sorted(found - listed) == []
    assert sorted(listed - found) == []


# (callable, parameter): build with the bad entry placed in an otherwise good array
ARRAYS = {
    ("Problem", "z0"): lambda v: Problem(operator=make_identity(2), z0=[v, 0.0]),
    ("Problem", "z_star"): lambda v: Problem(operator=make_identity(2), z0=[1.0, 0.0], z_star=[0.0, v]),
    ("make_affine", "matrix"): lambda v: make_affine([[0.5, v], [0.0, 0.5]], [0.0, 0.0]),
    ("make_affine", "offset"): lambda v: make_affine(0.5 * np.eye(2), [0.0, v]),
    ("make_box_projection", "lo"): lambda v: make_box_projection([v, 0.0], [1.0, 1.0]),
    ("make_box_projection", "hi"): lambda v: make_box_projection([0.0, 0.0], [1.0, v]),
    ("box_intersection_pieces", "lo1"): lambda v: box_intersection_pieces([v, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]),
    ("box_intersection_pieces", "hi1"): lambda v: box_intersection_pieces([0.0, 0.0], [1.0, v], [0.0, 0.0], [1.0, 1.0]),
    ("box_intersection_pieces", "lo2"): lambda v: box_intersection_pieces([0.0, 0.0], [1.0, 1.0], [v, 0.0], [1.0, 1.0]),
    ("box_intersection_pieces", "hi2"): lambda v: box_intersection_pieces([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, v]),
    ("quadratic_gradient", "m"): lambda v: quadratic_gradient([[1.0, v]], [0.0]),
    ("quadratic_gradient", "b"): lambda v: quadratic_gradient([[1.0, 0.0]], [v]),
    ("spectral_norm", "mat"): lambda v: spectral_norm([[1.0, v]]),
    ("ErrorModel", "norms"): lambda v: ErrorModel(kind="custom-list", norms=(0.1, v)),
    ("ErrorModel.from_norms", "norms"): lambda v: ErrorModel.from_norms([0.1, v]),
}
BAD_ENTRIES = {"True": True, "'a'": "a", "dict": {}, "huge": HUGE, "nan": math.nan, "None": None}


@pytest.mark.parametrize(
    "build, param, value",
    [
        pytest.param(build, param, value, id=f"{owner}-{param}-{label}")
        for (owner, param), build in ARRAYS.items()
        for label, value in BAD_ENTRIES.items()
    ],
)
def test_a_bad_array_entry_is_refused_by_name(build, param, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(param)} (must|contains) "):
        build(value)
