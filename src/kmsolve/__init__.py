"""Inertial and inexact Krasnoselskii-Mann fixed-point iteration.

One engine loop covers the plain, inexact, inertial, and combined
variants; schedules carry the feasibility conditions, diagnostics the
residual rate certificate and run post-mortems, applications the
resolvent and forward-backward front ends, and the CLI drives JSON
configs.  Everything public is re-exported here.
"""

from .applications import (
    LassoInstance,
    box_intersection_pieces,
    lasso_fbs_pieces,
    lasso_kkt_gap,
    plant_lasso,
    solve_fbs,
    solve_ppa,
)
from .diagnostics import (
    ConsistencyItem,
    ConsistencyReport,
    RateCertificate,
    consistency_report,
    quasi_fejer_violations,
    rate_certificate,
)
from .engine import Problem, RunResult, iterate
from .operators import (
    IsmOperator,
    OperatorSpec,
    make_affine,
    make_box_projection,
    make_fb_composition,
    make_identity,
    make_soft_threshold,
    norm,
    quadratic_gradient,
    spectral_norm,
)
from .schedules import (
    ERROR_KINDS,
    ConditionCheck,
    ConditionReport,
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    delta_threshold,
    emit_error,
    lambda_ceiling_ii,
    validate_run,
    validate_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "ERROR_KINDS",
    "Problem",
    "RunResult",
    "iterate",
    "OperatorSpec",
    "IsmOperator",
    "norm",
    "spectral_norm",
    "make_identity",
    "make_affine",
    "make_soft_threshold",
    "make_box_projection",
    "make_fb_composition",
    "quadratic_gradient",
    "ParamSchedule",
    "constant_schedule",
    "ErrorModel",
    "emit_error",
    "ConditionCheck",
    "ConditionReport",
    "validate_schedule",
    "validate_run",
    "delta_threshold",
    "lambda_ceiling_ii",
    "RateCertificate",
    "rate_certificate",
    "quasi_fejer_violations",
    "ConsistencyItem",
    "ConsistencyReport",
    "consistency_report",
    "LassoInstance",
    "plant_lasso",
    "lasso_kkt_gap",
    "lasso_fbs_pieces",
    "box_intersection_pieces",
    "solve_ppa",
    "solve_fbs",
    "__version__",
]
