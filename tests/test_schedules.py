"""Parameter schedules, error models, and the feasibility validators."""

import math
from dataclasses import replace

import numpy as np
import pytest

from kmsolve.schedules import (
    ErrorModel,
    ParamSchedule,
    constant_schedule,
    delayed_inertia_schedule,
    delta_threshold,
    emit_error,
    lambda_ceiling_ii,
    validate_schedule,
)

# independently recomputed closed-form values, frozen
THRESHOLD_PIN = 0.012121212121212123  # alpha=0.1, sigma=0.01
CEILING_PIN = 0.8016393442622951  # alpha=0.1, sigma=0.01, delta=1
COLLAPSE_PIN = 0.7692307692307692  # alpha=0, sigma=0.3, delta=1 -> 1/(1+sigma)


def test_constant_schedule_defaults_caps_to_the_constants():
    s = constant_schedule(0.2, 0.5)
    assert s.alpha_of(0) == 0.2 and s.alpha_of(17) == 0.2
    assert s.lambda_of(0) == 0.5 and s.lambda_of(17) == 0.5
    assert s.alpha_cap == 0.2
    assert s.lambda_floor == 0.5
    assert s.lambda_ceiling == 0.5
    assert s.condition_set == "I"


def test_sigma_and_delta_must_come_together():
    with pytest.raises(ValueError):
        ParamSchedule(
            alpha_of=lambda k: 0.0,
            lambda_of=lambda k: 0.5,
            alpha_cap=0.0,
            lambda_floor=0.5,
            lambda_ceiling=0.5,
            sigma=0.1,
            delta=None,
        )


def test_delayed_inertia_schedule_zeroes_the_first_weight():
    s = delayed_inertia_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    assert s.alpha_of(0) == 0.0
    assert s.alpha_of(1) == 0.1
    assert s.alpha_of(100) == 0.1
    assert s.condition_set == "II"
    assert s.alpha_cap == 0.1
    capped = delayed_inertia_schedule(0.1, 0.5, sigma=0.01, delta=1.0, alpha_cap=0.3)
    assert capped.alpha_cap == 0.3
    assert capped.alpha_of(0) == 0.0 and capped.alpha_of(1) == 0.1


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=-1.0, exponent=2.0)
    with pytest.raises(ValueError):
        ErrorModel(kind="geometric", magnitude=1.0, exponent=0.0)
    with pytest.raises(ValueError):
        ErrorModel(kind="custom-list", magnitude=0.0)
    with pytest.raises(ValueError):
        ErrorModel(kind="zero", norms=(0.1,))
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=1.0, exponent=2.0, seed=-1)
    with pytest.raises(ValueError):
        ErrorModel(kind="power-decay", magnitude=1.0, exponent=2.0, seed=True)


def test_error_norm_laws():
    p = ErrorModel.power_decay(2.0, 1.5)
    assert p.norm_at(0) == 2.0
    assert p.norm_at(3) == pytest.approx(2.0 / 4.0**1.5, rel=1e-15)
    g = ErrorModel.geometric(1.0, 0.5)
    assert g.norm_at(4) == pytest.approx(0.5**4, rel=1e-15)
    c = ErrorModel.from_norms([0.3, 0.2, 0.1])
    assert c.norm_at(1) == 0.2
    assert ErrorModel.zero().norm_at(10) == 0.0


def test_summability_verdicts():
    assert ErrorModel.zero().summability == "summable"
    assert ErrorModel.power_decay(1.0, 2.0).summability == "summable"
    assert ErrorModel.power_decay(1.0, 1.0).summability == "not-guaranteed"
    assert ErrorModel.geometric(1.0, 0.9).summability == "summable"
    assert ErrorModel.geometric(1.0, 1.0).summability == "not-guaranteed"
    assert ErrorModel.from_norms([1.0] * 5).summability == "summable"
    assert ErrorModel.power_decay(0.0, 0.5).summability == "summable"


def test_emit_error_is_deterministic_and_norm_exact():
    m = ErrorModel.power_decay(0.1, 2.0, seed=42)
    a = emit_error(m, 3, 6)
    b = emit_error(m, 3, 6)
    assert np.array_equal(a, b)
    assert np.linalg.norm(a) == pytest.approx(m.norm_at(3), rel=1e-12)
    c = emit_error(m, 4, 6)
    assert not np.array_equal(a, c)
    z = emit_error(ErrorModel.zero(), 0, 6)
    assert np.array_equal(z, np.zeros(6))


def test_threshold_and_ceiling_pins():
    assert delta_threshold(0.1, 0.01) == THRESHOLD_PIN
    assert lambda_ceiling_ii(0.1, 0.01, 1.0) == CEILING_PIN
    assert lambda_ceiling_ii(0.0, 0.3, 1.0) == COLLAPSE_PIN
    assert lambda_ceiling_ii(0.0, 0.3, 1.0) == 1.0 / 1.3
    assert delta_threshold(0.5, 0.0) == 0.5
    assert delta_threshold(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        delta_threshold(1.0, 0.1)


def test_regime_i_feasible_constant():
    rep = validate_schedule(constant_schedule(0.3, 0.7))
    assert rep.condition_set == "I"
    assert rep.feasible
    assert not rep.violations
    assert len(rep.deferred) == 3


def test_regime_i_rejects_ceiling_at_one():
    rep = validate_schedule(constant_schedule(0.3, 1.0))
    assert not rep.feasible
    assert any("lambda_ceiling" in v for v in rep.violations)


def test_regime_i_rejects_alpha_cap_at_one():
    rep = validate_schedule(constant_schedule(1.0, 0.5))
    assert not rep.feasible


def test_regime_i_warns_on_zero_floor():
    s = constant_schedule(0.0, 0.5, lambda_floor=0.0)
    rep = validate_schedule(s)
    assert rep.feasible
    assert any("positive floor" in w for w in rep.warnings)


def test_regime_ii_boundary_is_feasible():
    s = delayed_inertia_schedule(0.1, CEILING_PIN, sigma=0.01, delta=1.0)
    rep = validate_schedule(s)
    assert rep.feasible
    assert rep.lambda_max == CEILING_PIN
    assert rep.delta_threshold == THRESHOLD_PIN
    assert len(rep.deferred) == 2


def test_regime_ii_rejects_above_ceiling():
    s = delayed_inertia_schedule(0.1, CEILING_PIN + 1e-9, sigma=0.01, delta=1.0)
    assert not validate_schedule(s).feasible


def test_regime_ii_rejects_small_delta():
    s = delayed_inertia_schedule(0.1, 0.2, sigma=0.01, delta=0.01)
    rep = validate_schedule(s)
    assert not rep.feasible
    assert any("delta" in v for v in rep.violations)


def test_regime_ii_requires_zero_initial_weight():
    s = constant_schedule(0.1, 0.2, sigma=0.01, delta=1.0)
    rep = validate_schedule(s)
    assert not rep.feasible


def test_regime_ii_validator_matches_raw_inequality():
    # feasibility is equivalent to (alpha + delta*lam) * C + delta*lam <= delta
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = float(rng.uniform(0.0, 0.95))
        sg = float(rng.uniform(1e-3, 2.0))
        dl = float(rng.uniform(1e-3, 3.0))
        lm = float(rng.uniform(0.01, 1.2))
        rep = validate_schedule(delayed_inertia_schedule(a, lm, sigma=sg, delta=dl), horizon=8)
        c = a * (1.0 + a) + a * dl + sg
        direct = (dl > delta_threshold(a, sg)) and ((a + dl * lm) * c + dl * lm <= dl)
        assert rep.feasible == direct, (a, sg, dl, lm)


def test_validate_schedule_dispatches_on_condition_set():
    assert validate_schedule(constant_schedule(0.1, 0.5)).condition_set == "I"
    s = delayed_inertia_schedule(0.1, 0.5, sigma=0.01, delta=1.0)
    assert validate_schedule(s).condition_set == "II"
    with pytest.raises(ValueError, match="alpha_cap"):
        validate_schedule(delayed_inertia_schedule(1.0, 0.5, sigma=0.01, delta=1.0))
    # a NaN parameter anywhere in the scan is infeasible in both regimes
    for base in (constant_schedule(0.1, 0.5), s):
        nan_lambda = replace(base, lambda_of=lambda k: math.nan if k == 5 else 0.5)
        nan_alpha0 = replace(base, alpha_of=lambda k: math.nan if k == 0 else 0.1)
        assert validate_schedule(nan_lambda).feasible is False
        assert validate_schedule(nan_alpha0).feasible is False


def test_scaled_ceiling_admits_overrelaxation():
    s = constant_schedule(0.0, 1.5)
    base = validate_schedule(s)
    assert not base.feasible
    scaled = validate_schedule(s, theta=0.5)
    assert scaled.feasible
    assert scaled.scaling_theta == 0.5
    assert validate_schedule(s, theta=1.0).to_dict() == base.to_dict()
    with pytest.raises(ValueError):
        validate_schedule(s, theta=1.5)


def test_report_to_dict_is_json_friendly():
    rep = validate_schedule(constant_schedule(0.2, 0.5))
    d = rep.to_dict()
    assert d["feasible"] is True
    assert d["condition_set"] == "I"
    assert d["delta_threshold"] is None  # regime I has no threshold
    assert isinstance(d["checks"], list)
