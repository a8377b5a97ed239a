"""Acceptance gate: one test per numbered criterion, and the runner behind it.

Each criterion test runs the package's built-in check through
``acceptance.run_all``, as ``kmsolve bench`` does, so the same wall-clock
budgets apply; it prints the one-line verdict and asserts the result.
Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.
"""

import pytest

from kmsolve import acceptance


def _check(number):
    (result,) = acceptance.run_all([number])
    print(result.line())
    assert result.number == number
    assert result.passed, result.line()


def test_criterion_1_reduction_bit_identity():
    _check(1)


def test_criterion_2_residual_rate_certificate():
    _check(2)


def test_criterion_3_distance_quasi_monotonicity():
    _check(3)


def test_criterion_4_feasibility_validator_grid():
    _check(4)


def test_criterion_5_prox_grid_oracle():
    _check(5)


def test_criterion_6_lasso_end_to_end():
    _check(6)


def test_criterion_7_rate_certificate_soundness():
    _check(7)


def test_criterion_8_honest_failure_modes():
    _check(8)


def test_criterion_9_inertia_comparison_cli():
    _check(9)


def _crash():
    raise RuntimeError("boom")


@pytest.fixture
def fake_criteria(monkeypatch):
    rows = (
        (1, "passes", lambda: (True, "fine"), None),
        (2, "crashes", _crash, None),
        (3, "over-budget", lambda: (True, "fine"), 0.0),
        (4, "within-budget", lambda: (True, "fine"), 60.0),
    )
    monkeypatch.setattr(acceptance, "CRITERIA", rows)


def test_run_all_times_and_judges_each_row(fake_criteria):
    ok, crashed, slow, timed = acceptance.run_all()
    assert [r.number for r in (ok, crashed, slow, timed)] == [1, 2, 3, 4]
    assert ok.passed and ok.detail == "fine" and ok.seconds >= 0.0
    assert not crashed.passed and crashed.detail == "raised RuntimeError('boom')"
    assert not slow.passed and slow.detail == "fine; over its 0s budget"
    assert timed.passed and timed.detail == "fine"
    assert ok.line() == f"criterion 1 (passes): PASS [fine; {ok.seconds:.2f}s]"
    assert crashed.line().startswith("criterion 2 (crashes): FAIL [raised RuntimeError('boom'); ")


def test_run_all_filters_by_number(fake_criteria):
    assert [r.name for r in acceptance.run_all([4, 2])] == ["crashes", "within-budget"]
    assert acceptance.run_all([]) == []
