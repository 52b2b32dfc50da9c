import math

import numpy as np

from localforms.report import CheckResult, Report, max_residual


def test_check_fails_closed():
    assert CheckResult("ok", 1e-12, 10, 1e-8).passed
    assert not CheckResult("large", 1e-3, 10, 1e-8).passed
    assert not CheckResult("nan", math.nan, 10, 1e-8).passed
    assert not CheckResult("inf", math.inf, 10, 1e-8).passed
    assert not CheckResult("empty", 0.0, 0, 1e-8).passed


def test_residual_at_the_tolerance_fails():
    # a check passes only below its tolerance
    assert not CheckResult("at", 1e-8, 10, 1e-8).passed
    assert CheckResult("under", np.nextafter(1e-8, 0.0), 10, 1e-8).passed


def test_report_with_a_non_finite_check_fails():
    report = Report(1e-8)
    report.add("fine", 0.0, 5)
    report.add("nan", math.nan, 5)
    assert not report.passed
    assert report.failing() == ["nan"]


def test_max_residual_reductions():
    # an empty sample set reduces to 0.0 instead of raising
    assert max_residual(np.zeros((0, 2, 2))) == 0.0
    assert max_residual(np.zeros((3, 0, 2)), axis=-1) == 0.0
    # NaN propagates instead of dropping out of the maximum
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 0] = math.nan
    assert math.isnan(max_residual(stack))
    stack[1, 0, 0] = 3.0
    stack[2, 1, 1] = 4.0
    assert max_residual(stack) == 4.0
    assert max_residual(np.array([[3.0, 4.0], [0.0, 1.0]]), axis=-1) == 5.0
