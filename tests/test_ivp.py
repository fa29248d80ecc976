import math

import numpy as np
import pytest

from itmfree.errors import SingularRhs
from itmfree.ivp import State2, integrate_inward, steps_for_interval
from itmfree.ivp import _rk4


def test_exact_on_linear_solution():
    # w'' = 0 is a polynomial of degree 1; RK4 reproduces it exactly
    rhs = lambda z, y: (y.dw, 0.0)
    res = integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 10)
    assert res.endpoint.w == pytest.approx(-1.0, abs=1e-12)
    assert res.endpoint.dw == pytest.approx(1.0, abs=1e-12)


def test_exact_on_cubic():
    # w = z^3: w'' = 6z, also integrated exactly by RK4
    rhs = lambda z, y: (y.dw, 6.0 * z)
    res = integrate_inward(rhs, 1.0, State2(1.0, 3.0), 0.0, 7)
    assert res.endpoint.w == pytest.approx(0.0, abs=1e-15)
    assert res.endpoint.dw == pytest.approx(0.0, abs=1e-15)


def test_exponential_fourth_order_decay():
    # w'' = w with w = e^z; halving the step cuts the error ~16x
    rhs = lambda z, y: (y.dw, y.w)
    errs = []
    for n in (50, 100, 200):
        res = integrate_inward(rhs, 1.0, State2(math.e, math.e), 0.0, n)
        errs.append(abs(res.endpoint.w - 1.0))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_stefan_extended_endpoint_matches_quadrature():
    # Frozen from Gauss quadrature of the closed form
    # U*(0) = (h*^(3/4)/4) exp(c/4) int_0^(1/2) exp(-c eta^2) deta, c = sqrt(h*)/4,
    # for h* = 37.843777: U*(0) = 2.4803125025213273.
    hs = 37.843777
    rhs = lambda z, y: (y.dw, -0.5 * math.sqrt(hs) * z * y.dw)
    y0 = State2(0.0, -(hs ** 0.75 / 2.0) * 1.0 * 0.5)
    res = integrate_inward(rhs, 0.5, y0, 0.0, 500)
    omega = res.endpoint.w
    assert omega == pytest.approx(2.4803125025213273, abs=1e-10)
    # the recovered h = omega^-4 h* sits within 1e-4 of 1 at this h*
    assert abs(omega ** -4 * hs - 1.0) < 1e-4


def test_profile_bookkeeping():
    rhs = lambda z, y: (y.dw, y.w)
    res = integrate_inward(rhs, 1.0, State2(1.0, 0.0), 0.0, 25, record_profile=True)
    assert res.steps_taken == 25
    assert res.profile is not None
    assert len(res.profile) == 26
    assert res.profile.eta[0] == 1.0
    assert res.profile.eta[-1] == 0.0
    assert np.all(np.diff(res.profile.eta) < 0.0)
    assert res.profile.u[-1] == res.endpoint.w
    assert res.profile.du[-1] == res.endpoint.dw


def test_reversal_consistency():
    rhs = lambda z, y: (y.dw, y.w)
    start = State2(2.0, -1.0)
    inward = _rk4(rhs, 1.0, start, 0.0, 64, record=False)
    back = _rk4(rhs, 0.0, inward.endpoint, 1.0, 64, record=False)
    # RK4 is not time-symmetric, so the round trip cancels only to the
    # truncation error of a single pass (~h^4)
    assert abs(back.endpoint.w - start.w) <= 1e-9
    assert abs(back.endpoint.dw - start.dw) <= 1e-9


def test_singular_rhs_reports_abscissa():
    # below z = 0.5 the RHS is nan, or a float ** that raises OverflowError
    for bad in (lambda: float("nan"), lambda: 1e200 ** 2):
        def rhs(z, y):
            if z < 0.5:
                return (y.dw, bad())
            return (y.dw, 0.0)

        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 100)
        assert 0.0 <= exc.value.abscissa <= 0.51


def test_determinism():
    rhs = lambda z, y: (y.dw, -0.5 * z * y.dw)
    a = integrate_inward(rhs, 0.5, State2(0.0, -1.0), 0.0, 500)
    b = integrate_inward(rhs, 0.5, State2(0.0, -1.0), 0.0, 500)
    assert a.endpoint == b.endpoint


def test_direction_and_step_validation():
    rhs = lambda z, y: (y.dw, 0.0)
    with pytest.raises(ValueError):
        integrate_inward(rhs, 0.0, State2(0.0, 1.0), 1.0, 10)
    with pytest.raises(ValueError):
        integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 0)
    with pytest.raises(ValueError):
        integrate_inward(rhs, 1.0, State2(float("inf"), 1.0), 0.0, 10)


def test_steps_for_interval():
    assert steps_for_interval(0.5, 0.0, 1e-3) == 500
    assert steps_for_interval(1.0, 0.0, 5e-4) == 2000
    assert steps_for_interval(0.5, 0.0, 0.4) == 1
    with pytest.raises(ValueError):
        steps_for_interval(0.5, 0.0, 0.0)
