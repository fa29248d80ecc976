import functools
import math

import numpy as np
import pytest

from itmfree.errors import InvalidParams, SingularRhs
from itmfree.ivp import State2, integrate_inward
from itmfree.ivp import _rk4
from itmfree.problems import SpreadingParams, StefanParams, make_spreading, make_stefan


def _reference_rk4(rhs, z0, y0, z1, n_steps):
    """Classical RK4 written with tuple stage pairs (w', w''), each checked for
    finiteness; returns the endpoint and the recorded (z, w, w') columns."""
    h = (z1 - z0) / n_steps
    z, w, dw = z0, y0.w, y0.dw
    zs, ws, dws = [z], [w], [dw]

    def f(za, wa, dwa):
        k = (dwa, rhs(za, wa, dwa))
        if not (math.isfinite(k[0]) and math.isfinite(k[1])):
            raise SingularRhs(za)
        return k

    for i in range(n_steps):
        k1 = f(z, w, dw)
        k2 = f(z + h / 2, w + h / 2 * k1[0], dw + h / 2 * k1[1])
        k3 = f(z + h / 2, w + h / 2 * k2[0], dw + h / 2 * k2[1])
        k4 = f(z + h, w + h * k3[0], dw + h * k3[1])
        w += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        dw += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        z = z0 + (i + 1) * h if i + 1 < n_steps else z1
        if not (math.isfinite(w) and math.isfinite(dw)):
            raise SingularRhs(z)
        zs.append(z)
        ws.append(w)
        dws.append(dw)
    return State2(w, dw), (tuple(zs), tuple(ws), tuple(dws))


def test_exact_on_linear_solution():
    # w'' = 0 is a polynomial of degree 1; RK4 reproduces it exactly
    rhs = lambda z, w, dw: 0.0
    res = integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 10)
    assert res.endpoint.w == pytest.approx(-1.0, abs=1e-12)
    assert res.endpoint.dw == pytest.approx(1.0, abs=1e-12)


def test_exact_on_cubic():
    # w = z^3: w'' = 6z, also integrated exactly by RK4
    rhs = lambda z, w, dw: 6.0 * z
    res = integrate_inward(rhs, 1.0, State2(1.0, 3.0), 0.0, 7)
    assert res.endpoint.w == pytest.approx(0.0, abs=1e-15)
    assert res.endpoint.dw == pytest.approx(0.0, abs=1e-15)


def test_exponential_fourth_order_decay():
    # w'' = w with w = e^z; halving the step cuts the error ~16x
    rhs = lambda z, w, dw: w
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
    rhs = lambda z, w, dw: -0.5 * math.sqrt(hs) * z * dw
    y0 = State2(0.0, -(hs ** 0.75 / 2.0) * 1.0 * 0.5)
    res = integrate_inward(rhs, 0.5, y0, 0.0, 500)
    omega = res.endpoint.w
    assert omega == pytest.approx(2.4803125025213273, abs=1e-10)
    # the recovered h = omega^-4 h* sits within 1e-4 of 1 at this h*
    assert abs(omega ** -4 * hs - 1.0) < 1e-4


def test_profile_bookkeeping():
    rhs = lambda z, w, dw: w
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
    rhs = lambda z, w, dw: w
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
        def rhs(z, w, dw):
            if z < 0.5:
                return bad()
            return 0.0

        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 100)
        assert 0.0 <= exc.value.abscissa <= 0.51
    # non-finite only at the midpoint 0.505 of the step 0.51 -> 0.50: the stage
    # value makes that step's state non-finite, reported where the step ends
    for bad in (math.nan, math.inf, -math.inf):
        def rhs(z, w, dw):
            return bad if abs(z - 0.505) < 1e-9 else 0.0

        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 100)
        assert exc.value.abscissa == 0.5


def test_determinism():
    rhs = lambda z, w, dw: -0.5 * z * dw
    a = integrate_inward(rhs, 0.5, State2(0.0, -1.0), 0.0, 500)
    b = integrate_inward(rhs, 0.5, State2(0.0, -1.0), 0.0, 500)
    assert a.endpoint == b.endpoint


def test_direction_and_step_validation():
    rhs = lambda z, w, dw: 0.0
    with pytest.raises(InvalidParams, match="inward integration requires z_end < z_start"):
        integrate_inward(rhs, 0.0, State2(0.0, 1.0), 1.0, 10)
    with pytest.raises(InvalidParams, match="n_steps must be >= 1"):
        integrate_inward(rhs, 1.0, State2(0.0, 1.0), 0.0, 0)
    for start in (State2(float("inf"), 1.0), State2(0.0, float("nan"))):
        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, 1.0, start, 0.0, 10)
        assert exc.value.abscissa == 1.0


@pytest.mark.parametrize("make, params, h_star, n_steps", [
    (make_stefan, StefanParams(S=1.0), 30.0, 500),
    (make_spreading, SpreadingParams(H=0.5, L=-0.5), 0.5, 1000),
])
def test_matches_reference_rk4_bit_for_bit(make, params, h_star, n_steps):
    # the extended problems as evaluate_gamma integrates them, from s* = 0.5
    problem, _ = make(params)
    start = State2(*problem.extended_boundary(h_star, 0.5))
    rhs = functools.partial(problem.extended_rhs, h_star)
    expected_end, expected = _reference_rk4(rhs, 0.5, start, 0.0, n_steps)
    res = integrate_inward(rhs, 0.5, start, 0.0, n_steps, record_profile=True)
    assert res.endpoint == expected_end
    assert (res.profile.eta, res.profile.u, res.profile.du) == expected


def test_recorded_profile_matches_reference_rk4_bit_for_bit():
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    start = State2(*problem.extended_boundary(1.0, 1.0))
    expected_end, expected = _reference_rk4(problem.rhs, 1.0, start, 0.0, 200)
    res = integrate_inward(problem.rhs, 1.0, start, 0.0, 200, record_profile=True)
    assert res.endpoint == expected_end
    assert (res.profile.eta, res.profile.u, res.profile.du) == expected
