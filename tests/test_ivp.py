import math

import numpy as np
import pytest

from itmfree import ivp
from itmfree.errors import InvalidParams, SingularRhs
from itmfree.itm import run_config, secant_solve
from itmfree.ivp import State2, inline_rhs, integrate_inward
from itmfree.problems import SpreadingParams, StefanParams, make_spreading, make_stefan


def _reference_rk4(rhs, coef, z0, y0, z1, n_steps):
    """Classical RK4 written with tuple stage pairs (w', w''), each checked for
    finiteness; returns the endpoint and the recorded (z, w, w') columns."""
    h = (z1 - z0) / n_steps
    z, w, dw = z0, y0.w, y0.dw
    zs, ws, dws = [z], [w], [dw]

    def f(za, wa, dwa):
        k = (dwa, rhs(coef, za, wa, dwa))
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
    rhs = lambda _, z, w, dw: 0.0
    res = integrate_inward(rhs, None, 1.0, State2(0.0, 1.0), 10)
    assert res.endpoint.w == pytest.approx(-1.0, abs=1e-12)
    assert res.endpoint.dw == pytest.approx(1.0, abs=1e-12)


def test_exact_on_cubic():
    # w = z^3: w'' = 6z, also integrated exactly by RK4
    rhs = lambda _, z, w, dw: 6.0 * z
    res = integrate_inward(rhs, None, 1.0, State2(1.0, 3.0), 7)
    assert res.endpoint.w == pytest.approx(0.0, abs=1e-15)
    assert res.endpoint.dw == pytest.approx(0.0, abs=1e-15)


def test_exponential_fourth_order_decay():
    # w'' = w with w = e^z; halving the step cuts the error ~16x
    rhs = lambda _, z, w, dw: w
    errs = []
    for n in (50, 100, 200):
        res = integrate_inward(rhs, None, 1.0, State2(math.e, math.e), n)
        errs.append(abs(res.endpoint.w - 1.0))
    for coarse, fine in zip(errs, errs[1:]):
        assert 14.0 <= coarse / fine <= 18.0


def test_stefan_extended_endpoint_matches_quadrature():
    # Frozen from Gauss quadrature of the closed form
    # U*(0) = (h*^(3/4)/4) exp(c/4) int_0^(1/2) exp(-c eta^2) deta, c = sqrt(h*)/4,
    # for h* = 37.843777: U*(0) = 2.4803125025213273.
    hs = 37.843777
    rhs = lambda h, z, w, dw: -0.5 * math.sqrt(h) * z * dw
    y0 = State2(0.0, -(hs ** 0.75 / 2.0) * 1.0 * 0.5)
    res = integrate_inward(rhs, hs, 0.5, y0, 500)
    omega = res.endpoint.w
    assert omega == pytest.approx(2.4803125025213273, abs=1e-10)
    # the recovered h = omega^-4 h* sits within 1e-4 of 1 at this h*
    assert abs(omega ** -4 * hs - 1.0) < 1e-4


def test_profile_bookkeeping():
    rhs = lambda _, z, w, dw: w
    res = integrate_inward(rhs, None, 1.0, State2(1.0, 0.0), 25, record_profile=True)
    assert res.steps_taken == 25
    assert res.profile is not None
    assert len(res.profile) == 26
    assert res.profile.eta[0] == 1.0
    assert res.profile.eta[-1] == 0.0
    assert np.all(np.diff(res.profile.eta) < 0.0)
    assert res.profile.u[-1] == res.endpoint.w
    assert res.profile.du[-1] == res.endpoint.dw


def test_reversal_consistency():
    rhs = lambda _, z, w, dw: w
    start = State2(2.0, -1.0)
    inward = integrate_inward(rhs, None, 1.0, start, 64).endpoint
    # back out to z = 1 as an inward pass in t = 1 - z: v(t) = w(1 - t) has
    # v'' = v and v' = -w', and each step's arithmetic only flips signs
    back = integrate_inward(rhs, None, 1.0, State2(inward.w, -inward.dw), 64).endpoint
    # RK4 is not time-symmetric, so the round trip cancels only to the
    # truncation error of a single pass (~h^4)
    assert abs(back.w - start.w) <= 1e-9
    assert abs(-back.dw - start.dw) <= 1e-9


def test_singular_rhs_reports_abscissa():
    # below z = 0.5 the RHS is nan, or a float ** that raises OverflowError
    for bad in (lambda: float("nan"), lambda: 1e200 ** 2):
        def rhs(_, z, w, dw):
            if z < 0.5:
                return bad()
            return 0.0

        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, None, 1.0, State2(0.0, 1.0), 100)
        assert 0.0 <= exc.value.abscissa <= 0.51
    # non-finite only at the midpoint 0.505 of the step 0.51 -> 0.50: the stage
    # value makes that step's state non-finite, reported where the step ends
    for bad in (math.nan, math.inf, -math.inf):
        def rhs(_, z, w, dw):
            return bad if abs(z - 0.505) < 1e-9 else 0.0

        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, None, 1.0, State2(0.0, 1.0), 100)
        assert exc.value.abscissa == 0.5


def test_determinism():
    rhs = lambda _, z, w, dw: -0.5 * z * dw
    a = integrate_inward(rhs, None, 0.5, State2(0.0, -1.0), 500)
    b = integrate_inward(rhs, None, 0.5, State2(0.0, -1.0), 500)
    assert a.endpoint == b.endpoint


def test_direction_and_step_validation():
    rhs = lambda _, z, w, dw: 0.0
    for z_start in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParams, match="inward integration requires z_start > 0"):
            integrate_inward(rhs, None, z_start, State2(0.0, 1.0), 10)
    with pytest.raises(InvalidParams, match="n_steps must be >= 1"):
        integrate_inward(rhs, None, 1.0, State2(0.0, 1.0), 0)
    for start in (State2(float("inf"), 1.0), State2(0.0, float("nan"))):
        with pytest.raises(SingularRhs) as exc:
            integrate_inward(rhs, None, 1.0, start, 10)
        assert exc.value.abscissa == 1.0


@pytest.mark.parametrize("make, params, h_star, n_steps", [
    (make_stefan, StefanParams(S=1.0), 30.0, 500),
    (make_spreading, SpreadingParams(H=0.5, L=-0.5), 0.5, 1000),
])
def test_matches_reference_rk4_bit_for_bit(make, params, h_star, n_steps):
    # the extended problems as evaluate_gamma integrates them, from s* = 0.5
    problem, _ = make(params)
    start = State2(*problem.extended_boundary(h_star, 0.5))
    rhs, coef = problem.extended_rhs, problem.coefficients(h_star)
    expected_end, expected = _reference_rk4(rhs, coef, 0.5, start, 0.0, n_steps)
    res = integrate_inward(rhs, coef, 0.5, start, n_steps, record_profile=True)
    assert res.endpoint == expected_end
    assert (res.profile.eta, res.profile.u, res.profile.du) == expected


def test_recorded_profile_matches_reference_rk4_bit_for_bit():
    # the original problem as original_profile integrates it, at h = 1
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    start = State2(*problem.extended_boundary(1.0, 1.0))
    rhs, coef = problem.extended_rhs, problem.coefficients(1.0)
    expected_end, expected = _reference_rk4(rhs, coef, 1.0, start, 0.0, 200)
    res = integrate_inward(rhs, coef, 1.0, start, 200, record_profile=True)
    assert res.endpoint == expected_end
    assert (res.profile.eta, res.profile.u, res.profile.du) == expected


def test_inline_rhs_is_the_callable_of_its_body():
    rhs = inline_rhs("u = w - coef * z\nif u <= 0.0:\n    raise SingularRhs(z)\nu * dw + math.pi")
    assert rhs(2.0, 0.5, 3.0, 4.0) == 2.0 * 4.0 + math.pi
    with pytest.raises(SingularRhs):
        rhs(2.0, 0.5, 1.0, 4.0)
    # inline in the loop, bit for bit the reference RK4 that calls it
    start = State2(3.0, -1.0)
    expected_end, expected = _reference_rk4(rhs, 0.25, 1.0, start, 0.0, 64)
    res = integrate_inward(rhs, 0.25, 1.0, start, 64, record_profile=True)
    assert res.endpoint == expected_end
    assert (res.profile.eta, res.profile.u, res.profile.du) == expected


@pytest.mark.parametrize("body", [
    "h = coef * z\nh * dw",  # assigns the loop's step
    "z = 2.0 * z\ncoef * z",  # assigns an argument, the loop's abscissa
    "coef * i",  # reads the loop's step index
    "if z < 0.5:\n    return 0.0\ncoef * z",  # would leave the loop
])
def test_inline_rhs_rejects_a_body_that_uses_the_loop(body):
    with pytest.raises(InvalidParams, match="runs inside the RK4 loop, so it may not hold"):
        inline_rhs(body)


@pytest.mark.parametrize("body", ["", "a = coef * z * dw", "if z < 0.5:\n    coef * z"])
def test_inline_rhs_rejects_a_body_without_a_final_expression(body):
    with pytest.raises(InvalidParams, match="must end in the expression of w''"):
        inline_rhs(body)


def test_a_solve_compiles_one_loop_that_every_build_shares():
    ivp._loop.cache_clear()
    problems = [make_stefan(StefanParams(S=S)) for S in (1.0, 5.0)]
    for problem, scaling in problems:
        secant_solve(problem, scaling, run_config(problem, scaling))
    assert ivp._loop.cache_info().misses == 1  # compiled at the first integration only
    a, b = (problem.extended_rhs.inline_body for problem, _ in problems)
    assert ivp._loop(a) is ivp._loop(b)
