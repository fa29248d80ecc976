import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itmfree import itm
from itmfree.errors import InvalidParams
from itmfree.itm import (
    ExtendedScaling,
    ItmConfig,
    ItmStatus,
    ReducedFreeBvp,
    evaluate_gamma,
    original_profile,
    recover_values,
    run_config,
    secant_solve,
    solution_profile,
)
from itmfree.ivp import State2
from itmfree.problems import (STEFAN_GUESSES, SpreadingParams, StefanParams, make_spreading,
                              make_stefan, stefan_default_guesses)
from itmfree.reference import exact_spreading, neumann_eta_w

# Gamma values for the spreading problem (H = 1/2, L = -1/2) at the
# tabulated starting guesses, frozen from two independent integrations
# (fixed-step RK4 and an adaptive RK45 at rtol 1e-12; they agree to 1e-10).
GAMMA_SPREADING = {
    (0.5, 0.5): 0.1781494612677743,
    (0.5, 0.1): -0.19805761085750218,
    (1.0, 0.5): -0.1528191374094089,
    (1.0, 0.1): -0.34970148464250683,
}


def constant_problem(boundary_value):
    """w'' = 0 and w' = 0, so w*(0) = boundary_value(h*, s*) exactly and, with
    g = w and weight 1, omega = boundary_value(h*, s*)."""
    return ReducedFreeBvp(
        origin_condition=lambda w, dw: w,
        extended_rhs=lambda h, z, w, dw: 0.0,
        extended_boundary=lambda h, s: (boundary_value(h, s), 0.0),
        coefficients=lambda h: h,
        steps=10,
        guesses=(2.0, 0.5),
    )


SWEEP = [10.0 ** (k / 10) for k in range(-30, 31)]  # the benchmark's 61-case sweep of S
GRID = [(H, L) for H in (0.1, 0.25, 0.5, 1.0, 2.0) for L in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)]


def sweep_case(S):
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    return problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1)


def grid_case(H, L):
    problem, scaling = make_spreading(SpreadingParams(H=H, L=L))
    return problem, scaling, ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1)


@pytest.fixture(scope="module")
def stefan_sweep():
    """(S, result) for the benchmark's 61-case sweep S = 10^(k/10), k = -30..30."""
    return [(S, secant_solve(*sweep_case(S))) for S in SWEEP]


@pytest.fixture(scope="module")
def spreading_grid():
    """(scaling, result) for the 5x6 spreading grid of test_problems."""
    return [(case[1], secant_solve(*case)) for case in (grid_case(H, L) for H, L in GRID)]


@pytest.mark.parametrize("s_star, h_star", list(GAMMA_SPREADING))
def test_evaluate_gamma_spreading(spreading_problem, s_star, h_star):
    problem, scaling = spreading_problem
    config = ItmConfig(s_star=s_star, step=5e-4, h0=0.5, h1=0.1)
    gamma_val, omega, endpoint = evaluate_gamma(problem, scaling, h_star, config)
    assert gamma_val == pytest.approx(GAMMA_SPREADING[(s_star, h_star)], abs=5e-10)
    assert omega == endpoint.dw ** 2  # g = V', C = 1, weight 1/2


def test_evaluate_gamma_stefan_near_root():
    # U*(0) frozen from Gauss quadrature of the closed-form solution
    problem, scaling = make_stefan(StefanParams(S=1.0))
    config = ItmConfig(s_star=0.5, step=1e-3, h0=30.0, h1=40.0)
    gamma_val, omega, endpoint = evaluate_gamma(problem, scaling, 37.843777, config)
    assert omega == endpoint.w  # g = U, C = 1, weight 1
    assert omega == pytest.approx(2.4803125025213273, abs=1e-10)
    assert gamma_val == pytest.approx(-7.16885e-5, abs=1e-9)


def test_gamma_beyond_float_range():
    # at h* = 1e-200, omega ~ 1.25e-151 and omega^-4 overflows: Gamma is +inf,
    # while the secant's residual log h* - 4 log omega stays finite
    problem, scaling = make_stefan(StefanParams(S=1.0))
    config = ItmConfig(s_star=0.5, step=1e-3, h0=1e-200, h1=40.0)
    gamma_val, omega, _ = evaluate_gamma(problem, scaling, 1e-200, config)
    assert gamma_val == math.inf
    assert omega == pytest.approx(1.25e-151, rel=1e-12)
    result = secant_solve(problem, scaling, config)
    assert result.converged
    assert result.s == pytest.approx(1.2401252666271911, abs=1e-9)


def test_recover_values_identity():
    scaling = ExtendedScaling(delta=-1.0, sigma=4.0, origin_weight=1.0)
    s, w0, dw0 = recover_values(1.0, scaling, State2(0.3, -0.7), 0.5)
    assert (s, w0, dw0) == (0.5, 0.3, -0.7)


def test_recover_values_stefan_scaling():
    scaling = ExtendedScaling(delta=-1.0, sigma=4.0, origin_weight=1.0)
    omega = 2.0
    s, w0, dw0 = recover_values(omega, scaling, State2(2.0, -4.0), 0.5)
    assert s == pytest.approx(omega * 0.5)          # s = omega^(-delta) s*
    assert w0 == pytest.approx(1.0)                  # w0 = omega^-1 w*(0)
    assert dw0 == pytest.approx(omega ** -2 * -4.0)  # dw0 = omega^(delta-1) dw*(0)


def test_recover_values_spreading_scaling():
    scaling = ExtendedScaling(delta=0.5, sigma=1.0, origin_weight=0.5)
    omega = 4.0
    s, w0, dw0 = recover_values(omega, scaling, State2(3.0, 2.0), 1.0)
    assert s == pytest.approx(omega ** -0.5)
    assert w0 == pytest.approx(0.75)
    assert dw0 == pytest.approx(omega ** -0.5 * 2.0)


def test_recover_values_rejects_nonpositive_omega():
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)
    # an argument check: only evaluate_gamma raises OmegaNonPositive
    for omega in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidParams, match=f"omega must be positive, got {omega}"):
            recover_values(omega, scaling, State2(1.0, 1.0), 1.0)


def test_recover_values_maps_an_overflowing_power_to_inf():
    # omega^(delta - 1) = (1e-300)^(-2) is beyond the float range: inf, not OverflowError
    scaling = ExtendedScaling(delta=-1.0, sigma=4.0, origin_weight=1.0)
    s, w0, dw0 = recover_values(1e-300, scaling, State2(1e-300, -3.0), 0.5)
    assert (s, w0, dw0) == (1e-300 * 0.5, 1.0, -math.inf)
    s, w0, dw0 = recover_values(1e-300, scaling, State2(1e-300, 0.0), 0.5)
    assert math.isnan(dw0)  # inf * 0


@pytest.mark.parametrize("S, h0, h1, step", [
    (1.0, 1e-290, 1e-280, 1e-3),
    (1e-300, None, None, 0.05),  # the default guesses
])
def test_overflowing_recovery_keeps_its_status(S, h0, h1, step):
    # the last iterate's omega is tiny, so omega^(delta - 1) = omega^-2 overflows
    problem, scaling = make_stefan(StefanParams(S=S))
    if h0 is None:
        h0, h1 = stefan_default_guesses(S)
    result = secant_solve(problem, scaling,
                          ItmConfig(s_star=0.5, step=step, h0=h0, h1=h1, max_iter=1))
    assert result.status is ItmStatus.MAX_ITER_EXCEEDED
    assert result.dw0 == -math.inf and result.w0 == 1.0
    assert 0.0 < result.omega < 1e-100


def test_converged_spreading_reports_the_original_slope(spreading_problem):
    # w0 and dw0 are U(0) and U'(0), not the shifted V(0) = U(0), V'(0) = U'(0) + 1
    problem, scaling = spreading_problem
    for s_star in (0.5, 1.0):
        result = secant_solve(problem, scaling, ItmConfig(s_star=s_star, step=5e-4, h0=0.5, h1=0.1))
        assert result.converged
        assert abs(result.dw0) <= 1e-9
        assert result.w0 == pytest.approx((17.0 / 40.0) ** (1.0 / 3.0), abs=1e-8)


def test_root_at_a_burn_in_guess_needs_both_stopping_clauses():
    # With H = 1000 the slope L/(5 H^3) vanishes against the shift's 1, and
    # Gamma(h0) is within tol of 0 although s(h0) = 0.7071 is far from the
    # front -L/H = 5e-4. Only the two-clause test stops the secant, and it
    # goes on to the true front.
    problem, scaling = make_spreading(SpreadingParams(H=1000.0, L=-0.5))
    config = ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1)
    assert abs(evaluate_gamma(problem, scaling, 0.5, config)[0]) <= config.tol
    result = secant_solve(problem, scaling, config)
    assert result.converged
    assert result.s == pytest.approx(5e-4, abs=1e-6)
    assert result.w0 == pytest.approx(exact_spreading(0.0, 1000.0, -0.5).w, rel=1e-9)


def test_origin_weight_must_be_finite_and_nonzero():
    # omega = g^(1/k) needs a weight k != 0
    for value in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(InvalidParams, match="origin weight must be finite and nonzero"):
            ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=value)


def test_steps_must_be_nonzero():
    # run_config alone checks n, from the problem or from the caller: step = s*/n
    # would divide by 0, 2.5 would run 2 steps, True is no count (it would run one step)
    # and 10^7 + 1 is beyond the ceiling
    problem, scaling = make_stefan(StefanParams(S=1.0))
    for steps in (0, -5, 2.5, True, 10 ** 7 + 1):
        message = re.escape(f"steps must be an int in [1, 10000000], got {steps!r}")
        with pytest.raises(InvalidParams, match=message):
            run_config(dataclasses.replace(problem, steps=steps), scaling)
        with pytest.raises(InvalidParams, match=message):
            run_config(problem, scaling, steps=steps)
    # the ceiling itself runs at every s*: at this one s*/step is 10000000.000000002
    config = run_config(problem, scaling, s_star=78.87444788003997, steps=10 ** 7)
    assert round(config.s_star / config.step) == 10 ** 7


def test_step_count_ceiling_is_the_rounded_count():
    # evaluate_gamma runs round(s_star/step) steps, and 10^7 + 0.5 rounds half to even,
    # to 10^7: the ceiling admits it and rejects the next float up
    config = ItmConfig(s_star=5000000.25, step=0.5, h0=1.0, h1=2.0)
    assert round(config.s_star / config.step) == 10 ** 7
    with pytest.raises(InvalidParams) as excinfo:
        ItmConfig(s_star=5000000.250000001, step=0.5, h0=1.0, h1=2.0)
    assert str(excinfo.value) == ("step 0.5 at s_star = 5000000.250000001 asks for 10000000.5 "
                                  "RK4 steps per integration, more than 10000000")


def test_secant_solve_stefan_converges(stefan_s1):
    result = stefan_s1
    assert result.status is ItmStatus.CONVERGED
    assert result.iterations <= 11
    assert result.h_star == pytest.approx(37.84270800244514, abs=5e-5)
    assert result.s == pytest.approx(1.2401252666022284, abs=1e-7)
    assert result.dw0 == pytest.approx(-0.9107770749710742, abs=1e-6)
    assert result.w0 == pytest.approx(1.0, abs=1e-12)  # omega = U*(0) by construction


def test_secant_solve_spreading_converges(spreading_problem):
    problem, scaling = spreading_problem
    config = ItmConfig(s_star=1.0, step=5e-4, h0=0.5, h1=0.1)
    result = secant_solve(problem, scaling, config)
    assert result.converged
    assert result.iterations <= 10
    assert result.h_star == pytest.approx(1.0, abs=1e-7)
    assert result.w0 == pytest.approx((17.0 / 40.0) ** (1.0 / 3.0), abs=1e-8)
    assert result.s == pytest.approx(1.0, abs=1e-8)


def test_stopping_pair_satisfies_both_clauses(stefan_s1):
    last, prev = stefan_s1.trace[-1], stefan_s1.trace[-2]
    assert abs(last.gamma_val) <= 1e-6
    assert abs(last.s_j - prev.s_j) <= 1e-6


def test_finished_solve_is_its_last_iterate(stefan_sweep, spreading_grid):
    # every converged or max_iter_exceeded result of the Stefan sweep, the
    # spreading grid and Stefan S = 1 stopped at max_iter = 1, 2, 3
    results = [r for _, r in stefan_sweep] + [r for _, r in spreading_grid]
    problem, scaling = make_stefan(StefanParams(S=1.0))
    for max_iter in (1, 2, 3):
        result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=30.0,
                                                          h1=40.0, max_iter=max_iter))
        assert result.status is ItmStatus.MAX_ITER_EXCEEDED and result.iterations == max_iter
        results.append(result)
    finished = [r for r in results
                if r.status in (ItmStatus.CONVERGED, ItmStatus.MAX_ITER_EXCEEDED)]
    assert sum(r.converged for r in finished) >= 61
    for result in finished:
        last = result.trace[-1]
        assert (result.h_star, result.omega, result.s) == (last.h_star, last.omega, last.s_j)
        assert result.iterations == len(result.trace) - 1


def test_fixed_point_consistency(stefan_s1):
    h = stefan_s1.omega ** -4.0 * stefan_s1.h_star
    assert abs(h - 1.0) <= 1e-6


def test_root_handed_in_returns_h0(stefan_s1):
    problem, scaling = make_stefan(StefanParams(S=1.0))
    root = stefan_s1.h_star
    config = ItmConfig(s_star=0.5, step=1e-3, h0=root, h1=30.0)
    result = secant_solve(problem, scaling, config)
    # no special case for a root at h0: the two-clause test needs Gamma small
    # at the last iterate and s settled between the last two
    assert result.converged
    assert result.trace[0].h_star == root
    # the last iterate is the interpolation step, a few roundings from the root
    assert abs(result.h_star / root - 1.0) <= 1e-13
    assert len(result.trace) == 4


def test_original_problem_residual(stefan_s1):
    # un-extended statement of success: integrating the original problem from
    # the recovered boundary reproduces the origin condition
    problem, _ = make_stefan(StefanParams(S=1.0))
    prof = original_profile(problem, stefan_s1.s, 1240)
    assert abs(prof.u[0] - 1.0) <= 50 * 1e-6


def test_extended_degeneracy_at_h1(spreading_problem):
    problem, _ = spreading_problem
    zs = np.linspace(0.05, 1.0, 20)
    for z in zs:
        y = State2(1.3 + 0.2 * z, 0.4)
        # the extended RHS at h = 1 is the original problem's V''
        u, du = y.w - z, y.dw - 1.0
        expected = -3.0 * du * du / u - z * du / (5.0 * u ** 3) - 1.0 / (5.0 * u ** 2)
        assert problem.extended_rhs(problem.coefficients(1.0), z, *y) == pytest.approx(
            expected, rel=1e-12)
        # V(s) = H + s and V'(s) = L/(5 H^3) + 1 at h = 1
        assert problem.extended_boundary(1.0, z) == (0.5 + z, -0.5 / (5.0 * 0.5 ** 3) + 1.0)


def test_coefficients_run_once_per_integration():
    # h is fixed during one integration: coefficients(h) runs once for it, and
    # each of the 4 RK4 stages of every step receives that same object
    asked, made, seen = [], [], []

    def coefficients(h):
        asked.append(h)
        made.append(object())
        return made[-1]

    def extended_rhs(coef, z, w, dw):
        seen.append(coef)
        return 0.0

    problem = ReducedFreeBvp(origin_condition=lambda w, dw: w, extended_rhs=extended_rhs,
                             extended_boundary=lambda h, s: (h, 0.0),
                             coefficients=coefficients, steps=5, guesses=(2.0, 3.0))
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)
    config = ItmConfig(s_star=0.5, step=0.1, h0=2.0, h1=3.0)  # 5 steps
    for h_star in (2.0, 3.0):
        evaluate_gamma(problem, scaling, h_star, config)
    original_profile(problem, 1.0, 7)
    assert asked == [2.0, 3.0, 1.0]
    # distinct objects compare by identity
    assert seen == [made[0]] * (4 * 5) + [made[1]] * (4 * 5) + [made[2]] * (4 * 7)


def test_secant_breakdown():
    # omega = 2 h* makes Gamma = h*/(2 h*) - 1 = -1/2 for every h*: the log
    # residual log h* - log(2 h*) is flat, exactly or to one rounding
    problem = constant_problem(lambda h, s: 2.0 * h)
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)

    def solve(h1):
        result = secant_solve(problem, scaling,
                              ItmConfig(s_star=1.0, step=0.1, h0=1.0, h1=h1))
        assert result.status is ItmStatus.SECANT_BREAKDOWN
        assert result.h_star == h1  # the last iterate, from which no step was possible
        assert [it.h_star for it in result.trace] == [1.0, h1]
        assert math.isnan(result.s) and math.isnan(result.abscissa)
        return result.message

    # log 1 - log 2 == log 2 - log 4 exactly
    assert solve(2.0) == ("flat residual: log(1 + Gamma) = -0.6931471805599453 "
                          "at h* = 1.0 and at h* = 2.0")
    # log 1.5 - log 3 is one rounding off, so the step goes to log h* ~ -2.5e15
    message = solve(1.5)
    assert message.startswith("secant step from h* = 1.5 to log h* = -")
    assert message.endswith(" leaves the floating-point range")


def residual(it, sigma=1.0):
    """(x, F) = (log h*, log h* - sigma log omega) of an iterate, as the solver forms it."""
    x = math.log(it.h_star)
    return x, x - sigma * math.log(it.omega)


def secant_x(older, newer, sigma=1.0):
    """log h* of the plain secant step from two iterates."""
    (x_prev, f_prev), (x_cur, f_cur) = residual(older, sigma), residual(newer, sigma)
    return x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)


def residual_problem(F):
    """A constant problem whose log residual at x = log h* is F(x) (sigma = 1)."""
    return constant_problem(lambda h, s: h * math.exp(-F(math.log(h))))


UNIT_SCALING = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)


def test_a_step_to_the_largest_log_h_star_is_taken():
    # F = log h* - log(max float) is linear in log h*, so the secant step from 2^31 and 1
    # lands on log h* = log(max float) exactly; its exp is finite, and the solve converges
    largest = sys.float_info.max
    result = secant_solve(constant_problem(lambda h, s: largest),
                          ExtendedScaling(delta=0.0, sigma=1.0, origin_weight=1.0),
                          ItmConfig(s_star=1.0, step=0.1, h0=2.0 ** 31, h1=1.0))
    assert result.converged and result.h_star == math.exp(math.log(largest))


def test_first_iterate_after_the_guesses_is_the_secant_step(spreading_grid):
    # interpolation starts at j = 3, so j = 2 keeps its bits: the spreading
    # grid of test_problems and the Table 1 rows
    solves = list(spreading_grid)
    for S, (h0, h1) in STEFAN_GUESSES.items():
        problem, scaling = make_stefan(StefanParams(S=S))
        config = ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1)
        solves.append((scaling, secant_solve(problem, scaling, config)))
    reached = [(scaling, r.trace) for scaling, r in solves if len(r.trace) >= 3]
    assert len(reached) == 15 + len(STEFAN_GUESSES)  # 15 of the 30 grid cases get to j = 2
    for scaling, trace in reached:
        assert trace[2].h_star == math.exp(secant_x(trace[0], trace[1], scaling.sigma))


def test_interpolation_lands_on_a_quadratic_root():
    # x = F + F^2, inverted for F > -1/2: inverse quadratic interpolation through
    # any three iterates is exact, so j = 3 is the root h* = 1 up to rounding
    result = secant_solve(residual_problem(lambda x: 2.0 * x / (1.0 + math.sqrt(1.0 + 4.0 * x))),
                          UNIT_SCALING,
                          ItmConfig(s_star=1.0, step=0.5, h0=math.exp(0.5), h1=math.exp(0.3)))
    assert result.converged
    trace = result.trace
    assert abs(math.log(trace[3].h_star)) <= 1e-15
    assert abs(trace[3].gamma_val) <= 1e-15
    assert abs(secant_x(trace[1], trace[2])) > 0.02  # the secant step misses it


def test_interpolation_far_beyond_the_secant_step_falls_back_to_it():
    # F = atan(5x) - 1 flattens, so the quadratic through j = 0, 1, 2 crosses
    # F = 0 more than twice as far from x_2 as the secant step does
    result = secant_solve(residual_problem(lambda x: math.atan(5.0 * x) - 1.0), UNIT_SCALING,
                          ItmConfig(s_star=1.0, step=0.5, h0=math.e, h1=1.0))
    assert result.converged
    (x0, f0), (x1, f1), (x2, f2) = map(residual, result.trace[:3])
    x_iqi = (x0 * f1 * f2 / ((f0 - f1) * (f0 - f2)) + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
             + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
    x_secant = secant_x(result.trace[1], result.trace[2])
    assert abs(x_iqi - x2) > 2.0 * abs(x_secant - x2)
    assert result.trace[3].h_star == math.exp(x_secant)


def test_stefan_sweep_gamma_evaluations(stefan_sweep):
    # the 61-case sweep of the benchmark: 366 evaluations with the secant
    # alone, 299 with IQI from a pair that brackets the root
    for S, result in stefan_sweep:
        assert result.converged
        assert abs(result.s - neumann_eta_w(S)) <= 1e-6
    assert sum(len(result.trace) for _, result in stefan_sweep) <= 299


def test_repeated_h_star_is_not_integrated_again(monkeypatch):
    # at S = 1e-300 the step from iterate 5 rounds to the same h*: iterate 6
    # repeats iterate 5's values, and only 6 of the 7 iterates integrate
    evaluate, asked = itm.evaluate_gamma, []
    monkeypatch.setattr(itm, "evaluate_gamma",
                        lambda *args: asked.append(args[2]) or evaluate(*args))
    problem, scaling, config, _ = _stefan_case(1e-300)
    result = secant_solve(problem, scaling, config)
    assert result.converged and result.iterations == 6
    assert result.trace[6] == result.trace[5]
    assert asked == [it.h_star for it in result.trace[:6]]


def test_step_that_rounds_to_the_same_h_star_names_it_once():
    # at tol = 1e-300 Table 1's S = 0.1 row stalls: the step from the last iterate
    # rounds back to it, and |Gamma| there is still above tol
    problem, scaling = make_stefan(StefanParams(S=0.1))
    result = secant_solve(problem, scaling, run_config(problem, scaling, h0=600.0, h1=700.0,
                                                       tol=1e-300))
    assert result.status is ItmStatus.SECANT_BREAKDOWN
    last = result.trace[-1]
    assert result.h_star == last.h_star == result.trace[-2].h_star and last.gamma_val != 0.0
    assert result.message == (f"interpolation step from h* = {last.h_star!r} rounds to zero: "
                              f"|Gamma| = {abs(last.gamma_val)!r} > tol = 1e-300")


def _stefan_case(S):
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    return problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1), 1e-13


def _spreading_case(H, L):
    # the shifted slope 1 + L/(5 H^3) loses digits as H grows against |L|: at
    # H = 2 and small |L| the two sides differ by up to 1.2e-12; the scaled
    # shift of ROADMAP item 2 should tighten this bound to 1e-13
    problem, scaling = make_spreading(SpreadingParams(H=H, L=L))
    return problem, scaling, ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1), 1e-11


def _linear_case(s_star):
    # w*(0) = h*^2/s* is invariant under z -> omega z, w -> omega w,
    # h -> omega h: the root is h* = s*, where s = 1
    problem = constant_problem(lambda h, s: h * h / s)
    return problem, UNIT_SCALING, ItmConfig(s_star=s_star, step=s_star / 10, h0=2.0, h1=0.5), 1e-13


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(st.builds(_stefan_case, st.floats(1e-3, 1e3)),
                      st.builds(_spreading_case, st.floats(0.25, 2.0), st.floats(-2.0, -0.1)),
                      st.builds(_linear_case, st.floats(0.1, 10.0))),
       lam=st.floats(0.01, 100.0))
def test_solve_commutes_with_the_stretching_group(case, lam):
    # RK4 with n fixed steps on [0, s*] commutes with z -> lam z, so a solve at
    # lam s*, lam step and guesses mapped by h* -> lam^(sigma/delta) h* takes the
    # same path: the same status after the same iterates, and the same s up to rounding
    problem, scaling, config, rel = case
    mu = lam ** (scaling.sigma / scaling.delta)
    scaled = ItmConfig(s_star=lam * config.s_star, step=lam * config.step,
                       h0=mu * config.h0, h1=mu * config.h1)
    assert round(scaled.s_star / scaled.step) == round(config.s_star / config.step)
    a, b = (secant_solve(problem, scaling, c) for c in (config, scaled))
    assert (a.status, a.iterations) == (b.status, b.iterations)
    assert abs(a.s - b.s) <= rel * a.s or (math.isnan(a.s) and math.isnan(b.s))


@pytest.mark.parametrize("lam", [1e-3, 0.25, 2.0, 4.0, 1e3])
@pytest.mark.parametrize("problem, scaling, rel", [
    (*make_stefan(StefanParams(S=1.0)), 1e-13),
    (*make_stefan(StefanParams(S=1e-3)), 1e-13),
    (*make_spreading(SpreadingParams(H=0.5, L=-0.5)), 1e-11),
    (*make_spreading(SpreadingParams(H=2.0, L=-1.0)), 1e-11),
])
def test_run_config_solves_alike_at_every_s_star(problem, scaling, rel, lam):
    # the default path at lam s*: the problem's step count and the pair mapped by
    # the group, so the solve takes the path of the one at s* = 1/2
    config = run_config(problem, scaling, s_star=lam * 0.5)
    assert round(config.s_star / config.step) == problem.steps
    a, b = (secant_solve(problem, scaling, c) for c in (run_config(problem, scaling), config))
    assert a.converged and b.converged and a.iterations == b.iterations
    assert abs(a.s - b.s) <= rel * a.s


def test_run_config_uses_each_given_setting_as_is():
    problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    config = run_config(problem, scaling, s_star=2.0, steps=200, h0=3.0, tol=1e-9, max_iter=7)
    # h1 is the default 0.1, mapped by (2 s*)^2 = 16
    assert config == ItmConfig(s_star=2.0, step=0.01, h0=3.0, h1=1.6, tol=1e-9, max_iter=7)
    # and a given h1 leaves h0 the default 0.5, mapped alike
    assert run_config(problem, scaling, s_star=2.0, h1=3.0)[2:4] == (8.0, 3.0)


@pytest.mark.parametrize("steps, runs", [(500, 506), (1000, 1012), (2000, 2024)])
def test_run_config_rejects_a_step_that_runs_another_count(steps, runs):
    # s* = 1e-320 is subnormal: s*/n rounds to a step that s*/step does not map back to n
    problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    assert round(1e-320 / (1e-320 / steps)) == runs
    with pytest.raises(InvalidParams, match=rf"^s_star = 1e-320 would run {runs} RK4 steps "
                                            rf"of .*, not {steps}$"):
        run_config(problem, scaling, s_star=1e-320, steps=steps, h0=1.0, h1=2.0)


def test_omega_non_positive_is_a_status():
    # g = w*(0) = 1 - h*, which is -1 at h1 = 2
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)
    result = secant_solve(constant_problem(lambda h, s: 1.0 - h), scaling,
                          ItmConfig(s_star=1.0, step=0.1, h0=0.5, h1=2.0))
    assert result.status is ItmStatus.OMEGA_NON_POSITIVE
    assert result.h_star == 2.0 and len(result.trace) == 1  # h1 failed, index 1
    assert result.message == "g(w*(0), w*'(0)) = -1.0 at h* = 2.0 is not positive"
    assert math.isnan(result.omega) and math.isnan(result.abscissa)


def test_origin_condition_g_equal_to_c_is_written_g_over_c():
    # a problem states g(w(0), w'(0)) = 1: the condition w(0) = C is g = w/C, so
    # with weight 1 omega = w*(0)/C, and a negative C leaves no positive g
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=1.0)
    config = ItmConfig(s_star=1.0, step=0.1, h0=0.5, h1=2.0)
    for C in (2.0, 0.25):
        problem = dataclasses.replace(constant_problem(lambda h, s: 3.0),
                                      origin_condition=lambda w, dw: w / C)
        assert evaluate_gamma(problem, scaling, 0.5, config)[1] == 3.0 / C
    problem = dataclasses.replace(constant_problem(lambda h, s: 3.0),
                                  origin_condition=lambda w, dw: w / -1.0)
    result = secant_solve(problem, scaling, config)
    assert result.status is ItmStatus.OMEGA_NON_POSITIVE
    assert result.message == "g(w*(0), w*'(0)) = -3.0 at h* = 0.5 is not positive"


def test_omega_beyond_float_range_is_a_status():
    # g = 1e300 is positive, but omega = g^(1/k) = 1e3000 for k = 0.1, and 1e-3000
    # (0.0) for g = 1e-300
    scaling = ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=0.1)
    for g, omega in ((1e300, "inf"), (1e-300, "0.0")):
        result = secant_solve(constant_problem(lambda h, s: g), scaling,
                              ItmConfig(s_star=1.0, step=0.1, h0=0.5, h1=2.0))
        assert result.status is ItmStatus.OMEGA_NON_POSITIVE
        assert result.h_star == 0.5 and result.trace == []
        assert result.message == f"omega = {omega} at h* = 0.5"


def test_g_equal_to_zero_is_not_positive():
    # omega = 0^(1/k) would be 0 for k > 0 and raise ZeroDivisionError for k < 0:
    # the g test stops both first
    for weight in (1.0, -1.0):
        result = secant_solve(constant_problem(lambda h, s: 0.0),
                              ExtendedScaling(delta=1.0, sigma=1.0, origin_weight=weight),
                              ItmConfig(s_star=1.0, step=0.1, h0=0.5, h1=2.0))
        assert result.status is ItmStatus.OMEGA_NON_POSITIVE
        assert result.message == "g(w*(0), w*'(0)) = 0.0 at h* = 0.5 is not positive"


def test_each_stopping_clause_holds_at_equality():
    # omega = w*(0) = h*. With delta = sigma = 0, Gamma = h* - 1 and s_j = s*: |Gamma| is
    # 0.5 = tol at both guesses. With delta = -1, sigma = 1, Gamma = 0 and s_j = h* s*:
    # the guesses' s differ by 0.5 = tol. Either way iterate 1 converges.
    problem = constant_problem(lambda h, s: h)
    for delta, sigma, h0, h1 in ((0.0, 0.0, 1.5, 0.5), (-1.0, 1.0, 2.0, 4.0)):
        result = secant_solve(problem, ExtendedScaling(delta, sigma, 1.0),
                              ItmConfig(s_star=0.25, step=0.025, h0=h0, h1=h1, tol=0.5))
        assert result.converged and result.iterations == 1 and result.h_star == h1


@pytest.mark.parametrize("H, L", [(0.25, -0.5), (0.1, -0.5)])
def test_sign_flipped_root_is_omega_non_positive(H, L):
    # near h* = 100..316 the extended spreading problem has V*'(0) < 0, and
    # V*'(0)^2 has a root there with U'(0) = -2; the signed g = V*'(0)
    # rejects it at the first guess
    problem, scaling = make_spreading(SpreadingParams(H=H, L=L))
    result = secant_solve(problem, scaling,
                          ItmConfig(s_star=0.5, step=5e-4, h0=100.0, h1=316.0))
    assert result.status is ItmStatus.OMEGA_NON_POSITIVE
    assert result.h_star == 100.0 and result.trace == []
    assert result.message.startswith("g(w*(0), w*'(0)) = -")


def test_config_validation():
    # ItmConfig checks itself when it is built, so secant_solve never raises
    for kwargs in (
        dict(s_star=-0.5),
        dict(s_star=math.inf, step=1.0),
        dict(h0=1.0, h1=1.0),
        dict(h0=-1.0),  # guesses must be positive: the secant steps in log h*
        dict(h0=0.0),
        dict(h1=0.0),
        dict(h0=math.inf),
        dict(h1=math.inf),
        dict(tol=math.nan),
        dict(tol=0.0),  # a positive |Gamma| could never meet it
        dict(tol=math.inf),  # |Gamma| <= inf holds at once: "converged" at any iterate
        dict(step=10.0),  # a step longer than s_star would be one step of length s_star
        dict(step=0.0),  # s_star/step would divide by zero
        dict(s_star=1e300, step=1e-10),  # s_star/step overflows: no finite step count
        dict(s_star=1e50, step=1e-3),  # 1e53 steps: an integration that never ends
        dict(s_star=78.87444788003997, step=78.87444788003997 / (10 ** 7 + 1)),  # one past 10^7
        dict(max_iter=0),  # iterate 1 is evaluated before the bound is tested
        dict(max_iter=-3),
    ):
        with pytest.raises(InvalidParams):
            ItmConfig(**{**dict(s_star=0.5, step=1e-3, h0=1.0, h1=2.0), **kwargs})


def test_trace_indices_and_s_positive(stefan_s1):
    # iterate j is trace[j]: the guesses are 0 and 1
    assert stefan_s1.iterations == len(stefan_s1.trace) - 1
    for it in stefan_s1.trace:
        assert it.s_j > 0.0


def test_profile_recording(spreading_problem):
    problem, scaling = spreading_problem
    config = ItmConfig(s_star=1.0, step=5e-4, h0=0.5, h1=0.1)
    result = secant_solve(problem, scaling, config)
    profile = original_profile(problem, result.s, 100)
    assert len(profile) == 101
    # profile is reported in the original U variable, increasing eta
    assert profile.eta[0] == 0.0
    assert profile.eta[-1] == pytest.approx(result.s)
    assert profile.u[-1] == pytest.approx(0.5, abs=1e-8)  # U(eta_w) = H
    assert profile.du[0] == pytest.approx(0.0, abs=1e-6)  # U'(0) = 0


def test_solution_profile_is_the_last_iterate_mapped_back(stefan_sweep, spreading_grid):
    # every converged case of the sweep and the grid: the n + 1 nodes of the
    # solve's own iterate, from the report's (0, w0, dw0) to its s, bit for bit
    cases = ([(sweep_case(S), r) for S, (_, r) in zip(SWEEP, stefan_sweep)]
             + [(grid_case(H, L), r) for (H, L), (_, r) in zip(GRID, spreading_grid)])
    converged = [(case, r) for case, r in cases if r.converged]
    assert len(converged) == 61 + 13
    for (problem, scaling, config), result in converged:
        profile = solution_profile(problem, scaling, config, result)
        assert len(profile) == round(config.s_star / config.step) + 1
        assert (profile.eta[0], profile.u[0], profile.du[0]) == (0.0, result.w0, result.dw0)
        assert profile.eta[-1] == result.s
        assert list(profile.eta) == sorted(profile.eta)
    # Stefan: omega = w*(0), so U(0) = w*(0)/omega is exactly the Dirichlet value
    assert all(result.w0 == 1.0 for _, result in converged[:61])


def test_solution_profile_of_an_unconverged_result_is_rejected():
    stefan, spread = sweep_case(1.0), grid_case(0.1, -0.5)
    unconverged = [(stefan, secant_solve(*stefan[:2], stefan[2]._replace(max_iter=1))),
                   (spread, secant_solve(*spread))]
    assert [r.status for _, r in unconverged] == [ItmStatus.MAX_ITER_EXCEEDED,
                                                  ItmStatus.SINGULAR_INTEGRATION]
    for case, result in unconverged:
        with pytest.raises(InvalidParams, match=f"a {result.status.value} result has no "):
            solution_profile(*case, result)


@pytest.mark.parametrize("make, config", [
    (lambda: make_spreading(SpreadingParams(H=2.0, L=-0.5)),  # h* H overflows
     ItmConfig(s_star=0.5, step=5e-4, h0=1e308, h1=1e307)),
    (lambda: make_stefan(StefanParams(S=1e300)),  # -(1/2) h*^(3/4) S s* overflows
     ItmConfig(s_star=0.5, step=1e-3, h0=1e300, h1=1e299)),
])
def test_overflowing_guess_is_singular_at_s_star(make, config):
    problem, scaling = make()
    result = secant_solve(problem, scaling, config)
    assert result.status is ItmStatus.SINGULAR_INTEGRATION
    assert result.h_star == config.h0 and result.trace == []
    assert result.abscissa == config.s_star
    assert result.message.startswith("start state (w, w') = (")
    assert result.message.endswith(f") at z = {config.s_star!r} is not finite")


def test_inline_and_called_rhs_solve_alike(monkeypatch, stefan_sweep, spreading_grid):
    # each bundled RHS runs inline in the RK4 loop; wrapped in a plain function, as the
    # benchmark's tracer wraps it, it is called 4 times per step instead. Every solve of
    # the sweep, the grid (17 failing cases included) and Table 1 is the same, bit for bit
    table = [(*make_stefan(StefanParams(S=S)), h0, h1) for S, (h0, h1) in STEFAN_GUESSES.items()]
    table = [(problem, scaling, run_config(problem, scaling, h0=h0, h1=h1))
             for problem, scaling, h0, h1 in table]
    cases = ([sweep_case(S) for S in SWEEP] + [grid_case(H, L) for H, L in GRID] + table)
    inline = ([r for _, r in stefan_sweep] + [r for _, r in spreading_grid]
              + [secant_solve(*case) for case in table])
    assert sum(not r.converged for r in inline) == 17
    calls, integrations, integrate = [0], [0], itm.integrate_inward

    def counted(*args, **kwargs):
        calls[0] = 0
        result = integrate(*args, **kwargs)
        assert calls[0] == 4 * result.steps_taken
        integrations[0] += 1
        return result

    def called(rhs):
        def plain(*args):
            calls[0] += 1
            return rhs(*args)
        return plain

    monkeypatch.setattr(itm, "integrate_inward", counted)
    for (problem, scaling, config), expected in zip(cases, inline):
        problem = dataclasses.replace(problem, extended_rhs=called(problem.extended_rhs))
        result = secant_solve(problem, scaling, config)
        # repr: every field, exact for every float, and nan equals nan
        assert repr(result) == repr(expected)
    assert integrations[0] > len(cases)
