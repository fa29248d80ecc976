"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line (printed in the terminal summary by
conftest) and then asserts, so a failing criterion fails the suite while the
summary still reports every criterion's outcome.

Criteria 1 and 2 reproduce the published six-digit tables (``TABLE1``,
``TABLE2``, kept verbatim) with the published run settings, and judge every
tabulated quantity against an oracle that does not call itmfree: the
bisected Neumann root and dU0 = -1/(sqrt(pi) erf(eta_w/2)) for Table 1; the
closed forms eta_w = 1, U0 = (17/40)^(1/3) and a high-precision Taylor
integration of the extended problem for Gamma for Table 2. Each quantity
must pass three clauses:

1. accuracy: |program - oracle| <= 1e-4 (values) or 5e-6 (Gamma);
2. reproduction: |program - oracle| <= |published - oracle| + 5e-7, half a
   unit in the sixth printed decimal, i.e. the program is at least as close
   to the truth as the published entry;
3. table integrity: |published - oracle| stays within the measured error of
   that entry (``TABLE1_ERROR``, ``TABLE2_ERROR``), so a mistyped table
   entry still fails.

The published entries are up to 2e-4 (Table 1) and 3.2e-3 (Table 2) off the
oracles, so they cannot be the judge of accuracy themselves; the PASS lines
of both criteria report the worst published-versus-oracle error.
"""

import math

import pytest

from conftest import ACCEPTANCE_RESULTS
from itmfree.itm import ItmConfig, evaluate_gamma, original_profile, secant_solve
from itmfree.problems import (
    STEFAN_GUESSES,
    SpreadingParams,
    StefanParams,
    make_spreading,
    make_stefan,
    stefan_default_guesses,
)
from itmfree.reference import erf, exact_spreading, neumann_profile

mpmath = pytest.importorskip("mpmath")

STEP_STEFAN = 1e-3
STEP_SPREAD = 5e-4

# Published six-digit reference table for the Stefan runs
# (s* = 0.5, step 1e-3): S -> (eta_w, dU0, iterations).
TABLE1 = {
    0.1: (2.514145, -0.610425, 10),
    0.5: (1.601231, -0.760017, 9),
    1.0: (1.240134, -0.910875, 8),
    5.0: (0.612848, -1.683000, 7),
    10.0: (0.440033, -2.309323, 8),
    50.0: (0.199338, -5.033230, 11),
}

# Published reference for the spreading runs (step 5e-4, h0 = 0.5, h1 = 0.1):
# s* -> (Gamma(h0), Gamma(h1), U0, eta_w).
TABLE2 = {
    0.5: (0.177999, -0.198207, 0.751803, 0.996840),
    1.0: (-0.152895, -0.349655, 0.751825, 0.999842),
}

# Measured |published - oracle| per entry of TABLE1 and TABLE2 (same keys and
# column order), rounded up to two significant figures and never below
# HALF_UNIT, the rounding error of a correct sixth decimal.
HALF_UNIT = 5e-7
TABLE1_ERROR = {
    0.1: (2.1e-4, 1.9e-4),
    0.5: (2.9e-5, 1.3e-4),
    1.0: (8.8e-6, 9.8e-5),
    5.0: (HALF_UNIT, 5.1e-5),
    10.0: (HALF_UNIT, 3.7e-5),
    50.0: (HALF_UNIT, 1.8e-5),
}
TABLE2_ERROR = {
    0.5: (1.6e-4, 1.5e-4, 4.5e-5, 3.2e-3),
    1.0: (7.6e-5, 4.7e-5, 2.3e-5, 1.6e-4),
}


def _record(cid, failures, summary=""):
    ok = not failures
    ACCEPTANCE_RESULTS[cid] = (ok, "; ".join(failures) if failures else summary)
    assert ok, "; ".join(failures)


def _judge(label, program, published, oracle, tol, published_bound, failures):
    """Apply the accuracy, reproduction and table-integrity clauses to one
    tabulated quantity; returns |published - oracle|."""
    prog_err = abs(program - oracle)
    pub_err = abs(published - oracle)
    if prog_err > tol:
        failures.append(f"{label} {program:.6f} off oracle {oracle:.6f} "
                        f"by {prog_err:.2e} > {tol:g}")
    if prog_err > pub_err + HALF_UNIT:
        failures.append(f"{label} error {prog_err:.2e} exceeds published "
                        f"error {pub_err:.2e} + {HALF_UNIT:g}")
    if pub_err > published_bound:
        failures.append(f"{label} published {published} off oracle "
                        f"{oracle:.6f} by {pub_err:.2e} > {published_bound:g}")
    return pub_err


def _worst_summary(worst):
    pub_err, label = max(worst, default=(math.nan, "no converged run"))
    return f"worst published-vs-oracle error {pub_err:.2e} ({label})"


def _solve_stefan(S, h0=None, h1=None):
    problem, scaling = make_stefan(StefanParams(S=S))
    if h0 is None:
        h0, h1 = stefan_default_guesses(S)
    config = ItmConfig(s_star=0.5, step=STEP_STEFAN, h0=h0, h1=h1)
    return problem, secant_solve(problem, scaling, config)


def _solve_spread(s_star):
    problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    config = ItmConfig(s_star=s_star, step=STEP_SPREAD, h0=0.5, h1=0.1)
    return problem, scaling, config, secant_solve(problem, scaling, config)


def _bisection_oracle_eta_w(S):
    # independent of the package: stdlib math.erf, plain bisection
    def f(x):
        return math.sqrt(math.pi) * S * x * math.exp(x * x / 4.0) * math.erf(x / 2.0) - 2.0

    lo, hi = 1e-12, 4.0
    while f(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _gamma_oracle(h, s_star, H, L):
    """Gamma(h*) of the spreading problem by a 20-digit mpmath Taylor integration.

    Written out independently of the package: the extended problem in the
    shifted variable V = U + sqrt(h) eta,

        V'' = -3 D^2 / W - (h^2/5) eta D / W^3 - (h^2/5) / W^2,
        W = V - sqrt(h) eta,  D = V' - sqrt(h),
        V(s*) = h H + sqrt(h) s*,  V'(s*) = sqrt(h) (L / (5 H^3) + 1),

    integrated inward to eta = 0 in t = s* - eta; then omega = V'(0)^2 and
    Gamma = h / omega - 1.
    """
    with mpmath.workdps(20):
        h, s_star, H, L = (mpmath.mpf(v) for v in (h, s_star, H, L))
        sh = mpmath.sqrt(h)
        c = h * h / 5

        def f(t, y):
            eta = s_star - t
            v, dv_dt = y
            w = v - sh * eta
            d = -dv_dt - sh
            return [dv_dt, -3 * d * d / w - c * eta * d / w ** 3 - c / w ** 2]

        sol = mpmath.odefun(f, 0, [h * H + sh * s_star, -sh * (L / (5 * H ** 3) + 1)])
        dv_dt0 = sol(s_star)[1]
        return float(h / dv_dt0 ** 2 - 1)


def test_criterion_1_table1_reproduction():
    failures, worst = [], []
    for S, (eta_w_ref, du0_ref, j_ref) in TABLE1.items():
        h0, h1 = STEFAN_GUESSES[S]
        _, result = _solve_stefan(S, h0, h1)
        if not result.converged:
            failures.append(f"S={S}: did not converge")
            continue
        eta_w = _bisection_oracle_eta_w(S)
        du0 = -1.0 / (math.sqrt(math.pi) * math.erf(eta_w / 2.0))
        eta_w_bound, du0_bound = TABLE1_ERROR[S]
        for name, program, published, oracle, bound in (
                ("eta_w", result.s, eta_w_ref, eta_w, eta_w_bound),
                ("dU0", result.dw0, du0_ref, du0, du0_bound)):
            label = f"S={S}: {name}"
            worst.append((_judge(label, program, published, oracle, 1e-4, bound,
                                 failures), label))
        if result.iterations > j_ref + 3:
            failures.append(f"S={S}: {result.iterations} iterations vs {j_ref}+3")
    _record("1: Table 1 reproduction", failures, _worst_summary(worst))


def test_criterion_2_table2_reproduction():
    failures, worst = [], []
    u0_exact = (17.0 / 40.0) ** (1.0 / 3.0)
    for s_star, published in TABLE2.items():
        _, _, config, result = _solve_spread(s_star)
        if not result.converged:
            failures.append(f"s*={s_star}: did not converge")
            continue
        if result.iterations > 10:
            failures.append(f"s*={s_star}: {result.iterations} iterations > 10")
        oracles = (_gamma_oracle(config.h0, s_star, 0.5, -0.5),
                   _gamma_oracle(config.h1, s_star, 0.5, -0.5),
                   u0_exact, 1.0)
        programs = (result.trace[0].gamma_val, result.trace[1].gamma_val,
                    result.w0, result.s)
        for name, program, pub, oracle, tol, bound in zip(
                ("Gamma(h0)", "Gamma(h1)", "U0", "eta_w"), programs, published,
                oracles, (5e-6, 5e-6, 1e-4, 1e-4), TABLE2_ERROR[s_star]):
            label = f"s*={s_star}: {name}"
            worst.append((_judge(label, program, pub, oracle, tol, bound,
                                 failures), label))
    _record("2: Table 2 reproduction", failures, _worst_summary(worst))


def test_criterion_3_spreading_exact_cross_check():
    failures = []
    problem, _, _, result = _solve_spread(1.0)
    if abs(result.s - 1.0) > 5e-4:
        failures.append(f"|eta_w - 1| = {abs(result.s - 1.0):.2e} > 5e-4")
    u0_exact = (17.0 / 40.0) ** (1.0 / 3.0)
    if abs(result.w0 - u0_exact) > 1e-4:
        failures.append(f"|U0 - (17/40)^(1/3)| = {abs(result.w0 - u0_exact):.2e} > 1e-4")
    prof = original_profile(problem, result.s, 100)
    worst = max(abs(prof.u[i] - exact_spreading(min(eta, 1.0)).w)
                for i, eta in enumerate(prof.eta))
    if worst > 1e-3:
        failures.append(f"profile sup-error {worst:.2e} > 1e-3")
    _record("3: spreading exact-solution cross-check", failures)


def test_criterion_4_neumann_cross_check():
    failures = []
    all_s = sorted(STEFAN_GUESSES) + [0.2, 0.7, 2.0, 8.0, 20.0]
    for S in all_s:
        problem, result = _solve_stefan(S)
        if not result.converged:
            failures.append(f"S={S}: did not converge")
            continue
        root = _bisection_oracle_eta_w(S)
        if abs(result.s - root) > 1e-3:
            failures.append(f"S={S}: eta_w off oracle by {abs(result.s - root):.2e}")
        prof = original_profile(problem, result.s, 200)
        sup = max(abs(prof.u[i] - neumann_profile(min(eta, result.s), result.s).w)
                  for i, eta in enumerate(prof.eta))
        if sup > 1e-3:
            failures.append(f"S={S}: profile sup-error {sup:.2e} > 1e-3")
    _record("4: Neumann cross-check", failures)


def test_criterion_5_convergence_criterion_fidelity():
    failures = []
    runs = [("stefan S=1", _solve_stefan(1.0)[1]),
            ("stefan S=50", _solve_stefan(50.0)[1]),
            ("spread s*=0.5", _solve_spread(0.5)[3]),
            ("spread s*=1.0", _solve_spread(1.0)[3])]
    for label, result in runs:
        if not result.converged:
            failures.append(f"{label}: did not converge")
            continue
        last = result.trace[-1]
        if abs(last.gamma_val) > 1e-6:
            failures.append(f"{label}: |Gamma| = {abs(last.gamma_val):.2e} > 1e-6")
        if len(result.trace) >= 2:
            prev = result.trace[-2]
            if abs(last.s_j - prev.s_j) > 1e-6:
                failures.append(f"{label}: |s_j - s_(j-1)| = "
                                f"{abs(last.s_j - prev.s_j):.2e} > 1e-6")
    _record("5: convergence criterion fidelity", failures)


def test_criterion_6_rk4_order_property():
    from itmfree.ivp import State2, integrate_inward

    failures = []
    rhs = lambda _, z, w, dw: w
    errors = {}
    for n in (50, 100, 200, 400):
        res = integrate_inward(rhs, None, 1.0, State2(math.e, math.e), n)
        errors[n] = abs(res.endpoint.w - 1.0)
    for n in (50, 100, 200):
        ratio = errors[n] / errors[2 * n]
        if not 14.0 <= ratio <= 18.0:
            failures.append(f"n={n}: error ratio {ratio:.2f} outside [14, 18]")
    _record("6: RK4 order property", failures)


def _erf_series_oracle(x):
    # Maclaurin series in 50-digit arithmetic, summed until the terms fall
    # below the target precision (the alternating series is exact in exact
    # arithmetic; high precision removes the cancellation problem)
    with mpmath.workdps(50):
        mx = mpmath.mpf(x)
        total = mpmath.mpf(0)
        term = mx
        k = 0
        while abs(term) > mpmath.mpf(10) ** -45 * (abs(total) + 1):
            total += term / (2 * k + 1)
            k += 1
            term *= -mx * mx / k
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


def test_criterion_7_erf_accuracy():
    failures = []
    worst = 0.0
    for i in range(1000):
        x = -6.0 + 12.0 * i / 999.0
        worst = max(worst, abs(erf(x) - _erf_series_oracle(x)))
    if worst > 1e-12:
        failures.append(f"max |erf error| = {worst:.2e} > 1e-12")
    _record("7: erf accuracy", failures)


def test_criterion_8_fixed_point_property():
    failures = []
    stefan_problem, stefan_result = _solve_stefan(1.0)
    spread_problem, _, _, spread_result = _solve_spread(0.5)
    for label, problem, result, sigma, origin_value in (
            ("stefan", stefan_problem, stefan_result, 4.0, 1.0),
            ("spread", spread_problem, spread_result, 1.0, None)):
        h = result.omega ** -sigma * result.h_star
        if abs(h - 1.0) > 1e-6:
            failures.append(f"{label}: |h - 1| = {abs(h - 1.0):.2e} > 1e-6")
        prof = original_profile(problem, result.s, 1000)
        if label == "stefan":
            resid = abs(prof.u[0] - 1.0)   # U(0) = 1
        else:
            resid = abs(prof.du[0] - 0.0)  # U'(0) = 0
        if resid > 5e-5:
            failures.append(f"{label}: origin residual {resid:.2e} > 5e-5")
    _record("8: fixed-point property suite", failures)


def test_criterion_9_exact_residual_property():
    failures = []
    # exact spreading profile satisfies
    # U'' = -3 U^(-1) U'^2 - (1/5) eta U^(-3) U' - (1/5) U^(-2);
    # U'' in closed form from differentiating dU = -(eta/5) U^-2
    worst = 0.0
    eta = 0.01
    while eta <= 0.99 + 1e-12:
        u = exact_spreading(eta)
        upp = -(1.0 / (5.0 * u.w ** 2)) + (2.0 * eta / (5.0 * u.w ** 3)) * u.dw
        rhs = -3.0 * u.dw ** 2 / u.w - 0.2 * eta * u.dw / u.w ** 3 - 0.2 / u.w ** 2
        worst = max(worst, abs(upp - rhs))
        eta += 0.01
    if worst > 1e-8:
        failures.append(f"spreading residual {worst:.2e} > 1e-8")

    # Neumann closed form satisfies U'' = -(1/2) eta U' with an O(step^2)
    # central-difference second derivative
    eta_w = _bisection_oracle_eta_w(1.0)

    def resid_at(step):
        worst = 0.0
        for eta in (0.2, 0.5, 0.8, 1.1):
            um = neumann_profile(eta - step, eta_w).w
            u0 = neumann_profile(eta, eta_w).w
            up = neumann_profile(eta + step, eta_w).w
            upp = (up - 2.0 * u0 + um) / step ** 2
            worst = max(worst, abs(upp + 0.5 * eta * neumann_profile(eta, eta_w).dw))
        return worst

    r1, r2 = resid_at(1e-3), resid_at(2e-3)
    if r1 > 1e-6:
        failures.append(f"Neumann residual {r1:.2e} at step 1e-3 exceeds 1e-6")
    if not 2.0 <= r2 / r1 <= 8.0:  # O(step^2): expect ~4x
        failures.append(f"Neumann residual ratio {r2 / r1:.2f} not consistent with O(step^2)")
    _record("9: exact-residual property", failures)
