import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from itmfree.cli import main
from itmfree.errors import InvalidParams, SingularRhs
from itmfree.itm import (ItmConfig, ItmStatus, evaluate_gamma, original_profile, run_config,
                         secant_solve)
from itmfree.ivp import State2
from itmfree.problems import (
    STEFAN_GUESSES,
    SpreadingParams,
    StefanParams,
    make_spreading,
    make_stefan,
    stefan_default_guesses,
)
from itmfree.reference import exact_spreading, neumann_eta_w, neumann_profile


def test_param_validation():
    with pytest.raises(InvalidParams):
        StefanParams(S=0.0)
    with pytest.raises(InvalidParams):
        StefanParams(S=-1.0)
    with pytest.raises(InvalidParams):
        SpreadingParams(H=0.0, L=1.0)
    for S in (math.inf, math.nan):
        with pytest.raises(InvalidParams):
            StefanParams(S=S)
    for H, L in ((math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                 (0.5, math.inf), (0.5, -math.inf), (0.5, math.nan),
                 (1e200, -0.5), (-1e200, -0.5), (1e-200, -0.5),  # H^3 overflows, underflows
                 (6e102, -0.5), (1e-108, -0.5)):  # just past the edges of H^3's range
        with pytest.raises(InvalidParams):
            SpreadingParams(H=H, L=L)
    SpreadingParams(H=-0.5, L=0.0)  # negative H and any finite L are allowed
    for H in (5e102, 1e-100):  # H^3 = 1.25e308 and 1e-300, inside the float range
        SpreadingParams(H=H, L=-0.5)


def test_stefan_extended_degenerates_at_h1():
    problem, _ = make_stefan(StefanParams(S=2.0))
    y = State2(0.3, 0.7)
    for z in np.linspace(0.0, 1.5, 11):
        # the RHS derived at h = 1 is the original U'' = -(1/2) eta U', bit for bit
        assert problem.extended_rhs(problem.coefficients(1.0), z, *y) == -0.5 * z * y.dw
    # at h = 1 the boundary data are the original U(eta_w) = 0, U'(eta_w) = -(S/2) eta_w
    assert problem.extended_boundary(1.0, 0.8) == (0.0, -0.5 * 2.0 * 0.8)


def test_spreading_extended_degenerates_at_h1():
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    y = State2(0.3 + 0.7, -0.5 + 1.0)  # shifted variables at eta = 0.7
    # U'' = -3 U'^2/U - eta U'/(5 U^3) - 1/(5 U^2) at U = 0.3, U' = -0.5
    u, du = 0.3, -0.5
    expected = -3.0 * du * du / u - 0.7 * du / (5.0 * u ** 3) - 1.0 / (5.0 * u ** 2)
    assert problem.extended_rhs(problem.coefficients(1.0), 0.7, *y) == pytest.approx(
        expected, rel=1e-12)
    # at h = 1 the boundary data are V(s) = H + s and V'(s) = L/(5 H^3) + 1
    assert problem.extended_boundary(1.0, 0.7) == (0.5 + 0.7, -0.5 / (5.0 * 0.5 ** 3) + 1.0)


def test_spreading_boundary_slope_value():
    # L/(5 H^3) = -0.5/0.625 = -4/5; the shifted slope adds 1
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    assert problem.extended_boundary(1.0, 1.0)[1] == pytest.approx(0.2, rel=1e-14)
    assert problem.to_original(1.0, 1.5, 0.2) == (0.5, -0.8)


def test_spreading_positivity_guard():
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    with pytest.raises(SingularRhs) as exc:
        problem.extended_rhs(problem.coefficients(4.0), 1.0, 1.0, 0.0)  # V - 2 eta = -1
    assert exc.value.abscissa == 1.0


def test_spreading_rhs_finite_where_cube_overflows():
    # W = V - h^(1/2) eta ~ 1e103: W^2 is finite, W^3 overflows to inf, so the
    # W^-3 term is 0, c/W^2 is below half an ulp of 3 W'^2/W, and the RHS is
    # that finite limit, not an OverflowError
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    coef = problem.coefficients(4.0)
    sh = coef[0]
    for z, big in ((0.0, 1e103), (0.3, 7e102), (1.0, 1e200)):
        w, dw = big + sh * z, 1.5 + sh
        u, du = w - sh * z, dw - sh
        assert problem.extended_rhs(coef, z, w, dw) == -3.0 * du * du / u


@settings(max_examples=300, deadline=None)
@given(W=st.floats(1e-3, 1e3), D=st.floats(-1e3, 1e3), z=st.floats(0.0, 10.0),
       h=st.floats(1e-4, 1e4))
def test_spreading_rhs_accuracy(W, D, z, h):
    # the RHS -3 D^2/W - c z D/W^3 - c/W^2 in float arithmetic is within a few
    # roundings of each term of its 40-digit value; W and D are the shifted
    # values as the RHS itself forms them from (w, w')
    mpmath = pytest.importorskip("mpmath")
    problem, _ = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    coef = problem.coefficients(h)
    sh, c = coef
    w, dw = W + sh * z, D + sh
    W, D = w - sh * z, dw - sh
    got = problem.extended_rhs(coef, z, w, dw)
    with mpmath.workdps(40):
        mW, mD, mz, mc = (mpmath.mpf(v) for v in (W, D, z, c))
        terms = (-3 * mD * mD / mW, -mc * mz * mD / mW ** 3, -mc / mW ** 2)
        err = abs(mpmath.mpf(got) - mpmath.fsum(terms))
        bound = 8 * mpmath.mpf(2) ** -53 * mpmath.fsum(abs(t) for t in terms)
    assert err <= bound, (got, float(err), float(bound))


def test_stefan_full_solve_s10():
    problem, scaling = make_stefan(StefanParams(S=10.0))
    h0, h1 = STEFAN_GUESSES[10.0]
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    assert result.s == pytest.approx(neumann_eta_w(10.0), abs=1e-6)
    assert result.dw0 == pytest.approx(-2.3092862287748814, abs=1e-6)


def test_stefan_full_solve_s01():
    problem, scaling = make_stefan(StefanParams(S=0.1))
    h0, h1 = STEFAN_GUESSES[0.1]
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    assert result.s == pytest.approx(neumann_eta_w(0.1), abs=5e-6)
    assert result.w0 == pytest.approx(1.0, abs=1e-12)


def test_stefan_profile_matches_closed_form():
    problem, scaling = make_stefan(StefanParams(S=1.0))
    result = secant_solve(problem, scaling,
                          ItmConfig(s_star=0.5, step=1e-3, h0=30.0, h1=40.0))
    prof = original_profile(problem, result.s, 200)
    sup = max(abs(prof.u[i] - neumann_profile(eta, result.s).w)
              for i, eta in enumerate(prof.eta))
    assert sup <= 1e-3


def test_spreading_profile_matches_exact():
    problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    result = secant_solve(problem, scaling,
                          ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1))
    prof = original_profile(problem, result.s, 200)
    for i, eta in enumerate(prof.eta):
        exact = exact_spreading(min(eta, 1.0))
        assert abs(prof.u[i] - exact.w) <= 1e-6
        assert abs(prof.du[i] - exact.dw) <= 1e-5


def test_spreading_s_star_independence():
    # the recovered boundary must not depend on the arbitrary starred boundary
    problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))
    results = [
        secant_solve(problem, scaling,
                     ItmConfig(s_star=s_star, step=5e-4, h0=0.5, h1=0.1))
        for s_star in (0.5, 0.8, 1.0)
    ]
    for r in results:
        assert r.converged
        assert r.s == pytest.approx(1.0, abs=1e-6)
        assert r.w0 == pytest.approx((17.0 / 40.0) ** (1.0 / 3.0), abs=1e-6)


def test_stefan_s_star_independence():
    problem, scaling = make_stefan(StefanParams(S=1.0))
    a = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=30.0, h1=40.0))
    b = secant_solve(problem, scaling, ItmConfig(s_star=1.0, step=1e-3, h0=2.0, h1=3.0))
    assert a.converged and b.converged
    assert a.s == pytest.approx(b.s, abs=1e-6)
    assert a.dw0 == pytest.approx(b.dw0, abs=1e-6)


def test_table_stefan_runs_the_paper_pairs(capsys):
    # the Table 1 pairs are the table's run settings: each row is the library
    # solve from its STEFAN_GUESSES pair, bit for bit
    assert main(["table", "stefan", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["S"] for row in rows] == list(STEFAN_GUESSES)
    for row, (S, (h0, h1)) in zip(rows, STEFAN_GUESSES.items()):
        problem, scaling = make_stefan(StefanParams(S=S))
        result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
        assert result.converged
        assert (row["h_star"], row["dU0"], row["eta_w"]) == (result.h_star, result.dw0, result.s)


def test_default_guesses_bracket_the_root():
    # S = 10^(k/40) from the smallest S whose 1/(2S) is finite (k = -12342,
    # S = 2.8e-309) to 1e150, and the six S of Table 1; the estimate is exact
    # as S -> inf, so its side of the bracket holds only to rounding
    for S in [10.0 ** (k / 40) for k in range(-12342, 6001)] + list(STEFAN_GUESSES):
        h0, h1 = stefan_default_guesses(S)
        root = (neumann_eta_w(S) / 0.5) ** 4
        assert h1 < root <= h0 * (1.0 + 1e-14), S
    # below that, 1/(2S) overflows and run_config rejects the pair (inf, inf)
    problem, scaling = make_stefan(StefanParams(S=10.0 ** (-12343 / 40)))
    with pytest.raises(InvalidParams, match=r"the default guesses \(inf, inf\) at s_star = 0.5"):
        run_config(problem, scaling)


@pytest.mark.parametrize("S", [0.2, 0.7, 2.0, 8.0, 20.0])
def test_default_guesses_untabulated_converge(S):
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    assert result.s == pytest.approx(neumann_eta_w(S), abs=1e-5)


@pytest.mark.parametrize("S", [1e16, 1e100])
def test_default_guesses_for_large_S_converge(S):
    # 1/(sqrt(pi) S) is below the float spacing at 1: log(1 + x) would be 0
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    assert result.s == pytest.approx(neumann_eta_w(S), rel=1e-9)


@pytest.mark.parametrize("k", range(-30, 31))
def test_stefan_sweep_converges_to_neumann_root(k):
    # S = 10^(k/10) with the default guesses; Gamma swings from +1257 to -1
    # over a factor of 4 in h* at S = 0.001, a secant in linear h* stalls
    # for S <= 0.0126
    S = 10.0 ** (k / 10)
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    assert abs(result.s - neumann_eta_w(S)) <= 1e-8


# Outcome per (H, L) on the spreading grid at s* = 0.5, step 5e-4, guesses
# 0.5/0.1; columns are L = -2, -1, -0.5, 0, 0.5, 1. C: converged;
# S: singular_integration at a guess h0 or h1; B: secant_breakdown.
SPREAD_GRID_L = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0)
SPREAD_GRID = {
    0.1: "SSSSSS",
    0.25: "CCCSSS",
    0.5: "CCCSSS",
    1.0: "CCCSSS",
    2.0: "CCCCBB",
}


@pytest.mark.parametrize("H, L, outcome", [
    (H, L, row[i]) for H, row in SPREAD_GRID.items() for i, L in enumerate(SPREAD_GRID_L)])
def test_spreading_grid_outcomes(H, L, outcome):
    problem, scaling = make_spreading(SpreadingParams(H=H, L=L))
    config = ItmConfig(s_star=0.5, step=5e-4, h0=0.5, h1=0.1)
    result = secant_solve(problem, scaling, config)
    if outcome == "C":
        assert result.converged
        assert result.message == "" and math.isnan(result.abscissa)
        prof = original_profile(problem, result.s, 1000)
        assert abs(prof.du[0]) <= 1e-5  # origin condition U'(0) = 0
        return
    assert result.message
    if outcome == "S":
        assert result.status is ItmStatus.SINGULAR_INTEGRATION
        assert len(result.trace) < 2
        assert result.h_star == (config.h0, config.h1)[len(result.trace)]
        assert 0.0 <= result.abscissa <= config.s_star
    else:
        assert result.status is ItmStatus.SECANT_BREAKDOWN
        assert result.h_star == result.trace[-1].h_star
        assert math.isnan(result.abscissa)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.15, max_value=30.0))
def test_default_guesses_property(S):
    problem, scaling = make_stefan(StefanParams(S=S))
    h0, h1 = stefan_default_guesses(S)
    result = secant_solve(problem, scaling, ItmConfig(s_star=0.5, step=1e-3, h0=h0, h1=h1))
    assert result.converged
    # Stefan condition at the recovered front: dU(eta_w) = -(S/2) eta_w
    prof = original_profile(problem, result.s, 100)
    assert prof.du[-1] == pytest.approx(-0.5 * S * result.s, rel=1e-12)


def test_stefan_gamma_sign_brackets_root():
    # Gamma changes sign across the root for S = 1
    problem, scaling = make_stefan(StefanParams(S=1.0))
    config = ItmConfig(s_star=0.5, step=1e-3, h0=30.0, h1=40.0)
    g_lo, _, _ = evaluate_gamma(problem, scaling, 30.0, config)
    g_hi, _, _ = evaluate_gamma(problem, scaling, 40.0, config)
    # Gamma is decreasing in h* for this embedding
    assert g_hi < 0.0 < g_lo
