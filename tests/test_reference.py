import math

import pytest
from hypothesis import given, strategies as st

from itmfree.errors import InvalidParams
from itmfree.reference import (
    ASYMPTOTIC_ETA_W,
    erf,
    exact_spreading,
    neumann_eta_w,
    neumann_profile,
)

mpmath = pytest.importorskip("mpmath")


def _erf_oracle(x: float) -> float:
    # independent oracle: Maclaurin series summed in 50-digit arithmetic
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


@pytest.mark.parametrize("x", [0.0, 1e-8, 0.25, 0.5, 1.0, 1.5, 2.0, 2.9, 3.0, 4.0, 6.0])
def test_erf_against_series_oracle(x):
    assert erf(x) == pytest.approx(_erf_oracle(x), abs=1e-12)


def test_erf_known_value():
    assert erf(1.0) == pytest.approx(0.842700792949715, abs=1e-14)


@given(st.floats(min_value=-6.0, max_value=6.0))
def test_erf_odd_symmetry_and_bounds(x):
    assert erf(-x) == -erf(x)
    assert -1.0 <= erf(x) <= 1.0


def test_erf_monotone_across_branch_boundaries():
    for a, b in ((0.999999, 1.000001), (2.999999, 3.000001)):
        assert erf(a) < erf(b)
        assert erf(b) - erf(a) < 1e-5


def test_erf_within_2_ulp_on_the_criterion_7_grid():
    # 50-digit mpmath erf on criterion 7's grid; the error is in units in the
    # last place of the correctly rounded value
    worst = 0.0
    with mpmath.workdps(50):
        for i in range(1000):
            x = -6.0 + 12.0 * i / 999.0
            exact = mpmath.erf(mpmath.mpf(x))
            worst = max(worst, float(abs(erf(x) - exact)) / math.ulp(float(exact)))
    assert worst <= 2.0


def _front_residual(S: float, eta_w: float) -> float:
    return math.sqrt(math.pi) * S * eta_w * math.exp(eta_w ** 2 / 4.0) * erf(eta_w / 2.0) - 2.0


@pytest.mark.parametrize("S, expected", [
    (0.1, 2.513944243),
    (0.5, 1.601202726),
    (1.0, 1.240125267),
    (5.0, 0.6128478107),
    (10.0, 0.4400325455),
    (50.0, 0.1993383951),
])
def test_neumann_eta_w_values(S, expected):
    root = neumann_eta_w(S)
    assert root == pytest.approx(expected, abs=5e-9)
    assert abs(_front_residual(S, root)) <= 1e-12


@pytest.mark.parametrize("S", [1e-300, 1e20, 1e300, 1.5e308, 1.7976931348623157e308,
                               5e-324, 1e-323, 1e-320, 1e-316])
def test_neumann_eta_w_extreme_s(S):
    # the root lies far outside [1e-12, 4] (about 52.4 for S = 1e-300 and
    # sqrt(2/S) for large S), where exp(eta_w^2/4) overflows, sqrt(pi) S
    # overflows (S > 1e308) or the bracket must grow downward; a subnormal S times
    # sqrt(pi)/2 keeps only a few bits unless it is scaled first; judged by the
    # log-form residual in 40-digit arithmetic
    root = neumann_eta_w(S)
    assert math.isfinite(root) and root > 0.0
    with mpmath.workdps(40):
        eta = mpmath.mpf(root)
        residual = (mpmath.log(mpmath.sqrt(mpmath.pi) * S * eta * mpmath.erf(eta / 2) / 2)
                    + eta ** 2 / 4)
    assert abs(residual) <= 1e-12


def test_neumann_eta_w_monotone_in_s():
    values = [neumann_eta_w(S) for S in (0.1, 0.5, 1.0, 5.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_neumann_eta_w_rejects_bad_s():
    with pytest.raises(InvalidParams):
        neumann_eta_w(0.0)
    with pytest.raises(InvalidParams):
        neumann_eta_w(-3.0)
    for S in (math.inf, math.nan):
        with pytest.raises(InvalidParams, match="positive and finite"):
            neumann_eta_w(S)


def test_neumann_profile_endpoints():
    eta_w = neumann_eta_w(1.0)
    at0 = neumann_profile(0.0, eta_w)
    assert at0.w == 1.0
    atw = neumann_profile(eta_w, eta_w)
    assert atw.w == pytest.approx(0.0, abs=1e-14)
    # Stefan condition dU(eta_w) = -(S/2) eta_w holds at the root
    assert atw.dw == pytest.approx(-0.5 * 1.0 * eta_w, abs=1e-10)


def test_neumann_profile_domain():
    with pytest.raises(InvalidParams, match="outside"):
        neumann_profile(-0.1, 1.0)
    with pytest.raises(InvalidParams, match="outside"):
        neumann_profile(1.1, 1.0)
    with pytest.raises(InvalidParams, match="outside"):
        neumann_profile(0.0, 0.0)
    for eta, eta_w in ((math.nan, 1.0), (0.5, math.nan)):
        with pytest.raises(InvalidParams, match="outside"):
            neumann_profile(eta, eta_w)


def test_neumann_profile_derivative_consistency():
    # central difference of U matches dU to O(step^2)
    eta_w = neumann_eta_w(1.0)
    h = 1e-5
    for eta in (0.2, 0.6, 1.0):
        num = (neumann_profile(eta + h, eta_w).w - neumann_profile(eta - h, eta_w).w) / (2 * h)
        assert num == pytest.approx(neumann_profile(eta, eta_w).dw, abs=1e-9)


def test_exact_spreading_values():
    at0 = exact_spreading(0.0)
    assert at0.w == pytest.approx((17.0 / 40.0) ** (1.0 / 3.0), rel=1e-15)
    assert at0.dw == 0.0
    at1 = exact_spreading(1.0)
    assert at1.w == pytest.approx(0.5, rel=1e-14)
    assert at1.dw == pytest.approx(-0.8, rel=1e-13)


def test_exact_spreading_ode_residual():
    # U'' = -3 U^(-1) U'^2 - (1/5) eta U^(-3) U' - (1/5) U^(-2), checked by
    # central differences of the closed form, with U(eta_w) = H,
    # U'(eta_w) = L/(5 H^3) at eta_w = -L/H and U'(0) = 0; U'' reaches about
    # -47 for H = 0.1, so that case gets a wider absolute tolerance
    h = 1e-5
    for H, L, tol in ((0.5, -0.5, 1e-6), (0.25, -2.0, 1e-6), (1.0, -0.1, 1e-6),
                      (2.0, -4.0, 1e-6), (0.1, -0.5, 1e-5)):
        eta_w = -L / H
        for eta in [eta_w * (0.01 + 0.049 * i) for i in range(21)]:
            if eta + h > eta_w:
                continue
            u = exact_spreading(eta, H, L)
            upp = (exact_spreading(eta + h, H, L).dw - exact_spreading(eta - h, H, L).dw) / (2 * h)
            rhs = (-3.0 * u.dw ** 2 / u.w - 0.2 * eta * u.dw / u.w ** 3 - 0.2 / u.w ** 2)
            assert upp == pytest.approx(rhs, abs=tol)
        front = exact_spreading(eta_w, H, L)
        assert front.w == pytest.approx(H, rel=1e-14)
        assert front.dw == pytest.approx(L / (5.0 * H ** 3), rel=1e-13)
        assert exact_spreading(0.0, H, L).dw == 0.0


def test_exact_spreading_rejects_parameters_without_closed_form():
    for H, L in ((0.5, 0.0), (0.5, 0.5), (-0.5, -0.5), (0.0, -0.5), (math.nan, -0.5),
                 (0.5, math.nan), (math.inf, -0.5), (0.5, -math.inf),
                 (1e200, -0.5), (1e-200, -0.5)):  # H^3 overflows, underflows
        with pytest.raises(InvalidParams):
            exact_spreading(0.0, H, L)


def test_exact_spreading_domain():
    with pytest.raises(InvalidParams, match="outside"):
        exact_spreading(-1e-9)
    with pytest.raises(InvalidParams, match="outside"):
        exact_spreading(1.0 + 1e-9)
    with pytest.raises(InvalidParams, match="outside"):
        exact_spreading(math.nan)


def test_asymptotic_lookup():
    assert ASYMPTOTIC_ETA_W[1.0] == 1.240161
    assert ASYMPTOTIC_ETA_W[50.0] == 0.199499
    assert set(ASYMPTOTIC_ETA_W) == {0.1, 0.5, 1.0, 5.0, 10.0, 50.0}
