import math
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from itmfree.errors import InvalidParams
from itmfree.ivp import SolutionProfile
from itmfree.problems import spreading_exponents, stefan_exponents
from itmfree.similarity import (
    OriginKind,
    SimilarityExponents,
    check_invariance,
    gamma_from_alpha,
    reconstruct_physical,
)


@pytest.mark.parametrize("n, alpha, expected", [
    (0.0, 0.0, 2.0),
    (3.0, -0.2, 5.0),
    (0.0, 7.0, 2.0),
])
def test_gamma_from_alpha(n, alpha, expected):
    assert gamma_from_alpha(n, alpha) == pytest.approx(expected, rel=1e-15)


def test_gamma_from_alpha_degenerate():
    with pytest.raises(InvalidParams, match=r"n\*alpha \+ 1 = 0 for n=2.0, alpha=-0.5"):
        gamma_from_alpha(2.0, -0.5)
    # a denominator beyond the float range would give gamma = 2/inf = 0
    with pytest.raises(InvalidParams, match=r"n\*alpha \+ 1 = inf for n=1e\+308, alpha=1e\+308"):
        gamma_from_alpha(1e308, 1e308)
    with pytest.raises(InvalidParams, match=r"n\*alpha \+ 1 = nan for n=nan, alpha=1.0"):
        gamma_from_alpha(math.nan, 1.0)


@example(n=0.0, beta=-0.5)  # the paper's printed formula gives 0.25 here, the balance 0
@example(n=3.0, beta=-0.2)
@given(st.floats(min_value=-2.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_alpha_from_beta_zeroes_origin_residual(n, beta):
    # with B != 0 the Neumann origin balance alpha*gamma - 1 = gamma*beta and
    # gamma = 2 / (n alpha + 1) give alpha = (2 beta + 1) / (2 - n)
    alpha = (2.0 * beta + 1.0) / (2.0 - n)
    if abs(n * alpha + 1.0) < 1e-3:
        return
    gamma = gamma_from_alpha(n, alpha)
    exps = SimilarityExponents(n=n, alpha=alpha, gamma=gamma, coefficient=1.0,
                               origin_kind=OriginKind.NEUMANN, beta=beta)
    pde, origin = check_invariance(exps)
    scale = 1.0 + abs(gamma) * (abs(alpha) + abs(beta))
    assert abs(pde) <= 1e-12 * scale
    assert abs(origin) <= 1e-12 * scale


def test_dirichlet_origin_rejects_beta():
    # a Dirichlet condition u(0, t) = A t^alpha has no Neumann exponent to balance
    with pytest.raises(InvalidParams, match=r"a Dirichlet origin has no beta, got beta=0.5"):
        SimilarityExponents(n=3.0, alpha=-0.2, gamma=5.0, coefficient=1.0,
                            origin_kind=OriginKind.DIRICHLET, beta=0.5)


def test_neumann_origin_with_a_coefficient_requires_beta():
    # u_x(0, t) = B t^beta with B != 0: the origin balance needs beta
    with pytest.raises(InvalidParams, match=r"a Neumann origin with coefficient=1.0 needs a beta"):
        SimilarityExponents(n=3.0, alpha=-0.2, gamma=5.0, coefficient=1.0,
                            origin_kind=OriginKind.NEUMANN)
    # with B = 0 the balance is vacuous, so beta may be left out
    exps = SimilarityExponents(n=3.0, alpha=-0.2, gamma=5.0, coefficient=0.0,
                               origin_kind=OriginKind.NEUMANN)
    assert check_invariance(exps)[1] == 0.0


@pytest.mark.parametrize("field", ["n", "alpha", "gamma", "coefficient", "beta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_exponent_rejected(field, value):
    # a non-finite exponent or coefficient made check_invariance return nan or inf
    finite = dict(n=3.0, alpha=-0.2, gamma=5.0, coefficient=1.0,
                  origin_kind=OriginKind.NEUMANN, beta=-0.2)
    with pytest.raises(InvalidParams, match=f"^{field} must be finite, got {value}$"):
        SimilarityExponents(**{**finite, field: value})


def test_check_invariance_stefan():
    assert check_invariance(stefan_exponents()) == [0.0, 0.0]


def test_check_invariance_spreading():
    # B = 0 makes the Neumann balance vacuous
    residuals = check_invariance(spreading_exponents())
    assert residuals[0] == pytest.approx(0.0, abs=1e-14)
    assert residuals[1] == 0.0


def test_check_invariance_violated_gamma():
    exps = SimilarityExponents(n=0.0, alpha=0.0, gamma=3.0, coefficient=1.0,
                               origin_kind=OriginKind.DIRICHLET)
    residuals = check_invariance(exps)
    assert residuals[0] != 0.0


def test_check_invariance_neumann_balance():
    # gamma consistent with alpha but not with beta: origin residual nonzero
    exps = SimilarityExponents(n=1.0, alpha=1.0, gamma=1.0, coefficient=2.0,
                               origin_kind=OriginKind.NEUMANN, beta=0.5)
    residuals = check_invariance(exps)
    assert residuals[1] == pytest.approx(1.0 * 1.0 - 1.0 - 1.0 * 0.5)


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-0.3, max_value=2.0))
def test_gamma_alpha_consistency(n, alpha):
    # any (n, alpha) with gamma from the balance has zero PDE residual
    if abs(n * alpha + 1.0) < 1e-6:
        return
    gamma = gamma_from_alpha(n, alpha)
    exps = SimilarityExponents(n=n, alpha=alpha, gamma=gamma, coefficient=1.0,
                               origin_kind=OriginKind.DIRICHLET)
    assert abs(check_invariance(exps)[0]) < 1e-12


def _sample_profile():
    eta = np.linspace(0.0, 1.2, 13)
    return SolutionProfile(eta=eta, u=1.0 - eta ** 2 / 2.0, du=-eta)


def test_reconstruct_identity_at_t1():
    prof = _sample_profile()
    phys = reconstruct_physical(prof, stefan_exponents(), eta_w=1.2, t=1.0)
    np.testing.assert_array_equal(phys.x, prof.eta)
    np.testing.assert_array_equal(phys.u, prof.u)
    np.testing.assert_array_equal(phys.du_dx, prof.du)
    assert phys.x_w == 1.2


def test_reconstruct_stefan_front_position():
    phys = reconstruct_physical(_sample_profile(), stefan_exponents(),
                                eta_w=1.240134, t=4.0)
    assert phys.x_w == pytest.approx(2.480268, abs=1e-12)


def test_reconstruct_spreading():
    prof = _sample_profile()
    phys = reconstruct_physical(prof, spreading_exponents(), eta_w=1.0, t=32.0)
    # 32^(1/5) = 2 and 32^(-1/5) = 1/2 exactly
    assert phys.x_w == pytest.approx(2.0, rel=1e-15)
    assert phys.u[0] == pytest.approx(prof.u[0] / 2.0, rel=1e-15)


def test_reconstruct_rejects_nonpositive_time():
    with pytest.raises(InvalidParams, match="t must be positive and finite"):
        reconstruct_physical(_sample_profile(), stefan_exponents(), 1.0, 0.0)
    with pytest.raises(InvalidParams, match="t must be positive and finite"):
        reconstruct_physical(_sample_profile(), stefan_exponents(), 1.0, -2.0)
    with pytest.raises(InvalidParams, match="t must be positive and finite"):
        reconstruct_physical(_sample_profile(), stefan_exponents(), 1.0, math.nan)
    with pytest.raises(InvalidParams, match="t must be positive and finite"):
        reconstruct_physical(_sample_profile(), stefan_exponents(), 1.0, math.inf)
    # t^(1/gamma) undefined (gamma = 0), overflowing, infinite (1/gamma = inf) or 0.0, and
    # t^alpha or the slope factor t^(alpha - 1/gamma) overflowing
    for gamma, alpha, t in [(0.0, 0.0, 2.0), (1e-3, 0.0, 10.0), (5e-324, 0.0, 10.0),
                            (-1e-3, 0.0, 10.0), (2.0, 400.0, 10.0), (1.0, -1.0, 1e-300)]:
        exps = SimilarityExponents(1.0, alpha, gamma, 1.0, OriginKind.DIRICHLET)
        with pytest.raises(InvalidParams, match=_float_range_message(t, gamma, alpha)):
            reconstruct_physical(_sample_profile(), exps, 1.0, t)


def _float_range_message(t, gamma, alpha):
    t, gamma, alpha = (re.escape(repr(v)) for v in (t, gamma, alpha))
    return rf"^t = {t} takes x, u or du/dx out of the float range at gamma = {gamma}, " \
           rf"alpha = {alpha}$"


_LINEAR_U = SimilarityExponents(0.0, 1.0, 2.0, 1.0, OriginKind.DIRICHLET)  # u = t U


# Stefan maps x by t^(1/2) and du/dx by t^(-1/2): each case scales one value of 1e300 by
# 1e10, past the largest float: x_w, then x, u = t U, and a negative du/dx
@pytest.mark.parametrize("exps, columns, eta_w, t", [
    (stefan_exponents(), ((0.0, 1.0), (1.0, 0.0), (-1.0, 1e300)), 1e300, 1e20),
    (stefan_exponents(), ((0.0, 1e300), (1.0, 0.0), (-1.0, 1.0)), 1.0, 1e20),
    (_LINEAR_U, ((0.0, 1.0), (1e300, 0.0), (-1.0, 1.0)), 1.0, 1e10),
    (stefan_exponents(), ((0.0, 1.0), (1.0, 0.0), (-1e300, 1.0)), 1.0, 1e-20)])
def test_reconstruct_rejects_a_mapped_value_beyond_the_float_range(exps, columns, eta_w, t):
    with pytest.raises(InvalidParams, match=_float_range_message(t, exps.gamma, exps.alpha)):
        reconstruct_physical(SolutionProfile(*columns), exps, eta_w, t)
    # a hundredth of it maps to about 1e308, inside the range
    scaled = [tuple(v if abs(v) < 1e300 else v / 100 for v in column) for column in columns]
    phys = reconstruct_physical(SolutionProfile(*scaled), exps, min(eta_w, 1e298), t)
    assert all(map(math.isfinite, (*phys.x, *phys.u, *phys.du_dx, phys.x_w)))


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_reconstruct_group_property(t, lam):
    # reconstructing at lam^gamma t equals stretching the reconstruction at t
    exps = stefan_exponents()
    prof = _sample_profile()
    a = reconstruct_physical(prof, exps, 1.2, lam ** exps.gamma * t)
    b = reconstruct_physical(prof, exps, 1.2, t)
    np.testing.assert_allclose(a.x, [lam * x for x in b.x], rtol=1e-12)
    np.testing.assert_allclose(a.u, [lam ** (exps.alpha * exps.gamma) * u for u in b.u],
                               rtol=1e-12)
    assert a.x_w == pytest.approx(lam * b.x_w, rel=1e-12)

