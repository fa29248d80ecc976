import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from itmfree.errors import InvalidParams
from itmfree.ivp import SolutionProfile
from itmfree.problems import spreading_exponents, stefan_exponents
from itmfree.similarity import (
    OriginKind,
    SimilarityExponents,
    alpha_from_beta,
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


@example(n=0.0, beta=-0.5)  # the paper's printed formula gives 0.25 here, the balance 0
@example(n=3.0, beta=-0.2)
@given(st.floats(min_value=-2.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_alpha_from_beta_zeroes_origin_residual(n, beta):
    # with B != 0 the Neumann origin balance must hold for the returned alpha
    alpha = alpha_from_beta(n, beta)
    if abs(n * alpha + 1.0) < 1e-3:
        return
    gamma = gamma_from_alpha(n, alpha)
    exps = SimilarityExponents(n=n, alpha=alpha, gamma=gamma, coefficient=1.0,
                               origin_kind=OriginKind.NEUMANN, beta=beta)
    pde, origin = check_invariance(exps)
    scale = 1.0 + abs(gamma) * (abs(alpha) + abs(beta))
    assert abs(pde) <= 1e-12 * scale
    assert abs(origin) <= 1e-12 * scale


def test_alpha_from_beta_degenerate():
    with pytest.raises(InvalidParams, match="degenerate denominator for n=2.0, beta=0.0"):
        alpha_from_beta(2.0, 0.0)  # 2 - n = 0


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

