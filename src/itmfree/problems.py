"""Concrete problem builders: the one-phase Stefan problem and the viscous
gravity-current spreading problem, each reduced to a free boundary ODE with
its run settings and paired with its extended scaling group.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import CheckedRecord, InvalidParams
from .itm import ExtendedScaling, ReducedFreeBvp, _power
from .ivp import _inline_rhs
from .similarity import OriginKind, SimilarityExponents

__all__ = [
    "StefanParams",
    "SpreadingParams",
    "make_stefan",
    "make_spreading",
    "stefan_default_guesses",
    "stefan_exponents",
    "spreading_exponents",
    "STEFAN_GUESSES",
]

# The paper's Table 1 run settings: the secant guesses (h0, h1) of its run at
# each inverse Stefan number, which ``itmfree table stefan`` passes as
# overrides. Every other solve starts from stefan_default_guesses, one rule
# for every S that brackets the root, as the S = 50 pair here does not.
STEFAN_GUESSES: dict[float, tuple[float, float]] = {
    0.1: (600.0, 700.0),
    0.5: (100.0, 150.0),
    1.0: (30.0, 40.0),
    5.0: (3.0, 2.0),
    10.0: (1.0, 0.5),
    50.0: (1e-3, 1e-2),
}

_STEFAN_RHS = _inline_rhs("{a} = coef * {z} * {dw}")  # coef: the convection coefficient -h^(1/2)/2
# the shifted spreading problem's w''; coef is (h^(1/2), h^2/5)
_SPREADING_RHS = _inline_rhs("""u = {w} - sh * {z}
if u <= 0.0:  # (V - h^(1/2) eta)^(-3) blows up; diagnose instead of NaN
    raise SingularRhs({z}, f"V - h^(1/2) eta = {{u}} <= 0 at eta = {{{z}}}")
du = {dw} - sh
uu = u * u
{a} = -3.0 * du * du / u - c * {z} * du / (uu * u) - c / uu""", prelude="sh, c = coef")


class StefanParams(CheckedRecord, namedtuple("StefanParams", "S")):
    """S is the inverse Stefan number (0 < S < inf)."""

    __slots__ = ()

    def __new__(cls, S: float) -> StefanParams:
        if not 0.0 < S < math.inf:
            raise InvalidParams(f"S must be positive and finite, got {S}")
        return super().__new__(cls, S)


class SpreadingParams(CheckedRecord, namedtuple("SpreadingParams", "H L")):
    """Free-boundary fluid height H (H^3 finite and nonzero) and finite slope constant L."""

    __slots__ = ()

    def __new__(cls, H: float, L: float) -> SpreadingParams:
        if not 0.0 < abs(_power(H, 3.0)) < math.inf:  # the front slope divides by H^3
            raise InvalidParams(f"H^3 must be a finite nonzero float, got H = {H}")
        if not math.isfinite(L):
            raise InvalidParams(f"L must be finite, got {L}")
        return super().__new__(cls, H, L)


def stefan_exponents() -> SimilarityExponents:
    """n = 0, A = 1, alpha = 0, gamma = 2 (linear heat equation, Dirichlet)."""
    return SimilarityExponents(n=0.0, alpha=0.0, gamma=2.0, coefficient=1.0,
                               origin_kind=OriginKind.DIRICHLET)


def spreading_exponents() -> SimilarityExponents:
    """n = 3, B = 0 (any beta would do, so none is given), alpha = -1/5, gamma = 5."""
    return SimilarityExponents(n=3.0, alpha=-0.2, gamma=5.0, coefficient=0.0,
                               origin_kind=OriginKind.NEUMANN)


def make_stefan(params: StefanParams) -> tuple[ReducedFreeBvp, ExtendedScaling]:
    """Free boundary reduction of the one-phase Stefan problem.

    Original ODE: U'' = -(1/2) eta U', with U(0) = 1, U(eta_w) = 0 and
    U'(eta_w) = -(S/2) eta_w. The extended problem multiplies the convection
    coefficient by h^(1/2) and the boundary slope by h^(3/4); the group
    exponents are delta = -1, sigma = 4, and the origin condition g = U = 1
    has weight 1, so omega = U*(0). The h^(1/2) factor restricts h* to
    positive values.
    """
    S = params.S
    problem = ReducedFreeBvp(
        origin_condition=lambda w, dw: w,
        extended_rhs=_STEFAN_RHS,
        extended_boundary=lambda h, s: (0.0, -0.5 * h ** 0.75 * S * s),
        coefficients=lambda h: -0.5 * math.sqrt(h),  # the convection coefficient
        steps=500,
        guesses=stefan_default_guesses(S),
    )
    return problem, ExtendedScaling(delta=-1.0, sigma=4.0, origin_weight=1.0)


def make_spreading(params: SpreadingParams) -> tuple[ReducedFreeBvp, ExtendedScaling]:
    """Free boundary reduction of the viscous spreading problem.

    The origin condition U'(0) = 0 is homogeneous, so the solver works in the
    shifted variable V = U + eta, for which V'(0) = 1. The extended problem
    carries h^(1/2) inside the shift and h^2 on the singular terms; the group
    exponents are delta = 1/2, sigma = 1, and the origin condition g = V' = 1
    has weight 1 - delta = 1/2, so omega = V*'(0)^2, defined only for
    V*'(0) > 0. Profiles and recovered values are mapped back to U = V - eta.

    The RHS forms its powers of W = V - h^(1/2) eta as products, which stay
    on plain float arithmetic where ``**`` calls pow. Where W^3 overflows to
    inf, the W^-3 term falls to 0 and c/W^2 is negligible, so the RHS is its
    finite limit -3 W'^2/W instead of an error.
    """
    H, L = params.H, params.L
    slope = L / (5.0 * H ** 3) + 1.0
    problem = ReducedFreeBvp(
        origin_condition=lambda w, dw: dw,
        extended_rhs=_SPREADING_RHS,
        extended_boundary=lambda h, s: (h * H + math.sqrt(h) * s, math.sqrt(h) * slope),
        to_original=lambda eta, w, dw: (w - eta, dw - 1.0),
        coefficients=lambda h: (math.sqrt(h), h * h / 5.0),
        steps=1000,
        guesses=(0.5, 0.1),
    )
    return problem, ExtendedScaling(delta=0.5, sigma=1.0, origin_weight=0.5)


def stefan_default_guesses(S: float) -> tuple[float, float]:
    """Secant starting pair for a given S, meant for s* = 1/2.

    One rule for every S: the pair (h_U, 0.75 h_U) brackets the root, from
    the large-S limit of the Neumann relation. (The paper's Table 1 pairs are
    run settings, kept in STEFAN_GUESSES.) Where h_U underflows or overflows
    the pair is not usable, and ``ItmConfig`` rejects it.
    """
    # lambda = eta_w/2 solves sqrt(pi) lambda e^(lambda^2) erf(lambda) = 1/S;
    # as S -> inf, lambda^2 = log(1 + 1/(2S)) to leading order. Converted via
    # omega = eta_w / s*, s* = 1/2: h_U = (4 lambda)^4. On S = 10^(k/40) from
    # 2.8e-309 to 1e150 the root lies in [0.7576 h_U, (1 + 1.1e-15) h_U].
    # log1p: for S > ~5e15, 1 + 1/(2S) rounds to 1
    lam2 = math.log1p(0.5 / S)
    h_est = 256.0 * lam2 * lam2
    return h_est, 0.75 * h_est
