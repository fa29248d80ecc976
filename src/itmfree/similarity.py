"""Scaling-group analysis for the parabolic moving-boundary class.

The model PDE is u_t = (u^n u_x)_x on 0 < x < x_w(t) with a power-law
condition at x = 0 (Dirichlet u(0,t) = A t^alpha or Neumann
u_x(0,t) = B t^beta). The one-parameter stretching group

    x -> lam x,  t -> lam^gamma t,  u -> lam^(alpha gamma) u

leaves the problem invariant when the exponents balance; the invariant
combinations eta = x t^(-1/gamma), U = t^(-alpha) u collapse the PDE to a
free boundary ODE. This module computes and validates the exponents and maps
profiles between physical and similarity variables.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple

from .errors import CheckedRecord, InvalidParams
from .ivp import SolutionProfile

__all__ = [
    "OriginKind",
    "SimilarityExponents",
    "PhysicalProfile",
    "gamma_from_alpha",
    "check_invariance",
    "reconstruct_physical",
]


class OriginKind(enum.Enum):
    DIRICHLET = "dirichlet"   # u(0, t) = A t^alpha
    NEUMANN = "neumann"       # u_x(0, t) = B t^beta


class SimilarityExponents(CheckedRecord, namedtuple("SimilarityExponents",
                                                    "n alpha gamma coefficient origin_kind beta",
                                                    defaults=(None,))):
    """Exponents (n, alpha, beta, gamma) and coefficient (A or B) of the group, all
    finite; beta belongs to a Neumann origin only, and is required there unless B = 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SimilarityExponents:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if name != "origin_kind" and value is not None and not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value}")
        if self.origin_kind is OriginKind.DIRICHLET and self.beta is not None:
            raise InvalidParams(f"a Dirichlet origin has no beta, got beta={self.beta}")
        # without beta the Neumann balance alpha*gamma - 1 - gamma*beta cannot be checked
        if (self.origin_kind is OriginKind.NEUMANN and self.coefficient != 0.0
                and self.beta is None):
            raise InvalidParams(f"a Neumann origin with coefficient={self.coefficient} "
                                "needs a beta")
        return self


class PhysicalProfile(namedtuple("PhysicalProfile", "x u du_dx x_w")):
    """A solution profile in physical (x, u) variables at a fixed time: the
    columns x, u and du/dx, and the free boundary x_w."""

    __slots__ = ()


def gamma_from_alpha(n: float, alpha: float) -> float:
    """Similarity time exponent gamma = 2 / (n alpha + 1); raises InvalidParams
    unless n alpha + 1 is finite and nonzero."""
    denom = n * alpha + 1.0
    if not (denom != 0.0 and math.isfinite(denom)):
        raise InvalidParams(f"n*alpha + 1 = {denom:g} for n={n}, alpha={alpha}")
    return 2.0 / denom


def check_invariance(exps: SimilarityExponents) -> list[float]:
    """Residuals of the exponent-balance relations for the scaling group.

    Returns [pde_residual, origin_residual]; both are zero exactly when the
    group leaves the PDE and the origin condition invariant. The PDE balance
    is gamma*(n*alpha + 1) - 2; the origin balance is zero by construction in
    the Dirichlet case and alpha*gamma - 1 - gamma*beta in the Neumann case
    (defined as zero when the coefficient B vanishes). The source paper's
    printed alpha = (beta + 1) / (2 - n - n beta) disagrees with that balance,
    which with gamma = 2 / (n alpha + 1) gives alpha = (2 beta + 1) / (2 - n).
    """
    pde = exps.gamma * (exps.n * exps.alpha + 1.0) - 2.0
    if exps.origin_kind is OriginKind.DIRICHLET or exps.coefficient == 0.0:
        origin = 0.0
    else:
        origin = exps.alpha * exps.gamma - 1.0 - exps.gamma * exps.beta
    return [pde, origin]


def reconstruct_physical(profile: SolutionProfile, exps: SimilarityExponents,
                         eta_w: float, t: float) -> PhysicalProfile:
    """Map a similarity profile back to physical variables at time t.

    x = eta t^(1/gamma), u = t^alpha U(eta), du/dx = t^(alpha - 1/gamma) U'(eta),
    and x_w = eta_w t^(1/gamma). Raises InvalidParams unless t is positive and finite,
    t^(1/gamma) is a nonzero float and every mapped value, x_w included, is finite.
    """
    if not 0.0 < t < math.inf:
        raise InvalidParams(f"t must be positive and finite, got {t}")
    try:
        tg = t ** (1.0 / exps.gamma)  # gamma = 0.0 raises ZeroDivisionError
        ta = t ** exps.alpha
        tslope = ta / tg  # so does tg = 0.0
    except (OverflowError, ZeroDivisionError):
        tg = ta = tslope = math.inf
    # rounding is monotone: a column's largest magnitude overflows first (inf scale: inf or nan)
    if not all(math.isfinite(max(map(abs, column), default=0.0) * scale) for column, scale in
               ((profile.eta, tg), ((eta_w,), tg), (profile.u, ta), (profile.du, tslope))):
        raise InvalidParams(f"t = {t!r} takes x, u or du/dx out of the float range at "
                            f"gamma = {exps.gamma!r}, alpha = {exps.alpha!r}")
    return PhysicalProfile(
        x=tuple(eta * tg for eta in profile.eta),
        u=tuple(u * ta for u in profile.u),
        du_dx=tuple(du * tslope for du in profile.du),
        x_w=eta_w * tg,
    )
