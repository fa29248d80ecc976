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
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidParams
from .ivp import SolutionProfile

__all__ = [
    "OriginKind",
    "SimilarityExponents",
    "PhysicalProfile",
    "gamma_from_alpha",
    "alpha_from_beta",
    "check_invariance",
    "reconstruct_physical",
]


class OriginKind(enum.Enum):
    DIRICHLET = "dirichlet"   # u(0, t) = A t^alpha
    NEUMANN = "neumann"       # u_x(0, t) = B t^beta


@dataclass(frozen=True)
class SimilarityExponents:
    """Exponents (n, alpha, beta, gamma) and coefficient (A or B) of the group."""

    n: float
    alpha: float
    gamma: float
    coefficient: float
    origin_kind: OriginKind
    beta: Optional[float] = None


@dataclass(frozen=True)
class PhysicalProfile:
    """A solution profile in physical (x, u) variables at a fixed time."""

    t: float
    x: tuple[float, ...]
    u: tuple[float, ...]
    du_dx: tuple[float, ...]
    x_w: float


def gamma_from_alpha(n: float, alpha: float) -> float:
    """Similarity time exponent gamma = 2 / (n alpha + 1)."""
    denom = n * alpha + 1.0
    if denom == 0.0:
        raise InvalidParams(f"n*alpha + 1 = 0 for n={n}, alpha={alpha}")
    return 2.0 / denom


def alpha_from_beta(n: float, beta: float) -> float:
    """Dirichlet exponent implied by a Neumann exponent beta.

    Solving the origin balance alpha*gamma - 1 = gamma*beta together with
    gamma = 2 / (n alpha + 1) gives alpha = (2 beta + 1) / (2 - n). The
    formula printed in the source paper, (beta + 1) / (2 - n - n beta),
    disagrees with that balance: for n = 0, beta = -1/2 it gives 0.25 where
    the balance requires 0.
    """
    denom = 2.0 - n
    if denom == 0.0:
        raise InvalidParams(f"degenerate denominator for n={n}, beta={beta}")
    return (2.0 * beta + 1.0) / denom


def check_invariance(exps: SimilarityExponents) -> list[float]:
    """Residuals of the exponent-balance relations for the scaling group.

    Returns [pde_residual, origin_residual]; both are zero exactly when the
    group leaves the PDE and the origin condition invariant. The PDE balance
    is gamma*(n*alpha + 1) - 2; the origin balance is zero by construction in
    the Dirichlet case and alpha*gamma - 1 - gamma*beta in the Neumann case
    (defined as zero when the coefficient B vanishes).
    """
    pde = exps.gamma * (exps.n * exps.alpha + 1.0) - 2.0
    if exps.origin_kind is OriginKind.DIRICHLET:
        origin = 0.0
    else:
        if exps.coefficient == 0.0 or exps.beta is None:
            origin = 0.0
        else:
            origin = exps.alpha * exps.gamma - 1.0 - exps.gamma * exps.beta
    return [pde, origin]


def reconstruct_physical(profile: SolutionProfile, exps: SimilarityExponents,
                         eta_w: float, t: float) -> PhysicalProfile:
    """Map a similarity profile back to physical variables at time t.

    x = eta t^(1/gamma), u = t^alpha U(eta), du/dx = t^(alpha - 1/gamma) U'(eta),
    and x_w = eta_w t^(1/gamma).
    """
    if not 0.0 < t < math.inf:
        raise InvalidParams(f"t must be positive and finite, got {t}")
    tg = t ** (1.0 / exps.gamma)
    ta = t ** exps.alpha
    tslope = ta / tg
    return PhysicalProfile(
        t=t,
        x=tuple(eta * tg for eta in profile.eta),
        u=tuple(u * ta for u in profile.u),
        du_dx=tuple(du * tslope for du in profile.du),
        x_w=eta_w * tg,
    )
