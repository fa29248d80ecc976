"""Closed-form and tabulated reference solutions used to validate the solver.

Includes the erf-based closed form of the one-phase Stefan problem with its
transcendental free-boundary equation, the exact spreading profile for every
H > 0, L < 0, and stored asymptotic front positions. erf is CPython's
``math.erf``, republished here as ``itmfree.reference.erf``.
"""

from __future__ import annotations

import math
import sys
from math import erf

from .errors import InvalidParams
from .ivp import State2
from .problems import SpreadingParams, StefanParams

__all__ = [
    "erf",
    "neumann_eta_w",
    "neumann_profile",
    "exact_spreading",
    "ASYMPTOTIC_ETA_W",
]

# Asymptotic-expansion front positions per inverse Stefan number.
ASYMPTOTIC_ETA_W: dict[float, float] = {
    0.1: 2.513961,
    0.5: 1.601187,
    1.0: 1.240161,
    5.0: 0.612864,
    10.0: 0.440000,
    50.0: 0.199499,
}


def _front_equation(S: float, eta_w: float) -> float:
    # log(sqrt(pi) S eta_w exp(eta_w^2/4) erf(eta_w/2) / 2): it has the sign of
    # the equation's lhs minus 2, and exp(eta_w^2/4) cannot overflow; S is
    # multiplied by sqrt(pi)/2 < 1, so no finite S overflows the product. A subnormal
    # S is scaled by 2^k first, exactly, so the product keeps every bit (k = 0 if normal)
    k = 64 if S < sys.float_info.min else 0
    return (math.log(math.ldexp(S, k) * (math.sqrt(math.pi) / 2.0) * eta_w * erf(eta_w / 2.0))
            - k * math.log(2.0) + eta_w * eta_w / 4.0)


def neumann_eta_w(S: float) -> float:
    """Positive root of sqrt(pi) S eta_w exp(eta_w^2/4) erf(eta_w/2) = 2.

    Found by bisection on a bracket grown from [1e-12, 4] in either
    direction, then polished with a few Newton steps on the equation in log
    form; the returned root has residual <= 1e-12.
    """
    StefanParams(S)  # 0 < S < inf
    lo, hi = 1e-12, 4.0
    while _front_equation(S, hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    while _front_equation(S, lo) >= 0.0:  # large S: the root lies below 1e-12
        lo, hi = 0.5 * lo, lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _front_equation(S, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 * hi:
            break
    root = 0.5 * (lo + hi)
    # Newton polish; the lhs is smooth and strictly increasing
    for _ in range(4):
        f = _front_equation(S, root)
        h = 1e-7 * root  # a relative step: the log form is singular at eta_w = 0
        df = (_front_equation(S, root + h) - _front_equation(S, root - h)) / (2.0 * h)
        root -= f / df
    return root


def neumann_profile(eta: float, eta_w: float) -> State2:
    """Closed-form Stefan similarity profile U and dU/deta at eta.

    U = 1 - erf(eta/2)/erf(eta_w/2);
    dU/deta = -(1/sqrt(pi)) exp(-eta^2/4) / erf(eta_w/2).
    """
    if not (eta_w > 0.0 and 0.0 <= eta <= eta_w):  # nan fails
        raise InvalidParams(f"eta = {eta} outside [0, {eta_w}]")
    denom = erf(eta_w / 2.0)
    u = 1.0 - erf(eta / 2.0) / denom
    du = -math.exp(-eta * eta / 4.0) / (math.sqrt(math.pi) * denom)
    return State2(u, du)


def exact_spreading(eta: float, H: float = 0.5, L: float = -0.5) -> State2:
    """Exact spreading profile for front height H > 0 and slope constant L < 0.

    The ODE is (U^3 U')' + (eta U)'/5 = 0, and U'(0) = 0 gives U^2 U' = -eta/5.
    With U(eta_w) = H and U'(eta_w) = L/(5 H^3) the front is eta_w = -L/H and
    U^3 = H^3 + (3/10)(eta_w^2 - eta^2); dU/deta = -(eta/5) U^(-2).
    (H, L) = (1/2, -1/2) gives eta_w = 1 and U(0)^3 = 17/40.
    """
    SpreadingParams(H, L)  # H^3 a finite nonzero float, L finite
    if not (H > 0.0 and L < 0.0):
        raise InvalidParams(f"the closed form needs H > 0 and L < 0, got H = {H}, L = {L}")
    eta_w = -L / H
    if not 0.0 <= eta <= eta_w:  # nan fails
        raise InvalidParams(f"eta = {eta} outside [0, {eta_w}]")
    u = (H ** 3 + 0.3 * (eta_w - eta) * (eta_w + eta)) ** (1.0 / 3.0)
    du = -eta / (5.0 * u * u)
    return State2(u, du)
