"""Closed-form and tabulated reference solutions used to validate the solver.

Includes an in-house error function (so results do not depend on the host
libm), the erf-based closed form of the one-phase Stefan problem with its
transcendental free-boundary equation, the exact spreading profile for every
H > 0, L < 0, and stored asymptotic front positions.
"""

from __future__ import annotations

import math

from .errors import InvalidParams
from .ivp import State2
from .problems import SpreadingParams

__all__ = [
    "erf",
    "neumann_eta_w",
    "neumann_profile",
    "exact_spreading",
    "asymptotic_eta_w",
    "ASYMPTOTIC_ETA_W",
]

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)

# Asymptotic-expansion front positions per inverse Stefan number.
ASYMPTOTIC_ETA_W: dict[float, float] = {
    0.1: 2.513961,
    0.5: 1.601187,
    1.0: 1.240161,
    5.0: 0.612864,
    10.0: 0.440000,
    50.0: 0.199499,
}


def _erf_taylor(x: float) -> float:
    # Maclaurin series; alternating, used only where cancellation is benign.
    term = x
    total = x
    x2 = x * x
    k = 0
    while abs(term) > 1e-18 * abs(total) + 1e-300:
        k += 1
        term *= -x2 / k
        total += term / (2 * k + 1)
    return _TWO_OVER_SQRT_PI * total


def _erf_scaled_series(x: float) -> float:
    # erf(x) = (2/sqrt(pi)) exp(-x^2) sum_k 2^k x^(2k+1) / (2k+1)!! ;
    # all terms positive, so no cancellation for moderate x.
    term = x
    total = x
    x2 = x * x
    k = 0
    while term > 1e-18 * total:
        k += 1
        term *= 2.0 * x2 / (2 * k + 1)
        total += term
    return _TWO_OVER_SQRT_PI * math.exp(-x2) * total


def _erfc_continued_fraction(x: float) -> float:
    # erfc(x) = exp(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    # evaluated bottom-up; converges quickly for x >= 3.
    n_terms = 60
    frac = 0.0
    for k in range(n_terms, 0, -1):
        frac = (k / 2.0) / (x + frac)
    return math.exp(-x * x) / math.sqrt(math.pi) / (x + frac)


def erf(x: float) -> float:
    """Error function, absolute error <= 1e-12 on |x| <= 6; odd symmetry exact."""
    if x == 0.0:
        return 0.0
    if x < 0.0:
        return -erf(-x)
    if x <= 1.0:
        return _erf_taylor(x)
    if x < 3.0:
        return _erf_scaled_series(x)
    return 1.0 - _erfc_continued_fraction(x)


def _front_equation(S: float, eta_w: float) -> float:
    # log(sqrt(pi) S eta_w exp(eta_w^2/4) erf(eta_w/2) / 2): it has the sign of
    # the equation's lhs minus 2, and exp(eta_w^2/4) cannot overflow; S is
    # multiplied by sqrt(pi)/2 < 1, so no finite S overflows the product
    return (math.log(S * (math.sqrt(math.pi) / 2.0) * eta_w * erf(eta_w / 2.0))
            + eta_w * eta_w / 4.0)


def neumann_eta_w(S: float) -> float:
    """Positive root of sqrt(pi) S eta_w exp(eta_w^2/4) erf(eta_w/2) = 2.

    Found by bisection on a bracket grown from [1e-12, 4] in either
    direction, then polished with a few Newton steps on the equation in log
    form; the returned root has residual <= 1e-12.
    """
    if not S > 0.0:
        raise InvalidParams(f"S must be positive, got {S}")
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
    if eta_w <= 0.0 or eta < 0.0 or eta > eta_w:
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
    if eta < 0.0 or eta > eta_w:
        raise InvalidParams(f"eta = {eta} outside [0, {eta_w}]")
    u = (H ** 3 + 0.3 * (eta_w - eta) * (eta_w + eta)) ** (1.0 / 3.0)
    du = -eta / (5.0 * u * u)
    return State2(u, du)


def asymptotic_eta_w(S: float) -> float:
    """Stored asymptotic front position for the six tabulated S values."""
    try:
        return ASYMPTOTIC_ETA_W[S]
    except KeyError:
        raise InvalidParams(f"no asymptotic value stored for S = {S}") from None
