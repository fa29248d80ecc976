"""The iterative transformation method for free boundary ODE problems.

A problem of the form

    w'' = f(z, w, w'),  g(w(0), w'(0)) = C,  w(s) = j(s),  w'(s) = l(s)

with unknown free boundary s is embedded in an extended problem carrying a
parameter h; the extension is chosen to be partially invariant under the
stretching group z -> omega^delta z, w -> omega w, h -> omega^sigma h. One
inward RK4 integration of the extended problem from a fixed starred boundary
s* yields w*(0) and w*'(0). The origin condition has a group weight k,
g(omega w, omega^(1-delta) w') = omega^k g(w, w'), so the group parameter is

    omega = (g(w*(0), w*'(0)) / C)^(1/k) ,

defined only when the ratio is positive, and it gives the transformation
function

    Gamma(h*) = omega^(-sigma) h* - 1 ,

whose root corresponds to h = 1, i.e. to the original problem. The secant
method drives Gamma to zero, stepping in log h* because the group acts on h*
multiplicatively; the physical values follow from the scaling relations
s = omega^(-delta) s*, w(0) = omega^(-1) w*(0), w'(0) = omega^(delta-1) w*'(0).
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import InvalidParams, OmegaNonPositive, SingularRhs
from .ivp import SolutionProfile, State2, integrate_inward, steps_for_interval

__all__ = [
    "ReducedFreeBvp",
    "ExtendedScaling",
    "ItmConfig",
    "ItmIteration",
    "ItmStatus",
    "ItmResult",
    "evaluate_gamma",
    "secant_solve",
    "recover_values",
    "original_profile",
]


def _identity_output(eta: float, w: float, dw: float) -> tuple[float, float]:
    return w, dw


def _require_finite_nonzero(name: str, value: float) -> None:
    if not (math.isfinite(value) and value != 0.0):
        raise InvalidParams(f"{name} must be finite and nonzero, got {value}")


@dataclass(frozen=True)
class ReducedFreeBvp:
    """A second-order free boundary problem plus its extended embedding.

    ``rhs(z, w, dw)`` returns w'' for the original problem;
    ``extended_rhs(h, z, w, dw)`` takes the embedding parameter h* first.
    Setting h* = 1 in the extended closures must reproduce the original ones
    pointwise. ``origin_condition(w, dw)`` is g in g(w(0), w'(0)) = C, and C
    is ``origin_constant``, finite and nonzero: a homogeneous condition must
    be shifted first. ``to_original(eta, w, dw)`` returns (u, du), undoing
    that shift (identity when no shift was needed).
    """

    rhs: Callable[[float, float, float], float]
    origin_condition: Callable[[float, float], float]
    origin_constant: float
    boundary_value: Callable[[float], float]
    boundary_slope: Callable[[float], float]
    extended_rhs: Callable[[float, float, float, float], float]
    extended_boundary_value: Callable[[float, float], float]
    extended_boundary_slope: Callable[[float, float], float]
    to_original: Callable[[float, float, float], tuple[float, float]] = _identity_output

    def __post_init__(self) -> None:
        _require_finite_nonzero("origin constant", self.origin_constant)


@dataclass(frozen=True)
class ExtendedScaling:
    """Group exponents (delta, sigma) and the group weight k of the origin condition."""

    delta: float
    sigma: float
    origin_weight: float

    def __post_init__(self) -> None:
        _require_finite_nonzero("origin weight", self.origin_weight)


@dataclass(frozen=True)
class ItmConfig:
    s_star: float
    step: float
    h0: float
    h1: float
    tol: float = 1e-6
    max_iter: int = 50

    def validate(self) -> None:
        if not self.s_star > 0.0:
            raise InvalidParams("s_star must be positive")
        if not 0.0 < self.step <= self.s_star:
            # a longer step would silently become one step of length s_star
            raise InvalidParams(f"step must lie in (0, s_star = {self.s_star}], got {self.step}")
        if not self.tol > 0.0:  # a nan tol could never be met
            raise InvalidParams("tol must be positive")
        if self.h0 == self.h1:
            raise InvalidParams("initial guesses h0 and h1 must differ")
        for h in (self.h0, self.h1):
            if not 0.0 < h < math.inf:
                raise InvalidParams(f"initial guess {h} must be positive and finite")


@dataclass(frozen=True)
class ItmIteration:
    j: int
    h_star: float
    gamma_val: float
    omega: float
    s_j: float


class ItmStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max_iter_exceeded"
    SINGULAR_INTEGRATION = "singular_integration"
    OMEGA_NON_POSITIVE = "omega_non_positive"
    SECANT_BREAKDOWN = "secant_breakdown"


@dataclass(frozen=True)
class ItmResult:
    """Outcome of ``secant_solve``; ``message`` and ``abscissa`` describe a failure."""

    status: ItmStatus
    omega: float
    h_star: float
    s: float
    w0: float
    dw0: float
    trace: list[ItmIteration] = field(default_factory=list)
    message: str = ""
    abscissa: float = math.nan

    @property
    def converged(self) -> bool:
        return self.status is ItmStatus.CONVERGED

    @property
    def iterations(self) -> int:
        return self.trace[-1].j if self.trace else 0


def evaluate_gamma(problem: ReducedFreeBvp, scaling: ExtendedScaling,
                   h_star: float, config: ItmConfig
                   ) -> tuple[float, float, State2]:
    """One inward integration of the extended problem; returns (Gamma, omega, endpoint).

    omega = (g(w*(0), w*'(0)) / C)^(1/k). Raises SingularRhs if the
    integration starts from a non-finite state or hits a singularity, and
    OmegaNonPositive if the ratio g/C is not positive or omega is not a
    positive finite float. Gamma is +inf when 1 + Gamma exceeds the float
    range.
    """
    s_star = config.s_star
    y_start = State2(
        problem.extended_boundary_value(h_star, s_star),
        problem.extended_boundary_slope(h_star, s_star),
    )
    n_steps = steps_for_interval(s_star, 0.0, config.step)
    res = integrate_inward(functools.partial(problem.extended_rhs, h_star),
                           s_star, y_start, 0.0, n_steps)
    ratio = problem.origin_condition(*res.endpoint) / problem.origin_constant
    if not ratio > 0.0:
        raise OmegaNonPositive(f"g(w*(0), w*'(0))/C = {ratio} at h* = {h_star} is not positive")
    try:
        omega = ratio ** (1.0 / scaling.origin_weight)
    except OverflowError:
        omega = math.inf
    if not 0.0 < omega < math.inf:
        raise OmegaNonPositive(f"omega = {omega} at h* = {h_star}")
    try:
        gamma_val = omega ** (-scaling.sigma) * h_star - 1.0
    except OverflowError:  # the secant's residual log h* - sigma log omega is still finite
        gamma_val = math.inf
    return gamma_val, omega, res.endpoint


def recover_values(omega: float, scaling: ExtendedScaling, endpoint: State2,
                   s_star: float) -> tuple[float, float, float]:
    """Scale the starred origin values back to the original problem.

    Returns (s, w(0), dw/dz(0)) with s = omega^(-delta) s*,
    w(0) = omega^(-1) w*(0), dw/dz(0) = omega^(delta - 1) dw*/dz*(0).
    """
    if not omega > 0.0:
        raise OmegaNonPositive(f"omega = {omega}")
    s = omega ** (-scaling.delta) * s_star
    w0 = endpoint.w / omega
    dw0 = omega ** (scaling.delta - 1.0) * endpoint.dw
    return s, w0, dw0


def original_profile(problem: ReducedFreeBvp, s: float, n_steps: int) -> SolutionProfile:
    """Integrate the original (h = 1) problem inward from s, recording all steps.

    The returned profile is in the original, un-shifted variables and ordered
    by increasing abscissa.
    """
    y_start = State2(problem.boundary_value(s), problem.boundary_slope(s))
    prof = integrate_inward(problem.rhs, s, y_start, 0.0, n_steps, record_profile=True).profile
    eta = prof.eta[::-1]
    u, du = zip(*map(problem.to_original, eta, prof.u[::-1], prof.du[::-1]))
    return SolutionProfile(eta, u, du)


_MAX_LOG_H = math.log(sys.float_info.max)  # exp(x) is finite and positive for |x| up to this


def secant_solve(problem: ReducedFreeBvp, scaling: ExtendedScaling,
                 config: ItmConfig) -> ItmResult:
    """Drive Gamma(h*) to zero with the secant method in x = log h*.

    The group acts on h* multiplicatively and 1 + Gamma = h*/omega^sigma, so
    the residual F = log h* - sigma log omega = log(1 + Gamma) is nearly
    linear in x, and h* = exp(x) stays positive. F is formed from the two
    logarithms, not as log1p(Gamma), which fails when 1 + Gamma underflows.

    Convergence requires both |Gamma(h*_j)| <= tol and |s_j - s_{j-1}| <= tol;
    the two-clause test is first applied at j >= 1 (the s-difference needs two
    iterates), except that a root handed in as h0 is accepted immediately
    after the burn-in pair. The free boundary and origin values are recovered
    from the scaling relations.

    Only an invalid ``config`` raises (InvalidParams); every other outcome is
    a status. A Gamma evaluation that fails, at a guess or an iterate, gives
    SINGULAR_INTEGRATION (with the ``abscissa`` where the integration broke)
    or OMEGA_NON_POSITIVE, and ``h_star`` is the h* that failed. A flat
    residual, or a step beyond the float range of h*, gives SECANT_BREAKDOWN
    with ``h_star`` the last iterate. ``message`` says why, and the iterate
    that failed has index ``len(trace)``. MAX_ITER_EXCEEDED keeps the values
    recovered from the last iterate.
    """
    config.validate()
    tol, sigma = config.tol, scaling.sigma
    trace: list[ItmIteration] = []
    endpoints: list[State2] = []

    def failed(status: ItmStatus, h_star: float, message: str,
               abscissa: float = math.nan) -> ItmResult:
        return ItmResult(status=status, omega=math.nan, h_star=h_star, s=math.nan, w0=math.nan,
                         dw0=math.nan, trace=trace, message=message, abscissa=abscissa)

    def evaluate(h_star: float) -> Optional[ItmResult]:
        """Append the iterate at h_star to the trace, or return the failed result."""
        try:
            g, om, ep = evaluate_gamma(problem, scaling, h_star, config)
        except SingularRhs as exc:
            return failed(ItmStatus.SINGULAR_INTEGRATION, h_star, str(exc), exc.abscissa)
        except OmegaNonPositive as exc:
            return failed(ItmStatus.OMEGA_NON_POSITIVE, h_star, str(exc))
        s_j = om ** (-scaling.delta) * config.s_star
        trace.append(ItmIteration(len(trace), h_star, g, om, s_j))
        endpoints.append(ep)
        return None

    def finished(status: ItmStatus, it: ItmIteration) -> ItmResult:
        s, w0, dw0 = recover_values(it.omega, scaling, endpoints[it.j], config.s_star)
        return ItmResult(status=status, omega=it.omega, h_star=it.h_star, s=s, w0=w0, dw0=dw0,
                         trace=trace)

    # burn-in pair: Gamma must be evaluable at both guesses
    for h_star in (config.h0, config.h1):
        if (failure := evaluate(h_star)) is not None:
            return failure
    if abs(trace[0].gamma_val) <= tol:
        return finished(ItmStatus.CONVERGED, trace[0])

    while True:
        prev, cur = trace[-2:]
        if abs(cur.gamma_val) <= tol and abs(cur.s_j - prev.s_j) <= tol:
            return finished(ItmStatus.CONVERGED, cur)
        if cur.j >= config.max_iter:
            return finished(ItmStatus.MAX_ITER_EXCEEDED, cur)
        x_prev, x_cur = math.log(prev.h_star), math.log(cur.h_star)
        f_prev = x_prev - sigma * math.log(prev.omega)
        f_cur = x_cur - sigma * math.log(cur.omega)
        if f_cur == f_prev:
            return failed(ItmStatus.SECANT_BREAKDOWN, cur.h_star,
                          f"flat residual: log(1 + Gamma) = {f_cur!r} at h* = "
                          f"{prev.h_star!r} and at h* = {cur.h_star!r}")
        x_next = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev)
        if not abs(x_next) <= _MAX_LOG_H:
            return failed(ItmStatus.SECANT_BREAKDOWN, cur.h_star,
                          f"secant step from h* = {cur.h_star!r} to log h* = "
                          f"{x_next!r} leaves the floating-point range")
        if (failure := evaluate(math.exp(x_next))) is not None:
            return failure
