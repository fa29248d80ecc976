"""The iterative transformation method for free boundary ODE problems.

A problem of the form

    w'' = f(z, w, w'),  g(w(0), w'(0)) = 1,  w(s) = j(s),  w'(s) = l(s)

with unknown free boundary s is embedded in an extended problem carrying a
parameter h; the extension is chosen to be partially invariant under the
stretching group z -> omega^delta z, w -> omega w, h -> omega^sigma h. One
inward RK4 integration of the extended problem from a fixed starred boundary
s* yields w*(0) and w*'(0). The origin condition has a group weight k,
g(omega w, omega^(1-delta) w') = omega^k g(w, w'), so the group parameter is

    omega = g(w*(0), w*'(0))^(1/k) ,

defined only when g is positive, and it gives the transformation
function

    Gamma(h*) = omega^(-sigma) h* - 1 ,

whose root corresponds to h = 1, i.e. to the original problem. The secant
method, with inverse quadratic interpolation from the third iterate on,
drives Gamma to zero, stepping in log h* because the group acts on h*
multiplicatively; the physical values follow from the scaling relations
s = omega^(-delta) s*, w(0) = omega^(-1) w*(0), w'(0) = omega^(delta-1) w*'(0).
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass

from .errors import CheckedRecord, InvalidParams, OmegaNonPositive, SingularRhs
from .ivp import _MAX_STEPS, Rhs, SolutionProfile, State2, integrate_inward

__all__ = [
    "ReducedFreeBvp",
    "ExtendedScaling",
    "ItmConfig",
    "run_config",
    "ItmIteration",
    "ItmStatus",
    "ItmResult",
    "evaluate_gamma",
    "secant_solve",
    "recover_values",
    "original_profile",
    "solution_profile",
]

_DEFAULT_S_STAR = 0.5  # the starred boundary of every problem's own run settings


def _identity_output(eta: float, w: float, dw: float) -> tuple[float, float]:
    return w, dw


def _power(base: float, exponent: float) -> float:
    """base ** exponent, with an overflow giving inf, as in IEEE arithmetic for base > 0."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ReducedFreeBvp:
    """A second-order free boundary problem plus its extended embedding.

    h is fixed during one integration, so whatever the extended RHS derives
    from it is computed once: ``coefficients(h)`` returns those constants
    and ``extended_rhs(coef, z, w, dw)`` returns w'' of the extended problem
    given them. ``extended_boundary(h, s)`` returns (w(s), w'(s)); at h = 1
    both are the original problem.
    ``origin_condition(w, dw)`` is g in g(w(0), w'(0)) = 1: a condition
    g = C is written g/C, and a homogeneous one must be shifted first.
    ``run_config`` starts from ``steps`` (RK4 steps) and ``guesses`` (secant
    pair at s* = 1/2). ``to_original(eta, w, dw)`` returns (u, du), undoing
    that shift (identity when no shift was needed). ``rhs`` is read by
    nothing and is left None.
    """

    origin_condition: Callable[[float, float], float]
    extended_rhs: Rhs
    extended_boundary: Callable[[float, float], tuple[float, float]]
    coefficients: Callable[[float], object]
    steps: int
    guesses: tuple[float, float]
    to_original: Callable[[float, float, float], tuple[float, float]] = _identity_output
    rhs: Callable[[float, float, float], float] | None = None


class ExtendedScaling(CheckedRecord, namedtuple("ExtendedScaling", "delta sigma origin_weight")):
    """Group exponents (delta, sigma) and the group weight k of the origin condition."""

    __slots__ = ()

    def __new__(cls, delta: float, sigma: float, origin_weight: float) -> ExtendedScaling:
        if not (math.isfinite(origin_weight) and origin_weight != 0.0):
            raise InvalidParams(f"origin weight must be finite and nonzero, got {origin_weight}")
        return super().__new__(cls, delta, sigma, origin_weight)


class ItmConfig(CheckedRecord,
                namedtuple("ItmConfig", "s_star step h0 h1 tol max_iter", defaults=(1e-6, 50))):
    """Starred boundary s*, RK4 step (at most 10^7 steps s*/step), secant guesses
    h0 != h1 > 0, tolerance and iteration bound (an int >= 1); an inadmissible value raises
    InvalidParams. The defaults of tol and max_iter are ``ItmConfig._field_defaults``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ItmConfig:
        self = super().__new__(cls, *args, **kwargs)
        s_star, step, h0, h1, tol, max_iter = self
        if not 0.0 < s_star < math.inf:
            raise InvalidParams(f"s_star must be positive and finite, got {s_star}")
        # a longer step would silently become one step of length s_star
        if not 0.0 < step <= s_star:
            raise InvalidParams(f"step must lie in (0, s_star = {s_star}], got {step}")
        if not s_star / step <= _MAX_STEPS + 0.5:  # round(s_star/step) steps, 10^7 at 10^7 + 0.5
            raise InvalidParams(f"step {step} at s_star = {s_star} asks for {s_star / step:.10g} "
                                f"RK4 steps per integration, more than {_MAX_STEPS}")
        if not 0.0 < tol < math.inf:  # a nan tol could never be met, an inf one always is
            raise InvalidParams(f"tol must be positive and finite, got {tol}")
        if not (0.0 < h0 < math.inf and 0.0 < h1 < math.inf and h0 != h1):
            raise InvalidParams(f"the guesses {(h0, h1)!r} at s_star = {s_star!r} are not two "
                                "distinct positive finite floats")
        if not (type(max_iter) is int and max_iter >= 1):  # 2.5, True, nan: not a count
            raise InvalidParams(f"max_iter must be at least 1, got {max_iter!r}")
        return self


def run_config(problem: ReducedFreeBvp, scaling: ExtendedScaling, s_star: float | None = None,
               steps: int | None = None, h0: float | None = None,
               h1: float | None = None, **rest: object) -> ItmConfig:
    """The ItmConfig of the problem's run settings, with step = s*/n for n = ``steps``
    (``problem.steps`` by default). A given s_star, steps, h0 or h1 is used as is, and
    ``rest`` (tol, max_iter) is passed through. At another s* the default pair is mapped
    by the group, h* -> (s*/0.5)^(sigma/delta) h*. Raises InvalidParams unless n is an
    int in [1, 10^7] that s*/step rounds back to (a subnormal s* may not), or if a default
    guess needs mapping and delta = 0; ItmConfig checks the rest, the pair that would run
    included."""
    s_star = _DEFAULT_S_STAR if s_star is None else s_star
    steps = problem.steps if steps is None else steps
    if not (type(steps) is int and 1 <= steps <= _MAX_STEPS):  # 2.5 would run 2 steps
        raise InvalidParams(f"steps must be an int in [1, {_MAX_STEPS}], got {steps!r}")
    step = s_star / steps  # at a subnormal s*, evaluate_gamma's round(s_star / step) is not n
    if 0.0 < step and s_star < math.inf and round(s_star / step) != steps:
        raise InvalidParams(f"s_star = {s_star!r} would run {round(s_star / step)} RK4 steps "
                            f"of {step!r}, not {steps}")
    g0, g1 = problem.guesses
    # 0.0 ** -4 raises, and ItmConfig names s*; at s* = 0.5 the factor would be exactly 1.0
    if (h0 is None or h1 is None) and s_star > 0.0 and s_star != _DEFAULT_S_STAR:
        if scaling.delta == 0.0:
            raise InvalidParams(f"the default guesses cannot be mapped to s_star = {s_star!r} "
                                "by a group with delta = 0.0")
        scale = _power(s_star / _DEFAULT_S_STAR, scaling.sigma / scaling.delta)
        g0, g1 = scale * g0, scale * g1
    return ItmConfig(s_star=s_star, step=step,
                     h0=g0 if h0 is None else h0, h1=g1 if h1 is None else h1, **rest)


ItmIteration = namedtuple("ItmIteration", "h_star gamma_val omega s_j")  # one secant iterate


class ItmStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max_iter_exceeded"
    SINGULAR_INTEGRATION = "singular_integration"
    OMEGA_NON_POSITIVE = "omega_non_positive"
    SECANT_BREAKDOWN = "secant_breakdown"


class ItmResult(namedtuple("ItmResult", "status omega h_star s w0 dw0 trace message abscissa",
                           defaults=(None, "", math.nan))):
    """Outcome of ``secant_solve``; ``message`` and ``abscissa`` describe a failure.

    ``w0`` and ``dw0`` are in the original variables (U(0) and U'(0) for the
    shifted spreading problem). ``trace`` lists the ItmIteration of every
    iterate; left out, it is a new empty list.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ItmResult:
        self = super().__new__(cls, *args, **kwargs)
        return self if self.trace is not None else self._replace(trace=[])

    @property
    def converged(self) -> bool:
        return self.status is ItmStatus.CONVERGED

    @property
    def iterations(self) -> int:
        return max(len(self.trace) - 1, 0)


def evaluate_gamma(problem: ReducedFreeBvp, scaling: ExtendedScaling,
                   h_star: float, config: ItmConfig
                   ) -> tuple[float, float, State2]:
    """One inward integration of the extended problem; returns (Gamma, omega, endpoint).

    omega = g(w*(0), w*'(0))^(1/k). Raises InvalidParams unless h* is positive and
    finite, SingularRhs if the integration starts from a non-finite state or hits a
    singularity, and OmegaNonPositive if g is not positive or omega is not a positive
    finite float. Gamma is +inf when 1 + Gamma exceeds the float range.
    """
    if not 0.0 < h_star < math.inf:  # the problems' coefficients take sqrt(h*)
        raise InvalidParams(f"h* must be positive and finite, got {h_star!r}")
    s_star = config.s_star
    y_start = State2(*problem.extended_boundary(h_star, s_star))
    # ItmConfig keeps 0 < step <= s* and this count <= _MAX_STEPS, so it is at least 1
    n_steps = round(s_star / config.step)
    res = integrate_inward(problem.extended_rhs, problem.coefficients(h_star),
                           s_star, y_start, n_steps)
    g = problem.origin_condition(*res.endpoint)
    if not g > 0.0:
        raise OmegaNonPositive(f"g(w*(0), w*'(0)) = {g} at h* = {h_star} is not positive")
    omega = _power(g, 1.0 / scaling.origin_weight)
    if not 0.0 < omega < math.inf:
        raise OmegaNonPositive(f"omega = {omega} at h* = {h_star}")
    # an infinite Gamma leaves the secant's residual log h* - sigma log omega finite
    gamma_val = _power(omega, -scaling.sigma) * h_star - 1.0
    return gamma_val, omega, res.endpoint


def recover_values(omega: float, scaling: ExtendedScaling, endpoint: State2,
                   s_star: float) -> tuple[float, float, float]:
    """Scale the starred origin values back to the original problem.

    Returns (s, w(0), dw/dz(0)) with s = omega^(-delta) s*,
    w(0) = omega^(-1) w*(0), dw/dz(0) = omega^(delta - 1) dw*/dz*(0), in the
    solver's variables (before ``to_original``). Raises InvalidParams unless
    omega > 0; a power beyond the float range is inf.
    """
    if not omega > 0.0:
        raise InvalidParams(f"omega must be positive, got {omega}")
    s = _power(omega, -scaling.delta) * s_star
    w0 = endpoint.w / omega
    dw0 = _power(omega, scaling.delta - 1.0) * endpoint.dw
    return s, w0, dw0


def _mapped_profile(problem: ReducedFreeBvp, h: float, z_start: float, n_steps: int,
                    omega: float, delta: float) -> SolutionProfile:
    """Record the inward integration at h from z_start and map each node as
    ``recover_values`` maps the endpoint, then by ``to_original``."""
    y_start = State2(*problem.extended_boundary(h, z_start))
    prof = integrate_inward(problem.extended_rhs, problem.coefficients(h), z_start, y_start,
                            n_steps, record_profile=True).profile
    eta_scale, dw_scale = _power(omega, -delta), _power(omega, delta - 1.0)
    eta = tuple(eta_scale * z for z in reversed(prof.eta))
    u, du = zip(*map(problem.to_original, eta, [w / omega for w in reversed(prof.u)],
                     [dw_scale * dw for dw in reversed(prof.du)]))
    return SolutionProfile(eta, u, du)


def original_profile(problem: ReducedFreeBvp, s: float, n_steps: int) -> SolutionProfile:
    """Integrate the original (h = 1) problem inward from s, recording all steps:
    ``extended_rhs`` with ``coefficients(1.0)`` from the extended boundary data at
    h = 1, in the original, un-shifted variables by increasing abscissa."""
    return _mapped_profile(problem, 1.0, s, n_steps, 1.0, 0.0)


def solution_profile(problem: ReducedFreeBvp, scaling: ExtendedScaling, config: ItmConfig,
                     result: ItmResult) -> SolutionProfile:
    """The converged solution at the n + 1 nodes of the result's last iterate, n = s*/step.

    One integration re-runs that iterate from s*, and each node is mapped back as
    ``recover_values`` maps the endpoint, so the first row is (0, ``result.w0``,
    ``result.dw0``) and the last abscissa ``result.s``, bit for bit, by increasing
    abscissa. Raises InvalidParams unless the result converged.
    """
    if not result.converged:
        raise InvalidParams(f"a {result.status.value} result has no converged profile")
    return _mapped_profile(problem, result.h_star, config.s_star,
                           round(config.s_star / config.step), result.omega, scaling.delta)


_MAX_LOG_H = math.log(sys.float_info.max)  # exp(x) is finite and positive for |x| up to this


def secant_solve(problem: ReducedFreeBvp, scaling: ExtendedScaling,
                 config: ItmConfig) -> ItmResult:
    """Drive Gamma(h*) to zero with the secant method in x = log h*.

    The group acts on h* multiplicatively and 1 + Gamma = h*/omega^sigma, so
    the residual F = log h* - sigma log omega = log(1 + Gamma) is nearly
    linear in x, and h* = exp(x) stays positive. F is formed from the two
    logarithms, not as log1p(Gamma), which fails when 1 + Gamma underflows.

    One loop builds every iterate: one Gamma evaluation, then
    ``recover_values`` once for s_j (the scaling relations), then (x, F). An
    iterate at the same h* as the last one reuses its values, evaluating nothing.
    The guesses h0, h1 are iterates 0 and 1, and iterate 2 is the secant
    step. From iterate 3 on, the step is inverse quadratic interpolation
    (Brent 1973, ch. 4): x as a quadratic in F through the last three
    iterates, at F = 0. It falls back to the secant step when two of the
    three F values are equal, or when the interpolated x is not finite or
    lies more than twice as far from the last iterate as the secant step.

    Convergence requires both |Gamma(h*_j)| <= tol and |s_j - s_{j-1}| <= tol;
    the test is first applied at j = 1, since the s-difference needs two
    iterates. A converged or MAX_ITER_EXCEEDED result carries the last
    iterate's values, with ``to_original`` mapping w(0), w'(0) back to the
    original variables.

    Nothing is raised: ``config`` was checked when it was built, and every
    outcome is a status. A Gamma evaluation that fails, at a guess or an
    iterate, gives SINGULAR_INTEGRATION (with the ``abscissa`` where the
    integration broke) or OMEGA_NON_POSITIVE, and ``h_star`` is the h* that failed. A flat
    residual, a step that rounds to the same h* short of convergence, or a step beyond the
    float range of h*, gives SECANT_BREAKDOWN with ``h_star`` the last iterate. ``message``
    says why, and the iterate that failed has index ``len(trace)``.
    """
    tol, sigma = config.tol, scaling.sigma
    trace: list[ItmIteration] = []

    def failed(status: ItmStatus, h_star: float, message: str,
               abscissa: float = math.nan) -> ItmResult:
        return ItmResult(status=status, omega=math.nan, h_star=h_star, s=math.nan, w0=math.nan,
                         dw0=math.nan, trace=trace, message=message, abscissa=abscissa)

    # (x, F) of iterates j - 2, j - 1 and j
    x_old = f_old = x_prev = f_prev = x_cur = f_cur = math.nan
    h_star = config.h0
    while True:
        j = len(trace)
        if j == 0 or h_star != trace[-1].h_star:
            try:
                gamma_val, omega, endpoint = evaluate_gamma(problem, scaling, h_star, config)
            except SingularRhs as exc:
                return failed(ItmStatus.SINGULAR_INTEGRATION, h_star, str(exc), exc.abscissa)
            except OmegaNonPositive as exc:
                return failed(ItmStatus.OMEGA_NON_POSITIVE, h_star, str(exc))
            s_j, w0, dw0 = recover_values(omega, scaling, endpoint, config.s_star)
        trace.append(ItmIteration(h_star, gamma_val, omega, s_j))
        x_old, f_old, x_prev, f_prev = x_prev, f_prev, x_cur, f_cur
        x_cur = math.log(h_star)
        f_cur = x_cur - sigma * math.log(omega)
        if j == 0:  # the stopping tests need two iterates
            h_star = config.h1
            continue

        converged = abs(gamma_val) <= tol and abs(s_j - trace[-2].s_j) <= tol
        if converged or j >= config.max_iter:
            w0, dw0 = problem.to_original(0.0, w0, dw0)
            return ItmResult(status=ItmStatus.CONVERGED if converged
                             else ItmStatus.MAX_ITER_EXCEEDED,
                             omega=omega, h_star=h_star, s=s_j, w0=w0, dw0=dw0, trace=trace)
        if f_cur == f_prev:  # also at a reused iterate: the last step rounded to its h*
            return failed(ItmStatus.SECANT_BREAKDOWN, h_star,
                          f"{step} step from h* = {h_star!r} rounds to zero: |Gamma| = "
                          f"{abs(gamma_val)!r} > tol = {tol!r}"
                          if h_star == trace[-2].h_star else
                          f"flat residual: log(1 + Gamma) = {f_cur!r} at h* = "
                          f"{trace[-2].h_star!r} and at h* = {h_star!r}")
        x_next, step = x_cur - f_cur * (x_cur - x_prev) / (f_cur - f_prev), "secant"
        # f_old != f_prev, or iterate j - 1 would have stopped; at j = 1 x_old and f_old are
        # still nan, so x_iqi is nan and the secant step stands
        if f_old != f_cur:
            # inverse quadratic interpolation in Newton's form: the secant step
            # plus the term of the second divided difference of x over F
            curvature = ((x_cur - x_prev) / (f_cur - f_prev)
                         - (x_prev - x_old) / (f_prev - f_old)) / (f_cur - f_old)
            x_iqi = x_next + f_cur * f_prev * curvature
            if math.isfinite(x_iqi) and abs(x_iqi - x_cur) <= 2.0 * abs(x_next - x_cur):
                x_next, step = x_iqi, "interpolation"
        if not abs(x_next) <= _MAX_LOG_H:
            return failed(ItmStatus.SECANT_BREAKDOWN, h_star,
                          f"{step} step from h* = {h_star!r} to log h* = "
                          f"{x_next!r} leaves the floating-point range")
        h_star = math.exp(x_next)
