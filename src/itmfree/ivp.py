"""Fixed-step classical RK4 integration of second-order scalar ODEs w'' = f(z, w, w').

The solver integrates *inward*: from the (guessed) free boundary toward the
origin, so the step is negative. No adaptivity, no dense output; identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, Callable, NamedTuple

from .errors import InvalidParams, SingularRhs

__all__ = ["State2", "SolutionProfile", "IntegrationResult", "integrate_inward"]

Rhs = Callable[[Any, float, float, float], float]  # (coef, z, w, w') -> w''


class State2(NamedTuple):
    """Field value and first derivative of a second-order scalar ODE."""

    w: float
    dw: float


class SolutionProfile:
    """Sampled (eta, U, dU/deta) columns along a solution; its length is the row count."""

    __slots__ = ("eta", "u", "du")

    def __init__(self, eta: tuple[float, ...], u: tuple[float, ...], du: tuple[float, ...]):
        self.eta, self.u, self.du = eta, u, du

    def __len__(self) -> int:
        return len(self.eta)


# the endpoint State2, the step count and the SolutionProfile (None unless recorded)
IntegrationResult = namedtuple("IntegrationResult", "endpoint steps_taken profile",
                               defaults=(None,))


def integrate_inward(rhs: Rhs, coef: Any, z_start: float, y_start: State2, n_steps: int,
                     record_profile: bool = False) -> IntegrationResult:
    """Integrate w'' = rhs(coef, z, w, w') from z_start down to the origin with classical RK4.

    Parameters
    ----------
    rhs : callable
        Maps (coef, z, w, w') to w''; called directly, exactly four times per step.
    coef : object
        Handed unchanged to every rhs call: the constants of this initial value
        problem, computed once by the caller instead of once per call.
    z_start : float
        Where the integration starts; z_start > 0 (inward to z = 0).
    y_start : State2
        Initial state at z_start.
    n_steps : int
        Number of fixed steps; the (negative) step is -z_start/n_steps.
    record_profile : bool
        When True the result carries every accepted step.

    Raises
    ------
    InvalidParams
        If n_steps < 1 or z_start is not positive.
    SingularRhs
        If the start state is not finite (at z_start), or if a step's arithmetic
        fails or ends in a non-finite state (at the abscissa that step ends on).
        Every stage value enters the step's sums with a nonzero weight, so a
        non-finite stage makes the new state non-finite.
    """
    if n_steps < 1:
        raise InvalidParams("n_steps must be >= 1")
    if not z_start > 0.0:
        raise InvalidParams(f"inward integration requires z_start > 0, got {z_start}")
    if not (math.isfinite(y_start.w) and math.isfinite(y_start.dw)):
        raise SingularRhs(z_start, f"start state (w, w') = ({y_start.w!r}, {y_start.dw!r}) "
                                   f"at z = {z_start!r} is not finite")
    z, (w, dw) = z_start, y_start
    h = -z_start / n_steps
    h2, h6 = h / 2, h / 6
    isfinite = math.isfinite
    if record_profile:
        zs, ws, dws = [z], [w], [dw]
    try:
        for i in range(1, n_steps + 1):
            # keep the grid exact: the step ends on an abscissa computed from its index
            z_next = z_start + i * h if i < n_steps else 0.0
            z_mid = z + h2
            a1 = rhs(coef, z, w, dw)
            dw2 = dw + h2 * a1
            a2 = rhs(coef, z_mid, w + h2 * dw, dw2)
            dw3 = dw + h2 * a2
            a3 = rhs(coef, z_mid, w + h2 * dw2, dw3)
            dw4 = dw + h * a3
            a4 = rhs(coef, z + h, w + h * dw3, dw4)
            # each weight 2 * k is written k + k: the same double, but a float
            # add, which CPython specialises, where it does not specialise int * float
            w += h6 * (dw + (dw2 + dw2) + (dw3 + dw3) + dw4)
            dw += h6 * (a1 + (a2 + a2) + (a3 + a3) + a4)
            z = z_next
            if not (isfinite(w) and isfinite(dw)):
                raise SingularRhs(z)
            if record_profile:
                zs.append(z)
                ws.append(w)
                dws.append(dw)
    except (OverflowError, ZeroDivisionError):  # ** raises on overflow; a divisor can be 0.0
        raise SingularRhs(z_next) from None

    profile = SolutionProfile(tuple(zs), tuple(ws), tuple(dws)) if record_profile else None
    return IntegrationResult(endpoint=State2(w, dw), steps_taken=n_steps, profile=profile)
