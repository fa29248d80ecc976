"""Fixed-step classical RK4 integration of two-component first-order systems.

The solver integrates *inward*: from the (guessed) free boundary toward the
origin, so the step is negative. No adaptivity, no dense output; identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "State2",
    "SolutionProfile",
    "IntegrationResult",
    "integrate_inward",
    "steps_for_interval",
]

Rhs = Callable[[float, "State2"], tuple[float, float]]


@dataclass(frozen=True)
class State2:
    """Field value and first derivative of a second-order scalar ODE."""

    w: float
    dw: float

    def is_finite(self) -> bool:
        return math.isfinite(self.w) and math.isfinite(self.dw)


@dataclass(frozen=True)
class SolutionProfile:
    """Sampled (eta, U, dU/deta) triples along a solution."""

    eta: np.ndarray
    u: np.ndarray
    du: np.ndarray

    def __len__(self) -> int:
        return len(self.eta)

    def reversed(self) -> "SolutionProfile":
        return SolutionProfile(self.eta[::-1].copy(), self.u[::-1].copy(), self.du[::-1].copy())


@dataclass(frozen=True)
class IntegrationResult:
    endpoint: State2
    steps_taken: int
    profile: Optional[SolutionProfile] = None


def steps_for_interval(z_start: float, z_end: float, step: float) -> int:
    """Number of fixed steps for a requested step magnitude.

    The count is rounded so the terminal abscissa is hit exactly; the actual
    step used is |z_start - z_end| / n.
    """
    if step <= 0.0:
        raise ValueError("step magnitude must be positive")
    return max(1, round(abs(z_start - z_end) / step))


def _rk4(rhs: Rhs, z0: float, y0: State2, z1: float, n_steps: int,
         record: bool) -> IntegrationResult:
    from .errors import SingularRhs

    h = (z1 - z0) / n_steps
    z, w, dw = z0, y0.w, y0.dw

    if record:
        zs = np.empty(n_steps + 1)
        ws = np.empty(n_steps + 1)
        dws = np.empty(n_steps + 1)
        zs[0], ws[0], dws[0] = z, w, dw

    def f(za: float, wa: float, dwa: float) -> tuple[float, float]:
        try:
            kw, kdw = rhs(za, State2(wa, dwa))
        except OverflowError:  # float ** overflows with an error, not to inf
            raise SingularRhs(za) from None
        if not (math.isfinite(kw) and math.isfinite(kdw)):
            raise SingularRhs(za)
        return kw, kdw

    for i in range(n_steps):
        k1 = f(z, w, dw)
        k2 = f(z + h / 2, w + h / 2 * k1[0], dw + h / 2 * k1[1])
        k3 = f(z + h / 2, w + h / 2 * k2[0], dw + h / 2 * k2[1])
        k4 = f(z + h, w + h * k3[0], dw + h * k3[1])
        w += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        dw += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        # keep the grid exact: recompute z from the index
        z = z0 + (i + 1) * h if i + 1 < n_steps else z1
        if not (math.isfinite(w) and math.isfinite(dw)):
            raise SingularRhs(z)
        if record:
            zs[i + 1], ws[i + 1], dws[i + 1] = z, w, dw

    profile = SolutionProfile(zs, ws, dws) if record else None
    return IntegrationResult(endpoint=State2(w, dw), steps_taken=n_steps, profile=profile)


def integrate_inward(rhs: Rhs, z_start: float, y_start: State2, z_end: float,
                     n_steps: int, record_profile: bool = False) -> IntegrationResult:
    """Integrate from z_start down to z_end with classical RK4.

    Parameters
    ----------
    rhs : callable
        Maps (z, State2) to the derivative pair (dw/dz, d2w/dz2).
    z_start, z_end : float
        Integration interval; z_end < z_start (inward).
    y_start : State2
        Initial state at z_start.
    n_steps : int
        Number of fixed steps; the (negative) step is (z_end - z_start)/n_steps.
    record_profile : bool
        When True the result carries every accepted step.

    Raises
    ------
    SingularRhs
        If any stage evaluation overflows or returns a non-finite value; the exception
        carries the abscissa at which the singularity was met.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not z_end < z_start:
        raise ValueError("inward integration requires z_end < z_start")
    if not y_start.is_finite():
        raise ValueError("start state must be finite")
    return _rk4(rhs, z_start, y_start, z_end, n_steps, record_profile)
