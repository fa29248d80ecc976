"""Fixed-step classical RK4 integration of second-order scalar ODEs w'' = f(z, w, w').

The solver integrates *inward*: from the (guessed) free boundary toward the
origin, so the step is negative. No adaptivity, no dense output; identical
inputs give bit-identical results.
"""

from __future__ import annotations

import functools
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


# The one RK4 loop. Stage k fills its body's slots from _STAGES[k - 1] and sets a{k}, w''
# at those arguments. The grid stays exact: a step ends on an abscissa computed from its
# index. Each weight 2 * k is written k + k: the same double, but a float add, which
# CPython specialises, where it does not specialise int * float. ** raises OverflowError
# on overflow; a divisor can be 0.0.
_LOOP = """\
def loop(rhs, coef, z_start, w, dw, n_steps, rows):
    z, h = z_start, -z_start / n_steps
    h2, h6, isfinite = h / 2, h / 6, math.isfinite
    try:
        for i in range(1, n_steps + 1):
            z_next = z_start + i * h if i < n_steps else 0.0
            z_mid = z + h2
            {}
            dw2 = dw + h2 * a1
            {}
            dw3 = dw + h2 * a2
            {}
            dw4 = dw + h * a3
            {}
            w += h6 * (dw + (dw2 + dw2) + (dw3 + dw3) + dw4)
            dw += h6 * (a1 + (a2 + a2) + (a3 + a3) + a4)
            z = z_next
            if not (isfinite(w) and isfinite(dw)):
                raise SingularRhs(z)
            if rows:
                rows.append((z, w, dw))
    except (OverflowError, ZeroDivisionError):
        raise SingularRhs(z_next) from None
    return w, dw
"""
_STAGES = ({"z": "z", "w": "w", "dw": "dw"},
           {"z": "z_mid", "w": "(w + h2 * dw)", "dw": "dw2"},
           {"z": "z_mid", "w": "(w + h2 * dw2)", "dw": "dw3"},
           {"z": "(z + h)", "w": "(w + h * dw3)", "dw": "dw4"})
_CALL = "{a} = rhs(coef, {z}, {w}, {dw})"  # the body that calls any other RHS in each stage


@functools.cache
def _loop(body: str) -> Callable:
    """The RK4 loop running ``body`` in each stage; compiled once per body, on first use."""
    stages = (body.format(a=f"a{k}", **names).replace("\n", "\n" + " " * 12)
              for k, names in enumerate(_STAGES, 1))
    exec(_LOOP.format(*stages), namespace := {"math": math, "SingularRhs": SingularRhs})
    return namespace["loop"]


def _inline_rhs(body: str) -> Rhs:
    """The RHS ``rhs(coef, z, w, dw)`` of ``body``; ``integrate_inward`` runs the body inline
    in each RK4 stage, bit-identical to calling ``rhs``.

    ``body`` is Python source filled by ``str.format``: it reads the arguments through the
    slots ``{z}``, ``{w}`` and ``{dw}``, assigns w'' to the slot ``{a}`` last, and may also
    read ``coef``, ``math`` and ``SingularRhs``. A literal brace is doubled, so an f-string
    field reading z is ``{{{z}}}``. Its own names must not be the loop's.
    """
    text = body.format(a="a1", **_STAGES[0]).replace("\n", "\n    ")
    exec(f"def rhs(coef, z, w, dw):\n    {text}\n    return a1",
         namespace := {"math": math, "SingularRhs": SingularRhs})
    namespace["rhs"].inline_body = body
    return namespace["rhs"]


def integrate_inward(rhs: Rhs, coef: Any, z_start: float, y_start: State2, n_steps: int,
                     record_profile: bool = False) -> IntegrationResult:
    """Integrate w'' = rhs(coef, z, w, w') with classical RK4 from the State2 y_start at
    z_start > 0 down to the origin, in n_steps fixed steps of -z_start/n_steps.

    ``coef`` is handed unchanged to the RHS: the constants of this initial value problem,
    computed once by the caller instead of once per call. Any callable is called directly,
    exactly four times per step; a bundled problem's RHS (an ``_inline_rhs``) runs inline in
    the RK4 loop instead, compiled on its first integration. With ``record_profile`` the
    result carries every accepted step.

    Raises InvalidParams if n_steps < 1 or z_start is not positive, and SingularRhs if the
    start state is not finite (at z_start), or if a step's arithmetic fails or ends in a
    non-finite state (at the abscissa that step ends on). Every stage value enters the
    step's sums with a nonzero weight, so a non-finite stage makes the new state non-finite.
    """
    if n_steps < 1:
        raise InvalidParams("n_steps must be >= 1")
    if not z_start > 0.0:
        raise InvalidParams(f"inward integration requires z_start > 0, got {z_start}")
    if not (math.isfinite(y_start.w) and math.isfinite(y_start.dw)):
        raise SingularRhs(z_start, f"start state (w, w') = ({y_start.w!r}, {y_start.dw!r}) "
                                   f"at z = {z_start!r} is not finite")
    rows = [(z_start, *y_start)] if record_profile else None
    w, dw = _loop(getattr(rhs, "inline_body", _CALL))(rhs, coef, z_start, *y_start, n_steps, rows)
    profile = SolutionProfile(*zip(*rows)) if record_profile else None
    return IntegrationResult(endpoint=State2(w, dw), steps_taken=n_steps, profile=profile)
