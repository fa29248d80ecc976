"""Fixed-step classical RK4 integration of second-order scalar ODEs w'' = f(z, w, w').

The solver integrates *inward*: from the (guessed) free boundary toward the
origin, so the step is negative. No adaptivity, no dense output; identical
inputs give bit-identical results.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import namedtuple
from collections.abc import Callable

from .errors import InvalidParams, SingularRhs

__all__ = ["State2", "SolutionProfile", "IntegrationResult", "integrate_inward"]

Rhs = Callable[[object, float, float, float], float]  # (coef, z, w, w') -> w''
_MAX_STEPS = 10 ** 7  # RK4 steps per integration: about 10 s at 1 us per step, 80 MB of step ends


State2 = namedtuple("State2", "w dw")  # field value and first derivative of w'' = f(z, w, w')


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


@functools.lru_cache(maxsize=2)  # a solve's (s*, n), and one profile run from another start
def _abscissae(z_start: float, n_steps: int) -> array:
    """The ends of n_steps steps of h = -z_start/n_steps: z_start + i*h, the last exactly 0.0."""
    h = -z_start / n_steps
    return array("d", (z_start + i * h if i < n_steps else 0.0 for i in range(1, n_steps + 1)))


# The one RK4 loop. The prelude runs once per integration. Stage k fills its body's slots
# from _STAGES[k - 1] and sets a{k}, w'' at those arguments. The grid stays exact: a step
# ends on its entry of _abscissae. Each weight 2 * k is written k + k: the same double, but
# a float add, which CPython specialises, where it does not specialise int * float. ** raises
# OverflowError on overflow; a divisor can be 0.0. The checked tail tests every step's state
# and records it; the fast tail tests nothing, and the caller tests the end instead. That is
# exact: w and dw each enter their own update with weight 1, so once either is inf or nan it
# stays non-finite, and a finite end means that every step's state was finite.
_LOOP = """\
def loop(rhs, coef, z_start, w, dw, grid, rows):
    z, h = z_start, -z_start / len(grid)
    h2, h6, isfinite = h / 2, h / 6, math.isfinite
    {prelude}
    try:
        for z_next in grid:
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
            {tail}
    except (OverflowError, ZeroDivisionError):
        raise SingularRhs(z_next) from None
    return w, dw
"""
_CHECKED_TAIL = ("if not (isfinite(w) and isfinite(dw)):\n    raise SingularRhs(z)\n"
                 "if rows:\n    rows.append((z, w, dw))")
_STAGES = ({"z": "z", "w": "w", "dw": "dw"},
           {"z": "z_mid", "w": "(w + h2 * dw)", "dw": "dw2"},
           {"z": "z_mid", "w": "(w + h2 * dw2)", "dw": "dw3"},
           {"z": "(z + h)", "w": "(w + h * dw3)", "dw": "dw4"})
_CALL = "{a} = rhs(coef, {z}, {w}, {dw})"  # the body that calls any other RHS in each stage


def _indent(text: str, spaces: int) -> str:
    return text.replace("\n", "\n" + " " * spaces)


@functools.cache
def _loop(body: str, prelude: str, checked: bool) -> Callable:
    """The RK4 loop of a prelude, a stage body and the checked tail or none; built on first use."""
    stages = (_indent(body.format(a=f"a{k}", **names), 12) for k, names in enumerate(_STAGES, 1))
    exec(_LOOP.format(*stages, prelude=_indent(prelude, 4),
                      tail=_indent(_CHECKED_TAIL, 12) if checked else ""),
         namespace := {"math": math, "SingularRhs": SingularRhs})
    return namespace["loop"]


def _inline_rhs(body: str, prelude: str = "") -> Rhs:
    """The RHS ``rhs(coef, z, w, dw)`` of ``prelude`` then ``body``; ``integrate_inward`` runs
    the prelude once per integration and the body inline in each RK4 stage, bit-identical to
    calling ``rhs``.

    ``body`` is Python source filled by ``str.format``: it reads the arguments through the
    slots ``{z}``, ``{w}`` and ``{dw}``, assigns w'' to the slot ``{a}`` last, and may also
    read ``coef``, ``math``, ``SingularRhs`` and the names the prelude sets. A literal brace is
    doubled, so an f-string field reading z is ``{{{z}}}``. ``prelude`` is plain source that
    reads only ``coef``. Their own names must not be the loop's.
    """
    text = _indent(prelude + "\n" + body.format(a="a1", **_STAGES[0]), 4)
    exec(f"def rhs(coef, z, w, dw):\n    {text}\n    return a1",
         namespace := {"math": math, "SingularRhs": SingularRhs})
    namespace["rhs"].inline = (body, prelude)
    return namespace["rhs"]


def integrate_inward(rhs: Rhs, coef: object, z_start: float, y_start: State2, n_steps: int,
                     record_profile: bool = False) -> IntegrationResult:
    """Integrate w'' = rhs(coef, z, w, w') with classical RK4 from the State2 y_start at
    z_start > 0 down to the origin, in n_steps fixed steps of -z_start/n_steps.

    ``coef`` is handed unchanged to the RHS: the constants of this initial value problem,
    computed once by the caller instead of once per call. Any callable is called directly,
    exactly four times per step; a bundled problem's RHS (an ``_inline_rhs``) runs inline in
    the RK4 loop instead; an unrecorded one tests only its end, and if that is not finite or
    the run raises, runs again testing every step, to the same outcome. With
    ``record_profile`` the result carries every accepted step. The step ends of the last two
    (z_start, n_steps) are cached: at most 2 arrays of 8 bytes per step, 160 MB at 10^7 steps.

    Raises InvalidParams unless n_steps is an int in [1, 10^7] and z_start is positive and
    finite, and SingularRhs if the start state is not finite (at z_start), or if a step's
    arithmetic fails or ends in a non-finite state (at the abscissa that step ends on). Every
    stage value enters the step's sums with a nonzero weight, so a non-finite stage makes the
    new state non-finite.
    """
    if not (type(n_steps) is int and 1 <= n_steps <= _MAX_STEPS):  # True, 2.5: not a count
        raise InvalidParams(f"n_steps must be >= 1, an int <= {_MAX_STEPS}, got {n_steps!r}")
    if not 0.0 < z_start < math.inf:  # at inf the step ends would all be nan
        raise InvalidParams(f"inward integration requires z_start > 0 and finite, got {z_start}")
    if not (math.isfinite(y_start.w) and math.isfinite(y_start.dw)):
        raise SingularRhs(z_start, f"start state (w, w') = ({y_start.w!r}, {y_start.dw!r}) "
                                   f"at z = {z_start!r} is not finite")
    grid, inline = _abscissae(z_start, n_steps), getattr(rhs, "inline", None)
    if inline and not record_profile:
        try:
            w, dw = _loop(*inline, False)(rhs, coef, z_start, *y_start, grid, None)
            if math.isfinite(w) and math.isfinite(dw):
                return IntegrationResult(endpoint=State2(w, dw), steps_taken=n_steps)
        except Exception:
            pass  # the checked run below raises at the step where it happened
    rows = [(z_start, *y_start)] if record_profile else None
    w, dw = _loop(*(inline or (_CALL, "")), True)(rhs, coef, z_start, *y_start, grid, rows)
    profile = SolutionProfile(*zip(*rows)) if record_profile else None
    return IntegrationResult(endpoint=State2(w, dw), steps_taken=n_steps, profile=profile)
