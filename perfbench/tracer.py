"""Spans and counts around itmfree's layers, installed from outside the package.

The traced run wraps functions at the attributes their callers resolve, so
nothing under ``src/`` changes:

- ``itmfree.itm.evaluate_gamma``, ``integrate_inward`` and ``recover_values``,
  which ``secant_solve`` and ``original_profile`` look up in their module;
- the public functions a caller resolves in its own namespace
  (``secant_solve``, ``original_profile``, ``reconstruct_physical``, the
  problem builders and, in the CLI, the reference functions);
- the RHS closures of every built problem, swapped in with
  ``dataclasses.replace``.

A span is ``[name, start, end, parent index, operation id]``. Spans stay in
memory until the caller writes them out. Self time is a span's duration
minus its children's. RHS calls are counted, not spanned: their time, estimated
from one call in ``RHS_SAMPLE``, is a child of the integration that makes
them. ``totals`` holds additive per-span sums and counts, so totals from
several processes merge with ``Counter.update``.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from time import perf_counter

from itmfree import itm as _itm
from itmfree.errors import ItmFreeError

RHS_SAMPLE = 7  # prime, so the timed call rotates through the four RK4 stages

FAIL_BUCKETS = ("max_iter_exceeded", "singular_integration", "omega_non_positive",
                "domain_exit", "secant_breakdown", "other")

# A raised failure lands in the same bucket as the status that reports it.
_RAISED_BUCKET = {
    "MaxIterExceeded": "max_iter_exceeded",
    "SingularRhs": "singular_integration",
    "OmegaNonPositive": "omega_non_positive",
    "DomainExit": "domain_exit",
    "SecantBreakdown": "secant_breakdown",
}


def outcome(result=None, exc: BaseException | None = None) -> str:
    """``"converged"`` or the failure bucket of one solve, raised or returned."""
    if exc is not None:
        return _RAISED_BUCKET.get(type(exc).__name__, "other")
    value = result.status.value
    return value if value == "converged" or value in FAIL_BUCKETS else "other"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self.totals: Counter = Counter()
        self._open: list[list] = []    # [span index, seconds spent in children]
        self._calls = [0]              # RHS calls in the integration in flight

    def span(self, name: str, fn):
        spans, stack, totals = self.spans, self._open, self.totals

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append([name, 0.0, 0.0, stack[-1][0] if stack else -1, self.op])
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                record = spans[frame[0]]
                record[1], record[2] = t0, t1
                totals[name + ".calls"] += 1
                totals[name + ".s"] += t1 - t0
                totals[name + ".self_s"] += t1 - t0 - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    def rhs(self, fn):
        """Count every RHS call; time one in RHS_SAMPLE and scale the time up,
        since two clock reads per call would cost more than a cheap RHS."""
        stack, totals, calls = self._open, self.totals, self._calls

        def traced(*args):
            calls[0] += 1
            if calls[0] % RHS_SAMPLE:
                return fn(*args)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = (perf_counter() - t0) * RHS_SAMPLE
                totals["problems.rhs_s"] += dt
                stack[-1][1] += dt

        return traced

    def integrate(self, fn):
        spanned, totals, calls = self.span("ivp.integrate_inward", fn), self.totals, self._calls

        def traced(*args, **kwargs):
            calls[0] = 0
            t0 = perf_counter()
            try:
                result = spanned(*args, **kwargs)
            except Exception:
                totals["problems.rhs_calls_aborted"] += calls[0]
                raise
            # steps and RHS calls of completed integrations only, so that
            # rhs_calls == 4 * steps is an exact check of the RK4 stage count
            totals["ivp.completed_s"] += perf_counter() - t0
            totals["ivp.steps"] += result.steps_taken
            totals["problems.rhs_calls"] += calls[0]
            return result

        return traced

    def solve(self, fn):
        spanned, totals = self.span("itm.secant_solve", fn), self.totals

        def traced(*args, **kwargs):
            gammas = totals["itm.evaluate_gamma.calls"]
            kind = "other"
            try:
                result = spanned(*args, **kwargs)
                kind = outcome(result)
                return result
            except ItmFreeError as exc:
                kind = outcome(exc=exc)
                raise
            finally:
                if kind == "converged":
                    totals["itm.converged"] += 1
                else:
                    totals["itm.fail." + kind] += 1
                    totals["itm.gamma_evals_wasted"] += totals["itm.evaluate_gamma.calls"] - gammas

        return traced

    def profile(self, fn):
        spanned, totals = self.span("itm.original_profile", fn), self.totals

        def traced(*args, **kwargs):
            prof = spanned(*args, **kwargs)
            totals["itm.profile_points"] += len(prof)
            return prof

        return traced

    def problem_builder(self, make):
        def traced(*args, **kwargs):
            problem, scaling = make(*args, **kwargs)
            return dataclasses.replace(problem, rhs=self.rhs(problem.rhs),
                                       extended_rhs=self.rhs(problem.extended_rhs)), scaling

        return traced

    def install(self, namespace) -> None:
        """Wrap itmfree.itm's internal calls and the public names ``namespace`` resolves.

        ``namespace`` is whatever the caller looks its functions up in: the
        benchmark's own table, or the ``itmfree.cli`` module. Names it lacks
        are skipped.
        """
        _itm.evaluate_gamma = self.span("itm.evaluate_gamma", _itm.evaluate_gamma)
        _itm.integrate_inward = self.integrate(_itm.integrate_inward)
        _itm.recover_values = self.span("itm.recover_values", _itm.recover_values)
        wrappers = {
            "secant_solve": self.solve,
            "original_profile": self.profile,
            "reconstruct_physical": lambda fn: self.span("similarity.reconstruct_physical", fn),
            "make_stefan": self.problem_builder,
            "make_spreading": self.problem_builder,
            "neumann_eta_w": lambda fn: self.span("cli.reference", fn),
            "exact_spreading": lambda fn: self.span("cli.reference", fn),
            "asymptotic_eta_w": lambda fn: self.span("cli.reference", fn),
        }
        for name, wrap in wrappers.items():
            if hasattr(namespace, name):
                setattr(namespace, name, wrap(getattr(namespace, name)))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_counts(t: Counter) -> dict[str, float]:
    """Per-layer counts and ratios of counts; these repeat exactly across runs."""
    steps, solves = t["ivp.steps"], t["itm.secant_solve.calls"]
    gammas, converged = t["itm.evaluate_gamma.calls"], t["itm.converged"]
    counts = {
        "ivp.steps": steps,
        "problems.rhs_calls": t["problems.rhs_calls"],
        "problems.rhs_calls_aborted": t["problems.rhs_calls_aborted"],
        "itm.solves": solves,
        "itm.converged_ratio": _ratio(converged, solves),
        "itm.gamma_evals": gammas,
        "itm.gamma_evals_per_converged": _ratio(gammas, converged),
        "itm.gamma_evals_wasted": t["itm.gamma_evals_wasted"],
        "itm.profile_points": t["itm.profile_points"],
    }
    counts.update({"itm.fail." + b: t["itm.fail." + b] for b in FAIL_BUCKETS})
    return counts


def layer_times(t: Counter) -> dict[str, float]:
    """Per-layer seconds, and per-unit costs in us or ns."""
    calls = t["problems.rhs_calls"] + t["problems.rhs_calls_aborted"]
    return {
        "ivp.us_per_step": _ratio(t["ivp.completed_s"], t["ivp.steps"]) * 1e6,
        "ivp.self_s": t["ivp.integrate_inward.self_s"],
        "problems.rhs_s": t["problems.rhs_s"],
        "problems.ns_per_rhs": _ratio(t["problems.rhs_s"], calls) * 1e9,
        "itm.gamma_self_s": t["itm.evaluate_gamma.self_s"],
        "itm.secant_self_s": t["itm.secant_solve.self_s"],
        "itm.recover_s": t["itm.recover_values.s"],
        "itm.profile_s": t["itm.original_profile.s"],
        "itm.us_per_profile_point": _ratio(t["itm.original_profile.s"],
                                           t["itm.profile_points"]) * 1e6,
        "similarity.reconstruct_s": t["similarity.reconstruct_physical.s"],
        "reference.oracle_s": t["reference.oracle.s"],
    }
