"""Narrative walkthrough: a viscous gravity current spreading over a plate.

The thin-film equation u_t = (u^3 u_x)_x with a moving contact line reduces,
in similarity variables, to a free boundary ODE whose origin condition
U'(0) = 0 is homogeneous. The solver therefore works in a shifted variable
V = U + eta (so V'(0) = 1) and un-shifts for output. For the parameter pair
H = 1/2, L = -1/2 the profile is known exactly, which makes this problem a
sharp end-to-end test.

Run:  python3 demos/spreading_walkthrough.py
"""

from itmfree import (
    SpreadingParams,
    exact_spreading,
    make_spreading,
    reconstruct_physical,
    run_config,
    secant_solve,
    solution_profile,
)
from itmfree.problems import spreading_exponents

problem, scaling = make_spreading(SpreadingParams(H=0.5, L=-0.5))

# The recovered front must not depend on the arbitrary starred boundary s*:
# run_config keeps the problem's 1,000 RK4 steps and maps the secant pair by the
# stretching group, so each s* takes the same iterations to the same front.
for s_star in (0.5, 1.0, 4.0):
    config = run_config(problem, scaling, s_star=s_star)
    result = secant_solve(problem, scaling, config)
    print(f"s* = {s_star}: {result.status.value} after {result.iterations} "
          f"iterations, eta_w = {result.s:.9f}, U(0) = {result.w0:.9f}")

exact_u0 = (17.0 / 40.0) ** (1.0 / 3.0)
print(f"\nexact: eta_w = 1, U(0) = (17/40)^(1/3) = {exact_u0:.9f}")

# Pointwise comparison of the last solve's profile, at its 1,001 nodes, with the
# exact one (whose front is eta_w = 1, so an abscissa just past it is clipped).
profile = solution_profile(problem, scaling, config, result)
sup = max(abs(u - exact_spreading(min(e, 1.0)).w) for e, u in zip(profile.eta, profile.u))
print(f"profile sup-error vs exact solution: {sup:.2e}")

# Physical reconstruction: the current spreads as x_w = eta_w t^(1/5) while
# its height decays as t^(-1/5).
exps = spreading_exponents()
for t in (1.0, 32.0, 243.0):
    phys = reconstruct_physical(profile, exps, result.s, t)
    print(f"t = {t:6.1f}: front x_w = {phys.x_w:.6f}, height u(0) = {phys.u[0]:.6f}")
