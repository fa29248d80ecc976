"""Narrative walkthrough: the one-phase Stefan problem.

A slab of ice at its melting temperature is warmed from the left wall. The
temperature field and the melt front x_w(t) are found by reducing the heat
equation to a free boundary ODE in similarity variables and solving it with
the iterative transformation method. The result is checked against the
closed-form erf-based solution.

Run:  python3 demos/stefan_walkthrough.py
"""

from itmfree import (
    StefanParams,
    make_stefan,
    neumann_eta_w,
    neumann_profile,
    reconstruct_physical,
    run_config,
    secant_solve,
    solution_profile,
)
from itmfree.problems import stefan_exponents

S = 1.0  # inverse Stefan number: latent heat / sensible heat

# 1. Build the reduced free boundary problem and its scaling embedding.
problem, scaling = make_stefan(StefanParams(S=S))

# 2. Solve: one inward RK4 integration per secant iteration on Gamma(h*), from
#    the problem's run settings (s* = 1/2, 500 RK4 steps, the estimated pair).
config = run_config(problem, scaling)
result = secant_solve(problem, scaling, config)

print(f"status      : {result.status.value} after {result.iterations} iterations")
print(f"front eta_w : {result.s:.9f}")
print(f"slope dU(0) : {result.dw0:.9f}")

print("\nsecant trace (j, h*, Gamma, eta_w estimate):")
for j, it in enumerate(result.trace):
    print(f"  {j:2d}  {it.h_star:14.6f}  {it.gamma_val:+.3e}  {it.s_j:.6f}")

# 3. Cross-check against the closed-form solution: eta_w solves
#    sqrt(pi) S eta_w exp(eta_w^2/4) erf(eta_w/2) = 2.
root = neumann_eta_w(S)
print(f"\nclosed-form eta_w : {root:.9f}   (ITM differs by {result.s - root:+.2e})")

# The converged solution at the solve's 501 nodes, from eta = 0 to eta_w.
profile = solution_profile(problem, scaling, config, result)
sup = max(abs(u - neumann_profile(e, result.s).w) for e, u in zip(profile.eta, profile.u))
print(f"profile sup-error vs closed form: {sup:.2e}")

# 4. Back to physical variables: the melt front moves as x_w = eta_w sqrt(t).
exps = stefan_exponents()
for t in (1.0, 4.0, 9.0):
    phys = reconstruct_physical(profile, exps, result.s, t)
    print(f"t = {t:4.1f}: melt front at x_w = {phys.x_w:.6f}")
