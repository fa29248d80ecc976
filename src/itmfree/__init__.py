"""Free boundary ODE problems from parabolic moving-boundary models,
solved by the iterative transformation method (ITM).

The package reduces the PDE class u_t = (u^n u_x)_x on a moving domain to a
free boundary ODE via scaling invariance, embeds the reduced problem in a
one-parameter extension, and finds the free boundary with one inward RK4
integration per secant iteration on the transformation function.
"""

from .errors import InvalidParams, ItmFreeError, OmegaNonPositive, SingularRhs
from .itm import (
    ExtendedScaling,
    ItmConfig,
    ItmIteration,
    ItmResult,
    ItmStatus,
    ReducedFreeBvp,
    evaluate_gamma,
    original_profile,
    recover_values,
    secant_solve,
)
from .ivp import IntegrationResult, SolutionProfile, State2, integrate_inward
from .problems import (
    STEFAN_GUESSES,
    SpreadingParams,
    StefanParams,
    make_spreading,
    make_stefan,
    spreading_exponents,
    stefan_default_guesses,
    stefan_exponents,
)
from .reference import (
    ASYMPTOTIC_ETA_W,
    asymptotic_eta_w,
    erf,
    exact_spreading,
    neumann_eta_w,
    neumann_profile,
)
from .similarity import (
    OriginKind,
    PhysicalProfile,
    SimilarityExponents,
    alpha_from_beta,
    check_invariance,
    flux_at_origin,
    gamma_from_alpha,
    height_at_origin,
    reconstruct_physical,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
