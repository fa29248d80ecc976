"""Free boundary ODE problems from parabolic moving-boundary models,
solved by the iterative transformation method (ITM).

The package reduces the PDE class u_t = (u^n u_x)_x on a moving domain to a
free boundary ODE via scaling invariance, embeds the reduced problem in a
one-parameter extension, and finds the free boundary with one inward RK4
integration per secant iteration on the transformation function.
"""

# each module's __all__ is its public interface; the package republishes them
from .errors import *
from .itm import *
from .ivp import *
from .problems import *
from .reference import *
from .similarity import *

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
