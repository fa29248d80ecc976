"""Exception types shared across the package.

Three are raised: ``InvalidParams`` when an argument is rejected,
``SingularRhs`` when an integration breaks down, and ``OmegaNonPositive``
when a Gamma evaluation cannot recover omega. ``secant_solve`` turns the last
two into statuses.
"""

__all__ = ["ItmFreeError", "InvalidParams", "SingularRhs", "OmegaNonPositive"]


class ItmFreeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(ItmFreeError):
    """An argument lies outside what the function or constructor accepts."""


class SingularRhs(ItmFreeError):
    """The ODE right-hand side became non-finite (or hit a singularity).

    Carries the abscissa at which the failure was detected.
    """

    def __init__(self, abscissa: float, message: str | None = None):
        self.abscissa = abscissa
        super().__init__(message or f"singular right-hand side near z = {abscissa!r}")


class OmegaNonPositive(ItmFreeError):
    """The recovered group parameter is not strictly positive."""


class DomainExit(ItmFreeError):
    """Secant iterates repeatedly left the admissible parameter interval.

    Never raised: the secant steps in log h*, which keeps h* positive. Kept
    because the benchmark's smoke test imports it."""
