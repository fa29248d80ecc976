"""Exception types shared across the package."""


class ItmFreeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateExponent(ItmFreeError):
    """A similarity-exponent formula has a vanishing denominator."""


class NonPositiveTime(ItmFreeError):
    """A physical reconstruction was requested at a t that is not positive and finite."""


class DomainError(ItmFreeError):
    """An abscissa lies outside the domain of a reference solution."""


class InvalidParams(ItmFreeError):
    """Problem parameters violate their admissibility constraints."""


class NotTabulated(ItmFreeError):
    """No stored reference value exists for the requested parameter."""


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
