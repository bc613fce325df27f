"""Exception types shared across the package."""

from __future__ import annotations


class BachelierWingsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BachelierWingsError, ValueError):
    """An input lies outside the mathematical domain of the operation.

    Raised for non-finite arguments, sigma <= 0, kappa of the wrong sign
    where a sign is required, and similar contract violations.
    """


class NoSolutionBelowIntrinsic(BachelierWingsError, ValueError):
    """Target price does not exceed intrinsic value; no vol reproduces it."""

    def __init__(self, kappa: float, price: float, intrinsic: float) -> None:
        self.kappa = float(kappa)
        self.price = float(price)
        self.intrinsic = float(intrinsic)
        super().__init__(
            f"price {price!r} is at or below intrinsic {intrinsic!r} "
            f"at kappa={kappa!r}; implied vol undefined"
        )


class ConvergenceFailure(BachelierWingsError, RuntimeError):
    """Root search exhausted its iteration budget.

    Carries the best bracket reached so callers can inspect or restart.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None) -> None:
        self.bracket = bracket
        super().__init__(message if bracket is None else f"{message} (bracket={bracket})")


class ModelConfigError(BachelierWingsError, ValueError):
    """A model configuration is malformed; names the offending field."""

    def __init__(self, field: str, reason: str) -> None:
        self.field = field
        self.reason = reason
        super().__init__(f"config field {field!r}: {reason}")


class DampingOutsideStrip(BachelierWingsError, ValueError):
    """Fourier damping parameter lies outside the model's analyticity strip."""


class AccuracyNotReached(BachelierWingsError, RuntimeError):
    """Quadrature finished without meeting the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None) -> None:
        self.achieved = achieved
        super().__init__(message if achieved is None else f"{message} (achieved ~{achieved:.3e})")


class TailUnderflow(BachelierWingsError, ArithmeticError):
    """A tail probability underflowed and no log-space accessor exists."""


class InsufficientWingData(BachelierWingsError, ValueError):
    """Too few usable smile points in the wing to estimate a slope."""


class NotApplicableInfiniteStrip(BachelierWingsError, ValueError):
    """Diagnostic requires a finite analyticity strip boundary."""
