"""Exception types shared across the package, and the readers that decide
what a number is for every public entry point."""

from __future__ import annotations

import math
import reprlib
from collections.abc import Iterable

import numpy as np


class BachelierWingsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BachelierWingsError, ValueError):
    """An input lies outside the mathematical domain of the operation.

    Raised for non-finite arguments, sigma <= 0, kappa of the wrong sign
    where a sign is required, and similar contract violations.
    """


def _read(values, name: str, dtype: type = float) -> np.ndarray:
    """values as a float64 (complex128 for dtype complex) array of any shape, the
    caller's own when it is one; DomainError naming them for text (str or bytes, even
    "1.5", a text dtype, an object array holding text or None) and what else numpy
    cannot read so (a ragged list too), not for inf or NaN.  A generator or set is listed."""
    if type(values) is np.ndarray and values.dtype == dtype:
        return values
    if not isinstance(values, (np.ndarray, list, tuple, str, bytes)) and isinstance(values, Iterable):
        values = list(values)
    kinds = "biufcO" if dtype is complex else "biufO"
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in kinds or arr.dtype.kind == "O" and any(
                v is None or isinstance(v, (str, bytes)) for v in arr.flat):
            raise TypeError
        return arr.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError):
        number = "real or complex" if dtype is complex else "real"
        raise DomainError(f"{name} must be {number}, got {reprlib.repr(values)}") from None


def _reals(values, name: str, neg_inf: bool = False) -> np.ndarray:
    """values read by _read as float64, then DomainError for inf or NaN (-inf passes with neg_inf)."""
    arr = _read(values, name)
    ok = np.isfinite(arr) if not neg_inf else arr < math.inf
    if np.count_nonzero(ok) < arr.size:
        bad = float(arr[~ok].flat[0])
        raise DomainError(f"{name} must be finite{' or -inf' if neg_inf else ''}, got {bad!r}")
    return arr


def _real(value, name: str, neg_inf: bool = False) -> float:
    """value as a Python float: a finite float as it is, anything else read by
    _reals, so the same values raise DomainError, and so does an array with
    dimensions."""
    if type(value) is float and math.isfinite(value):
        return value
    if (arr := _reals(value, name, neg_inf)).ndim:
        raise DomainError(f"{name} must be one real number, got {reprlib.repr(value)}")
    return float(arr)


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
