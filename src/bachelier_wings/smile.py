"""Smile containers: per-strike quotes with their implied volatilities."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["SmilePoint", "SmileGrid", "STATUS_OK", "STATUS_FAILED"]

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass(frozen=True, slots=True)
class SmilePoint:
    """One strike of a smile.

    log_price is the natural log of the normalized out-of-the-money
    option value at kappa (call for kappa >= 0, put below), the quote the
    implied normal volatility ivol is read from, so deep wings stay usable
    past double underflow; price is its exp, subnormal or 0 there.
    Failed points carry NaN in the numeric slots.
    """

    kappa: float
    price: float
    log_price: float
    ivol: float
    status: str

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_FAILED):
            raise DomainError(f"status must be 'ok' or 'failed', got {self.status!r}")
        if self.status == STATUS_OK and not (self.ivol > 0.0):
            raise DomainError(f"ok point at kappa={self.kappa} needs ivol > 0")


@dataclass(frozen=True, slots=True)
class SmileGrid:
    """Strictly kappa-increasing sequence of smile points."""

    points: tuple[SmilePoint, ...]

    def __post_init__(self) -> None:
        kappas = [p.kappa for p in self.points]
        if any(not math.isfinite(k) for k in kappas):
            raise DomainError("smile kappas must be finite")
        if any(b <= a for a, b in zip(kappas, kappas[1:])):
            raise DomainError("smile kappas must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def ok_points(self) -> tuple[SmilePoint, ...]:
        return tuple(p for p in self.points if p.status == STATUS_OK)
