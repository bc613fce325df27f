"""Normalized Bachelier (normal model) prices, greeks, and tail bounds.

Everything here works in normalized units: moneyness ``kappa`` is
(strike - forward) / sqrt(t) and prices are undiscounted premiums divided
by sqrt(t), so the normal volatility enters as a single parameter
``sigma`` with no rate or expiry anywhere.

Scalar or ndarray inputs are accepted everywhere; scalars in, float out.
Each is read by errors._reals: text, non-reals, inf and NaN raise DomainError.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.special as sc
from numpy.typing import NDArray

from .errors import DomainError, _reals

__all__ = [
    "SQRT_2PI",
    "INV_SQRT_2PI",
    "LN_SQRT_2PI",
    "norm_pdf",
    "norm_cdf",
    "log_norm_cdf",
    "call_price",
    "put_price",
    "call_price_log",
    "put_price_log",
    "vega",
    "bachelier_bounds",
    "bachelier_bounds_log",
    "mills_sandwich",
    "mills_sandwich_log",
]

FloatLike = float | NDArray[np.float64]

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Above this |d| the erfcx difference loses too many digits; use the
# asymptotic series for the scaled time value instead (rel error ~945/d^8).
_SERIES_D = 1.0e4
_SQRT2 = math.sqrt(2.0)

_REAL_SCALARS = (float, int, np.floating, np.integer)


def _signed_reals(values, name: str, sign: float) -> NDArray[np.float64]:
    """values read by errors._reals, then times sign: a put's kappa is reflected
    (sign -1.0) after the read, so an error names the caller's value."""
    arr = _reals(values, name)
    return arr if sign > 0.0 else np.asarray(-arr)


def _validated_pair(a, b, names: tuple[str, str], positive: tuple[str, ...], sign: float = 1.0):
    """Both inputs as finite arrays (errors._reals, the first times sign) broadcast together,
    plus whether both came in as scalars; inputs named in `positive` must also be > 0."""
    x, y = _signed_reals(a, names[0], sign), _reals(b, names[1])
    scalar = x.ndim == 0 and y.ndim == 0
    for arr, name in zip((x, y), names):
        if name in positive and np.count_nonzero(arr <= 0.0):
            raise DomainError(f"{name} must be > 0")
    if x.shape != y.shape:
        x, y = np.broadcast_arrays(x, y)
    return x, y, scalar


def _scalar_or_array(out: NDArray[np.float64], scalar: bool):
    return float(out) if scalar else out


def norm_pdf(x: FloatLike) -> FloatLike:
    """Standard normal density."""
    arr = _reals(x, "x")
    return _scalar_or_array(np.exp(-0.5 * arr * arr) * INV_SQRT_2PI, arr.ndim == 0)


def norm_cdf(x: FloatLike) -> FloatLike:
    """Standard normal cdf via the complementary error function.

    Absolute accuracy ~1e-16 on the whole axis and correct exponential
    decay in the left tail (no premature underflow before ~ -38).
    """
    arr = _reals(x, "x")
    return _scalar_or_array(sc.ndtr(arr), arr.ndim == 0)


def log_norm_cdf(x: FloatLike) -> FloatLike:
    """log(Phi(x)), finite and accurate arbitrarily deep into the left tail."""
    arr = _reals(x, "x")
    return _scalar_or_array(sc.log_ndtr(arr), arr.ndim == 0)


def _scaled_time_value(k, sigma, d):
    """h(k, sigma) = exp(d^2/2) * c_b(k, sigma) for k >= 0, d = k/sigma.

    Identity: h = sigma/sqrt(2 pi) - (k/2) * erfcx(d/sqrt(2)).  The
    subtraction loses ~d^2*eps relative accuracy, so far out we switch to
    the equivalent asymptotic series h = sigma/sqrt(2 pi) * (1/d^2 - 3/d^4
    + 15/d^6 - 105/d^8).  h is strictly positive and bounded by the ATM
    value sigma/sqrt(2 pi).

    The caller passes d = k / sigma, which it needs too.  Python floats in
    (a float solve or a scalar price) give a float out, from the same
    operations in the same order as on arrays, with scipy's erfcx, so the
    two agree bit for bit.
    """
    if isinstance(d, float):
        if d > _SERIES_D:
            inv2 = 1.0 / (d * d)
            poly = 1.0 + inv2 * (-3.0 + inv2 * (15.0 - 105.0 * inv2))
            return sigma * INV_SQRT_2PI * inv2 * poly
        return sigma * INV_SQRT_2PI - 0.5 * k * float(sc.erfcx(d / _SQRT2))
    h = sigma * INV_SQRT_2PI - 0.5 * k * sc.erfcx(d / _SQRT2)
    far = d > _SERIES_D
    if not np.count_nonzero(far):
        return h
    with np.errstate(divide="ignore"):
        inv2 = np.where(far, 1.0 / (d * d), 0.0)
    series = sigma * INV_SQRT_2PI * inv2 * (1.0 + inv2 * (-3.0 + inv2 * (15.0 - 105.0 * inv2)))
    return np.where(far, series, h)


def call_price(kappa: FloatLike, sigma: FloatLike) -> FloatLike:
    """Normalized Bachelier call: -kappa*Phi(-d) + sigma*phi(d), d = kappa/sigma.

    Evaluated as intrinsic plus an out-of-the-money time value computed
    with erfcx so the deep tails keep full relative accuracy.  The result
    underflows to intrinsic once exp(-d^2/2) < 5e-324; use
    :func:`call_price_log` beyond that.
    """
    return _call_price(kappa, sigma, 1.0)


def put_price(kappa: FloatLike, sigma: FloatLike) -> FloatLike:
    """Normalized Bachelier put, via the exact reflection p(kappa) = c(-kappa)."""
    return _call_price(kappa, sigma, -1.0)


def _call_price(kappa, sigma, sign: float):
    """c(sign * kappa, sigma), kappa reflected after it is read."""
    k, s, scalar = _validated_pair(kappa, sigma, ("kappa", "sigma"), ("sigma",), sign)
    k_abs = np.abs(k)
    d = k_abs / s
    otm = np.exp(-0.5 * d * d) * _scaled_time_value(k_abs, s, d)
    return _scalar_or_array(otm + np.maximum(-k, 0.0), scalar)


def call_price_log(kappa: FloatLike, sigma: FloatLike) -> FloatLike:
    """ln of the normalized call price, finite for any d (no underflow).

    OTM branch: ln c = -d^2/2 + ln h.  ITM branch folds the intrinsic in
    through log1p so nothing is lost when the time value is negligible.
    """
    return _call_price_log(kappa, sigma, 1.0)


def put_price_log(kappa: FloatLike, sigma: FloatLike) -> FloatLike:
    """ln of the normalized put price; reflection of :func:`call_price_log`."""
    return _call_price_log(kappa, sigma, -1.0)


def _call_price_log(kappa, sigma, sign: float):
    """ln c(sign * kappa, sigma), kappa reflected after it is read."""
    if isinstance(kappa, _REAL_SCALARS) and isinstance(sigma, _REAL_SCALARS):
        # _validated_pair's checks and messages on floats (_REAL_SCALARS holds no str)
        k, s = float(kappa), float(sigma)
        if not math.isfinite(k):
            raise DomainError(f"kappa must be finite, got {kappa!r}")
        if not math.isfinite(s):
            raise DomainError(f"sigma must be finite, got {sigma!r}")
        if s <= 0.0:
            raise DomainError("sigma must be > 0")
        return _call_price_log_float(sign * k, s)
    k, s, scalar = _validated_pair(kappa, sigma, ("kappa", "sigma"), ("sigma",), sign)
    k_abs = np.abs(k)
    d = k_abs / s
    log_otm = -0.5 * d * d + np.log(_scaled_time_value(k_abs, s, d))
    itm = k < 0.0
    if np.count_nonzero(itm):
        with np.errstate(divide="ignore", invalid="ignore"):
            log_intr = np.where(itm, np.log(np.maximum(-k, 1e-300)), 0.0)
        folded = log_intr + np.log1p(np.exp(np.minimum(log_otm - log_intr, 700.0)))
        log_otm = np.where(itm, folded, log_otm)
    return _scalar_or_array(log_otm, scalar)


def _call_price_log_float(k: float, s: float) -> float:
    """call_price_log at one point on Python floats: the array path's operations
    in its order, with numpy's exp, log and log1p, so the two agree bit for bit."""
    k_abs = abs(k)
    d = k_abs / s
    log_otm = -0.5 * d * d + float(np.log(_scaled_time_value(k_abs, s, d)))
    if k < 0.0:
        log_intr = float(np.log(max(-k, 1e-300)))
        log_otm = log_intr + float(np.log1p(np.exp(min(log_otm - log_intr, 700.0))))
    return log_otm


def vega(kappa: FloatLike, sigma: FloatLike) -> FloatLike:
    """d(price)/d(sigma) = phi(kappa/sigma); same for calls and puts."""
    k, s, scalar = _validated_pair(kappa, sigma, ("kappa", "sigma"), ("sigma",))
    d = k / s
    return _scalar_or_array(np.exp(-0.5 * d * d) * INV_SQRT_2PI, scalar)


# =============================================================================
# Tail bounds
# =============================================================================
#
# Both bound pairs below descend from the two-sided Mills-ratio estimate
#
#     2/(x + sqrt(x^2 + 4))  <=  Phi(-x)/phi(x)  <=  2/(x + sqrt(x^2 + 8/pi)),
#
# the classical standard-normal form (equality at x = 0).  Beware variants
# in the literature stated for the erfc integral e^{x^2} int_x^inf e^{-t^2} dt;
# pasting those constants into the Phi/phi form without the sqrt(2) change
# of variables produces "bounds" that a direct evaluation at x = 1 refutes.


def _bound_args(kappa: NDArray[np.float64], sigma: NDArray[np.float64]):
    # c/(kappa + sqrt(kappa^2 + c sigma^2))^2 * sigma^3 forms, cancellation-free
    c_lo = 8.0 / math.pi
    lo = c_lo * sigma**3 / (kappa + np.sqrt(kappa * kappa + c_lo * sigma * sigma)) ** 2
    hi = 4.0 * sigma**3 / (kappa + np.sqrt(kappa * kappa + 4.0 * sigma * sigma)) ** 2
    return lo, hi


def mills_sandwich(kappa: FloatLike, sigma: FloatLike) -> tuple[FloatLike, FloatLike]:
    """Two-sided bounds on the OTM call from the Mills-ratio estimate.

        phi(d) * (8/pi) sigma^3 / (kappa + sqrt(kappa^2 + (8/pi) sigma^2))^2
            <= c_b(kappa, sigma) <=
        phi(d) * 4 sigma^3 / (kappa + sqrt(kappa^2 + 4 sigma^2))^2

    Requires kappa > 0.  The ratio upper/lower tends to pi/2 as d grows
    (the two Mills constants differ), so these localize ln c_b to O(1).
    """
    k, s, scalar = _validated_pair(kappa, sigma, ("kappa", "sigma"), ("sigma",))
    if np.any(k <= 0.0):
        raise DomainError("mills_sandwich requires kappa > 0")
    pdf = np.exp(-0.5 * (k / s) ** 2) * INV_SQRT_2PI
    lo, hi = _bound_args(k, s)
    return _scalar_or_array(pdf * lo, scalar), _scalar_or_array(pdf * hi, scalar)


def mills_sandwich_log(kappa: FloatLike, sigma: FloatLike) -> tuple[FloatLike, FloatLike]:
    """ln of both :func:`mills_sandwich` bounds; safe arbitrarily deep."""
    k, s, scalar = _validated_pair(kappa, sigma, ("kappa", "sigma"), ("sigma",))
    if np.any(k <= 0.0):
        raise DomainError("mills_sandwich_log requires kappa > 0")
    log_pdf = -0.5 * (k / s) ** 2 - LN_SQRT_2PI
    lo, hi = _bound_args(k, s)
    return (
        _scalar_or_array(log_pdf + np.log(lo), scalar),
        _scalar_or_array(log_pdf + np.log(hi), scalar),
    )


def bachelier_bounds(y: FloatLike, beta: FloatLike) -> tuple[FloatLike, FloatLike]:
    """Sandwich for the price along the parabola sigma = sqrt(beta*y).

    Returns (lower, upper) with

        lower = g_l(y) * exp(-y/(2 beta)),   upper = g_u(y) * exp(-y/(2 beta)),
        g_u(y) = sqrt(beta * y / (2 pi)),
        g_l(y) = (8/pi) * y / (sqrt(2 pi) * A * (A + B)^2),
                 A = sqrt(y/beta), B = sqrt(y/beta + 8/pi),

    so that lower <= c_b(y, sqrt(beta*y)) <= upper for every y, beta > 0.
    g_l is the cancellation-free form of (sqrt(beta*y) - 2y/(A+B))/sqrt(2 pi).
    The ratio upper/lower grows like pi*y/(2*beta); the sandwich pins the
    exponential order exp(-y/(2 beta)), not the algebraic prefactor.
    """
    yy, bb, scalar = _validated_pair(y, beta, ("y", "beta"), ("y", "beta"))
    damp = np.exp(-yy / (2.0 * bb))
    g_l, g_u = _prefactors(yy, bb)
    return _scalar_or_array(g_l * damp, scalar), _scalar_or_array(g_u * damp, scalar)


def bachelier_bounds_log(y: FloatLike, beta: FloatLike) -> tuple[FloatLike, FloatLike]:
    """ln of both :func:`bachelier_bounds` values; usable when exp underflows."""
    yy, bb, scalar = _validated_pair(y, beta, ("y", "beta"), ("y", "beta"))
    log_damp = -yy / (2.0 * bb)
    g_l, g_u = _prefactors(yy, bb)
    return (
        _scalar_or_array(np.log(g_l) + log_damp, scalar),
        _scalar_or_array(np.log(g_u) + log_damp, scalar),
    )


def _prefactors(y: NDArray[np.float64], beta: NDArray[np.float64]):
    a = np.sqrt(y / beta)
    b = np.sqrt(y / beta + 8.0 / math.pi)
    g_l = (8.0 / math.pi) * y / (SQRT_2PI * a * (a + b) ** 2)
    g_u = np.sqrt(beta * y / (2.0 * math.pi))
    return g_l, g_u
