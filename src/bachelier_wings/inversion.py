"""Implied normal volatility: invert call_price(kappa, sigma) = price in sigma.

The solve runs in log space on the out-of-the-money leg, where the
problem is uniformly well conditioned: with x = ln(sigma) and
g(x) = ln c_b(kappa, e^x) - ln(target), the derivative satisfies
dg/dx = sigma / (sqrt(2 pi) h) * (h/sigma) ... collapsing to the exact
identity dg/dx = sqrt(2 pi) h / sigma restated below, which lies in
(0, 1].  Newton steps in x are therefore bounded by |g| and a bracket
is available in closed form on both sides:

    tv * sqrt(2 pi)  <=  sigma*  <=  (tv + kappa/2) * sqrt(2 pi)

(tv the OTM time value), from c_b <= ATM and c_b >= ATM - kappa/2.
In-the-money inputs reduce through exact parity, so puts and calls share
one code path and deep tails never subtract two close numbers.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bachelier import LN_SQRT_2PI, SQRT_2PI, _scaled_time_value
from .errors import (
    AccuracyNotReached,
    ConvergenceFailure,
    DomainError,
    NoSolutionBelowIntrinsic,
)

__all__ = [
    "IvolResult",
    "implied_vol_call",
    "implied_vol_put",
    "implied_vol_call_log",
    "implied_vol_put_log",
    "implied_vol_call_vec",
    "implied_vol_put_vec",
    "implied_vol_call_log_vec",
    "implied_vol_put_log_vec",
]

MAX_ITERATIONS = 200

# Once the requested price tolerance translates to a log residual looser
# than this, absolute price accuracy is meaningless (think 1e-12 on a
# 1e-60 price) and the solver switches to demanding this log residual.
LOG_RESIDUAL_DEEP = 1e-10

_EPS = float(np.finfo(float).eps)
_LN2 = math.log(2.0)


@dataclass(frozen=True, slots=True)
class IvolResult:
    """Outcome of one inversion.

    sigma      solved volatility, > 0
    iterations solver evaluations used (0 for the at-the-money closed form)
    residual   |call_price(kappa, sigma) - price|, price-space absolute;
               underflows to 0.0 in the deep tails, which is exact there
    method     closed_form_atm | newton | bisection_fallback (price-space
               tolerance) or newton_log | bisection_log (deep tail, log
               tolerance of LOG_RESIDUAL_DEEP)
    """

    sigma: float
    iterations: int
    residual: float
    method: str


def _validate_scalar(value: float, name: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return v


def _validate_tol(tol: float) -> float:
    t = float(tol)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"tol must be a positive finite real, got {tol!r}")
    return t


def _noise_floor(d: NDArray[np.float64]) -> NDArray[np.float64]:
    # achievable |g|: the log-price evaluation itself carries ~d^2 * eps
    return 8.0 * _EPS * np.maximum(1.0, d * d)


# Per-element outcome of the core loop, x = ln(sigma).  converged: |g| met
# max(tolerance, noise floor) within MAX_ITERATIONS; unattainable: the price
# tolerance lies below what doubles deliver there; x_lo, x_hi: the final bracket.
_Solved = namedtuple("_Solved", "x iterations bisected deep g converged unattainable x_lo x_hi")


def _solve_otm_log(
    k: NDArray[np.float64],
    log_tv: NDArray[np.float64],
    tol: float,
) -> _Solved:
    """Core solver loop; k > 0 elementwise, target ln(time value) = log_tv.

    Never raises: each element's failure shows in the converged and
    unattainable masks, so a batch keeps its good elements.  Callers that
    must fail on the first bad element pass the result to _raise_first_failure.
    """
    ln_k = np.log(k)
    x_lo = log_tv + LN_SQRT_2PI
    x_hi = np.logaddexp(log_tv, ln_k - _LN2) + LN_SQRT_2PI
    # wing-formula seed sigma0 = k / sqrt(2 max(1, -ln tv)), clipped into bracket
    x = np.clip(ln_k - 0.5 * np.log(2.0 * np.maximum(1.0, -log_tv)), x_lo, x_hi)

    with np.errstate(over="ignore"):
        ratio_tol = tol * np.exp(-log_tv)  # price tol as a log residual; inf is fine
    deep = ratio_tol > LOG_RESIDUAL_DEEP
    base_tol = np.minimum(ratio_tol, LOG_RESIDUAL_DEEP)

    iterations = np.zeros(k.shape, dtype=np.int64)
    bisected = np.zeros(k.shape, dtype=bool)
    converged = np.zeros(k.shape, dtype=bool)
    g = np.zeros(k.shape)
    noise = np.zeros(k.shape)

    for _ in range(MAX_ITERATIONS):
        active = ~converged
        sigma = np.exp(x)
        d = k / sigma
        h = _scaled_time_value(k, sigma)
        g_new = -0.5 * d * d + np.log(h) - log_tv
        g = np.where(active, g_new, g)
        noise_new = _noise_floor(d)
        noise = np.where(active, noise_new, noise)
        iterations[active] += 1

        below = g < 0.0
        x_lo = np.where(active & below, np.maximum(x_lo, x), x_lo)
        x_hi = np.where(active & ~below, np.minimum(x_hi, x), x_hi)

        converged = converged | (active & (np.abs(g) <= np.maximum(base_tol, noise)))
        if converged.all():
            break

        # Newton in x = ln sigma; the step is -g * sqrt(2pi) h / sigma in (0, |g|]
        step = -g * SQRT_2PI * h / sigma
        x_newton = x + step
        outside = ~np.isfinite(x_newton) | (x_newton <= x_lo) | (x_newton >= x_hi)
        need = ~converged
        bisected |= need & outside
        x = np.where(need, np.where(outside, 0.5 * (x_lo + x_hi), x_newton), x)

    # honest failure when the caller asked for less than doubles can deliver
    unattainable = (ratio_tol <= LOG_RESIDUAL_DEEP) & (ratio_tol < noise) & (np.abs(g) > ratio_tol)
    return _Solved(x, iterations, bisected, deep, g, converged, unattainable, x_lo, x_hi)


def _raise_first_failure(solved: _Solved, log_tv: NDArray[np.float64], tol: float) -> None:
    """Raise for the first unconverged element, else the first unattainable one."""
    if not solved.converged.all():
        idx = int(np.argmax(~solved.converged))
        raise ConvergenceFailure(
            f"implied vol did not converge in {MAX_ITERATIONS} iterations",
            bracket=(float(np.exp(solved.x_lo.flat[idx])), float(np.exp(solved.x_hi.flat[idx]))),
        )
    if np.any(solved.unattainable):
        idx = int(np.argmax(solved.unattainable))
        achieved = float(np.exp(log_tv.flat[idx]) * abs(np.expm1(solved.g.flat[idx])))
        raise AccuracyNotReached(
            f"requested price tolerance {tol:g} is below the attainable floor",
            achieved=achieved,
        )


def _method_label(deep: bool, bisected: bool) -> str:
    if deep:
        return "bisection_log" if bisected else "newton_log"
    return "bisection_fallback" if bisected else "newton"


def _result_from_core(k: float, log_tv: float, tol: float) -> IvolResult:
    arr_tv = np.array([log_tv])
    solved = _solve_otm_log(np.array([k]), arr_tv, tol)
    _raise_first_failure(solved, arr_tv, tol)
    with np.errstate(under="ignore"):
        residual = float(np.exp(arr_tv[0]) * abs(np.expm1(solved.g[0])))
    return IvolResult(
        sigma=float(np.exp(solved.x[0])),
        iterations=int(solved.iterations[0]),
        residual=residual,
        method=_method_label(bool(solved.deep[0]), bool(solved.bisected[0])),
    )


def _atm_result(price: float, tol: float) -> IvolResult:
    if price <= 0.0:
        raise NoSolutionBelowIntrinsic(0.0, price, 0.0)
    sigma = price * SQRT_2PI
    residual = abs(sigma / SQRT_2PI - price)  # rounding only
    if residual > tol and tol < 4.0 * _EPS * max(1.0, price):
        raise AccuracyNotReached(
            f"tol {tol:g} below rounding floor of the closed-form at-the-money inversion",
            achieved=residual,
        )
    return IvolResult(sigma=sigma, iterations=0, residual=residual, method="closed_form_atm")


def implied_vol_call(kappa: float, price: float, tol: float = 1e-12) -> IvolResult:
    """Implied normal vol of a call quote at moneyness kappa.

    Requires price strictly above intrinsic max(-kappa, 0), else
    NoSolutionBelowIntrinsic.  tol is an absolute price-space residual;
    quotes so deep that this is unrepresentable are solved to a log-price
    residual of LOG_RESIDUAL_DEEP and flagged through result.method.
    """
    k = _validate_scalar(kappa, "kappa")
    p = _validate_scalar(price, "price")
    t = _validate_tol(tol)
    if k == 0.0:
        return _atm_result(p, t)
    intrinsic = max(-k, 0.0)
    tv = p - intrinsic
    if tv <= 0.0:
        raise NoSolutionBelowIntrinsic(k, p, intrinsic)
    return _result_from_core(abs(k), math.log(tv), t)


def implied_vol_put(kappa: float, price: float, tol: float = 1e-12) -> IvolResult:
    """Implied normal vol of a put quote; the reflected call solve, verbatim."""
    return implied_vol_call(-kappa, price, tol)


def implied_vol_call_log(kappa: float, log_price: float, tol: float = 1e-12) -> IvolResult:
    """Like implied_vol_call but the quote arrives as ln(price).

    This is the entry point for quotes far below the double underflow
    floor (ln price ~ -1e5 is fine).  In-the-money inputs still reduce
    through parity; that subtraction is done in log space but cannot
    recover digits the input itself does not carry.
    """
    k = _validate_scalar(kappa, "kappa")
    lp = float(log_price)
    if math.isnan(lp) or lp == math.inf:
        raise DomainError(f"log_price must be a real number or -inf, got {log_price!r}")
    t = _validate_tol(tol)
    if k == 0.0:
        return _atm_result(math.exp(lp) if lp < 700.0 else math.inf, t)
    if k < 0.0:
        ln_intrinsic = math.log(-k)
        if lp <= ln_intrinsic:
            raise NoSolutionBelowIntrinsic(k, math.exp(lp) if lp < 700.0 else math.inf, -k)
        log_tv = lp + math.log(-math.expm1(ln_intrinsic - lp))
    else:
        if lp == -math.inf:
            raise NoSolutionBelowIntrinsic(k, 0.0, 0.0)
        log_tv = lp
    return _result_from_core(abs(k), log_tv, t)


def implied_vol_put_log(kappa: float, log_price: float, tol: float = 1e-12) -> IvolResult:
    """Put counterpart of implied_vol_call_log, via reflection."""
    return implied_vol_call_log(-kappa, log_price, tol)


def implied_vol_call_vec(
    kappa, price, tol: float = 1e-12
) -> NDArray[np.float64]:
    """Bulk implied vols for arrays of call quotes; returns sigma only.

    Same algorithm and error contract as implied_vol_call (the first
    offending element raises), one vectorized solve for the whole batch.
    """
    t = _validate_tol(tol)
    k = np.asarray(kappa, dtype=float)
    p = np.asarray(price, dtype=float)
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(p))):
        raise DomainError("kappa and price must be finite")
    k, p = np.broadcast_arrays(k, p)
    out = np.empty(k.shape)

    atm = k == 0.0
    if np.any(atm):
        if np.any(p[atm] <= 0.0):
            bad = int(np.argmax(atm & (p <= 0.0)))
            raise NoSolutionBelowIntrinsic(0.0, float(p.flat[bad]), 0.0)
        out[atm] = p[atm] * SQRT_2PI

    solve = ~atm
    if np.any(solve):
        tv = p[solve] - np.maximum(-k[solve], 0.0)
        if np.any(tv <= 0.0):
            rows = np.flatnonzero(solve)
            bad = rows[int(np.argmax(tv <= 0.0))]
            kb = float(k.flat[bad])
            raise NoSolutionBelowIntrinsic(kb, float(p.flat[bad]), max(-kb, 0.0))
        log_tv = np.log(tv)
        solved = _solve_otm_log(np.abs(k[solve]), log_tv, t)
        _raise_first_failure(solved, log_tv, t)
        out[solve] = np.exp(solved.x)
    return out


def implied_vol_put_vec(kappa, price, tol: float = 1e-12) -> NDArray[np.float64]:
    """Bulk put inversion; the reflected call batch."""
    return implied_vol_call_vec(np.negative(np.asarray(kappa, dtype=float)), price, tol)


def implied_vol_call_log_vec(kappa, log_price, tol: float = 1e-12) -> NDArray[np.float64]:
    """Bulk inversion from ln(price) quotes; returns sigma only.

    The workhorse for whole smiles whose wings sit below the double
    underflow floor.  kappa = 0 entries use the closed form; negative
    kappa reduces through parity in log space (subject to the digits the
    input actually carries, as in implied_vol_call_log).
    """
    t = _validate_tol(tol)
    k = np.asarray(kappa, dtype=float)
    lp = np.asarray(log_price, dtype=float)
    if not np.all(np.isfinite(k)):
        raise DomainError("kappa must be finite")
    if np.any(np.isnan(lp)) or np.any(lp == np.inf):
        raise DomainError("log_price entries must be real or -inf")
    k, lp = np.broadcast_arrays(k, lp)
    out = np.empty(k.shape)

    atm = k == 0.0
    if np.any(atm):
        if np.any(lp[atm] >= 700.0):
            raise DomainError("log_price too large to represent at kappa = 0")
        out[atm] = np.exp(lp[atm]) * SQRT_2PI

    itm = k < 0.0
    log_tv = np.where(atm, 0.0, lp)
    if np.any(itm):
        ln_intr = np.where(itm, np.log(np.abs(np.where(itm, k, 1.0))), 0.0)
        no_sol = itm & (lp <= ln_intr)
        if np.any(no_sol):
            bad = int(np.argmax(no_sol))
            kb = float(k.flat[bad])
            lpb = float(lp.flat[bad])
            raise NoSolutionBelowIntrinsic(kb, math.exp(lpb) if lpb < 700.0 else math.inf, -kb)
        with np.errstate(invalid="ignore"):
            folded = lp + np.log(-np.expm1(ln_intr - lp))
        log_tv = np.where(itm, folded, log_tv)

    solve = ~atm
    if np.any(solve):
        underflow = solve & (lp == -np.inf)
        if np.any(underflow):
            bad = int(np.argmax(underflow))
            kb = float(k.flat[bad])
            raise NoSolutionBelowIntrinsic(kb, 0.0, max(-kb, 0.0))
        log_tv = log_tv[solve]
        solved = _solve_otm_log(np.abs(k[solve]), log_tv, t)
        _raise_first_failure(solved, log_tv, t)
        out[solve] = np.exp(solved.x)
    return out


def implied_vol_put_log_vec(kappa, log_price, tol: float = 1e-12) -> NDArray[np.float64]:
    """Bulk put inversion from ln(price); the reflected call batch."""
    return implied_vol_call_log_vec(np.negative(np.asarray(kappa, dtype=float)), log_price, tol)
