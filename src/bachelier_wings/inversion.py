"""Implied normal volatility: invert call_price(kappa, sigma) = price in sigma.

The solve runs in log space on the out-of-the-money leg, where the
problem is uniformly well conditioned.  With x = ln(sigma), d = kappa/sigma,
h = e^(d^2/2) c_b the scaled time value and tv the target time value,
g(x) = ln c_b(kappa, e^x) - ln tv = -d^2/2 + ln h - ln tv has the exact
derivatives

    g' = sigma / (sqrt(2 pi) h) >= 1,    g'' = g' (1 + d^2 - g'),

so each evaluation buys a cubically convergent Halley step.  A bracket
is available in closed form on both sides:

    tv * sqrt(2 pi)  <=  sigma*  <=  (tv + kappa/2) * sqrt(2 pi)

from c_b <= ATM and c_b >= ATM - kappa/2; every evaluation shrinks it,
and a step that is not finite or leaves it is replaced by bisection.
The seed is the wing asymptotic ln c_b ~ -d^2/2 - 3 ln d + ln(kappa/sqrt(2 pi)):
two fixed-point passes on d^2/2 + 3 ln d = ln kappa - ln sqrt(2 pi) - ln tv,
whose map contracts where d^2 > 3.  Nearer the money the seed is the
bracket's upper end, exact as d -> 0.  The evaluation that meets the
tolerance still yields one last step.  Over 0.01 <= d <= 40 that is two to
four evaluations, about three on average.  In-the-money inputs reduce
through exact parity, so puts and calls share one code path and deep
tails never subtract two close numbers.

The _vec entry points (and pricing.smile_from_model) run the batch core
_solve_otm_log on arrays.  A scalar entry point runs its float twin
_solve_otm_log_scalar: the same steps in the same order on Python floats,
without numpy's per-call cost on one-element arrays, and pinned field for
field to the batch core by tests/test_inversion.py.  The batch core is the
reference; a change to one must be made to both.
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
# d^2/2 + 3 ln d at d^2 = 3, where the seed equation's fixed-point map starts to contract
_SEED_WING_RHS = 1.5 * (1.0 + math.log(3.0))


@dataclass(frozen=True, slots=True)
class IvolResult:
    """Outcome of one inversion.

    sigma      solved volatility, > 0
    iterations solver evaluations used (0 for the at-the-money closed form)
    residual   |call_price(kappa, s) - price|, price-space absolute, at the
               last evaluated iterate s; sigma is one more Halley step
               past s, which leaves a residual of order this one cubed, or
               rounding.  Underflows to 0.0 in the deep tails, which is
               exact there
    method     closed_form_atm, else the step taken and the tolerance that
               bound: newton | bisection_fallback when the price tolerance
               tol did, newton_log | bisection_log when the log residual
               LOG_RESIDUAL_DEEP did because tol / tv exceeds it, which at
               the default tol is every time value below 0.01, not only
               the tails; newton and newton_log name the derivative step,
               which is Halley's
    """

    sigma: float
    iterations: int
    residual: float
    method: str


def _exp_quiet(x: float) -> float:
    """float(np.exp(x)), inf past the double range without an overflow warning."""
    if x < 709.0:
        return float(np.exp(x))
    with np.errstate(over="ignore"):
        return float(np.exp(x))


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


# Per-element outcome of the core loop, x = ln(sigma).  g: the residual at the last
# evaluated point, which x is one step past; converged: |g| met max(tolerance, noise
# floor) within MAX_ITERATIONS, or x repeated where unattainable: the price tolerance
# lies below what doubles deliver there; x_lo, x_hi: the final bracket.
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
    # wing-asymptotic seed (module docstring), its passes floored at d^2 = 3
    rhs = ln_k - LN_SQRT_2PI - log_tv
    d2 = 2.0 * np.maximum(rhs, 1.5)
    for _ in range(2):
        d2 = 2.0 * np.maximum(1.5, rhs - 1.5 * np.log(d2))
    x = np.clip(np.where(rhs > _SEED_WING_RHS, ln_k - 0.5 * np.log(d2), x_hi), x_lo, x_hi)

    with np.errstate(over="ignore"):
        ratio_tol = tol * np.exp(-log_tv)  # price tol as a log residual; inf is fine
    deep = ratio_tol > LOG_RESIDUAL_DEEP
    base_tol = np.minimum(ratio_tol, LOG_RESIDUAL_DEEP)

    iterations = np.zeros(k.shape, dtype=np.int64)
    bisected = np.zeros(k.shape, dtype=bool)
    converged = np.zeros(k.shape, dtype=bool)
    g = np.zeros(k.shape)
    noise = np.zeros(k.shape)

    for it in range(MAX_ITERATIONS):
        active = ~converged
        sigma = np.exp(x)
        d = k / sigma
        h = _scaled_time_value(k, sigma)
        g = np.where(active, -0.5 * d * d + np.log(h) - log_tv, g)
        # the noise floor, achievable |g|: the log-price evaluation itself carries ~d^2 * eps
        noise = np.where(active, 8.0 * _EPS * np.maximum(1.0, d * d), noise)
        iterations[active] += 1

        below = g < 0.0
        x_lo = np.where(active & below, np.maximum(x_lo, x), x_lo)
        x_hi = np.where(active & ~below, np.minimum(x_hi, x), x_hi)

        converged = converged | (active & (np.abs(g) <= np.maximum(base_tol, noise)))

        # Halley: -(g/g') / (1 - g g'' / (2 g'^2)); an element that has just
        # converged takes its step too, unevaluated
        g1 = sigma / (SQRT_2PI * h)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_halley = x - (g / g1) / (1.0 - 0.5 * g * (1.0 + d * d - g1) / g1)
        inside = np.isfinite(x_halley) & (x_halley > x_lo) & (x_halley < x_hi)
        bisect = ~converged & ~inside
        bisected |= bisect
        x, x_prev = np.where(active & inside, x_halley, np.where(bisect, 0.5 * (x_lo + x_hi), x)), x
        if converged.all():
            break
        # past the two to four evaluations most quotes take, end an element whose
        # x repeats (a collapsed bracket, a step below one ulp): it would forever
        if it >= 3:
            converged |= x == x_prev

    # honest failure when the caller asked for less than doubles can deliver
    unattainable = (ratio_tol <= LOG_RESIDUAL_DEEP) & (ratio_tol < noise) & (np.abs(g) > ratio_tol)
    if it >= 3:  # a repeat may have ended an element: it stays converged only where unattainable
        converged &= (np.abs(g) <= np.maximum(base_tol, noise)) | unattainable
    return _Solved(x, iterations, bisected, deep, g, converged, unattainable, x_lo, x_hi)


def _solve_otm_log_scalar(k: float, log_tv: float, tol: float) -> _Solved:
    """_solve_otm_log for one quote on Python floats, each field a float, int or bool.

    The same seed, bracket, Halley step, noise floor, repeat stop and
    unattainable rule in the same order of operations, with numpy's exp and
    log (math.exp can differ from them in the last bit), so every field
    equals the batch core's bit for bit.  Where the batch divides by zero
    and gets inf or nan, a float division would raise: sigma and h stay
    numpy scalars, and a zero Halley denominator counts as a non-finite step.
    """
    ln_k = float(np.log(k))
    x_lo = log_tv + LN_SQRT_2PI
    x_hi = float(np.logaddexp(log_tv, ln_k - _LN2)) + LN_SQRT_2PI
    rhs = ln_k - LN_SQRT_2PI - log_tv
    if rhs > _SEED_WING_RHS:
        d2 = 2.0 * rhs
        for _ in range(2):
            d2 = 2.0 * max(1.5, rhs - 1.5 * float(np.log(d2)))
        x = ln_k - 0.5 * float(np.log(d2))
    else:
        x = x_hi
    x = x if x > x_lo else x_lo  # np.clip
    x = x if x < x_hi else x_hi

    ratio_tol = tol * _exp_quiet(-log_tv)
    deep = ratio_tol > LOG_RESIDUAL_DEEP
    base_tol = min(ratio_tol, LOG_RESIDUAL_DEEP)

    iterations = 0
    bisected = converged = False
    for it in range(MAX_ITERATIONS):
        sigma = np.exp(x)
        d = float(k / sigma)
        h = _scaled_time_value(k, sigma)
        g = -0.5 * d * d + float(np.log(h)) - log_tv
        noise = 8.0 * _EPS * max(1.0, d * d)
        iterations += 1

        if g < 0.0:
            x_lo = max(x_lo, x)
        else:
            x_hi = min(x_hi, x)

        converged = abs(g) <= max(base_tol, noise)

        g1 = float(sigma / (SQRT_2PI * h))
        den = 1.0 - 0.5 * g * (1.0 + d * d - g1) / g1
        # the bracket is finite, so a non-finite step is never inside it
        x_halley = x - (g / g1) / den if den else math.nan
        x_prev = x
        if x_lo < x_halley < x_hi:
            x = x_halley
        elif not converged:
            bisected = True
            x = 0.5 * (x_lo + x_hi)
        if converged:
            break
        if it >= 3 and x == x_prev:
            converged = True
            break

    unattainable = ratio_tol <= LOG_RESIDUAL_DEEP and ratio_tol < noise and abs(g) > ratio_tol
    if it >= 3:
        converged = converged and (abs(g) <= max(base_tol, noise) or unattainable)
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
    solved = _solve_otm_log_scalar(k, log_tv, tol)
    if not solved.converged or solved.unattainable:
        _raise_first_failure(_Solved(*(np.array([v]) for v in solved)), np.array([log_tv]), tol)
    return IvolResult(
        sigma=float(np.exp(solved.x)),
        iterations=solved.iterations,
        residual=float(np.exp(log_tv)) * abs(float(np.expm1(solved.g))),
        method=_method_label(solved.deep, solved.bisected),
    )


def _atm_result(price: float, tol: float) -> IvolResult:
    """The at-the-money closed form sigma = price * sqrt(2 pi); the vec entry
    points run it on each at-the-money element, so they raise alike."""
    if price <= 0.0:
        raise NoSolutionBelowIntrinsic(0.0, price, 0.0)
    sigma = price * SQRT_2PI
    if not math.isfinite(sigma):
        raise DomainError(f"at-the-money sigma = price * sqrt(2 pi) is not finite (price {price!r})")
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
    where tol / tv exceeds LOG_RESIDUAL_DEEP (time values below 0.01 at the
    default tol) the quote is solved to that log-price residual instead and
    result.method ends in _log.
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
    return _result_from_core(abs(k), float(np.log(tv)), t)


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
        return _atm_result(_exp_quiet(lp), t)
    if k < 0.0:
        ln_intrinsic = float(np.log(-k))
        if lp <= ln_intrinsic:
            raise NoSolutionBelowIntrinsic(k, _exp_quiet(lp), -k)
        log_tv = lp + float(np.log(-np.expm1(ln_intrinsic - lp)))
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
        out[atm] = [_atm_result(price_atm, t).sigma for price_atm in p[atm].tolist()]

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
        out[atm] = [_atm_result(_exp_quiet(lp_atm), t).sigma for lp_atm in lp[atm].tolist()]

    itm = k < 0.0
    log_tv = np.where(atm, 0.0, lp)
    if np.any(itm):
        ln_intr = np.where(itm, np.log(np.abs(np.where(itm, k, 1.0))), 0.0)
        no_sol = itm & (lp <= ln_intr)
        if np.any(no_sol):
            bad = int(np.argmax(no_sol))
            kb = float(k.flat[bad])
            lpb = float(lp.flat[bad])
            raise NoSolutionBelowIntrinsic(kb, _exp_quiet(lpb), -kb)
        lp_itm = lp[itm]  # folding the rest could overflow expm1 and warn
        log_tv[itm] = lp_itm + np.log(-np.expm1(ln_intr[itm] - lp_itm))

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
