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

Two kernels run these steps.  The array loop _solve_otm_log_array solves
a whole batch per numpy call; its float twin _solve_otm_log_scalar solves
one quote on Python floats, without numpy's per-call cost, calling numpy
only for exp, log and logaddexp and scipy for erfcx.  Their fields agree
bit for bit.  A scalar entry point runs the twin.  The _vec entry points
and pricing.smile_from_model call _solve_otm_log, which runs the array
loop on a batch of _MIN_ARRAY_BATCH quotes or more and the twin on each
quote of a smaller one, where the per-call cost of the array loop's
numpy calls outweighs the twin's per-quote cost.  The array loop is the
reference: tests/test_inversion.py pins the twin and the dispatch to it
field for field, and a change to one kernel must be made to both.
"""

from __future__ import annotations

import math
import sys
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
# ln of the largest double: e^x is inf past it
_LN_DBL_MAX = math.log(sys.float_info.max)
# Below this ln tv no solve starts on sigma = inf (_check_sigma_in_range): the
# floor tv sqrt(2 pi) overflows past ln tv 708.86, and where the seed is the top,
# kappa <= tv sqrt(2 pi) e^_SEED_WING_RHS keeps that top under 31 times the floor
_LOG_TV_NEAR_MAX = 705.0


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
_SOLVED_DTYPES = (float, np.int64, bool, bool, float, bool, bool, float, float)

# A batch of fewer quotes than this is solved quote by quote in the float twin:
# the largest size in benchmarks/layers.py's L1_crossover_us rows at which the
# twin beats the array loop (it loses at 32).  Where every quote of a batch
# solves within three evaluations, as on a wing report's smile, the array loop
# makes one pass fewer and the crossover falls toward 16
_MIN_ARRAY_BATCH = 16


def _solve_otm_log(
    k: NDArray[np.float64],
    log_tv: NDArray[np.float64],
    tol: float,
) -> _Solved:
    """Core solver; k > 0 elementwise, target ln(time value) = log_tv, both of one shape.

    Never raises: each element's failure shows in the converged and
    unattainable masks, so a batch keeps its good elements.  Callers that
    must fail on the first bad element pass the result to _raise_first_failure.
    A batch of fewer than _MIN_ARRAY_BATCH quotes runs the float twin on each
    quote, a larger one the array loop; the fields are the same either way.
    """
    if k.size < _MIN_ARRAY_BATCH:
        return _solve_otm_log_floats(k, log_tv, tol)
    return _solve_otm_log_array(k, log_tv, tol)


def _solve_otm_log_floats(
    k: NDArray[np.float64],
    log_tv: NDArray[np.float64],
    tol: float,
) -> _Solved:
    """_solve_otm_log_array's result, from the float twin run on each quote."""
    quotes = zip(k.ravel().tolist(), log_tv.ravel().tolist())
    rows = [_solve_otm_log_scalar(k_i, log_tv_i, tol) for k_i, log_tv_i in quotes]
    columns = zip(*rows) if rows else [()] * len(_Solved._fields)
    return _Solved(*(np.array(col, dtype=dtype).reshape(k.shape)
                     for col, dtype in zip(columns, _SOLVED_DTYPES)))


def _solve_otm_log_array(
    k: NDArray[np.float64],
    log_tv: NDArray[np.float64],
    tol: float,
) -> _Solved:
    """The array loop of _solve_otm_log, for any batch size: the reference."""
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
    some_converged = False  # until then every element is active and no mask is needed

    for it in range(MAX_ITERATIONS):
        sigma = np.exp(x)
        d = k / sigma
        dd = d * d
        h = _scaled_time_value(k, sigma, d)
        g1 = sigma / (SQRT_2PI * h)
        # (-0.5 d) d, not -0.5 dd: the two round apart where d*d is subnormal
        g_new = -0.5 * d * d + np.log(h) - log_tv
        # the noise floor, achievable |g|: the log-price evaluation itself carries
        # ~d^2 eps, and the rounding of x = ln sigma ~|x| eps moves g by g' times that
        noise_new = np.maximum(8.0 * _EPS * np.maximum(1.0, dd), g1 * np.abs(x) * _EPS)
        # the iterate lies in its bracket, so the bracket's new end is x itself
        if some_converged:
            active = ~converged
            g = np.where(active, g_new, g)
            noise = np.where(active, noise_new, noise)
            iterations += active
            below = g < 0.0
            x_lo = np.where(active & below, x, x_lo)
            x_hi = np.where(active & ~below, x, x_hi)
            converged = converged | (active & (np.abs(g) <= np.maximum(base_tol, noise)))
        else:
            g, noise = g_new, noise_new
            iterations += 1
            below = g < 0.0
            x_lo = np.where(below, x, x_lo)
            x_hi = np.where(below, x_hi, x)
            converged = np.abs(g) <= np.maximum(base_tol, noise)

        # Halley: -(g/g') / (1 - g g'' / (2 g'^2)); an element that has just
        # converged takes its step too, unevaluated.  Between the bracket's
        # ends means finite too: no infinity lies strictly inside it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_halley = x - (g / g1) / (1.0 - 0.5 * g * (1.0 + dd - g1) / g1)
        inside = (x_halley > x_lo) & (x_halley < x_hi)
        bisect = ~(converged | inside)
        bisected |= bisect
        step = np.where(bisect, 0.5 * (x_lo + x_hi), x)
        x, x_prev = np.where(active & inside if some_converged else inside, x_halley, step), x
        if converged.all():
            break
        # past the two to four evaluations most quotes take, end an element whose
        # x repeats (a collapsed bracket, a step below one ulp): it would forever
        if it >= 3:
            converged |= x == x_prev
        some_converged = some_converged or converged.any()

    # honest failure when the caller asked for less than doubles can deliver
    unattainable = (ratio_tol <= LOG_RESIDUAL_DEEP) & (ratio_tol < noise) & (np.abs(g) > ratio_tol)
    if it >= 3:  # a repeat may have ended an element: it stays converged only where unattainable
        converged &= (np.abs(g) <= np.maximum(base_tol, noise)) | unattainable
    return _Solved(x, iterations, bisected, deep, g, converged, unattainable, x_lo, x_hi)


def _solve_otm_log_scalar(k: float, log_tv: float, tol: float) -> _Solved:
    """The float twin of _solve_otm_log_array: one quote, each field a float, int or bool.

    The same seed, bracket, Halley step, noise floor, repeat stop and
    unattainable rule in the same order of operations on Python floats,
    with numpy's exp, log and logaddexp and scipy's erfcx (math.exp can
    differ from them in the last bit), so every field equals the array
    loop's bit for bit.  Where the array loop divides by zero and gets inf
    or nan, a float division would raise: sigma = 0 gives d = inf, h = 0
    gives g' = inf (nan at sigma = 0), and a zero g' or Halley denominator
    counts as a non-finite step.
    """
    ln_k = float(np.log(k))
    x_lo = log_tv + LN_SQRT_2PI
    x_hi = float(np.logaddexp(log_tv, ln_k - _LN2)) + LN_SQRT_2PI
    rhs = ln_k - LN_SQRT_2PI - log_tv
    if rhs > _SEED_WING_RHS:
        d2 = 2.0 * rhs
        for _ in range(2):
            d2 = rhs - 1.5 * float(np.log(d2))
            d2 = 2.0 * (d2 if d2 > 1.5 else 1.5)
        x = ln_k - 0.5 * float(np.log(d2))
    else:
        x = x_hi
    x = x if x > x_lo else x_lo  # np.clip
    x = x if x < x_hi else x_hi

    ratio_tol = tol * _exp_quiet(-log_tv)
    deep = ratio_tol > LOG_RESIDUAL_DEEP
    base_tol = LOG_RESIDUAL_DEEP if LOG_RESIDUAL_DEEP < ratio_tol else ratio_tol

    iterations = 0
    bisected = converged = False
    for it in range(MAX_ITERATIONS):
        sigma = float(np.exp(x))
        d = k / sigma if sigma else math.inf
        dd = d * d
        h = _scaled_time_value(k, sigma, d)
        sh = SQRT_2PI * h
        g1 = sigma / sh if sh else (math.inf if sigma else math.nan)
        g = -0.5 * d * d + float(np.log(h)) - log_tv
        noise = 8.0 * _EPS * (dd if dd > 1.0 else 1.0)
        floor = g1 * abs(x) * _EPS
        if not noise >= floor:  # np.maximum: a nan floor wins
            noise = floor
        tol_g = base_tol if base_tol >= noise else noise  # np.maximum again
        iterations += 1

        if g < 0.0:  # x lies in its bracket, as in the array loop
            x_lo = x
        else:
            x_hi = x

        converged = abs(g) <= tol_g

        # no infinity lies strictly inside the bracket: a non-finite step never is
        den = 1.0 - 0.5 * g * (1.0 + dd - g1) / g1 if g1 else 0.0
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
        converged = converged and (abs(g) <= tol_g or unattainable)
    return _Solved(x, iterations, bisected, deep, g, converged, unattainable, x_lo, x_hi)


def _check_sigma_in_range(k: NDArray[np.float64], log_tv: NDArray[np.float64]) -> None:
    """DomainError for the first quote whose solve would start on sigma = inf:
    its bracket floor tv sqrt(2 pi) is past the double range, so sigma is too,
    or its top (tv + kappa/2) sqrt(2 pi) is and the seed is that top.  k and
    log_tv are the core's arguments; one comparison passes an empty batch or
    one below _LOG_TV_NEAR_MAX."""
    if not log_tv.size or log_tv.max() <= _LOG_TV_NEAR_MAX:
        return
    ln_k = np.log(k)
    x_hi = np.logaddexp(log_tv, ln_k - _LN2) + LN_SQRT_2PI  # as _solve_otm_log
    seed_at_top = ln_k - LN_SQRT_2PI - log_tv <= _SEED_WING_RHS
    over = (log_tv + LN_SQRT_2PI > _LN_DBL_MAX) | (seed_at_top & (x_hi > _LN_DBL_MAX))
    if over.any():
        idx = int(np.argmax(over))
        raise DomainError(
            f"sigma's bracket (tv, tv + kappa/2) sqrt(2 pi) is past the double range "
            f"at kappa={float(k.flat[idx])!r}, ln tv={float(log_tv.flat[idx])!r}"
        )


def _raise_first_failure(solved: _Solved, log_tv: NDArray[np.float64], tol: float) -> None:
    """Raise for the first unconverged element, else the first unattainable one."""
    if not solved.converged.all():
        idx = int(np.argmax(~solved.converged))
        n = int(solved.iterations.flat[idx])
        reason = (f"in {n} evaluations" if n >= MAX_ITERATIONS
                  else f"when its iterate repeated after {n} evaluations")
        raise ConvergenceFailure(
            f"implied vol did not converge {reason}",
            bracket=(float(np.exp(solved.x_lo.flat[idx])), float(np.exp(solved.x_hi.flat[idx]))),
        )
    if solved.unattainable.any():
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
    if log_tv > _LOG_TV_NEAR_MAX:
        _check_sigma_in_range(np.array([k]), np.array([log_tv]))
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
    NoSolutionBelowIntrinsic.  A quote whose solve would start on sigma
    past the double range raises DomainError: the floor tv sqrt(2 pi) is
    past it, or the top (tv + |kappa|/2) sqrt(2 pi) is and the seed sits
    there (_check_sigma_in_range).  tol is an absolute price-space residual;
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
    if not (np.isfinite(k).all() and np.isfinite(p).all()):
        raise DomainError("kappa and price must be finite")
    if k.shape != p.shape:
        k, p = np.broadcast_arrays(k, p)
    out, solve = _atm_closed_forms(k, p, t)
    if solve is not None:
        k, p = k[solve], p[solve]
    tv = p - np.maximum(-k, 0.0)
    below = tv <= 0.0
    if below.any():
        bad = int(np.argmax(below))
        kb = float(k.flat[bad])
        raise NoSolutionBelowIntrinsic(kb, float(p.flat[bad]), max(-kb, 0.0))
    return _solved_sigma(np.abs(k), np.log(tv), t, out, solve)


def _atm_closed_forms(k: NDArray[np.float64], quote: NDArray[np.float64], tol: float,
                      price_of=float):
    """The vec entry points' output array with each at-the-money element solved
    in closed form from its price price_of(quote), and the mask of the other
    elements, None when no element is at the money."""
    out = np.empty(k.shape)
    atm = k == 0.0
    if not atm.any():
        return out, None
    out[atm] = [_atm_result(price_of(q), tol).sigma for q in quote[atm].tolist()]
    return out, ~atm


def _solved_sigma(k_otm, log_tv, tol: float, out, solve) -> NDArray[np.float64]:
    """The vec entry points' solve of their out-of-the-money time values: sigma
    for each, written into out, at the mask solve unless it is None."""
    _check_sigma_in_range(k_otm, log_tv)
    solved = _solve_otm_log(k_otm, log_tv, tol)
    _raise_first_failure(solved, log_tv, tol)
    if solve is None:
        return np.exp(solved.x, out=out)
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
    if not np.isfinite(k).all():
        raise DomainError("kappa must be finite")
    if not (lp < np.inf).all():
        raise DomainError("log_price entries must be real or -inf")
    if k.shape != lp.shape:
        k, lp = np.broadcast_arrays(k, lp)
    out, solve = _atm_closed_forms(k, lp, t, _exp_quiet)
    if solve is not None:
        k, lp = k[solve], lp[solve]

    log_tv = lp
    itm = k < 0.0
    if itm.any():
        k_itm, lp_itm = k[itm], lp[itm]  # folding the rest could overflow expm1 and warn
        ln_intr = np.log(-k_itm)
        no_sol = lp_itm <= ln_intr
        if no_sol.any():
            bad = int(np.argmax(no_sol))
            kb = float(k_itm[bad])
            raise NoSolutionBelowIntrinsic(kb, _exp_quiet(float(lp_itm[bad])), -kb)
        log_tv = lp.copy()
        log_tv[itm] = lp_itm + np.log(-np.expm1(ln_intr - lp_itm))
    underflow = lp == -np.inf
    if underflow.any():
        kb = float(k.flat[int(np.argmax(underflow))])
        raise NoSolutionBelowIntrinsic(kb, 0.0, max(-kb, 0.0))
    return _solved_sigma(np.abs(k), log_tv, t, out, solve)


def implied_vol_put_log_vec(kappa, log_price, tol: float = 1e-12) -> NDArray[np.float64]:
    """Bulk put inversion from ln(price); the reflected call batch."""
    return implied_vol_call_log_vec(np.negative(np.asarray(kappa, dtype=float)), log_price, tol)
