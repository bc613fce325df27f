"""Pricing engines for model-implied option values.

Two independent routes to the same number.  The tail route integrates
the distribution tails directly: call = int_kappa^inf complement_cdf,
put = int_-inf^kappa cdf, truncated where the exponential-moment bound
puts the remaining mass below the configured guard.  The Fourier route
damps the payoff by e^(alpha kappa) and integrates the characteristic
function along a shifted contour.  Keeping both honest and comparing
them is the point; neither is ever defined in terms of the other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from .errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DampingOutsideStrip,
    DomainError,
    UnsupportedModel,
)
from .inversion import implied_vol_call, implied_vol_put
from .models import _DE_LOGW, _DE_Y, ModelSpec
from .smile import STATUS_FAILED, STATUS_OK, SmileGrid, SmilePoint

__all__ = [
    "QuadratureSettings",
    "PriceQuote",
    "DEFAULT_SETTINGS",
    "price_from_tail",
    "price_from_cf",
    "log_call_price_from_tail",
    "log_put_price_from_tail",
    "smile_from_model",
]


# =============================================================================
# settings and quotes
# =============================================================================

@dataclass(frozen=True, slots=True)
class QuadratureSettings:
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    truncation_guard: float = 1e-14

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "truncation_guard"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
        if self.max_subdivisions < 16:
            raise DomainError("max_subdivisions must be at least 16")


DEFAULT_SETTINGS = QuadratureSettings()


@dataclass(frozen=True, slots=True)
class PriceQuote:
    """Call and put at one moneyness, with the engine's own error bound.

    call - put + kappa = 0 holds within 10x abs_error_estimate for the
    zero-mean models; method records which engine produced the quote.
    """

    kappa: float
    call: float
    put: float
    method: str
    abs_error_estimate: float


def _quad(fn, lo, hi, settings: QuadratureSettings, breakpoints=()):
    pts = [b for b in breakpoints if lo < b < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            fn, lo, hi,
            epsabs=settings.abs_tol, epsrel=settings.rel_tol,
            limit=settings.max_subdivisions,
            points=pts or None,
        )
    if err > 10.0 * max(settings.abs_tol, settings.rel_tol * abs(val)):
        raise AccuracyNotReached(
            f"tail quadrature error {err:.3e} exceeds tolerance", achieved=err
        )
    return val, err


# =============================================================================
# tail-integral engine
# =============================================================================

def _decay_rate(model: ModelSpec, side: str, guard: float) -> float:
    """Exponent used in the truncation bound tail(x) <= M(eps) e^(-eps x)."""
    lam = model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    if math.isfinite(lam):
        return 0.5 * lam
    # infinite strip: balance M(eps) growth against the e^(-eps T) cut
    return math.sqrt(2.0 * math.log(1.0 / guard)) / model.scale


def price_from_tail(
    model: ModelSpec, kappa: float, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> PriceQuote:
    """Price both sides by integrating the distribution tails.

    The call integrates complement_cdf from kappa up to the point where
    the exponential-moment bound caps the discarded mass at the
    truncation guard; the put mirrors this on the left.  The two sides
    are computed independently, so their parity residual is a genuine
    quality signal, not an identity.
    """
    k = float(kappa)
    if not math.isfinite(k):
        raise DomainError("kappa must be finite")
    if not model.satisfies_ir:
        raise UnsupportedModel(f"model {model.name!r} lacks a right exponential moment")
    if not model.satisfies_il:
        raise UnsupportedModel(f"model {model.name!r} lacks a left exponential moment")
    guard = settings.truncation_guard

    eps_r = _decay_rate(model, "right", guard)
    hi = max(k, model.mean) + (math.log(model.mgf(eps_r)) - math.log(guard)) / eps_r
    call, err_call = _quad(model.complement_cdf, k, hi, settings, model.breakpoints)
    trunc_call = guard / eps_r * math.exp(-eps_r * max(k - model.mean, 0.0))

    eps_l = _decay_rate(model, "left", guard)
    lo = min(k, model.mean) - (math.log(model.mgf(-eps_l)) - math.log(guard)) / eps_l
    put, err_put = _quad(model.cdf, lo, k, settings, model.breakpoints)
    trunc_put = guard / eps_l * math.exp(-eps_l * max(model.mean - k, 0.0))

    # the integrand itself is only as good as the model's tail evaluator
    eval_err = model.tail_accuracy * max(abs(call), abs(put))
    return PriceQuote(
        kappa=k,
        call=call,
        put=put,
        method="tail_integral",
        abs_error_estimate=max(err_call + trunc_call, err_put + trunc_put) + eval_err,
    )


def log_call_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the call price, usable far past double underflow.

    Same tail representation, evaluated as a log-space sum over a fixed
    double-exponential rule whose length scale matches the tail's local
    decay rate.  Valid for kappa at or right of the mean.
    """
    k = float(kappa)
    if not (math.isfinite(k) and k >= model.mean):
        raise DomainError("log-space call pricing needs kappa >= model mean")
    return _log_tail_price(model.log_complement_cdf, k, +1.0,
                           _local_rate(model, "right", k))


def log_put_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the put price for kappa at or left of the mean."""
    k = float(kappa)
    if not (math.isfinite(k) and k <= model.mean):
        raise DomainError("log-space put pricing needs kappa <= model mean")
    return _log_tail_price(model.log_cdf, k, -1.0, _local_rate(model, "left", k))


def _local_rate(model: ModelSpec, side: str, k: float) -> float:
    lam = model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    if math.isfinite(lam):
        return lam
    # squared-exponential tails: hazard rate grows linearly with depth
    return max(abs(k - model.mean) / model.scale**2, 1.0 / model.scale)


def _log_tail_price(log_tail, k: float, sign: float, rate: float) -> float:
    width = 1.0 / rate
    nodes = k + sign * width * _DE_Y
    return float(logsumexp(np.asarray(log_tail(nodes)) + _DE_LOGW)) + math.log(width)


# =============================================================================
# damped Fourier engine
# =============================================================================

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al. 1983): Kronrod nodes and weights
# and the 7-point Gauss weights (on odd-indexed nodes), halves from -1 to the centre
_GK_X = np.array([-0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
                  -0.5860872354676911, -0.4058451513773972, -0.20778495500789848, 0.0])
_GK_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
                   0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782])
_GK_WG = np.array([0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
                   0.0, 0.3818300505051189, 0.0, 0.4179591836734694])
_GK_X = np.concatenate([_GK_X, -_GK_X[-2::-1]])
_GK_WK = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_WG = np.concatenate([_GK_WG, _GK_WG[-2::-1]])

# qk15's roundoff floor on a panel's error is 50 eps int |f|.  Panel
# evaluations are budgeted per unit of settings.max_subdivisions, and
# one char_fn call takes at most 256 panels' nodes, bounding its arrays
_ROUNDOFF_FLOOR = 50.0 * np.finfo(float).eps
_PANELS_PER_SUBDIVISION = 64
_MAX_NODES_PER_CALL = 256 * _GK_X.size

# a transform above the guard past this cutoff decays algebraically; with more
# phase than this head it goes to the semi-infinite cycle rule after a plain head
_QAWF_CUTOFF_MIN = 5000.0
_QAWF_HEAD_PHASE = 50.0


def _validate_alpha(model: ModelSpec, alpha: float) -> None:
    lam_minus = model.strip.lambda_minus
    lam_plus = model.strip.lambda_plus
    if alpha > 0.0:
        if math.isfinite(lam_minus) and not (alpha < lam_minus):
            raise DampingOutsideStrip(
                f"call damping needs 0 < alpha < {lam_minus:g}, got {alpha:g}"
            )
    elif alpha < 0.0:
        if math.isfinite(lam_plus) and not (-alpha < lam_plus):
            raise DampingOutsideStrip(
                f"put damping needs -{lam_plus:g} < alpha < 0, got {alpha:g}"
            )
    else:
        raise DampingOutsideStrip("alpha = 0 is outside both damping windows")


def _find_cutoff(model: ModelSpec, alpha: float, guard: float) -> float:
    # walk out until the integrand envelope |phi(u - i alpha)|/(alpha^2+u^2),
    # times the remaining length proxy u, drops below the guard
    u = max(1.0, 4.0 / model.scale)
    while u < 1.0e9:
        env = abs(model.char_fn(complex(u, -alpha))) / (alpha * alpha + u * u)
        if env * u < guard:
            return u
        u *= 2.0
    raise AccuracyNotReached(
        "characteristic function decays too slowly to truncate", achieved=math.inf
    )


def _adaptive_gk15(integrand, cutoff: float, k: float, settings: QuadratureSettings):
    """Globally adaptive G7/K15 on [0, cutoff] for a phase e^(-iu kappa).

    Starts from equal panels at most half a period wide; each round
    evaluates every open panel's nodes in a few array calls and bisects
    those whose |K - G| exceeds both their length's share of the
    tolerance and the roundoff floor.  Returns the integral and the sum
    of max(|K - G|, floor) over panels.
    """
    n = max(8, math.ceil(abs(k) * cutoff / math.pi))
    edges = np.linspace(0.0, cutoff, n + 1)
    lo, hi = edges[:-1], edges[1:]
    budget = _PANELS_PER_SUBDIVISION * settings.max_subdivisions
    value = err = 0.0
    while lo.size:
        budget -= lo.size
        if budget < 0:
            raise AccuracyNotReached("transform quadrature ran out of panels",
                                     achieved=math.inf)
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, None] + half[:, None] * _GK_X
        chunks = np.split(u.ravel(), range(_MAX_NODES_PER_CALL, u.size, _MAX_NODES_PER_CALL))
        f = np.concatenate([integrand(c) for c in chunks]).reshape(u.shape)
        kron = half * (f @ _GK_WK)
        diff = np.abs(kron - half * (f @ _GK_WG))
        floor = _ROUNDOFF_FLOOR * half * (np.abs(f) @ _GK_WK)
        tol = max(settings.abs_tol, settings.rel_tol * abs(value + kron.sum()))
        # NaN compares False: a NaN panel closes and fails the finiteness check
        open_ = (diff > tol * (hi - lo) / cutoff) & (diff > floor)
        value += kron[~open_].sum()
        err += np.maximum(diff, floor)[~open_].sum()
        mid = (lo + half)[open_]
        lo, hi = np.concatenate([lo[open_], mid]), np.concatenate([mid, hi[open_]])
    return float(value), float(err)


def price_from_cf(
    model: ModelSpec,
    kappa: float,
    alpha: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> PriceQuote:
    """Price through the damped transform of the characteristic function.

    value = e^(-alpha kappa)/pi * int_0^U Re[e^(-iu kappa) phi(u - i alpha)
    / (alpha + iu)^2] du; positive alpha prices the call directly and the
    put follows by parity, negative alpha the reverse.  The u > 0 half
    suffices because the integrand is Hermitian in u.  A vectorized
    adaptive G7/K15 rule integrates it unless the transform decays so
    slowly (U > 5000) that it needs scipy's semi-infinite Fourier rule.
    """
    k = float(kappa)
    a = float(alpha)
    if not math.isfinite(k) or not math.isfinite(a):
        raise DomainError("kappa and alpha must be finite")
    _validate_alpha(model, a)
    guard = settings.truncation_guard
    cutoff = _find_cutoff(model, a, guard)

    def transformed(u):
        denom = a + 1j * u
        return model.char_fn(u - 1j * a) / (denom * denom)

    if cutoff <= _QAWF_CUTOFF_MIN or abs(k) * cutoff <= _QAWF_HEAD_PHASE:
        osc, err = _adaptive_gk15(
            lambda u: (transformed(u) * np.exp(-1j * k * u)).real, cutoff, k, settings
        )
        trunc = guard
    else:
        # algebraic decay stretching out for thousands of periods:
        # plain rule through the near-origin peak, then the
        # semi-infinite Fourier rule with cycle-wise extrapolation
        split = _QAWF_HEAD_PHASE / abs(k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            head, err_head = integrate.quad(
                lambda u: (transformed(u) * complex(math.cos(u * k), -math.sin(u * k))).real,
                0.0, split,
                epsabs=settings.abs_tol, epsrel=settings.rel_tol,
                limit=settings.max_subdivisions,
            )
            re, err_re = integrate.quad(
                lambda u: transformed(u).real, split, np.inf,
                weight="cos", wvar=abs(k),
                epsabs=settings.abs_tol,
                limit=settings.max_subdivisions, limlst=settings.max_subdivisions,
            )
            im, err_im = integrate.quad(
                lambda u: transformed(u).imag, split, np.inf,
                weight="sin", wvar=abs(k),
                epsabs=settings.abs_tol,
                limit=settings.max_subdivisions, limlst=settings.max_subdivisions,
            )
        osc = head + re + math.copysign(1.0, k) * im
        err = err_head + err_re + err_im
        trunc = 0.0

    if not math.isfinite(osc):
        raise AccuracyNotReached("oscillatory quadrature did not converge",
                                 achieved=math.inf)
    damp = math.exp(-a * k)
    value = damp * osc / math.pi
    estimate = damp * (err + trunc) / math.pi
    if err > 100.0 * max(settings.abs_tol, settings.rel_tol * abs(osc)):
        raise AccuracyNotReached(
            f"transform quadrature error {err:.3e} exceeds tolerance",
            achieved=damp * err / math.pi,
        )
    if a > 0.0:
        call, put = value, value + k
    else:
        put, call = value, value - k
    return PriceQuote(kappa=k, call=call, put=put, method="fourier",
                      abs_error_estimate=estimate)


# =============================================================================
# smile construction
# =============================================================================

def _default_alpha(model: ModelSpec, kappa: float) -> float:
    """Damping for the out-of-the-money side at this moneyness.

    Mid-strip is safest near the money; deep wings push the contour
    toward the relevant boundary so the undamping factor e^(-alpha kappa)
    tracks the price scale and the oscillatory sum keeps relative
    accuracy.
    """
    if kappa >= 0.0:
        lam = model.strip.lambda_minus
        if not math.isfinite(lam):
            return 1.0 / model.scale
        return 0.5 * lam if kappa <= 8.0 * model.scale else 0.9 * lam
    lam = model.strip.lambda_plus
    if not math.isfinite(lam):
        return -1.0 / model.scale
    return -0.5 * lam if -kappa <= 8.0 * model.scale else -0.9 * lam


def smile_from_model(
    model: ModelSpec,
    grid,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    tol_iv: float = 1e-12,
) -> SmileGrid:
    """Price every moneyness and invert to implied normal volatility.

    Using the tail engine when the model carries closed-form tails and
    the Fourier engine otherwise; each kappa is quoted on its
    out-of-the-money side (call at kappa >= 0, put below), the better
    conditioned one.  A point that fails pricing or inversion is marked
    failed and the rest of the grid proceeds.
    """
    if not (tol_iv > 0.0):
        raise DomainError("tol_iv must be positive")
    kappas = np.unique(np.asarray(list(grid), dtype=float))
    if kappas.size and not np.all(np.isfinite(kappas)):
        raise DomainError("grid must contain finite moneyness values")

    points = []
    for k in kappas:
        k = float(k)
        try:
            if model.has_closed_form_tails:
                quote = price_from_tail(model, k, settings)
            else:
                quote = price_from_cf(model, k, _default_alpha(model, k), settings)
            price = quote.call if k >= 0.0 else quote.put
            if not (price > 0.0):
                raise AccuracyNotReached(
                    f"non-positive out-of-the-money price {price!r} at kappa={k:g}",
                    achieved=math.inf,
                )
            if k >= 0.0:
                ivol = implied_vol_call(k, price, tol=tol_iv).sigma
            else:
                ivol = implied_vol_put(k, price, tol=tol_iv).sigma
            points.append(SmilePoint(k, price, math.log(price), ivol, STATUS_OK))
        except BachelierWingsError:
            points.append(SmilePoint(k, math.nan, math.nan, math.nan, STATUS_FAILED))
    return SmileGrid(points=tuple(points))
