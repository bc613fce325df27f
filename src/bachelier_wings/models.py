"""Return-distribution models: density, signed log tail, characteristic
function, moment generating function, and the analyticity strip of each.

Three families are provided.  The Gaussian has an infinite strip and is
the flat-smile oracle.  The asymmetric Laplace has fully closed-form
tails and a simple-pole strip boundary, making it an exact oracle for
wing asymptotics.  The Normal Inverse Gaussian has a finite strip with a
branch-point boundary and no closed-form cdf; its tails are computed
here numerically (a fixed double-exponential rule on each half-line,
~1e-12 relative, usable in log space down to ln F ~ -1e4).

Every model is centered to zero mean by default so that call - put = -kappa.
Each family writes one signed tail, log_tail(x, sign) = ln P(sign X > sign x):
the survival function for sign +1, the cdf for -1, decaying at strip.rate(sign).
All evaluation functions accept scalars or ndarrays; scalars in, float out.
The constructors read their parameters by errors._real: text, non-reals, inf
and NaN raise DomainError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.special as sc

from .errors import ConvergenceFailure, DomainError, ModelConfigError, _real

__all__ = [
    "AnalyticityStrip",
    "ModelSpec",
    "gaussian_model",
    "asym_laplace_model",
    "nig_model",
    "parse_model_config",
    "mgf_blowup_boundary",
]

# =============================================================================
# types
# =============================================================================

@dataclass(frozen=True, slots=True)
class AnalyticityStrip:
    """Maximal strip Im(xi) in (-lambda_minus, lambda_plus) of CF analyticity.

    lambda_minus governs the right tail's exponential decay rate and
    lambda_plus the left's; either may be math.inf (Gaussian).
    """

    lambda_minus: float
    lambda_plus: float

    def __post_init__(self) -> None:
        if not (self.lambda_minus > 0.0) or not (self.lambda_plus > 0.0):
            raise DomainError("strip boundaries must be > 0")

    def rate(self, sign: float) -> float:
        """The tail decay rate on sign's side: lambda_minus for sign > 0 (right), else lambda_plus."""
        return self.lambda_minus if sign > 0.0 else self.lambda_plus


def _side_sign(side: str) -> float:
    """+1.0 for the 'right' wing, -1.0 for the 'left': every side name is read here."""
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    return 1.0 if side == "right" else -1.0


@dataclass(frozen=True)
class ModelSpec:
    """A centered return distribution with every handle the analysis needs.

    log_tail(x, sign) = ln P(sign X > sign x), ln sf for sign +1 and ln cdf for
    -1; the log forms stay finite far past the double underflow floor.
    char_fn accepts complex xi strictly inside the strip; mgf(s) =
    char_fn(-i s) for s in (-lambda_plus, lambda_minus), both raising
    DomainError if any argument is outside (an mgf past the double range
    is inf, without a warning).  scale is the standard deviation, used to
    size wing grids.  Pricing reads log_pdf; char_fn feeds only the
    Fourier cross-check.  The strip's boundaries are > 0, so both
    exponential moments the tail engine needs exist.
    """

    name: str
    params: Mapping[str, float]
    log_pdf: Callable = field(repr=False)
    log_tail: Callable = field(repr=False)
    char_fn: Callable = field(repr=False)
    mgf: Callable = field(repr=False)
    strip: AnalyticityStrip = field()
    mean: float = field()
    scale: float = field()
    # abscissas where the density is non-smooth; quadrature splits there
    breakpoints: tuple[float, ...] = ()


def _scalarize(fn):
    """Wrap an array-native fn(x, *args) so a scalar x comes back as a float."""

    def wrapped(x, *args):
        out = fn(np.asarray(x, dtype=float), *args)
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


def _on_strip(char_fn, mgf, strip: AnalyticityStrip) -> dict:
    """ModelSpec's strip, char_fn and mgf (the last two array-native): on a finite
    strip DomainError unless Im(xi) lies in (-lam_minus, lam_plus) and t in
    (-lam_plus, lam_minus); a scalar comes back complex from char_fn, float from mgf."""
    lam_minus, lam_plus = strip.lambda_minus, strip.lambda_plus
    finite = math.isfinite(min(lam_minus, lam_plus))
    outside = f"char_fn argument outside the strip Im(xi) in (-{lam_minus:g}, {lam_plus:g})"
    beyond = f"mgf argument must lie in (-{lam_plus:g}, {lam_minus:g})"

    def checked_char_fn(xi):
        z = np.asarray(xi, dtype=complex)
        if finite and (np.any(z.imag <= -lam_minus) or np.any(z.imag >= lam_plus)):
            raise DomainError(outside)
        out = char_fn(z)
        return complex(out) if np.ndim(xi) == 0 else out

    def checked_mgf(t):
        _require(not finite or ((-lam_plus < t) & (t < lam_minus)).all(), beyond)
        return mgf(t)

    return {"char_fn": checked_char_fn, "mgf": _scalarize(checked_mgf), "strip": strip}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


# =============================================================================
# Gaussian
# =============================================================================

def gaussian_model(sigma: float) -> ModelSpec:
    """Zero-mean Gaussian with standard deviation sigma; infinite strip."""
    s = _real(sigma, "sigma")
    _require(s > 0.0, "sigma must be a positive finite real")

    inv = 1.0 / s
    log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(s)

    def log_pdf(x):
        z = x * inv
        return log_norm - 0.5 * z * z

    def char_fn(xi):
        return np.exp(-0.5 * s * s * xi * xi)

    def mgf(t):
        _require(np.isfinite(t).all(), "mgf argument must be finite")
        with np.errstate(over="ignore"):
            return np.exp(0.5 * s * s * t * t)

    return ModelSpec(
        name="gaussian",
        params={"sigma": s},
        log_pdf=_scalarize(log_pdf),
        log_tail=_scalarize(lambda x, sign: sc.log_ndtr(-sign * x * inv)),
        **_on_strip(char_fn, mgf, AnalyticityStrip(math.inf, math.inf)),
        mean=0.0,
        scale=s,
    )


# =============================================================================
# Asymmetric Laplace
# =============================================================================

def asym_laplace_model(lambda_r: float, lambda_l: float) -> ModelSpec:
    """Two-sided exponential with right rate lambda_r, left rate lambda_l.

    Density before centering: C e^{-lambda_r x} for x > 0, C e^{lambda_l x}
    for x < 0, C = lambda_r lambda_l / (lambda_r + lambda_l); centered by
    its mean m = 1/lambda_r - 1/lambda_l.  Tails, CF, and MGF are closed
    forms; the CF has simple poles at xi = -i lambda_r and +i lambda_l,
    so the strip is (lambda_r, lambda_l) in (lambda_minus, lambda_plus)
    orientation.
    """
    lr, ll = _real(lambda_r, "lambda_r"), _real(lambda_l, "lambda_l")
    _require(lr > 0.0, "lambda_r must be a positive finite real")
    _require(ll > 0.0, "lambda_l must be a positive finite real")

    m = 1.0 / lr - 1.0 / ll
    total = lr + ll
    strip = AnalyticityStrip(lr, ll)
    log_c = math.log(lr) + math.log(ll) - math.log(total)

    def log_pdf(x):
        z = x + m
        return log_c + np.where(z >= 0.0, -lr * z, ll * z)

    def log_tail(x, sign):
        # past the kink (z >= 0) the far rate's exponential, short of it 1 - the other tail
        z = sign * (x + m)
        far, near = strip.rate(sign), strip.rate(-sign)
        with np.errstate(over="ignore"):
            short = np.log1p(-(far / total) * np.exp(np.minimum(near * z, 0.0)))
        return np.where(z >= 0.0, math.log(near / total) - far * z, short)

    def char_fn(xi):
        return np.exp(-1j * xi * m) * (lr * ll) / ((lr - 1j * xi) * (ll + 1j * xi))

    def mgf(t):
        with np.errstate(over="ignore"):
            return np.exp(-t * m) * lr * ll / ((lr - t) * (ll + t))

    return ModelSpec(
        name="asym_laplace",
        params={"lambda_r": lr, "lambda_l": ll},
        log_pdf=_scalarize(log_pdf),
        log_tail=_scalarize(log_tail),
        **_on_strip(char_fn, mgf, strip),
        mean=0.0,
        scale=math.sqrt(1.0 / (lr * lr) + 1.0 / (ll * ll)),
        breakpoints=(-m,),
    )


# =============================================================================
# Normal Inverse Gaussian
# =============================================================================

# The density's Bessel factor is scipy's k1e(z) = e^z K_1(z), a Chebyshev
# kernel that stays finite and accurate for every double z > 0, so ln f
# needs no large-argument switch however deep the wing.
#
# Double-exponential rule (Takahasi-Mori 1974): a trapezoid of step h in t,
# |t| <= 4.5, after a change of variable that makes the integrand decay
# double-exponentially in t.  Level 0 has h = _DE_STEP and each finer level
# halves h.  NIG's tails take level 0 of the exp-sinh map
# y = M exp((pi/2) sinh t) for int_0^inf f(x +/- y) dy, exact to ~1e-12
# relative for these bell-with-exponential-tail densities when the
# integrand decays monotonically from y = 0, which holds on each half-line
# taken from the mode outward.
_DE_STEP = 0.10
_DE_C = math.pi / 2.0
_DE_T = np.arange(-45, 46) * _DE_STEP
_DE_LOGW = math.log(_DE_STEP * _DE_C) + np.log(np.cosh(_DE_T)) + _DE_C * np.sinh(_DE_T)


def _de_level(level: int):
    """The nodes that halving _DE_STEP `level` times adds, and their log
    weights less ln h: row 0 for tanh-sinh onto [0, 1], row 1 for
    exp-sinh onto [0, inf), whose level-0 nodes NIG's tails take."""
    n = 45 << level
    t = _DE_T if level == 0 else np.arange(1 - n, n, 2) * (_DE_STEP / (1 << level))
    u = _DE_C * np.sinh(t)
    log_du = np.log(_DE_C * np.cosh(t))
    return (np.stack([1.0 / (1.0 + np.exp(-2.0 * u)), np.exp(u)]),
            np.stack([log_du - math.log(2.0) - 2.0 * np.log(np.cosh(u)), log_du + u]))


# refinement stops at level 7, step _DE_STEP / 128
_DE_LEVELS = tuple(_de_level(level) for level in range(8))


def nig_model(alpha: float, beta: float, delta: float, mu: float | None = None) -> ModelSpec:
    """Normal Inverse Gaussian; finite strip (alpha - beta, alpha + beta).

    mu = None (default) centers the law at zero mean by setting
    mu = -delta*beta/gamma, gamma = sqrt(alpha^2 - beta^2); an explicit
    mu is honored and reflected in the mean field.  The density is the
    closed Bessel form; the log tails are half-line integrals of it under
    the fixed double-exponential rule, split at the mode (found once, on
    the first log_tail call, as the root of the density's slope between mu
    and the mean), and on the near side ln(1 - the other tail).
    """
    a, b, d = _real(alpha, "alpha"), _real(beta, "beta"), _real(delta, "delta")
    _require(a > abs(b), "need alpha > |beta|")
    _require(d > 0.0, "delta must be a positive finite real")
    gamma = math.sqrt(a * a - b * b)
    m = -d * b / gamma if mu is None else _real(mu, "mu")
    mean = m + d * b / gamma
    strip = AnalyticityStrip(a - b, a + b)
    log_front = math.log(a * d / math.pi) + d * gamma

    def log_pdf(x):
        z = x - m
        s = np.hypot(d, z)
        az = a * s
        return log_front + b * z - np.log(s) + np.log(sc.k1e(az)) - az

    def _log_tail_de(x, sign: int):
        # ln int_0^inf f(x + sign*y) dy; valid from the mode outward in sign.
        # A scale below delta, the branch points' height, costs accuracy
        scale = max(1.0 / strip.rate(sign), d)
        y = x[:, None] + sign * scale * _DE_LEVELS[0][0][1][None, :]
        terms = log_pdf(y) + _DE_LOGW[None, :] + math.log(scale)
        peak = terms.max(axis=1)
        return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))

    def dlog_pdf(x):
        z = x - m
        s = math.hypot(d, z)
        return b - z * (2.0 / (s * s) + a * sc.k0e(a * s) / (s * sc.k1e(a * s)))

    # searched on the first log_tail call, the mode's one reader, so that
    # models that are only priced never pay for it
    @functools.cache
    def mode() -> float:
        # the density rises from mu toward the mean (slope b at mu) and falls
        # before reaching it, so the mode is the root of the slope between
        # them; without a sign change (b = 0, or b so small that mu and the
        # mean round together) the mean is the mode to rounding
        if b * dlog_pdf(mean) < 0.0:
            return _brentq(dlog_pdf, min(m, mean), max(m, mean), xtol=1e-14 * d)
        return mean

    def log_tail(x, sign: int):
        # ln P(sign X > sign x): the rule from the mode outward, and on the
        # near side 1 minus the other tail, computed directly below ~1/2
        out = np.empty_like(x)
        split = mode()
        outward = x >= split if sign > 0 else x <= split
        if outward.any():
            out[outward] = _log_tail_de(x[outward], sign)
        inward = ~outward
        if inward.any():
            out[inward] = np.log1p(-np.exp(_log_tail_de(x[inward], -sign)))
        return out

    def char_fn(xi):
        w = b + 1j * xi
        # Re(alpha^2 - w^2) > 0 everywhere inside the strip: principal branch safe
        return np.exp(1j * m * xi + d * (gamma - np.sqrt(a * a - w * w)))

    def mgf(t):
        bt = b + t
        with np.errstate(over="ignore"):  # past the double range, inf as for the Gaussian
            return np.exp(m * t + d * (gamma - np.sqrt(a * a - bt * bt)))

    params = {"alpha": a, "beta": b, "delta": d, "mu": m}
    return ModelSpec(
        name="nig",
        params=params,
        log_pdf=_scalarize(log_pdf),
        log_tail=_scalarize(log_tail),
        **_on_strip(char_fn, mgf, strip),
        mean=mean,
        scale=math.sqrt(d * a * a / gamma**3),
    )


# =============================================================================
# configuration parsing
# =============================================================================

# name -> (constructor, its (parameter, required) schema)
_MODELS = {
    "gaussian": (gaussian_model, (("sigma", True),)),
    "asym_laplace": (asym_laplace_model, (("lambda_r", True), ("lambda_l", True))),
    "nig": (nig_model, (("alpha", True), ("beta", True), ("delta", True), ("mu", False))),
}


def model_schemas() -> dict[str, tuple[tuple[str, bool], ...]]:
    """Known model names mapped to their (parameter, required) schema."""
    return {name: schema for name, (_, schema) in _MODELS.items()}


def parse_model_config(config: object) -> ModelSpec:
    """Build a ModelSpec from a parsed configuration document.

    Expected shape: {"model": <name>, "params": {...}}.  Every violation
    raises ModelConfigError naming the offending field and the reason.
    """
    if not isinstance(config, Mapping):
        raise ModelConfigError("<root>", "expected a JSON object")
    unknown = set(config) - {"model", "params"}
    if unknown:
        raise ModelConfigError(sorted(unknown)[0], "unexpected field")
    if "model" not in config:
        raise ModelConfigError("model", "required")
    name = config["model"]
    if not isinstance(name, str) or name not in _MODELS:
        raise ModelConfigError("model", f"unknown model {name!r}; expected one of {', '.join(_MODELS)}")
    if "params" not in config:
        raise ModelConfigError("params", "required")
    params = config["params"]
    if not isinstance(params, Mapping):
        raise ModelConfigError("params", "expected an object of named reals")

    constructor, schema = _MODELS[name]
    allowed = {p for p, _ in schema}
    for key in params:
        if key not in allowed:
            raise ModelConfigError(f"params.{key}", "unexpected parameter")
    kwargs: dict[str, float] = {}
    for key, required in schema:
        if key not in params:
            if required:
                raise ModelConfigError(f"params.{key}", "required")
            continue
        value = params[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ModelConfigError(f"params.{key}", f"expected a number, got {value!r}")
        if not math.isfinite(float(value)):
            raise ModelConfigError(f"params.{key}", "must be finite")
        kwargs[key] = float(value)
    return constructor(**kwargs)


# =============================================================================
# strip boundary probe
# =============================================================================

def mgf_blowup_boundary(model: ModelSpec, side: str) -> float:
    """Numerically locate where E[e^{s zeta}] stops converging.

    M(s) = int e^{s x} f(x) dx diverges exactly when s exceeds the decay
    rate of the requested tail, so the boundary is the threshold value of
    s at which the integrand ln f(x) + s|x| changes sign of slope far
    out: the slope of ln f(sign x), sign = _side_sign(side), by least squares
    on a 33-point geometric grid in [2000, 8000], which algebraic prefactors
    of the density bias by O(ln(x)/8000), well under 1e-3.  Returns math.inf
    where the strip's rate on that side, strip.rate(sign), is infinite.
    """
    sign = _side_sign(side)
    if math.isinf(model.strip.rate(sign)):
        return math.inf
    x = _geometric_grid(2000.0, 8000.0, 33)
    slope, _, _ = _line_fit(x, model.log_pdf(sign * x))
    return -slope


# golden pins fix _geometric_grid's bits (rv, probe, blow-up grids): it cannot become _geomspace
def _geometric_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) to rounding, without its overhead."""
    return lo * (hi / lo) ** (np.arange(n) / (n - 1))


def _geomspace(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) bit for bit, for lo and hi of one sign, without
    its overhead: numpy's logspace of the two log10s, ends set to lo and hi."""
    if n < 2:
        return np.full(n, float(lo))
    sign = -1.0 if lo < 0.0 else 1.0
    start, stop = lo * sign, hi * sign
    log_start = np.log10(start)
    y = np.arange(n, dtype=float)
    y *= (np.log10(stop) - log_start) / (n - 1)
    y += log_start
    out = np.power(10.0, y)
    out[0], out[-1] = start, stop
    out *= sign
    return out


def _line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through 1-d (x, y) on centred sums: slope, intercept
    and r^2 = 1 - residual/total sum of squares (0 for a constant y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # .sum() and @ without their wrappers, and the scalar steps on Python floats: the same bits
    x_mean, y_mean = float(np.add.reduce(x)) / x.size, float(np.add.reduce(y)) / y.size
    dx, dy = x - x_mean, y - y_mean
    slope = float(dx.dot(dy) / dx.dot(dx))
    res = dy - slope * dx
    ss_tot = float(dy.dot(dy))
    r2 = 1.0 - float(res.dot(res)) / ss_tot if ss_tot > 0.0 else 0.0
    return slope, y_mean - slope * x_mean, r2


def _brentq(f: Callable[[float], float], a: float, b: float, xtol: float) -> float:
    """A root of f between a and b, where f changes sign, by Brent's method.

    scipy.optimize.brentq's algorithm (its C source, Zeros/brentq.c) step
    for step, at its defaults rtol = 4 eps and maxiter = 100, so it returns
    the same double without loading scipy.optimize at import.  Each f value
    is taken as a Python float: the loop never runs on numpy scalars.
    """
    rtol = 4.0 * 2.0 ** -52
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre) or math.isnan(fcur) or (fpre < 0.0) == (fcur < 0.0):
        raise DomainError(f"f({a!r}) and f({b!r}) must be numbers of different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or nan, which the test below refuses
                stry = math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise DomainError(f"f({xcur!r}) is nan")
    raise ConvergenceFailure("Brent's method did not converge in 100 iterations",
                             bracket=(min(xcur, xblk), max(xcur, xblk)))
