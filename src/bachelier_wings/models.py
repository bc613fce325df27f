"""Return-distribution models: density, both tails, characteristic function,
moment generating function, and the analyticity strip of each.

Three families are provided.  The Gaussian has an infinite strip and is
the flat-smile oracle.  The asymmetric Laplace has fully closed-form
tails and a simple-pole strip boundary, making it an exact oracle for
wing asymptotics.  The Normal Inverse Gaussian has a finite strip with a
branch-point boundary and no closed-form cdf; its tails are computed
here numerically (a fixed double-exponential rule on each half-line,
~1e-12 relative, usable in log space down to ln F ~ -1e4).

Every model is centered to zero mean by default so that call - put = -kappa.
All evaluation functions accept scalars or ndarrays; scalars in, float out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.special as sc
from numpy.typing import NDArray
from scipy.optimize import brentq

from .errors import DomainError, ModelConfigError

__all__ = [
    "AnalyticityStrip",
    "ModelSpec",
    "gaussian_model",
    "asym_laplace_model",
    "nig_model",
    "parse_model_config",
    "mgf_blowup_boundary",
]

MODEL_NAMES = ("gaussian", "asym_laplace", "nig")


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

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lambda_minus) and math.isfinite(self.lambda_plus)


@dataclass(frozen=True)
class ModelSpec:
    """A centered return distribution with every handle the analysis needs.

    cdf/complement_cdf satisfy F + complement = 1 exactly (one side is
    always derived from the other).  log_* variants stay finite far past
    the double underflow floor.  char_fn accepts complex xi strictly
    inside the strip; mgf(s) = char_fn(-i s) for s in (-lambda_plus,
    lambda_minus), both raising DomainError outside.  scale is the
    standard deviation, used to size wing grids.  Pricing reads log_pdf;
    char_fn feeds only the Fourier cross-check.
    """

    name: str
    params: Mapping[str, float]
    pdf: Callable = field(repr=False)
    cdf: Callable = field(repr=False)
    complement_cdf: Callable = field(repr=False)
    log_pdf: Callable = field(repr=False)
    log_cdf: Callable = field(repr=False)
    log_complement_cdf: Callable = field(repr=False)
    char_fn: Callable = field(repr=False)
    mgf: Callable = field(repr=False)
    strip: AnalyticityStrip = field()
    satisfies_ir: bool = field()
    satisfies_il: bool = field()
    mean: float = field()
    scale: float = field()
    # abscissas where the density is non-smooth; quadrature splits there
    breakpoints: tuple[float, ...] = ()
    # relative accuracy of cdf/complement_cdf evaluations; closed forms sit
    # at rounding level, numeric tails carry their quadrature rule's bound
    tail_accuracy: float = 4e-16


def _scalarize(fn):
    """Wrap an array-native function so scalars come back as floats."""

    def wrapped(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(x) == 0 else out

    return wrapped


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise DomainError(message)


# =============================================================================
# Gaussian
# =============================================================================

def gaussian_model(sigma: float) -> ModelSpec:
    """Zero-mean Gaussian with standard deviation sigma; infinite strip."""
    s = float(sigma)
    _require(math.isfinite(s) and s > 0.0, "sigma must be a positive finite real")

    inv = 1.0 / s
    log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(s)

    def log_pdf(x):
        z = x * inv
        return log_norm - 0.5 * z * z

    def char_fn(xi):
        xi = np.asarray(xi, dtype=complex)
        out = np.exp(-0.5 * s * s * xi * xi)
        return complex(out) if np.ndim(xi) == 0 else out

    def mgf(t):
        t = float(t)
        _require(math.isfinite(t), "mgf argument must be finite")
        return math.exp(0.5 * s * s * t * t)

    return ModelSpec(
        name="gaussian",
        params={"sigma": s},
        pdf=_scalarize(lambda x: np.exp(log_pdf(x))),
        cdf=_scalarize(lambda x: sc.ndtr(x * inv)),
        complement_cdf=_scalarize(lambda x: sc.ndtr(-x * inv)),
        log_pdf=_scalarize(log_pdf),
        log_cdf=_scalarize(lambda x: sc.log_ndtr(x * inv)),
        log_complement_cdf=_scalarize(lambda x: sc.log_ndtr(-x * inv)),
        char_fn=char_fn,
        mgf=mgf,
        strip=AnalyticityStrip(math.inf, math.inf),
        satisfies_ir=True,
        satisfies_il=True,
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
    lr = float(lambda_r)
    ll = float(lambda_l)
    _require(math.isfinite(lr) and lr > 0.0, "lambda_r must be a positive finite real")
    _require(math.isfinite(ll) and ll > 0.0, "lambda_l must be a positive finite real")

    m = 1.0 / lr - 1.0 / ll
    total = lr + ll
    w_right = ll / total  # P(X > 0) before centering
    w_left = lr / total
    log_c = math.log(lr) + math.log(ll) - math.log(total)

    def log_pdf(x):
        z = x + m
        return log_c + np.where(z >= 0.0, -lr * z, ll * z)

    def log_sf(x):
        z = x + m
        right = math.log(w_right) - lr * z
        with np.errstate(over="ignore"):
            left = np.log1p(-w_left * np.exp(np.minimum(ll * z, 0.0)))
        return np.where(z >= 0.0, right, left)

    def log_cdf(x):
        z = x + m
        left = math.log(w_left) + ll * z
        with np.errstate(over="ignore"):
            right = np.log1p(-w_right * np.exp(np.minimum(-lr * z, 0.0)))
        return np.where(z <= 0.0, left, right)

    def sf(x):
        z = x + m
        return np.where(z >= 0.0, w_right * np.exp(-lr * np.maximum(z, 0.0)),
                        1.0 - w_left * np.exp(ll * np.minimum(z, 0.0)))

    def cdf(x):
        z = x + m
        return np.where(z <= 0.0, w_left * np.exp(ll * np.minimum(z, 0.0)),
                        1.0 - w_right * np.exp(-lr * np.maximum(z, 0.0)))

    def char_fn(xi):
        scalar = np.ndim(xi) == 0
        xi = np.asarray(xi, dtype=complex)
        im = xi.imag
        if np.any(im <= -lr) or np.any(im >= ll):
            raise DomainError(
                f"char_fn argument outside the strip Im(xi) in (-{lr:g}, {ll:g})"
            )
        out = np.exp(-1j * xi * m) * (lr * ll) / ((lr - 1j * xi) * (ll + 1j * xi))
        return complex(out) if scalar else out

    def mgf(t):
        t = float(t)
        _require(-ll < t < lr, f"mgf argument must lie in (-{ll:g}, {lr:g})")
        return math.exp(-t * m) * lr * ll / ((lr - t) * (ll + t))

    return ModelSpec(
        name="asym_laplace",
        params={"lambda_r": lr, "lambda_l": ll},
        pdf=_scalarize(lambda x: np.exp(log_pdf(x))),
        cdf=_scalarize(cdf),
        complement_cdf=_scalarize(sf),
        log_pdf=_scalarize(log_pdf),
        log_cdf=_scalarize(log_cdf),
        log_complement_cdf=_scalarize(log_sf),
        char_fn=char_fn,
        mgf=mgf,
        strip=AnalyticityStrip(lambda_minus=lr, lambda_plus=ll),
        satisfies_ir=True,
        satisfies_il=True,
        mean=0.0,
        scale=math.sqrt(1.0 / (lr * lr) + 1.0 / (ll * ll)),
        breakpoints=(-m,),
    )


# =============================================================================
# Normal Inverse Gaussian
# =============================================================================

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
_DE_Y = np.exp(_DE_C * np.sinh(_DE_T))
_DE_LOGW = math.log(_DE_STEP * _DE_C) + np.log(np.cosh(_DE_T)) + _DE_C * np.sinh(_DE_T)


def _de_level(level: int):
    """The nodes that halving _DE_STEP `level` times adds, and their log
    weights less ln h: row 0 for tanh-sinh onto [0, 1], row 1 for
    exp-sinh onto [0, inf), whose level-0 nodes are _DE_Y."""
    n = 45 << level
    t = _DE_T if level == 0 else np.arange(1 - n, n, 2) * (_DE_STEP / (1 << level))
    u = _DE_C * np.sinh(t)
    log_du = np.log(_DE_C * np.cosh(t))
    return (np.stack([1.0 / (1.0 + np.exp(-2.0 * u)), np.exp(u)]),
            np.stack([log_du - math.log(2.0) - 2.0 * np.log(np.cosh(u)), log_du + u]))


# refinement stops at level 7, step _DE_STEP / 128
_DE_LEVELS = tuple(_de_level(level) for level in range(8))

# scipy's kve(1, z) returns NaN for z beyond ~3.5e9; switch to the
# asymptotic well before that (next omitted term < 1e-16 for z > 1e5)
_KVE_ASYMPTOTIC_Z = 1.0e5


def _log_kve1(z: NDArray[np.float64]) -> NDArray[np.float64]:
    out = np.empty_like(z)
    small = z < _KVE_ASYMPTOTIC_Z
    if small.any():
        out[small] = np.log(sc.kve(1, z[small]))
    big = ~small
    if big.any():
        zb = z[big]
        out[big] = 0.5 * np.log(math.pi / (2.0 * zb)) + np.log1p(
            3.0 / (8.0 * zb) - 15.0 / (128.0 * zb * zb)
        )
    return out


def nig_model(alpha: float, beta: float, delta: float, mu: float | None = None) -> ModelSpec:
    """Normal Inverse Gaussian; finite strip (alpha - beta, alpha + beta).

    mu = None (default) centers the law at zero mean by setting
    mu = -delta*beta/gamma, gamma = sqrt(alpha^2 - beta^2); an explicit
    mu is honored and reflected in the mean field.  The density is the
    closed Bessel form; cdf and complement are half-line integrals of it
    under the fixed double-exponential rule, split at the mode (found
    once, as the root of the density's slope between mu and the mean)
    and complemented to the other side, so F + complement = 1 exactly.
    """
    a = float(alpha)
    b = float(beta)
    d = float(delta)
    _require(math.isfinite(a) and math.isfinite(b) and a > abs(b),
             "need alpha > |beta| with both finite")
    _require(math.isfinite(d) and d > 0.0, "delta must be a positive finite real")
    gamma = math.sqrt(a * a - b * b)
    if mu is None:
        m = -d * b / gamma
    else:
        m = float(mu)
        _require(math.isfinite(m), "mu must be finite")
    mean = m + d * b / gamma
    lam_minus = a - b  # right-tail rate
    lam_plus = a + b
    log_front = math.log(a * d / math.pi) + d * gamma

    def log_pdf(x):
        s = np.hypot(d, x - m)
        return log_front + b * (x - m) - np.log(s) + _log_kve1(a * s) - a * s

    def _log_tail_de(x, sign: int):
        # ln int_0^inf f(x + sign*y) dy; valid from the mode outward in sign.
        # A scale below delta, the branch points' height, costs accuracy
        scale = max(1.0 / (lam_minus if sign > 0 else lam_plus), d)
        y = x[:, None] + sign * scale * _DE_Y[None, :]
        terms = log_pdf(y) + _DE_LOGW[None, :] + math.log(scale)
        peak = terms.max(axis=1)
        return peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))

    def dlog_pdf(x):
        z = x - m
        s = math.hypot(d, z)
        return b - z * (2.0 / (s * s) + a * sc.k0e(a * s) / (s * sc.k1e(a * s)))

    # the density rises from mu toward the mean (slope b at mu) and falls
    # before reaching it, so the mode is the root of the slope between
    # them; without a sign change (b = 0, or b so small that mu and the
    # mean round together) the mean is the mode to rounding
    mode = mean
    if b * dlog_pdf(mean) < 0.0:
        mode = brentq(dlog_pdf, min(m, mean), max(m, mean), xtol=1e-14 * d)

    def log_tail(x, sign: int):
        # ln P(sign X > sign x): the rule from the mode outward, and on the
        # near side 1 minus the other tail, computed directly below ~1/2
        out = np.empty_like(x)
        outward = x >= mode if sign > 0 else x <= mode
        if outward.any():
            out[outward] = _log_tail_de(x[outward], sign)
        inward = ~outward
        if inward.any():
            out[inward] = np.log1p(-np.exp(_log_tail_de(x[inward], -sign)))
        return out

    def char_fn(xi):
        scalar = np.ndim(xi) == 0
        xi = np.asarray(xi, dtype=complex)
        im = xi.imag
        if np.any(im <= -lam_minus) or np.any(im >= lam_plus):
            raise DomainError(
                f"char_fn argument outside the strip Im(xi) in (-{lam_minus:g}, {lam_plus:g})"
            )
        w = b + 1j * xi
        # Re(alpha^2 - w^2) > 0 everywhere inside the strip: principal branch safe
        out = np.exp(1j * m * xi + d * (gamma - np.sqrt(a * a - w * w)))
        return complex(out) if scalar else out

    def mgf(t):
        t = float(t)
        _require(-lam_plus < t < lam_minus, f"mgf argument must lie in (-{lam_plus:g}, {lam_minus:g})")
        bt = b + t
        return math.exp(m * t + d * (gamma - math.sqrt(a * a - bt * bt)))

    params = {"alpha": a, "beta": b, "delta": d, "mu": m}
    return ModelSpec(
        name="nig",
        params=params,
        pdf=_scalarize(lambda x: np.exp(log_pdf(np.asarray(x, dtype=float)))),
        cdf=_scalarize(lambda x: np.exp(log_tail(x, -1))),
        complement_cdf=_scalarize(lambda x: np.exp(log_tail(x, +1))),
        log_pdf=_scalarize(lambda x: log_pdf(np.asarray(x, dtype=float))),
        log_cdf=_scalarize(lambda x: log_tail(x, -1)),
        log_complement_cdf=_scalarize(lambda x: log_tail(x, +1)),
        char_fn=char_fn,
        mgf=mgf,
        strip=AnalyticityStrip(lambda_minus=lam_minus, lambda_plus=lam_plus),
        satisfies_ir=True,
        satisfies_il=True,
        mean=mean,
        scale=math.sqrt(d * a * a / gamma**3),
        tail_accuracy=5e-12,
    )


# =============================================================================
# configuration parsing
# =============================================================================

_PARAM_SCHEMAS: dict[str, tuple[tuple[str, bool], ...]] = {
    # (name, required)
    "gaussian": (("sigma", True),),
    "asym_laplace": (("lambda_r", True), ("lambda_l", True)),
    "nig": (("alpha", True), ("beta", True), ("delta", True), ("mu", False)),
}

_CONSTRUCTORS = {
    "gaussian": gaussian_model,
    "asym_laplace": asym_laplace_model,
    "nig": nig_model,
}


def model_schemas() -> dict[str, tuple[tuple[str, bool], ...]]:
    """Known model names mapped to their (parameter, required) schema."""
    return dict(_PARAM_SCHEMAS)


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
    if not isinstance(name, str) or name not in MODEL_NAMES:
        raise ModelConfigError("model", f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    if "params" not in config:
        raise ModelConfigError("params", "required")
    params = config["params"]
    if not isinstance(params, Mapping):
        raise ModelConfigError("params", "expected an object of named reals")

    schema = _PARAM_SCHEMAS[name]
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
    return _CONSTRUCTORS[name](**kwargs)


# =============================================================================
# strip boundary probe
# =============================================================================

def mgf_blowup_boundary(
    model: ModelSpec,
    side: str,
    x_far: float = 8000.0,
    n_points: int = 33,
) -> float:
    """Numerically locate where E[e^{s zeta}] stops converging.

    M(s) = int e^{s x} f(x) dx diverges exactly when s exceeds the decay
    rate of the requested tail, so the boundary is the threshold value of
    s at which the integrand ln f(x) + s|x| changes sign of slope far
    out.  The slope is measured by least squares on a geometric grid in
    [x_far/4, x_far]; algebraic prefactors of the density bias the
    estimate by O(ln(x)/x_far), well under 1e-3 at the default depth.
    Returns math.inf for an infinite strip (every s converges).
    """
    if side not in ("right", "left"):
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")
    boundary = model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    if math.isinf(boundary):
        return math.inf
    if n_points < 4:
        raise DomainError("n_points must be at least 4")
    x = np.geomspace(x_far / 4.0, x_far, n_points)
    sign = 1.0 if side == "right" else -1.0
    lf = np.asarray(model.log_pdf(sign * x), dtype=float)
    slope = np.polyfit(x, lf, 1)[0]
    return float(-slope)
