"""Wing diagnostics: slope estimation and extrapolation, tail-based
reference curves, regular-variation index recovery, strip-boundary
probes of the moment generating function's derivatives, and a combined
verdict report checking every asymptotic statement numerically.  Every
number an entry point takes is read by errors._real or errors._reals.

Wing-limit background, in the package's own terms: when the return
distribution has exponential-type tails with rates (lambda_minus right,
lambda_plus left), the implied-variance-to-moneyness ratio I(kappa)^2 /
|kappa| approaches 1/(2 lambda) on each wing, and the same ratio is
tracked at finite depth by -|kappa| / (2 ln tail(kappa)).  The residual
diagnostics quantify how fast the price-to-volatility asymptotics settle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bachelier import LN_SQRT_2PI
from .errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DomainError,
    InsufficientWingData,
    NotApplicableInfiniteStrip,
    TailUnderflow,
    _real,
    _reals,
)
from .inversion import implied_vol_call_log  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .models import ModelSpec, _geometric_grid, _geomspace, _line_fit, _side_sign, mgf_blowup_boundary
from .pricing import smile_from_model
from .pricing import log_call_price_from_tail  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .smile import STATUS_OK, SmileGrid

__all__ = [
    "WingEstimate",
    "AsymptoticResidual",
    "ConditionIProbe",
    "VerdictSettings",
    "wing_slope",
    "tail_reference_curve",
    "rv_index",
    "asymptotic_residuals",
    "condition_i_probe",
    "theorem_verdicts",
]

# =============================================================================
# types
# =============================================================================

@dataclass(frozen=True, slots=True)
class WingEstimate:
    """One wing's slope data.

    slope_samples holds (kappa, I(kappa)^2/|kappa|) ordered outward;
    extrapolated_slope is the 1/|kappa| -> 0 intercept of those samples.
    """

    side: str
    slope_samples: tuple[tuple[float, float], ...]
    extrapolated_slope: float

    def __post_init__(self) -> None:
        _side_sign(self.side)
        if any(not (s > 0.0) for _, s in self.slope_samples):
            raise DomainError("slope samples must be positive")
        if not (self.extrapolated_slope >= 0.0):
            raise DomainError("extrapolated slope must be nonnegative")


@dataclass(frozen=True, slots=True)
class AsymptoticResidual:
    """Log-price residuals against the leading wing asymptotics.

    eps1 = ln c(kappa) + kappa^2/(2 I^2); eps2 = eps1 + ln sqrt(2 pi);
    target is the subtracted leading term kappa^2/(2 I^2) itself, and
    d_ratio = sqrt(kappa^2 + 2 I^2) / (kappa + sqrt(kappa^2 + 2 I^2)),
    which tends to 1/2 as the wing deepens.
    """

    kappa: float
    eps1: float
    eps2: float
    target: float
    d_ratio: float


@dataclass(frozen=True, slots=True)
class ConditionIProbe:
    """Power-law fit of an MGF derivative's blow-up at the strip edge.

    M^(n) evaluated at distance s from the boundary; rho_estimate is the
    fitted exponent of its divergence (positive rho with high r^2 is the
    numeric signature that the boundary singularity has power type).
    """

    side: str
    n: int
    rho_estimate: float
    regression_r2: float
    s_grid: tuple[float, ...]


# =============================================================================
# wing slope estimation
# =============================================================================

def _side_points(smile: SmileGrid, sign: float):
    ok = smile.ok_points()
    if not ok:
        raise InsufficientWingData("smile has no usable points")
    mags = [abs(p.kappa) for p in ok]
    bound = 2.0 * ok[mags.index(min(mags))].ivol
    # kappas increase strictly: reversed on the left, each wing runs outward
    return [p for p in ok if sign * p.kappa >= bound][::int(sign)]


def wing_slope(smile: SmileGrid, side: str) -> WingEstimate:
    """Estimate I(kappa)^2/|kappa| on one wing and extrapolate it outward.

    Needs at least four usable points beyond twice the central
    volatility scale.  The extrapolation fits a + b/|kappa| over the
    outermost points; the intercept is the reported limit, exact for a
    pure-exponential tail where the finite-depth correction really is
    O(1/kappa).
    """
    pts = _side_points(smile, _side_sign(side))
    if len(pts) < 4:
        raise InsufficientWingData(
            f"{side} wing has {len(pts)} usable points; need at least 4"
        )
    samples = tuple([(p.kappa, p.ivol**2 / abs(p.kappa)) for p in pts])
    return WingEstimate(
        side=side,
        slope_samples=samples,
        extrapolated_slope=max(_extrapolate(samples), 0.0),
    )


def _extrapolate(samples) -> float:
    """The 1/|kappa| -> 0 intercept of a + b/|kappa| fitted to the outer (up to six) samples."""
    outer = samples[-6:]
    _, intercept, _ = _line_fit([1.0 / abs(k) for k, _ in outer], [v for _, v in outer])
    return intercept


def _log_tails(model: ModelSpec, sign: float, mags: np.ndarray) -> list[float]:
    """ln tail at each magnitude |kappa| on sign's wing from one call of
    model.log_tail(sign |kappa|, sign): the survival function at |kappa| on the
    right (+1), the cdf at -|kappa| on the left (-1); a constant tail broadcasts.
    A tail that underflows even in log form raises TailUnderflow, any other log
    tail not below 0 (NaN included) DomainError."""
    raw = np.asarray(model.log_tail(sign * mags, sign))
    log_tails = (raw if raw.shape == mags.shape else np.broadcast_to(raw, mags.shape)).tolist()
    for mag, lt in zip(mags.tolist(), log_tails):
        if lt == -math.inf:
            raise TailUnderflow(f"tail at |kappa|={mag:g} underflows even in log form")
        if not (lt < 0.0):
            raise DomainError(f"tail at |kappa|={mag:g} is not inside (0, 1)")
    return log_tails


def tail_reference_curve(model: ModelSpec, kappas, side: str):
    """-|kappa| / (2 ln tail) at each requested moneyness.

    The tail is the survival function on the right wing and the cdf at
    -|kappa| on the left; its log form is used directly so depth never
    underflows.  A tail at or above 1 violates the precondition, and kappas
    that are no flat iterable of finite reals (text too) raise DomainError
    after the side's check.
    """
    sign = _side_sign(side)
    if (arr := _reals(kappas, "kappas")).ndim != 1:
        raise DomainError(f"kappas must be a flat iterable of real moneyness values, got {kappas!r}")
    ks = arr.tolist()  # the caller's order, duplicates kept
    mags = np.abs(ks)
    return [(k, -mag / (2.0 * lt))
            for k, mag, lt in zip(ks, mags.tolist(), _log_tails(model, sign, mags))]


def rv_index(model: ModelSpec, side: str, kappa_lo: float, kappa_hi: float) -> float:
    """Growth index of g(kappa) = -ln tail(kappa) over a geometric range.

    Fits ln g against ln kappa by least squares; an exponential tail
    yields 1, a squared-exponential 2.  A doubling-ratio check at the
    top of the range guards the fit against a non-power-law g.
    """
    sign = _side_sign(side)
    lo, hi = _real(kappa_lo, "kappa_lo"), _real(kappa_hi, "kappa_hi")
    grid = _rv_grid(lo, hi)
    return _rv_fit(lo, hi, grid, _log_tails(model, sign, grid))


def _rv_grid(lo: float, hi: float) -> np.ndarray:
    if not (1.0 < lo < hi):
        raise DomainError("need 1 < kappa_lo < kappa_hi")
    # the fit's grid ends at hi; the doubling ratio needs hi / 2 too
    return np.concatenate((_geometric_grid(lo, hi, 16), (hi / 2.0,)))


def _rv_fit(lo: float, hi: float, grid: np.ndarray, log_tails: list[float]) -> float:
    theta, _, _ = _line_fit(np.log(grid[:-1]), np.log(np.negative(log_tails[:-1])))
    # defining ratio at the top: g(2k)/g(k) should be ~ 2^theta
    ratio_theta = math.log2(log_tails[-2] / log_tails[-1])
    if abs(ratio_theta - theta) > 0.25:
        raise AccuracyNotReached(
            f"tail growth is not power-like on [{lo:g}, {hi:g}]: "
            f"regression {theta:.3f} vs doubling ratio {ratio_theta:.3f}",
            achieved=abs(ratio_theta - theta),
        )
    return theta


# =============================================================================
# residual diagnostics
# =============================================================================

def asymptotic_residuals(smile: SmileGrid):
    """Residuals of ln c(kappa) against the leading quadratic term.

    Uses the smile's ok right-wing points (kappa > 0), reading each one's
    log_price and ivol; a smile keeps both past double underflow, so no
    model is needed.  Failed points are skipped.
    """
    out = []
    for p in smile.points:
        if p.status != STATUS_OK or p.kappa <= 0.0:
            continue
        kappa2, var2 = p.kappa**2, 2.0 * p.ivol**2
        target = kappa2 / var2
        eps1 = p.log_price + target
        root = math.sqrt(kappa2 + var2)
        out.append(AsymptoticResidual(p.kappa, eps1, eps1 + LN_SQRT_2PI, target,
                                      root / (p.kappa + root)))
    return out


# =============================================================================
# strip-boundary probe of the MGF
# =============================================================================

def _probe_derivatives(model: ModelSpec, side: str, orders, s_min: float):
    """The probe's s grid and |M^(n)| on it for each order n, from one mgf call,
    each summed only when the caller reaches it: central binomial differences
    of step s/10, whose O(h^2) error is a constant relative bias across the
    grid, so log-log slopes stay clean."""
    boundary = model.strip.rate(sign := _side_sign(side))
    if math.isinf(boundary):
        raise NotApplicableInfiniteStrip(f"{model.name} has an infinite strip on the {side} side")
    if not (0.0 < (s_min := _real(s_min, "s_min")) < boundary / 16.0):
        raise DomainError("s_min must be well inside the strip (below boundary/16)")

    s = _geometric_grid(s_min, boundary / 8.0, 9)
    h = s / 10.0
    offsets = np.array([n / 2.0 - j for n in orders for j in range(n + 1)])
    rows = iter(model.mgf(sign * (boundary - s) + offsets[:, None] * h))  # one per offset
    return s, (np.abs(sum((-1.0) ** j * math.comb(n, j) * next(rows) for j in range(n + 1))) / h**n
               for n in orders)


def _probe_fit(side: str, n: int, s: np.ndarray, deriv: np.ndarray) -> ConditionIProbe:
    kept = np.isfinite(deriv) & (deriv > 0.0)
    count = np.count_nonzero(kept)
    if count < 4:
        raise AccuracyNotReached("too few finite MGF derivative values for a probe fit",
                                 achieved=float(count))
    if count < kept.size:
        s, deriv = s[kept], deriv[kept]
    slope, _, r2 = _line_fit(np.log(s), np.log(deriv))
    return ConditionIProbe(side=side, n=n, rho_estimate=-slope, regression_r2=r2,
                           s_grid=tuple(s.tolist()))


def condition_i_probe(model: ModelSpec, side: str, n: int, s_min: float) -> ConditionIProbe:
    """Fit how the n-th MGF derivative blows up approaching the strip edge.

    Evaluates M^(n) at boundary distance s over a geometric grid down to
    s_min and regresses ln|M^(n)| on ln s; rho_estimate is minus the
    slope.  Derivatives use central differences with step s/10, which
    keeps the relative finite-difference bias constant across the grid.
    """
    if not (isinstance(n, numbers.Integral) and 0 <= n <= 4):
        raise DomainError("derivative order n must be an integer between 0 and 4")
    s, (deriv,) = _probe_derivatives(model, side, (n,), s_min)
    return _probe_fit(side, n, s, deriv)


# =============================================================================
# combined verdict report
# =============================================================================

@dataclass(frozen=True, slots=True)
class VerdictSettings:
    """The report's smile: inversion tolerance and the wing grid, both
    wings geometric from wing_lo_scales to wing_hi_scales model scales."""

    tol_iv: float = 1e-12
    wing_lo_scales: float = 5.0
    wing_hi_scales: float = 40.0
    points_per_side: int = 12

    def __post_init__(self) -> None:
        if not (isinstance(self.points_per_side, numbers.Integral) and self.points_per_side >= 4):
            raise DomainError("points_per_side must be an integer, at least 4")
        for name in ("tol_iv", "wing_lo_scales", "wing_hi_scales"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not (0.0 < self.wing_lo_scales < self.wing_hi_scales):
            raise DomainError("need 0 < wing_lo_scales < wing_hi_scales")
        if not self.tol_iv > 0.0:
            raise DomainError(f"tol_iv must be > 0, got {self.tol_iv!r}")


def _check(name: str, measured: float, reference: float, tolerance: float, ok=None) -> dict:
    """One check record; the verdict defaults to |measured - reference| <= tolerance."""
    if ok is None:
        ok = abs(measured - reference) <= tolerance
    return {
        "name": name,
        "measured": float(measured),
        "reference": float(reference),
        "tolerance": float(tolerance),
        "pass": bool(ok),
    }


def _power_law_blowup(probe: ConditionIProbe) -> bool:
    """The probed derivative blows up visibly (rho > 0.05) and cleanly
    power-like (r^2 > 0.99)."""
    return probe.rho_estimate > 0.05 and probe.regression_r2 > 0.99


def _escalating_probe(model: ModelSpec, side: str, s_min: float) -> ConditionIProbe:
    # a bounded MGF at the boundary shows rho ~ 0 at order 0, and a weak
    # branch point pollutes the order-0 fit; step up the derivative order
    # until the blow-up is both visible and cleanly power-like.  All three
    # orders come from one mgf call, each stencil summed only when reached;
    # each fit equals condition_i_probe's
    s, derivs = _probe_derivatives(model, side, (0, 1, 2), s_min)
    for n, deriv in enumerate(derivs):
        probe = _probe_fit(side, n, s, deriv)
        if _power_law_blowup(probe):
            return probe
    return probe


# Declared slack for asymptotic statements checked at finite depth: the
# wing slope within 5% of its strip limit 1/(2 lambda) (within 0.01 of
# 0 when the strip is infinite) and of the tail reference, the tail-growth
# index within 0.05 of 1 or 2, read over 10-2000 model scales, and the
# strip-boundary probe taken down to 2^-12 of the boundary.
_SLOPE_STRIP_TOL = 0.05
_SLOPE_TAIL_TOL = 0.05
_FLAT_SLOPE_FLOOR = 0.01
_THETA_TOL = 0.05
_RV_LO_SCALES = 10.0
_RV_HI_SCALES = 2000.0
_PROBE_S_MIN_FRAC = 2.0**-12


def _side_report(model: ModelSpec, smile: SmileGrid, side: str):
    est = wing_slope(smile, side)
    lam = model.strip.rate(sign := _side_sign(side))
    strip_ref = 0.0 if math.isinf(lam) else 1.0 / (2.0 * lam)
    # tail_reference_curve and rv_index from one log-tail read, raising as they
    # would in turn: a bad tail-reference point, then a bad range, then its points
    ks = [k for k, _ in est.slope_samples]
    lo, hi = _RV_LO_SCALES * model.scale, _RV_HI_SCALES * model.scale
    grid = _rv_grid(lo, hi) if 1.0 < lo < hi else np.empty(0)
    log_tails = _log_tails(model, sign, np.abs(np.concatenate((ks, grid))))  # grid > 0
    refs = [(k, -abs(k) / (2.0 * lt)) for k, lt in zip(ks, log_tails)]
    theta = _rv_fit(lo, hi, grid if grid.size else _rv_grid(lo, hi), log_tails[len(ks):])

    checks = []
    tol = _SLOPE_STRIP_TOL * strip_ref if strip_ref > 0.0 else _FLAT_SLOPE_FLOOR
    checks.append(_check(f"{side}_slope_vs_strip", est.extrapolated_slope, strip_ref, tol))

    # finite strip: both curves share the limit 1/(2 lambda), so compare
    # the two extrapolated limits (the reference gets the same 1/kappa
    # fit; at finite depth it still carries prefactor corrections).
    # Infinite strip: both decay to zero, a limit comparison is
    # degenerate; match the outermost sample against the reference at
    # the same kappa instead.
    if strip_ref > 0.0:
        tail_ref = _extrapolate(refs)
        tail_measured = est.extrapolated_slope
    else:
        tail_ref = refs[-1][1]
        tail_measured = est.slope_samples[-1][1]
    checks.append(_check(f"{side}_slope_vs_tail_reference", tail_measured, tail_ref,
                         _SLOPE_TAIL_TOL * abs(tail_ref)))
    theta_ref = 2.0 if math.isinf(lam) else 1.0
    checks.append(_check(f"{side}_rv_index", theta, theta_ref, _THETA_TOL))

    detail = {
        "slope_samples": [[float(k), float(s)] for k, s in est.slope_samples],
        "extrapolated_slope": float(est.extrapolated_slope),
        "tail_reference": [[float(k), float(v)] for k, v in refs],
        "strip_reference": float(strip_ref),
        "rv_index_theta": float(theta),
    }

    if math.isinf(lam):
        detail["condition_i"] = {"applicable": False}
    else:
        probe = _escalating_probe(model, side, _PROBE_S_MIN_FRAC * lam)
        detail["condition_i"] = {
            "applicable": True,
            "n": probe.n,
            "rho_estimate": float(probe.rho_estimate),
            "regression_r2": float(probe.regression_r2),
        }
        checks.append(
            _check(f"{side}_condition_i_power_blowup", probe.rho_estimate, 0.0, 0.0,
                   ok=_power_law_blowup(probe))
        )
        boundary_est = mgf_blowup_boundary(model, side)
        checks.append(_check(f"{side}_strip_boundary_probe", boundary_est, lam, 1e-3))
    return detail, checks


def theorem_verdicts(model: ModelSpec, settings: VerdictSettings | None = None) -> dict:
    """Run every wing-asymptotics check on one model and report verdicts.

    Builds a two-winged smile on a geometric grid, estimates and
    extrapolates both wing slopes, compares them against the strip limit
    and the tail reference, recovers the tail-growth index, probes the
    boundary singularity, and evaluates the right-wing residual
    diagnostics.  The report is JSON-ready: per-check name, measured,
    reference, tolerance, pass, plus per-side detail; a side that errors
    is reported as such, never given a fabricated verdict.
    """
    vs = settings or VerdictSettings()
    lo = vs.wing_lo_scales * model.scale
    hi = vs.wing_hi_scales * model.scale
    wing = _geomspace(lo, hi, vs.points_per_side)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    smile = smile_from_model(model, grid, tol_iv=vs.tol_iv)
    n_failed = sum(1 for p in smile.points if p.status != STATUS_OK)

    report: dict = {
        "model": model.name,
        "params": {k: float(v) for k, v in model.params.items()},
        "grid_points": len(smile),
        "failed_points": int(n_failed),
        "sides": {},
        "checks": [],
    }
    errored = False
    for side in ("right", "left"):
        try:
            detail, checks = _side_report(model, smile, side)
            report["sides"][side] = detail
            report["checks"].extend(checks)
        except BachelierWingsError as err:
            errored = True
            report["sides"][side] = {"error": f"{type(err).__name__}: {err}"}

    residuals = asymptotic_residuals(smile)
    if len(residuals) >= 4:
        outer = residuals[-1]
        ratios = [abs(r.eps1) / r.target for r in residuals]
        tail_half = ratios[len(ratios) // 2:]
        decreasing = all(b < a for a, b in zip(tail_half, tail_half[1:]))
        report["residuals"] = {
            "outer_kappa": float(outer.kappa),
            "eps1_over_target": [float(r) for r in ratios],
            "d_ratio": [float(r.d_ratio) for r in residuals],
        }
        report["checks"].append(
            _check("d_ratio_outer", outer.d_ratio, 0.5, 0.1)
        )
        report["checks"].append(
            _check("eps1_dominance", ratios[-1], 0.0, 0.1, ok=ratios[-1] < 0.1 and decreasing)
        )

    report["all_pass"] = bool(not errored and all(c["pass"] for c in report["checks"]))
    return report
