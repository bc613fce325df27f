"""Wing diagnostics: slope estimation and extrapolation, tail-based
reference curves, regular-variation index recovery, strip-boundary
probes of the moment generating function's derivatives, and a combined
verdict report checking every asymptotic statement numerically.

Wing-limit background, in the package's own terms: when the return
distribution has exponential-type tails with rates (lambda_minus right,
lambda_plus left), the implied-variance-to-moneyness ratio I(kappa)^2 /
|kappa| approaches 1/(2 lambda) on each wing, and the same ratio is
tracked at finite depth by -|kappa| / (2 ln tail(kappa)).  The residual
diagnostics quantify how fast the price-to-volatility asymptotics settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bachelier import LN_SQRT_2PI
from .errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DomainError,
    InsufficientWingData,
    NotApplicableInfiniteStrip,
    TailUnderflow,
)
from .inversion import implied_vol_call_log
from .models import ModelSpec, mgf_blowup_boundary
from .pricing import (
    DEFAULT_SETTINGS,
    QuadratureSettings,
    _log_call_prices_from_tail,
    smile_from_model,
)
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

_SIDES = ("right", "left")


def _require_side(side: str) -> None:
    if side not in _SIDES:
        raise DomainError(f"side must be 'right' or 'left', got {side!r}")


# =============================================================================
# types
# =============================================================================

@dataclass(frozen=True, slots=True)
class WingEstimate:
    """One wing's slope data.

    slope_samples holds (kappa, I(kappa)^2/|kappa|) ordered outward;
    extrapolated_slope is the 1/|kappa| -> 0 intercept of those samples.
    tail_reference carries the model-tail counterpart at the same kappas,
    strip_reference the theoretical limit 1/(2 lambda) (0.0 when the
    strip is infinite), rv_index_theta the measured tail-growth index.
    The last three slots are filled by theorem_verdicts; wing_slope
    produces the slope fields only.
    """

    side: str
    slope_samples: tuple[tuple[float, float], ...]
    extrapolated_slope: float
    tail_reference: tuple[tuple[float, float], ...] = ()
    strip_reference: float = math.nan
    rv_index_theta: float = math.nan

    def __post_init__(self) -> None:
        _require_side(self.side)
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

def _side_points(smile: SmileGrid, side: str):
    ok = smile.ok_points()
    if not ok:
        raise InsufficientWingData("smile has no usable points")
    central = min(ok, key=lambda p: abs(p.kappa)).ivol
    if side == "right":
        chosen = [p for p in ok if p.kappa >= 2.0 * central]
    else:
        chosen = [p for p in ok if p.kappa <= -2.0 * central]
    chosen.sort(key=lambda p: abs(p.kappa))
    return chosen


def wing_slope(smile: SmileGrid, side: str) -> WingEstimate:
    """Estimate I(kappa)^2/|kappa| on one wing and extrapolate it outward.

    Needs at least four usable points beyond twice the central
    volatility scale.  The extrapolation fits a + b/|kappa| over the
    outermost points; the intercept is the reported limit, exact for a
    pure-exponential tail where the finite-depth correction really is
    O(1/kappa).
    """
    _require_side(side)
    pts = _side_points(smile, side)
    if len(pts) < 4:
        raise InsufficientWingData(
            f"{side} wing has {len(pts)} usable points; need at least 4"
        )
    samples = tuple((p.kappa, p.ivol**2 / abs(p.kappa)) for p in pts)
    outer = samples[-min(6, len(samples)):]
    inv_k = np.array([1.0 / abs(k) for k, _ in outer])
    vals = np.array([s for _, s in outer])
    intercept = float(np.polyfit(inv_k, vals, 1)[1])
    return WingEstimate(
        side=side,
        slope_samples=samples,
        extrapolated_slope=max(intercept, 0.0),
    )


def tail_reference_curve(model: ModelSpec, kappas, side: str):
    """-|kappa| / (2 ln tail) at each requested moneyness.

    The tail is the survival function on the right wing and the cdf at
    -|kappa| on the left; its log form is used directly so depth never
    underflows.  A tail at or above 1 violates the precondition.
    """
    _require_side(side)
    ks = [float(k) for k in kappas]
    mags = np.abs(ks)
    # one array call; a constant tail broadcasts to every magnitude
    log_tails = model.log_complement_cdf(mags) if side == "right" else model.log_cdf(-mags)
    out = []
    for k, mag, log_tail in zip(ks, mags.tolist(), np.broadcast_to(log_tails, mags.shape).tolist()):
        if not (log_tail < 0.0):
            raise DomainError(f"tail probability at kappa={k:g} is not inside (0, 1)")
        if math.isinf(log_tail):
            raise TailUnderflow(f"tail at kappa={k:g} underflows even in log form")
        out.append((k, -mag / (2.0 * log_tail)))
    return out


def rv_index(model: ModelSpec, side: str, kappa_lo: float, kappa_hi: float) -> float:
    """Growth index of g(kappa) = -ln tail(kappa) over a geometric range.

    Fits ln g against ln kappa by least squares; an exponential tail
    yields 1, a squared-exponential 2.  A doubling-ratio check at the
    top of the range guards the fit against a non-power-law g.
    """
    _require_side(side)
    lo, hi = float(kappa_lo), float(kappa_hi)
    if not (1.0 < lo < hi):
        raise DomainError("need 1 < kappa_lo < kappa_hi")

    # the fit's grid ends at hi; the doubling ratio needs hi / 2 too
    grid = np.geomspace(lo, hi, 16)
    mags = np.append(grid, hi / 2.0)
    log_tails = model.log_complement_cdf(mags) if side == "right" else model.log_cdf(-mags)
    g = []
    for mag, lt in zip(mags.tolist(), np.broadcast_to(log_tails, mags.shape).tolist()):
        if math.isinf(lt):
            raise TailUnderflow(f"tail at |kappa|={mag:g} underflows even in log form")
        if not (lt < 0.0):
            raise DomainError(f"tail at |kappa|={mag:g} is not inside (0, 1)")
        g.append(-lt)
    theta = float(np.polyfit(np.log(grid), np.log(g[:-1]), 1)[0])
    # defining ratio at the top: g(2k)/g(k) should be ~ 2^theta
    ratio_theta = math.log2(g[-2] / g[-1])
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

def asymptotic_residuals(smile: SmileGrid, model: ModelSpec):
    """Residuals of ln c(kappa) against the leading quadratic term.

    Uses the right-wing points (kappa > 0).  Points whose pricing failed
    by underflow are recovered through log-space tail prices (one batch)
    and the log-channel inversion, so the diagnostics keep going where
    linear doubles quit.
    """
    right = [p for p in smile.points if p.kappa > 0.0]
    redo = [p.kappa for p in right if p.status != STATUS_OK]
    recovered = dict(zip(redo, _log_call_prices_from_tail(model, redo)))
    out = []
    for p in right:
        if p.status == STATUS_OK:
            log_c, ivol = p.log_price, p.ivol
        else:
            log_c = recovered.get(p.kappa)
            if log_c is None:
                continue
            try:
                ivol = implied_vol_call_log(p.kappa, log_c).sigma
            except BachelierWingsError:
                continue
        target = p.kappa**2 / (2.0 * ivol**2)
        eps1 = log_c + target
        root = math.sqrt(p.kappa**2 + 2.0 * ivol**2)
        out.append(
            AsymptoticResidual(
                kappa=p.kappa,
                eps1=eps1,
                eps2=eps1 + LN_SQRT_2PI,
                target=target,
                d_ratio=root / (p.kappa + root),
            )
        )
    return out


# =============================================================================
# strip-boundary probe of the MGF
# =============================================================================

def _mgf_derivative(model: ModelSpec, arg: float, n: int, h: float) -> float:
    if n == 0:
        return model.mgf(arg)
    # central binomial stencil; error O(h^2) with a constant relative
    # bias across an s-proportional step, so log-log slopes stay clean
    total = 0.0
    for j in range(n + 1):
        x = arg + (n / 2.0 - j) * h
        total += (-1.0) ** j * math.comb(n, j) * model.mgf(x)
    return total / h**n


def condition_i_probe(
    model: ModelSpec, side: str, n: int, s_min: float
) -> ConditionIProbe:
    """Fit how the n-th MGF derivative blows up approaching the strip edge.

    Evaluates M^(n) at boundary distance s over a geometric grid down to
    s_min and regresses ln|M^(n)| on ln s; rho_estimate is minus the
    slope.  Derivatives use central differences with step s/10, which
    keeps the relative finite-difference bias constant across the grid.
    """
    _require_side(side)
    if not (0 <= n <= 4):
        raise DomainError("derivative order n must be between 0 and 4")
    boundary = (
        model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    )
    if math.isinf(boundary):
        raise NotApplicableInfiniteStrip(
            f"{model.name} has an infinite strip on the {side} side"
        )
    s_min = float(s_min)
    if not (0.0 < s_min < boundary / 16.0):
        raise DomainError("s_min must be well inside the strip (below boundary/16)")

    sign = 1.0 if side == "right" else -1.0
    s_grid = np.geomspace(s_min, boundary / 8.0, 9)
    kept_s, kept_val = [], []
    for s in s_grid:
        arg = sign * (boundary - s)
        val = abs(_mgf_derivative(model, arg, n, s / 10.0))
        if math.isfinite(val) and val > 0.0:
            kept_s.append(float(s))
            kept_val.append(val)
    if len(kept_s) < 4:
        raise AccuracyNotReached(
            "too few finite MGF derivative values for a probe fit",
            achieved=float(len(kept_s)),
        )
    x = np.log(kept_s)
    y = np.log(kept_val)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    return ConditionIProbe(
        side=side,
        n=n,
        rho_estimate=float(-slope),
        regression_r2=r2,
        s_grid=tuple(kept_s),
    )


# =============================================================================
# combined verdict report
# =============================================================================

@dataclass(frozen=True, slots=True)
class VerdictSettings:
    """Knobs for theorem_verdicts; tolerances are declared slack for
    asymptotic statements checked at finite depth."""

    quadrature: QuadratureSettings = field(default_factory=lambda: DEFAULT_SETTINGS)
    tol_iv: float = 1e-12
    wing_lo_scales: float = 5.0
    wing_hi_scales: float = 40.0
    points_per_side: int = 12
    slope_strip_tol: float = 0.05
    slope_tail_tol: float = 0.05
    flat_slope_floor: float = 0.01
    theta_tol: float = 0.05
    rv_lo_scales: float = 10.0
    rv_hi_scales: float = 2000.0
    probe_s_min_frac: float = 2.0**-12

    def __post_init__(self) -> None:
        if self.points_per_side < 4:
            raise DomainError("points_per_side must be at least 4")
        if not (0.0 < self.wing_lo_scales < self.wing_hi_scales):
            raise DomainError("need 0 < wing_lo_scales < wing_hi_scales")


def _check(name: str, measured: float, reference: float, tolerance: float) -> dict:
    ok = bool(abs(measured - reference) <= tolerance)
    return {
        "name": name,
        "measured": float(measured),
        "reference": float(reference),
        "tolerance": float(tolerance),
        "pass": ok,
    }


def _escalating_probe(model: ModelSpec, side: str, s_min: float) -> ConditionIProbe:
    # a bounded MGF at the boundary shows rho ~ 0 at order 0, and a weak
    # branch point pollutes the order-0 fit; step up the derivative order
    # until the blow-up is both visible and cleanly power-like
    probe = None
    for n in (0, 1, 2):
        probe = condition_i_probe(model, side, n, s_min)
        if probe.rho_estimate >= 0.05 and probe.regression_r2 >= 0.99:
            return probe
    return probe


def _side_report(model: ModelSpec, smile: SmileGrid, side: str, vs: VerdictSettings):
    est = wing_slope(smile, side)
    lam = model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    strip_ref = 0.0 if math.isinf(lam) else 1.0 / (2.0 * lam)
    refs = tail_reference_curve(model, [k for k, _ in est.slope_samples], side)
    theta = rv_index(
        model, side, vs.rv_lo_scales * model.scale, vs.rv_hi_scales * model.scale
    )
    est = replace(
        est,
        tail_reference=tuple(refs),
        strip_reference=strip_ref,
        rv_index_theta=theta,
    )

    checks = []
    if strip_ref > 0.0:
        tol = vs.slope_strip_tol * strip_ref
    else:
        tol = vs.flat_slope_floor
    checks.append(_check(f"{side}_slope_vs_strip", est.extrapolated_slope, strip_ref, tol))

    # finite strip: both curves share the limit 1/(2 lambda), so compare
    # the two extrapolated limits (the reference gets the same 1/kappa
    # fit; at finite depth it still carries prefactor corrections).
    # Infinite strip: both decay to zero, a limit comparison is
    # degenerate; match the outermost sample against the reference at
    # the same kappa instead.
    if strip_ref > 0.0:
        outer_refs = refs[-min(6, len(refs)):]
        inv_k = np.array([1.0 / abs(k) for k, _ in outer_refs])
        ref_vals = np.array([v for _, v in outer_refs])
        tail_ref = float(np.polyfit(inv_k, ref_vals, 1)[1])
        tail_measured = est.extrapolated_slope
    else:
        tail_ref = refs[-1][1]
        tail_measured = est.slope_samples[-1][1]
    checks.append(
        _check(
            f"{side}_slope_vs_tail_reference",
            tail_measured,
            tail_ref,
            vs.slope_tail_tol * abs(tail_ref),
        )
    )
    theta_ref = 2.0 if math.isinf(lam) else 1.0
    checks.append(_check(f"{side}_rv_index", theta, theta_ref, vs.theta_tol))

    detail = {
        "slope_samples": [[float(k), float(s)] for k, s in est.slope_samples],
        "extrapolated_slope": float(est.extrapolated_slope),
        "tail_reference": [[float(k), float(v)] for k, v in est.tail_reference],
        "strip_reference": float(strip_ref),
        "rv_index_theta": float(theta),
    }

    if math.isinf(lam):
        detail["condition_i"] = {"applicable": False}
    else:
        probe = _escalating_probe(model, side, vs.probe_s_min_frac * lam)
        detail["condition_i"] = {
            "applicable": True,
            "n": probe.n,
            "rho_estimate": float(probe.rho_estimate),
            "regression_r2": float(probe.regression_r2),
        }
        ok = probe.rho_estimate > 0.05 and probe.regression_r2 > 0.99
        checks.append(
            {
                "name": f"{side}_condition_i_power_blowup",
                "measured": float(probe.rho_estimate),
                "reference": 0.0,
                "tolerance": 0.0,
                "pass": bool(ok),
            }
        )
        boundary_est = mgf_blowup_boundary(model, side)
        checks.append(
            _check(f"{side}_strip_boundary_probe", boundary_est, lam, 1e-3)
        )
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
    wing = np.geomspace(lo, hi, vs.points_per_side)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    smile = smile_from_model(model, grid, vs.quadrature, vs.tol_iv)
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
    for side in _SIDES:
        try:
            detail, checks = _side_report(model, smile, side, vs)
            report["sides"][side] = detail
            report["checks"].extend(checks)
        except BachelierWingsError as err:
            errored = True
            report["sides"][side] = {"error": f"{type(err).__name__}: {err}"}

    try:
        residuals = asymptotic_residuals(smile, model)
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
            eps_ok = ratios[-1] < 0.1 and decreasing
            report["checks"].append(
                {
                    "name": "eps1_dominance",
                    "measured": float(ratios[-1]),
                    "reference": 0.0,
                    "tolerance": 0.1,
                    "pass": bool(eps_ok),
                }
            )
    except BachelierWingsError as err:
        errored = True
        report["residuals"] = {"error": f"{type(err).__name__}: {err}"}

    report["all_pass"] = bool(not errored and all(c["pass"] for c in report["checks"]))
    return report
