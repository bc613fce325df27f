"""End-to-end acceptance checks at desk scale, one test per criterion.

Each test prints a one-line summary with the measured quantity, its
tolerance, and any runtime budget.

The wing limits of the paper are asymptotic equivalences with no rate
attached, so each clause is checked at a depth the limit has reached.
On the symmetric exponential-tail oracle the call price is the tail
itself, c(kappa) = tail(kappa) = e^-|kappa| / 2, and the pointwise
slope-to-reference gap of test_05 equals the leading-term residual
fraction |eps1|/target of test_08.  That one quantity decays like
ln kappa / kappa (0.24 at kappa 15.5, 0.10 at kappa 40): it first falls
below 0.1 at kappa ~ 40.3 and below 3% at kappa ~ 152.  Clauses that
read it pointwise run on a deep wing reaching 400; the extrapolated
slope, the displacement ratio and the monotone decrease run on the
standard 5-40 wing.
"""

from __future__ import annotations

import math
import time

import mpmath as mp
import numpy as np

from bachelier_wings.bachelier import (
    bachelier_bounds,
    call_price,
    call_price_log,
    mills_sandwich,
    put_price,
    put_price_log,
    vega,
)
from bachelier_wings.inversion import (
    implied_vol_call,
    implied_vol_call_log_vec,
    implied_vol_put,
    implied_vol_put_log_vec,
)
from bachelier_wings.models import (
    asym_laplace_model,
    gaussian_model,
    mgf_blowup_boundary,
    nig_model,
)
from bachelier_wings.pricing import (
    price_from_cf,
    price_from_tail,
    smile_from_model,
)
from bachelier_wings.wings import (
    asymptotic_residuals,
    rv_index,
    tail_reference_curve,
    wing_slope,
)

SEED = 42


LAPLACE_WING = np.geomspace(5.0, 40.0, 12)
# deep enough for the pointwise limits; e^-400 / 2 ~ 1e-174 still
# prices in linear doubles
DEEP_LAPLACE_WING = np.geomspace(50.0, 400.0, 12)
# first grid depth past kappa ~ 152, where the slope gap falls below 3%
POINTWISE_DEPTH = 155.0


def _laplace_wing_smile(wing=LAPLACE_WING):
    model = asym_laplace_model(1.0, 1.0)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    return model, smile_from_model(model, grid)


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def _laplace_oracle_ivol(kappa: float) -> mp.mpf:
    """Implied normal vol of c = e^-kappa / 2 (kappa > 0) at 30 digits.

    The root of ln c_B(kappa, I) = -kappa - ln 2 is bracketed between
    the leading-order vol kappa / sqrt(2 (kappa + ln 2)), which the
    true vol exceeds, and twice that.
    """
    with mp.workdps(30):
        k = mp.mpf(kappa)
        log_target = -k - mp.log(2)

        def f(s):
            d = k / s
            return mp.log(s * mp.npdf(d) - k * mp.ncdf(-d)) - log_target

        lead = k / mp.sqrt(-2 * log_target)
        return mp.findroot(f, (lead, 2 * lead), solver="anderson")


def test_01_round_trip_inversion():
    """1e5 random (kappa, sigma) in [-10,10]x[0.01,5]: recovered vol
    within 1e-9 relative everywhere, total under 5 seconds."""
    rng = np.random.default_rng(SEED)
    n = 100_000
    kappa = rng.uniform(-10.0, 10.0, n)
    sigma = rng.uniform(0.01, 5.0, n)
    t0 = time.perf_counter()
    # price and invert through the out-of-the-money instrument in log
    # space; the box reaches depths where linear prices underflow
    otm_call = kappa >= 0.0
    recovered = np.empty(n)
    m = otm_call
    recovered[m] = implied_vol_call_log_vec(kappa[m], call_price_log(kappa[m], sigma[m]))
    m = ~otm_call
    recovered[m] = implied_vol_put_log_vec(kappa[m], put_price_log(kappa[m], sigma[m]))
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(recovered - sigma) / sigma))
    print(f"[1] round-trip inversion: max rel err {worst:.3e} (tol 1e-9), "
          f"{elapsed:.2f}s (budget 5s)")
    assert worst < 1e-9
    assert elapsed < 5.0


def test_02_flat_smile_oracle():
    """Gaussian sigma=2 priced by the tail integral then inverted:
    max |I - 2| < 1e-7 over 41 points on [-20, 20]."""
    model = gaussian_model(2.0)
    worst = 0.0
    for k in np.linspace(-20.0, 20.0, 41):
        quote = price_from_tail(model, float(k))
        if k >= 0.0:
            iv = implied_vol_call(float(k), quote.call).sigma
        else:
            iv = implied_vol_put(float(k), quote.put).sigma
        worst = max(worst, abs(iv - 2.0))
    print(f"[2] flat-smile oracle: max |I - 2| = {worst:.3e} (tol 1e-7)")
    assert worst < 1e-7


def test_03_scaled_sandwich():
    """Scaled-coordinate price bounds for beta in {0.25, 1, 4} over 200
    log-spaced arguments in [1e-3, 1e3]: zero violations."""
    y = np.geomspace(1e-3, 1e3, 200)
    violations = 0
    for beta in (0.25, 1.0, 4.0):
        lo, hi = bachelier_bounds(y, beta)
        price = call_price(y, np.sqrt(beta * y))
        violations += int(np.sum(lo > price)) + int(np.sum(price > hi))
    print(f"[3] scaled sandwich: {violations} violations (tol 0)")
    assert violations == 0


def test_04_ratio_bound_sandwich():
    """Gaussian-ratio price bounds at 1e4 random out-of-the-money
    points: zero violations."""
    rng = np.random.default_rng(SEED)
    n = 10_000
    kappa = 10.0 ** rng.uniform(-2.0, math.log10(20.0), n)
    sigma = 10.0 ** rng.uniform(-2.0, math.log10(5.0), n)
    lo, hi = mills_sandwich(kappa, sigma)
    price = call_price(kappa, sigma)
    violations = int(np.sum(lo > price)) + int(np.sum(price > hi))
    print(f"[4] ratio-bound sandwich: {violations} violations (tol 0)")
    assert violations == 0


def test_05_laplace_wing_slopes():
    """Symmetric exponential-tail oracle: extrapolated slopes within 2%
    of 0.5 on both sides with the grid reaching 40; slope samples match
    the tail reference pointwise within 3% at depth 155 and beyond on
    the deep wing reaching 400, since the gap decays like
    ln kappa / kappa and first drops below 3% at kappa ~ 152.  Budget
    10 seconds.  A 30-digit inversion of c = e^-kappa / 2 reproduces
    the deep-wing ivols within 1e-10 relative, and its gap is printed
    beside the measured one."""
    t0 = time.perf_counter()
    model, smile = _laplace_wing_smile()
    _, deep_smile = _laplace_wing_smile(DEEP_LAPLACE_WING)
    results = {}
    for side in ("right", "left"):
        extrapolated = wing_slope(smile, side).extrapolated_slope
        samples = wing_slope(deep_smile, side).slope_samples
        refs = dict(tail_reference_curve(model, [k for k, _ in samples], side))
        deep = [
            (k, s, refs[k]) for k, s in samples if abs(k) >= POINTWISE_DEPTH
        ]
        results[side] = (extrapolated, deep)
    elapsed = time.perf_counter() - t0
    for side, (extrapolated, deep) in results.items():
        ratios = ", ".join(f"{s / r:.4f}@{abs(k):.0f}" for k, s, r in deep)
        print(f"[5] {side} wing: extrapolated {extrapolated:.5f} "
              f"(target 0.5 within 2%); sample/reference {ratios} "
              f"(tol 3%); {elapsed:.2f}s (budget 10s)")

    worst_iv = 0.0
    gaps = []
    for p in deep_smile.points:
        if p.kappa == 0.0:
            continue
        mag = abs(p.kappa)
        iv = _laplace_oracle_ivol(mag)
        worst_iv = max(worst_iv, float(abs(p.ivol / iv - 1)))
        if p.kappa > 0.0:
            # reference -|kappa| / (2 ln tail) with tail = e^-|kappa| / 2
            ref = mag / (2.0 * (mag + math.log(2.0)))
            oracle_gap = float(iv**2 / mag / ref - 1)
            gaps.append((mag, p.ivol**2 / mag / ref - 1.0, oracle_gap))
    shown = ", ".join(f"{g:.4f}/{o:.4f}@{k:.0f}" for k, g, o in gaps)
    print(f"[5] mpmath oracle: deep-wing ivol max rel err {worst_iv:.3e} "
          f"(tol 1e-10); slope gap measured/oracle {shown}")

    assert elapsed < 10.0
    assert worst_iv < 1e-10
    for side, (extrapolated, deep) in results.items():
        assert abs(extrapolated - 0.5) < 0.02 * 0.5
        assert deep, f"{side} deep wing has no samples at depth {POINTWISE_DEPTH}"
        for k, sample, ref in deep:
            assert abs(sample - ref) <= 0.03 * ref, (
                f"{side} sample {sample:.5f} vs reference {ref:.5f} "
                f"at kappa {k:.1f}: off by {abs(sample / ref - 1):.1%}"
            )


def test_06_nig_wing_slopes_and_strip_probe():
    """Centered NIG(2, 0.5): right slope within 5% of 1/3, left within
    5% of 1/5, and the MGF blow-up probe recovers both strip boundaries
    (1.5 and 2.5) to 1e-3.  Budget 60 seconds."""
    t0 = time.perf_counter()
    model = nig_model(2.0, 0.5, 1.0)
    wing = np.geomspace(5.0 * model.scale, 40.0 * model.scale, 12)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    smile = smile_from_model(model, grid)
    right = wing_slope(smile, "right").extrapolated_slope
    left = wing_slope(smile, "left").extrapolated_slope
    probe_r = mgf_blowup_boundary(model, "right")
    probe_l = mgf_blowup_boundary(model, "left")
    elapsed = time.perf_counter() - t0
    print(f"[6] NIG wings: right {right:.5f} (1/3 within 5%), "
          f"left {left:.5f} (1/5 within 5%); strip probe "
          f"{probe_r:.6f}/{probe_l:.6f} (1.5/2.5 within 1e-3); "
          f"{elapsed:.1f}s (budget 60s)")
    assert abs(right - 1.0 / 3.0) < 0.05 / 3.0
    assert abs(left - 0.2) < 0.05 * 0.2
    assert abs(probe_r - 1.5) < 1e-3
    assert abs(probe_l - 2.5) < 1e-3
    assert elapsed < 60.0


def test_07_engine_agreement_and_damping():
    """Both price engines agree within their combined error estimates at
    50 grid points per model, and the damped-transform price is
    invariant to the damping choice within 1e-9."""
    models = {
        "gaussian": (gaussian_model(1.0), (0.4, 1.1)),
        "exponential-tails": (asym_laplace_model(1.0, 1.0), (0.3, 0.8)),
        "nig": (nig_model(2.0, 0.5, 1.0), (0.5, 1.1)),
    }
    violations = 0
    worst_damp = 0.0
    for name, (model, alphas) in models.items():
        for k in np.linspace(-12.0, 12.0, 50):
            a = price_from_tail(model, float(k))
            b = price_from_cf(model, float(k))
            if abs(a.call - b.call) > a.abs_error_estimate + b.abs_error_estimate:
                violations += 1
        for k in (0.0, 1.0, 5.0, -7.0):
            pa = price_from_cf(model, k, alphas[0]).call
            pb = price_from_cf(model, k, alphas[1]).call
            worst_damp = max(worst_damp, abs(pa - pb))
    print(f"[7] engine agreement: {violations} violations (tol 0); "
          f"damping invariance max diff {worst_damp:.3e} (tol 1e-9)")
    assert violations == 0
    assert worst_damp < 1e-9


def test_08_asymptotic_residual_diagnostics():
    """Exponential-tail oracle residuals: the displacement ratio at
    depth 40 sits within 0.05 of 1/2 and the leading-term residual
    fraction decreases over the outer half of the 5-40 wing; on the deep
    wing from 50 to 400 it stays below 0.1 while decreasing.  For this
    oracle the fraction is the slope gap of test_05, which decays like
    ln kappa / kappa and first drops below 0.1 at kappa ~ 40.3."""
    _, smile = _laplace_wing_smile()
    residuals = asymptotic_residuals(smile)
    outer = residuals[len(residuals) // 2:]
    outer_ratios = [abs(r.eps1) / r.target for r in outer]
    _, deep_smile = _laplace_wing_smile(DEEP_LAPLACE_WING)
    deep = asymptotic_residuals(deep_smile)
    deep_ratios = [abs(r.eps1) / r.target for r in deep]
    d40 = residuals[-1].d_ratio

    def shown(ratios, points):
        return ", ".join(f"{r:.4f}@{p.kappa:.0f}" for r, p in zip(ratios, points))

    print(f"[8] residuals: d_ratio(40) = {d40:.6f} (1/2 within 0.05); "
          f"|eps1|/target over outer grid {shown(outer_ratios, outer)} "
          f"(decreasing={_decreasing(outer_ratios)}); over deep wing "
          f"{shown(deep_ratios, deep)} (tol < 0.1, "
          f"decreasing={_decreasing(deep_ratios)})")
    assert abs(d40 - 0.5) < 0.05
    assert _decreasing(outer_ratios)
    assert len(deep) == len(DEEP_LAPLACE_WING)
    assert _decreasing(deep_ratios)
    for r, p in zip(deep_ratios, deep):
        assert r < 0.1, (
            f"residual fraction {r:.6f} at kappa {p.kappa:.1f} "
            f"exceeds 0.1"
        )


def test_09_tail_growth_index():
    """Tail-growth index over depths [10, 100]: 1 within 0.05 for the
    exponential-tail model, 2 within 0.05 for the Gaussian through its
    log-tail oracle."""
    th_exp = rv_index(asym_laplace_model(1.0, 1.0), "right", 10.0, 100.0)
    th_gauss = rv_index(gaussian_model(1.0), "right", 10.0, 100.0)
    print(f"[9] tail growth index: exponential {th_exp:.4f} (1 +- 0.05), "
          f"gaussian {th_gauss:.4f} (2 +- 0.05)")
    assert abs(th_exp - 1.0) < 0.05
    assert abs(th_gauss - 2.0) < 0.05


def test_10_vega_matches_finite_differences():
    """Analytic vega against centered differences at 1e3 random points,
    1e-6 relative.  The difference is taken on the out-of-the-money
    instrument (identical to the call's by parity, since the intrinsic
    part carries no vol dependence) so the tiny time value is not
    absorbed by an order-one intrinsic in floating point; sampling keeps
    |kappa|/sigma <= 35 so prices stay in the normal floating range."""
    rng = np.random.default_rng(SEED)
    n = 1000
    kappa = np.empty(n)
    sigma = np.empty(n)
    filled = 0
    while filled < n:
        k = rng.uniform(-10.0, 10.0, n - filled)
        s = rng.uniform(0.01, 5.0, n - filled)
        keep = np.abs(k) / s <= 35.0
        cnt = int(np.sum(keep))
        kappa[filled:filled + cnt] = k[keep]
        sigma[filled:filled + cnt] = s[keep]
        filled += cnt

    def otm(k, s):
        return np.where(k >= 0.0, call_price(k, s), put_price(k, s))

    h = sigma * 6e-7
    fd = (otm(kappa, sigma + h) - otm(kappa, sigma - h)) / (2.0 * h)
    worst = float(np.max(np.abs(fd - vega(kappa, sigma)) / vega(kappa, sigma)))
    print(f"[10] vega vs finite differences: max rel err {worst:.3e} (tol 1e-6)")
    assert worst < 1e-6
