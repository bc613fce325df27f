"""Pricing engine checks: each engine against closed-form and mpmath
oracles, the two engines against each other (at fixed points and on
random NIG models), parity, convexity, truncation soundness, damping
invariance, the Fourier engine's char_fn work count, and smile assembly
with per-point failure handling (checked point by point against the
scalar solvers, in one batched inversion), serial and threaded.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachelier_wings import pricing
from bachelier_wings.bachelier import call_price
from bachelier_wings.errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DampingOutsideStrip,
    DomainError,
    UnsupportedModel,
)
from bachelier_wings.inversion import implied_vol_call, implied_vol_put
from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import (
    DEFAULT_SETTINGS,
    PriceQuote,
    QuadratureSettings,
    _default_alpha,
    log_call_price_from_tail,
    log_put_price_from_tail,
    price_from_cf,
    price_from_tail,
    price_grid,
    smile_from_model,
)
from bachelier_wings.wings import theorem_verdicts

GAUSS1 = gaussian_model(1.0)
GAUSS2 = gaussian_model(2.0)
LAPLACE = asym_laplace_model(1.0, 1.0)
SKEWED = asym_laplace_model(1.0, 2.0)
NIG = nig_model(2.0, 0.5, 1.0)


# =============================================================================
# settings validation
# =============================================================================

def test_settings_validation():
    with pytest.raises(DomainError):
        QuadratureSettings(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSettings(rel_tol=1.0)
    with pytest.raises(DomainError):
        QuadratureSettings(truncation_guard=-1e-10)
    with pytest.raises(DomainError):
        QuadratureSettings(max_subdivisions=15)
    QuadratureSettings(max_subdivisions=16)  # boundary allowed


# =============================================================================
# tail-integral engine
# =============================================================================

def test_tail_gaussian_matches_closed_form():
    # the model-implied price of a unit Gaussian must be the pricing core
    q = price_from_tail(GAUSS1, 1.0)
    assert q.method == "tail_integral"
    assert q.call == pytest.approx(call_price(1.0, 1.0), abs=1e-13)
    assert q.abs_error_estimate < 1e-10


def test_tail_laplace_matches_closed_form():
    q = price_from_tail(LAPLACE, 1.0)
    assert q.call == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-12)
    q = price_from_tail(LAPLACE, 0.0)
    assert q.call == pytest.approx(0.5, rel=1e-12)
    assert q.put == pytest.approx(0.5, rel=1e-12)


def test_tail_deep_itm_approaches_intrinsic():
    q = price_from_tail(GAUSS2, -20.0)
    assert q.call == pytest.approx(20.0, abs=1e-10)


@pytest.mark.parametrize("model", [GAUSS2, LAPLACE, SKEWED, NIG], ids=lambda m: m.name)
def test_tail_parity(model):
    for k in (-6.0, -1.3, 0.0, 0.8, 4.0, 11.0):
        q = price_from_tail(model, k)
        assert abs(q.call - q.put + k) <= 10.0 * q.abs_error_estimate


@pytest.mark.parametrize("model", [GAUSS2, LAPLACE, NIG], ids=lambda m: m.name)
def test_tail_convexity(model):
    ks = np.linspace(-6.0, 6.0, 25)
    calls = np.array([price_from_tail(model, float(k)).call for k in ks])
    second = np.diff(calls, 2)
    assert np.all(second >= -1e-10)


def test_tail_truncation_soundness():
    tight = QuadratureSettings(truncation_guard=1e-14)
    loose = QuadratureSettings(truncation_guard=1e-8)
    for model in (LAPLACE, GAUSS2):
        a = price_from_tail(model, 2.0, tight).call
        b = price_from_tail(model, 2.0, loose).call
        assert abs(a - b) < 1e-8


def test_tail_requires_exponential_moments():
    crippled = dataclasses.replace(LAPLACE, satisfies_ir=False)
    with pytest.raises(UnsupportedModel):
        price_from_tail(crippled, 1.0)
    crippled = dataclasses.replace(LAPLACE, satisfies_il=False)
    with pytest.raises(UnsupportedModel):
        price_from_tail(crippled, 1.0)


def test_tail_reports_unreachable_tolerance():
    impossible = QuadratureSettings(abs_tol=1e-18, rel_tol=1e-16)
    with pytest.raises(AccuracyNotReached) as err:
        price_from_tail(NIG, 1.0, impossible)
    assert err.value.achieved > 0.0


# =============================================================================
# damped Fourier engine
# =============================================================================

def test_cf_gaussian_matches_closed_form():
    q = price_from_cf(GAUSS1, 1.0, 1.0)
    assert q.method == "fourier"
    assert q.call == pytest.approx(call_price(1.0, 1.0), abs=1e-8)


def test_cf_laplace_matches_closed_form():
    q = price_from_cf(LAPLACE, 2.0, 0.5)
    assert q.call == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-10)
    q = price_from_cf(LAPLACE, -3.0, -0.5)
    assert q.put == pytest.approx(math.exp(-3.0) / 2.0, rel=1e-10)
    assert q.call - q.put == pytest.approx(3.0, abs=1e-12)


def test_cf_damping_window_enforced():
    with pytest.raises(DampingOutsideStrip):
        price_from_cf(LAPLACE, 1.0, 0.0)
    with pytest.raises(DampingOutsideStrip):
        price_from_cf(LAPLACE, 1.0, 1.0)  # right boundary is a pole
    with pytest.raises(DampingOutsideStrip):
        price_from_cf(LAPLACE, -1.0, -1.0)
    with pytest.raises(DampingOutsideStrip):
        price_from_cf(NIG, 1.0, 1.5)
    # infinite strip takes any positive damping
    q = price_from_cf(GAUSS1, 1.0, 5.0)
    assert q.call == pytest.approx(call_price(1.0, 1.0), abs=1e-8)


@pytest.mark.parametrize(
    "model, a1, a2",
    [(GAUSS2, 0.4, 1.1), (LAPLACE, 0.3, 0.8), (NIG, 0.5, 1.1)],
    ids=["gaussian", "asym_laplace", "nig"],
)
def test_cf_damping_invariance(model, a1, a2):
    for k in (0.0, 1.0, 5.0, 12.0, -7.0):
        qa = price_from_cf(model, k, a1)
        qb = price_from_cf(model, k, a2)
        assert abs(qa.call - qb.call) < 1e-9
        assert abs(qa.put - qb.put) < 1e-9


@pytest.mark.parametrize("model, alpha", [(GAUSS2, 0.5), (LAPLACE, 0.5), (NIG, 0.75)],
                         ids=lambda x: getattr(x, "name", x))
def test_engines_agree_within_estimates(model, alpha):
    for k in (-15.0, -7.0, -1.5, 0.0, 0.7, 3.0, 9.0, 18.0):
        qt = price_from_tail(model, k)
        qc = price_from_cf(model, k, alpha if k >= 0 else -alpha)
        diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
        assert diff <= qt.abs_error_estimate + qc.abs_error_estimate


def test_cf_alpha_near_boundary_stays_stable():
    inner = price_from_cf(LAPLACE, 3.0, 0.5)
    near = price_from_cf(LAPLACE, 3.0, 0.97)
    assert near.call == pytest.approx(inner.call, rel=1e-9)


# Near-money NIG calls that a finite-interval QAWO rule got wrong
# (1.1076e-6 and 6.981e-6) while estimating its error near 1e-17; both
# have |kappa| * cutoff = 128.  Reference calls: 30-digit mpmath, from the
# normal variance-mean mixture integral.
NIG_NEAR_MONEY_ORACLES = [
    ((2.548205756643636, -1.1746241491521126, 1.4352346333062507),
     3.5909568867670196, 2.98094496254953e-6),
    ((1.8306736121361125, -0.7454824954401268, 1.954888119824199),
     4.735578734787866, 8.87695719976146e-6),
]


@pytest.mark.parametrize("params, kappa, call", NIG_NEAR_MONEY_ORACLES)
def test_cf_nig_near_money_matches_mpmath(params, kappa, call):
    model = nig_model(*params)
    qc = price_from_cf(model, kappa, _default_alpha(model, kappa))
    qt = price_from_tail(model, kappa)
    assert qc.call == pytest.approx(call, rel=1e-9)
    assert abs(qc.call - qt.call) <= qc.abs_error_estimate + qt.abs_error_estimate


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(1.0, 4.0),
    skew=st.floats(-0.6, 0.6),
    delta=st.floats(0.5, 2.0),
)
def test_engines_agree_on_random_nig_near_money(alpha, skew, delta):
    model = nig_model(alpha, skew * alpha, delta)
    for j in range(-4, 5):
        k = j * model.scale
        qt = price_from_tail(model, k)
        qc = price_from_cf(model, k, _default_alpha(model, k))
        diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
        assert diff <= qt.abs_error_estimate + qc.abs_error_estimate, k


def test_cf_panel_budget_exhaustion_raises():
    # 16 subdivisions allow 64 * 16 = 1024 panel evaluations, fewer than
    # the ~1100 half-period panels that kappa = 80 needs over U ~ 43
    with pytest.raises(AccuracyNotReached) as err:
        price_from_cf(NIG, 80.0, 1.35, QuadratureSettings(max_subdivisions=16))
    assert err.value.achieved == math.inf
    q = price_from_cf(NIG, 80.0, 1.35)
    assert 0.0 < q.call < 1e-50


# =============================================================================
# Fourier engine work count (machine-independent)
# =============================================================================

def _counting_char_fn(model):
    calls = [0, 0]  # all calls, calls with a 0-d argument

    def char_fn(xi):
        calls[0] += 1
        calls[1] += np.ndim(xi) == 0
        return model.char_fn(xi)

    return dataclasses.replace(model, char_fn=char_fn), calls


@pytest.mark.parametrize("params", [(2.0, 0.5, 1.0), (1.1, 0.3, 0.5), (4.0, -2.4, 2.0)])
def test_cf_char_fn_calls_per_price(params):
    # char_fn takes whole node arrays: a price costs one call for the
    # cutoff ladder plus one per bisection round
    model, calls = _counting_char_fn(nig_model(*params))
    for j in (-45, -12, -4, -1, 0, 1, 4, 12, 45):
        k = j * model.scale
        calls[0] = 0
        price_from_cf(model, k, _default_alpha(model, k))
        assert 0 < calls[0] <= 20, k


def test_nig_report_char_fn_calls():
    model, calls = _counting_char_fn(NIG)
    report = theorem_verdicts(model)
    assert report["failed_points"] == 0
    assert calls[0] < 1000
    assert calls[1] == 0  # the cutoff search evaluates its whole ladder at once


# =============================================================================
# log-space tail prices
# =============================================================================

def test_log_tail_prices_match_closed_forms():
    # symmetric laplace: call(k) = e^(-k)/2 for k >= 0
    got = log_call_price_from_tail(LAPLACE, 10.0)
    assert got == pytest.approx(math.log(0.5) - 10.0, abs=1e-10)
    got = log_put_price_from_tail(LAPLACE, -14.0)
    assert got == pytest.approx(math.log(0.5) - 14.0, abs=1e-10)
    got = log_call_price_from_tail(GAUSS1, 5.0)
    assert got == pytest.approx(math.log(call_price(5.0, 1.0)), abs=1e-9)


def test_log_tail_prices_deep_past_underflow():
    # linear representation dies near d ~ 38; the log channel keeps going
    val = log_call_price_from_tail(GAUSS1, 60.0)
    assert -1810.0 < val < -1790.0  # -d^2/2 - ln(...) ballpark at d=60
    val = log_call_price_from_tail(LAPLACE, 900.0)
    assert val == pytest.approx(math.log(0.5) - 900.0, abs=1e-9)


def test_log_tail_wrong_side_rejected():
    with pytest.raises(DomainError):
        log_call_price_from_tail(LAPLACE, -1.0)
    with pytest.raises(DomainError):
        log_put_price_from_tail(LAPLACE, 1.0)


# =============================================================================
# smile assembly
# =============================================================================

def test_smile_gaussian_is_flat():
    sm = smile_from_model(GAUSS2, np.linspace(-5.0, 5.0, 11))
    assert len(sm) == 11
    for p in sm.points:
        assert p.status == "ok"
        assert p.ivol == pytest.approx(2.0, abs=1e-9)


def test_smile_empty_grid():
    sm = smile_from_model(GAUSS2, [])
    assert len(sm) == 0


def test_smile_laplace_slope_settles_toward_half():
    # exponential tails: I(k)^2/k comes down onto 1/(2 lambda) from above
    sm = smile_from_model(LAPLACE, [5.0, 10.0, 20.0, 40.0])
    slopes = [p.ivol**2 / p.kappa for p in sm.points]
    assert slopes[0] > slopes[1] > slopes[2] > slopes[3] > 0.5
    assert slopes[3] == pytest.approx(0.5, abs=0.05)


def test_smile_routes_otm_side():
    sm = smile_from_model(SKEWED, [-4.0, 3.0])
    q_put = price_from_tail(SKEWED, -4.0)
    q_call = price_from_tail(SKEWED, 3.0)
    assert sm.points[0].price == pytest.approx(q_put.put, rel=1e-12)
    assert sm.points[1].price == pytest.approx(q_call.call, rel=1e-12)


def test_smile_sorts_and_dedupes_grid():
    sm = smile_from_model(GAUSS1, [2.0, -1.0, 2.0, 0.0])
    assert [p.kappa for p in sm.points] == [-1.0, 0.0, 2.0]


def test_smile_marks_failed_points_and_continues():
    # kappa = 800 is far past double representability for sigma = 2
    sm = smile_from_model(GAUSS2, [0.0, 1.0, 800.0])
    statuses = [p.status for p in sm.points]
    assert statuses == ["ok", "ok", "failed"]
    failed = sm.points[2]
    assert math.isnan(failed.ivol)
    assert sm.points[0].ivol == pytest.approx(2.0, abs=1e-9)


def test_smile_deterministic():
    grid = np.geomspace(1.0, 25.0, 7)
    a = smile_from_model(NIG, grid)
    b = smile_from_model(NIG, grid)
    assert all(
        pa.price == pb.price and pa.ivol == pb.ivol
        for pa, pb in zip(a.points, b.points)
    )


def test_smile_threaded_matches_serial():
    # neither route (Fourier for NIG, tail integrals for the Laplace
    # model) shares mutable state between callers, so points priced
    # from several threads at once equal the serial ones
    for model in (NIG, asym_laplace_model(2.0, 0.7)):
        wing = np.geomspace(2.0, 30.0, 6) * model.scale
        grid = np.concatenate([-wing[::-1], [0.0], wing])
        serial = smile_from_model(model, grid)
        assert all(p.status == "ok" for p in serial.points)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(smile_from_model, model, [k]) for k in grid]
                futures += [pool.submit(smile_from_model, model, grid) for _ in range(3)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        singles = tuple(r.points[0] for r in results[:grid.size])
        assert singles == serial.points, model.name
        for r in results[grid.size:]:
            assert r.points == serial.points, model.name


# a grid on which tolerances of 1e-17 and 1e-20 fail some points and not others
MIXED_GRID = np.concatenate([np.linspace(-6.0, 6.0, 13), [10.0, 20.0, 30.0]])


@pytest.mark.parametrize("tol_iv", [1e-17, 1e-20])
@pytest.mark.parametrize("model", [GAUSS1, LAPLACE, NIG], ids=lambda m: m.name)
def test_smile_mixed_statuses_match_per_point_solvers(model, tol_iv):
    # the batched inversion gives every point what the scalar solvers
    # give on that point's out-of-the-money quote, failures included
    smile = smile_from_model(model, MIXED_GRID, tol_iv=tol_iv)
    kappas, quotes = price_grid(model, MIXED_GRID)
    assert [p.kappa for p in smile.points] == kappas.tolist()
    for p, k, q in zip(smile.points, kappas.tolist(), quotes):
        expected = None
        if q is not None:
            price = q.call if k >= 0.0 else q.put
            solve = implied_vol_call if k >= 0.0 else implied_vol_put
            try:
                expected = (price, math.log(price), solve(k, price, tol_iv).sigma)
            except BachelierWingsError:
                pass
        if expected is None:
            assert p.status == "failed", k
            assert all(math.isnan(v) for v in (p.price, p.log_price, p.ivol)), k
        else:
            assert p.status == "ok", k
            assert (p.price, p.log_price, p.ivol) == expected, k
    assert {p.status for p in smile.points} == {"ok", "failed"}


def test_smile_inverts_in_one_core_call(monkeypatch):
    sizes = []
    core = pricing._solve_otm_log

    def counting_core(k, log_tv, tol):
        sizes.append(k.size)
        return core(k, log_tv, tol)

    monkeypatch.setattr(pricing, "_solve_otm_log", counting_core)
    for model in (GAUSS1, LAPLACE, NIG):
        for grid in (MIXED_GRID, [], [0.0], [2.0, -1.0, 2.0]):
            sizes.clear()
            smile = smile_from_model(model, grid)
            assert len(sizes) == 1
            assert sizes[0] == sum(p.kappa != 0.0 for p in smile.points)


def test_smile_rejects_bad_tolerance():
    with pytest.raises(DomainError):
        smile_from_model(GAUSS1, [0.0], tol_iv=0.0)
    with pytest.raises(DomainError):
        smile_from_model(GAUSS1, [0.0, 1.0], tol_iv=math.inf)


def test_quote_fields():
    q = price_from_tail(GAUSS1, 0.0)
    assert isinstance(q, PriceQuote)
    assert q.kappa == 0.0
    assert q.call == pytest.approx(q.put, abs=1e-13)  # symmetric at the money
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.call = 1.0
