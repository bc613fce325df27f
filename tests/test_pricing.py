"""Pricing engine checks: each engine against closed-form and mpmath
oracles (both engines also on random Laplace models, the tail engine past
double underflow, the Fourier engine at its transform's centre), the two
engines against each other (at fixed points and on random NIG models),
parity, convexity, damping invariance, the Fourier engine's char_fn work
count (one call per level), the batched tail core (a grid equals its
points priced alone, a random batch the per-point reference, in few
log_pdf calls of bounded size, its float logaddexp numpy's, its decay
probe quiet on a zero density), NIG grids on
the tail core (checked against the Fourier engine, and priced where that
engine cannot), and smile
assembly with per-point failure handling (checked point by point against
the scalar solvers, in one batched inversion), serial and threaded.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import tracemalloc
import unittest.mock
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bachelier_wings import pricing
from bachelier_wings.bachelier import call_price, call_price_log
from bachelier_wings.errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DampingOutsideStrip,
    DomainError,
)
from bachelier_wings.inversion import implied_vol_call, implied_vol_call_log, implied_vol_put_log
from bachelier_wings.models import _DE_LEVELS, _DE_STEP, asym_laplace_model, gaussian_model, nig_model
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
from bachelier_wings.wings import VerdictSettings, theorem_verdicts

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


def _laplace_closed_form(lam_r, lam_l, kappa):
    # call and put of the centered asymmetric Laplace, 30 digits
    with mp.workdps(30):
        lr, ll, k = mp.mpf(lam_r), mp.mpf(lam_l), mp.mpf(kappa)
        z = k + 1 / lr - 1 / ll  # kappa past the kink
        if z >= 0:
            call = ll / (lr + ll) * mp.exp(-lr * z) / lr
            return call, call + k
        put = lr / (lr + ll) * mp.exp(ll * z) / ll
        return put - k, put


@settings(max_examples=100, deadline=None)
@given(lam_r=st.floats(0.3, 6.0), lam_l=st.floats(0.3, 6.0))
def test_tail_matches_random_laplace_closed_forms(lam_r, lam_l):
    model = asym_laplace_model(lam_r, lam_l)
    kink = 1.0 / lam_l - 1.0 / lam_r
    for k in (kink, kink - 1e-3, kink + 1e-3, 0.0, -3.0 * model.scale, 3.0 * model.scale):
        q = price_from_tail(model, k)
        call, put = _laplace_closed_form(lam_r, lam_l, k)
        otm, otm_ref = (q.call, call) if k >= 0.0 else (q.put, put)
        assert abs(otm - otm_ref) <= 1e-12 * otm_ref, k
        assert abs(q.call - call) <= q.abs_error_estimate, k
        assert abs(q.put - put) <= q.abs_error_estimate, k
        assert abs(q.call - q.put + k) <= 10.0 * q.abs_error_estimate, k


@settings(max_examples=100, deadline=None)
@given(lam_r=st.floats(0.3, 6.0), lam_l=st.floats(0.3, 6.0))
@example(lam_r=3.9007477241596726, lam_l=3.155291230952581)  # put by parity at -3 scales
def test_fourier_matches_random_laplace_closed_forms(lam_r, lam_l):
    # each leg, the one priced and the one parity derives, within its estimate
    model = asym_laplace_model(lam_r, lam_l)
    kink = 1.0 / lam_l - 1.0 / lam_r
    for k in (kink, kink - 1e-3, kink + 1e-3, 0.0, -3.0 * model.scale, 3.0 * model.scale):
        q = price_from_cf(model, k)
        call, put = _laplace_closed_form(lam_r, lam_l, k)
        assert type(q.abs_error_estimate) is float
        assert abs(q.call - call) <= q.abs_error_estimate, k
        assert abs(q.put - put) <= q.abs_error_estimate, k


def test_fourier_laplace_near_the_kink_matches_closed_form():
    # kappa 1.2e-3 left of the kink, where the transform decays
    # algebraically and barely turns: a cycle-by-cycle Fourier rule missed
    # this call by 3.1e-11 with an estimate of 1.1e-14
    lam_r, lam_l, k = 2.918214532446801, 0.655392601154291, 1.182127718382383
    model = asym_laplace_model(lam_r, lam_l)
    q = price_from_cf(model, k)
    call, put = _laplace_closed_form(lam_r, lam_l, k)
    assert float(call) == pytest.approx(0.0630296469116999, rel=1e-15)
    assert abs(q.call - call) <= q.abs_error_estimate < 1e-13
    assert abs(q.put - put) <= q.abs_error_estimate


@pytest.mark.parametrize("model", [GAUSS2, SKEWED, NIG], ids=lambda m: m.name)
@pytest.mark.parametrize("offset", [0.0, 1e-300, -1e-300, 1e-30, -1e-30, 1e-8, -1e-8])
def test_fourier_at_the_centre(model, offset):
    # kappa at the transform's centre (the kink, else the mean) or a hair
    # off it, where the rule's nodes u = v / |kappa - c| would run past the
    # double range: the exp-sinh rule takes over, without a warning
    c = model.breakpoints[0] if model.breakpoints else model.mean
    k = c + offset * model.scale
    q = price_from_cf(model, k)
    if model is SKEWED:
        call, put = _laplace_closed_form(1.0, 2.0, k)
        assert abs(q.call - call) <= q.abs_error_estimate
        assert abs(q.put - put) <= q.abs_error_estimate
    elif model is GAUSS2:
        assert abs(q.call - call_price(k, 2.0)) <= q.abs_error_estimate
        assert abs(q.put - call_price(-k, 2.0)) <= q.abs_error_estimate
    else:  # the tail engine at the same kappa
        qt = price_from_tail(model, k)
        diff = max(abs(qt.call - q.call), abs(qt.put - q.put))
        assert diff <= qt.abs_error_estimate + q.abs_error_estimate


@pytest.mark.parametrize("model", [GAUSS2, SKEWED, NIG], ids=lambda m: m.name)
@pytest.mark.parametrize("offset", [1e-300, -1e-300, 1e-30, -1e-30])
def test_tail_a_hair_off_the_mean(model, offset):
    # the first piece's tanh-sinh nodes dy underflow to 0 there; such a node
    # carries no weight, without a warning, and the quote is the mean's
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = price_from_tail(model, model.mean + offset * model.scale)
    q0 = price_from_tail(model, model.mean)
    assert abs(q.call - q0.call) <= q0.abs_error_estimate
    assert abs(q.put - q0.put) <= q0.abs_error_estimate


@pytest.mark.parametrize(
    "model, kappa",
    [(GAUSS2, 800.0), (GAUSS2, -800.0), (LAPLACE, 2000.0), (GAUSS1, 38.0)],
    ids=["gaussian+800", "gaussian-800", "laplace+2000", "gaussian+38-subnormal"],
)
def test_tail_past_underflow_keeps_intrinsic(model, kappa):
    # the out-of-the-money leg underflows to 0, also where it would be a
    # subnormal double (e^-730 at 38 sigma) too coarse to invert; the
    # other leg is intrinsic
    q = price_from_tail(model, kappa)
    otm, itm = (q.call, q.put) if kappa > 0.0 else (q.put, q.call)
    assert otm == 0.0
    assert abs(itm - abs(kappa)) <= q.abs_error_estimate


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
    for model, k, alpha, message in (
            (LAPLACE, 1.0, 0.0, "alpha = 0 is outside both damping windows"),
            (LAPLACE, 1.0, 1.0, "call damping needs 0 < alpha < 1, got 1"),  # right boundary is a pole
            (LAPLACE, -1.0, -1.0, "put damping needs -1 < alpha < 0, got -1"),
            (SKEWED, 1.0, -2.5, "put damping needs -2 < alpha < 0, got -2.5"),
            (NIG, 1.0, 1.5, "call damping needs 0 < alpha < 1.5, got 1.5")):
        with pytest.raises(DampingOutsideStrip) as err:
            price_from_cf(model, k, alpha)
        assert str(err.value) == message
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
    qc = price_from_cf(model, kappa)
    qt = price_from_tail(model, kappa)
    assert qc.call == pytest.approx(call, rel=1e-9)
    assert abs(qt.call - call) <= qt.abs_error_estimate
    assert abs(qc.call - qt.call) <= qc.abs_error_estimate + qt.abs_error_estimate


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(1.0, 4.0),
    skew=st.floats(-0.9, 0.9),
    delta=st.floats(0.5, 2.0),
)
def test_engines_agree_on_random_nig_near_money(alpha, skew, delta):
    model = nig_model(alpha, skew * alpha, delta)
    for j in range(-4, 5):
        k = j * model.scale
        qt = price_from_tail(model, k)
        qc = price_from_cf(model, k)
        diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
        assert diff <= qt.abs_error_estimate + qc.abs_error_estimate, k


def test_engines_agree_on_steep_nig_skew_four_scales_out():
    # damping at mid-strip left this put's roundoff floor (estimate
    # 1.04e-11) above the Fourier engine's 1e-11 gate; the saddle point
    # of e^(-alpha kappa) M(alpha) clears it
    model = nig_model(4.0, 3.5, 2.0)
    k = -4.0 * model.scale
    qt = price_from_tail(model, k)
    qc = price_from_cf(model, k)
    diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
    assert diff <= qt.abs_error_estimate + qc.abs_error_estimate


@pytest.mark.parametrize("model", [GAUSS2, SKEWED, NIG], ids=lambda m: m.name)
def test_cf_damps_at_the_default_alpha_unless_given_one(model):
    # alpha=None is _default_alpha's saddle, bit for bit; a non-finite kappa still
    # raises DomainError, and an explicit alpha is still checked against the strip
    for k in (-8.0, -1.0, 0.0, 0.5, 3.0):
        k *= model.scale
        assert price_from_cf(model, k) == price_from_cf(model, k, _default_alpha(model, k))
    for k in (math.inf, math.nan):
        with pytest.raises(DomainError):
            price_from_cf(model, k)
    with pytest.raises(DampingOutsideStrip):
        price_from_cf(model, 1.0, 0.0)


def test_default_alpha_is_the_clamped_saddle_point():
    # Gaussian: d ln M / d alpha = sigma^2 alpha, so the saddle is kappa / sigma^2,
    # clamped to [0.05, 0.9] of 10 / sigma on the out-of-the-money side
    model = GAUSS2
    assert _default_alpha(model, 8.0) == pytest.approx(2.0, rel=1e-6)
    assert _default_alpha(model, -8.0) == pytest.approx(-2.0, rel=1e-6)
    assert _default_alpha(model, 0.0) == pytest.approx(0.25)
    assert _default_alpha(model, -100.0) == pytest.approx(-4.5)


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
    # char_fn takes whole node arrays: a price costs one call per level of
    # the rule, at most one per level of the tail core's ladder
    model, calls = _counting_char_fn(nig_model(*params))
    for j in (-45, -12, -4, -1, 0, 1, 4, 12, 45):
        k = j * model.scale
        calls[0] = 0
        price_from_cf(model, k)
        assert 0 < calls[0] <= len(_DE_LEVELS), k
        assert calls[1] == 0  # each level evaluates all its nodes at once


# =============================================================================
# batched tail core: a grid is its points priced alone, in few log_pdf calls
# =============================================================================

def _counting_log_pdf(model, nan_where=None):
    sizes = []  # argument size of each call

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        sizes.append(x.size)
        out = model.log_pdf(x)
        return out if nan_where is None else np.where(nan_where(x), math.nan, out)

    return dataclasses.replace(model, log_pdf=log_pdf), sizes


def _priced_alone(model, k):
    try:
        return price_from_tail(model, k)
    except AccuracyNotReached:
        return None


def _piece_ends(model, k, sign):
    # (y, x) where each piece of the core's integral at (k, sign) starts
    cuts = [model.mean, *model.breakpoints]
    if sign * (model.mean - k) > pricing._BULK_SCALES * model.scale:
        cuts.append(model.mean - sign * pricing._BULK_SCALES * model.scale)
    return [(0.0, k), *sorted({sign * (x - k): x for x in cuts if sign * (x - k) > 0.0}.items())]


def _half_line_length(model, x_end, sign):
    # the exp-sinh half-line's length past the last cut x_end: the local
    # decay length of the density there, at most one scale
    delta = 1e-3 * model.scale
    lf0, lf1 = model.log_pdf(x_end + np.array([0.0, sign * delta]))
    return 1.0 / max(1.0 / model.scale, (lf0 - lf1) / delta)


def _reference_log_payoff_integral(model, k, sign, abs_tol, rel_tol):
    # the per-point loop the batched core replaced, kept as its reference:
    # (ln S, error estimate), or None where it ran out of levels
    ends = _piece_ends(model, k, sign)
    ya, xa = np.array(ends).T[:, :, None]
    length = np.append(np.diff(ya[:, 0]), _half_line_length(model, xa[-1, 0], sign))[:, None]
    rows = [0] * (len(ends) - 1) + [1]
    log_sum = prev = -math.inf
    for level, (unit, unit_logw) in enumerate(_DE_LEVELS):
        dy = length * unit[rows]
        terms = unit_logw[rows] + np.log(length) + np.log(ya + dy) + model.log_pdf(xa + sign * dy)
        peak = terms.max()
        if peak != -math.inf:
            log_sum = np.logaddexp(log_sum, peak + math.log(np.exp(terms - peak).sum()))
        ln_s = float(log_sum) + math.log(_DE_STEP / (1 << level))
        if ln_s == -math.inf:
            return ln_s, 0.0
        if level:
            err = abs(math.expm1(prev - ln_s)) + pricing._ROUNDOFF_FLOOR
            if err <= rel_tol or err * math.exp(ln_s) < abs_tol:
                return ln_s, err
        prev = ln_s
    return None


def _reference_quote(model, k):
    legs = [_reference_log_payoff_integral(model, k, sign, 1e-13, 1e-11) for sign in (1, -1)]
    if None in legs:
        return None
    (ln_call, err_call), (ln_put, err_put) = legs
    tiny = np.finfo(float).tiny
    call, put = (p if p >= tiny else 0.0 for p in (math.exp(ln_call), math.exp(ln_put)))
    return PriceQuote(kappa=k, call=call, put=put, method="tail_integral",
                      abs_error_estimate=max(err_call * call, err_put * put))


@st.composite
def _tail_model_and_grid(draw):
    if draw(st.booleans()):
        model = gaussian_model(draw(st.floats(0.2, 5.0)))
        kink, deep_right, deep_left = 0.0, 40.0 * model.scale, -40.0 * model.scale
    else:
        lam_r, lam_l = draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 6.0))
        model = asym_laplace_model(lam_r, lam_l)
        kink, deep_right, deep_left = 1.0 / lam_l - 1.0 / lam_r, 760.0 / lam_r, -760.0 / lam_l
    s = model.scale
    wings = draw(st.lists(st.floats(0.1, 60.0), min_size=2, max_size=8))
    grid = [kink, kink - 1e-3 * s, kink + 1e-3 * s, 0.0, deep_left, deep_right,
            *(w * s for w in wings), *(-w * s for w in wings[::2])]
    # one point whose call leg sees NaN just right of it, away from every cut,
    # from every tanh-sinh piece's midpoint (its t = 0 node, at x = 0.8 for a
    # piece from 1.6 to 0) and from every exp-sinh half-line's t = 0 node (one
    # half-line length past the last cut), where no other integral has nodes
    fail_at = draw(st.floats(-30.0, 30.0)) * s
    cuts = (kink, 0.0, 8.0 * s, -8.0 * s)
    assume(min(abs(fail_at - c) for c in cuts) > 1e-6 * s)
    grid = grid + [fail_at]
    centre_nodes = []
    for k in grid:
        for sign in (1.0, -1.0):
            ends = _piece_ends(model, k, sign)
            centre_nodes += [0.5 * (a + b) for (_, a), (_, b) in itertools.pairwise(ends)]
            x_end = ends[-1][1]
            centre_nodes.append(x_end + sign * _half_line_length(model, x_end, sign))
    assume(min(abs(fail_at - x) for x in centre_nodes) > 1e-6 * s)
    return model, grid, fail_at


@settings(max_examples=60, deadline=None)
@given(case=_tail_model_and_grid())
def test_price_grid_entries_equal_points_priced_alone(case):
    model, grid, fail_at = case
    kappas, quotes = price_grid(model, grid)
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(model, k)) == repr(_reference_quote(model, k)), k
    window = 1e-9 * model.scale
    poisoned, _ = _counting_log_pdf(model, lambda x: (x > fail_at) & (x < fail_at + window))
    kappas, quotes = price_grid(poisoned, grid)
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(poisoned, k)), k
    assert [k for k, q in zip(kappas.tolist(), quotes) if q is None] == [fail_at]


def test_poisoned_piece_midpoint_fails_every_integral_through_it():
    # the put at 8 has a bulk piece from 1.6 to 0 whose midpoint node sits
    # in the NaN window right of 0.8, so both quotes fail, as priced alone
    model = gaussian_model(0.2)
    poisoned, _ = _counting_log_pdf(model, lambda x: (x > 0.8) & (x < 0.8 + 1e-9 * model.scale))
    grid = [0.0, 2e-4, -2e-4, -8.0, 8.0, 0.2, 0.2, -0.2, 0.8]
    kappas, quotes = price_grid(poisoned, grid)
    assert [k for k, q in zip(kappas.tolist(), quotes) if q is None] == [0.8, 8.0]
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(poisoned, k)), k


def test_poisoned_half_line_node_fails_every_integral_through_it():
    # every put at kappa >= 0 ends in an exp-sinh half-line from the mean
    # whose length, 1/(1/scale), rounds one ulp below the scale, so its t = 0
    # node sits in the NaN window right of -scale; those quotes fail too, as
    # priced alone
    s = 1.9547988245316494
    model = gaussian_model(s)
    poisoned, _ = _counting_log_pdf(model, lambda x: (x > -s) & (x < -s + 1e-9 * s))
    grid = [0.0, 1e-3 * s, s, -s, -40.0 * s, 3.0 * s]
    kappas, quotes = price_grid(poisoned, grid)
    assert [k for k, q in zip(kappas.tolist(), quotes) if q is None] == [-s, 0.0, 1e-3 * s, s, 3.0 * s]
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(poisoned, k)), k


def test_report_grid_takes_few_log_pdf_calls():
    # one call probes every decay rate, then one per refinement level
    model, sizes = _counting_log_pdf(asym_laplace_model(2.0, 0.7))
    report = theorem_verdicts(model)
    assert report["failed_points"] == 0
    assert len(sizes) <= 10


def test_nan_density_grid_fails_every_point_in_bounded_calls():
    # every integral runs to the last level; the passes' blocks of whole
    # integrals keep each call within the cap, or one integral (at most four
    # pieces at the finest level) where that alone passes it
    model, sizes = _counting_log_pdf(LAPLACE, lambda x: np.ones(x.shape, dtype=bool))
    kappas, quotes = price_grid(model, np.linspace(-30.0, 30.0, 61))
    assert quotes == [None] * 61
    assert max(sizes) <= max(pricing._MAX_TAIL_NODES_PER_CALL, 4 * _DE_LEVELS[-1][0].shape[1])
    with pytest.raises(AccuracyNotReached, match="tail quadrature error nan"):
        price_from_tail(model, 1.0)


def test_smile_whose_every_point_fails_before_inversion():
    # no quote reaches the inversion, which solves an empty batch
    model, _ = _counting_log_pdf(LAPLACE, lambda x: np.ones(x.shape, dtype=bool))
    smile = smile_from_model(model, [-2.0, -0.5, 0.0, 0.5, 2.0])
    assert [p.status for p in smile.points] == ["failed"] * 5
    assert all(math.isnan(v) for p in smile.points for v in (p.price, p.log_price, p.ivol))


@pytest.mark.parametrize("model", [NIG, nig_model(3.5744, -3.3765, 1.3122)], ids=["nig", "nig_skewed"])
def test_price_grid_entries_equal_points_priced_alone_nig(model):
    # in-the-money legs add the mean's cut and, past eight scales, the
    # bulk's edge, so the batch mixes integrals of one, two and three pieces
    s = model.scale
    grid = [model.mean, 0.0, *(w * s for w in (-30.0, -9.0, -3.0, -1e-3, 1e-3, 2.0, 8.5, 25.0))]
    counts = {len(_piece_ends(model, k, sign)) for k in grid for sign in (1.0, -1.0)}
    assert counts == {1, 2, 3}
    kappas, quotes = price_grid(model, grid)
    assert None not in quotes
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(model, k)), k


def test_chunked_price_grid_entries_equal_points_priced_alone():
    # 400 kappas, both legs: level 0 alone passes the node cap, so each pass
    # runs over blocks of whole integrals, one log_pdf call each
    base = asym_laplace_model(2.0, 0.7)
    model, sizes = _counting_log_pdf(base)
    grid = np.linspace(-30.0, 30.0, 400) * base.scale
    pieces = sum(len(_piece_ends(base, k, sign)) for k in grid.tolist() for sign in (1.0, -1.0))
    assert pieces * _DE_LEVELS[0][0].shape[1] > pricing._MAX_TAIL_NODES_PER_CALL
    kappas, quotes = price_grid(model, grid)
    assert max(sizes) <= pricing._MAX_TAIL_NODES_PER_CALL
    assert sizes[1] < pieces * _DE_LEVELS[0][0].shape[1]  # level 0 took more than one call
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(base, k)), k


_FAMILIES = {"gaussian": gaussian_model, "laplace": asym_laplace_model, "nig": nig_model}
_ZERO_CASE = ("gaussian", (1.0,), [0.0, -2.0, 3.0], "otm", "cliff", 1e-13, None)


@st.composite
def _core_case(draw):
    # (family, params, kappas, legs, density, abs_tol, node cap): legs "otm"
    # puts each kappa on its side of the mean (one piece each but across a
    # Laplace kink), "both" adds the in-the-money leg (two or three pieces,
    # four across a kink); density "nan" poisons a window, "cliff" is -inf
    # right of a point but at the probes
    family = draw(st.sampled_from(sorted(_FAMILIES)))
    if family == "gaussian":
        params = (draw(st.floats(0.2, 5.0)),)
    elif family == "laplace":
        params = (draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 6.0)))
    else:
        alpha = draw(st.floats(0.8, 4.0))
        params = (alpha, alpha * draw(st.floats(-0.8, 0.8)), draw(st.floats(0.3, 2.0)))
    wings = draw(st.lists(st.floats(0.05, 45.0), max_size=10))
    kappas = [w * side for w, side in zip(wings, itertools.cycle([1.0, -1.0]))]  # in scales
    if draw(st.booleans()):
        kappas += [0.0, 1e-3, -1e-3]
    return (family, params, kappas, draw(st.sampled_from(["otm", "both"])),
            draw(st.sampled_from(["plain", "nan", "cliff"])), draw(st.sampled_from([0.0, 1e-13])),
            draw(st.sampled_from([None, 300, 2000])))


@settings(max_examples=60, deadline=None)
@given(case=_core_case())
@example(case=_ZERO_CASE)
@example(case=("nig", (2.0, 0.5, 1.0), [], "both", "plain", 1e-13, None))  # the empty batch
@example(case=("nig", (2.0, 0.5, 1.0), [-30.0, -9.0, -3.0, 2.0, 8.5, 25.0], "both", "nan", 0.0, 300))
# large batches, 500 integrals in each leg layout, their passes in blocks under the cap
@example(case=("laplace", (2.0, 0.7), np.linspace(-40.0, 40.0, 250).tolist(), "both", "plain", 1e-13, None))
@example(case=("gaussian", (1.3,), np.linspace(-40.0, 40.0, 500).tolist(), "otm", "nan", 0.0, None))
def test_tail_core_equals_the_reference_on_random_batches(case):
    # every integral of a batch, one or many pieces, converged, zero or
    # failed, equals the per-point reference bit for bit, under either
    # tolerance and with or without a small node cap blocking the passes;
    # the core returns float ln S and estimates and a bool mask, empty or not
    family, params, scales, legs, density, abs_tol, cap = case
    base = _FAMILIES[family](*params)
    s, mean = base.scale, base.mean
    kappas = [mean + w * s for w in scales]
    ks, signs = (np.repeat(kappas, 2), np.tile([1.0, -1.0], len(kappas))) if legs == "both" else (
        np.array(kappas), np.array([1.0 if k >= mean else -1.0 for k in kappas]))
    if density == "nan":
        base, _ = _counting_log_pdf(base, lambda x: (x > mean + 0.7 * s) & (x < mean + 0.7 * s + 1e-2 * s))
    elif density == "cliff":
        # finite left of the cliff and at every probe point, so no probe reads -inf - -inf
        ends = [_piece_ends(base, k, sign)[-1][1] for k, sign in zip(ks.tolist(), signs.tolist())]
        delta = 1e-3 * s
        probes = np.array([*ends, *(x + sign * delta for x, sign in zip(ends, signs.tolist()))])
        plain = base.log_pdf
        base = dataclasses.replace(base, log_pdf=lambda x: np.where(
            (x < mean - 0.5 * s) | np.isin(x, probes), plain(x), -math.inf))
    model, sizes = _counting_log_pdf(base)
    rel_tol = DEFAULT_SETTINGS.rel_tol
    cap = cap or pricing._MAX_TAIL_NODES_PER_CALL
    with unittest.mock.patch.object(pricing, "_MAX_TAIL_NODES_PER_CALL", cap):
        ln_s, err, done = pricing._log_payoff_integrals(model, ks, signs, abs_tol, rel_tol)
    assert ln_s.shape == err.shape == done.shape == ks.shape
    assert (ln_s.dtype, err.dtype, done.dtype) == (np.float64, np.float64, np.bool_)
    # a call holds at most the cap, or one integral (at most four pieces) past it
    fused = pricing._TAIL_PASSES[0][0].shape[1]
    assert max(sizes[1:2], default=0) <= max(cap, 4 * fused)  # the fused pass's first block
    assert max(sizes, default=0) <= max(cap, 4 * _DE_LEVELS[-1][0].shape[1])
    for k, sign, ln, e, ok in zip(ks.tolist(), signs.tolist(), ln_s.tolist(), err.tolist(), done.tolist()):
        with np.errstate(invalid="ignore"):  # the reference warns on NaN
            ref = _reference_log_payoff_integral(base, k, sign, abs_tol, rel_tol)
        assert ok == (ref is not None), (k, sign)
        if ok:
            assert repr((ln, e)) == repr(ref), (k, sign)
    if case == _ZERO_CASE:  # kappa 0's call is zero at every node: done at level 0
        assert (ln_s[0], err[0], done[0]) == (-math.inf, 0.0, True)


def test_tail_core_memory_does_not_grow_with_the_batch():
    # each pass builds its nodes and terms per block of whole integrals under
    # the node cap, so past the cap one call's traced peak grows only by the
    # per-integral bookkeeping: at most 1 KB an integral from 500 to 2,500
    # out-of-the-money legs run to rel_tol alone
    peaks = []
    with unittest.mock.patch.object(pricing, "_MAX_TAIL_NODES_PER_CALL", 4096):
        for n in (500, 2500):
            ks = np.linspace(-30.0, 30.0, n)
            signs = np.where(ks >= 0.0, 1.0, -1.0)
            pricing._log_payoff_integrals(GAUSS1, ks, signs, 0.0, DEFAULT_SETTINGS.rel_tol)
            tracemalloc.start()
            try:
                _, _, done = pricing._log_payoff_integrals(GAUSS1, ks, signs, 0.0, DEFAULT_SETTINGS.rel_tol)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert done.all()
    assert peaks[1] - peaks[0] <= 1024 * 2000, peaks


def test_tail_core_reads_a_zero_density_at_the_probe_quietly():
    # log_pdf is -inf at both decay probes past the cut, so their difference
    # is NaN, which reads 1 / scale; no warning (an error under the suite's
    # filter), and a leg with no density at any node is zero and done
    model = dataclasses.replace(GAUSS1, log_pdf=lambda x: np.where(x > 3.0, -math.inf, GAUSS1.log_pdf(x)))
    ln_s, err, done = pricing._log_payoff_integrals(model, np.array([5.0]), np.array([1.0]), 1e-13, 1e-11)
    assert (ln_s.tolist(), err.tolist(), done.tolist()) == ([-math.inf], [0.0], [True])


def test_logaddexp_mirror_equals_numpy_bit_for_bit():
    # the core's float logaddexp against np.logaddexp on a seeded deck of
    # near, far and unrelated pairs, and on every pair of special values:
    # equal arguments, +-inf, -inf with -inf, NaN, zeros, subnormals, extremes
    rng = np.random.default_rng(24)
    n = 20_000
    x = rng.normal(0.0, 30.0, n) * 10.0 ** rng.integers(-3, 3, n)
    near = x + rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-17, 3, n)
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -745.2, 709.8, 1e308, -1e308, math.inf, -math.inf, math.nan]
    pairs = np.concatenate([np.stack([x, near], axis=1), np.stack([x, rng.permutation(x)], axis=1),
                            np.stack([x, x], axis=1), list(itertools.product(specials, repeat=2))])
    mirror = np.array([pricing._logaddexp(a, b) for a, b in pairs.tolist()])
    with np.errstate(all="ignore"):  # NaN in, and 1e308 - -1e308 overflows
        want = np.logaddexp(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(mirror.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("name, calls, nodes", [
    ("gaussian(1)", 3, 4755), ("asym_laplace(2, 0.7)", 3, 5296), ("nig(2, 0.5, 1)", 2, 4575)])
def test_report_smile_log_pdf_calls(name, calls, nodes):
    # one probe call, one for levels 0 and 1 of every leg, and one per later
    # level that a leg still needs; the nodes are the per-level passes' nodes
    base = {"gaussian(1)": GAUSS1, "asym_laplace(2, 0.7)": asym_laplace_model(2.0, 0.7),
            "nig(2, 0.5, 1)": NIG}[name]
    model, sizes = _counting_log_pdf(base)
    smile = smile_from_model(model, _report_grid(base))
    assert all(p.status == "ok" for p in smile.points)
    assert (len(sizes), sum(sizes)) == (calls, nodes)


# =============================================================================
# one production route: NIG grids on the tail engine, Fourier as cross-check
# =============================================================================

def _report_grid(model):
    vs = VerdictSettings()
    wing = np.geomspace(vs.wing_lo_scales * model.scale, vs.wing_hi_scales * model.scale,
                        vs.points_per_side)
    return np.concatenate([-wing[::-1], [0.0], wing])


def test_nig_report_char_fn_calls():
    # a NIG report prices on log_pdf alone: its smile takes one probe call
    # and one for levels 0 and 1 (2 calls, ~4.6k nodes), the report 4
    model, calls = _counting_char_fn(NIG)
    model, sizes = _counting_log_pdf(model)
    report = theorem_verdicts(model)
    assert report["failed_points"] == 0
    assert calls == [0, 0]
    assert len(sizes) <= 10


def test_hard_nig_report_keeps_its_grid():
    # 12 of 25 points failed on the Fourier route; the 2 right-wing prices
    # past double underflow (ln S down to -880) invert from their ln S
    report = theorem_verdicts(nig_model(3.5744, -3.3765, 1.3122))
    assert report["failed_points"] == 0


def _mp_nig_call(alpha, beta, delta, kappa):
    # 30-digit call of the zero-mean NIG law as a normal variance-mean
    # mixture, X = mu + beta V + sqrt(V) Z with V inverse Gaussian: the
    # Bachelier call at sqrt(V) averaged over V's density
    with mp.workdps(30):
        a, b, d, k = (mp.mpf(x) for x in (alpha, beta, delta, kappa))
        g = mp.sqrt(a * a - b * b)
        mu = -d * b / g

        def integrand(v):
            z = (mu + b * v - k) / mp.sqrt(v)
            density = d * mp.exp(d * g - (d * d / v + g * g * v) / 2) / mp.sqrt(2 * mp.pi * v**3)
            return density * mp.sqrt(v) * (mp.npdf(z) + z * mp.ncdf(z))

        return mp.quad(integrand, [0, *(mp.mpf(2) ** j for j in range(-6, 24)), mp.inf])


def _mp_nig_log_put(alpha, beta, delta, kappa):
    # 40-digit ln of int_0^inf y f(kappa - y) dy over the zero-mean NIG's
    # Bessel density, taken relative to f(kappa) so that mp.quad's error
    # estimate, which assumes an integral of order one, holds at ln p ~ -1e4
    with mp.workdps(40):
        a, b, d, k = (mp.mpf(x) for x in (alpha, beta, delta, kappa))
        g = mp.sqrt(a * a - b * b)
        mu = -d * b / g

        def log_f(x):
            s = mp.hypot(d, x - mu)
            return mp.log(a * d / (mp.pi * s) * mp.besselk(1, a * s)) + d * g + b * (x - mu)

        top = log_f(k)
        return top + mp.log(mp.quad(lambda y: y * mp.exp(log_f(k - y) - top), [0, mp.inf]))


def test_nig_near_the_strip_edge_keeps_its_deep_left_wing():
    # as |beta| -> alpha the left tail falls like e^(-(alpha + beta) x) on a
    # scale of 420: every left-wing put is far below double range (ln p
    # -8140.79 at 5 scales, -16550.72 at 10), and the smile inverts it from
    # the tail core's ln S; the in-the-money legs, which do not converge,
    # fail none of the points
    model = nig_model(2.0, 1.9998, 1.0)
    assert theorem_verdicts(model)["failed_points"] == 0
    for n in (5.0, 10.0):
        k = -n * model.scale
        point = smile_from_model(model, [k]).points[0]
        want = float(_mp_nig_log_put(2.0, 1.9998, 1.0, k))
        assert (point.status, point.price) == ("ok", 0.0)
        assert point.log_price == pytest.approx(want, rel=1e-12)
        assert point.ivol == pytest.approx(implied_vol_put_log(k, want).sigma, rel=1e-12)
    for k in (0.0, 3.0 * model.scale):
        point = smile_from_model(model, [k]).points[0]
        assert point.status == "ok"
        assert price_grid(model, [k])[1] == [None]
        assert point.price == pytest.approx(float(_mp_nig_call(2.0, 1.9998, 1.0, k)), rel=1e-11)


@pytest.mark.parametrize("beta", [1.98, -1.98, 1.998, -1.998])
def test_steep_nig_prices_where_fourier_cannot(beta):
    model = nig_model(2.0, beta, 1.0)
    k = -math.copysign(3.0, beta) * model.scale
    kappas, quotes = price_grid(model, [k])
    assert quotes[0] is not None and quotes[0].method == "tail_integral"
    with pytest.raises(AccuracyNotReached):
        price_from_cf(model, k)


def test_price_grid_agrees_with_fourier_on_nig_report_grid():
    kappas, quotes = price_grid(NIG, _report_grid(NIG))
    for k, q in zip(kappas.tolist(), quotes):
        qc = price_from_cf(NIG, k)
        assert (q.method, qc.method) == ("tail_integral", "fourier")
        diff = max(abs(q.call - qc.call), abs(q.put - qc.put))
        assert diff <= q.abs_error_estimate + qc.abs_error_estimate, k


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


@pytest.mark.parametrize("s", [1e-3, 1.0, 1e3])
def test_gaussian_report_grid_is_flat_at_every_scale(s):
    # the +-40-scale points are past double underflow (ln S about -808) at
    # every scale and invert from their ln S
    model = gaussian_model(s)
    smile = smile_from_model(model, _report_grid(model))
    assert len(smile) == 25
    for p in smile.points:
        assert p.status == "ok", p.kappa
        assert p.ivol == pytest.approx(s, rel=1e-12), p.kappa


def test_laplace_smile_is_scale_invariant():
    # the normalized price is homogeneous of degree one in kappa and the
    # law's scale, so ivol(s kappa) / s does not depend on s
    grid = _report_grid(asym_laplace_model(2.0, 0.7))
    rows = []
    for s in (1e-3, 1.0, 1e3):
        smile = smile_from_model(asym_laplace_model(2.0 / s, 0.7 / s), s * grid)
        assert all(p.status == "ok" for p in smile.points)
        rows.append([p.ivol / s for p in smile.points])
    for row in rows:
        assert row == pytest.approx(rows[1], rel=1e-9)


@pytest.mark.parametrize("alpha, beta, delta", [(2.0, 0.5, 1.0), (3.5744, -3.3765, 1.3122),
                                               (1.2, -0.5, 0.6)])
def test_nig_smile_is_scale_invariant(alpha, beta, delta):
    # nig(alpha/s, beta/s, delta s) is the law of s X: every report-grid point
    # prices and inverts at each scale, and ivol(s kappa) / s does not depend on s
    grid = _report_grid(nig_model(alpha, beta, delta))
    rows = []
    for s in (1e-3, 1.0, 1e3):
        smile = smile_from_model(nig_model(alpha / s, beta / s, delta * s), s * grid)
        assert len(smile) == 25 and all(p.status == "ok" for p in smile.points)
        rows.append([p.ivol / s for p in smile.points])
    for row in rows:
        assert row == pytest.approx(rows[1], rel=1e-12)


def test_smile_sorts_and_dedupes_grid():
    sm = smile_from_model(GAUSS1, [2.0, -1.0, 2.0, 0.0])
    assert [p.kappa for p in sm.points] == [-1.0, 0.0, 2.0]


def test_smile_marks_failed_points_and_continues():
    # NaN in the density on (-3.5, -3) fails the put leg at -1, which
    # crosses it; kappa = 800 is far past double underflow for sigma = 2
    # (ln S about -80000) and inverts from its ln S, with a price of 0
    poisoned, _ = _counting_log_pdf(GAUSS2, lambda x: (x > -3.5) & (x < -3.0))
    sm = smile_from_model(poisoned, [-1.0, 0.0, 3.0, 800.0])
    assert [p.status for p in sm.points] == ["failed", "ok", "ok", "ok"]
    assert all(math.isnan(v) for v in (sm.points[0].price, sm.points[0].log_price, sm.points[0].ivol))
    deep = sm.points[3]
    assert deep.price == 0.0
    assert deep.log_price == pytest.approx(call_price_log(800.0, 2.0), rel=1e-12)
    for p in sm.points[1:]:
        assert p.ivol == pytest.approx(2.0, abs=1e-9)


def test_smile_deterministic():
    grid = np.geomspace(1.0, 25.0, 7)
    a = smile_from_model(NIG, grid)
    b = smile_from_model(NIG, grid)
    assert all(
        pa.price == pb.price and pa.ivol == pb.ivol
        for pa, pb in zip(a.points, b.points)
    )


def test_smile_threaded_matches_serial():
    # the tail core, which prices every model's smile, shares no mutable
    # state between callers, so points priced from several threads at
    # once equal the serial ones
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


def _scalar_point(model, k, tol_iv):
    """(price, log_price, ivol) from k's out-of-the-money leg priced alone and
    its ln S inverted by the scalar solver, or None where either fails."""
    ln_s, _, ok = pricing._log_payoff_integrals(model, np.array([k]), np.array([1.0 if k >= 0.0 else -1.0]),
                                                DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol)
    ln = float(ln_s[0])
    if not (ok[0] and math.isfinite(ln)):
        return None
    try:
        if k == 0.0:  # the closed form, from the price
            sigma = implied_vol_call(0.0, math.exp(ln), tol_iv).sigma
        else:
            sigma = (implied_vol_call_log if k > 0.0 else implied_vol_put_log)(k, ln, tol_iv).sigma
    except BachelierWingsError:
        return None
    return math.exp(ln), ln, sigma


def _assert_points_match_scalar_solvers(model, smile, tol_iv):
    # bit for bit, failures included; the in-the-money leg plays no part
    for p in smile.points:
        want = _scalar_point(model, p.kappa, tol_iv)
        if want is None:
            assert p.status == "failed", p.kappa
            assert all(math.isnan(v) for v in (p.price, p.log_price, p.ivol)), p.kappa
        else:
            assert p.status == "ok", p.kappa
            assert (p.price, p.log_price, p.ivol) == want, p.kappa


# a grid on which tolerances of 1e-17 and 1e-20 fail some points and not others
MIXED_GRID = np.concatenate([np.linspace(-6.0, 6.0, 13), [10.0, 20.0, 30.0]])


@pytest.mark.parametrize("tol_iv", [1e-17, 1e-20])
@pytest.mark.parametrize("model", [GAUSS1, LAPLACE, NIG], ids=lambda m: m.name)
def test_smile_mixed_statuses_match_per_point_solvers(model, tol_iv):
    # the batched inversion gives every point what the scalar log solvers
    # give on that point's out-of-the-money ln S, priced alone
    smile = smile_from_model(model, MIXED_GRID, tol_iv=tol_iv)
    assert [p.kappa for p in smile.points] == MIXED_GRID.tolist()
    _assert_points_match_scalar_solvers(model, smile, tol_iv)
    assert {p.status for p in smile.points} == {"ok", "failed"}


@st.composite
def _random_model(draw):
    family = draw(st.sampled_from(["gaussian", "asym_laplace", "nig"]))
    if family == "gaussian":
        return gaussian_model(draw(st.floats(0.2, 5.0)))
    if family == "asym_laplace":
        return asym_laplace_model(draw(st.floats(0.3, 6.0)), draw(st.floats(0.3, 6.0)))
    alpha = draw(st.floats(0.5, 4.0))
    return nig_model(alpha, alpha * draw(st.floats(-0.9, 0.9)), draw(st.floats(0.3, 3.0)))


@settings(max_examples=40, deadline=None)
@given(model=_random_model(), wings=st.lists(st.floats(0.05, 60.0), min_size=1, max_size=6),
       tol_iv=st.sampled_from([1e-12, 1e-17, 1e-20]))
def test_smile_points_match_scalar_log_solvers_on_random_models(model, wings, tol_iv):
    # out to 60 scales, where most legs are past double underflow: a point is
    # ok exactly when its leg converges to a finite ln S that the scalar
    # solver inverts, and then carries that ln S and that sigma
    scales = [60.0, *wings]
    grid = [0.0, *(w * model.scale for w in scales), *(-w * model.scale for w in scales[::2])]
    smile = smile_from_model(model, grid, tol_iv=tol_iv)
    _assert_points_match_scalar_solvers(model, smile, tol_iv)


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


def test_smile_prices_one_leg_per_point(monkeypatch):
    # one core call, one integral per point, on its out-of-the-money side
    batches = []
    core = pricing._log_payoff_integrals

    def counting_core(model, ks, signs, abs_tol, rel_tol):
        batches.append((ks.copy(), signs.copy()))
        return core(model, ks, signs, abs_tol, rel_tol)

    monkeypatch.setattr(pricing, "_log_payoff_integrals", counting_core)
    for model in (GAUSS1, LAPLACE, NIG):
        for grid in (MIXED_GRID, []):
            batches.clear()
            smile = smile_from_model(model, grid)
            assert len(batches) == 1
            ks, signs = batches[0]
            assert ks.size == len(smile)
            assert ks.tolist() == [p.kappa for p in smile.points]
            assert signs.tolist() == [1.0 if k >= 0.0 else -1.0 for k in ks.tolist()]


def test_smile_point_fails_only_on_its_own_leg():
    # NaN on (0.5, 1.5) breaks the in-the-money legs at -3 and 2, which
    # cross it, and neither out-of-the-money leg
    poisoned, _ = _counting_log_pdf(GAUSS1, lambda x: (x > 0.5) & (x < 1.5))
    grid = [-3.0, 2.0]
    assert price_grid(poisoned, grid)[1] == [None, None]
    smile = smile_from_model(poisoned, grid)
    assert all(p.status == "ok" for p in smile.points)
    assert smile.points == smile_from_model(GAUSS1, grid).points


def test_grid_with_a_non_finite_value_is_rejected():
    # so are text, a grid that is not iterable (a 0-d array too), an entry that is no
    # number and a text entry, even one that reads as a number
    for grid in ([1.0, math.nan], [math.inf, 0.0], "12", "1.5", b"12", np.array(2.0), 2.0, None,
                 [1.0, "x"], [0.0, object()], [[1.0, 2.0], [3.0]], ["1.5"], ["1.5", "2"],
                 [0.5, b"2"], (0.5, "2"), np.array(["1.5", "2"])):
        with pytest.raises(DomainError):
            price_grid(GAUSS1, grid)
        with pytest.raises(DomainError):
            smile_from_model(GAUSS1, grid)


_GRID_FORMS = ("unique", "sorted", "as_given", "list", "generator", "two_d", "float32", "big_endian")


def _grid_in_form(values, form):
    """A fresh grid of `values` in one of the forms a caller may pass."""
    arr = np.array(values, dtype=float)
    if form == "unique":  # strictly increasing float64, save a -0.0 beside 0.0
        return np.unique(arr)
    if form == "sorted":  # duplicates kept
        return np.sort(arr)
    if form == "list":
        return list(values)
    if form == "generator":
        return (v for v in values)
    if form == "two_d":
        return np.sort(arr)[: arr.size // 2 * 2].reshape(2, -1)
    if form == "float32":
        with np.errstate(over="ignore"):
            return np.unique(arr).astype(np.float32)
    if form == "big_endian":
        return np.unique(arr).astype(">f8")
    return arr


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0, math.inf, -math.inf]),
                       max_size=30),
       form=st.sampled_from(_GRID_FORMS))
@example(values=[-0.0, 0.0, 1.0], form="as_given")
@example(values=[0.0, -0.0], form="unique")
@example(values=[-2.0, -0.0, 3.0], form="unique")
@example(values=[1.0, math.inf], form="unique")
@example(values=[-math.inf, 1.0], form="unique")
@example(values=[3.0, 1.0, 2.0], form="as_given")
@example(values=[], form="unique")
def test_checked_grid_equals_the_unique_path(values, form):
    # every grid reads as np.unique of its values, and the result never
    # aliases the caller's array; a non-finite value raises
    grid = _grid_in_form(values, form)
    with np.errstate(over="ignore"):
        want = np.unique(np.asarray(list(_grid_in_form(values, form)), dtype=float))
    if not np.isfinite(want).all():
        with pytest.raises(DomainError):
            pricing._checked_grid(grid)
        return
    got = pricing._checked_grid(grid)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    if isinstance(grid, np.ndarray):
        assert not np.shares_memory(got, grid)


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
