"""Pricing engine checks: each engine against closed-form and mpmath
oracles (the tail engine also on random Laplace models and past double
underflow), the two engines against each other (at fixed points and on
random NIG models), parity, convexity, settings the tail engine ignores,
damping invariance, the Fourier engine's char_fn work count, the batched
tail core (a grid equals its points priced alone, in few log_pdf calls
of bounded size), NIG grids on the tail core (checked against the
Fourier engine, and priced where that engine cannot), and smile
assembly with per-point failure handling (checked point by point against
the scalar solvers, in one batched inversion), serial and threaded.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bachelier_wings import pricing
from bachelier_wings.bachelier import call_price
from bachelier_wings.errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DampingOutsideStrip,
    DomainError,
)
from bachelier_wings.inversion import implied_vol_call, implied_vol_put
from bachelier_wings.models import _DE_LEVELS, _DE_STEP, _DE_Y, asym_laplace_model, gaussian_model, nig_model
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
    # the tail engine integrates out to infinity and reads only abs_tol
    # and rel_tol: the Fourier engine's cutoff and budget change nothing
    tight = QuadratureSettings(truncation_guard=1e-14)
    loose = QuadratureSettings(truncation_guard=1e-8, max_subdivisions=16)
    for model in (LAPLACE, GAUSS2, NIG):
        assert price_from_tail(model, 2.0, tight) == price_from_tail(model, 2.0, loose)


def test_tail_rule_starts_from_the_fixed_de_rule():
    # level 0 of the exp-sinh map is the rule NIG's tails use, bit for bit
    assert np.array_equal(_DE_LEVELS[0][0][1], _DE_Y)


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
        qc = price_from_cf(model, k, _default_alpha(model, k))
        diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
        assert diff <= qt.abs_error_estimate + qc.abs_error_estimate, k


def test_engines_agree_on_steep_nig_skew_four_scales_out():
    # damping at mid-strip left this put's roundoff floor (estimate
    # 1.04e-11) above the Fourier engine's 1e-11 gate; the saddle point
    # of e^(-alpha kappa) M(alpha) clears it
    model = nig_model(4.0, 3.5, 2.0)
    k = -4.0 * model.scale
    qt = price_from_tail(model, k)
    qc = price_from_cf(model, k, _default_alpha(model, k))
    diff = max(abs(qt.call - qc.call), abs(qt.put - qc.put))
    assert diff <= qt.abs_error_estimate + qc.abs_error_estimate


def test_default_alpha_is_the_clamped_saddle_point():
    # Gaussian: d ln M / d alpha = sigma^2 alpha, so the saddle is kappa / sigma^2,
    # clamped to [0.05, 0.9] of 10 / sigma on the out-of-the-money side
    model = GAUSS2
    assert _default_alpha(model, 8.0) == pytest.approx(2.0, rel=1e-6)
    assert _default_alpha(model, -8.0) == pytest.approx(-2.0, rel=1e-6)
    assert _default_alpha(model, 0.0) == pytest.approx(0.25)
    assert _default_alpha(model, -100.0) == pytest.approx(-4.5)


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
        assert calls[1] == 0  # the cutoff search evaluates its whole ladder at once


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
    # every integral runs to the last level; chunking keeps each call within
    # the cap plus one integral (at most four pieces at the finest level)
    model, sizes = _counting_log_pdf(LAPLACE, lambda x: np.ones(x.shape, dtype=bool))
    kappas, quotes = price_grid(model, np.linspace(-30.0, 30.0, 61))
    assert quotes == [None] * 61
    assert max(sizes) <= pricing._MAX_TAIL_NODES_PER_CALL + 4 * _DE_LEVELS[-1][0].shape[1]
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
    # 400 kappas, both legs: level 0 alone passes the node cap, so each
    # level's log_pdf call splits at integral boundaries
    base = asym_laplace_model(2.0, 0.7)
    model, sizes = _counting_log_pdf(base)
    grid = np.linspace(-30.0, 30.0, 400) * base.scale
    pieces = sum(len(_piece_ends(base, k, sign)) for k in grid.tolist() for sign in (1.0, -1.0))
    assert pieces * _DE_LEVELS[0][0].shape[1] > pricing._MAX_TAIL_NODES_PER_CALL
    kappas, quotes = price_grid(model, grid)
    assert max(sizes) <= pricing._MAX_TAIL_NODES_PER_CALL + 4 * _DE_LEVELS[-1][0].shape[1]
    assert sizes[1] < pieces * _DE_LEVELS[0][0].shape[1]  # level 0 took more than one call
    for k, q in zip(kappas.tolist(), quotes):
        assert repr(q) == repr(_priced_alone(base, k)), k


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
    # and one per refinement level (3 calls, ~4.6k nodes), the report 5
    model, calls = _counting_char_fn(NIG)
    model, sizes = _counting_log_pdf(model)
    report = theorem_verdicts(model)
    assert report["failed_points"] == 0
    assert calls == [0, 0]
    assert len(sizes) <= 10


def test_hard_nig_report_keeps_its_grid():
    # 12 of 25 points failed on the Fourier route; the 2 left are right-wing
    # prices past double underflow, which the log channel still reads
    report = theorem_verdicts(nig_model(3.5744, -3.3765, 1.3122))
    assert report["failed_points"] <= 2


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


def test_nig_near_the_strip_edge_fails_only_its_underflowed_wing():
    # as |beta| -> alpha the left tail falls like e^(-(alpha + beta) x) on a
    # scale of 420: every left-wing put is far below double range (ln p
    # below -8100 from 5 scales out), so those 12 points fail; the
    # in-the-money legs, which do not converge, no longer fail the 13 others
    model = nig_model(2.0, 1.9998, 1.0)
    report = theorem_verdicts(model)
    assert report["failed_points"] == 12
    smile = smile_from_model(model, _report_grid(model))
    assert [p.kappa < 0.0 for p in smile.points] == [p.status == "failed" for p in smile.points]
    assert log_put_price_from_tail(model, -5.0 * model.scale) < -8100.0
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
        price_from_cf(model, k, _default_alpha(model, k))


def test_price_grid_agrees_with_fourier_on_nig_report_grid():
    kappas, quotes = price_grid(NIG, _report_grid(NIG))
    for k, q in zip(kappas.tolist(), quotes):
        qc = price_from_cf(NIG, k, _default_alpha(NIG, k))
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


# a grid on which tolerances of 1e-17 and 1e-20 fail some points and not others
MIXED_GRID = np.concatenate([np.linspace(-6.0, 6.0, 13), [10.0, 20.0, 30.0]])


@pytest.mark.parametrize("tol_iv", [1e-17, 1e-20])
@pytest.mark.parametrize("model", [GAUSS1, LAPLACE, NIG], ids=lambda m: m.name)
def test_smile_mixed_statuses_match_per_point_solvers(model, tol_iv):
    # the batched inversion gives every point what the scalar solvers
    # give on that point's out-of-the-money leg, priced alone, failures
    # included; the in-the-money leg plays no part
    smile = smile_from_model(model, MIXED_GRID, tol_iv=tol_iv)
    assert [p.kappa for p in smile.points] == MIXED_GRID.tolist()
    for p, k in zip(smile.points, MIXED_GRID.tolist()):
        ln_s, _, ok = pricing._log_payoff_integrals(model, np.array([k]), np.array([1.0 if k >= 0.0 else -1.0]),
                                                    DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol)
        expected = None
        if ok[0]:
            price = pricing._price(float(ln_s[0]))
            solve = implied_vol_call if k >= 0.0 else implied_vol_put
            try:
                expected = (price, float(np.log(price)), solve(k, price, tol_iv).sigma)
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
    for grid in ([1.0, math.nan], [math.inf, 0.0]):
        with pytest.raises(DomainError):
            price_grid(GAUSS1, grid)
        with pytest.raises(DomainError):
            smile_from_model(GAUSS1, grid)


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
