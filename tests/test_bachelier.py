"""Oracle tests for the normalized Bachelier core.

The reference implementation is mpmath at 50 significant digits; a few
values are additionally frozen as literals so a broken oracle cannot
mask a broken implementation.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bachelier_wings.bachelier import (
    INV_SQRT_2PI,
    bachelier_bounds,
    bachelier_bounds_log,
    call_price,
    call_price_log,
    log_norm_cdf,
    mills_sandwich,
    mills_sandwich_log,
    norm_cdf,
    norm_pdf,
    put_price,
    put_price_log,
    vega,
)
from bachelier_wings.errors import DomainError

mp.mp.dps = 50

REL_TOL = 5e-14          # linear prices vs oracle, moderate d
LOG_ABS_TOL = 1e-8       # log prices vs oracle at d up to ~3000 (err ~ d^2 eps)


def oracle_call(kappa: float, sigma: float) -> mp.mpf:
    k = mp.mpf(kappa)
    s = mp.mpf(sigma)
    d = k / s
    return -k * mp.ncdf(-d) + s * mp.npdf(d)


# ---------------------------------------------------------------------------
# frozen references
# ---------------------------------------------------------------------------

def test_frozen_values():
    assert call_price(1.0, 1.0) == pytest.approx(0.083315470587686298, rel=1e-13)
    assert call_price(3.0, 0.5) == pytest.approx(7.8178489798548321e-11, rel=1e-12)
    assert call_price(-2.0, 0.7) == pytest.approx(2.0004391356724886, rel=1e-13)
    assert call_price_log(40.0, 1.0) == pytest.approx(-808.29856835661996, abs=1e-9)


def test_atm_closed_form():
    for sigma in (0.01, 0.2, 1.0, 37.5):
        assert call_price(0.0, sigma) == pytest.approx(sigma * INV_SQRT_2PI, rel=1e-15)
        assert put_price(0.0, sigma) == pytest.approx(sigma * INV_SQRT_2PI, rel=1e-15)


# ---------------------------------------------------------------------------
# against the high-precision oracle
# ---------------------------------------------------------------------------

KAPPAS = [-8.0, -3.0, -1.0, -0.25, -1e-6, 0.0, 1e-6, 0.25, 1.0, 3.0, 8.0]
SIGMAS = [0.05, 0.3, 1.0, 4.0]


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_call_matches_oracle(kappa, sigma):
    want = oracle_call(kappa, sigma)
    assert call_price(kappa, sigma) == pytest.approx(float(want), rel=REL_TOL)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("kappa", KAPPAS)
def test_put_matches_oracle(kappa, sigma):
    want = oracle_call(-kappa, sigma)
    assert put_price(kappa, sigma) == pytest.approx(float(want), rel=REL_TOL)


@pytest.mark.parametrize("d", [5.0, 40.0, 200.0, 1000.0, 3000.0])
def test_log_price_deep_otm(d):
    sigma = 1.3
    kappa = d * sigma
    want = float(mp.log(oracle_call(kappa, sigma)))
    assert call_price_log(kappa, sigma) == pytest.approx(want, abs=LOG_ABS_TOL)


def test_log_price_deep_itm():
    # time value ~ exp(-d^2/2) vanishes next to intrinsic; log must fold it in
    sigma = 0.5
    for kappa in (-5.0, -60.0):
        want = float(mp.log(oracle_call(kappa, sigma)))
        assert call_price_log(kappa, sigma) == pytest.approx(want, rel=1e-13)
    assert put_price_log(60.0, 0.5) == pytest.approx(float(mp.log(oracle_call(-60.0, 0.5))), rel=1e-13)


def test_log_consistent_with_linear():
    rng = np.random.default_rng(7)
    kappa = rng.uniform(-6.0, 6.0, size=200)
    sigma = rng.uniform(0.05, 3.0, size=200)
    np.testing.assert_allclose(
        call_price_log(kappa, sigma), np.log(call_price(kappa, sigma)), rtol=1e-12
    )


# ---------------------------------------------------------------------------
# structure: parity, reflection, monotonicity, vega
# ---------------------------------------------------------------------------

def test_put_call_parity():
    rng = np.random.default_rng(11)
    kappa = rng.uniform(-10.0, 10.0, size=500)
    sigma = rng.uniform(0.02, 5.0, size=500)
    c = call_price(kappa, sigma)
    p = put_price(kappa, sigma)
    assert np.all(np.abs((c - p) + kappa) <= 1e-12 * np.maximum(1.0, np.abs(kappa)))


def test_itm_is_intrinsic_plus_reflected_otm():
    for kappa, sigma in [(2.0, 0.8), (15.0, 1.1)]:
        lhs = call_price(-kappa, sigma)
        rhs = kappa + call_price(kappa, sigma)
        assert lhs == pytest.approx(rhs, rel=1e-15)


def test_strictly_increasing_in_sigma():
    # grids start where the increment is representable next to the price:
    # ITM the time value sits on top of intrinsic and saturates below ~eps*|kappa|
    for kappa, lo in ((-3.0, 0.6), (0.0, 0.2), (0.4, 0.2), (6.0, 0.2)):
        prices = call_price(kappa, np.linspace(lo, 4.0, 400))
        assert np.all(np.diff(prices) > 0)
    # deep OTM the linear price underflows; monotonicity must survive in logs
    sig = np.linspace(0.05, 4.0, 400)
    assert np.all(np.diff(call_price_log(40.0, sig)) > 0)


def test_vega_matches_finite_difference():
    h = 2.0**-20  # power of two: sigma +/- h stays exactly representable
    for kappa, sigma in [(0.0, 1.0), (1.5, 0.7), (-4.0, 2.0), (3.0, 1.2)]:
        fd = (call_price(kappa, sigma + h) - call_price(kappa, sigma - h)) / (2 * h)
        assert vega(kappa, sigma) == pytest.approx(fd, rel=1e-7)


def test_vega_deep_tail_stays_nonnegative():
    v = vega(10.0, 0.5)  # phi(20) ~ 5.5e-88
    assert 0.0 < v < 1e-80
    assert vega(40.0, 1.0) == 0.0  # underflows to +0, never negative


# ---------------------------------------------------------------------------
# normal distribution helpers
# ---------------------------------------------------------------------------

def test_norm_helpers_match_oracle():
    xs = [-37.0, -8.0, -1.0, 0.0, 0.5, 6.0]
    for x in xs:
        assert norm_cdf(x) == pytest.approx(float(mp.ncdf(x)), rel=1e-14)
        assert norm_pdf(x) == pytest.approx(float(mp.npdf(x)), rel=1e-14)
        assert log_norm_cdf(x) == pytest.approx(float(mp.log(mp.ncdf(x))), rel=1e-13)


def test_log_norm_cdf_extreme_tail():
    assert log_norm_cdf(-100.0) == pytest.approx(float(mp.log(mp.ncdf(-100))), rel=1e-13)


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def test_mills_sandwich_frozen():
    lo, hi = mills_sandwich(1.0, 1.0)
    assert lo == pytest.approx(0.074122567311811266, rel=1e-13)
    assert hi == pytest.approx(0.092424592483875203, rel=1e-13)
    assert lo < call_price(1.0, 1.0) < hi


def test_mills_sandwich_never_violated():
    kappa = np.geomspace(1e-3, 60.0, 80)
    for sigma in (0.1, 0.5, 1.0, 2.5):
        lo, hi = mills_sandwich(kappa, sigma)
        c = call_price(kappa, sigma)
        assert np.all(lo <= c * (1 + 1e-12))
        assert np.all(c <= hi * (1 + 1e-12))


def test_mills_sandwich_log_deep():
    kappa = np.geomspace(50.0, 500.0, 25)
    lo, hi = mills_sandwich_log(kappa, 1.0)
    c = call_price_log(kappa, 1.0)
    assert np.all(lo <= c)
    assert np.all(c <= hi)


def test_mills_ratio_limit_is_pi_over_2():
    # the two Mills constants (4 vs 8/pi) make the bracket width -> pi/2
    lo, hi = mills_sandwich_log(200.0, 1.0)
    assert hi - lo == pytest.approx(math.log(math.pi / 2.0), abs=1e-3)
    lo0, hi0 = mills_sandwich(1e-9, 1.0)
    assert hi0 / lo0 == pytest.approx(1.0, abs=1e-8)  # equality at d = 0


def test_bachelier_bounds_frozen():
    lo, hi = bachelier_bounds(4.0, 2.0)
    assert lo == pytest.approx(0.084044697365783877, rel=1e-13)
    assert hi == pytest.approx(0.4151074974205947, rel=1e-13)
    assert lo < call_price(4.0, math.sqrt(8.0)) < hi


def test_bachelier_bounds_hold_on_parabola():
    y = np.geomspace(0.05, 400.0, 120)
    for beta in (0.25, 1.0, 3.0):
        sigma = np.sqrt(beta * y)
        lo, hi = bachelier_bounds(y, beta)
        c = call_price(y, sigma)
        assert np.all(lo <= c * (1 + 1e-12))
        assert np.all(c <= hi * (1 + 1e-12))


def test_bachelier_bounds_log_deep():
    y = np.geomspace(1e3, 1e6, 40)
    beta = 0.5
    lo, hi = bachelier_bounds_log(y, beta)
    c = call_price_log(y, np.sqrt(beta * y))
    assert np.all(lo <= c)
    assert np.all(c <= hi)


def test_bound_gap_grows_linearly_in_y():
    # upper/lower ~ pi*y/(2*beta): the sandwich fixes the exponential order only
    y = 4000.0
    beta = 2.0
    lo, hi = bachelier_bounds_log(y, beta)
    assert (hi - lo) == pytest.approx(math.log(math.pi * y / (2 * beta)), abs=0.05)


# ---------------------------------------------------------------------------
# input validation and shapes
# ---------------------------------------------------------------------------

def test_rejects_bad_sigma():
    with pytest.raises(DomainError):
        call_price(1.0, 0.0)
    with pytest.raises(DomainError):
        call_price(1.0, -0.5)
    with pytest.raises(DomainError):
        call_price(1.0, float("nan"))
    with pytest.raises(DomainError):
        vega(np.array([1.0, 2.0]), np.array([1.0, -1.0]))


def test_rejects_nonfinite_kappa():
    with pytest.raises(DomainError):
        call_price(float("inf"), 1.0)


def test_mills_requires_positive_kappa():
    with pytest.raises(DomainError):
        mills_sandwich(0.0, 1.0)
    with pytest.raises(DomainError):
        mills_sandwich(-1.0, 1.0)


def test_scalar_in_scalar_out():
    assert isinstance(call_price(1.0, 1.0), float)
    assert isinstance(vega(1.0, 1.0), float)
    out = call_price(np.array([0.5, 1.0]), 1.0)
    assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_broadcasting():
    kappa = np.array([[0.5], [1.0]])
    sigma = np.array([0.5, 1.0, 2.0])
    assert call_price(kappa, sigma).shape == (2, 3)


def test_scalar_log_prices_equal_the_array_path_bit_for_bit():
    # a scalar call_price_log runs on floats; it must be the array path's
    # number, through the in-the-money fold and past d = 1e4 (the series)
    rng = np.random.default_rng(13)
    d = np.exp(rng.uniform(math.log(1e-9), math.log(1e6), 20_000))
    sigma = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), d.size))
    kappa = d * sigma * rng.choice([-1.0, 1.0], d.size)
    assert (d > 1e4).sum() > 2_000 and (kappa < 0.0).sum() > 5_000
    for log_price in (call_price_log, put_price_log):
        scalar = [log_price(k, s) for k, s in zip(kappa.tolist(), sigma.tolist())]
        assert all(type(v) is float for v in scalar)
        np.testing.assert_array_equal(scalar, log_price(kappa, sigma))


@settings(max_examples=300, deadline=None)
@given(kappa=st.floats(-1e6, 1e6), sigma=st.floats(1e-3, 1e4))
@example(kappa=-3.0, sigma=0.2)  # in the money, time value far below intrinsic
@example(kappa=-2e4, sigma=1.0)  # the fold past d = 1e4
@example(kappa=5e4, sigma=2.0)  # the asymptotic series
def test_scalar_log_price_is_the_array_path_property(kappa, sigma):
    # two real scalars run on Python floats: a float out, the array's bits
    for log_price in (call_price_log, put_price_log):
        got = log_price(kappa, sigma)
        assert type(got) is float
        assert got.hex() == float(log_price(np.array([kappa]), np.array([sigma]))[0]).hex()


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("log_price, kappa, sigma, message", [
    (call_price_log, NAN, 1.0, "kappa must be finite, got nan"),
    (call_price_log, INF, 1.0, "kappa must be finite, got inf"),
    (call_price_log, -INF, 2, "kappa must be finite, got -inf"),
    (call_price_log, NAN, 0.0, "kappa must be finite, got nan"),
    (call_price_log, 1.0, 0.0, "sigma must be > 0"),
    (call_price_log, 3, -1, "sigma must be > 0"),
    (call_price_log, 1.0, INF, "sigma must be finite, got inf"),
    (call_price_log, 1.0, NAN, "sigma must be finite, got nan"),
    (put_price_log, INF, 1.0, "kappa must be finite, got inf"),
    (put_price_log, np.float64(-INF), 1.0, "kappa must be finite, got np.float64(-inf)"),
    (put_price_log, 1.0, -2.0, "sigma must be > 0"),
    (put_price_log, 1.0, np.float64(INF), "sigma must be finite, got np.float64(inf)"),
])
def test_scalar_log_price_rejects_what_the_array_path_rejects(log_price, kappa, sigma, message):
    with pytest.raises(DomainError) as scalar:
        log_price(kappa, sigma)
    assert str(scalar.value) == message
    with pytest.raises(DomainError, match="must be"):
        log_price(np.array([kappa]), np.array([sigma]))
