"""Solver tests: round trips, reflection, tail robustness, error contract."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bachelier_wings.bachelier import (
    SQRT_2PI,
    call_price,
    call_price_log,
    put_price,
    put_price_log,
)
from bachelier_wings.errors import (
    AccuracyNotReached,
    DomainError,
    NoSolutionBelowIntrinsic,
)
from bachelier_wings.inversion import (
    MAX_ITERATIONS,
    IvolResult,
    _solve_otm_log,
    implied_vol_call,
    implied_vol_call_log,
    implied_vol_call_log_vec,
    implied_vol_call_vec,
    implied_vol_put,
    implied_vol_put_log,
    implied_vol_put_log_vec,
    implied_vol_put_vec,
)

ROUND_TRIP_REL = 1e-9


# ---------------------------------------------------------------------------
# reference examples
# ---------------------------------------------------------------------------

def test_atm_closed_form():
    r = implied_vol_call(0.0, 1.0 / SQRT_2PI, tol=1e-12)
    assert r.sigma == pytest.approx(1.0, rel=1e-15)
    assert r.method == "closed_form_atm"
    assert r.iterations == 0
    assert r.residual <= 1e-12


def test_simple_round_trip():
    r = implied_vol_call(1.0, call_price(1.0, 2.0), tol=1e-12)
    assert r.sigma == pytest.approx(2.0, rel=1e-10)
    assert r.residual <= 1e-12
    assert r.method in ("newton", "bisection_fallback")


def test_deep_quote_with_absurd_price_tolerance():
    # tol of 1e-70 on a 1e-60 quote: honoured as a ~1e-10 log residual
    r = implied_vol_call(20.0, 1e-60, tol=1e-70)
    assert call_price_log(20.0, r.sigma) == pytest.approx(math.log(1e-60), abs=1e-9)
    assert r.residual <= 1e-70


def test_put_examples():
    assert implied_vol_put(0.0, 1.0 / SQRT_2PI).sigma == pytest.approx(1.0, rel=1e-15)
    r = implied_vol_put(-1.0, put_price(-1.0, 1.5))
    assert r.sigma == pytest.approx(1.5, rel=1e-10)


def test_put_call_reflection_is_same_code_path():
    price = 1e-45
    a = implied_vol_put(-20.0, price)
    b = implied_vol_call(20.0, price)
    assert a == b  # bit-identical: the put delegates outright


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(
    kappa=st.floats(-10.0, 10.0),
    sigma=st.floats(0.01, 5.0),
)
def test_round_trip_property(kappa, sigma):
    # restrict to quotes whose double representation still carries the
    # time value: rounding the ITM price to ulp(intrinsic) perturbs sigma
    # by ~ (eps/2)(intrinsic/tv)/(1 + d^2/2), which must sit below target
    price = call_price(kappa, sigma)
    tv = price - max(-kappa, 0.0)
    assume(tv > 1e-250)
    d = abs(kappa) / sigma
    info_loss = 0.5 * 2.3e-16 * max(-kappa, 0.0) / tv / (1.0 + 0.5 * d * d)
    assume(info_loss < 2e-10)
    got = implied_vol_call(kappa, price).sigma
    assert abs(got - sigma) / sigma < ROUND_TRIP_REL


@settings(max_examples=150, deadline=None)
@given(
    kappa=st.floats(-10.0, -0.02),
    sigma=st.floats(0.05, 5.0),
)
def test_round_trip_property_puts(kappa, sigma):
    price = put_price(kappa, sigma)  # OTM side: no intrinsic to saturate against
    assume(price > 1e-250)
    got = implied_vol_put(kappa, price).sigma
    assert abs(got - sigma) / sigma < ROUND_TRIP_REL


@settings(max_examples=150, deadline=None)
@given(
    d=st.floats(1.0, 300.0),
    sigma=st.floats(0.5, 2.0),
)
def test_round_trip_property_log_space(d, sigma):
    kappa = d * sigma
    lp = call_price_log(kappa, sigma)
    got = implied_vol_call_log(kappa, lp).sigma
    assert abs(got - sigma) / sigma < ROUND_TRIP_REL


def test_round_trip_vectorized_batch():
    # full sampling box: route each quote through its out-of-the-money leg
    # in log space, the only representation that survives d up to 1000
    rng = np.random.default_rng(3)
    kappa = rng.uniform(-10.0, 10.0, size=10_000)
    sigma = rng.uniform(0.01, 5.0, size=10_000)
    is_call = kappa >= 0.0
    lp = np.where(is_call, call_price_log(kappa, sigma), put_price_log(kappa, sigma))
    got = np.where(
        is_call,
        implied_vol_call_log_vec(np.abs(kappa), lp),
        implied_vol_put_log_vec(-np.abs(kappa), lp),
    )
    assert np.max(np.abs(got - sigma) / sigma) < ROUND_TRIP_REL


def test_linear_vec_on_representable_box():
    rng = np.random.default_rng(5)
    kappa = rng.uniform(-5.0, 5.0, size=5_000)
    sigma = rng.uniform(0.3, 5.0, size=5_000)  # d <= ~17: linear OTM prices survive
    is_call = kappa >= 0.0
    price = np.where(is_call, call_price(kappa, sigma), put_price(kappa, sigma))
    got = np.where(
        is_call,
        implied_vol_call_vec(np.abs(kappa), price),
        implied_vol_put_vec(-np.abs(kappa), price),
    )
    assert np.max(np.abs(got - sigma) / sigma) < ROUND_TRIP_REL


def test_vec_matches_scalar_exactly():
    kappa = np.array([0.0, 0.7, -3.2, 12.0])
    sigma = np.array([1.1, 0.3, 2.0, 0.9])
    price = call_price(kappa, sigma)
    vec = implied_vol_call_vec(kappa, price)
    for i in range(kappa.size):
        assert vec[i] == implied_vol_call(float(kappa[i]), float(price[i])).sigma


def test_put_vec_reflects():
    kappa = np.array([-5.0, -1.0, 2.0])
    sigma = np.array([1.0, 0.4, 1.7])
    price = put_price(kappa, sigma)
    np.testing.assert_array_equal(
        implied_vol_put_vec(kappa, price), implied_vol_call_vec(-kappa, price)
    )


# ---------------------------------------------------------------------------
# tail robustness
# ---------------------------------------------------------------------------

def test_tiny_linear_price():
    # 1e-100 is still a normal double; the solve must not need log input
    r = implied_vol_call(30.0, 1e-100)
    assert call_price_log(30.0, r.sigma) == pytest.approx(math.log(1e-100), abs=1e-8)


@pytest.mark.parametrize("d", [50.0, 300.0, 1500.0])
def test_log_quotes_far_below_underflow(d):
    sigma = 1.0
    lp = call_price_log(d * sigma, sigma)  # down to ~ -1.1e6
    r = implied_vol_call_log(d * sigma, lp)
    assert r.sigma == pytest.approx(sigma, rel=1e-10)
    assert r.method.endswith("_log")
    assert r.iterations <= MAX_ITERATIONS


def test_put_log_deep():
    r = implied_vol_put_log(-80.0, call_price_log(80.0, 1.2))
    assert r.sigma == pytest.approx(1.2, rel=1e-10)


def test_itm_log_input_reduces_through_parity():
    # time value ~2e-7 of intrinsic: the log input carries ~9 digits of it
    kappa = -2.0
    sigma = 0.45
    lp = call_price_log(kappa, sigma)
    r = implied_vol_call_log(kappa, lp)
    assert r.sigma == pytest.approx(sigma, rel=1e-6)


# ---------------------------------------------------------------------------
# result invariants
# ---------------------------------------------------------------------------

def test_residual_honours_tolerance():
    rng = np.random.default_rng(17)
    for _ in range(200):
        kappa = float(rng.uniform(0.0, 6.0))  # OTM side: residual contract is clean
        sigma = float(rng.uniform(0.3, 4.0))
        price = call_price(kappa, sigma)
        r = implied_vol_call(kappa, price, tol=1e-11)
        assert r.sigma > 0
        if not r.method.endswith("_log"):
            assert r.residual <= 1e-11


def test_monotone_in_price():
    prices = np.linspace(0.05, 2.0, 60)
    sig = [implied_vol_call(1.5, float(p)).sigma for p in prices]
    assert all(b > a for a, b in zip(sig, sig[1:]))


def test_iteration_counts_are_small():
    r = implied_vol_call(4.0, call_price(4.0, 0.8))
    assert 0 < r.iterations < 40


def test_evaluation_count_on_out_of_the_money_deck():
    # d = kappa/sigma log-uniform over 0.01-40, sigma over 0.2-2: the
    # wing-asymptotic seed and the Halley step take about three evaluations
    rng = np.random.default_rng(7)
    d = np.exp(rng.uniform(math.log(0.01), math.log(40.0), 20_000))
    sigma = np.exp(rng.uniform(math.log(0.2), math.log(2.0), d.size))
    kappa = d * sigma
    solved = _solve_otm_log(kappa, call_price_log(kappa, sigma), 1e-12)
    assert solved.converged.all()
    assert solved.iterations.mean() <= 3.2
    assert np.all((solved.iterations <= 4) | solved.bisected)
    assert np.max(np.abs(np.exp(solved.x) - sigma) / sigma) < 1e-13


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------

def test_below_intrinsic_call():
    with pytest.raises(NoSolutionBelowIntrinsic) as err:
        implied_vol_call(-2.0, 2.0)  # exactly intrinsic: still no solution
    assert err.value.kappa == -2.0
    assert err.value.intrinsic == 2.0
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_call(-2.0, 1.5)
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_call(3.0, 0.0)
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_call(3.0, -0.1)


def test_below_intrinsic_put():
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_put(3.0, 3.0)


def test_below_intrinsic_log_input():
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_call_log(-2.0, math.log(2.0))
    with pytest.raises(NoSolutionBelowIntrinsic):
        implied_vol_call_log(5.0, -math.inf)


def test_below_intrinsic_vec_reports_offender():
    kappa = np.array([1.0, -2.0])
    price = np.array([0.3, 1.0])
    with pytest.raises(NoSolutionBelowIntrinsic) as err:
        implied_vol_call_vec(kappa, price)
    assert err.value.kappa == -2.0


def test_domain_errors():
    with pytest.raises(DomainError):
        implied_vol_call(float("nan"), 0.5)
    with pytest.raises(DomainError):
        implied_vol_call(1.0, float("inf"))
    with pytest.raises(DomainError):
        implied_vol_call(1.0, 0.5, tol=0.0)
    with pytest.raises(DomainError):
        implied_vol_call(1.0, 0.5, tol=-1e-9)
    with pytest.raises(DomainError):
        implied_vol_call_log(1.0, float("nan"))


def test_tolerance_below_floating_point_floor():
    with pytest.raises(AccuracyNotReached) as err:
        implied_vol_call(1.0, 0.3, tol=1e-18)
    assert err.value.achieved is None or err.value.achieved > 1e-18


def test_unattainable_tolerance_stops_where_the_iterate_stops_moving():
    # near the money with |ln tv| = 16.4 the residual cannot fall below the
    # rounding of ln tv (3.6e-15), above the 8 eps noise floor of 1.8e-15:
    # the bracket collapses after one evaluation and every later one would
    # repeat it, so an unattainable tolerance must end there in
    # AccuracyNotReached, not in 200 evaluations and ConvergenceFailure
    kappa, price = 4.575635314717512e-16, 7.76274387948033e-08
    with pytest.raises(AccuracyNotReached):
        implied_vol_call(kappa, price, tol=1e-300)
    solved = _solve_otm_log(np.array([kappa]), np.array([math.log(price)]), 1e-300)
    assert solved.converged.all() and solved.unattainable.all()
    assert solved.iterations[0] < MAX_ITERATIONS


def test_default_tolerance_inverts_near_money_quotes_with_large_time_value():
    # d = kappa/sigma in 1e-9..1e-7 and time values of about 100..4500:
    # the default tol 1e-12 lies above one ulp of every price, and 362 of
    # these 400 quotes invert within it by landing on g = 0; the rest miss
    # by a few ulp and raise AccuracyNotReached.  A stopping rule that
    # widens the noise floor by the rounding of ln tv stops 22 of the 362
    # short, within a few ulp of ln tv, and reports them unattainable
    rng = np.random.default_rng(1)
    d = np.exp(rng.uniform(math.log(1e-9), math.log(1e-7), 400))
    sigma = np.exp(rng.uniform(math.log(250.0), math.log(11000.0), 400))
    inverted = 0
    for k, s in zip((d * sigma).tolist(), sigma.tolist()):
        price = float(call_price(k, s))
        try:
            r = implied_vol_call(k, price)
        except AccuracyNotReached:
            continue
        assert r.residual <= 1e-12
        assert r.sigma == pytest.approx(s, rel=1e-12)
        inverted += 1
    assert inverted == 362


def test_result_is_frozen():
    r = implied_vol_call(0.0, 0.4)
    assert isinstance(r, IvolResult)
    with pytest.raises(AttributeError):
        r.sigma = 2.0  # type: ignore[misc]
