"""Solver tests: round trips, reflection, tail robustness, error contract."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    BachelierWingsError,
    ConvergenceFailure,
    DomainError,
    NoSolutionBelowIntrinsic,
)
from bachelier_wings.inversion import (
    MAX_ITERATIONS,
    IvolResult,
    _method_label,
    _MIN_ARRAY_BATCH,
    _raise_first_failure,
    _result_from_core,
    _Solved,
    _solve_otm_log,
    _solve_otm_log_array,
    _solve_otm_log_scalar,
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


TOLS = (1e-12, 1e-6, 1e-300)


@st.composite
def quotes(draw):
    """(kappa, sigma): d = |kappa|/sigma log-uniform over 1e-9..400, sigma over 1e-3..1e4,
    at the money, in it or out of it."""
    d = 10.0 ** draw(st.floats(-9.0, math.log10(400.0)))
    sigma = 10.0 ** draw(st.floats(-3.0, 4.0))
    return draw(st.sampled_from([-1.0, 0.0, 1.0])) * d * sigma, sigma


def assert_same_outcome(scalar, vec, kappa, quote, tol):
    """scalar(kappa, quote, tol).sigma == vec([kappa], [quote], tol)[0], or both raise alike."""
    try:
        want = scalar(kappa, quote, tol).sigma
    except BachelierWingsError as err:
        with pytest.raises(type(err)):
            vec([kappa], [quote], tol)
    else:
        assert vec([kappa], [quote], tol)[0] == want


def batch_element(batch: _Solved, i: int) -> _Solved:
    return _Solved(*(np.asarray(field)[i:i + 1] for field in batch))


def assert_kernels_agree(got: _Solved, want: _Solved) -> None:
    """The float kernel's fields equal the batch core's one-element arrays bit for bit."""
    for name, g, w in zip(_Solved._fields, got, want):
        assert type(g) is (int if name == "iterations" else float if name[0] in "xg" else bool), name
        np.testing.assert_array_equal(np.array([g]), w, err_msg=name)


ENTRY_POINTS = [
    (implied_vol_call, implied_vol_call_vec, call_price),
    (implied_vol_put, implied_vol_put_vec, put_price),
    (implied_vol_call_log, implied_vol_call_log_vec, call_price_log),
    (implied_vol_put_log, implied_vol_put_log_vec, put_price_log),
]


@settings(max_examples=300, deadline=None)
@given(batch=st.lists(quotes(), min_size=1, max_size=6), tol=st.sampled_from(TOLS))
@example(batch=[(0.0, 1.1), (0.7, 0.3), (-3.2, 2.0), (12.0, 0.9)], tol=1e-12)
def test_vec_matches_scalar_exactly(batch, tol):
    # one vec call over the whole batch equals the scalar entry point on
    # each element; a batch with a failing element raises, and that element
    # alone raises as its scalar solve does.  Under the scalar entry points
    # the float kernel equals the array loop on every out-of-the-money element
    kappa = [q[0] for q in batch]
    for scalar, vec, price in ENTRY_POINTS:
        quote = [float(price(k, sigma)) for k, sigma in batch]
        want = []
        for k, q in zip(kappa, quote):
            try:
                want.append(scalar(k, q, tol).sigma)
            except BachelierWingsError as err:
                want.append(None)
                with pytest.raises(type(err)):
                    vec([k], [q], tol)
        if None in want:
            with pytest.raises(BachelierWingsError):
                vec(kappa, quote, tol)
        else:
            assert vec(kappa, quote, tol).tolist() == want
    otm = [(abs(k), float(call_price_log(abs(k), sigma))) for k, sigma in batch if k != 0.0]
    if otm:
        core = _solve_otm_log_array(*(np.array(side) for side in zip(*otm)), tol)
        for i, q in enumerate(otm):
            assert_kernels_agree(_solve_otm_log_scalar(*q, tol), batch_element(core, i))


def kernel_deck(n: int, seed: int):
    """(kappa, ln price) of n call quotes, half of them in the money: d = |kappa|/sigma
    log-uniform over 1e-9..400 and sigma over 1e-3..1e4, so ln price reaches about -8e4."""
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(math.log(1e-9), math.log(400.0), n))
    sigma = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), n))
    kappa = d * sigma * rng.choice([-1.0, 1.0], n)
    return kappa, call_price_log(kappa, sigma)


@pytest.mark.parametrize("tol, seed", [(1e-12, 21), (1e-6, 22), (1e-300, 23)])
def test_float_kernel_matches_batch_core_bit_for_bit(tol, seed):
    # over 100,000 quotes across the three tolerances: the scalar entry
    # point reduces each through parity and solves it in floats; the batch
    # core solves the same time values in one call.  Every _Solved field
    # and every IvolResult field agrees, and so does every raised error
    kappa, lp = kernel_deck(37_000, seed)
    assert lp.min() < -745.0 and (kappa < 0.0).sum() > 10_000
    ln_intr = np.log(np.maximum(-kappa, 1e-300))
    valid = (kappa > 0.0) | (lp > ln_intr)  # the rest lost their time value to rounding
    assert 3 * valid.sum() > 100_000
    kappa, lp, ln_intr = kappa[valid], lp[valid], ln_intr[valid]
    itm = kappa < 0.0
    log_tv = lp.copy()  # the in-the-money fold as the vec entry points take it
    log_tv[itm] += np.log(-np.expm1(ln_intr[itm] - lp[itm]))
    k = np.abs(kappa)
    batch = _solve_otm_log_array(k, log_tv, tol)

    floats = [_solve_otm_log_scalar(*q, tol) for q in zip(k.tolist(), log_tv.tolist())]
    for name, want in zip(_Solved._fields, batch):
        np.testing.assert_array_equal(np.array([getattr(f, name) for f in floats]), want, err_msg=name)

    ok = batch.converged & ~batch.unattainable
    assert ok.any() and (tol > 1e-300 or not ok.all())  # tol 1e-300 fails many quotes
    want_sigma = np.exp(batch.x)
    want_residual = np.exp(log_tv) * np.abs(np.expm1(batch.g))
    for i, q in enumerate(zip(kappa.tolist(), lp.tolist())):
        if ok[i]:
            r = implied_vol_call_log(*q, tol)
            assert (r.sigma, r.iterations, r.residual) == (
                want_sigma[i], batch.iterations[i], want_residual[i]), q
            assert r.method == _method_label(bool(batch.deep[i]), bool(batch.bisected[i])), q
        else:
            assert_raises_as_batch(lambda: implied_vol_call_log(*q, tol),
                                   batch_element(batch, i), log_tv[i:i + 1], tol)


def assert_raises_as_batch(call, one: _Solved, log_tv, tol) -> None:
    """call raises what _raise_first_failure raises on the batch core's element."""
    with pytest.raises(BachelierWingsError) as want:
        _raise_first_failure(one, log_tv, tol)
    with pytest.raises(type(want.value)) as got:
        call()
    assert getattr(got.value, "bracket", None) == getattr(want.value, "bracket", None)
    assert getattr(got.value, "achieved", None) == getattr(want.value, "achieved", None)


@pytest.mark.parametrize("kappa, log_tv, tol", [
    (4.575635314717512e-16, math.log(7.76274387948033e-08), 1e-300),  # the repeat stop, unattainable
    (1.0, math.log(0.3), 1e-18),  # unattainable
    (1e-310, -1e5, 1e-12),  # ConvergenceFailure: a subnormal kappa, the iterate repeats short of tol
])
def test_float_kernel_raises_as_batch_core(kappa, log_tv, tol):
    log_tv = np.array([log_tv])
    one = _solve_otm_log_array(np.array([kappa]), log_tv, tol)
    assert not (one.converged[0] and not one.unattainable[0])
    assert_raises_as_batch(lambda: _result_from_core(kappa, float(log_tv[0]), tol), one, log_tv, tol)


@pytest.mark.parametrize("kappa, log_tv", [
    (1e-300, -1e5), (1e300, -1e5), (1.0, -1e5),
    (1e-300, 0.0), (1e300, 0.0),
    (1e-300, math.log(5e-301)), (1.0, math.log(0.5)), (1e300, math.log(5e299)),  # tv = kappa/2
])
@pytest.mark.parametrize("tol", TOLS)
def test_float_kernel_on_extreme_inputs(kappa, log_tv, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _solve_otm_log_scalar(kappa, log_tv, tol)
        want = _solve_otm_log_array(np.array([kappa]), np.array([log_tv]), tol)
        assert_kernels_agree(got, want)
        try:
            implied_vol_call_log(kappa, log_tv, tol)
        except BachelierWingsError:
            pass


# ---------------------------------------------------------------------------
# the size dispatch and the noise floor
# ---------------------------------------------------------------------------

@st.composite
def core_quotes(draw):
    """(k, ln tv) as the vec entry points hand them to the core: a deep quote
    (ln tv below -745, past any price in doubles), a near-money one, or an
    in-the-money one folded through parity."""
    kind = draw(st.sampled_from(["deep", "near", "folded"]))
    sigma = 10.0 ** draw(st.floats(-6.0, 8.0))  # |ln sigma| past 8, where rounding x sets the floor
    if kind == "deep":  # d >= 40 puts ln tv below -780 for every sigma drawn
        k = draw(st.floats(40.0, 400.0)) * sigma
        log_tv = float(call_price_log(k, sigma))
    elif kind == "near":
        k = 10.0 ** draw(st.floats(-9.0, 0.0)) * sigma
        log_tv = float(call_price_log(k, sigma))
    else:  # d <= 2 keeps the time value above the rounding of the price
        k = 10.0 ** draw(st.floats(-3.0, math.log10(2.0))) * sigma
        lp, ln_intr = float(call_price_log(-k, sigma)), math.log(k)
        log_tv = lp + math.log(-math.expm1(ln_intr - lp))
    return k, log_tv


@st.composite
def core_batches(draw):
    n = draw(st.sampled_from([1, _MIN_ARRAY_BATCH - 1, _MIN_ARRAY_BATCH, _MIN_ARRAY_BATCH + 1]))
    quotes = draw(st.lists(core_quotes(), min_size=n, max_size=n))
    return tuple(np.array(side) for side in zip(*quotes))


@settings(max_examples=120, deadline=None)
@given(batch=core_batches(), tol=st.sampled_from(TOLS))
def test_size_dispatch_equals_the_array_loop_property(batch, tol):
    # below _MIN_ARRAY_BATCH the core runs the float twin on each quote: the
    # same fields as the array loop, dtype, shape and bytes
    k, log_tv = batch
    got, want = _solve_otm_log(k, log_tv, tol), _solve_otm_log_array(k, log_tv, tol)
    for name, g, w in zip(_Solved._fields, got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape), name
        assert g.tobytes() == w.tobytes(), name


def test_empty_batch_solves_to_empty_fields():
    empty = np.empty(0)
    want = _solve_otm_log_array(empty, empty, 1e-12)
    got = _solve_otm_log(empty, empty, 1e-12)
    for name, g, w in zip(_Solved._fields, got, want):
        assert (g.dtype, g.shape) == (w.dtype, (0,)), name
    for vec in (implied_vol_call_vec, implied_vol_put_vec, implied_vol_call_log_vec,
                implied_vol_put_log_vec):
        assert vec([], []).shape == (0,)


@pytest.mark.parametrize("kappa", [1e-300, 1e300])
def test_noise_floor_covers_the_rounding_of_ln_sigma(kappa):
    # |ln sigma| is about 690 here: rounding x = ln sigma moves g by about
    # g' |x| eps, far above 8 eps d^2, so without that term in the floor the
    # iterate repeats short of tolerance.  With it the quote solves in two
    # evaluations, as its image at kappa = 1 does (the normalized price is
    # homogeneous of degree one in kappa and sigma)
    image = implied_vol_call_log(1.0, -1e5 - math.log(kappa))
    r = implied_vol_call_log(kappa, -1e5)
    assert r.iterations == image.iterations == 2
    assert r.sigma == pytest.approx(kappa * image.sigma, rel=1e-12)
    assert implied_vol_put_log(-kappa, -1e5) == r
    n = _MIN_ARRAY_BATCH  # the array loop
    assert implied_vol_call_log_vec(np.full(n, kappa), np.full(n, -1e5)).tolist() == [r.sigma] * n
    solved = _solve_otm_log_array(np.array([kappa]), np.array([-1e5]), 1e-12)
    assert solved.converged[0] and solved.iterations[0] == 2


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


def test_log_vec_folds_only_in_the_money_entries():
    # an out-of-the-money entry below exp's range beside an in-the-money
    # one: the parity fold must not touch it (it overflowed expm1 and warned)
    kappa = [45.0, -2.0, 0.5]
    log_price = [-1000.0, float(call_price_log(-2.0, 1.0)), float(call_price_log(0.5, 2.0))]
    got = implied_vol_call_log_vec(kappa, log_price)
    assert got.tolist() == [implied_vol_call_log(k, lp).sigma for k, lp in zip(kappa, log_price)]


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


@pytest.mark.parametrize("solve, kappa, quote", [
    (implied_vol_call_log, 0.0, 800.0),
    (implied_vol_call_log_vec, [0.0], [800.0]),
    (implied_vol_call, 0.0, 1.7e308),
    (implied_vol_call_vec, [0.0, 1.0], [1.7e308, 0.5]),
])
def test_atm_sigma_past_double_range_raises_domain_error(solve, kappa, quote):
    # price * sqrt(2 pi) overflows: no inf sigma, no AccuracyNotReached, no warning
    with pytest.raises(DomainError):
        solve(kappa, quote)


@pytest.mark.parametrize("log_price", [708.0, 708.86, 708.87, 709.5])
def test_atm_overflow_threshold_is_shared_by_scalar_and_vec(log_price):
    # ln(DBL_MAX / sqrt(2 pi)) = 708.8638: one rule, sigma finite, at both entry kinds
    price = float(np.exp(log_price))
    overflows = not math.isfinite(price * SQRT_2PI)
    assert overflows == (log_price > 708.8638)
    for scalar, vec, quote in [(implied_vol_call, implied_vol_call_vec, price),
                               (implied_vol_call_log, implied_vol_call_log_vec, log_price)]:
        assert_same_outcome(scalar, vec, 0.0, quote, 1e-12)
        if overflows:
            with pytest.raises(DomainError):
                scalar(0.0, quote)
        else:
            assert scalar(0.0, quote).sigma == price * SQRT_2PI


@pytest.mark.parametrize("solve, kappa, quote", [
    (implied_vol_call, 1.0, 1e308),
    (implied_vol_put, -1.0, 1e308),
    (implied_vol_call, 1.5e308, 1e307),  # only the top overflows, and the seed is the top
    (implied_vol_call_log, 1.0, 800.0),
    (implied_vol_put_log, 2.0, 800.0),  # in the money: parity leaves ln tv = 800
    (implied_vol_call_vec, [0.5, 1.0], [0.5, 1e308]),
    (implied_vol_put_vec, [-0.5, -1.0], [0.5, 1e308]),
    (implied_vol_call_log_vec, [0.5, -2.0], [-1.0, 800.0]),
    (implied_vol_put_log_vec, [0.0, -1.0], [-1.0, 800.0]),
])
def test_sigma_past_double_range_raises_domain_error(solve, kappa, quote):
    # the solve would start on sigma = inf and end after overflow warnings,
    # which fail the suite
    with pytest.raises(DomainError, match="past the double range"):
        solve(kappa, quote)


def test_top_past_double_range_with_a_wing_seed_still_solves():
    # kappa/2 alone overflows the top, but the wing seed starts far below it:
    # the solve runs on finite sigma as before
    sigma = float.fromhex("0x1.9eb1bdc5ea1dap+1018")
    assert implied_vol_call(1.7e308, 1.0, tol=1e-9).sigma == sigma
    assert implied_vol_call_vec([1.7e308], [1.0], tol=1e-9)[0] == sigma


@pytest.mark.parametrize("log_price", [708.0, 708.86, 708.87, 709.5])
def test_sigma_overflow_threshold_is_shared_by_scalar_and_vec(log_price):
    # at kappa 1 the top overflows where the at-the-money sigma does, past ln tv 708.8638
    price = float(np.exp(log_price))
    overflows = log_price > 708.8638
    for scalar, vec, quote in [(implied_vol_call, implied_vol_call_vec, price),
                               (implied_vol_call_log, implied_vol_call_log_vec, log_price)]:
        assert_same_outcome(scalar, vec, 1.0, quote, 1e-12 * price)
        if overflows:
            with pytest.raises(DomainError):
                scalar(1.0, quote, 1e-12 * price)
        else:
            assert math.isfinite(scalar(1.0, quote, 1e-12 * price).sigma)


def test_convergence_failure_names_the_evaluations_made():
    # the repeat stop ends this solve short of tolerance at its 10th evaluation:
    # kappa is subnormal, so sigma and h carry fewer digits than the noise floor allows for
    kappa, log_tv = 1e-310, -1e5
    n = int(_solve_otm_log_array(np.array([kappa]), np.array([log_tv]), 1e-12).iterations[0])
    assert 3 < n < MAX_ITERATIONS
    for solve in (implied_vol_call_log, implied_vol_call_log_vec):
        with pytest.raises(ConvergenceFailure, match=f"iterate repeated after {n} evaluations"):
            solve(kappa, log_tv)
    # out of budget, the message names the budget
    spent = _Solved(*(np.array([v]) for v in (0.0, MAX_ITERATIONS, False, False, 1.0, False, False,
                                               -1.0, 1.0)))
    with pytest.raises(ConvergenceFailure, match=f"in {MAX_ITERATIONS} evaluations"):
        _raise_first_failure(spent, np.array([0.0]), 1e-12)


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
