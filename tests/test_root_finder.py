"""The in-house Brent root finder models._brentq against scipy.optimize.brentq.

The port replaces scipy's brentq in the NIG mode search and in
pricing._default_alpha so that importing the package never loads
scipy.optimize; every root it returns must be scipy's, bit for bit.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bachelier_wings import models, pricing
from bachelier_wings.errors import ConvergenceFailure, DomainError
from bachelier_wings.models import _brentq, asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import _default_alpha


def same_double(got, want) -> bool:
    return type(got) is float and got.hex() == float(want).hex()


@contextlib.contextmanager
def both_roots(module):
    """Run module's _brentq calls through the port and scipy's brentq alike;
    yields the list of (port root, scipy root) pairs."""
    port = module._brentq
    roots = []

    def checked(f, a, b, xtol):
        got = port(f, a, b, xtol)
        roots.append((got, brentq(f, a, b, xtol=xtol)))
        return got

    module._brentq = checked
    try:
        yield roots
    finally:
        module._brentq = port


log_uniform = st.floats(-3.0, 3.0).map(math.exp)


@settings(max_examples=150, deadline=None)
@given(alpha=log_uniform, beta_frac=st.floats(-0.999, 0.999), delta=log_uniform,
       mu=st.none() | st.floats(-5.0, 5.0))
def test_brentq_port_matches_scipy_on_nig_mode_searches(alpha, beta_frac, delta, mu):
    # the mode is searched on the first tail read
    with both_roots(models) as roots:
        nig_model(alpha, alpha * beta_frac, delta, mu).log_tail(0.0, 1)
    assume(roots)
    assert all(same_double(got, want) for got, want in roots), roots


def test_nig_mode_is_searched_on_the_first_tail_read(monkeypatch):
    # building, pricing and a smile never read the mode; the first log_tail
    # call searches it, and later calls on either side reuse it
    calls = []
    port = models._brentq

    def counting(*args, **kwargs):
        calls.append(args)
        return port(*args, **kwargs)

    monkeypatch.setattr(models, "_brentq", counting)
    model = nig_model(2.0, 0.5, 1.0)
    pricing.price_grid(model, [-1.0, 0.0, 2.0])
    pricing.smile_from_model(model, [-1.0, 0.0, 2.0])
    assert calls == []
    first = model.log_tail(np.array([-1.0, 0.0, 2.0]), 1)
    assert len(calls) == 1
    model.log_tail(np.array([-1.0, 0.0, 2.0]), -1)
    assert model.log_tail(np.array([-1.0, 0.0, 2.0]), 1).tolist() == first.tolist()
    assert len(calls) == 1


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["nig", "asym_laplace", "gaussian"]), a=log_uniform,
       frac=st.floats(-0.95, 0.95), c=log_uniform, side=st.sampled_from([1.0, -1.0]),
       t=st.floats(0.06, 0.89))
# M overflows at the top of the bracket, 0.9 of the way to the strip boundary
@example(family="nig", a=math.exp(2.0), frac=-0.9453125, c=math.exp(3.0), side=1.0, t=0.5)
def test_brentq_port_matches_scipy_on_default_alpha_saddles(family, a, frac, c, side, t):
    model = {"nig": lambda: nig_model(a, a * frac, c),
             "asym_laplace": lambda: asym_laplace_model(a, c),
             "gaussian": lambda: gaussian_model(c)}[family]()
    # the moneyness whose saddle point lies at t of the way to the strip boundary
    lam = model.strip.lambda_minus if side > 0.0 else model.strip.lambda_plus
    lam = lam if math.isfinite(lam) else 10.0 / model.scale
    s = side * t * lam
    m_minus, m_plus = model.mgf(np.array([s - 1e-6 * lam, s + 1e-6 * lam]))
    kappa = (math.log(m_plus) - math.log(m_minus)) / (2e-6 * lam)
    assume(math.isfinite(kappa))  # M itself past the double range at the saddle
    with both_roots(pricing) as roots:
        _default_alpha(model, kappa)
    assume(roots)
    assert all(same_double(got, want) for got, want in roots), roots


@pytest.mark.parametrize("f, a, b", [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: x * x - 2.0, -2.0, 0.0),
    (lambda x: math.exp(x) - 3.0, -1.0, 4.0),
    (lambda x: x ** 3 - x - 1.0, 0.0, 3.0),
    (lambda x: math.cos(x) - x, 0.0, 1.5),
    (lambda x: math.atan(x - 0.3), -3.0, 5.0),
    (lambda x: (x - 1e-3) ** 5, -1.0, 2.0),  # flat root: out of iterations unless xtol is 1e-3
    (lambda x: math.tanh(50.0 * (x - 0.7)), -3.0, 1.0),
    (lambda x: x - 1e-300, -1.0, 1.0),
    (lambda x: math.log(x) + 40.0, 1e-30, 3.0),
    (lambda x: x, -1.0, 0.0),  # f(b) == 0
    (lambda x: 1.0 if x > 0.25 else -1.0, -1.0, 1.0),  # a jump: flat steps fall to bisection
])
@pytest.mark.parametrize("xtol", [2e-12, 1e-300, 1e-3])
def test_brentq_port_matches_scipy_on_generic_brackets(f, a, b, xtol):
    try:
        want = brentq(f, a, b, xtol=xtol)
    except RuntimeError:  # out of iterations: the port gives up alike
        with pytest.raises(ConvergenceFailure):
            _brentq(f, a, b, xtol)
    else:
        assert same_double(_brentq(f, a, b, xtol), want)


def test_brentq_port_raises_convergence_failure_where_scipy_gives_up():
    # a flat root: f underflows nowhere near it, so xtol 1e-300 runs out the 100 iterations
    def f(x):
        return (x - 1e-3) ** 5

    with pytest.raises(RuntimeError, match="after 100 iterations"):
        brentq(f, -1.0, 2.0, xtol=1e-300)
    with pytest.raises(ConvergenceFailure, match="in 100 iterations") as err:
        _brentq(f, -1.0, 2.0, 1e-300)
    assert isinstance(err.value, RuntimeError)
    lo, hi = err.value.bracket
    assert -1.0 <= lo < 1e-3 < hi <= 2.0


@pytest.mark.parametrize("f", [lambda x: x * x + 1.0, lambda x: math.nan])
def test_brentq_port_rejects_a_bracket_without_a_sign_change(f):
    with pytest.raises(ValueError):
        brentq(f, -1.0, 1.0)
    with pytest.raises(DomainError):
        _brentq(f, -1.0, 1.0, 2e-12)
