"""Every public entry point that takes a number reads it through errors._real
or errors._reals, and a model's evaluators, AnalyticityStrip and SmilePoint
through errors._read: text (even "1.0"), what is no real number and text nested
in a list or an array raise DomainError, and a value's float, np.float64,
integral int and 0-d array forms give bit-identical results.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachelier_wings import bachelier, errors, inversion
from bachelier_wings.errors import DomainError
from bachelier_wings.models import AnalyticityStrip, ModelSpec, asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import (
    QuadratureSettings,
    log_call_price_from_tail,
    log_put_price_from_tail,
    price_from_cf,
    price_from_tail,
    price_grid,
    smile_from_model,
)
from bachelier_wings.smile import SmilePoint
from bachelier_wings.wings import VerdictSettings, condition_i_probe, rv_index, tail_reference_curve

GAUSS = gaussian_model(1.0)
LAPLACE = asym_laplace_model(1.0, 1.0)
NIG = nig_model(2.0, 0.5, 1.0)


def _slot(fn, args: tuple, at, lo: float | None, hi: float | None, optional: bool = False):
    """A table row: call(value), fn with value in place of args[at] (or as the
    keyword at), the range [lo, hi] of its valid values (None: not drawn), and
    whether None is valid there, the parameter's default."""
    def call(value):
        if isinstance(at, str):
            return fn(*args, **{at: value})
        return fn(*args[:at], value, *args[at + 1:])

    return pytest.param(call, lo, hi, optional, id=f"{fn.__name__}[{at}]")


def _bachelier_slots():
    slots = []
    for name in ("norm_pdf", "norm_cdf", "log_norm_cdf"):
        slots.append(_slot(getattr(bachelier, name), (0.0,), 0, -40.0, 40.0))
    for name in ("call_price", "put_price", "call_price_log", "put_price_log", "vega"):
        fn = getattr(bachelier, name)
        slots += [_slot(fn, (0.0, 1.0), 0, -20.0, 20.0), _slot(fn, (1.0, 0.0), 1, 0.1, 10.0)]
    for name in ("mills_sandwich", "mills_sandwich_log"):
        fn = getattr(bachelier, name)
        slots += [_slot(fn, (0.0, 1.0), 0, 0.5, 20.0), _slot(fn, (1.0, 0.0), 1, 0.1, 10.0)]
    for name in ("bachelier_bounds", "bachelier_bounds_log"):
        fn = getattr(bachelier, name)
        slots += [_slot(fn, (0.0, 1.0), 0, 0.1, 100.0), _slot(fn, (1.0, 0.0), 1, 0.1, 10.0)]
    return slots


def _inversion_slots():
    # a price of 25 lies above every intrinsic value at |kappa| <= 20; the
    # others quote the out-of-the-money side, where the intrinsic value is 0
    slots = []
    for side, otm in (("call", 1.0), ("put", -1.0)):
        for vec in ("", "_vec"):
            fn = getattr(inversion, f"implied_vol_{side}{vec}")
            slots += [_slot(fn, (0.0, 25.0), 0, -20.0, 20.0), _slot(fn, (otm, 0.0), 1, 0.01, 10.0),
                      _slot(fn, (otm, 1.5, 0.0), 2, 1e-12, 1e-3)]
            fn = getattr(inversion, f"implied_vol_{side}_log{vec}")
            slots += [_slot(fn, (0.0, math.log(25.0)), 0, -20.0, 20.0),
                      _slot(fn, (otm, 0.0), 1, -50.0, 2.0),
                      _slot(fn, (otm, 0.5, 0.0), 2, 1e-12, 1e-3)]
    return slots


def _other_slots():
    slots = [
        _slot(price_from_tail, (LAPLACE, 0.0), 1, -5.0, 5.0),
        _slot(log_call_price_from_tail, (LAPLACE, 0.0), 1, 0.0, 10.0),
        _slot(log_put_price_from_tail, (LAPLACE, 0.0), 1, -10.0, 0.0),
        _slot(price_from_cf, (LAPLACE, 0.0), 1, -5.0, 5.0),
        _slot(price_from_cf, (GAUSS, 1.0, 0.0), 2, 0.2, 5.0, optional=True),
        _slot(smile_from_model, (LAPLACE, [1.0, 3.0]), "tol_iv", 1e-12, 1e-6),
        _slot(QuadratureSettings, (), "abs_tol", 1e-14, 1e-8),
        _slot(QuadratureSettings, (), "rel_tol", 1e-13, 1e-6),
        _slot(gaussian_model, (0.0,), 0, 0.1, 10.0),
        _slot(asym_laplace_model, (0.0, 1.0), 0, 0.2, 10.0),
        _slot(asym_laplace_model, (1.0, 0.0), 1, 0.2, 10.0),
        _slot(nig_model, (0.0, 0.5, 1.0), 0, 0.6, 10.0),
        _slot(nig_model, (2.0, 0.0, 1.0), 1, -1.9, 1.9),
        _slot(nig_model, (2.0, 0.5, 0.0), 2, 0.1, 5.0),
        _slot(nig_model, (2.0, 0.5, 1.0), "mu", -2.0, 2.0, optional=True),
        _slot(rv_index, (LAPLACE, "right", 0.0, 2000.0), 2, 1.5, 20.0),
        _slot(rv_index, (LAPLACE, "right", 10.0, 0.0), 3, 200.0, 2000.0),
        _slot(condition_i_probe, (LAPLACE, "right", 2, 0.0), 3, 1e-4, 0.06),
        _slot(VerdictSettings, (), "tol_iv", 1e-12, 1e-6),
        _slot(VerdictSettings, (), "wing_lo_scales", 1.0, 10.0),
        _slot(VerdictSettings, (), "wing_hi_scales", 20.0, 60.0),
    ]
    # the one entry of a grid or kappas
    return slots + [
        pytest.param(lambda value: price_grid(LAPLACE, [value]), -5.0, 5.0, False, id="price_grid[entry]"),
        pytest.param(lambda value: smile_from_model(LAPLACE, [value]), -5.0, 5.0, False,
                     id="smile_from_model[entry]"),
        pytest.param(lambda value: tail_reference_curve(LAPLACE, [value], "right"), 1.0, 50.0, False,
                     id="tail_reference_curve[entry]"),
    ]


def _evaluator_slots():
    # each family's four evaluators; the drawn t lies inside every strip (Laplace's
    # is (-1, 1)), and log_tail's sign stays 1.0
    slots = []
    for model in (GAUSS, LAPLACE, NIG):
        for name, call, lo, hi in (("log_pdf", model.log_pdf, -10.0, 10.0),
                                   ("log_tail", lambda x, m=model: m.log_tail(x, 1.0), -10.0, 10.0),
                                   ("mgf", model.mgf, -0.9, 0.9),
                                   ("char_fn", model.char_fn, -5.0, 5.0)):
            slots.append(pytest.param(call, lo, hi, False, id=f"{model.name}.{name}"))
    return slots


REAL_SLOTS = _bachelier_slots() + _inversion_slots() + _other_slots() + _evaluator_slots()
# integer parameters: they refuse what the real ones refuse, and every float
INTEGER_SLOTS = [_slot(condition_i_probe, (LAPLACE, "right", 0, 1e-3), 2, None, None),
                 _slot(VerdictSettings, (), "points_per_side", None, None)]
# the whole grid or kappas argument, which text, None or an object also fills
WHOLE_GRIDS = [_slot(price_grid, (LAPLACE, 0.0), 1, None, None),
               _slot(smile_from_model, (LAPLACE, 0.0), 1, None, None),
               _slot(tail_reference_curve, (LAPLACE, 0.0, "right"), 1, None, None)]
# containers that keep what they are given: a strip boundary may be inf, and a
# failed point's numeric slots hold NaN
CONTAINER_SLOTS = [_slot(AnalyticityStrip, (1.0, 1.0), at, None, None) for at in (0, 1)] + [
    _slot(SmilePoint, (1.0, 0.1, math.log(0.1), 0.5, "ok"), at, None, None) for at in range(4)]

REFUSED = ["1.0", b"1.0", np.str_("1.0"), None, object(), ["1.0"], [b"1.0"], [1.0, "1.0"], [["1.0"]],
           np.array("1.0"), np.array(["1.0"]), np.array([b"1.0"]), np.array(["1.0"], dtype=object),
           np.array([1.0, "1.0"], dtype=object), np.array([1.0, None], dtype=object)]


@pytest.mark.parametrize("call, lo, hi, optional",
                         REAL_SLOTS + INTEGER_SLOTS + WHOLE_GRIDS + CONTAINER_SLOTS)
def test_every_number_refuses_text_and_non_numbers(call, lo, hi, optional):
    for value in REFUSED:
        if value is None and optional:
            continue
        with pytest.raises(DomainError):
            call(value)


@pytest.mark.parametrize("call, lo, hi, optional", INTEGER_SLOTS)
def test_an_integer_slot_refuses_a_bool(call, lo, hi, optional):
    # True is an int to Python, not a derivative order or a point count
    for value in (True, False):
        with pytest.raises(DomainError, match="must be an integer"):
            call(value)


def _canonical(out):
    """out in a form equal for equal bits: floats by hex, arrays by dtype, shape
    and bytes, a model by its fields and its log density and tails on a grid."""
    if isinstance(out, float):
        return out.hex()
    if isinstance(out, complex):
        return out.real.hex(), out.imag.hex()
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    if isinstance(out, ModelSpec):
        x = np.linspace(-6.0, 6.0, 13)
        return (out.name, _canonical(dict(out.params)), _canonical(out.mean), _canonical(out.scale),
                _canonical(out.strip), _canonical(out.breakpoints), _canonical(out.log_pdf(x)),
                _canonical(out.log_tail(x, 1.0)), _canonical(out.log_tail(x, -1.0)))
    if dataclasses.is_dataclass(out):
        return type(out).__name__, tuple(_canonical(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (tuple, list)):
        return tuple(map(_canonical, out))
    if isinstance(out, dict):
        return tuple((k, _canonical(v)) for k, v in out.items())
    return type(out).__name__, out


@settings(max_examples=10, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("call, lo, hi, optional", REAL_SLOTS)
def test_a_value_in_any_real_form_gives_the_same_bits(call, lo, hi, optional, data):
    values = st.floats(lo, hi)
    if math.ceil(lo) <= math.floor(hi):
        values |= st.integers(math.ceil(lo), math.floor(hi)).map(float)
    value = data.draw(values, label="value")
    forms = [value, np.float64(value), np.array(value)]
    if value.is_integer() and float(int(value)).hex() == value.hex():  # -0.0 has no int form
        forms.append(int(value))
    want = _canonical(call(value))
    for form in forms[1:]:
        assert _canonical(call(form)) == want, type(form).__name__


INF = float("inf")


def _put(put, args, *message):
    return pytest.param(put, args, *message, id=f"{put.__name__}{args}")


@pytest.mark.parametrize("put, args, message", [
    _put(bachelier.put_price, (np.float64(INF), 1.0), "kappa must be finite, got inf"),
    _put(bachelier.put_price, (np.float64(-INF), 1.0), "kappa must be finite, got -inf"),
    _put(bachelier.put_price_log, (np.float64(INF), 1.0), "kappa must be finite, got np.float64(inf)"),
    _put(bachelier.put_price_log, (np.float64(-INF), 1.0), "kappa must be finite, got np.float64(-inf)"),
    _put(inversion.implied_vol_put, (INF, 1.0), "kappa must be finite, got inf"),
    _put(inversion.implied_vol_put_log, (-INF, 0.0), "kappa must be finite, got -inf"),
])
def test_a_put_names_the_kappa_it_was_given(put, args, message):
    # the put reflects kappa after reading it, so the message holds the caller's value
    with pytest.raises(DomainError) as err:
        put(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("put, args", [
    _put(bachelier.put_price, ([1.0, -2.0], 1.0)),
    _put(bachelier.put_price_log, ([1.0, -2.0], 1.0)),
    _put(inversion.implied_vol_put_vec, ([1.0, -2.0], [2.0, 0.5])),
    _put(inversion.implied_vol_put_log_vec, ([1.0, -2.0], [0.7, -1.0])),
])
def test_an_array_put_reads_kappa_once(monkeypatch, put, args):
    reads = []
    reals = errors._reals

    def counting(values, name, *rest):
        reads.append(name)
        return reals(values, name, *rest)

    for module in (bachelier, inversion):
        monkeypatch.setattr(module, "_reals", counting)
    put(*args)
    assert reads.count("kappa") == 1
