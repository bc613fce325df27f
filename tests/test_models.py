"""Model zoo checks: densities against high-precision oracles, tail
consistency, characteristic functions against direct integration, strip
enforcement, config parsing, and the strip-boundary probe.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from bachelier_wings import models
from bachelier_wings.errors import DomainError, ModelConfigError
from bachelier_wings.models import (
    AnalyticityStrip,
    _geometric_grid,
    _geomspace,
    asym_laplace_model,
    gaussian_model,
    mgf_blowup_boundary,
    nig_model,
    parse_model_config,
)

mp.mp.dps = 50

GAUSS = gaussian_model(2.0)
LAPLACE = asym_laplace_model(1.0, 2.0)
NIG = nig_model(alpha=2.0, beta=0.5, delta=1.0)

# frozen oracle values for nig(alpha=2, beta=0.5, delta=1, zero-centered),
# computed from the Bessel density with 50-digit arithmetic
NIG_PDF = {
    0.0: 0.62427681804185279,
    1.5: 0.062310113832484204,
    -2.0: 0.011265284950657505,
}
NIG_CDF_AT_M1 = 0.067635163820894172
NIG_SF_AT_2 = 0.012752096361473284
NIG_VAR = 0.550824298127277
# relative accuracy of the NIG log tails' double-exponential rule, in linear form
NIG_TAIL_REL = 5e-12


def _pdf(model):
    """The density exp(log_pdf) as a scalar function, for quad."""
    return lambda x: math.exp(model.log_pdf(x))


# =============================================================================
# density oracles
# =============================================================================

def test_gaussian_density_matches_oracle():
    for x in (-5.0, -0.7, 0.0, 1.3, 8.0):
        want = float(mp.npdf(x, 0, 2))
        assert math.exp(GAUSS.log_pdf(x)) == pytest.approx(want, rel=1e-14)
        assert GAUSS.log_pdf(x) == pytest.approx(float(mp.log(mp.npdf(x, 0, 2))), rel=1e-13)


def test_gaussian_tails_match_oracle():
    for x in (-6.0, -1.0, 0.0, 2.5, 7.0):
        assert math.exp(GAUSS.log_tail(x, -1.0)) == pytest.approx(float(mp.ncdf(x / 2.0)), rel=1e-13)
        assert math.exp(GAUSS.log_tail(x, 1.0)) == pytest.approx(float(mp.ncdf(-x / 2.0)), rel=1e-13)
    # far past the underflow floor the log forms must stay finite and correct
    assert GAUSS.log_tail(200.0, 1.0) == pytest.approx(
        float(mp.log(mp.ncdf(-100))), rel=1e-12
    )


def test_laplace_density_closed_form():
    lr, ll = 1.0, 2.0
    m = 1.0 / lr - 1.0 / ll
    c = lr * ll / (lr + ll)
    w_right, w_left = ll / (lr + ll), lr / (lr + ll)  # P(X > -m), P(X < -m)
    for x in (-4.0, -0.5, -m, 0.0, 1.0, 6.0):
        z = x + m
        want = c * math.exp(-lr * z) if z >= 0 else c * math.exp(ll * z)
        assert math.exp(LAPLACE.log_pdf(x)) == pytest.approx(want, rel=1e-14)
        # the closed-form tails, the oracle for both log tails
        cdf = w_left * math.exp(ll * z) if z <= 0 else 1.0 - w_right * math.exp(-lr * z)
        sf = w_right * math.exp(-lr * z) if z >= 0 else 1.0 - w_left * math.exp(ll * z)
        assert LAPLACE.log_tail(x, -1.0) == pytest.approx(math.log(cdf), rel=1e-12), x
        assert LAPLACE.log_tail(x, 1.0) == pytest.approx(math.log(sf), rel=1e-12), x


def test_laplace_mean_is_zero():
    kink = -0.5  # density is non-smooth where the centered argument crosses 0
    pdf = _pdf(LAPLACE)
    lo, _ = quad(lambda x: x * pdf(x), -60.0, kink, limit=200)
    hi, _ = quad(lambda x: x * pdf(x), kink, 120.0, limit=200)
    assert abs(lo + hi) < 1e-10


def test_nig_density_matches_frozen_oracle():
    for x, want in NIG_PDF.items():
        assert math.exp(NIG.log_pdf(x)) == pytest.approx(want, rel=5e-14)


def test_nig_tails_match_frozen_oracle():
    assert math.exp(NIG.log_tail(-1.0, -1.0)) == pytest.approx(NIG_CDF_AT_M1, rel=NIG_TAIL_REL)
    assert math.exp(NIG.log_tail(2.0, 1.0)) == pytest.approx(NIG_SF_AT_2, rel=NIG_TAIL_REL)


# Strongly skewed NIG models, whose mode sits 0.5-0.66 scales off the
# mean: P(X > mean + j scale) for j = -1, -0.5, 0, 0.5, 1, from 30-digit
# mpmath integrals of the Bessel density (split at 2^i/4 scales past x)
NIG_SKEWED_SF = {
    (3.5744, -3.3765, 1.3122): (0.87450095810516103546, 0.78811908294099973839,
                                0.63340715810106392284, 0.36260356229841961577,
                                0.045768014177193921103),
    (2.0, 1.8, 1.0): (0.97725667102135626795, 0.65854777101678550562,
                      0.3437620216881054165, 0.19145721154254236467,
                      0.11388163603483334312),
    (2.0, -1.8, 0.5): (0.90382113245179860655, 0.83992631281485223475,
                       0.69501547296040259059, 0.27647633359460979569,
                       0.006556196509622184637),
}


@pytest.mark.parametrize("params", list(NIG_SKEWED_SF))
def test_nig_tails_near_mean_match_mpmath(params):
    # the tails' rule runs outward from the mode, not the mean; from the
    # mean it was off by up to 9.1e-5 relative on these models
    model = nig_model(*params)
    for j, sf in zip((-1.0, -0.5, 0.0, 0.5, 1.0), NIG_SKEWED_SF[params]):
        x = model.mean + j * model.scale
        assert math.exp(model.log_tail(x, 1.0)) == pytest.approx(sf, rel=NIG_TAIL_REL), j
        assert math.exp(model.log_tail(x, -1.0)) == pytest.approx(1.0 - sf, rel=NIG_TAIL_REL), j


@pytest.mark.parametrize("params", [(2.0, 0.5, 1.0), (3.5744, -3.3765, 1.3122),
                                    (1.0, 0.0, 0.5), (4.0, 3.5, 2.0)])
def test_nig_log_pdf_matches_mpmath_bessel_density(params):
    # ln f = ln(alpha delta / pi) + delta gamma + beta (x - mu) - ln s
    # + ln K_1(alpha s), s = hypot(delta, x - mu), at the module's 50 digits
    # on the double arguments the model sees; the sweep reaches alpha s > 3.5e9,
    # where scipy's kve(1, .) returns NaN
    model = nig_model(*params)
    a, b, d = (mp.mpf(v) for v in params)
    mu = mp.mpf(model.params["mu"])
    offsets = np.geomspace(1e-3, 1e10, 14)
    xs = np.concatenate([model.mean - offsets[::-1], model.mean + offsets])
    log_front = mp.log(a * d / mp.pi) + d * mp.sqrt(a * a - b * b)
    for x, lf in zip(xs.tolist(), model.log_pdf(xs).tolist()):
        z = mp.mpf(x) - mu
        s = mp.sqrt(d * d + z * z)
        want = log_front + b * z - mp.log(s) + mp.log(mp.besselk(1, a * s))
        assert abs(lf - want) <= 1e-14 * max(1.0, abs(lf)), x


def test_nig_moments():
    lo, hi = -400.0, 400.0
    pdf = _pdf(NIG)
    mass, _ = quad(pdf, lo, hi, limit=400)
    mean, _ = quad(lambda x: x * pdf(x), lo, hi, limit=400)
    var, _ = quad(lambda x: x * x * pdf(x), lo, hi, limit=400)
    assert abs(mass - 1.0) < 1e-10
    assert abs(mean) < 1e-10
    assert var == pytest.approx(NIG_VAR, rel=1e-9)


def test_nig_explicit_mu_shifts_mean():
    shifted = nig_model(alpha=2.0, beta=0.5, delta=1.0, mu=0.75)
    gamma = math.sqrt(4.0 - 0.25)
    assert shifted.mean == pytest.approx(0.75 + 0.5 / gamma, rel=1e-15)


def test_nig_mu_translation_identity():
    base = nig_model(alpha=2.0, beta=0.5, delta=1.0, mu=0.0)
    shifted = nig_model(alpha=2.0, beta=0.5, delta=1.0, mu=3.0)
    for x in (-1.0, 0.2, 4.0):
        assert math.exp(shifted.log_pdf(x + 3.0)) == pytest.approx(math.exp(base.log_pdf(x)), rel=1e-13)


# =============================================================================
# distribution-function invariants
# =============================================================================

@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_unit_mass(model):
    lo = model.mean - 60.0 * model.scale
    hi = model.mean + 60.0 * model.scale
    val, _ = quad(_pdf(model), lo, hi, limit=400)
    assert abs(val - 1.0) < 1e-10


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_cdf_derivative_is_density(model):
    h = 1e-5
    for x in (-2.3, -0.4, 0.9, 3.1):
        fd = (math.exp(model.log_tail(x + h, -1.0)) - math.exp(model.log_tail(x - h, -1.0))) / (2.0 * h)
        assert fd == pytest.approx(math.exp(model.log_pdf(x)), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_tails_sum_to_one(model):
    x = np.linspace(-8.0, 8.0, 33)
    total = np.exp(model.log_tail(x, -1.0)) + np.exp(model.log_tail(x, 1.0))
    assert np.all(np.abs(total - 1.0) <= 1e-12)


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_vectorized_matches_scalar(model):
    # every callable field but char_fn and mgf, which have their own tests
    names = [f.name for f in dataclasses.fields(model)
             if callable(getattr(model, f.name)) and f.name not in ("char_fn", "mgf")]
    assert names == ["log_pdf", "log_tail"]
    xs = np.array([-2.0, -0.3, 0.0, 1.7, 4.2])
    # the log tail on both signs, the survival function (+1) and the cdf (-1)
    for fn in (model.log_pdf, lambda x: model.log_tail(x, 1.0), lambda x: model.log_tail(x, -1.0)):
        batch = fn(xs)
        assert batch.shape == xs.shape
        for i, x in enumerate(xs):
            value = fn(float(x))
            assert type(value) is float and batch[i] == value


# each family beside the member that its parameters mirror, the law of -X
_MIRRORED_FAMILIES = st.one_of(
    st.floats(0.2, 5.0).map(lambda s: (gaussian_model(s), gaussian_model(s))),
    st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)).map(
        lambda p: (asym_laplace_model(*p), asym_laplace_model(p[1], p[0]))),
    st.tuples(st.floats(0.5, 5.0), st.floats(-0.95, 0.95), st.floats(0.3, 3.0)).map(
        lambda p: (nig_model(p[0], p[1] * p[0], p[2]), nig_model(p[0], -p[1] * p[0], p[2]))),
)


@settings(max_examples=200, deadline=None)
@given(pair=_MIRRORED_FAMILIES,
       x=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=8),
       sign=st.sampled_from([1.0, -1.0]))
@example(pair=(asym_laplace_model(2.0, 0.7), asym_laplace_model(0.7, 2.0)),
         x=[0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300], sign=1.0)
@example(pair=(NIG, nig_model(2.0, -0.5, 1.0)),
         x=[0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300], sign=-1.0)
def test_mirrored_parameters_mirror_the_log_tail_bit_for_bit(pair, x, sign):
    # the signed tail is written once, so a family mirrored by its parameters
    # (Laplace rates swapped, NIG's beta negated, a Gaussian as it is) reads
    # log_tail(x, s) == mirror.log_tail(-x, -s) bit for bit, x in model scales
    # and at the density's kinks
    model, mirror = pair
    xs = np.concatenate((np.array(x) * model.scale, model.breakpoints))
    want, got = model.log_tail(xs, sign), mirror.log_tail(-xs, -sign)
    assert np.array_equal(want.view(np.uint64), got.view(np.uint64)), (want, got)


def test_nig_deep_log_tail_slope():
    # the right tail decays like x^{-3/2} e^{-(alpha-beta) x}; over a deep
    # doubling the log-slope must sit on alpha - beta = 1.5 to high accuracy
    l1 = NIG.log_tail(4000.0, 1.0)
    l2 = NIG.log_tail(8000.0, 1.0)
    slope = (l2 - l1) / 4000.0
    assert math.isfinite(l1) and math.isfinite(l2)
    assert slope == pytest.approx(-1.5, abs=1e-2)
    left1 = NIG.log_tail(-4000.0, -1.0)
    left2 = NIG.log_tail(-8000.0, -1.0)
    assert (left2 - left1) / 4000.0 == pytest.approx(-2.5, abs=1e-2)


def test_laplace_log_tails_deep():
    # closed form: survival decays at exactly lambda_r past the kink
    lr, ll = 1.0, 2.0
    m = 1.0 / lr - 1.0 / ll
    got = LAPLACE.log_tail(5000.0, 1.0)
    want = math.log(ll / (lr + ll)) - lr * (5000.0 + m)
    assert got == pytest.approx(want, rel=1e-14)


# =============================================================================
# characteristic functions and mgf
# =============================================================================

def _cf_by_quadrature(model, u: float) -> complex:
    lo = model.mean - 60.0 * model.scale
    hi = model.mean + 60.0 * model.scale
    pdf = _pdf(model)
    re, _ = quad(lambda x: math.cos(u * x) * pdf(x), lo, hi, limit=800)
    im, _ = quad(lambda x: math.sin(u * x) * pdf(x), lo, hi, limit=800)
    return complex(re, im)


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
@pytest.mark.parametrize("u", [-20.0, -3.0, 0.0, 1.0, 7.5, 20.0])
def test_char_fn_matches_density_transform(model, u):
    want = _cf_by_quadrature(model, u)
    got = model.char_fn(u)
    assert abs(got - want) < 1e-8


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_char_fn_at_zero_and_symmetry(model):
    assert model.char_fn(0.0) == pytest.approx(1.0, abs=1e-14)
    z = model.char_fn(3.7)
    assert model.char_fn(-3.7) == pytest.approx(z.conjugate(), rel=1e-13)


def test_char_fn_complex_argument_inside_strip():
    # on the imaginary axis the CF reduces to the mgf
    for model in (LAPLACE, NIG):
        s = 0.4
        got = model.char_fn(complex(0.0, -s))
        assert got.imag == pytest.approx(0.0, abs=1e-14)
        assert got.real == pytest.approx(model.mgf(s), rel=1e-13)


def test_char_fn_rejects_outside_strip():
    with pytest.raises(DomainError):
        LAPLACE.char_fn(complex(1.0, -1.0))  # at the right pole
    with pytest.raises(DomainError):
        LAPLACE.char_fn(complex(0.0, 2.5))
    with pytest.raises(DomainError):
        NIG.char_fn(complex(3.0, -1.6))
    # well inside is fine
    NIG.char_fn(complex(3.0, -1.4))


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan, complex(0.0, math.nan),
                                np.array([0.5, math.nan, 1.0])],
                         ids=["inf", "-inf", "nan", "imag_nan", "array_with_nan"])
@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_char_fn_refuses_a_non_finite_argument(model, xi):
    # as mgf does, on every strip, with no RuntimeWarning (which fails the suite)
    with pytest.raises(DomainError, match="^xi must be finite, got"):
        model.char_fn(xi)


def test_mgf_domain_enforced():
    with pytest.raises(DomainError):
        LAPLACE.mgf(1.0)
    with pytest.raises(DomainError):
        LAPLACE.mgf(-2.0)
    with pytest.raises(DomainError):
        NIG.mgf(1.5)
    assert LAPLACE.mgf(0.0) == pytest.approx(1.0, rel=1e-15)
    assert NIG.mgf(0.0) == pytest.approx(1.0, rel=1e-15)
    # gaussian strip is infinite: any real argument works
    assert GAUSS.mgf(10.0) == pytest.approx(math.exp(0.5 * 4.0 * 100.0), rel=1e-14)


MGF_GRIDS = {
    "gaussian": np.linspace(-6.0, 6.0, 49),
    "asym_laplace": np.linspace(-1.999, 0.999, 61),  # strip (-2, 1)
    "nig": np.linspace(-2.499, 1.499, 61),           # strip (-2.5, 1.5)
}


@pytest.mark.parametrize("model", [GAUSS, LAPLACE, NIG], ids=lambda m: m.name)
def test_mgf_takes_arrays_bit_for_bit(model):
    t = MGF_GRIDS[model.name]
    got = model.mgf(t)
    one_by_one = [model.mgf(v) for v in t]
    assert all(type(v) is float for v in one_by_one)
    assert got.shape == t.shape
    assert got.tobytes() == np.array(one_by_one).tobytes()
    # any shape, as the strip probe passes a stencil-by-grid block
    assert model.mgf(t.reshape(-1, 1)).tobytes() == got.tobytes()


@pytest.mark.parametrize("model, outside", [(GAUSS, math.inf), (LAPLACE, 1.0), (NIG, -2.5)],
                         ids=lambda v: getattr(v, "name", str(v)))
def test_mgf_array_with_one_point_outside_raises_like_a_scalar(model, outside):
    with pytest.raises(DomainError) as scalar:
        model.mgf(outside)
    t = np.append(MGF_GRIDS[model.name], outside)
    with pytest.raises(DomainError) as array:
        model.mgf(t)
    assert str(array.value) == str(scalar.value)
    with pytest.raises(DomainError):
        model.mgf(np.append(t[:3], math.nan))


def test_gaussian_mgf_past_double_range_is_a_quiet_inf():
    # e^(sigma^2 t^2 / 2) overflows near |t| = 18.8 for sigma 2; the value is
    # inf with no warning, in either form, and finite arguments stay finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GAUSS.mgf(19.0) == math.inf
        assert GAUSS.mgf(-1e200) == math.inf
        got = GAUSS.mgf(np.array([-1e200, -19.0, 0.0, 18.0, 19.0]))
    assert got[[0, 1, 4]].tolist() == [math.inf] * 3
    assert got[2] == 1.0 and math.isfinite(got[3])


@pytest.mark.parametrize("model, t", [
    # a large mean: m t passes 709 well inside the strip (14.37 wide)
    (nig_model(math.exp(2.0), -0.9453125 * math.exp(2.0), math.exp(3.0)), 12.94),
    # lambda_l 1e-3 shifts the mean to -999, so e^(-t m) overflows near t = 0.71
    (asym_laplace_model(1.0, 1e-3), 0.99),
])
def test_mgf_past_double_range_is_a_quiet_inf(model, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert model.mgf(t) == math.inf
        got = model.mgf(np.array([0.5, t]))
    assert math.isfinite(got[0]) and got[1] == math.inf


def test_mgf_matches_integral():
    pdf = _pdf(LAPLACE)
    tilt = lambda x: math.exp(0.7 * x) * pdf(x)
    lo, _ = quad(tilt, -160.0, -0.5, limit=400)   # split at the density kink
    hi, _ = quad(tilt, -0.5, 240.0, limit=400)    # tilted tail decays at rate 0.3
    assert LAPLACE.mgf(0.7) == pytest.approx(lo + hi, rel=1e-10)
    want, _ = quad(lambda x: math.exp(1.2 * x) * _pdf(NIG)(x), -300.0, 300.0, limit=400)
    assert NIG.mgf(1.2) == pytest.approx(want, rel=1e-9)


# =============================================================================
# strip metadata and probe
# =============================================================================

def test_strip_fields():
    assert GAUSS.strip.lambda_minus == math.inf
    assert math.isinf(GAUSS.strip.lambda_plus)
    assert LAPLACE.strip.lambda_minus == 1.0
    assert LAPLACE.strip.lambda_plus == 2.0
    assert NIG.strip.lambda_minus == pytest.approx(1.5)
    assert NIG.strip.lambda_plus == pytest.approx(2.5)
    with pytest.raises(DomainError):
        AnalyticityStrip(0.0, 1.0)
    with pytest.raises(DomainError):
        AnalyticityStrip(1.0, -3.0)


def test_blowup_probe_laplace_exact():
    assert mgf_blowup_boundary(LAPLACE, "right") == pytest.approx(1.0, abs=1e-9)
    assert mgf_blowup_boundary(LAPLACE, "left") == pytest.approx(2.0, abs=1e-9)


def test_blowup_probe_nig_close():
    assert mgf_blowup_boundary(NIG, "right") == pytest.approx(1.5, abs=1e-3)
    assert mgf_blowup_boundary(NIG, "left") == pytest.approx(2.5, abs=1e-3)


def test_blowup_probe_gaussian_infinite():
    assert mgf_blowup_boundary(GAUSS, "right") == math.inf
    assert mgf_blowup_boundary(GAUSS, "left") == math.inf


def test_blowup_probe_rejects_bad_side():
    with pytest.raises(DomainError):
        mgf_blowup_boundary(LAPLACE, "up")


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(1e-300, 1e300), ratio=st.floats(1.0, 1e8, exclude_min=True),
       n=st.integers(1, 60), negative=st.booleans())
@example(lo=5.0, ratio=8.0, n=12, negative=False)  # the report's wing at unit scale
@example(lo=5.0, ratio=8.0, n=12, negative=True)
@example(lo=1e-3, ratio=1e6, n=200, negative=False)  # the CLI suite's sandwich grid
@example(lo=1.0, ratio=1.0 + 2.0**-52, n=60, negative=False)
def test_geomspace_mirror_equals_numpy_bit_for_bit(lo, ratio, n, negative):
    # 0 < lo < hi, or both endpoints negative (-hi < -lo < 0, either order)
    hi = lo * ratio
    if negative:
        lo, hi = -hi, -lo
    for a, b in ((lo, hi), (hi, lo)):
        got, want = _geomspace(a, b, n), np.geomspace(a, b, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(st.tuples(st.floats(1e-300, 1e290), st.sampled_from([4.0, 200.0, 512.0])
                                | st.floats(1.0, 1e8, exclude_min=True), st.integers(2, 40)),
                      min_size=1, max_size=6))
@example(calls=[(2.0**-12 * 0.7, 512.0, 9), (2.0**-12 * 2.0, 512.0, 9), (2000.0, 4.0, 33)])
def test_geometric_grid_equals_its_formula_bit_for_bit(calls):
    # each (ratio, n) twice, so the second call reads the cached row, and a repeated
    # ratio under another lo reads it too
    for lo, ratio, n in calls + calls:
        hi = lo * ratio
        got, want = _geometric_grid(lo, hi, n), lo * (hi / lo) ** (np.arange(n) / (n - 1))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert got.flags.writeable  # the caller's own array


def test_cached_grids_are_read_only():
    x = models._BLOWUP_X
    assert x.view(np.uint64).tolist() == _geometric_grid(2000.0, 8000.0, 33).view(np.uint64).tolist()
    for sign in (1.0, -1.0):
        assert models._BLOWUP_POINTS[sign].view(np.uint64).tolist() == (sign * x).view(np.uint64).tolist()
    for cached in (x, models._BLOWUP_POINTS[1.0], models._BLOWUP_POINTS[-1.0],
                   models._ratio_powers(512.0, 9)):
        with pytest.raises(ValueError, match="read-only"):
            cached[0] = 0.0
    # a caller that writes to its grid leaves the cached row alone
    grid = _geometric_grid(1.0, 512.0, 9)
    grid[:] = 7.0
    assert _geometric_grid(1.0, 512.0, 9).tolist() == (512.0 ** (np.arange(9) / 8.0)).tolist()


# =============================================================================
# constructor validation and config parsing
# =============================================================================

def test_constructor_rejects_bad_params():
    with pytest.raises(DomainError):
        gaussian_model(0.0)
    with pytest.raises(DomainError):
        gaussian_model(math.nan)
    with pytest.raises(DomainError):
        asym_laplace_model(-1.0, 2.0)
    with pytest.raises(DomainError):
        nig_model(alpha=1.0, beta=1.0, delta=1.0)  # needs alpha > |beta|
    with pytest.raises(DomainError):
        nig_model(alpha=2.0, beta=0.5, delta=0.0)


def test_parse_happy_paths():
    g = parse_model_config({"model": "gaussian", "params": {"sigma": 2.0}})
    assert g.name == "gaussian" and g.params["sigma"] == 2.0
    l = parse_model_config({"model": "asym_laplace", "params": {"lambda_r": 1, "lambda_l": 2}})
    assert l.strip.lambda_minus == 1.0
    n = parse_model_config({"model": "nig", "params": {"alpha": 2, "beta": 0.5, "delta": 1}})
    assert n.mean == pytest.approx(0.0, abs=1e-15)
    n2 = parse_model_config(
        {"model": "nig", "params": {"alpha": 2, "beta": 0.5, "delta": 1, "mu": 0.1}}
    )
    assert n2.params["mu"] == 0.1


@pytest.mark.parametrize(
    "config, field",
    [
        (["gaussian"], "<root>"),
        ({}, "model"),
        ({"model": "student_t", "params": {}}, "model"),
        ({"model": 3, "params": {}}, "model"),
        ({"model": "gaussian"}, "params"),
        ({"model": "gaussian", "params": 7}, "params"),
        ({"model": "gaussian", "params": {}}, "params.sigma"),
        ({"model": "gaussian", "params": {"sigma": "wide"}}, "params.sigma"),
        ({"model": "gaussian", "params": {"sigma": True}}, "params.sigma"),
        ({"model": "gaussian", "params": {"sigma": math.inf}}, "params.sigma"),
        ({"model": "gaussian", "params": {"sigma": 1.0, "nu": 3}}, "params.nu"),
        ({"model": "gaussian", "params": {"sigma": 1.0}, "extra": 1}, "extra"),
        ({"model": "nig", "params": {"alpha": 2, "beta": 0.5}}, "params.delta"),
    ],
)
def test_parse_errors_name_the_field(config, field):
    with pytest.raises(ModelConfigError) as err:
        parse_model_config(config)
    assert err.value.field == field
    assert err.value.reason


def test_parse_propagates_domain_violations():
    with pytest.raises(DomainError):
        parse_model_config({"model": "nig", "params": {"alpha": 1.0, "beta": 2.0, "delta": 1.0}})
