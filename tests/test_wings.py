"""Wing diagnostics: slope extrapolation against synthetic and closed-form
smiles, tail reference curves, tail-growth index recovery, strip-boundary
probes, residual diagnostics, and the combined verdict report.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bachelier_wings.bachelier import LN_SQRT_2PI
from bachelier_wings.errors import (
    AccuracyNotReached,
    BachelierWingsError,
    DomainError,
    InsufficientWingData,
    NotApplicableInfiniteStrip,
    TailUnderflow,
)
from bachelier_wings.models import (
    AnalyticityStrip,
    _line_fit,
    asym_laplace_model,
    gaussian_model,
    mgf_blowup_boundary,
    nig_model,
)
from bachelier_wings.pricing import smile_from_model
from bachelier_wings.smile import STATUS_FAILED, STATUS_OK, SmileGrid, SmilePoint
from bachelier_wings.wings import (
    AsymptoticResidual,
    ConditionIProbe,
    VerdictSettings,
    WingEstimate,
    _escalating_probe,
    _PROBE_S_MIN_FRAC,
    asymptotic_residuals,
    condition_i_probe,
    rv_index,
    tail_reference_curve,
    theorem_verdicts,
    wing_slope,
)

GAUSS1 = gaussian_model(1.0)
LAPLACE = asym_laplace_model(1.0, 1.0)
SKEWED = asym_laplace_model(1.0, 2.0)
NIG = nig_model(2.0, 0.5, 1.0)


def _ok_point(kappa: float, ivol: float) -> SmilePoint:
    return SmilePoint(
        kappa=kappa, price=1.0, log_price=0.0, ivol=ivol, status=STATUS_OK
    )


def _synthetic_smile(side_sign: float, slope: float, offset: float) -> SmileGrid:
    # implied variance exactly slope*|k| + offset, so samples are linear
    # in 1/|k| and the extrapolation must recover the slope exactly
    ks = side_sign * np.array([4.0, 6.0, 9.0, 13.5, 20.25, 30.375])
    pts = [_ok_point(float(k), math.sqrt(slope * abs(k) + offset)) for k in ks]
    pts.append(_ok_point(0.0, 1.0))
    pts.sort(key=lambda p: p.kappa)
    return SmileGrid(points=tuple(pts))


# =============================================================================
# types
# =============================================================================

def test_wing_estimate_validation():
    with pytest.raises(DomainError):
        WingEstimate(side="up", slope_samples=(), extrapolated_slope=0.0)
    with pytest.raises(DomainError):
        WingEstimate(
            side="right", slope_samples=((5.0, -0.1),), extrapolated_slope=0.1
        )
    with pytest.raises(DomainError):
        WingEstimate(side="right", slope_samples=(), extrapolated_slope=-0.2)


def test_probe_type_is_frozen():
    p = ConditionIProbe(
        side="right", n=0, rho_estimate=1.0, regression_r2=0.999, s_grid=(0.1,)
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 1


# =============================================================================
# wing slope
# =============================================================================

def test_wing_slope_exact_on_linear_variance():
    est = wing_slope(_synthetic_smile(+1.0, 0.5, 0.8), "right")
    assert est.side == "right"
    assert abs(est.extrapolated_slope - 0.5) < 1e-10
    # samples ordered outward and equal to I^2/|k|
    ks = [k for k, _ in est.slope_samples]
    assert ks == sorted(ks)
    assert est.slope_samples[0] == pytest.approx((4.0, 0.5 + 0.8 / 4.0))


def test_wing_slope_left_mirror():
    est = wing_slope(_synthetic_smile(-1.0, 0.25, 1.3), "left")
    assert abs(est.extrapolated_slope - 0.25) < 1e-10
    assert all(k < 0 for k, _ in est.slope_samples)
    # outward order means growing magnitude
    mags = [abs(k) for k, _ in est.slope_samples]
    assert mags == sorted(mags)


def test_wing_slope_needs_four_points_beyond_twice_central():
    pts = [
        _ok_point(0.0, 1.0),
        _ok_point(1.5, 1.1),  # inside 2x central scale, must not count
        _ok_point(4.0, 1.6),
        _ok_point(8.0, 2.2),
        _ok_point(16.0, 3.0),
    ]
    smile = SmileGrid(points=tuple(sorted(pts, key=lambda p: p.kappa)))
    with pytest.raises(InsufficientWingData):
        wing_slope(smile, "right")


def test_wing_slope_ignores_failed_points():
    ks = [4.0, 6.0, 9.0, 13.5, 20.25]
    pts = [_ok_point(k, math.sqrt(0.5 * k + 1.0)) for k in ks]
    pts.append(_ok_point(0.0, 1.0))
    bad = SmilePoint(
        kappa=30.0,
        price=math.nan,
        log_price=math.nan,
        ivol=math.nan,
        status=STATUS_FAILED,
    )
    pts.append(bad)
    smile = SmileGrid(points=tuple(sorted(pts, key=lambda p: p.kappa)))
    est = wing_slope(smile, "right")
    assert all(k != 30.0 for k, _ in est.slope_samples)
    assert abs(est.extrapolated_slope - 0.5) < 1e-10


def test_wing_slope_rejects_bad_side():
    # the side is checked first: on an all-failed smile too, which has no wing to read
    failed = SmileGrid(points=(SmilePoint(1.0, math.nan, math.nan, math.nan, STATUS_FAILED),))
    for smile in (_synthetic_smile(1.0, 0.5, 0.8), failed):
        with pytest.raises(DomainError, match="side must be"):
            wing_slope(smile, "upper")
    with pytest.raises(InsufficientWingData):
        wing_slope(failed, "right")


def test_wing_slope_laplace_within_two_percent():
    wing = np.geomspace(5.0, 40.0, 12)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    smile = smile_from_model(LAPLACE, grid)
    for side in ("right", "left"):
        est = wing_slope(smile, side)
        assert abs(est.extrapolated_slope - 0.5) < 0.02 * 0.5


def test_wing_slope_scale_equivariance():
    # halving both tail rates doubles returns; implied vol obeys
    # I_c(c*k) = c * I(k), so fitted slopes scale by c
    scaled = asym_laplace_model(0.5, 0.5)
    wing = np.geomspace(5.0, 40.0, 10)
    base_grid = np.concatenate([-wing[::-1], [0.0], wing])
    est1 = wing_slope(smile_from_model(LAPLACE, base_grid), "right")
    est2 = wing_slope(smile_from_model(scaled, 2.0 * base_grid), "right")
    assert est2.extrapolated_slope == pytest.approx(
        2.0 * est1.extrapolated_slope, rel=1e-6
    )


# =============================================================================
# tail reference curve
# =============================================================================

def test_tail_reference_laplace_closed_form():
    # survival at k>0 is exp(-k)/2, so the curve is k / (2 (k + ln 2))
    refs = tail_reference_curve(LAPLACE, [10.0, 20.0, 40.0], "right")
    for k, val in refs:
        assert val == pytest.approx(k / (2.0 * (k + math.log(2.0))), rel=1e-12)


def test_tail_reference_left_uses_magnitude():
    a = tail_reference_curve(SKEWED, [-15.0], "left")[0][1]
    b = tail_reference_curve(SKEWED, [15.0], "left")[0][1]
    assert a == b
    # left rate 2 puts the curve near 1/4 at depth
    assert abs(a - 0.25) < 0.02


def test_tail_readers_reject_bad_side():
    # before the kappas or the range are read, a bad range included
    for read in (lambda: tail_reference_curve(LAPLACE, [5.0], "upper"),
                 lambda: tail_reference_curve(LAPLACE, ["no kappa"], "upper"),
                 lambda: rv_index(LAPLACE, "upper", 10.0, 100.0),
                 lambda: rv_index(LAPLACE, "upper", 0.5, 100.0)):
        with pytest.raises(DomainError, match="side must be"):
            read()


def test_tail_reference_rejects_malformed_kappas():
    # kappas that are text, no iterable, or hold an entry that is no finite number
    # or is text, even text that reads as a number
    for kappas in ("12", b"12", 3.0, None, np.array(2.0), ["x"], [5.0, object()], [[5.0]],
                   [math.inf], [5.0, math.nan], (k for k in (5.0, -math.inf)),
                   ["1.5", "2"], [5.0, b"2"], np.array(["1.5", "2"])):
        with pytest.raises(DomainError, match="kappas must be"):
            tail_reference_curve(LAPLACE, kappas, "right")
    # the side is checked first
    for kappas in ("12", 3.0, [math.nan], ["1.5", "2"]):
        with pytest.raises(DomainError, match="side must be"):
            tail_reference_curve(LAPLACE, kappas, "upper")
    # good kappas in the caller's order, duplicates kept, each one's bits as given
    ks = [7.5, -3.0, 7.5, 0.1 + 0.2, np.float32(2.5), 4, np.float64(-1e-300)]
    refs = tail_reference_curve(LAPLACE, ks, "left")
    assert _bits([k for k, _ in refs]) == _bits([float(k) for k in ks])
    assert refs == tail_reference_curve(LAPLACE, np.array(ks, dtype=float), "left")


def test_tail_reference_never_underflows_at_depth():
    refs = tail_reference_curve(GAUSS1, [500.0], "right")
    # -ln tail ~ k^2/2, so the value decays like 2/(2k) -> tiny but finite
    assert 0.0 < refs[0][1] < 0.01


# both readers of the log tail, on a right wing from |kappa| = 5
_TAIL_READERS = (
    lambda model: tail_reference_curve(model, [5.0], "right"),
    lambda model: rv_index(model, "right", 5.0, 50.0),
)


def test_tail_reference_rejects_tail_at_one():
    # only -inf is underflow; a log tail of 0, NaN or +inf is out of domain
    for bad in (0.0, math.nan, math.inf):
        fake = dataclasses.replace(LAPLACE, log_tail=lambda x, sign, bad=bad: bad)
        for read in _TAIL_READERS:
            with pytest.raises(DomainError):
                read(fake)


def test_tail_reference_underflow_signalled():
    fake = dataclasses.replace(LAPLACE, log_tail=lambda x, sign: -math.inf)
    for read in _TAIL_READERS:
        with pytest.raises(TailUnderflow):
            read(fake)


def _counting_log_tails(model):
    sizes = []

    def log_tail(x, sign):
        sizes.append(np.size(x))
        return model.log_tail(x, sign)

    return dataclasses.replace(model, log_tail=log_tail), sizes


@pytest.mark.parametrize("model", [LAPLACE, NIG], ids=["laplace", "nig"])
def test_report_reads_the_log_tail_once_per_side(model):
    # the 12 tail-reference kappas and rv_index's 17 points in one call
    counted, sizes = _counting_log_tails(model)
    report = theorem_verdicts(counted)
    assert sizes == [12 + 17, 12 + 17]
    assert json.dumps(report, sort_keys=True) == json.dumps(theorem_verdicts(model), sort_keys=True)


def _right_side_error(model, bad):
    # the right side's error when its log tail reads NaN where bad(|kappa|)
    read = model.log_tail
    fake = dataclasses.replace(
        model, log_tail=lambda x, sign: np.where((sign > 0.0) & bad(x), math.nan, read(x, sign)))
    return theorem_verdicts(fake)["sides"]["right"]["error"]


def test_side_errors_keep_the_order_of_the_two_readers():
    # tail-reference points (5-40 scales) first, then rv_index's range, then its points
    s = LAPLACE.scale
    refs = np.geomspace(5.0 * s, 40.0 * s, 12)
    rv = np.geomspace(10.0 * s, 2000.0 * s, 16)
    assert _right_side_error(LAPLACE, lambda x: x > refs[-2]) == (
        f"DomainError: tail at |kappa|={refs[-1]:g} is not inside (0, 1)")
    assert _right_side_error(LAPLACE, lambda x: x > refs[-1]) == (
        f"DomainError: tail at |kappa|={rv[rv > refs[-1]][0]:g} is not inside (0, 1)")
    narrow = asym_laplace_model(20.0, 20.0)  # rv_index's range would start below 1
    assert _right_side_error(narrow, lambda x: x > 40.0 * narrow.scale) == (
        "DomainError: need 1 < kappa_lo < kappa_hi")
    assert _right_side_error(narrow, lambda x: x > 39.0 * narrow.scale) == (
        f"DomainError: tail at |kappa|={40.0 * narrow.scale:g} is not inside (0, 1)")


# =============================================================================
# tail growth index
# =============================================================================

def test_rv_index_laplace_near_one():
    theta = rv_index(LAPLACE, "right", 10.0, 100.0)
    assert abs(theta - 1.0) < 0.05
    assert theta < 1.0  # the ln 2 offset biases the fit slightly down


def test_rv_index_gaussian_near_two():
    theta = rv_index(GAUSS1, "right", 10.0, 100.0)
    assert abs(theta - 2.0) < 0.05


def test_rv_index_deepening_sharpens_the_estimate():
    shallow = abs(rv_index(LAPLACE, "right", 10.0, 100.0) - 1.0)
    deep = abs(rv_index(LAPLACE, "right", 10.0, 1000.0) - 1.0)
    assert deep < shallow


def test_rv_index_validates_range():
    with pytest.raises(DomainError):
        rv_index(LAPLACE, "right", 0.5, 100.0)
    with pytest.raises(DomainError):
        rv_index(LAPLACE, "right", 50.0, 50.0)


def test_rv_index_rejects_tail_regime_change():
    # growth switching from linear to quadratic mid-range: a single
    # power fit would average the regimes, the doubling check catches it;
    # like every ModelSpec tail, the fake takes arrays
    fake = dataclasses.replace(
        LAPLACE,
        log_tail=lambda x, sign: -np.where(x < 30.0, x, x * x / 30.0),
    )
    with pytest.raises(AccuracyNotReached):
        rv_index(fake, "right", 10.0, 100.0)


# =============================================================================
# strip boundary probe
# =============================================================================

def test_probe_laplace_simple_pole():
    p = condition_i_probe(LAPLACE, "right", 0, 2.0**-12)
    assert abs(p.rho_estimate - 1.0) < 0.05
    assert p.regression_r2 > 0.999
    assert p.n == 0 and p.side == "right"
    assert all(0.0 < s < 1.0 for s in p.s_grid)


def test_probe_nig_branch_needs_a_derivative():
    # MGF stays bounded at the boundary; order 0 shows no clean power
    p0 = condition_i_probe(NIG, "right", 0, 2.0**-12 * 1.5)
    assert p0.regression_r2 < 0.99
    # first derivative blows up; the fit steepens further at order 2,
    # where the k^(-3/2) branch dominates the log-log fit cleanly
    p2 = condition_i_probe(NIG, "right", 2, 2.0**-12 * 1.5)
    assert abs(p2.rho_estimate - 1.5) < 0.1
    assert p2.regression_r2 > 0.999


def test_probe_nig_left_boundary():
    p2 = condition_i_probe(NIG, "left", 2, 2.0**-12 * 2.5)
    assert abs(p2.rho_estimate - 1.5) < 0.1
    assert p2.regression_r2 > 0.999


def test_probe_infinite_strip_not_applicable():
    with pytest.raises(NotApplicableInfiniteStrip):
        condition_i_probe(GAUSS1, "right", 0, 1e-3)


PROBE_MODELS = [asym_laplace_model(2.0, 0.7), NIG, nig_model(3.5744, -3.3765, 1.3122)]


@pytest.mark.parametrize("model", [GAUSS1] + PROBE_MODELS, ids=lambda m: str(dict(m.params)))
def test_report_makes_one_mgf_call_per_finite_side(model):
    calls = []

    def mgf(t):
        calls.append(np.size(t))
        return model.mgf(t)

    theorem_verdicts(dataclasses.replace(model, mgf=mgf))
    finite_sides = sum(math.isfinite(lam) for lam in (model.strip.lambda_minus,
                                                       model.strip.lambda_plus))
    assert len(calls) == finite_sides


@pytest.mark.parametrize("model", PROBE_MODELS, ids=lambda m: str(dict(m.params)))
@pytest.mark.parametrize("side", ["right", "left"])
def test_escalation_chooses_the_probe_condition_i_probe_returns(model, side):
    # the report fits orders 0-2 from one shared mgf call; the probe it
    # keeps must be the one a caller gets asking for that order alone
    lam = model.strip.lambda_minus if side == "right" else model.strip.lambda_plus
    s_min = _PROBE_S_MIN_FRAC * lam
    chosen = _escalating_probe(model, side, s_min)
    assert chosen == condition_i_probe(model, side, chosen.n, s_min)


@pytest.mark.parametrize("model", [GAUSS1] + PROBE_MODELS, ids=lambda m: str(dict(m.params)))
def test_report_equals_the_public_readers(model):
    # the report fuses the slope, tail-reference and rv_index reads of each
    # side; every number must be the one the public function returns
    report = theorem_verdicts(model)
    smile = smile_from_model(model, _report_grid(model), tol_iv=VerdictSettings().tol_iv)
    for side in ("right", "left"):
        detail = report["sides"][side]
        est = wing_slope(smile, side)
        assert detail["slope_samples"] == [list(p) for p in est.slope_samples]
        assert detail["extrapolated_slope"] == est.extrapolated_slope
        ks = [k for k, _ in est.slope_samples]
        assert detail["tail_reference"] == [list(p) for p in tail_reference_curve(model, ks, side)]
        assert detail["rv_index_theta"] == rv_index(model, side, 10.0 * model.scale,
                                                    2000.0 * model.scale)


def _report_grid(model) -> np.ndarray:
    vs = VerdictSettings()
    wing = np.geomspace(vs.wing_lo_scales * model.scale, vs.wing_hi_scales * model.scale,
                        vs.points_per_side)
    return np.concatenate([-wing[::-1], [0.0], wing])


def _mirrored_model(model):
    """The law of -X: density, characteristic function and mgf read at the
    negated argument, the tail at -x on the other sign, the strip turned round."""
    return dataclasses.replace(
        model,
        log_pdf=lambda x: model.log_pdf(-x),
        log_tail=lambda x, sign: model.log_tail(-x, -sign),
        char_fn=lambda xi: model.char_fn(-xi),
        mgf=lambda t: model.mgf(-t),
        strip=AnalyticityStrip(model.strip.lambda_plus, model.strip.lambda_minus),
        mean=-model.mean,
        breakpoints=tuple(-b for b in model.breakpoints),
    )


def _mirrored_smile(smile):
    # kappas negated, so their order reversed
    return SmileGrid(points=tuple(dataclasses.replace(p, kappa=-p.kappa)
                                  for p in reversed(smile.points)))


def _outcome(read):
    """The bits of what read() returns, or the type of the error it raises
    (whose message may name the side)."""
    try:
        return _bits(read())
    except BachelierWingsError as err:
        return type(err)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


_FAMILIES = st.one_of(
    st.floats(0.2, 5.0).map(gaussian_model),
    st.tuples(st.floats(0.2, 8.0), st.floats(0.2, 8.0)).map(lambda p: asym_laplace_model(*p)),
    st.tuples(st.floats(0.5, 5.0), st.floats(-0.95, 0.95), st.floats(0.3, 3.0)).map(
        lambda p: nig_model(p[0], p[1] * p[0], p[2])),
)


# four fixed models (three of them report models), on which the mirror's
# order-2 probe is within 4 ulps
_MIRROR_EXAMPLES = (asym_laplace_model(2.0, 0.7), NIG, gaussian_model(1.3),
                    nig_model(3.5744, -3.3765, 1.3122))


@settings(max_examples=50, deadline=None)
@given(model=_FAMILIES)
@example(model=_MIRROR_EXAMPLES[0])
@example(model=_MIRROR_EXAMPLES[1])
@example(model=_MIRROR_EXAMPLES[2])
@example(model=_MIRROR_EXAMPLES[3])
def test_left_wing_is_the_mirrored_right_wing(model):
    # each left-side reader equals the right-side reader on the mirrored model
    # and smile, bit for bit (or raises the same error).  The order-2 probe sums
    # its stencil rows in the opposite order, and its stencil cancels about
    # three digits: the fits agree within 4 ulps on the fixed examples, and
    # within 1e-12 relative on any (random NIG draws reached 1.2e-13)
    mirror, smile = _mirrored_model(model), smile_from_model(model, _report_grid(model))
    ks = [p.kappa for p in smile.points]
    lo, hi = 10.0 * model.scale, 2000.0 * model.scale

    def slope(smile, side, flip):
        est = wing_slope(smile, side)
        return [*(flip * k for k, _ in est.slope_samples), *(v for _, v in est.slope_samples),
                est.extrapolated_slope]

    def reference(model, kappas, side, flip):
        return [c for k, v in tail_reference_curve(model, kappas, side) for c in (flip * k, v)]

    assert _outcome(lambda: slope(smile, "left", -1.0)) == _outcome(
        lambda: slope(_mirrored_smile(smile), "right", 1.0))
    assert _outcome(lambda: reference(model, ks, "left", -1.0)) == _outcome(
        lambda: reference(mirror, [-k for k in ks], "right", 1.0))
    assert _outcome(lambda: rv_index(model, "left", lo, hi)) == _outcome(
        lambda: rv_index(mirror, "right", lo, hi))
    assert _outcome(lambda: mgf_blowup_boundary(model, "left")) == _outcome(
        lambda: mgf_blowup_boundary(mirror, "right"))
    lam = model.strip.lambda_plus
    s_min = _PROBE_S_MIN_FRAC * (lam if math.isfinite(lam) else 1.0)  # the report's on a finite side
    for n in (0, 1, 2):
        try:
            left = condition_i_probe(model, "left", n, s_min)
        except BachelierWingsError as err:
            with pytest.raises(type(err)):
                condition_i_probe(mirror, "right", n, s_min)
            continue
        right = condition_i_probe(mirror, "right", n, s_min)
        assert (left.side, right.side, left.n, right.n) == ("left", "right", n, n)
        assert _bits(left.s_grid) == _bits(right.s_grid)
        for a, b in ((left.rho_estimate, right.rho_estimate), (left.regression_r2, right.regression_r2)):
            if n < 2:
                assert _bits(a) == _bits(b)
            elif any(model is m for m in _MIRROR_EXAMPLES):
                assert abs(a - b) <= 4.0 * math.ulp(max(abs(a), abs(b)))
            else:
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _report_designs():
    """(x, y) of each least-squares fit the report makes, on nig(2, 0.5, 1)."""
    samples = wing_slope(smile_from_model(NIG, _report_grid(NIG)), "right").slope_samples[-6:]
    extrapolation = ([1.0 / abs(k) for k, _ in samples], [v for _, v in samples])
    grid = np.geomspace(10.0 * NIG.scale, 2000.0 * NIG.scale, 16)
    growth = (np.log(grid), np.log(-NIG.log_tail(grid, 1.0)))
    s = np.geomspace(1.5 * 2.0**-12, 1.5 / 8.0, 9)
    probe = (np.log(s), np.log(NIG.mgf(1.5 - s)))
    x = np.geomspace(2000.0, 8000.0, 33)
    blowup = (x, NIG.log_pdf(x))
    return {"extrapolation": extrapolation, "growth": growth, "probe": probe, "blowup": blowup}


def _exact_line_fit(x, y):
    """Least squares in rational arithmetic on the double inputs."""
    xs = [Fraction(v) for v in np.asarray(x, dtype=float).tolist()]
    ys = [Fraction(v) for v in np.asarray(y, dtype=float).tolist()]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys))
             / sum((a - x_mean) ** 2 for a in xs))
    return slope, y_mean - slope * x_mean


@pytest.mark.parametrize("design, reads", [("extrapolation", "intercept"), ("growth", "slope"),
                                           ("probe", "slope"), ("blowup", "slope")])
def test_line_fit_matches_polyfit_on_the_report_designs(design, reads):
    x, y = _report_designs()[design]
    slope, intercept, r2 = _line_fit(x, y)
    want_slope, want_intercept = np.polyfit(x, y, 1)
    got, want = (slope, want_slope) if reads == "slope" else (intercept, want_intercept)
    assert abs(got - want) <= 1e-13 * abs(want)
    assert abs(slope - want_slope) <= 1e-13 * abs(want_slope)
    fitted = want_slope * np.asarray(x) + want_intercept
    ss_tot = np.sum((np.asarray(y) - np.mean(y)) ** 2)
    assert r2 == pytest.approx(1.0 - np.sum((y - fitted) ** 2) / ss_tot, rel=1e-13)
    # against the exact fit the closed form is the closer of the two: on the
    # blow-up design, x in [2000, 8000], polyfit's intercept is 1.5e-13 off
    exact_slope, exact_intercept = _exact_line_fit(x, y)
    assert abs(Fraction(slope) - exact_slope) <= Fraction(1, 10**15) * abs(exact_slope)
    assert abs(Fraction(intercept) - exact_intercept) <= Fraction(2, 10**14) * abs(exact_intercept)


def _reference_line_fit(x, y):
    """The least-squares closed form on numpy sums, dot products and scalars:
    the reference _line_fit must equal bit for bit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_mean, y_mean = x.sum() / x.size, y.sum() / y.size
    dx, dy = x - x_mean, y - y_mean
    slope = (dx @ dy) / (dx @ dx)
    res = dy - slope * dx
    ss_tot = dy @ dy
    r2 = 1.0 - (res @ res) / ss_tot if ss_tot > 0.0 else 0.0
    return float(slope), float(y_mean - slope * x_mean), float(r2)


@st.composite
def _designs(draw):
    n = draw(st.integers(4, 40))
    x = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e4, 1e4, allow_subnormal=False)))
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
    assume(np.ptp(x) > 1e-3)
    return x, y


def _report_sized_designs():
    """Designs of the report's fit sizes: 6 (extrapolation), 9 (probe),
    16 (tail growth) and 33 (blow-up), on fixed geometric grids."""
    out = []
    for n, lo, hi in ((6, 0.025, 0.2), (9, 2.0**-12, 0.125), (16, 10.0, 2000.0), (33, 2000.0, 8000.0)):
        x = np.log(np.geomspace(lo, hi, n))
        out.append((x, 1.5 * x + 0.01 * np.sin(7.0 * x) - 3.0))
    return out


@settings(max_examples=300, deadline=None)
@given(design=_designs())
@example(design=_report_sized_designs()[0])
@example(design=_report_sized_designs()[1])
@example(design=_report_sized_designs()[2])
@example(design=_report_sized_designs()[3])
def test_line_fit_equals_the_reference_formula_bit_for_bit(design):
    x, y = design
    got, want = _line_fit(x, y), _reference_line_fit(x, y)
    assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
    assert all(type(v) is float for v in got)


def test_line_fit_is_exact_on_a_line():
    x = np.arange(8.0)
    assert _line_fit(x, 3.0 * x - 2.0) == (3.0, -2.0, 1.0)
    # a constant has no variance to explain
    assert _line_fit(x, np.full(8, 5.0)) == (0.0, 5.0, 0.0)


def test_probe_input_validation():
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "right", 5, 1e-3)
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "right", -1, 1e-3)
    for n in (1.5, 2.0):  # an order that is not an integer
        with pytest.raises(DomainError):
            condition_i_probe(LAPLACE, "right", n, 1e-3)
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "right", 0, 0.5)  # not well inside the strip
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "middle", 0, 1e-3)


# =============================================================================
# residual diagnostics
# =============================================================================

@pytest.fixture(scope="module")
def laplace_wing_smile():
    wing = np.geomspace(5.0, 40.0, 12)
    grid = np.concatenate([-wing[::-1], [0.0], wing])
    return smile_from_model(LAPLACE, grid)


def test_residuals_cover_positive_wing_only(laplace_wing_smile):
    res = asymptotic_residuals(laplace_wing_smile)
    assert len(res) == 12
    assert all(r.kappa > 0 for r in res)
    ks = [r.kappa for r in res]
    assert ks == sorted(ks)


def test_residual_identities_and_depth_values(laplace_wing_smile):
    res = asymptotic_residuals(laplace_wing_smile)
    for r in res:
        assert r.eps2 - r.eps1 == LN_SQRT_2PI  # exact by construction
        assert 0.0 < r.d_ratio < 1.0
    outer = res[-1]
    assert outer.kappa == pytest.approx(40.0)
    assert outer.d_ratio == pytest.approx(0.503336, abs=5e-4)
    assert abs(outer.eps1) / outer.target == pytest.approx(0.1007, abs=2e-3)


def test_residual_d_ratio_settles_monotonically(laplace_wing_smile):
    d = [r.d_ratio for r in asymptotic_residuals(laplace_wing_smile)]
    gaps = [abs(x - 0.5) for x in d]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_residuals_read_underflowed_points_off_the_smile():
    wing = np.geomspace(5.0, 40.0, 8)
    grid = np.concatenate([[0.0], wing])
    smile = smile_from_model(GAUSS1, grid)
    # the deepest point is past double underflow; the smile keeps its log price
    deep = smile.points[-1]
    assert (deep.status, deep.price) == (STATUS_OK, 0.0)
    res = asymptotic_residuals(smile)
    assert [r.kappa for r in res] == wing.tolist()
    # flat smile at sigma=1: d = sqrt(k^2+2)/(k+sqrt(k^2+2))
    expect = math.sqrt(1602.0) / (40.0 + math.sqrt(1602.0))
    assert res[-1].d_ratio == pytest.approx(expect, abs=1e-6)
    assert res[-1].eps1 == deep.log_price + deep.kappa**2 / (2.0 * deep.ivol**2)
    # a failed point is skipped
    failed = dataclasses.replace(deep, price=math.nan, log_price=math.nan, ivol=math.nan, status=STATUS_FAILED)
    assert asymptotic_residuals(SmileGrid(smile.points[:-1] + (failed,))) == res[:-1]


# =============================================================================
# verdict report
# =============================================================================

def test_verdict_settings_validation():
    with pytest.raises(DomainError):
        VerdictSettings(points_per_side=3)
    with pytest.raises(DomainError):
        VerdictSettings(wing_lo_scales=40.0, wing_hi_scales=5.0)
    with pytest.raises(DomainError):
        VerdictSettings(wing_lo_scales=0.0)
    # a fractional count, a non-finite wing and a bad tolerance fail here, not
    # later in the grid (with a RuntimeWarning) or in smile_from_model
    for bad in ({"points_per_side": 4.5}, {"points_per_side": "12"}, {"wing_hi_scales": math.inf},
                {"wing_lo_scales": math.nan}, {"tol_iv": -1.0}, {"tol_iv": 0.0}, {"tol_iv": math.inf},
                {"tol_iv": math.nan}):
        with pytest.raises(DomainError):
            VerdictSettings(**bad)
    assert VerdictSettings(points_per_side=np.int64(4)).points_per_side == 4


@pytest.mark.parametrize(
    "model",
    [GAUSS1, LAPLACE, SKEWED, NIG],
    ids=["gaussian", "laplace", "skewed_laplace", "nig"],
)
def test_verdicts_pass_across_the_zoo(model):
    rep = theorem_verdicts(model)
    assert rep["all_pass"], [c for c in rep["checks"] if not c["pass"]]


def test_verdict_report_shape_and_json():
    rep = theorem_verdicts(LAPLACE)
    assert rep["model"] == "asym_laplace"
    for c in rep["checks"]:
        assert set(c) == {"name", "measured", "reference", "tolerance", "pass"}
    for side in ("right", "left"):
        detail = rep["sides"][side]
        assert detail["strip_reference"] == pytest.approx(0.5)
        assert detail["condition_i"]["applicable"] is True
        assert len(detail["slope_samples"]) == len(detail["tail_reference"])
    round_trip = json.loads(json.dumps(rep))
    assert round_trip == rep


def test_verdict_gaussian_reports_zero_strip_reference():
    rep = theorem_verdicts(GAUSS1)
    for side in ("right", "left"):
        assert rep["sides"][side]["strip_reference"] == 0.0
        assert rep["sides"][side]["condition_i"] == {"applicable": False}
    # the +-40-scale points, past double underflow, invert from their log prices
    assert rep["failed_points"] == 0
    assert rep["all_pass"]


def test_verdict_nig_escalates_probe_order():
    rep = theorem_verdicts(NIG)
    assert rep["sides"]["right"]["condition_i"]["n"] >= 1
    assert rep["sides"]["left"]["condition_i"]["n"] >= 1
    names = [c["name"] for c in rep["checks"]]
    assert "right_strip_boundary_probe" in names
    assert "eps1_dominance" in names


def test_verdict_errored_side_is_reported_not_faked():
    fake = dataclasses.replace(
        LAPLACE, log_tail=lambda x, sign: -math.inf if sign > 0.0 else LAPLACE.log_tail(x, sign)
    )
    rep = theorem_verdicts(fake)
    assert "error" in rep["sides"]["right"]
    assert not rep["all_pass"]
    # the healthy side still gets its checks
    assert any(c["name"].startswith("left_") for c in rep["checks"])
