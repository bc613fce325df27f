"""Wing diagnostics: slope extrapolation against synthetic and closed-form
smiles, tail reference curves, tail-growth index recovery, strip-boundary
probes, residual diagnostics, and the combined verdict report.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from bachelier_wings.bachelier import LN_SQRT_2PI
from bachelier_wings.errors import (
    AccuracyNotReached,
    DomainError,
    InsufficientWingData,
    NotApplicableInfiniteStrip,
    TailUnderflow,
)
from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import smile_from_model
from bachelier_wings.smile import STATUS_FAILED, STATUS_OK, SmileGrid, SmilePoint
from bachelier_wings.wings import (
    AsymptoticResidual,
    ConditionIProbe,
    VerdictSettings,
    WingEstimate,
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
    with pytest.raises(DomainError):
        wing_slope(_synthetic_smile(1.0, 0.5, 0.8), "upper")


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


def test_tail_reference_never_underflows_at_depth():
    refs = tail_reference_curve(GAUSS1, [500.0], "right")
    # -ln tail ~ k^2/2, so the value decays like 2/(2k) -> tiny but finite
    assert 0.0 < refs[0][1] < 0.01


def test_tail_reference_rejects_tail_at_one():
    fake = dataclasses.replace(LAPLACE, log_complement_cdf=lambda x: 0.0)
    with pytest.raises(DomainError):
        tail_reference_curve(fake, [5.0], "right")


def test_tail_reference_underflow_signalled():
    fake = dataclasses.replace(LAPLACE, log_complement_cdf=lambda x: -math.inf)
    with pytest.raises(TailUnderflow):
        tail_reference_curve(fake, [5.0], "right")


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
        log_complement_cdf=lambda x: -np.where(x < 30.0, x, x * x / 30.0),
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


def test_probe_input_validation():
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "right", 5, 1e-3)
    with pytest.raises(DomainError):
        condition_i_probe(LAPLACE, "right", -1, 1e-3)
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
    res = asymptotic_residuals(laplace_wing_smile, LAPLACE)
    assert len(res) == 12
    assert all(r.kappa > 0 for r in res)
    ks = [r.kappa for r in res]
    assert ks == sorted(ks)


def test_residual_identities_and_depth_values(laplace_wing_smile):
    res = asymptotic_residuals(laplace_wing_smile, LAPLACE)
    for r in res:
        assert r.eps2 - r.eps1 == LN_SQRT_2PI  # exact by construction
        assert 0.0 < r.d_ratio < 1.0
    outer = res[-1]
    assert outer.kappa == pytest.approx(40.0)
    assert outer.d_ratio == pytest.approx(0.503336, abs=5e-4)
    assert abs(outer.eps1) / outer.target == pytest.approx(0.1007, abs=2e-3)


def test_residual_d_ratio_settles_monotonically(laplace_wing_smile):
    d = [r.d_ratio for r in asymptotic_residuals(laplace_wing_smile, LAPLACE)]
    gaps = [abs(x - 0.5) for x in d]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_residuals_recover_underflowed_points():
    wing = np.geomspace(5.0, 40.0, 8)
    grid = np.concatenate([[0.0], wing])
    smile = smile_from_model(GAUSS1, grid)
    # the deepest points underflow in the linear pricer
    assert any(p.status == STATUS_FAILED for p in smile.points)
    res = asymptotic_residuals(smile, GAUSS1)
    assert res[-1].kappa == pytest.approx(40.0)
    # flat smile at sigma=1: d = sqrt(k^2+2)/(k+sqrt(k^2+2))
    expect = math.sqrt(1602.0) / (40.0 + math.sqrt(1602.0))
    assert res[-1].d_ratio == pytest.approx(expect, abs=1e-6)


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
    # underflowed outer points are reported, not hidden
    assert rep["failed_points"] > 0
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
        LAPLACE, log_complement_cdf=lambda x: -math.inf
    )
    rep = theorem_verdicts(fake)
    assert "error" in rep["sides"]["right"]
    assert not rep["all_pass"]
    # the healthy side still gets its checks
    assert any(c["name"].startswith("left_") for c in rep["checks"])
