"""Pricing engines for model-implied option values.

Two independent routes to the same number.  The tail route prices every
quote the package reports (price_grid's two legs, a smile's one
out-of-the-money leg): call = int_0^inf y f(kappa + y) dy and put =
int_0^inf y f(kappa - y) dy, double-exponential sums in log space whose
step halves until two levels agree, a whole batch at once.  The Fourier
route, the cross-check, damps the payoff by e^(alpha kappa) and integrates
the characteristic function along a shifted contour.  Keeping both honest
and comparing them is the point; neither is defined in terms of the other.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .errors import (
    AccuracyNotReached,
    DampingOutsideStrip,
    DomainError,
)
from .inversion import _atm_result, _solve_otm_log
from .inversion import implied_vol_call  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .inversion import implied_vol_put  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .models import _DE_LEVELS, _DE_STEP, ModelSpec
from .smile import STATUS_FAILED, STATUS_OK, SmileGrid, SmilePoint

__all__ = [
    "QuadratureSettings",
    "PriceQuote",
    "DEFAULT_SETTINGS",
    "price_from_tail",
    "price_from_cf",
    "log_call_price_from_tail",
    "log_put_price_from_tail",
    "price_grid",
    "smile_from_model",
]


# =============================================================================
# settings and quotes
# =============================================================================

@dataclass(frozen=True, slots=True)
class QuadratureSettings:
    """Tolerances: both engines read abs_tol and rel_tol; the Fourier
    engine alone reads max_subdivisions (its panel budget, 64 panels per
    unit) and truncation_guard (where it cuts the transform off)."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    max_subdivisions: int = 200
    truncation_guard: float = 1e-14

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol", "truncation_guard"):
            v = getattr(self, name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
        if self.max_subdivisions < 16:
            raise DomainError("max_subdivisions must be at least 16")


DEFAULT_SETTINGS = QuadratureSettings()

# both engines' roundoff floor: 50 eps, relative to the integral of |f|
_ROUNDOFF_FLOOR = 50.0 * math.ulp(1.0)


@dataclass(frozen=True, slots=True)
class PriceQuote:
    """Call and put at one moneyness, with the engine's own error bound.

    call - put + kappa = 0 holds within 10x abs_error_estimate for the
    zero-mean models; method records which engine produced the quote.
    """

    kappa: float
    call: float
    put: float
    method: str
    abs_error_estimate: float


# =============================================================================
# tail-integral engine
# =============================================================================

# an in-the-money leg reaching farther than this many scales past the mean
# is cut this far short of it, so that one piece holds the bulk
_BULK_SCALES = 8.0

# nodes per log_pdf call, passed by at most one integral (4 x 5760 nodes)
_MAX_TAIL_NODES_PER_CALL = 1 << 16


def _log_payoff_integrals(model: ModelSpec, ks: np.ndarray, signs: np.ndarray,
                          abs_tol: float, rel_tol: float):
    """ln S = ln int_0^inf y f(k + sign y) dy per (k, sign) pair, its
    relative error estimate and a converged mask; never raises.

    Tanh-sinh pieces between the cuts (kappa, the mean, the breakpoints
    and, on a long in-the-money leg, the bulk's edge), then exp-sinh out
    to infinity.  The step halves until two levels differ by at most
    max(abs_tol, rel_tol S) over the roundoff floor, their difference
    plus the floor being the estimate; abs_tol = 0 asks for rel_tol
    alone.  One log_pdf call probes all decay rates; each level then
    takes one call (per chunk) for all open integrals' nodes.  Each
    integral sums its own pieces x nodes block, whatever the batch.
    """
    ends_all = []
    for k, sign in zip(ks.tolist(), signs.tolist()):
        cuts = [model.mean, *model.breakpoints]
        if sign * (model.mean - k) > _BULK_SCALES * model.scale:
            cuts.append(model.mean - sign * _BULK_SCALES * model.scale)
        # (y, x) where each piece starts, one per distinct y
        ends_all.append([(0.0, k),
                         *sorted({sign * (x - k): x for x in cuts if sign * (x - k) > 0.0}.items())])
    ya, xa = np.array([end for ends in ends_all for end in ends], dtype=float).reshape(-1, 2).T
    counts = np.array([len(ends) for ends in ends_all], dtype=int)
    last = np.cumsum(counts) - 1
    rows = np.bincount(last, minlength=ya.size)  # 1 on the exp-sinh pieces
    # the last piece's length is the density's decay length there, at most its scale
    delta = 1e-3 * model.scale
    lf0, lf1 = np.split(model.log_pdf(np.concatenate([xa[last] + 0.0, xa[last] + signs * delta])), 2)
    length = np.diff(ya, append=0.0)
    length[last] = 1.0 / np.fmax((lf0 - lf1) / delta, 1.0 / model.scale)  # NaN reads 1 / scale

    log_sum, ln_s, prev = np.full((3, counts.size), -math.inf)
    err, done = np.zeros(counts.size), np.zeros(counts.size, dtype=bool)
    order = np.argsort(counts, kind="stable")  # equal piece counts side by side
    for level, (unit, unit_logw) in enumerate(_DE_LEVELS):
        todo = order[~done[order]]
        if not todo.size:
            break
        nodes = np.cumsum(counts[todo]) * unit.shape[1]
        for chunk in np.split(todo, np.flatnonzero(np.diff(nodes // _MAX_TAIL_NODES_PER_CALL)) + 1):
            groups = np.split(chunk, np.flatnonzero(np.diff(counts[chunk])) + 1)
            pieces = [last[g, None] + np.arange(1 - counts[g[0]], 1) for g in groups]
            dys = [length[p, None] * unit[rows[p[0]]] for p in pieces]
            lf = model.log_pdf(np.concatenate([(xa[p, None] + signs[g, None, None] * dy).ravel()
                                               for g, p, dy in zip(groups, pieces, dys)]))
            lfs = np.split(lf, np.cumsum([dy.size for dy in dys])[:-1])
            for g, p, dy, lf_g in zip(groups, pieces, dys, lfs):
                terms = (unit_logw[rows[p[0]]] + np.log(length[p, None]) + np.log(ya[p, None] + dy)
                         + lf_g.reshape(dy.shape)).reshape(g.size, -1)
                # an all-zero block adds nothing; NaN passes, and fails every test below
                peak = terms.max(axis=1)
                sums = np.exp(terms - np.where(peak == -math.inf, 0.0, peak)[:, None]).sum(axis=1)
                with np.errstate(invalid="ignore"):  # quiet on NaN
                    log_sum[g] = np.logaddexp(log_sum[g], peak + np.array(
                        [math.log(s) if s else -math.inf for s in sums.tolist()]))
        ln_s[todo] = log_sum[todo] + math.log(_DE_STEP / (1 << level))
        done[todo] = ln_s[todo] == -math.inf  # zero at every node, within double range
        if level:
            live = todo[~done[todo]]
            err[live] = np.abs([math.expm1(d) for d in prev[live] - ln_s[live]]) + _ROUNDOFF_FLOOR
            prices = np.array([math.exp(v) for v in ln_s[live].tolist()])
            done[live] = (err[live] <= rel_tol) | (err[live] * prices < abs_tol)
        prev[todo] = ln_s[todo]
    return ln_s, err, done


def _checked_log_sums(model: ModelSpec, ks, signs, abs_tol: float, rel_tol: float):
    # the core's ln S and error estimates as lists, or AccuracyNotReached
    ln_s, err, ok = _log_payoff_integrals(model, np.array(ks), np.array(signs), abs_tol, rel_tol)
    for ln, e, good in zip(ln_s.tolist(), err.tolist(), ok.tolist()):
        if not good:
            raise AccuracyNotReached(f"tail quadrature error {e:.3e} (relative) exceeds tolerance",
                                     achieved=e * math.exp(ln))
    return ln_s.tolist(), err.tolist()


def _price(ln_s: float) -> float:
    # below the smallest normal double too few bits are left to invert: 0, and log prices take over
    return p if (p := math.exp(ln_s)) >= np.finfo(float).tiny else 0.0


def _tail_quote(k: float, ln_call: float, ln_put: float, err_call: float, err_put: float) -> PriceQuote:
    call, put = _price(ln_call), _price(ln_put)
    return PriceQuote(kappa=k, call=call, put=put, method="tail_integral",
                      abs_error_estimate=max(err_call * call, err_put * put))


def price_from_tail(
    model: ModelSpec, kappa: float, settings: QuadratureSettings = DEFAULT_SETTINGS
) -> PriceQuote:
    """Price both sides as payoff-weighted integrals of the density.

    call = int_0^inf y f(kappa + y) dy and put = int_0^inf y f(kappa - y) dy,
    two independent double-exponential sums, so their parity residual
    is a genuine quality signal, not an identity.
    """
    k = float(kappa)
    if not math.isfinite(k):
        raise DomainError("kappa must be finite")
    ln_s, err = _checked_log_sums(model, [k, k], [1.0, -1.0], settings.abs_tol, settings.rel_tol)
    return _tail_quote(k, *ln_s, *err)


def log_call_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the call price, usable far past double underflow.

    price_from_tail's call sum, kept in log space and refined to the
    default rel_tol.  Valid for kappa at or right of the mean.
    """
    k = float(kappa)
    if not (math.isfinite(k) and k >= model.mean):
        raise DomainError("log-space call pricing needs kappa >= model mean")
    return _checked_log_sums(model, [k], [1.0], 0.0, DEFAULT_SETTINGS.rel_tol)[0][0]


def _log_call_prices_from_tail(model: ModelSpec, kappas: list[float]) -> list[float | None]:
    """log_call_price_from_tail at each kappa, bit for bit, from one core pass; None where it raises."""
    inside = [k for k in kappas if math.isfinite(k) and k >= model.mean]
    ln_c, _, ok = (_log_payoff_integrals(model, np.array(inside), np.ones(len(inside)), 0.0,
                                         DEFAULT_SETTINGS.rel_tol) if inside else np.empty((3, 0)))
    got = {k: v for k, v, good in zip(inside, ln_c.tolist(), ok.tolist()) if good}
    return [got.get(k) for k in kappas]


def log_put_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the put price for kappa at or left of the mean."""
    k = float(kappa)
    if not (math.isfinite(k) and k <= model.mean):
        raise DomainError("log-space put pricing needs kappa <= model mean")
    return _checked_log_sums(model, [k], [-1.0], 0.0, DEFAULT_SETTINGS.rel_tol)[0][0]


# =============================================================================
# damped Fourier engine
# =============================================================================

# QUADPACK's qk15 rule on [-1, 1] (Piessens et al. 1983): Kronrod nodes and weights
# and the 7-point Gauss weights (on odd-indexed nodes), halves from -1 to the centre
_GK_X = np.array([-0.9914553711208126, -0.9491079123427585, -0.8648644233597691, -0.7415311855993945,
                  -0.5860872354676911, -0.4058451513773972, -0.20778495500789848, 0.0])
_GK_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
                   0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782])
_GK_WG = np.array([0.0, 0.1294849661688697, 0.0, 0.27970539148927664,
                   0.0, 0.3818300505051189, 0.0, 0.4179591836734694])
_GK_X = np.concatenate([_GK_X, -_GK_X[-2::-1]])
_GK_WK = np.concatenate([_GK_WK, _GK_WK[-2::-1]])
_GK_WG = np.concatenate([_GK_WG, _GK_WG[-2::-1]])

# qk15's roundoff floor on a panel's error is 50 eps int |f|.  Panel
# evaluations are budgeted per unit of settings.max_subdivisions, and
# one char_fn call takes at most 256 panels' nodes, bounding its arrays
_PANELS_PER_SUBDIVISION = 64
_MAX_NODES_PER_CALL = 256 * _GK_X.size

# a transform above the guard past this cutoff decays algebraically; with more
# phase than this head it goes to the semi-infinite cycle rule after a plain head
_QAWF_CUTOFF_MIN = 5000.0
_QAWF_HEAD_PHASE = 50.0


def _validate_alpha(model: ModelSpec, alpha: float) -> None:
    lam_minus = model.strip.lambda_minus
    lam_plus = model.strip.lambda_plus
    if alpha > 0.0:
        if math.isfinite(lam_minus) and not (alpha < lam_minus):
            raise DampingOutsideStrip(
                f"call damping needs 0 < alpha < {lam_minus:g}, got {alpha:g}"
            )
    elif alpha < 0.0:
        if math.isfinite(lam_plus) and not (-alpha < lam_plus):
            raise DampingOutsideStrip(
                f"put damping needs -{lam_plus:g} < alpha < 0, got {alpha:g}"
            )
    else:
        raise DampingOutsideStrip("alpha = 0 is outside both damping windows")


def _find_cutoff(model: ModelSpec, alpha: float, guard: float) -> float:
    # the first rung of the doubling ladder below 1e9 where the integrand
    # envelope |phi(u - i alpha)|/(alpha^2+u^2), times the remaining length
    # proxy u, drops below the guard; the ladder starts at 1 or above, so
    # 30 doublings pass 1e9
    u = max(1.0, 4.0 / model.scale) * 2.0 ** np.arange(30)
    u = u[u < 1.0e9]
    env = np.abs(model.char_fn(u - 1j * alpha)) / (alpha * alpha + u * u)
    below = np.flatnonzero(env * u < guard)
    if below.size:
        return float(u[below[0]])
    raise AccuracyNotReached(
        "characteristic function decays too slowly to truncate", achieved=math.inf
    )


def _adaptive_gk15(integrand, cutoff: float, k: float, settings: QuadratureSettings):
    """Globally adaptive G7/K15 on [0, cutoff] for a phase e^(-iu kappa).

    Starts from equal panels at most half a period wide; each round
    evaluates every open panel's nodes in a few array calls and bisects
    those whose |K - G| exceeds both their length's share of the
    tolerance and the roundoff floor.  Returns the integral and the sum
    of max(|K - G|, floor) over panels.
    """
    n = max(8, math.ceil(abs(k) * cutoff / math.pi))
    edges = np.linspace(0.0, cutoff, n + 1)
    lo, hi = edges[:-1], edges[1:]
    budget = _PANELS_PER_SUBDIVISION * settings.max_subdivisions
    value = err = 0.0
    while lo.size:
        budget -= lo.size
        if budget < 0:
            raise AccuracyNotReached("transform quadrature ran out of panels",
                                     achieved=math.inf)
        half = 0.5 * (hi - lo)
        u = (lo + half)[:, None] + half[:, None] * _GK_X
        chunks = np.split(u.ravel(), range(_MAX_NODES_PER_CALL, u.size, _MAX_NODES_PER_CALL))
        f = np.concatenate([integrand(c) for c in chunks]).reshape(u.shape)
        kron = half * (f @ _GK_WK)
        diff = np.abs(kron - half * (f @ _GK_WG))
        floor = _ROUNDOFF_FLOOR * half * (np.abs(f) @ _GK_WK)
        tol = max(settings.abs_tol, settings.rel_tol * abs(value + kron.sum()))
        # NaN compares False: a NaN panel closes and fails the finiteness check
        open_ = (diff > tol * (hi - lo) / cutoff) & (diff > floor)
        value += kron[~open_].sum()
        err += np.maximum(diff, floor)[~open_].sum()
        mid = (lo + half)[open_]
        lo, hi = np.concatenate([lo[open_], mid]), np.concatenate([mid, hi[open_]])
    return float(value), float(err)


def price_from_cf(
    model: ModelSpec,
    kappa: float,
    alpha: float,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> PriceQuote:
    """Price through the damped transform of the characteristic function.

    value = e^(-alpha kappa)/pi * int_0^U Re[e^(-iu kappa) phi(u - i alpha)
    / (alpha + iu)^2] du; positive alpha prices the call directly and the
    put follows by parity, negative alpha the reverse.  The u > 0 half
    suffices because the integrand is Hermitian in u.  A vectorized
    adaptive G7/K15 rule integrates it unless the transform decays so
    slowly (U > 5000) that it needs scipy's semi-infinite Fourier rule.
    """
    k = float(kappa)
    a = float(alpha)
    if not math.isfinite(k) or not math.isfinite(a):
        raise DomainError("kappa and alpha must be finite")
    _validate_alpha(model, a)
    guard = settings.truncation_guard
    cutoff = _find_cutoff(model, a, guard)

    def transformed(u):
        denom = a + 1j * u
        return model.char_fn(u - 1j * a) / (denom * denom)

    if cutoff <= _QAWF_CUTOFF_MIN or abs(k) * cutoff <= _QAWF_HEAD_PHASE:
        osc, err = _adaptive_gk15(
            lambda u: (transformed(u) * np.exp(-1j * k * u)).real, cutoff, k, settings
        )
        trunc = guard
    else:
        # algebraic decay stretching out for thousands of periods:
        # plain rule through the near-origin peak, then the
        # semi-infinite Fourier rule with cycle-wise extrapolation
        split = _QAWF_HEAD_PHASE / abs(k)
        head, err_head = integrate.quad(
            lambda u: (transformed(u) * complex(math.cos(u * k), -math.sin(u * k))).real,
            0.0, split,
            epsabs=settings.abs_tol, epsrel=settings.rel_tol,
            limit=settings.max_subdivisions, full_output=1,
        )[:2]
        re, err_re = integrate.quad(
            lambda u: transformed(u).real, split, np.inf,
            weight="cos", wvar=abs(k),
            epsabs=settings.abs_tol,
            limit=settings.max_subdivisions, limlst=settings.max_subdivisions, full_output=1,
        )[:2]
        im, err_im = integrate.quad(
            lambda u: transformed(u).imag, split, np.inf,
            weight="sin", wvar=abs(k),
            epsabs=settings.abs_tol,
            limit=settings.max_subdivisions, limlst=settings.max_subdivisions, full_output=1,
        )[:2]
        osc = head + re + math.copysign(1.0, k) * im
        err = err_head + err_re + err_im
        trunc = 0.0

    if not math.isfinite(osc):
        raise AccuracyNotReached("oscillatory quadrature did not converge",
                                 achieved=math.inf)
    damp = math.exp(-a * k)
    value = damp * osc / math.pi
    estimate = damp * (err + trunc) / math.pi
    if err > 100.0 * max(settings.abs_tol, settings.rel_tol * abs(osc)):
        raise AccuracyNotReached(
            f"transform quadrature error {err:.3e} exceeds tolerance",
            achieved=damp * err / math.pi,
        )
    if a > 0.0:
        call, put = value, value + k
    else:
        put, call = value, value - k
    return PriceQuote(kappa=k, call=call, put=put, method="fourier",
                      abs_error_estimate=estimate)


def _default_alpha(model: ModelSpec, kappa: float) -> float:
    """Damping for the out-of-the-money side at this moneyness.

    The saddle point of e^(-alpha kappa) M(alpha), where d ln M/d alpha
    = kappa: there the undamping factor tracks the price scale, so the
    oscillatory sum keeps relative accuracy from the money out to deep
    wings.  The root (a central difference of ln mgf, then brentq) is
    clamped to [0.05, 0.9] of the strip boundary on that side; an
    infinite boundary counts as 10 / scale.
    """
    sign = 1.0 if kappa >= 0.0 else -1.0
    lam = model.strip.lambda_minus if kappa >= 0.0 else model.strip.lambda_plus
    if not math.isfinite(lam):
        lam = 10.0 / model.scale
    h = 1e-5 * lam

    def excess(a: float) -> float:
        # increasing in a on either side; its root is the saddle point
        m_minus, m_plus = model.mgf(sign * a + np.array([-h, h]))
        slope = (math.log(m_plus) - math.log(m_minus)) / (2.0 * h)
        return sign * (slope - kappa)

    lo, hi = 0.05 * lam, 0.9 * lam
    if excess(lo) >= 0.0:
        return sign * lo
    if excess(hi) <= 0.0:
        return sign * hi
    return sign * optimize.brentq(excess, lo, hi, xtol=1e-8 * lam)


# =============================================================================
# smile construction
# =============================================================================

def _checked_grid(grid) -> np.ndarray:
    kappas = np.unique(np.asarray(list(grid), dtype=float))  # sorted, deduplicated
    if not np.all(np.isfinite(kappas)):
        raise DomainError("grid must contain finite moneyness values")
    return kappas


def price_grid(
    model: ModelSpec,
    grid,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, list[PriceQuote | None]]:
    """Price a moneyness grid on the tail engine, both legs in one batch.

    The grid is sorted and deduplicated (DomainError if any value is not
    finite).  Returns the kappas and each one's PriceQuote, None where it
    alone would raise, so one bad point does not stop the grid.
    """
    kappas = _checked_grid(grid)
    legs = _log_payoff_integrals(model, np.repeat(kappas, 2), np.tile([1.0, -1.0], kappas.size),
                                 settings.abs_tol, settings.rel_tol)
    return kappas, [_tail_quote(k, *ln, *err) if all(ok) else None for k, ln, err, ok
                    in zip(kappas.tolist(), *(leg.reshape(-1, 2).tolist() for leg in legs))]


def smile_from_model(
    model: ModelSpec,
    grid,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
    tol_iv: float = 1e-12,
) -> SmileGrid:
    """Price every moneyness and invert to implied normal volatility.

    Each kappa is priced on its out-of-the-money leg alone (call at
    kappa >= 0, put below), the better conditioned one, the grid checked
    as in price_grid and its legs in one call of the batched tail core.
    Reflected to calls at |kappa|, all quotes off the money are inverted
    in one batched solve; kappa = 0 takes the closed form.  A point whose
    own leg or inversion fails is marked failed; the rest proceed.
    """
    if not (0.0 < tol_iv < math.inf):
        raise DomainError("tol_iv must be positive and finite")
    kappas = _checked_grid(grid)
    ln_s, _, ok = _log_payoff_integrals(model, kappas, np.where(kappas >= 0.0, 1.0, -1.0),
                                        settings.abs_tol, settings.rel_tol)
    prices = np.array([_price(ln) if good else math.nan for ln, good in zip(ln_s.tolist(), ok.tolist())])
    # np.log, as the scalar solvers take it; NaN marks a failed or underflowed quote
    with np.errstate(divide="ignore", invalid="ignore"):
        log_prices = np.where(prices > 0.0, np.log(prices), math.nan)

    ivols = np.full(kappas.shape, math.nan)
    off = np.flatnonzero((kappas != 0.0) & ~np.isnan(log_prices))
    solved = _solve_otm_log(np.abs(kappas[off]), log_prices[off], tol_iv)
    good = solved.converged & ~solved.unattainable
    ivols[off[good]] = np.exp(solved.x[good])
    for i in np.flatnonzero((kappas == 0.0) & ~np.isnan(log_prices)):  # at most one
        with contextlib.suppress(AccuracyNotReached, DomainError):
            ivols[i] = _atm_result(float(prices[i]), tol_iv).sigma

    failed = np.isnan(ivols)
    prices[failed] = log_prices[failed] = math.nan
    return SmileGrid(points=tuple(
        SmilePoint(k, p, lp, iv, STATUS_FAILED if math.isnan(iv) else STATUS_OK)
        for k, p, lp, iv in zip(kappas.tolist(), prices.tolist(), log_prices.tolist(),
                                ivols.tolist())
    ))
