"""Pricing engines for model-implied option values.

Two independent routes to the same number.  The tail route prices every
quote the package reports (price_grid's two legs, a smile's one
out-of-the-money leg): call = int_0^inf y f(kappa + y) dy and put =
int_0^inf y f(kappa - y) dy, double-exponential sums in log space whose
step halves until two levels agree, a whole batch at once, the first two
levels in one pass over the density: the nodes in arrays, each
integral's running sum and stop test on Python floats.  The Fourier
route, the cross-check, damps the payoff by e^(alpha kappa) and
integrates the characteristic function along a shifted contour, on Ooura
and Mori's double-exponential rule for Fourier integrals, whose step
also halves until two levels agree.  Keeping both honest and comparing
them is the point; neither is defined in terms of the other.  Every number
an entry point takes (kappas, alpha, tolerances) is read by errors._real or
errors._reals, which raise DomainError on text, on what is no real number,
and on inf or NaN.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AccuracyNotReached,
    DampingOutsideStrip,
    DomainError,
    _real,
    _reals,
)
from .inversion import _atm_result, _solve_otm_log
from .inversion import implied_vol_call  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .inversion import implied_vol_put  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .models import _DE_LEVELS, _DE_STEP, ModelSpec, _brentq
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
    """Tolerances, read by both engines: a quadrature stops refining once
    its error estimate is within max(abs_tol, rel_tol |integral|); floats in (0, 1)."""

    abs_tol: float = 1e-13
    rel_tol: float = 1e-11

    def __post_init__(self) -> None:
        for name in ("abs_tol", "rel_tol"):
            v = _real(getattr(self, name), name)
            if not (0.0 < v < 1.0):
                raise DomainError(f"{name} must lie in (0, 1), got {v!r}")
            object.__setattr__(self, name, v)


DEFAULT_SETTINGS = QuadratureSettings()

# both engines' roundoff floor: 50 eps, relative to the integral of |f|
_ROUNDOFF_FLOOR = 50.0 * math.ulp(1.0)

# the smallest normal double, below which _price reads 0, and the lowest double
_SMALLEST_NORMAL, _LOWEST = float(np.finfo(float).tiny), -float(np.finfo(float).max)

_LN2 = math.log(2.0)


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

# nodes per block of a tail-core pass, passed only by a lone integral (4 x 5760)
_MAX_TAIL_NODES_PER_CALL = 1 << 16


# levels 0 and 1 in one log_pdf pass, their nodes end to end (no integral can
# stop at level 0 but on a zero sum), then one pass per level; each level's columns
_N0 = _DE_LEVELS[0][0].shape[1]
_TAIL_PASSES = ((*map(np.hstack, zip(*_DE_LEVELS[:2])), [(0, slice(0, _N0)), (1, slice(_N0, None))]),
                *((*_DE_LEVELS[level], [(level, slice(None))]) for level in range(2, len(_DE_LEVELS))))


def _logaddexp(x: float, y: float) -> float:
    # np.logaddexp's double loop on libm, bit for bit: x == y (equal infinities
    # too) gives x + ln 2, else the larger plus log1p(exp(-|x - y|)); NaN passes
    if x == y:
        return x + _LN2
    d = x - y
    if d > 0.0:
        return x + math.log1p(math.exp(-d))
    return y + math.log1p(math.exp(d)) if d <= 0.0 else d


def _log_payoff_integrals(model: ModelSpec, ks: np.ndarray, signs: np.ndarray,
                          abs_tol: float, rel_tol: float):
    """ln S = ln int_0^inf y f(k + sign y) dy per (k, sign) pair, its
    relative error estimate and a converged mask; never raises.

    Tanh-sinh pieces between the cuts (kappa, the mean, the breakpoints
    and, on a long in-the-money leg, the bulk's edge), then exp-sinh out
    to infinity.  The step halves until two levels differ by at most
    max(abs_tol, rel_tol S) over the roundoff floor, their difference
    plus the floor being the estimate; abs_tol = 0 asks for rel_tol
    alone.  An integral with no cut past kappa is one exp-sinh piece; the
    others are cut one by one and come after those, sorted by piece
    count, the pieces laid out end to end once.  One log_pdf call (not
    capped) probes all decay rates.  Each pass, levels 0 and 1 together and
    then each later level, runs over blocks of whole open integrals whose
    nodes fit _MAX_TAIL_NODES_PER_CALL, one log_pdf call each, so the cap
    bounds a pass's working set; each integral sums its own pieces x nodes
    row per level, whatever the block.  Running sums, ln S, estimates and
    stop flags live in Python lists, updated by one float loop per level.
    """
    ahead = (signs * (np.array([model.mean, *model.breakpoints])[:, None] - ks) > 0.0).any(axis=0)
    ends_all = {}
    for i, k, sign in zip(ahead.nonzero()[0].tolist(), ks[ahead].tolist(), signs[ahead].tolist()):
        cuts = [model.mean, *model.breakpoints]
        if sign * (model.mean - k) > _BULK_SCALES * model.scale:
            cuts.append(model.mean - sign * _BULK_SCALES * model.scale)
        # (y, x) where each piece starts, one per distinct y
        ends_all[i] = [(0.0, k), *sorted({sign * (x - k): x for x in cuts if sign * (x - k) > 0.0}.items())]
    multi = sorted(ends_all, key=lambda i: len(ends_all[i]))
    # the one-piece integrals first, then by piece count; sorted is stable, so
    # equal counts keep the callers' order
    n = ks.size
    counts = [1] * (n - len(multi)) + [len(ends_all[i]) for i in multi]
    reps = np.array(counts, dtype=int)
    if multi:
        order = np.concatenate([(~ahead).nonzero()[0], multi])
        ends = np.array([v for i in multi for end in ends_all[i] for v in end]).reshape(-1, 2).T
        ya, xa = np.concatenate([[np.zeros(n - len(multi)), ks[~ahead]], ends], axis=1)
        signs, last = signs[order], reps.cumsum() - 1
        sign, length = signs.repeat(reps), np.append(ya[1:], 0.0) - ya
        row = np.bincount(last, minlength=ya.size)  # 1 on the exp-sinh pieces
    else:  # one exp-sinh piece (0, k) each, in the callers' order
        ya, xa, sign, length, last = np.zeros(n), ks, signs, np.empty(n), slice(None)
    # the last piece's length is the density's decay length there, at most its scale
    delta = 1e-3 * model.scale
    lf0, lf1 = model.log_pdf(np.concatenate([xa[last] + 0.0, xa[last] + signs * delta])).reshape(2, -1)
    with np.errstate(invalid="ignore"):  # -inf - -inf, no density at either probe, is NaN: 1 / scale
        length[last] = 1.0 / np.fmax((lf0 - lf1) / delta, 1.0 / model.scale)
    # a column per piece, the integrals' pieces end to end: y and x where it starts,
    # its length and ln length, and the sign
    pieces = np.array([ya, xa, length, np.log(length), sign])

    log_sum, ln_s, err, done = [-math.inf] * n, [-math.inf] * n, [0.0] * n, [False] * n
    todo = range(n)
    for unit, unit_logw, levels in _TAIL_PASSES:
        todo = [i for i in todo if not done[i]]
        if not todo:
            break
        keep = (~np.array(done)).repeat(reps) if len(todo) < n else slice(None)
        open_pieces, open_rows = pieces[:, keep], row[keep] if multi else None
        # blocks of whole integrals whose nodes fit the cap (an integral past it alone
        # is a block); the jth open integral's pieces start at ends[j]
        sizes, at, fit = [counts[i] for i in todo], 0, _MAX_TAIL_NODES_PER_CALL // unit.shape[1]
        ends = [0, *itertools.accumulate(sizes)]
        while at < len(todo):
            to = max(bisect.bisect(ends, ends[at] + fit) - 1, at + 1)
            runs = [(count, len(list(run))) for count, run in itertools.groupby(sizes[at:to])]
            ids, span, at = todo[at:to], slice(ends[at], ends[to]), to
            y, x, length, ln_length, sign = open_pieces[:, span]
            rows = open_rows[span] if multi else 1  # all exp-sinh: row 1 broadcasts
            dy = length[:, None] * unit[rows]
            lf = model.log_pdf((x[:, None] + sign[:, None] * dy).ravel()).reshape(dy.shape)
            with np.errstate(divide="ignore"):  # y + dy is 0 where a first piece's dy underflows: no weight
                terms = unit_logw[rows] + ln_length[:, None] + np.log(y[:, None] + dy) + lf
            for level, columns in levels:
                peaks, sums, r = [], [], 0
                for count, m in runs:
                    # one pieces x nodes row per integral, summed as alone; an all-zero row
                    # (shifted by the lowest double) adds nothing, NaN fails every test below
                    run = terms[r:(r := r + m * count), columns].reshape(m, -1)
                    peak = run.max(axis=1)
                    sums += np.exp(run - np.maximum(peak, _LOWEST)[:, None]).sum(axis=1).tolist()
                    peaks += peak.tolist()
                ln_step = math.log(_DE_STEP / (1 << level))
                for i, peak, s in zip(ids, peaks, sums):
                    if done[i]:  # closed at this pass's earlier level
                        continue
                    # a sum is at least 1 (the peak's term) but on an all-zero row, which reads ln 1
                    part = peak + math.log(1.0 if s < 1.0 else s)
                    if level:  # at level 0 logaddexp(-inf, part) is part; past it no sum falls
                        part = _logaddexp(log_sum[i], part)  # and ln_s[i] is the last level's
                        e = abs(math.expm1(ln_s[i] - (ln := part + ln_step))) + _ROUNDOFF_FLOOR
                        err[i], done[i] = e, e <= rel_tol or e * math.exp(ln) < abs_tol
                    else:  # zero at every node, within double range
                        done[i] = (ln := part + ln_step) == -math.inf
                    log_sum[i], ln_s[i] = part, ln
    out = np.array(ln_s, dtype=float), np.array(err, dtype=float), np.array(done, dtype=bool)
    if multi:  # to the callers' order
        back = order.argsort()
        return tuple(a[back] for a in out)
    return out


def _checked_log_sums(model: ModelSpec, ks, signs, abs_tol: float, rel_tol: float):
    # the core's ln S and error estimates as lists, or AccuracyNotReached
    ln_s, err, ok = _log_payoff_integrals(model, np.array(ks), np.array(signs), abs_tol, rel_tol)
    for ln, e, good in zip(ln_s.tolist(), err.tolist(), ok.tolist()):
        if not good:
            raise AccuracyNotReached(f"tail quadrature error {e:.3e} (relative) exceeds tolerance",
                                     achieved=e * math.exp(ln))
    return ln_s.tolist(), err.tolist()


def _price(ln_s: float) -> float:
    # a PriceQuote's price: 0 below the smallest normal double, where log prices take over
    return p if (p := math.exp(ln_s)) >= _SMALLEST_NORMAL else 0.0


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
    k = _real(kappa, "kappa")
    ln_s, err = _checked_log_sums(model, [k, k], [1.0, -1.0], settings.abs_tol, settings.rel_tol)
    return _tail_quote(k, *ln_s, *err)


def log_call_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the call price, usable far past double underflow.

    price_from_tail's call sum, kept in log space and refined to the
    default rel_tol.  Valid for kappa at or right of the mean.
    """
    if not (k := _real(kappa, "kappa")) >= model.mean:
        raise DomainError("log-space call pricing needs kappa >= model mean")
    return _checked_log_sums(model, [k], [1.0], 0.0, DEFAULT_SETTINGS.rel_tol)[0][0]


def log_put_price_from_tail(model: ModelSpec, kappa: float) -> float:
    """ln of the put price for kappa at or left of the mean."""
    if not (k := _real(kappa, "kappa")) <= model.mean:
        raise DomainError("log-space put pricing needs kappa <= model mean")
    return _checked_log_sums(model, [k], [-1.0], 0.0, DEFAULT_SETTINGS.rel_tol)[0][0]


# =============================================================================
# damped Fourier engine
# =============================================================================

# Ooura & Mori's robust double-exponential rule for Fourier integrals
# (1999): u = (M / omega) phi(t), M h = pi, phi(t) = t / (1 - exp(-2t - a (1 -
# e^-t) - b (e^t - 1))), b = 1/4, a = b / sqrt(1 + M ln(1 + M) / (4 pi)).  The
# nodes at half-integer (integer) t/h close in on the zeros of cos(omega u)
# (sin) double exponentially; past t = 6 their weights are below e^-100
_OM_B = 0.25
# below this omega scale the transform hardly turns: exp-sinh takes it as it is
_OM_MIN_PHASE = 1e-6


@functools.cache
def _om_level(level: int):
    """Level `level` of the rule, step _DE_STEP / 2^level, built on first
    use: nodes v = M phi(t) (u = v / omega) above 1e-26, their weights
    h M phi'(t), cos v, sin v, and the count of cos nodes, which come first."""
    h = _DE_STEP / (1 << level)
    m = math.pi / h
    a = _OM_B / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    j = np.arange(math.floor(-12.0 / h), math.ceil(6.0 / h) + 1)
    n = j.size
    t = np.concatenate([(j - 0.5) * h, j * h])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # far left: v is 0
        g = 2.0 * t - a * np.expm1(-t) + _OM_B * np.expm1(t)
        one_e = -np.expm1(-g)
        v = m * t / one_e
        dv = h * m * (1.0 - t * np.exp(-g) * (2.0 + a * np.exp(-t) + _OM_B * np.exp(t)) / one_e) / one_e
    g1 = 2.0 + a + _OM_B  # t = 0: phi = 1 / g'(0), phi' = 1/2 - g''(0) / (2 g'(0)^2)
    v[t == 0.0], dv[t == 0.0] = m / g1, h * m * (0.5 - (_OM_B - a) / (2.0 * g1 * g1))
    keep = v > 1e-26
    return v[keep], dv[keep], np.cos(v[keep]), np.sin(v[keep]), int(keep[:n].sum())


def _validate_alpha(model: ModelSpec, alpha: float) -> None:
    lam = model.strip.rate(alpha)
    if alpha == 0.0:
        raise DampingOutsideStrip("alpha = 0 is outside both damping windows")
    if not (abs(alpha) < lam):
        raise DampingOutsideStrip(f"call damping needs 0 < alpha < {lam:g}, got {alpha:g}" if alpha > 0.0
                                  else f"put damping needs -{lam:g} < alpha < 0, got {alpha:g}")


def price_from_cf(
    model: ModelSpec,
    kappa: float,
    alpha: float | None = None,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> PriceQuote:
    """Price through the damped transform of the characteristic function.

    value = e^(-alpha kappa)/pi int_0^inf Re[H(u) e^(-iu (kappa - c))] du
    (half of a Hermitian integral), H(u) = phi(u - i alpha) e^(-iuc) /
    (alpha + iu)^2; alpha > 0 prices the call and parity the put, alpha < 0
    the reverse.  alpha = None (the default) damps at _default_alpha's
    saddle point; any alpha must lie below strip.rate(alpha) in magnitude,
    else DampingOutsideStrip.  c is the density's breakpoint (about its
    kink H decays algebraically, without a phase), else its mean.  With
    omega = |kappa - c| the Ooura-Mori rule takes int Re H cos(omega u) +-
    int Im H sin(omega u), or below omega = 1e-6 / scale exp-sinh the
    integrand as it is.  As in the tail engine the step halves until two
    levels agree, or differ by less than the roundoff floor 50 eps int
    |integrand|; difference plus floor is the estimate.
    """
    k = _real(kappa, "kappa")
    a = _default_alpha(model, k) if alpha is None else _real(alpha, "alpha")
    _validate_alpha(model, a)
    c = model.breakpoints[0] if model.breakpoints else model.mean
    sign, omega = math.copysign(1.0, k - c), abs(k - c)

    def transformed(u):  # H(u)
        return model.char_fn(u - 1j * a) * np.exp(-1j * c * u) / (a + 1j * u) ** 2

    value, mass, prev = 0.0, 0.0, math.nan
    for level, (unit, unit_logw) in enumerate(_DE_LEVELS):
        if omega * model.scale >= _OM_MIN_PHASE:
            v, dv, cos_v, sin_v, n = _om_level(level)
            h = transformed(v / omega)
            re, im = h.real * cos_v, sign * h.imag * sin_v  # their sum is the integrand
            value = float(dv[:n] @ re[:n] + dv[n:] @ im[n:]) / omega
            mass = 0.5 * float(dv @ np.abs(re + im)) / omega  # both node sets sample it
        else:  # the nodes this level adds to the exp-sinh rule, 1 / scale long
            u = unit[1] / model.scale
            f = (transformed(u) * np.exp(-1j * (k - c) * u)).real
            w = np.exp(unit_logw[1]) * (_DE_STEP / (1 << level) / model.scale)
            value, mass = 0.5 * value + float(w @ f), 0.5 * mass + float(w @ np.abs(f))
        err = (diff := abs(value - prev)) + (floor := _ROUNDOFF_FLOOR * mass)
        # NaN compares False: a NaN runs every level and fails the finiteness check
        if err <= max(settings.abs_tol, settings.rel_tol * abs(value)) or diff <= floor:
            break
        prev = value

    if not math.isfinite(value):
        raise AccuracyNotReached("oscillatory quadrature did not converge",
                                 achieved=math.inf)
    damp = math.exp(-a * k)
    price, estimate = damp * value / math.pi, damp * err / math.pi
    if err > 100.0 * max(settings.abs_tol, settings.rel_tol * abs(value)):
        raise AccuracyNotReached(f"transform quadrature error {err:.3e} exceeds tolerance",
                                 achieved=estimate)
    call, put = (price, price + k) if a > 0.0 else (price - k, price)
    return PriceQuote(kappa=k, call=call, put=put, method="fourier",  # parity rounds within ulp/2
                      abs_error_estimate=estimate + 0.5 * math.ulp(put if a > 0.0 else call))


def _default_alpha(model: ModelSpec, kappa: float) -> float:
    """Damping for the out-of-the-money side at this moneyness.

    The saddle point of e^(-alpha kappa) M(alpha), where d ln M/d alpha
    = kappa: there the undamping factor tracks the price scale, so the
    oscillatory sum keeps relative accuracy from the money out to deep
    wings.  The root (a central difference of ln mgf, then _brentq) is
    clamped to [0.05, 0.9] of the strip boundary on that side; an
    infinite boundary counts as 10 / scale.
    """
    sign = 1.0 if kappa >= 0.0 else -1.0
    lam = model.strip.rate(sign)
    if not math.isfinite(lam):
        lam = 10.0 / model.scale
    h = 1e-5 * lam

    def excess(a: float) -> float:
        # increasing in a on either side; its root is the saddle point.  Where
        # M is past the double range the saddle counts as lying below, so the
        # root stops at the edge of that range
        m_minus, m_plus = model.mgf(sign * a + np.array([-h, h]))
        if math.isinf(m_minus) or math.isinf(m_plus):
            return math.inf
        slope = (math.log(m_plus) - math.log(m_minus)) / (2.0 * h)
        return sign * (slope - kappa)

    lo, hi = 0.05 * lam, 0.9 * lam
    if excess(lo) >= 0.0:
        return sign * lo
    if excess(hi) <= 0.0:
        return sign * hi
    return sign * _brentq(excess, lo, hi, xtol=1e-8 * lam)


# =============================================================================
# smile construction
# =============================================================================

def _checked_grid(grid) -> np.ndarray:
    """The grid's values (errors._reals), sorted and deduplicated as np.unique does."""
    kappas = _reals(grid, "grid")
    if not kappas.ndim:
        raise DomainError(f"grid must be an iterable of real moneyness values, got {grid!r}")
    if kappas is grid and grid.ndim == 1 and np.count_nonzero(grid[1:] > grid[:-1]) == grid.size - 1:
        return grid.copy()  # the caller's float64 array, sorted and distinct: np.unique's bits
    return np.unique(kappas)


def price_grid(
    model: ModelSpec,
    grid,
    settings: QuadratureSettings = DEFAULT_SETTINGS,
) -> tuple[np.ndarray, list[PriceQuote | None]]:
    """Price a moneyness grid on the tail engine, both legs in one batch.

    The grid, an iterable of finite reals of any shape (else DomainError, text
    entries too), is sorted and deduplicated.  Returns the kappas and each
    one's PriceQuote, None where it alone would raise, so one bad point does
    not stop the grid.
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
    The core's ln S is the quote: reflected to calls at |kappa|, all
    quotes off the money are inverted from it in one batched solve, so a
    point far past double underflow inverts like any other; kappa = 0
    takes the closed form.  A point whose own leg does not converge to a
    finite ln S, or whose inversion fails, is marked failed; the rest
    proceed.  tol_iv must be > 0.

    After the core, the marks, the index lists and the points are built on
    Python floats: one np.exp over the solved x of the good quotes, and
    _solve_otm_log called once, on an empty batch too.
    """
    if not (tol := _real(tol_iv, "tol_iv")) > 0.0:
        raise DomainError(f"tol_iv must be > 0, got {tol_iv!r}")
    kappas = _checked_grid(grid)
    ln_s, _, ok = _log_payoff_integrals(model, kappas, np.where(kappas >= 0.0, 1.0, -1.0),
                                        settings.abs_tol, settings.rel_tol)
    ks = kappas.tolist()
    # NaN marks a failed leg: not converged, or a ln S that is not finite
    log_prices = [ln if good and -math.inf < ln < math.inf else math.nan
                  for ln, good in zip(ln_s.tolist(), ok.tolist())]
    off, atm = [], []  # the priced points off the money, and at it (at most one)
    for i, k, lp in zip(itertools.count(), ks, log_prices):
        if lp == lp:
            (off if k != 0.0 else atm).append(i)

    ivols = [math.nan] * len(ks)
    solved = _solve_otm_log(np.abs(kappas[off]), ln_s[off], tol)
    good = solved.converged & ~solved.unattainable
    for i, sigma in zip(itertools.compress(off, good.tolist()), np.exp(solved.x[good]).tolist()):
        ivols[i] = sigma
    for i in atm:
        with contextlib.suppress(AccuracyNotReached, DomainError):
            ivols[i] = _atm_result(math.exp(log_prices[i]), tol).sigma

    # math.exp, as in _price, so a price in the normal range keeps its PriceQuote bits
    return SmileGrid(points=tuple(
        SmilePoint(k, math.exp(lp), lp, iv, STATUS_OK) if iv == iv
        else SmilePoint(k, math.nan, math.nan, iv, STATUS_FAILED)
        for k, lp, iv in zip(ks, log_prices, ivols)
    ))
