"""Independent reference values at 30 significant digits (mpmath).

Nothing here calls the library.  Prices come from closed forms
(Gaussian, asymmetric Laplace) or from a one-dimensional mpmath
quadrature (NIG), and implied vols from a safeguarded Newton solve of
the Bachelier formula.  Prices are returned as mpf, so values that
underflow doubles keep their digits; logs and vols as floats.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30


def _log_time_value(k, s):
    """ln(s (phi(d) - d Phi(-d))), d = k/s >= 0; the difference loses
    about 2 log10(d) digits, so the working precision grows with d."""
    d = k / s
    with mp.extradps(int(2 * mp.log10(d + 1)) + 10):
        return mp.log(s * (mp.npdf(d) - d * mp.ncdf(-d)))


def bachelier_otm_log_price(kappa: float, sigma: float) -> float:
    """ln of the out-of-the-money Bachelier price (call at kappa >= 0,
    put below; the two are mirror images)."""
    with mp.workdps(DPS):
        return float(_log_time_value(abs(mp.mpf(kappa)), mp.mpf(sigma)))


def implied_vol(kappa: float, log_price) -> float:
    """Normal implied vol of an out-of-the-money quote given as ln price.

    Newton in x = ln sigma, safeguarded by bisection inside the
    closed-form bracket tv sqrt(2 pi) <= sigma <= (tv + |kappa|/2) sqrt(2 pi),
    whose lower end is raised to d^2 <= 2 (ln sigma_hi - ln tv), from
    c <= sigma phi(d); d ln c / d ln sigma = phi(d) / (phi(d) - d Phi(-d)).
    """
    with mp.workdps(DPS):
        k = abs(mp.mpf(kappa))
        lp = mp.mpf(log_price)
        root2pi = mp.sqrt(2 * mp.pi)
        if k == 0:
            return float(mp.exp(lp) * root2pi)
        lo = lp + mp.log(root2pi)
        hi = mp.log(mp.exp(lp) + k / 2) + mp.log(root2pi)
        if hi - lp > 0:
            lo = max(lo, mp.log(k) - mp.log(2 * (hi - lp)) / 2)
        x = (lo + hi) / 2
        tol = mp.mpf(10) ** (5 - DPS)
        for _ in range(400):
            s = mp.exp(x)
            g = _log_time_value(k, s) - lp
            if abs(g) < tol or hi - lo < tol:
                return float(s)
            if g < 0:
                lo = x
            else:
                hi = x
            d = k / s
            slope = mp.exp(mp.log(mp.npdf(d)) - _log_time_value(k, s) + mp.log(s))
            x_new = x - g / slope
            x = x_new if lo < x_new < hi else (lo + hi) / 2
        raise ArithmeticError(f"oracle implied vol did not converge at kappa={kappa}")


def gaussian_prices(sigma: float, kappa: float):
    """(call, put) of the zero-mean Gaussian model, as mpf: the Bachelier
    price itself, out-of-the-money leg first, the other by parity."""
    with mp.workdps(DPS):
        k = mp.mpf(kappa)
        otm = mp.exp(_log_time_value(abs(k), mp.mpf(sigma)))
        return (otm, otm + k) if k >= 0 else (otm - k, otm)


def laplace_prices(lambda_r: float, lambda_l: float, kappa: float):
    """(call, put) of the centred asymmetric Laplace law, closed form."""
    with mp.workdps(DPS):
        lr, ll, k = mp.mpf(lambda_r), mp.mpf(lambda_l), mp.mpf(kappa)
        m = 1 / lr - 1 / ll
        z = k + m  # strike in the uncentred coordinate
        if z >= 0:
            call = ll / (lr + ll) / lr * mp.exp(-lr * z)
            return call, call + k
        put = lr / (lr + ll) / ll * mp.exp(ll * z)
        return put - k, put


def nig_prices(alpha: float, beta: float, delta: float, kappa: float):
    """(call, put) of the zero-mean NIG law.

    NIG is a normal variance-mean mixture: X = mu + beta V + sqrt(V) Z
    with V inverse Gaussian of density
    delta e^(delta gamma) / sqrt(2 pi v^3) exp(-(delta^2/v + gamma^2 v)/2).
    The out-of-the-money price is the mixture of normal call (or put)
    prices, one mpmath quadrature over v with breaks across the saddle
    v* = sqrt(delta^2 + (kappa - mu)^2)/alpha and around the mixing mean.
    The other leg follows by parity (zero mean).
    """
    with mp.workdps(DPS):
        a, b, d, k = (mp.mpf(x) for x in (alpha, beta, delta, kappa))
        g = mp.sqrt(a * a - b * b)
        mu = -d * b / g
        front = d / mp.sqrt(2 * mp.pi) * mp.exp(d * g)
        call_side = k >= 0

        def integrand(v):
            if v == 0:
                return mp.zero
            sv = mp.sqrt(v)
            z = (mu + b * v - k) / sv
            if call_side:
                pay = sv * (mp.npdf(z) + z * mp.ncdf(z))
            else:
                pay = sv * (mp.npdf(z) - z * mp.ncdf(-z))
            return front * v ** mp.mpf(-1.5) * mp.exp(-(d * d / v + g * g * v) / 2) * pay

        # the integrand peaks at the saddle with width sqrt(A/alpha^3);
        # panels one width wide across the peak keep the rule honest there
        spread = mp.sqrt(d * d + (k - mu) ** 2)
        saddle = spread / a
        width = mp.sqrt(spread / a**3)
        mean_v = d / g
        breaks = {saddle / 16, saddle / 4, saddle * 4, saddle * 16,
                  mean_v / 4, mean_v, mean_v * 4}
        breaks.update(saddle + j * width for j in range(-8, 9))
        otm = mp.quad(integrand, [0] + sorted(v for v in breaks if v > 0) + [mp.inf])
        return (otm, otm + k) if call_side else (otm - k, otm)


def prices(family: str, params: dict, kappa: float):
    """(call, put) for any family, as mpf."""
    if family == "gaussian":
        return gaussian_prices(params["sigma"], kappa)
    if family == "asym_laplace":
        return laplace_prices(params["lambda_r"], params["lambda_l"], kappa)
    return nig_prices(params["alpha"], params["beta"], params["delta"], kappa)


def otm_log_price(family: str, params: dict, kappa: float) -> float:
    """ln of the out-of-the-money price (call at kappa >= 0, put below)."""
    call, put = prices(family, params, kappa)
    with mp.workdps(DPS):
        return float(mp.log(call if kappa >= 0 else put))


def otm_implied_vol(family: str, params: dict, kappa: float) -> float:
    """Implied vol of the model's out-of-the-money quote at kappa."""
    if family == "gaussian":
        return float(params["sigma"])
    return implied_vol(kappa, otm_log_price(family, params, kappa))
