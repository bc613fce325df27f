#!/usr/bin/env python3
"""Price a flat-vol model with both engines and invert back.

A Gaussian terminal density with standard deviation 2 must produce a
perfectly flat implied-vol smile at 2.0: any structure we see is
numerical error. This walks the strike axis from -20 to 20, prices with
the tail integral and the damped transform, inverts each, and prints the
deviation from flatness side by side.  It exits non-zero if the tail
engine strays from flat by more than 1e-12 anywhere on the walk, or the
transform engine by more than 1e-10 in the bulk (|kappa| <= 12.5).
"""

import sys

import numpy as np

from bachelier_wings import (
    NoSolutionBelowIntrinsic,
    gaussian_model,
    implied_vol_call,
    implied_vol_put,
    price_from_cf,
    price_from_tail,
)

model = gaussian_model(2.0)

print("flat smile recovery, true vol 2.0")
print(f"{'kappa':>7} {'call (tail)':>13} {'I_tail - 2':>11} {'I_cf - 2':>11}")

worst_tail = 0.0
worst_cf = 0.0
worst_bulk = 0.0  # transform engine at |kappa| <= 12.5, where it must stay exact
for k in np.linspace(-20.0, 20.0, 17):
    k = float(k)
    qt = price_from_tail(model, k)
    qc = price_from_cf(model, k)
    invert = implied_vol_call if k >= 0 else implied_vol_put
    price_of = (lambda q: q.call) if k >= 0 else (lambda q: q.put)
    dev_t = invert(k, price_of(qt)).sigma - 2.0
    worst_tail = max(worst_tail, abs(dev_t))
    # the transform engine carries an absolute noise floor ~1e-13, so
    # once the true price drops below it the inversion rightly refuses
    try:
        dev_c = invert(k, price_of(qc)).sigma - 2.0
        worst_cf = max(worst_cf, abs(dev_c))
        cf_txt = f"{dev_c:11.2e}"
    except NoSolutionBelowIntrinsic:
        dev_c = np.inf
        cf_txt = "noise floor".rjust(11)
    if abs(k) <= 12.5:
        worst_bulk = max(worst_bulk, abs(dev_c))
    print(f"{k:7.1f} {qt.call:13.6e} {dev_t:11.2e} {cf_txt}")

print()
print(f"max |I - 2|: tail engine {worst_tail:.2e}, transform engine {worst_cf:.2e}")
print("the tail engine keeps relative accuracy arbitrarily deep; the transform")
print("engine damps at the saddle point of e^(-alpha kappa) M(alpha), so its")
print("oscillatory integral tracks the price scale while that point stays inside")
print("the damping clamp (alpha <= 0.9 * 10/scale, |kappa| <= 18 here)")
print(f"tail engine over the walk: {worst_tail:.2e} (limit 1e-12)")
print(f"transform engine in the bulk (|kappa| <= 12.5): {worst_bulk:.2e} (limit 1e-10)")
if worst_tail > 1e-12:
    sys.exit("flatness of the tail engine exceeds 1e-12")
if worst_bulk > 1e-10:
    sys.exit("bulk flatness of the transform engine exceeds 1e-10")
