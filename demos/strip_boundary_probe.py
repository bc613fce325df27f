#!/usr/bin/env python3
# Probe the moment-generating function near its blow-up boundary.
#
# Two questions about a model's analyticity strip, answered numerically,
# the way the wing report (theorem_verdicts) answers them:
#   1. where does the strip end?      (minus the least-squares slope of
#      ln f(x) on a geometric grid over [x_far/4, x_far]: e^(s|x|) f(x)
#      stops decaying once s passes the tail's decay rate)
#   2. how does the mgf blow up there? (log-log regression of derivatives
#      against distance to the edge, down to 2^-12 of it, escalating the
#      derivative order until a clean power law appears: rho > 0.05 and
#      r^2 > 0.99, the report's gate)
#
# A simple pole shows rho ~ 1 already at order 0. The NIG mgf stays
# bounded at the edge (square-root branch point), so order 0 looks like
# nothing, order 1 blows up with rho ~ 1/2 on the right wing, and the
# left wing needs order 2. Exits non-zero if an edge is off by more than
# the report's 1e-3 or the order the escalation stops at differs from
# the report's.

import sys

from bachelier_wings import (
    asym_laplace_model,
    condition_i_probe,
    mgf_blowup_boundary,
    nig_model,
    theorem_verdicts,
)

failed = False
for label, model in (
    ("exponential tails (simple poles)", asym_laplace_model(1.0, 1.0)),
    ("NIG(2, 0.5) (branch points)", nig_model(2.0, 0.5, 1.0)),
):
    print(f"--- {label} ---")
    report = theorem_verdicts(model)
    edges = (model.strip.lambda_minus, model.strip.lambda_plus)
    for side, true_edge in zip(("right", "left"), edges):
        found = mgf_blowup_boundary(model, side)
        print(f"{side} edge: found {found:.6f}, true {true_edge}  "
              f"(off by {abs(found - true_edge):.1e})")
        failed |= abs(found - true_edge) > 1e-3
        for n in range(3):
            p = condition_i_probe(model, side, n, true_edge * 2.0 ** -12)
            verdict = "power law" if p.rho_estimate > 0.05 and p.regression_r2 > 0.99 else "no"
            print(f"  order {n}: rho_hat {p.rho_estimate:7.4f}  "
                  f"r^2 {p.regression_r2:.5f}  -> {verdict}")
            if verdict == "power law":
                break
        report_n = report["sides"][side]["condition_i"]["n"]
        print(f"  the report stops at order {report_n}")
        failed |= report_n != n
    print()

print("escalation stops at the first clean fit; the order it stops at is")
print("itself diagnostic (pole vs branch point, and which wing is heavier)")
sys.exit(1 if failed else 0)
