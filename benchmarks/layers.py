"""Per-layer timings and log_pdf work counts for the checkout on the import path.

    PYTHONPATH=src python benchmarks/layers.py [--reps 30]

Prints one JSON object: the median wall time (ms, perf_counter, after one
warm-up call) of L3 price_grid on each model's 25-point report grid, of
the Fourier cross-check (price_from_cf at _default_alpha) over the
nig(2, 0.5, 1) report grid, of L5 theorem_verdicts, and of the NIG
tail_reference_curve + rv_index pair on both sides, plus the number of
log_pdf calls each L3/L5 call makes.
BENCH_*.json files at the repository root hold its output for a parent
commit and a change, run alternately.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import time

import numpy as np

from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import _default_alpha, price_from_cf, price_grid
from bachelier_wings.wings import VerdictSettings, rv_index, tail_reference_curve, theorem_verdicts

MODELS = {
    "gaussian(1)": gaussian_model(1.0),
    "asym_laplace(1, 1)": asym_laplace_model(1.0, 1.0),
    "asym_laplace(2, 0.7)": asym_laplace_model(2.0, 0.7),
    "nig(2, 0.5, 1)": nig_model(2.0, 0.5, 1.0),
    "nig(3.5744, -3.3765, 1.3122)": nig_model(3.5744, -3.3765, 1.3122),
}
REPORTS = ("gaussian(1)", "asym_laplace(2, 0.7)", "nig(2, 0.5, 1)", "nig(3.5744, -3.3765, 1.3122)")


def report_grid(model) -> np.ndarray:
    vs = VerdictSettings()
    wing = np.geomspace(vs.wing_lo_scales * model.scale, vs.wing_hi_scales * model.scale,
                        vs.points_per_side)
    return np.concatenate([-wing[::-1], [0.0], wing])


def median_ms(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def log_pdf_calls(model, fn) -> int:
    calls = [0]

    def log_pdf(x):
        calls[0] += 1
        return model.log_pdf(x)

    fn(dataclasses.replace(model, log_pdf=log_pdf))
    return calls[0]


def fourier_cross_check(model, grid) -> None:
    for k in grid.tolist():
        price_from_cf(model, k, _default_alpha(model, k))


def nig_wing_tails(model) -> None:
    kappas = np.geomspace(5.0 * model.scale, 40.0 * model.scale, 12)
    for side in ("right", "left"):
        tail_reference_curve(model, kappas, side)
        rv_index(model, side, 10.0 * model.scale, 2000.0 * model.scale)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    reps = parser.parse_args().reps
    out = {"L3_price_grid_ms": {}, "L5_theorem_verdicts_ms": {},
           "log_pdf_calls_price_grid": {}, "log_pdf_calls_theorem_verdicts": {}}
    for name, model in MODELS.items():
        grid = report_grid(model)
        out["L3_price_grid_ms"][name] = median_ms(lambda: price_grid(model, grid), reps)
        out["log_pdf_calls_price_grid"][name] = log_pdf_calls(model, lambda m: price_grid(m, grid))
    for name in REPORTS:
        model = MODELS[name]
        out["L5_theorem_verdicts_ms"][name] = median_ms(lambda: theorem_verdicts(model), reps)
        out["log_pdf_calls_theorem_verdicts"][name] = log_pdf_calls(model, theorem_verdicts)
    nig = MODELS["nig(2, 0.5, 1)"]
    out["L3_price_from_cf_nig_report_grid_ms"] = median_ms(
        lambda: fourier_cross_check(nig, report_grid(nig)), reps)
    out["nig_tail_reference_and_rv_index_ms"] = median_ms(
        lambda: nig_wing_tails(MODELS["nig(2, 0.5, 1)"]), reps)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
