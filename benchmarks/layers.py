"""Per-layer timings and log_pdf/mgf work counts for the checkout on the import path.

    PYTHONPATH=src python benchmarks/layers.py [--reps 30]

Prints one JSON object: the median wall time (ms, perf_counter, after one
warm-up call) of L3 price_grid on each model's 25-point report grid, of
the Fourier cross-check (price_from_cf at _default_alpha) over the
nig(2, 0.5, 1) report grid, of L4 smile_from_model on each report
model's grid, of L5 theorem_verdicts, and of the NIG
tail_reference_curve + rv_index pair on both sides, plus the number of
log_pdf calls each L3/L4/L5 call makes and the nodes (log_pdf points)
each L4 call evaluates, and the mgf calls and points of each L5 report
(mgf_work_theorem_verdicts: the condition-(i) strip probes).
L2_nig_log_pdf_ns_per_node is the median time of one
nig(2, 0.5, 1).log_pdf call on a fixed array of
100,000 points spread evenly over +-50 (about +-67 scales) in ns per
point: the density evaluation every NIG node of the tail core pays.
L0_call_price_log_us is one scalar call_price_log(2.0, 1.0) in
microseconds, the re-pricing of a quote.  The L1 rows time the
inversion: L1_implied_vol_call_us is one scalar implied_vol_call quote
(kappa 2, sigma 1) and L1_implied_vol_call_log_deep_us one scalar
implied_vol_call_log quote far below the double range (kappa 45,
ln price -1000), both in microseconds, and L1_solve_otm_log_1e5_ms
one batched solve of a fixed deck of 100,000 out-of-the-money quotes
(d = kappa/sigma log-uniform over 0.01-40, sigma over 0.2-2, seed 10);
L1_evaluations_mean and L1_evaluations_max are the
solver evaluations per quote on that deck.  L6_cli_smile_ms is one
in-process cli.main call of `smile --format csv` on a 9-point linear grid
over +-4 scales for each report model, reading the model from a JSON
file in a temporary directory, with stdout sent to a StringIO: parsing,
the L4 smile and the CSV encoding, as a caller that runs the CLI many
times in one process pays them.  BENCH_*.json files at the repository
root hold its output for a parent commit and a change, run alternately.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import statistics
import tempfile
import time

import numpy as np

from bachelier_wings import cli
from bachelier_wings.bachelier import call_price, call_price_log
from bachelier_wings.inversion import _solve_otm_log, implied_vol_call, implied_vol_call_log
from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import _default_alpha, price_from_cf, price_grid, smile_from_model
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


def work(model, fn, attr: str = "log_pdf") -> tuple[int, int]:
    """(calls, points) of the model callable attr while fn runs on a counting copy of model."""
    counts = [0, 0]
    inner = getattr(model, attr)

    def counted(x):
        counts[0] += 1
        counts[1] += np.size(x)
        return inner(x)

    fn(dataclasses.replace(model, **{attr: counted}))
    return counts[0], counts[1]


def fourier_cross_check(model, grid) -> None:
    for k in grid.tolist():
        price_from_cf(model, k, _default_alpha(model, k))


def nig_wing_tails(model) -> None:
    kappas = np.geomspace(5.0 * model.scale, 40.0 * model.scale, 12)
    for side in ("right", "left"):
        tail_reference_curve(model, kappas, side)
        rv_index(model, side, 10.0 * model.scale, 2000.0 * model.scale)


def otm_deck(n: int = 100_000):
    """(kappa, ln price) of n out-of-the-money calls, fixed by seed 10."""
    rng = np.random.default_rng(10)
    d = np.exp(rng.uniform(np.log(0.01), np.log(40.0), n))
    sigma = np.exp(rng.uniform(np.log(0.2), np.log(2.0), n))
    kappa = d * sigma
    return kappa, call_price_log(kappa, sigma)


def cli_smile_argv(model, path: str) -> list[str]:
    """argv of a csv smile on 9 points over +-4 scales; writes model to path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"model": model.name, "params": model.params}, fh)
    half = 4.0 * model.scale
    return ["smile", "--model", path, "--grid", f"{-half!r}:{half!r}:9", "--format", "csv"]


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"cli.main({argv}) failed")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    reps = parser.parse_args().reps
    out = {"L3_price_grid_ms": {}, "L4_smile_from_model_ms": {}, "L5_theorem_verdicts_ms": {},
           "log_pdf_calls_price_grid": {}, "log_pdf_calls_smile_from_model": {},
           "log_pdf_nodes_smile_from_model": {}, "log_pdf_calls_theorem_verdicts": {},
           "mgf_work_theorem_verdicts": {}}
    for name, model in MODELS.items():
        grid = report_grid(model)
        out["L3_price_grid_ms"][name] = median_ms(lambda: price_grid(model, grid), reps)
        out["log_pdf_calls_price_grid"][name] = work(model, lambda m: price_grid(m, grid))[0]
    for name in REPORTS:
        model = MODELS[name]
        grid = report_grid(model)
        out["L4_smile_from_model_ms"][name] = median_ms(lambda: smile_from_model(model, grid), reps)
        calls, nodes = work(model, lambda m: smile_from_model(m, grid))
        out["log_pdf_calls_smile_from_model"][name] = calls
        out["log_pdf_nodes_smile_from_model"][name] = nodes
        out["L5_theorem_verdicts_ms"][name] = median_ms(lambda: theorem_verdicts(model), reps)
        out["log_pdf_calls_theorem_verdicts"][name] = work(model, theorem_verdicts)[0]
        calls, points = work(model, theorem_verdicts, "mgf")
        out["mgf_work_theorem_verdicts"][name] = {"calls": calls, "points": points}
    nig = MODELS["nig(2, 0.5, 1)"]
    nodes = np.linspace(-50.0, 50.0, 100_000)
    out["L2_nig_log_pdf_ns_per_node"] = (
        1e6 * median_ms(lambda: nig.log_pdf(nodes), reps) / nodes.size)
    out["L3_price_from_cf_nig_report_grid_ms"] = median_ms(
        lambda: fourier_cross_check(nig, report_grid(nig)), reps)
    out["nig_tail_reference_and_rv_index_ms"] = median_ms(
        lambda: nig_wing_tails(MODELS["nig(2, 0.5, 1)"]), reps)
    out["L0_call_price_log_us"] = 1e3 * median_ms(lambda: call_price_log(2.0, 1.0), reps)
    price = call_price(2.0, 1.0)
    out["L1_implied_vol_call_us"] = 1e3 * median_ms(lambda: implied_vol_call(2.0, price), reps)
    out["L1_implied_vol_call_log_deep_us"] = 1e3 * median_ms(
        lambda: implied_vol_call_log(45.0, -1000.0), reps)
    kappa, log_price = otm_deck()
    out["L1_solve_otm_log_1e5_ms"] = median_ms(lambda: _solve_otm_log(kappa, log_price, 1e-12), reps)
    evaluations = _solve_otm_log(kappa, log_price, 1e-12).iterations
    out["L1_evaluations_mean"] = float(evaluations.mean())
    out["L1_evaluations_max"] = int(evaluations.max())
    out["L6_cli_smile_ms"] = {}
    with tempfile.TemporaryDirectory() as model_dir:
        for i, name in enumerate(REPORTS):
            argv = cli_smile_argv(MODELS[name], os.path.join(model_dir, f"model{i}.json"))
            out["L6_cli_smile_ms"][name] = median_ms(lambda: run_cli(argv), reps)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
