"""Per-layer timings and log_pdf/mgf work counts for the checkout on the import path.

    PYTHONPATH=src python benchmarks/layers.py [--reps 30]

Prints one JSON object of times in reference units (see "Host speed"
below: each repetition's wall time, from perf_counter after one warm-up
call, scaled by the calibration kernel timed around it) and work counts.
Before the first row is timed, every timed callable but the L1
crossover's and the cold starts' runs once untimed (layer_rows(untimed)),
so that the first rows run in the heap state the later ones do.
The rows are the median time (ms) of L3 price_grid on each model's
25-point report grid, of the Fourier cross-check (price_from_cf at
its default damping) over the nig(2, 0.5, 1) report grid, of L4
smile_from_model on each report model's grid, of L5 theorem_verdicts,
and of the NIG tail_reference_curve + rv_index pair on both sides, plus
the number of log_pdf calls each L3/L4/L5 call makes and the nodes
(log_pdf points) each L4 call evaluates, and the mgf calls and points of
each L5 report (mgf_work_theorem_verdicts: the condition-(i) strip probes).
L4_smile_assembly_us is smile_from_model on each report model's grid in
microseconds with its tail core (pricing._log_payoff_integrals) and its
solve (pricing._solve_otm_log) replaced by their results, recorded on one
real call beforehand: the grid check, the leg signs, the marks and index
lists, the ivols and the SmilePoint and SmileGrid construction around them.
L5_side_reports_us is the report's own per-side work in microseconds: both
wings._side_report calls (wing slope, tail reference, tail-growth index,
strip probes and their checks) on the report smile of each report model,
priced once beforehand.
L3_tail_core_cli_grid_us is one call of the batched tail core
pricing._log_payoff_integrals on the CLI's 9-point linear grid over +-4
scales for each report model, in microseconds: "both_legs" integrates
call and put at every kappa (as price_grid does), "otm_leg" only the
out-of-the-money one (as smile_from_model does).
L3_tail_core_report_grid_us is one call of the core on the
out-of-the-money legs of each report model's 25-point report grid (the
call that a wing report's smile makes), in microseconds, and
L3_tail_core_large_grid_ms one call on both legs of 2,000 kappas spread
evenly over +-30 scales (4,000 integrals, the core's passes run in
blocks under its node cap), in ms: what a large batch pays for the core's
per-integral bookkeeping beside its nodes.  L3_tail_core_large_grid_peak_mb
is the peak memory tracemalloc traces over one such call, in MB (1e6
bytes): the core's working set, which its node cap bounds per pass.
L2_nig_log_pdf_ns_per_node is the median time of one
nig(2, 0.5, 1).log_pdf call on a fixed array of
100,000 points spread evenly over +-50 (about +-67 scales) in ns per
point: the density evaluation every NIG node of the tail core pays.
L0_call_price_log_us is one scalar call_price_log(2.0, 1.0) and
L0_put_price_log_us one scalar put_price_log(-2.0, 1.0) in
microseconds, the re-pricing of a quote, and L0_call_price_log_vec_us
one array call_price_log on the first 8, 32 and 128 quotes of the L1
deck below at their true sigma, the re-pricing of a batch, in
microseconds.  The L1 rows time the
inversion: L1_implied_vol_call_us is one scalar implied_vol_call quote
(kappa 2, sigma 1) and L1_implied_vol_call_log_deep_us one scalar
implied_vol_call_log quote far below the double range (kappa 45,
ln price -1000), both in microseconds, and L1_solve_otm_log_1e5_ms
one batched solve of a fixed deck of 100,000 out-of-the-money quotes
(d = kappa/sigma log-uniform over 0.01-40, sigma over 0.2-2, seed 10);
L1_evaluations_mean and L1_evaluations_max are the
solver evaluations per quote on that deck.
L1_implied_vol_call_log_vec_us is one implied_vol_call_log_vec call on
the first 8, 32 and 128 quotes of that deck, the batch sizes of market
smiles, in microseconds.  L1_crossover_us times the two kernels of the
inversion core on batches of 4, 8, 12, 16, 18, 20, 22, 24 and 32 quotes of that
deck, in microseconds: "array_loop" is inversion._solve_otm_log_array,
"float_twin" inversion._solve_otm_log_floats (the float twin run on
each quote, with the result packed as the array loop's), the two run in
turn on repetition i's batch, the deck's i-th run of that many quotes.
inversion._MIN_ARRAY_BATCH, the batch size from which _solve_otm_log
runs the array loop, is one more than the largest of these sizes at
which float_twin beats array_loop.  L6_cli_smile_ms is one
in-process cli.main call of `smile --format csv` on a 9-point linear grid
over +-4 scales for each report model, reading the model from a JSON
file in a temporary directory, with stdout sent to a StringIO: parsing,
the L4 smile and the CSV encoding, as a caller that runs the CLI many
times in one process pays them; L6_cli_price_json_ms is the same for
`price --format json` on that grid: both legs of the L3 tail core and
the JSON encoding.  cold_start_import_and_models_ms is the
time of a fresh interpreter that imports bachelier_wings and builds
the five MODELS, the set-up each CLI process pays, and
cold_start_floor_ms that of one that only imports numpy and scipy.special,
the package's floor; each is the median of min(reps, 10) launches, the
two programs launched alternately.  BENCH_*.json files at the repository
root hold its output for a parent commit and a change, run alternately.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import unittest.mock

import numpy as np
from scipy import special

import bachelier_wings
from bachelier_wings import cli, pricing
from bachelier_wings.bachelier import call_price, call_price_log, put_price_log
from bachelier_wings.inversion import (
    _solve_otm_log,
    _solve_otm_log_array,
    _solve_otm_log_floats,
    implied_vol_call,
    implied_vol_call_log,
    implied_vol_call_log_vec,
)
from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import (
    DEFAULT_SETTINGS,
    _log_payoff_integrals,
    price_from_cf,
    price_grid,
    smile_from_model,
)
from bachelier_wings.wings import (
    VerdictSettings,
    _side_report,
    rv_index,
    tail_reference_curve,
    theorem_verdicts,
)

MODEL_CALLS = {
    "gaussian(1)": (gaussian_model, (1.0,)),
    "asym_laplace(1, 1)": (asym_laplace_model, (1.0, 1.0)),
    "asym_laplace(2, 0.7)": (asym_laplace_model, (2.0, 0.7)),
    "nig(2, 0.5, 1)": (nig_model, (2.0, 0.5, 1.0)),
    "nig(3.5744, -3.3765, 1.3122)": (nig_model, (3.5744, -3.3765, 1.3122)),
}
MODELS = {name: factory(*args) for name, (factory, args) in MODEL_CALLS.items()}
VEC_SIZES = (8, 32, 128)
CROSSOVER_SIZES = (4, 8, 12, 16, 18, 20, 22, 24, 32)
LARGE_GRID = 2_000
REPORTS = ("gaussian(1)", "asym_laplace(2, 0.7)", "nig(2, 0.5, 1)", "nig(3.5744, -3.3765, 1.3122)")


def report_grid(model) -> np.ndarray:
    vs = VerdictSettings()
    wing = np.geomspace(vs.wing_lo_scales * model.scale, vs.wing_hi_scales * model.scale,
                        vs.points_per_side)
    return np.concatenate([-wing[::-1], [0.0], wing])


# Host speed.  On a shared VM the CPU's speed drifts, in states that last
# from a second to minutes, and every row drifts with it.  A fixed
# calibration kernel of the library's kind of work (small-array numpy and
# scipy.special calls, scalar float arithmetic, one larger array pass),
# none of its code, is timed before every repetition and after the last;
# each repetition is scaled by CAL_REF_MS over the mean of the kernel
# times around it, so rows are in reference ms: wall ms on a host where
# the kernel takes CAL_REF_MS, about its time on a 2-vCPU VM in its fast
# state.
CAL_REF_MS = 0.27
CAL_SMALL = np.linspace(0.25, 6.0, 24)
CAL_LARGE = np.linspace(-8.0, 8.0, 20_000)


def calibration_work() -> None:
    acc = 0.0
    for i in range(24):
        y = np.exp(-0.5 * CAL_SMALL * CAL_SMALL) + special.erfcx(CAL_SMALL) * np.log1p(CAL_SMALL)
        acc += float(np.log(1.0 + i)) * math.sqrt(float(y[i]) + acc * 1e-9)
    np.log1p(np.exp(-np.abs(CAL_LARGE)))


def calibration_ms() -> float:
    """Wall time of a fixed piece of work, in ms, timed on its second run:
    on a 2-vCPU VM its first run after a repetition that frees tens of MB (a
    4,000-integral tail core call) took up to twice as long, by an amount
    that varied from process to process."""
    calibration_work()
    start = time.perf_counter()
    calibration_work()
    return 1e3 * (time.perf_counter() - start)


def calibrated_ms(fns, reps: int) -> list[float]:
    """Median time of each of fns in reference ms, the fns run in turn within
    each repetition after one warm-up call each.  A fn may take the
    repetition's index."""
    for fn in fns:
        fn(0)
    cals = [calibration_ms()]
    times = [[] for _ in fns]
    for i in range(reps):
        for fn, ts in zip(fns, times):
            start = time.perf_counter()
            fn(i)
            ts.append(time.perf_counter() - start)
        cals.append(calibration_ms())
    scale = [2.0 * CAL_REF_MS / (a + b) for a, b in zip(cals, cals[1:])]
    return [1e3 * statistics.median(t * s for t, s in zip(ts, scale)) for ts in times]


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def median_ms(fn, reps: int) -> float:
    """Median time of fn() in reference ms (calibrated_ms)."""
    return calibrated_ms([lambda i: fn()], reps)[0]


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
        price_from_cf(model, k)


def nig_wing_tails(model) -> None:
    kappas = np.geomspace(5.0 * model.scale, 40.0 * model.scale, 12)
    for side in ("right", "left"):
        tail_reference_curve(model, kappas, side)
        rv_index(model, side, 10.0 * model.scale, 2000.0 * model.scale)


def otm_deck(n: int = 100_000):
    """(kappa, sigma, ln price) of n out-of-the-money calls, fixed by seed 10."""
    rng = np.random.default_rng(10)
    d = np.exp(rng.uniform(np.log(0.01), np.log(40.0), n))
    sigma = np.exp(rng.uniform(np.log(0.2), np.log(2.0), n))
    kappa = d * sigma
    return kappa, sigma, call_price_log(kappa, sigma)


def recorded_core_and_solve(model, grid) -> dict:
    """The results of smile_from_model(model, grid)'s one tail-core call and one
    solve, by name, recorded on a real call."""
    results = {}

    def recording(name):
        real = getattr(pricing, name)

        def call(*args):
            results[name] = real(*args)
            return results[name]
        return call

    names = ("_log_payoff_integrals", "_solve_otm_log")
    with unittest.mock.patch.multiple(pricing, **{name: recording(name) for name in names}):
        smile_from_model(model, grid)
    return results


def cli_grid_argv(model, path: str, command: str, fmt: str) -> list[str]:
    """argv of command in format fmt on 9 points over +-4 scales; writes model to path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"model": model.name, "params": model.params}, fh)
    half = 4.0 * model.scale
    return [command, "--model", path, "--grid", f"{-half!r}:{half!r}:9", "--format", fmt]


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"cli.main({argv}) failed")


COLD_START = {
    "cold_start_floor_ms": "import numpy, scipy.special",
    "cold_start_import_and_models_ms": "import bachelier_wings as bw\n" + "".join(
        f"bw.{factory.__name__}{args!r}\n" for factory, args in MODEL_CALLS.values()),
}
COLD_START_MAX_LAUNCHES = 10


def cold_start_ms(reps: int) -> dict:
    """Time of each COLD_START program in a fresh interpreter (calibrated_ms),
    launched alternately."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(bachelier_wings.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launches = [lambda i, argv=[sys.executable, "-c", code]: subprocess.run(argv, env=env, check=True)
                for code in COLD_START.values()]
    return dict(zip(COLD_START, calibrated_ms(launches, min(reps, COLD_START_MAX_LAUNCHES))))


def untimed(fn) -> float:
    fn()
    return 0.0


def layer_rows(time_ms) -> dict:
    """Every row but the L1 crossover and the cold starts, in the order they
    run, with time_ms(fn) as each row's time of fn in reference ms."""
    out = {"L3_price_grid_ms": {}, "L4_smile_from_model_ms": {}, "L4_smile_assembly_us": {},
           "L5_theorem_verdicts_ms": {}, "L5_side_reports_us": {},
           "log_pdf_calls_price_grid": {}, "log_pdf_calls_smile_from_model": {},
           "log_pdf_nodes_smile_from_model": {}, "log_pdf_calls_theorem_verdicts": {},
           "mgf_work_theorem_verdicts": {}}
    for name, model in MODELS.items():
        grid = report_grid(model)
        out["L3_price_grid_ms"][name] = time_ms(lambda: price_grid(model, grid))
        out["log_pdf_calls_price_grid"][name] = work(model, lambda m: price_grid(m, grid))[0]
    for name in REPORTS:
        model = MODELS[name]
        grid = report_grid(model)
        out["L4_smile_from_model_ms"][name] = time_ms(lambda: smile_from_model(model, grid))
        stubs = {stub: lambda *args, result=result: result
                 for stub, result in recorded_core_and_solve(model, grid).items()}
        with unittest.mock.patch.multiple(pricing, **stubs):
            out["L4_smile_assembly_us"][name] = 1e3 * time_ms(lambda: smile_from_model(model, grid))
        calls, nodes = work(model, lambda m: smile_from_model(m, grid))
        out["log_pdf_calls_smile_from_model"][name] = calls
        out["log_pdf_nodes_smile_from_model"][name] = nodes
        out["L5_theorem_verdicts_ms"][name] = time_ms(lambda: theorem_verdicts(model))
        smile = smile_from_model(model, grid, tol_iv=VerdictSettings().tol_iv)
        out["L5_side_reports_us"][name] = 1e3 * time_ms(
            lambda: [_side_report(model, smile, side) for side in ("right", "left")])
        out["log_pdf_calls_theorem_verdicts"][name] = work(model, theorem_verdicts)[0]
        calls, points = work(model, theorem_verdicts, "mgf")
        out["mgf_work_theorem_verdicts"][name] = {"calls": calls, "points": points}
    out["L3_tail_core_cli_grid_us"] = {}
    tol = DEFAULT_SETTINGS.abs_tol, DEFAULT_SETTINGS.rel_tol
    for name in REPORTS:
        model = MODELS[name]
        grid = np.linspace(-4.0 * model.scale, 4.0 * model.scale, 9)
        legs = {"both_legs": (np.repeat(grid, 2), np.tile([1.0, -1.0], grid.size)),
                "otm_leg": (grid, np.where(grid >= 0.0, 1.0, -1.0))}
        out["L3_tail_core_cli_grid_us"][name] = {
            leg: 1e3 * time_ms(lambda: _log_payoff_integrals(model, ks, signs, *tol))
            for leg, (ks, signs) in legs.items()}
    out["L3_tail_core_report_grid_us"] = {}
    for name in REPORTS:
        model = MODELS[name]
        ks = report_grid(model)
        signs = np.where(ks >= 0.0, 1.0, -1.0)
        out["L3_tail_core_report_grid_us"][name] = 1e3 * time_ms(
            lambda: _log_payoff_integrals(model, ks, signs, *tol))
    out["L3_tail_core_large_grid_ms"], out["L3_tail_core_large_grid_peak_mb"] = {}, {}
    for name in REPORTS:
        model = MODELS[name]
        grid = np.linspace(-30.0 * model.scale, 30.0 * model.scale, LARGE_GRID)
        ks, signs = np.repeat(grid, 2), np.tile([1.0, -1.0], grid.size)
        out["L3_tail_core_large_grid_ms"][name] = time_ms(
            lambda: _log_payoff_integrals(model, ks, signs, *tol))
        out["L3_tail_core_large_grid_peak_mb"][name] = traced_peak_mb(
            lambda: _log_payoff_integrals(model, ks, signs, *tol))
    nig = MODELS["nig(2, 0.5, 1)"]
    nodes = np.linspace(-50.0, 50.0, 100_000)
    out["L2_nig_log_pdf_ns_per_node"] = 1e6 * time_ms(lambda: nig.log_pdf(nodes)) / nodes.size
    out["L3_price_from_cf_nig_report_grid_ms"] = time_ms(
        lambda: fourier_cross_check(nig, report_grid(nig)))
    out["nig_tail_reference_and_rv_index_ms"] = time_ms(
        lambda: nig_wing_tails(MODELS["nig(2, 0.5, 1)"]))
    out["L0_call_price_log_us"] = 1e3 * time_ms(lambda: call_price_log(2.0, 1.0))
    out["L0_put_price_log_us"] = 1e3 * time_ms(lambda: put_price_log(-2.0, 1.0))
    price = call_price(2.0, 1.0)
    out["L1_implied_vol_call_us"] = 1e3 * time_ms(lambda: implied_vol_call(2.0, price))
    out["L1_implied_vol_call_log_deep_us"] = 1e3 * time_ms(
        lambda: implied_vol_call_log(45.0, -1000.0))
    kappa, sigma, log_price = otm_deck()
    out["L0_call_price_log_vec_us"] = {
        n: 1e3 * time_ms(lambda: call_price_log(kappa[:n], sigma[:n])) for n in VEC_SIZES}
    out["L1_solve_otm_log_1e5_ms"] = time_ms(lambda: _solve_otm_log(kappa, log_price, 1e-12))
    evaluations = _solve_otm_log(kappa, log_price, 1e-12).iterations
    out["L1_evaluations_mean"] = float(evaluations.mean())
    out["L1_evaluations_max"] = int(evaluations.max())
    out["L1_implied_vol_call_log_vec_us"] = {
        n: 1e3 * time_ms(lambda: implied_vol_call_log_vec(kappa[:n], log_price[:n]))
        for n in VEC_SIZES}
    with tempfile.TemporaryDirectory() as model_dir:
        for row, command, fmt in (("L6_cli_smile_ms", "smile", "csv"),
                                  ("L6_cli_price_json_ms", "price", "json")):
            out[row] = {}
            for i, name in enumerate(REPORTS):
                argv = cli_grid_argv(MODELS[name], os.path.join(model_dir, f"model{i}.json"),
                                     command, fmt)
                out[row][name] = time_ms(lambda: run_cli(argv))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=30)
    reps = parser.parse_args().reps
    # one untimed pass over the timed callables first: a row timed before any
    # large block is freed (the large-grid rows free tens of MB) runs in another
    # heap state, and the first rows of a process read bimodal across processes
    layer_rows(untimed)
    out = layer_rows(lambda fn: median_ms(fn, reps))
    kappa, _, log_price = otm_deck()
    out["L1_crossover_us"] = {}
    for n in CROSSOVER_SIZES:
        batches = [(kappa[i * n:(i + 1) * n], log_price[i * n:(i + 1) * n], 1e-12)
                   for i in range(reps)]
        loops = (_solve_otm_log_array, _solve_otm_log_floats)
        out["L1_crossover_us"][n] = dict(zip(("array_loop", "float_twin"), (
            1e3 * t for t in calibrated_ms([lambda i, f=f: f(*batches[i]) for f in loops], reps))))
    out.update(cold_start_ms(reps))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
