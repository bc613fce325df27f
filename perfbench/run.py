"""bachelier-wings benchmark: seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload wings-nig --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from its
`src/`.  One process, one thread, one caller in a closed loop; BLAS and
OpenMP are pinned to one thread through this process's environment.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced pass (named in BENCHMARK.json, described in
README.md).  Every output is checked against the oracles; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import os
import sys

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on the CPU it
    runs on now, so that the host-speed yardsticks and the work they
    scale share one CPU.  Acts on this process only."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    if cpu not in os.sched_getaffinity(0):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


if __name__ == "__main__":
    # before numpy loads; inherited by the set-up probes this process starts
    for _var in THREAD_PINS:
        os.environ[_var] = "1"
    pin_to_one_cpu()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_LAUNCHES = 3
# a set-up launch's yardstick: the same imports without the library, and
# its wall time on the VM of baseline.json in its fast state
IMPORT_PROBE = "import numpy, scipy.integrate, scipy.special"
SETUP_REF_S = 0.55
# enough operations that op_ms_tail has ten samples beyond a percentile
MIN_OPS = 11
TAIL_BEYOND = 10
# printed beside the metrics of BENCHMARK.json, not gated
PRINTED_UNITS = {"op_ms_tail": "ms", "wall_items_per_s": "items/s", "host_speed": "ratio"}

# Host speed.  On a shared VM the CPU's speed drifts by up to 2x, in
# states that last from a second to minutes, and every time measured
# drifts with it.  A fixed calibration kernel, scipy quadrature over
# Python callables (the library's kind of work, none of its code), is
# timed at least every CAL_EVERY_S between operations.  Each operation's
# time is scaled by CAL_REF_S over the mean of the kernel times just
# before and after it, so times are in reference seconds: wall seconds
# on a host where the kernel takes CAL_REF_S, about its time on the VM
# of baseline.json in its fast state.
CAL_EVERY_S = 0.25
CAL_QUADS = 16
CAL_REF_S = 0.0042


def calibration_kernel() -> float:
    """Wall time of a fixed piece of work."""
    import numpy as np
    from scipy import integrate, special

    def oscillating(u):
        return (np.exp(1j * u * 0.3 - 0.2 * u * u) / (1.0 + u * u)).real

    def tail(x):
        return float(special.erfc(x)) * math.exp(-0.1 * x) * x

    t0 = perf_counter()
    for k in range(CAL_QUADS):
        integrate.quad(oscillating, 0.0, 40.0 + k, epsabs=0.0, epsrel=1e-13, limit=400)
        integrate.quad(tail, 0.0, 30.0 + k, epsabs=0.0, epsrel=1e-13, limit=400)
    return perf_counter() - t0


def metric_names(kind: str) -> dict:
    """name -> unit of BENCHMARK.json's end_to_end or per_layer metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


class MissingProgram(RuntimeError):
    pass


def import_library():
    """bachelier_wings from this checkout's src/, never from elsewhere."""
    if not (SRC / "bachelier_wings" / "__init__.py").is_file():
        raise MissingProgram(f"no bachelier_wings package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bachelier_wings as bw
    from bachelier_wings import cli, inversion, pricing, wings

    if Path(bw.__file__).resolve().parent != SRC / "bachelier_wings":
        raise MissingProgram(f"bachelier_wings imported from {bw.__file__}, not {SRC}")
    return bw, {"inversion": inversion, "pricing": pricing, "wings": wings, "cli": cli}


def environment() -> dict:
    import numpy
    import scipy
    import mpmath

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_pins": {v: os.environ.get(v) for v in THREAD_PINS},
        "loadavg_start": os.getloadavg(),
    }


# =============================================================================
# the closed loop
# =============================================================================

def plain_api(bw, modules):
    """The library entry points the workloads call, unwrapped."""
    from spans import API_SPANS

    return SimpleNamespace(
        **{name: getattr(bw, name) for name in API_SPANS if name != "cli_main"},
        cli_main=modules["cli"].main,
        model=lambda m: m,
        count=lambda name, n: None,
    )


def traced_api(plain, recorder):
    from spans import API_SPANS

    api = SimpleNamespace(**vars(plain))
    for attr, span in API_SPANS.items():
        setattr(api, attr, recorder.wrap(span, getattr(plain, attr)))
    api.model = recorder.model
    api.count = recorder.count
    return api


@dataclass
class Loop:
    """Timings and first outputs of one closed-loop run over a deck."""

    times: list  # per deck entry, the wall time of each execution
    cal_at: list  # per deck entry, the calibration before each execution
    first: list
    fingerprints: list
    cals: list = field(default_factory=list)  # calibration kernel times
    errors: dict = field(default_factory=dict)
    drift: set = field(default_factory=set)
    done: int = 0

    def ref_times(self) -> list:
        """Per deck entry, each execution's time in reference seconds."""
        c = self.cals
        return [[t * CAL_REF_S * 2.0 / (c[k] + c[k + 1]) for t, k in zip(ts, ks)]
                for ts, ks in zip(self.times, self.cal_at)]

    def host_speed(self) -> float:
        """The host's median speed in the run, relative to the reference."""
        return CAL_REF_S / statistics.median(self.cals)


def fingerprint(output) -> str:
    return hashlib.sha256(pickle.dumps(output)).hexdigest()


def drive(ops, api, seconds=None, passes=None, before_op=None, reference=None,
          min_ops=MIN_OPS) -> Loop:
    """Run the deck round-robin with one caller.

    Stops after `passes` whole passes, or else once `seconds` have gone,
    at least one pass is done and min_ops operations have run.  Outputs
    of repeated operations must match the first (and `reference`).  The
    calibration kernel runs first, last, and between operations once
    CAL_EVERY_S have passed since it last ran.
    """
    n = len(ops)
    loop = Loop([[] for _ in ops], [[] for _ in ops], [None] * n, [None] * n)
    t_end = perf_counter() + (seconds or 0.0)
    cal_due = 0.0
    while True:
        if perf_counter() >= cal_due:
            loop.cals.append(calibration_kernel())
            cal_due = perf_counter() + CAL_EVERY_S
        j = loop.done % n
        if before_op is not None:
            before_op(loop.done)
        t0 = perf_counter()
        try:
            out = ops[j].run(api)
        except Exception as exc:  # the operation failed; record it and go on
            out = f"{type(exc).__name__}: {exc}"
            loop.errors.setdefault(j, out)
        loop.times[j].append(perf_counter() - t0)
        loop.cal_at[j].append(len(loop.cals) - 1)
        fp = fingerprint(out)
        if loop.fingerprints[j] is None:
            loop.fingerprints[j], loop.first[j] = fp, out
        elif fp != loop.fingerprints[j]:
            loop.drift.add(j)
        if reference is not None and fp != reference.fingerprints[j]:
            loop.drift.add(j)
        loop.done += 1
        if (loop.done >= passes * n if passes is not None
                else loop.done >= max(n, min_ops) and perf_counter() >= t_end):
            loop.cals.append(calibration_kernel())
            return loop


def op_medians(loop) -> list:
    """Each deck operation's median time in the run, in reference seconds."""
    return [statistics.median(t) for t in loop.ref_times()]


def items_per_s(ops, medians) -> float:
    """Items of one deck pass over the sum of the operations' median times."""
    return sum(op.items for op in ops) / sum(medians)


def tail(times):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when there are too few samples."""
    ts = sorted(times)
    n = len(ts)
    if n <= TAIL_BEYOND:
        return ts[-1], 100.0, n
    return ts[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure_setup(specs, launches=SETUP_LAUNCHES) -> list:
    """Reference seconds of each of `launches` fresh set-up processes.

    Each launch is timed against the mean of two launches of the same
    interpreter that only import the library's third-party dependencies,
    one just before and one just after it.  Set-up is mostly such
    imports, and it follows the host's speed more closely than the
    calibration kernel does.
    """
    cmd = [sys.executable, str(HERE / "setup_child.py"), json.dumps(specs)]
    probe = [sys.executable, "-c", IMPORT_PROBE]

    def launch(argv) -> float:
        t0 = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    out = []
    before = launch(probe)
    for _ in range(launches):
        wall = launch(cmd)
        after = launch(probe)
        out.append(wall * SETUP_REF_S * 2.0 / (before + after))
        before = after
    return out


# =============================================================================
# checking and metrics
# =============================================================================

def check_outputs(workload, loop):
    """Tallies of every deck entry's first output, plus op-level failures."""
    from workloads import Tally

    tallies = []
    for j, op in enumerate(workload.ops):
        if j in loop.errors:
            t = Tally(items=op.items)
            t.fail(f"raised {loop.errors[j].split(':')[0]}", op.items)
        else:
            t = workload.check(j, loop.first[j])
        tallies.append(t)
    return tallies


def accuracy(tallies) -> dict:
    items = sum(t.items for t in tallies)
    checks = sum(t.checks for t in tallies)
    return {
        "accuracy.failed_frac": sum(t.failed for t in tallies) / items,
        "accuracy.max_rel_err": max(t.max_rel_err for t in tallies),
        "accuracy.checks_pass_frac": (sum(t.checks_passed for t in tallies) / checks
                                      if checks else 1.0),
    }


def attempted_failed(tallies, bad) -> tuple:
    """Items and verdict checks of one deck pass, and those that failed.

    A failed item (a smile point with status failed, a report side with
    an error, a quote that raised or came back non-finite) or a failing
    check counts once; every item and check of an operation that raised,
    broke the oracle contract or changed its output on a repeat counts as
    failed.  Repeats must reproduce the first output exactly, so counting
    them again would add nothing but the number of repeats, which
    depends on the host's speed: the counts depend on the seed alone.
    """
    attempted = failed = 0
    for j, t in enumerate(tallies):
        size = t.items + t.checks
        attempted += size
        failed += size if j in bad else t.failed + t.checks - t.checks_passed
    return attempted, failed


def per_layer(rec, ops_traced: int, overhead: float) -> dict:
    from spans import summarize

    stats = summarize(rec.names, rec.name_id, rec.start, rec.end, rec.parent, rec.raised)
    c = rec.counters

    def per_op(value):
        return value / ops_traced

    def get(key, what):
        return stats.get(key, {}).get(what, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("bachelier", "inversion", "models.char_fn", "models.tail", "models.log_tail",
                 "pricing.tail", "pricing.cf"):
        out[f"{name}.calls"] = per_op(get(name, "calls"))
        out[f"{name}.busy_s"] = per_op(get(name, "busy_s"))
    out["bachelier.items"] = per_op(c["bachelier.items"])
    out["inversion.items"] = per_op(c["inversion.items"])
    out["inversion.failed"] = per_op(get("inversion", "raised"))
    out["inversion.iterations_mean"] = ratio(c["inversion.iterations"], c["inversion.scalar"])
    out["inversion.bisection_frac"] = ratio(c["inversion.bisection"], c["inversion.scalar"])
    out["inversion.log_channel_frac"] = ratio(c["inversion.log_channel"], c["inversion.scalar"])
    out["models.log_tail.points"] = per_op(c["models.log_tail.points"])
    out["models.mgf.calls"] = per_op(get("models.mgf", "calls"))
    out["models.log_pdf.calls"] = per_op(get("models.log_pdf", "calls"))
    out["pricing.tail.self_s"] = per_op(get("pricing.tail", "self_s"))
    out["pricing.cf.self_s"] = per_op(get("pricing.cf", "self_s"))
    out["pricing.log_tail.calls"] = per_op(get("pricing.log_tail", "calls"))
    out["pricing.failed"] = per_op(get("@pricing", "raised"))
    out["pricing.evals_per_quote"] = ratio(
        get("models.tail", "calls") + get("models.char_fn", "calls"),
        get("pricing.tail", "calls") + get("pricing.cf", "calls"))
    out["smile.calls"] = per_op(get("smile", "calls"))
    out["smile.points"] = per_op(c["smile.points"])
    out["smile.self_s"] = per_op(get("smile", "self_s"))
    out["smile.failed_points"] = per_op(c["smile.failed_points"])
    out["wings.busy_s"] = per_op(get("@wings", "busy_s"))
    out["wings.self_s"] = per_op(get("@wings", "self_s"))
    for part in ("wing_slope", "tail_reference", "rv_index", "probe", "residuals"):
        out[f"wings.{part}.busy_s"] = per_op(get(f"wings.{part}", "busy_s"))
    out["cli.calls"] = per_op(get("cli", "calls"))
    out["cli.self_s"] = per_op(get("@cli", "self_s"))
    out["cli.bytes_out"] = per_op(c["cli.bytes_out"])
    out["trace.overhead_frac"] = overhead
    return out


# =============================================================================
# one workload
# =============================================================================

def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from workloads import WORKLOADS

    env = environment()
    bw, modules = import_library()
    OUT.mkdir(exist_ok=True)
    phases = {}
    t0 = perf_counter()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[name](bw, seed, tiny, Path(tmp))
        phases["inputs_s"] = perf_counter() - t0
        setup_times = measure_setup(workload.setup_specs(), 1 if tiny else SETUP_LAUNCHES)
        plain = plain_api(bw, modules)
        ops = workload.ops
        ops[0].run(plain)  # warm-up: lazy imports and first-call set-up
        min_ops = 1 if tiny else MIN_OPS
        phases["setup_and_warmup_s"] = perf_counter() - t0 - phases["inputs_s"]
        if not trace:
            loop = drive(ops, plain, seconds, min_ops=min_ops)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            t1 = perf_counter()
            tallies = check_outputs(workload, loop)
            phases["oracle_checks_s"] = perf_counter() - t1
        else:
            from spans import Recorder

            loop = drive(ops, plain, seconds / 2.0, min_ops=min_ops)
            tallies = check_outputs(workload, loop)
            passes = max(1, loop.done // len(ops))
            rec = Recorder()
            with rec.patched(modules):
                traced = drive(ops, traced_api(plain, rec), passes=passes,
                               before_op=lambda i: setattr(rec, "op_id", i), reference=loop)
            rec.write(OUT / f"spans-{name}-{seed}.csv.gz")
            overhead = (items_per_s(ops, op_medians(loop))
                        / items_per_s(ops, op_medians(traced)) - 1.0)
            layer_metrics = per_layer(rec, traced.done, overhead)
            loop.drift |= traced.drift
            loop.errors.update(traced.errors)

    violations = [v for t in tallies for v in t.violations]
    bad = {j for j, t in enumerate(tallies) if t.violations} | set(loop.errors) | loop.drift
    attempted, failed = attempted_failed(tallies, bad)
    result = {
        "workload": name,
        "seed": seed,
        "env": env,
        "setup_launches_ref_s": setup_times,
        "phases": phases,
        "ops": {"deck": len(ops), "run": loop.done},
        "op_ms_median": {op.label: 1e3 * statistics.median(t) for op, t in zip(ops, loop.times)},
        "op_times_s": loop.times,
        "calibration_s": loop.cals,
        "failure_reasons": dict(sum((t.reasons for t in tallies), Counter())),
        "violations": violations[:20],
        "nondeterministic": sorted(ops[j].label for j in loop.drift),
        "correct": not violations and not loop.drift,
        "attempted": attempted,
        "failed": failed,
    }
    acc = accuracy(tallies)
    if trace:
        metrics = {**layer_metrics, **acc}
        notes = {"trace": f"{passes} traced pass(es) of {len(ops)} operations; "
                          "counts and times are per operation; no wait time is "
                          "recorded: the library is single-threaded and never "
                          "waits on a queue or lock"}
    else:
        medians = op_medians(loop)
        tail_s, pct, n = tail([t for ts in loop.ref_times() for t in ts])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": items_per_s(ops, medians),
            "op_ms_p50": 1e3 * statistics.median(medians),
            "peak_rss_mb": rss_mb,
        }
        notes = {"op_ms_tail": f"p{pct:.1f} of n={n} operations, "
                               f"{min(TAIL_BEYOND, n - 1)} beyond",
                 "setup_s": f"median of {len(setup_times)} launches",
                 "op_ms_p50": f"over the {len(ops)} operations of the deck",
                 "wall_items_per_s": "unscaled wall time",
                 "host_speed": f"over {len(loop.cals)} calibrations; times are "
                               "in reference seconds"}
        result["reported"] = {
            "op_ms_tail": 1e3 * tail_s,
            "wall_items_per_s": items_per_s(ops, [statistics.median(t) for t in loop.times]),
            "host_speed": loop.host_speed(),
            **acc,
        }
    result["metrics"] = metrics
    result["notes"] = notes
    return result


def report(result: dict, trace: bool) -> None:
    """Human-readable table, then the result line."""
    line_units = metric_names("per_layer" if trace else "end_to_end")
    unit = {**line_units, **PRINTED_UNITS, **metric_names("per_layer")}
    print(f"# {result['workload']} seed={result['seed']} trace={int(trace)} "
          f"ops={result['ops']['run']} (deck {result['ops']['deck']})")
    shown = {**result["metrics"], **result.get("reported", {})}
    for name in unit:
        if name in shown:
            note = result["notes"].get(name, "")
            print(f"  {name:30s} {shown[name]:>16.6g} {unit[name]:8s} {note}")
    for key, note in result["notes"].items():
        if key not in shown:
            print(f"  ({note})")
    print(f"  items and checks: {result['attempted']} attempted, {result['failed']} failed")
    print(f"  failures by reason: {result['failure_reasons'] or 'none'}")
    for v in result["violations"]:
        print(f"  VIOLATION {v}")
    if result["nondeterministic"]:
        print(f"  NONDETERMINISTIC {result['nondeterministic']}")
    print("env " + json.dumps(result["env"]))
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in line_units.items()},
    }
    print(json.dumps(line))


# =============================================================================
# entry point
# =============================================================================

def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest decks and one set-up launch, for smoke tests")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, val in line["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    report(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
