"""Smoke tests of the benchmark itself (not of the library).

    python3 -m pytest -q perfbench/tests

Tiny runs of every workload, the span arithmetic on a synthetic trace,
the counting of failed items, the host-speed scaling, and the NIG
oracle against the Bessel-density integral.
"""

import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Tally  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_runs():
    out = {}
    for trace in ("0", "1"):
        proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                         "--tiny", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        out[trace] = proc.stdout
    return out


ACCURACY = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
            if m["name"].startswith("accuracy.")}


@pytest.mark.parametrize("trace,kind,extra", [
    ("0", "end_to_end", {**run.PRINTED_UNITS, **ACCURACY}),
    ("1", "per_layer", {}),
])
def test_tiny_run_prints_every_metric_with_its_unit(tiny_runs, trace, kind, extra):
    text = tiny_runs[trace]
    last = json.loads(text.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    # the Gaussian report's underflowing wing points are known failed items
    assert 0 < last["failed"] < last["attempted"]
    assert len(last["metrics"]) == len(WORKLOADS) * len(BENCHMARK[kind])
    for workload in WORKLOADS:
        for m in BENCHMARK[kind]:
            got = last["metrics"][f"{workload}/{m['name']}"]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
    table = [ln.split() for ln in text.splitlines() if ln.startswith("  ")]
    printed = {**{m["name"]: m["unit"] for m in BENCHMARK[kind]}, **extra}
    for name, unit in printed.items():
        rows = [r for r in table if r[0] == name]
        assert len(rows) == len(WORKLOADS), name
        assert all(r[2] == unit for r in rows)


def test_char_fn_prediction_holds(tiny_runs):
    last = json.loads(tiny_runs["1"].strip().splitlines()[-1])["metrics"]
    assert last["wings-closed-form/models.char_fn.calls"]["value"] == 0
    assert last["quotes-bulk/models.char_fn.calls"]["value"] == 0
    assert last["wings-nig/models.char_fn.calls"]["value"] > 10_000


def test_char_fn_calls_per_reference_nig_report():
    sys.path.insert(0, str(ROOT / "src"))
    import bachelier_wings as bw

    rec = spans.Recorder()
    bw.theorem_verdicts(rec.model(bw.nig_model(2.0, 0.5, 1.0)))
    calls = sum(rec.name_id[i] == rec.names.index("models.char_fn")
                for i in range(len(rec.name_id)))
    assert 27_000 < calls < 29_000  # about 27.9k at the commit that added this


def test_counters_repeat_exactly_for_a_seed(tiny_runs):
    again = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                      "--tiny", "--trace", "1")
    first = json.loads(tiny_runs["1"].strip().splitlines()[-1])["metrics"]
    second = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts
    for key in counts:
        assert first[key]["value"] == second[key]["value"], key


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "quotes-bulk", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# =============================================================================
# failed items and host-speed scaling
# =============================================================================

def test_failed_counts_items_and_checks_of_one_deck_pass():
    known = Tally(items=27, failed=2, checks=10, checks_passed=9)
    clean = Tally(items=27, checks=10, checks_passed=10)
    broken = Tally(items=5, checks=0)
    attempted, failed = run.attempted_failed([known, clean, broken], bad={2})
    assert attempted == 37 + 37 + 5
    # 2 failed points and 1 failing check of the first operation, every
    # item of the operation that broke the contract
    assert failed == 3 + 5


def test_ref_times_scale_by_the_surrounding_calibrations():
    ref = run.CAL_REF_S
    loop = run.Loop(times=[[1.0, 1.0], [2.0]], cal_at=[[0, 1], [1]], first=[], fingerprints=[],
                    cals=[ref, 3 * ref, 2 * ref])
    # the first run sits between calibrations ref and 3 ref, the others
    # between 3 ref and 2 ref
    got = loop.ref_times()
    assert got[0] == pytest.approx([0.5, 0.4]) and got[1] == pytest.approx([0.8])
    assert loop.host_speed() == pytest.approx(0.5)


# =============================================================================
# span arithmetic on a synthetic trace
# =============================================================================

def test_covered_length_merges_and_clips():
    # [1,3] and [2,5] overlap, [8,12] runs past the parent's end at 10
    assert spans.covered_length(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == 6.0
    assert spans.covered_length(0.0, 10.0, []) == 0.0
    assert spans.covered_length(4.0, 6.0, [(0, 1), (7, 9)]) == 0.0


def synthetic():
    # wings [0,10] > wings.rv_index [1,4] > models.log_tail [2,3]
    #              > smile [5,9] > pricing.tail [5,8] > models.tail [6,7]
    #                             > smile [8.5,9] (nested same name)
    names = ["wings", "wings.rv_index", "models.log_tail", "smile",
             "pricing.tail", "models.tail"]
    rows = [(0, 0, 10, -1), (1, 1, 4, 0), (2, 2, 3, 1), (3, 5, 9, 0),
            (4, 5, 8, 3), (5, 6, 7, 4), (3, 8.5, 9, 3)]
    name_id = array("H", [r[0] for r in rows])
    start = array("d", [r[1] for r in rows])
    end = array("d", [r[2] for r in rows])
    parent = array("l", [r[3] for r in rows])
    raised = array("b", [0] * len(rows))
    return names, name_id, start, end, parent, raised


def test_self_times_subtract_child_coverage():
    _, _, start, end, parent, _ = synthetic()
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 0.5, 2.0, 1.0, 0.5]


def test_summarize_counts_outermost_busy_and_layer_self():
    stats = spans.summarize(*synthetic())
    assert stats["smile"]["calls"] == 2
    assert stats["smile"]["busy_s"] == 4.0  # the nested smile span is inside
    assert stats["smile"]["self_s"] == 1.0
    assert stats["@wings"]["busy_s"] == 10.0
    assert stats["@wings"]["self_s"] == 5.0  # 10 minus log_tail, smile
    assert stats["@models"]["busy_s"] == 2.0
    assert stats["pricing.tail"]["self_s"] == 2.0


def test_recorder_spans_nest_and_count():
    rec = spans.Recorder()
    inner = rec.wrap("inversion", lambda k, p: p)
    outer = rec.wrap("wings", lambda: inner(1.0, 2.0) + inner(3.0, 4.0))
    assert outer() == 6.0
    assert list(rec.parent) == [-1, 0, 0]
    assert rec.counters["inversion.items"] == 2
    with pytest.raises(ZeroDivisionError):
        rec.wrap("pricing.tail", lambda: 1 / 0)()
    assert list(rec.raised) == [0, 0, 0, 1]


# =============================================================================
# oracles
# =============================================================================

def test_nig_mixture_oracle_matches_bessel_density_integral():
    mp = oracles.mp
    a, b, d, k = 2.0, 0.5, 1.0, 30.0
    with mp.workdps(30):
        A, B, D, K = (mp.mpf(x) for x in (a, b, d, k))
        g = mp.sqrt(A * A - B * B)
        mu = -D * B / g

        def density(x):
            s = mp.sqrt(D * D + (x - mu) ** 2)
            return A * D / mp.pi * mp.besselk(1, A * s) / s * mp.exp(D * g + B * (x - mu))

        lam = A - B
        direct = mp.quad(lambda y: y * density(K + y),
                         [0] + [j / lam for j in (1, 2, 4, 8, 16, 32, 64)] + [mp.inf])
        mixture, _ = oracles.nig_prices(a, b, d, k)
        assert abs(mixture / direct - 1) < 1e-12


def test_oracle_implied_vol_round_trips_deep_quotes():
    for kappa, sigma in ((0.3, 0.7), (-45.0, 0.9), (400.0, 1.0)):
        lp = oracles.bachelier_otm_log_price(kappa, sigma)
        assert abs(oracles.implied_vol(kappa, lp) / sigma - 1) < 1e-14
