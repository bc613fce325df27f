"""Command-line interface: exit codes, output formats, normalization at
the quote boundary, determinism, the invariant-suite runner, and repeated
and concurrent in-process calls sharing one parser.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import bachelier_wings
from bachelier_wings.bachelier import call_price
from bachelier_wings.cli import main


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    files = {}
    for name, doc in {
        "gauss1": {"model": "gaussian", "params": {"sigma": 1.0}},
        "gauss2": {"model": "gaussian", "params": {"sigma": 2.0}},
        "laplace": {"model": "asym_laplace", "params": {"lambda_r": 1.0, "lambda_l": 1.0}},
        "nig": {"model": "nig", "params": {"alpha": 2.0, "beta": 0.5, "delta": 1.0}},
    }.items():
        path = d / f"{name}.json"
        path.write_text(json.dumps(doc))
        files[name] = str(path)
    return files


def csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# =============================================================================
# price
# =============================================================================

def test_price_atm_gaussian(model_files):
    code, out, _ = run_cli("price", "--model", model_files["gauss1"], "--grid", "0:0:1")
    assert code == 0
    row = csv_rows(out)[0]
    assert row["method"] == "tail_integral"
    assert float(row["call"]) == pytest.approx(0.3989422804, abs=1e-9)
    assert float(row["put"]) == pytest.approx(0.3989422804, abs=1e-9)
    assert float(row["err_estimate"]) <= 1e-10
    assert row["status"] == "ok"


def test_price_laplace_closed_form(model_files):
    code, out, _ = run_cli("price", "--model", model_files["laplace"], "--grid", "1:1:1")
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["call"]) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-10)


def test_price_rows_sorted_ascending(model_files):
    code, out, _ = run_cli(
        "price", "--model", model_files["gauss1"], "--grid", "-3:3:7"
    )
    assert code == 0
    ks = [float(r["kappa"]) for r in csv_rows(out)]
    assert ks == sorted(ks)


def test_price_partial_failure_flags_rows(model_files):
    # a tolerance below what quadrature can certify forces per-point
    # failures; rows stay flagged rather than silently wrong
    code, out, _ = run_cli(
        "price", "--model", model_files["nig"], "--grid", "0:2:3",
        "--tol", "1e-18",
    )
    assert code == 2
    rows = csv_rows(out)
    assert all(r["status"] == "failed" for r in rows)
    assert all(r["call"] == "" for r in rows)


def test_price_nig_uses_tail_integral(model_files):
    code, out, _ = run_cli("price", "--model", model_files["nig"], "--grid", "0:2:3")
    assert code == 0
    assert all(r["method"] == "tail_integral" for r in csv_rows(out))


# =============================================================================
# config errors
# =============================================================================

def test_missing_model_file(tmp_path):
    code, _, err = run_cli("price", "--model", str(tmp_path / "nope.json"), "--grid", "0:1:2")
    assert code == 1
    assert "cannot read" in err


def test_malformed_json_cites_byte_offset(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": "gaussian", }')
    code, _, err = run_cli("price", "--model", str(bad), "--grid", "0:1:2")
    assert code == 1
    assert "byte offset 22" in err


def test_bad_parameters_name_the_field(tmp_path):
    cfg = tmp_path / "nig.json"
    cfg.write_text(json.dumps({"model": "nig", "params": {"alpha": 1.0, "beta": 2.0, "delta": 1.0}}))
    code, _, err = run_cli("smile", "--model", str(cfg), "--grid", "0:1:2")
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize(
    "grid",
    ["1:2", "2:1:5", "1:2:0", "1:2:3:spiral", "-1:4:5:geom", "a:b:c"],
)
def test_bad_grid_specs(model_files, grid):
    code, _, _ = run_cli("price", "--model", model_files["gauss1"], "--grid", grid)
    assert code == 1


def test_no_subcommand_is_config_error():
    code, _, _ = run_cli()
    assert code == 1


def test_unknown_subcommand_is_config_error():
    code, _, _ = run_cli("frobnicate")
    assert code == 1


def test_help_exits_zero():
    code, _, _ = run_cli("--help")
    assert code == 0


def test_bad_seed_rejected(model_files):
    code, _, _ = run_cli("check", "--seed", "-1")
    assert code == 1
    code, _, _ = run_cli("check", "--seed", str(2**64))
    assert code == 1


# =============================================================================
# ivol
# =============================================================================

def test_ivol_normalizes_the_quote():
    # price scales with sqrt(t); kappa = (K - F0)/sqrt(t) = 2, vol 1.5
    price = 2.0 * float(call_price(2.0, 1.5))
    code, out, _ = run_cli(
        "ivol", "--forward", "100", "--strike", "104",
        "--maturity", "4", "--price", f"{price:.17g}",
    )
    assert code == 0
    row = csv_rows(out)[0]
    assert float(row["kappa"]) == pytest.approx(2.0)
    assert float(row["ivol"]) == pytest.approx(1.5, rel=1e-9)
    assert float(row["raw_vol"]) == pytest.approx(1.5, rel=1e-9)


def test_ivol_atm():
    code, out, _ = run_cli(
        "ivol", "--forward", "100", "--strike", "100",
        "--maturity", "1", "--price", "0.3989422804014327",
    )
    assert code == 0
    assert float(csv_rows(out)[0]["ivol"]) == pytest.approx(1.0, rel=1e-9)


def test_ivol_put_side():
    price = float(call_price(-1.0, 2.0)) - 1.0  # put via parity at kappa=-1
    code, out, _ = run_cli(
        "ivol", "--forward", "101", "--strike", "100",
        "--maturity", "1", "--price", f"{price:.17g}", "--type", "put",
    )
    assert code == 0
    assert float(csv_rows(out)[0]["ivol"]) == pytest.approx(2.0, rel=1e-9)


def test_ivol_below_intrinsic_exits_three():
    code, _, err = run_cli(
        "ivol", "--forward", "100", "--strike", "90",
        "--maturity", "1", "--price", "9.99",
    )
    assert code == 3
    assert "no solution: price" in err and "intrinsic" in err


def test_ivol_rejects_nonpositive_maturity():
    code, _, _ = run_cli(
        "ivol", "--forward", "100", "--strike", "90",
        "--maturity", "0", "--price", "1.0",
    )
    assert code == 1


# =============================================================================
# smile
# =============================================================================

def test_smile_flat_gaussian(model_files):
    code, out, _ = run_cli(
        "smile", "--model", model_files["gauss2"], "--grid", "-4:4:5"
    )
    assert code == 0
    for row in csv_rows(out):
        assert float(row["ivol"]) == pytest.approx(2.0, abs=1e-9)
        assert row["status"] == "ok"


def test_smile_laplace_deep_wing_slope(model_files):
    code, out, _ = run_cli(
        "smile", "--model", model_files["laplace"], "--grid", "5:40:10:geom"
    )
    assert code == 0
    last = csv_rows(out)[-1]
    assert float(last["kappa"]) == pytest.approx(40.0)
    slope = float(last["ivol"]) ** 2 / 40.0
    assert abs(slope - 0.5) < 0.1 * 0.5


def test_smile_negative_grid_value_after_flag(model_files):
    # a bare "-20:20:5" must parse as a value, not an option
    code, out, _ = run_cli(
        "smile", "--model", model_files["gauss1"], "--grid", "-20:20:5"
    )
    assert code == 0
    assert len(csv_rows(out)) == 5


# =============================================================================
# wings
# =============================================================================

def test_wings_laplace_passes(model_files):
    code, out, _ = run_cli(
        "wings", "--model", model_files["laplace"], "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["all_pass"] is True
    slope = doc["meta"]["sides"]["right"]["extrapolated_slope"]
    assert abs(slope - 0.5) < 0.05 * 0.5
    names = [r["name"] for r in doc["rows"]]
    assert "right_slope_vs_strip" in names and "left_slope_vs_strip" in names


def test_wings_gaussian_zero_strip_reference(model_files):
    code, out, _ = run_cli(
        "wings", "--model", model_files["gauss1"], "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    for side in ("right", "left"):
        assert doc["meta"]["sides"][side]["strip_reference"] == 0.0


def test_wings_nig_slopes(model_files):
    code, out, _ = run_cli(
        "wings", "--model", model_files["nig"], "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    right = doc["meta"]["sides"]["right"]["extrapolated_slope"]
    left = doc["meta"]["sides"]["left"]["extrapolated_slope"]
    assert abs(right - 1.0 / 3.0) < 0.05 / 3.0
    assert abs(left - 0.2) < 0.05 * 0.2


def test_wings_failure_exits_four_with_report(model_files):
    # a grid this shallow leaves no usable wing points; the report must
    # still be emitted with the error recorded, not silently dropped
    code, out, _ = run_cli(
        "wings", "--model", model_files["laplace"],
        "--grid", "1:3:6", "--format", "json",
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["meta"]["all_pass"] is False
    assert "error" in doc["meta"]["sides"]["right"]


def test_wings_grid_must_be_positive(model_files):
    code, _, _ = run_cli(
        "wings", "--model", model_files["laplace"], "--grid", "-5:40:8"
    )
    assert code == 1


# =============================================================================
# check
# =============================================================================

def test_check_default_passes():
    code, out, _ = run_cli("check", "--samples", "2000")
    assert code == 0
    rows = csv_rows(out)
    assert [r["name"] for r in rows] == [
        "scaled_sandwich", "ratio_bound_sandwich", "parity", "round_trip",
    ]
    assert all(r["pass"] == "true" for r in rows)
    parity = next(r for r in rows if r["name"] == "parity")
    assert float(parity["measured"]) < 1e-13


def test_check_zero_samples_config_error():
    code, _, err = run_cli("check", "--samples", "0")
    assert code == 1
    assert "sample count" in err


def test_check_seed_determinism():
    a = run_cli("check", "--samples", "3000", "--seed", "9", "--format", "json")
    b = run_cli("check", "--samples", "3000", "--seed", "9", "--format", "json")
    c = run_cli("check", "--samples", "3000", "--seed", "10", "--format", "json")
    assert a[0] == b[0] == c[0] == 0
    assert a[1] == b[1]
    assert a[1] != c[1]


# =============================================================================
# output plumbing
# =============================================================================

def test_csv_json_equivalence(model_files):
    _, csv_text, _ = run_cli(
        "price", "--model", model_files["gauss1"], "--grid", "-2:2:5"
    )
    _, json_text, _ = run_cli(
        "price", "--model", model_files["gauss1"], "--grid", "-2:2:5",
        "--format", "json",
    )
    crows = csv_rows(csv_text)
    jrows = json.loads(json_text)["rows"]
    assert len(crows) == len(jrows)
    for cr, jr in zip(crows, jrows):
        for col in ("kappa", "call", "put", "err_estimate"):
            assert float(cr[col]) == float(f"{jr[col]:.15g}")


def test_out_flag_writes_file(model_files, tmp_path):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        "price", "--model", model_files["gauss1"], "--grid", "0:1:2",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("kappa,call,put,")


def test_unwritable_out_is_config_error(model_files, tmp_path):
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        "smile", "--model", model_files["gauss1"], "--grid", "-1:1:3",
        "--out", str(path),
    )
    assert code == 1
    assert out == ""
    assert f"cannot write {path}: {os.strerror(errno.ENOENT)}" in err


def test_models_listing():
    code, out, _ = run_cli("models")
    assert code == 0
    rows = csv_rows(out)
    models = {r["model"] for r in rows}
    assert models == {"gaussian", "asym_laplace", "nig"}
    mu = next(r for r in rows if r["parameter"] == "mu")
    assert mu["required"] == "false"


@pytest.mark.skipif(
    shutil.which("bachelier-wings") is None,
    reason="console script not on PATH",
)
def test_console_script_wired():
    proc = subprocess.run(
        ["bachelier-wings", "models"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("model,parameter,required")


# =============================================================================
# one parser per process: repeated, concurrent and fresh-process calls
# =============================================================================

def test_parser_reuse_keeps_each_call_independent(model_files):
    argv = ("smile", "--model", model_files["laplace"], "--grid", "-3:3:7", "--format", "json")
    first = run_cli(*argv)
    assert first[0] == 0

    code, out, err = run_cli("price", "--model", model_files["gauss1"], "--grid", "2:1:5")
    assert (code, out) == (1, "")
    assert "error: argument --grid" in err

    code, out, err = run_cli("--help")
    assert code == 0
    assert out.startswith("usage: bachelier-wings") and err == ""

    code, out, err = run_cli("frobnicate")
    assert (code, out) == (1, "")
    assert "invalid choice: 'frobnicate'" in err

    assert run_cli(*argv) == first


def test_parser_built_once_per_process(model_files, monkeypatch):
    run_cli("models")  # the first call in the process may build the parser
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [
        run_cli("models")[0],
        run_cli("price", "--model", model_files["gauss1"], "--grid", "0:1:2")[0],
        run_cli("smile", "--model", model_files["gauss1"], "--grid", "-1:1:3",
                "--format", "json")[0],
        run_cli("price", "--model", model_files["gauss1"], "--grid", "1:2")[0],
        run_cli("frobnicate")[0],
    ]
    assert codes == [0, 0, 0, 1, 1]
    assert built == []


CONCURRENT_CALLERS = 4


def _file_runs(model_files, out_dir):
    """(argv, out path) of price and smile in csv and json on every model."""
    runs = []
    for name, model in model_files.items():
        for command in ("price", "smile"):
            for fmt in ("csv", "json"):
                path = out_dir / f"{name}-{command}.{fmt}"
                runs.append((name, [command, "--model", model, "--grid", "-4:4:9",
                                    "--format", fmt, "--out", str(path)], path))
    return runs


def test_concurrent_callers_match_serial(model_files, tmp_path):
    (tmp_path / "serial").mkdir()
    (tmp_path / "threads").mkdir()
    serial = _file_runs(model_files, tmp_path / "serial")
    for _, argv, _ in serial:
        assert main(argv) == 0

    threaded = _file_runs(model_files, tmp_path / "threads")
    start = threading.Barrier(CONCURRENT_CALLERS)

    def caller(name):
        start.wait(timeout=60)
        return [main(argv) for run_name, argv, _ in threaded if run_name == name]

    assert len(model_files) == CONCURRENT_CALLERS
    # switch threads often so that calls interleave inside the parser
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=CONCURRENT_CALLERS) as pool:
            futures = [pool.submit(caller, name) for name in model_files]
            codes = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert codes == [[0, 0, 0, 0]] * CONCURRENT_CALLERS
    for (_, _, want), (_, _, got) in zip(serial, threaded):
        assert got.read_bytes() == want.read_bytes(), got.name


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fresh_process_matches_in_process(model_files, fmt):
    argv = ["smile", "--model", model_files["nig"], "--grid", "-4:4:9", "--format", fmt]
    src = str(Path(bachelier_wings.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bachelier_wings.cli", *argv],
        capture_output=True, env=env, check=False,
    )
    code, out, _ = run_cli(*argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode("utf-8")
