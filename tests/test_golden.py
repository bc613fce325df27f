"""Exact-value pins: report-grid quotes, wing reports and CLI bytes.

tests/data/golden.json holds, as float.hex, the call, put and
abs_error_estimate of every PriceQuote on the 25-point report grid of
four models, the theorem_verdicts JSON of one model per family and the
byte output of the CLI price and smile commands in csv and json.  A
change that claims identical numbers must leave all of it equal.  The
bits hold only where numpy's and libm's elementwise functions and the
BLAS round alike, so the pins skip on a platform whose fingerprint of
those differs from the one recorded with them.  Regenerate (only for a
change that is meant to move numbers, or on a new platform) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest
import scipy.special as sc

from bachelier_wings.cli import main
from bachelier_wings.models import asym_laplace_model, gaussian_model, nig_model
from bachelier_wings.pricing import price_grid
from bachelier_wings.wings import VerdictSettings, theorem_verdicts

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden.json"

QUOTE_MODELS = {
    "gaussian(1)": gaussian_model(1.0),
    "asym_laplace(1, 1)": asym_laplace_model(1.0, 1.0),
    "asym_laplace(2, 0.7)": asym_laplace_model(2.0, 0.7),
    "nig(2, 0.5, 1)": nig_model(2.0, 0.5, 1.0),
}
REPORT_MODELS = ("gaussian(1)", "asym_laplace(2, 0.7)", "nig(2, 0.5, 1)")
CLI_MODELS = {
    "gaussian": {"sigma": 1.0},
    "asym_laplace": {"lambda_r": 2.0, "lambda_l": 0.7},
    "nig": {"alpha": 2.0, "beta": 0.5, "delta": 1.0},
}
CLI_RUNS = (("price", "-6:6:13"), ("price", "2:45:8:geom"), ("smile", "2:45:8:geom"))


def report_grid(model) -> np.ndarray:
    """The grid theorem_verdicts prices under default VerdictSettings."""
    vs = VerdictSettings()
    wing = np.geomspace(vs.wing_lo_scales * model.scale, vs.wing_hi_scales * model.scale,
                        vs.points_per_side)
    return np.concatenate([-wing[::-1], [0.0], wing])


def platform_fingerprint() -> str:
    """sha256 of the elementwise functions, sums and least squares the
    pinned numbers pass through, on fixed arguments."""
    x = np.linspace(-30.0, 30.0, 2001)
    y = np.abs(x) + 0.25
    parts = [np.exp(x), np.log(y), np.log1p(y), np.expm1(x / 16.0), np.sqrt(y),
             np.logaddexp(x, x[::-1]), np.exp(x[1:]).reshape(5, -1).sum(axis=1),
             sc.ndtr(x), sc.log_ndtr(x), sc.erfcx(x), sc.kve(1, y), np.polyfit(x, np.exp(x / 30.0), 2),
             np.array([math.log(v) + math.exp(-v) + math.expm1(-v / 8.0) for v in y.tolist()])]
    return hashlib.sha256(b"".join(np.asarray(p, dtype=float).tobytes() for p in parts)).hexdigest()


def _quote_hex(kappa, q):
    if q is None:
        return [kappa.hex(), None]
    return [kappa.hex(), q.call.hex(), q.put.hex(), q.abs_error_estimate.hex()]


def _cli_bytes(family: str, params: dict, command: str, grid: str, fmt: str) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "model.json"
        path.write_text(json.dumps({"model": family, "params": params}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--model", str(path), "--grid", grid, "--format", fmt])
    return f"exit {code}\n{out.getvalue()}"


def snapshot() -> dict:
    """Every pinned output of the checkout on the import path."""
    quotes = {}
    for name, model in QUOTE_MODELS.items():
        kappas, qs = price_grid(model, report_grid(model))
        quotes[name] = [_quote_hex(k, q) for k, q in zip(kappas.tolist(), qs)]
    reports = {name: json.dumps(theorem_verdicts(QUOTE_MODELS[name]), sort_keys=True)
               for name in REPORT_MODELS}
    cli = {f"{family} {command} {grid} {fmt}": _cli_bytes(family, params, command, grid, fmt)
           for family, params in CLI_MODELS.items()
           for command, grid in CLI_RUNS for fmt in ("csv", "json")}
    return {"platform": platform_fingerprint(), "quotes": quotes, "reports": reports, "cli": cli}


@pytest.fixture(scope="module")
def golden():
    data = json.loads(GOLDEN.read_text())
    if data["platform"] != platform_fingerprint():
        pytest.skip("elementwise math or BLAS rounds unlike where the pins were made")
    return data


@pytest.fixture(scope="module")
def current():
    return snapshot()


@pytest.mark.parametrize("name", list(QUOTE_MODELS))
def test_report_grid_quotes_are_bit_identical(golden, current, name):
    assert current["quotes"][name] == golden["quotes"][name]


@pytest.mark.parametrize("name", REPORT_MODELS)
def test_theorem_verdicts_json_is_identical(golden, current, name):
    assert current["reports"][name] == golden["reports"][name]


def test_cli_bytes_are_identical(golden, current):
    assert current["cli"].keys() == golden["cli"].keys()
    for key, text in golden["cli"].items():
        assert current["cli"][key] == text, key


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
