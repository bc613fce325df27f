"""Command-line front end.

Subcommands: price, ivol, smile, wings, check, models.  Raw market
quotes are normalized at this boundary (moneyness (K - F0)/sqrt(t),
price divided by sqrt(t)) so the numeric core only ever sees normalized
quantities.  Under that normalization the fitted volatility is already
the raw Bachelier volatility per square root of time, which is why the
ivol output carries the same number in both columns.

Exit codes: 0 success, 1 configuration error (bad arguments, an
unreadable or invalid model file, an unwritable --out), 2 per-point
failures in an otherwise successful run, 3 implied vol does not exist
(price at or below intrinsic), 4 a diagnostic check failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .bachelier import (
    bachelier_bounds,
    call_price,
    call_price_log,
    mills_sandwich,
    put_price,
    put_price_log,
)
from .errors import (
    BachelierWingsError,
    ModelConfigError,
    NoSolutionBelowIntrinsic,
)
from .inversion import (
    implied_vol_call,
    implied_vol_call_log_vec,
    implied_vol_put,
    implied_vol_put_log_vec,
)
from .models import ModelSpec, model_schemas, parse_model_config
from .pricing import QuadratureSettings, price_grid, smile_from_model
from .pricing import price_from_cf  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .pricing import price_from_tail  # noqa: F401  patched by perfbench/spans.py LAYER_CALLS
from .smile import STATUS_OK
from .wings import VerdictSettings, _check, theorem_verdicts

__all__ = ["main", "entry"]

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_PARTIAL = 2
_EXIT_NO_SOLUTION = 3
_EXIT_CHECK_FAILED = 4


# =============================================================================
# argument plumbing
# =============================================================================

class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the exit-code contract
    # reserves 2 for partial numeric failures, so usage errors become 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(_EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True, slots=True)
class GridSpec:
    lo: float
    hi: float
    count: int
    geometric: bool

    def values(self) -> np.ndarray:
        if self.geometric:
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)

    def canonical(self) -> str:
        spacing = "geom" if self.geometric else "lin"
        return f"{self.lo:g}:{self.hi:g}:{self.count}:{spacing}"


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(
            f"grid {text!r} is not of the form min:max:count[:geom]"
        )
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid {text!r}: {exc}") from None
    geometric = False
    if len(parts) == 4:
        if parts[3] not in ("geom", "lin"):
            raise argparse.ArgumentTypeError(
                f"grid spacing must be 'geom' or 'lin', got {parts[3]!r}"
            )
        geometric = parts[3] == "geom"
    if count < 1:
        raise argparse.ArgumentTypeError("grid count must be at least 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("grid endpoints must be finite")
    if count > 1 and not lo < hi:
        raise argparse.ArgumentTypeError("grid needs min < max when count > 1")
    if geometric and lo * hi <= 0.0:
        raise argparse.ArgumentTypeError(
            "geometric grids need endpoints of one sign, away from zero"
        )
    return GridSpec(lo=lo, hi=hi, count=count, geometric=geometric)


def _parse_seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed {text!r} is not an integer") from None
    if not (0 <= value < 2**64):
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _parse_pos_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("must be finite")
    return value


# built on first use and shared by every later main() call in the
# process: parsing leaves the parser untouched (each call gets a fresh
# Namespace), and usage and help output look up sys.stdout/sys.stderr
# when printed, so redirected callers see their own streams
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="bachelier-wings", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--seed", type=_parse_seed, default=42)

    p = sub.add_parser("price", parents=[], help="price a moneyness grid")
    p.add_argument("--model", required=True, help="model config JSON file")
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--tol", type=_parse_pos_float, default=1e-11,
                   help="quadrature tolerance (relative; also caps absolute)")
    common(p)

    p = sub.add_parser("ivol", help="invert one market quote")
    p.add_argument("--forward", type=_parse_float, required=True)
    p.add_argument("--strike", type=_parse_float, required=True)
    p.add_argument("--maturity", type=_parse_pos_float, required=True)
    p.add_argument("--price", type=_parse_pos_float, required=True)
    p.add_argument("--type", choices=("call", "put"), default="call")
    p.add_argument("--tol", type=_parse_pos_float, default=1e-12)
    common(p)

    p = sub.add_parser("smile", help="implied-volatility smile on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=_parse_grid, required=True)
    p.add_argument("--tol", type=_parse_pos_float, default=1e-12,
                   help="inversion tolerance")
    common(p)

    p = sub.add_parser("wings", help="wing-asymptotics verdict report")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=_parse_grid, default=None,
                   help="per-side |kappa| range as min:max:count (optional)")
    p.add_argument("--tol", type=_parse_pos_float, default=1e-12)
    common(p)

    p = sub.add_parser("check", help="run the core invariant suites")
    p.add_argument("--samples", type=int, default=10_000,
                   help="sample count for the randomized suites")
    p.add_argument("--tol", type=_parse_pos_float, default=1e-9,
                   help="round-trip relative tolerance")
    common(p)

    p = sub.add_parser("models", help="list model types and parameters")
    common(p)
    return parser


# =============================================================================
# output encoding
# =============================================================================

def _round15(value):
    # both formats quote values at 15 significant digits so CSV and JSON
    # runs of the same config are diffable against each other
    if value is None or isinstance(value, (bool, int, str)):
        return value
    v = float(value)
    if not math.isfinite(v):
        return None
    return float(f"{v:.15g}")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    v = float(value)
    if not math.isfinite(v):
        return ""
    return f"{v:.15g}"


def _emit(args, meta: dict, columns: list[str], rows: list[dict]) -> None:
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "meta": meta,
            "rows": [{c: _round15(row[c]) for c in columns} for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _meta(args, command: str, model: ModelSpec | None = None, **extra) -> dict:
    meta: dict = {"command": command}
    if model is not None:
        meta["model"] = model.name
        meta["params"] = {k: _round15(v) for k, v in model.params.items()}
    grid = getattr(args, "grid", None)
    meta["grid"] = grid.canonical() if grid is not None else None
    meta["seed"] = args.seed
    meta["tol"] = _round15(getattr(args, "tol", None))
    meta.update(extra)
    return meta


def _fail(message: str) -> int:
    print(f"bachelier-wings: error: {message}", file=sys.stderr)
    return _EXIT_CONFIG


def _load_model(path: str) -> ModelSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelConfigError("<file>", f"cannot read {path}: {exc.strerror}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise ModelConfigError(
            "<file>", f"malformed JSON in {path}: {exc.msg} at byte offset {offset}"
        ) from exc
    return parse_model_config(doc)


# =============================================================================
# subcommands
# =============================================================================

_PRICE_COLUMNS = ["kappa", "call", "put", "method", "err_estimate", "status"]


def cmd_price(args) -> int:
    model = _load_model(args.model)
    settings = QuadratureSettings(abs_tol=min(args.tol, 1e-13), rel_tol=args.tol)
    kappas, quotes = price_grid(model, args.grid.values(), settings)
    rows = [
        {"kappa": k, "call": None, "put": None, "method": None, "err_estimate": None,
         "status": "failed"}
        if q is None else
        {"kappa": k, "call": q.call, "put": q.put, "method": q.method,
         "err_estimate": q.abs_error_estimate, "status": "ok"}
        for k, q in zip(kappas.tolist(), quotes)
    ]
    _emit(args, _meta(args, "price", model), _PRICE_COLUMNS, rows)
    return _EXIT_PARTIAL if None in quotes else _EXIT_OK


def cmd_ivol(args) -> int:
    sqrt_t = math.sqrt(args.maturity)
    kappa = (args.strike - args.forward) / sqrt_t
    if not math.isfinite(kappa):
        return _fail("derived moneyness is not finite")
    norm_price = args.price / sqrt_t
    solver = implied_vol_call if args.type == "call" else implied_vol_put
    try:
        result = solver(kappa, norm_price, args.tol)
    except NoSolutionBelowIntrinsic:
        print("no solution: price ≤ intrinsic", file=sys.stderr)
        return _EXIT_NO_SOLUTION
    # under sqrt(t)-normalization the smile value already is the raw
    # Bachelier volatility per root time; both columns carry it
    rows = [{"kappa": kappa, "ivol": result.sigma, "raw_vol": result.sigma}]
    _emit(args, _meta(args, "ivol"), ["kappa", "ivol", "raw_vol"], rows)
    return _EXIT_OK


_SMILE_COLUMNS = ["kappa", "price", "log_price", "ivol", "status"]


def cmd_smile(args) -> int:
    model = _load_model(args.model)
    smile = smile_from_model(model, args.grid.values(), tol_iv=args.tol)
    rows = [
        {
            "kappa": p.kappa,
            "price": p.price if p.status == STATUS_OK else None,
            "log_price": p.log_price if p.status == STATUS_OK else None,
            "ivol": p.ivol if p.status == STATUS_OK else None,
            "status": p.status,
        }
        for p in smile.points
    ]
    n_failed = sum(1 for p in smile.points if p.status != STATUS_OK)
    _emit(args, _meta(args, "smile", model), _SMILE_COLUMNS, rows)
    return _EXIT_PARTIAL if n_failed else _EXIT_OK


_CHECK_ROW_COLUMNS = ["name", "measured", "reference", "tolerance", "pass"]


def cmd_wings(args) -> int:
    model = _load_model(args.model)
    span = {}
    if args.grid is not None:
        if not (0.0 < args.grid.lo < args.grid.hi):
            return _fail("wings grid must satisfy 0 < min < max")
        span = dict(
            wing_lo_scales=args.grid.lo / model.scale,
            wing_hi_scales=args.grid.hi / model.scale,
            points_per_side=args.grid.count,
        )
    report = theorem_verdicts(model, VerdictSettings(tol_iv=args.tol, **span))
    rows = [dict(c) for c in report["checks"]]
    meta = _meta(
        args,
        "wings",
        model,
        grid_points=report["grid_points"],
        failed_points=report["failed_points"],
        sides=report["sides"],
        residuals=report.get("residuals"),
        all_pass=report["all_pass"],
    )
    _emit(args, meta, _CHECK_ROW_COLUMNS, rows)
    return _EXIT_OK if report["all_pass"] else _EXIT_CHECK_FAILED


def _suite_rows(samples: int, seed: int, round_trip_tol: float) -> list[dict]:
    rows = []

    # deterministic scaled-coordinate sandwich over log-spaced arguments
    worst = -math.inf
    y = np.geomspace(1e-3, 1e3, 200)
    for beta in (0.25, 1.0, 4.0):
        lo, hi = bachelier_bounds(y, beta)
        price = call_price(y, np.sqrt(beta * y))
        worst = max(worst, float(np.max(lo - price)), float(np.max(price - hi)))
    rows.append(_check("scaled_sandwich", worst, 0.0, 0.0, ok=worst <= 0.0))

    rng = np.random.default_rng(seed)

    # ratio-bound sandwich at random out-of-the-money points
    kappa = 10.0 ** rng.uniform(-2.0, math.log10(20.0), samples)
    sigma = 10.0 ** rng.uniform(-2.0, math.log10(5.0), samples)
    lo, hi = mills_sandwich(kappa, sigma)
    price = call_price(kappa, sigma)
    worst = max(float(np.max(lo - price)), float(np.max(price - hi)))
    rows.append(_check("ratio_bound_sandwich", worst, 0.0, 0.0, ok=worst <= 0.0))

    kappa = rng.uniform(-10.0, 10.0, samples)
    sigma = rng.uniform(0.01, 5.0, samples)
    resid = float(np.max(np.abs(call_price(kappa, sigma) - put_price(kappa, sigma) + kappa)))
    rows.append(_check("parity", resid, 0.0, 1e-13, ok=resid < 1e-13))

    # round trip through the out-of-the-money instrument in log space:
    # the sample box reaches depths where linear prices underflow, and
    # the in-the-money side cannot carry a tiny time value on top of an
    # order-one intrinsic in any fixed precision
    otm_call = kappa >= 0.0
    recovered = np.empty_like(sigma)
    m = otm_call
    recovered[m] = implied_vol_call_log_vec(kappa[m], call_price_log(kappa[m], sigma[m]))
    m = ~otm_call
    recovered[m] = implied_vol_put_log_vec(kappa[m], put_price_log(kappa[m], sigma[m]))
    rel = float(np.max(np.abs(recovered - sigma) / sigma))
    rows.append(_check("round_trip", rel, 0.0, round_trip_tol, ok=rel < round_trip_tol))
    return rows


def cmd_check(args) -> int:
    if args.samples <= 0:
        return _fail("sample count must be positive")
    rows = _suite_rows(args.samples, args.seed, args.tol)
    meta = _meta(args, "check", samples=args.samples,
                 all_pass=all(r["pass"] for r in rows))
    _emit(args, meta, _CHECK_ROW_COLUMNS, rows)
    return _EXIT_OK if all(r["pass"] for r in rows) else _EXIT_CHECK_FAILED


def cmd_models(args) -> int:
    rows = [
        {"model": name, "parameter": param, "required": required}
        for name, schema in model_schemas().items()
        for param, required in schema
    ]
    _emit(args, _meta(args, "models"), ["model", "parameter", "required"], rows)
    return _EXIT_OK


# =============================================================================
# entry points
# =============================================================================

_HANDLERS = {
    "price": cmd_price,
    "ivol": cmd_ivol,
    "smile": cmd_smile,
    "wings": cmd_wings,
    "check": cmd_check,
    "models": cmd_models,
}


_VALUE_FLAGS = {
    "--grid", "--forward", "--strike", "--maturity", "--price", "--tol",
    "--seed", "--out", "--model", "--samples", "--format", "--type",
}


def _absorb_dash_values(argv: list[str]) -> list[str]:
    # argparse mistakes "-4:4:5" after --grid for an option; fold such
    # values into --flag=value form (negative numbers never start "--")
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and not nxt.startswith("--")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_absorb_dash_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except ModelConfigError as exc:
        return _fail(str(exc))
    except BachelierWingsError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    except OSError as exc:
        # a model file that cannot be read is a ModelConfigError already;
        # the one file left that a handler opens is --out
        if args.out is None:
            raise
        return _fail(f"cannot write {args.out}: {exc.strerror}")


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
