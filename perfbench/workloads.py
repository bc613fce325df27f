"""The four seeded workloads: their operations, items and oracle checks.

A workload is a deck of operations drawn from the seed.  The benchmark
runs the deck in a closed loop with one caller; an operation is one
report, one CLI invocation or one quote snapshot.  Parameters are drawn
by a stratified design (see `design`), so every seed covers each
parameter range evenly and the deck's cost varies little between
seeds.  The library only ever sees the generated inputs.

Each check compares an operation's output with the oracles in
`oracles.py` and returns a `Tally`.  Known failures stay in the data:
a point whose true price underflows doubles is a failed item with the
reason "linear price underflow"; a failing verdict check only lowers
the pass share.  An output outside the oracle contract is a violation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import oracles

# Oracle contract.  A quote round trip (L0 and L1 only) keeps the
# package's 1e-9 relative round-trip accuracy.  A model smile inherits
# its engine's price error: rel_tol 1e-11 above an absolute floor of
# 1e-13, so in the deep wing, far below the floor, prices may be off by
# ~1e-4 relative and the ivol by that over d ln c / d ln sigma ~ d^2.
MODEL_IVOL_RTOL = 1e-6
QUOTE_IVOL_RTOL = 1e-9
PRICE_RTOL = 1e-8
PRICE_ATOL = 1e-13
# re-priced ln(price) of a quote against the oracle's ln(price)
LOG_PRICE_ATOL = 1e-8

LN_DBL_MIN = math.log(sys.float_info.min)
UNDERFLOW = "linear price underflow"


@dataclass
class Op:
    label: str
    items: int
    run: Callable  # run(api) -> output


@dataclass
class Tally:
    """Outcome of checking one operation's output against the oracles."""

    items: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    max_rel_err: float = 0.0
    checks: int = 0
    checks_passed: int = 0

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed += n
        self.reasons[reason] += n

    def ivol(self, where: str, got: float, want: float, rtol: float = MODEL_IVOL_RTOL) -> None:
        err = abs(got / want - 1.0) if math.isfinite(got) else math.inf
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= rtol:
            self.violations.append(f"{where}: ivol {got!r} vs oracle {want!r} (rel {err:.3g})")


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def design(rng: np.random.Generator, n: int, dims: int):
    """n points in [0, 1)^dims, one in each of n equal slices per axis.

    Axis j puts point i in slice (g_j i) mod n, a rank-1 lattice with
    generators coprime to n, so every projection onto two axes is spread
    too; the seed jitters each point inside its slice and shuffles the
    points.  Which values meet which is then the same for every seed, so
    the deck's total cost varies little from seed to seed.
    """
    gens = [g for g in (1, 3, 5, 7, 11, 13) if math.gcd(g, n) == 1][:dims]
    gens += [1] * (dims - len(gens))
    i = rng.permutation(n)
    return np.stack([((g * i) % n + rng.random(n)) / n for g in gens], axis=1)


def scaled(u, lo: float, hi: float, log: bool = False):
    if log:
        return np.exp(np.log(lo) + u * (np.log(hi) - np.log(lo)))
    return lo + u * (hi - lo)


def laplace_params(rng, n):
    u = design(rng, n, 2)
    return [{"lambda_r": float(scaled(a, 0.5, 4.0, log=True)),
             "lambda_l": float(scaled(b, 0.5, 4.0, log=True))} for a, b in u]


def nig_params(rng, n):
    out = []
    for a, r, d in design(rng, n, 3):
        alpha = float(scaled(a, 1.0, 4.0))
        out.append({"alpha": alpha, "beta": alpha * float(scaled(r, -0.6, 0.6)),
                    "delta": float(scaled(d, 0.5, 2.0))})
    return out


def gaussian_params(rng, n):
    return [{"sigma": float(scaled(u, 0.5, 2.0, log=True))} for (u,) in design(rng, n, 1)]


def build_model(bw, family: str, params: dict):
    return bw.parse_model_config({"model": family, "params": params})


# =============================================================================
# wing reports: wings-closed-form and wings-nig
# =============================================================================

class WingReports:
    """theorem_verdicts on seeded models; one item per report."""

    def __init__(self, name: str, bw, seed: int, tiny: bool, workdir):
        rng = rng_for(name, seed)
        if name == "wings-closed-form":
            gauss = gaussian_params(rng, 1 if tiny else 2)
            lap = laplace_params(rng, 1 if tiny else 10)
            # each Gaussian followed by its share of the Laplace models
            per = len(lap) // len(gauss)
            self.specs = [spec for i, g in enumerate(gauss) for spec in
                          [("gaussian", g)] + [("asym_laplace", p) for p in lap[i * per:(i + 1) * per]]]
            self.oracle_picks = None
        else:
            self.specs = [("nig", p) for p in nig_params(rng, 1 if tiny else 8)]
            # NIG oracle prices cost ~0.5 s each: check one seeded report
            # strike of every report, on alternating sides
            self.oracle_picks = [("right" if i % 2 else "left", int(rng.integers(12)))
                                 for i in range(len(self.specs))]
        self.models = [build_model(bw, f, p) for f, p in self.specs]
        self.settings = bw.VerdictSettings()
        self.ops = [
            Op(f"{f}#{i}", 1, lambda api, m=m: api.theorem_verdicts(api.model(m)))
            for i, ((f, _), m) in enumerate(zip(self.specs, self.models))
        ]

    def setup_specs(self):
        return self.specs

    def check(self, i: int, report) -> Tally:
        family, params = self.specs[i]
        model = self.models[i]
        vs = self.settings
        wing = np.geomspace(vs.wing_lo_scales * model.scale,
                            vs.wing_hi_scales * model.scale, vs.points_per_side)
        grid = sorted([-w for w in wing] + [0.0] + list(wing))
        t = Tally(items=len(grid) + 2)
        t.checks = len(report["checks"])
        t.checks_passed = sum(bool(c["pass"]) for c in report["checks"])

        seen = set()
        for side in ("right", "left"):
            detail = report["sides"][side]
            if "error" in detail:
                t.fail(f"{side} side error: {detail['error'].split(':')[0]}")
                continue
            samples = detail["slope_samples"]
            seen.update(k for k, _ in samples)
            if self.oracle_picks is None:
                chosen = samples
            elif self.oracle_picks[i][0] == side:
                chosen = [samples[min(self.oracle_picks[i][1], len(samples) - 1)]]
            else:
                chosen = []
            for k, s in chosen:
                want = oracles.otm_implied_vol(family, params, k)
                t.ivol(f"{self.ops[i].label} kappa={k:.6g}", math.sqrt(s * abs(k)), want)

        # wing points absent from the slope samples are the failed ones; a
        # side that errored has no samples, so its points stay unattributed
        errored = {side for side in ("right", "left") if "error" in report["sides"][side]}
        missing = [k for k in grid if k != 0.0 and k not in seen
                   and ("right" if k > 0 else "left") not in errored]
        for k in missing:
            lp = oracles.otm_log_price(family, params, k)
            t.fail(UNDERFLOW if lp < LN_DBL_MIN else "unexpected failed point")
        unattributed = report["failed_points"] - len(missing)
        if unattributed > 0:
            t.fail("unexpected failed point", unattributed)
        return t


# =============================================================================
# smile-cli: in-process CLI invocations
# =============================================================================

class SmileCli:
    """`price` and `smile` through cli.main on a near-the-money linear grid
    and a geometric right wing, in csv and json, for models of all three
    families.  One item per grid point.

    Laplace invocations cost about the same on either grid, and the
    model counts put the middle of the sorted invocation times among
    them, so op_ms_p50 does not jump between families from seed to seed.
    """

    name = "smile-cli"
    MODELS = (("gaussian", 1), ("asym_laplace", 4), ("nig", 3))
    COMMANDS = ("price", "smile")
    FORMATS = ("csv", "json")

    def __init__(self, bw, seed: int, tiny: bool, workdir):
        rng = rng_for(self.name, seed)
        draw = {"gaussian": gaussian_params, "asym_laplace": laplace_params,
                "nig": nig_params}
        self.specs = [(family, p) for family, n in self.MODELS
                      for p in draw[family](rng, 1 if tiny else n)]
        self.models = [build_model(bw, f, p) for f, p in self.specs]
        self.grids = []  # per model: [(grid text, kappas)] for lin, geom
        self.spot = {}  # (model, grid) -> the one point an NIG model is checked at
        self.ops = []
        self.op_keys = []
        for fi, ((family, params), m) in enumerate(zip(self.specs, self.models)):
            path = workdir / f"{family}-{fi}.json"
            path.write_text(json.dumps({"model": family, "params": params}))
            width = 4.0 * m.scale * rng.uniform(0.75, 1.25)
            lo = rng.uniform(2.0, 3.0) * m.scale
            hi = rng.uniform(30.0, 45.0) * m.scale
            grids = [f"{-width:.6g}:{width:.6g}:9", f"{lo:.6g}:{hi:.6g}:8:geom"]
            self.grids.append([(g, _grid_values(g)) for g in grids])
            # NIG oracle prices cost ~0.5 s each: one seeded point per model,
            # on the linear or the geometric grid in turn
            self.spot[fi, fi % 2] = int(rng.integers(len(self.grids[fi][fi % 2][1])))
            for gi, (gtext, kappas) in enumerate(self.grids[fi]):
                if tiny and gi:
                    continue
                for cmd in self.COMMANDS:
                    for fmt in self.FORMATS:
                        argv = [cmd, "--model", str(path), "--grid", gtext, "--format", fmt]
                        self.ops.append(Op(f"{cmd}/{family}#{fi}/{gtext}/{fmt}", len(kappas),
                                           lambda api, argv=argv: _run_cli(api, argv)))
                        self.op_keys.append((fi, gi, cmd, fmt))
        self._prices: dict = {}
        self._parsed: dict = {}

    def setup_specs(self):
        return self.specs

    def _oracle(self, fi: int, k: float):
        """(call, put, ln otm price) at kappa, computed once per point."""
        key = (fi, k)
        if key not in self._prices:
            family, params = self.specs[fi]
            call, put = oracles.prices(family, params, k)
            self._prices[key] = (float(call), float(put),
                                 oracles.otm_log_price(family, params, k))
        return self._prices[key]

    def _oracle_ivol(self, fi: int, k: float) -> float:
        family, params = self.specs[fi]
        if family == "gaussian":
            return params["sigma"]
        return oracles.implied_vol(k, self._oracle(fi, k)[2])

    def check(self, i: int, output) -> Tally:
        rc, data = output
        fi, gi, cmd, fmt = self.op_keys[i]
        family, _ = self.specs[fi]
        kappas = self.grids[fi][gi][1]
        t = Tally(items=len(kappas))
        label = self.ops[i].label
        rows = _parse_rows(fmt, data)
        self._parsed[i] = rows
        if len(rows) != len(kappas):
            t.violations.append(f"{label}: {len(rows)} rows for {len(kappas)} grid points")
            return t
        if family == "nig":
            checked = {self.spot[fi, gi]} if (fi, gi) in self.spot else set()
        else:
            checked = set(range(len(rows)))
        n_failed = 0
        for j, row in enumerate(rows):
            k = row["kappa"]
            if row["status"] != "ok":
                n_failed += 1
                lp = self._oracle(fi, k)[2]
                t.fail(UNDERFLOW if lp < LN_DBL_MIN else "unexpected failed point")
                continue
            if j not in checked:
                continue
            where = f"{label} kappa={k:.6g}"
            if cmd == "price":
                call, put, _ = self._oracle(fi, k)
                for leg, got, want in (("call", row["call"], call), ("put", row["put"], put)):
                    if not abs(got - want) <= PRICE_RTOL * abs(want) + PRICE_ATOL:
                        t.violations.append(f"{where}: {leg} {got!r} vs oracle {want!r}")
            else:
                t.ivol(where, row["ivol"], self._oracle_ivol(fi, k))
        want_rc = 2 if n_failed else 0
        if rc != want_rc:
            t.violations.append(f"{label}: exit code {rc}, expected {want_rc}")
        # the same request in csv and json carries the same numbers
        twin = self.op_keys.index((fi, gi, cmd, "csv" if fmt == "json" else "json"))
        if twin in self._parsed and self._parsed[twin] != rows:
            t.violations.append(f"{label}: csv and json values differ")
        return t


def _grid_values(text: str) -> list[float]:
    parts = text.split(":")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    vals = np.geomspace(lo, hi, n) if parts[3:] == ["geom"] else np.linspace(lo, hi, n)
    return sorted(set(float(v) for v in vals))


def _run_cli(api, argv):
    buf = io.StringIO()
    stdout = sys.stdout
    sys.stdout = buf
    try:
        rc = api.cli_main(argv)
    finally:
        sys.stdout = stdout
    data = buf.getvalue().encode("utf-8")
    api.count("cli.bytes_out", len(data))
    return rc, data


def _parse_rows(fmt: str, data: bytes) -> list[dict]:
    text = data.decode("utf-8")
    if fmt == "json":
        rows = json.loads(text)["rows"]
    else:
        rows = [{c: (None if v == "" else v) for c, v in r.items()}
                for r in csv.DictReader(io.StringIO(text))]
    numeric = ("kappa", "call", "put", "price", "log_price", "ivol", "err_estimate")
    return [{c: (float(v) if c in numeric and v is not None else v) for c, v in r.items()}
            for r in rows]


# =============================================================================
# quotes-bulk: market snapshots through the inversion layer
# =============================================================================

class QuotesBulk:
    """Smile snapshots of 10 to 200 out-of-the-money quotes, inverted in
    one batch each (a fixed tenth of them one quote at a time through the
    scalar solvers) and re-priced.  One item per quote."""

    name = "quotes-bulk"
    SCALAR_EVERY = 10
    DEEP_SHARE = 0.3

    def __init__(self, bw, seed: int, tiny: bool, workdir):
        rng = rng_for(self.name, seed)
        n = 4 if tiny else 150
        sizes = np.sort(np.rint(scaled(design(rng, n, 1)[:, 0], 10, 200, log=True)).astype(int))
        # every SCALAR_EVERY-th size in sorted order, the largest included,
        # goes through the scalar path, so that share and its size mix
        # (which set op_ms_tail) are the same for every seed
        scalar = np.zeros(n, dtype=bool)
        scalar[min(self.SCALAR_EVERY, n) - 1::self.SCALAR_EVERY] = True
        deep = design(rng, n, 1)[:, 0] < self.DEEP_SHARE
        order = rng.permutation(n)
        self.snapshots = []
        self.ops = []
        for idx in order:
            size, is_scalar, is_deep = int(sizes[idx]), bool(scalar[idx]), bool(deep[idx])
            sigma0 = float(np.exp(rng.uniform(np.log(0.2), np.log(2.0))))
            d_max = rng.uniform(38.0, 48.0) if is_deep else rng.uniform(3.0, 8.0)
            x = np.sort(rng.uniform(-1.0, 1.0, size))
            kappa = x * d_max * sigma0
            skew, curv = rng.uniform(-0.2, 0.2), rng.uniform(0.0, 0.5)
            sigma = sigma0 * (1.0 + skew * np.tanh(2.0 * x) + curv * x * x)
            log_p = np.array([oracles.bachelier_otm_log_price(k, s)
                              for k, s in zip(kappa, sigma)])
            snap = (kappa, sigma, log_p)
            self.snapshots.append(snap)
            kind = "scalar" if is_scalar else "batch"
            run = _scalar_snapshot if is_scalar else _batch_snapshot
            self.ops.append(Op(f"{kind}/{size}{'/deep' if is_deep else ''}", size,
                               lambda api, snap=snap, run=run: run(api, snap[0], snap[2])))

    def setup_specs(self):
        return []

    def check(self, i: int, output) -> Tally:
        kappa, sigma, log_p = self.snapshots[i]
        ivol, repriced = output
        t = Tally(items=len(kappa))
        label = self.ops[i].label
        bad = ~(np.isfinite(ivol) & np.isfinite(repriced))
        if bad.any():
            t.fail("non-finite result", int(bad.sum()))
        for j in np.flatnonzero(~bad):
            where = f"{label} kappa={kappa[j]:.6g}"
            t.ivol(where, float(ivol[j]), float(sigma[j]), QUOTE_IVOL_RTOL)
            if not abs(repriced[j] - log_p[j]) <= LOG_PRICE_ATOL:
                t.violations.append(f"{where}: re-priced ln price {repriced[j]!r} vs {log_p[j]!r}")
        return t


def _batch_snapshot(api, kappa, log_p):
    calls = kappa >= 0.0
    puts = ~calls
    ivol = np.empty_like(kappa)
    repriced = np.empty_like(kappa)
    ivol[calls] = api.implied_vol_call_log_vec(kappa[calls], log_p[calls])
    ivol[puts] = api.implied_vol_put_log_vec(kappa[puts], log_p[puts])
    repriced[calls] = api.call_price_log(kappa[calls], ivol[calls])
    repriced[puts] = api.put_price_log(kappa[puts], ivol[puts])
    return ivol, repriced


def _scalar_snapshot(api, kappa, log_p):
    ivol = np.empty_like(kappa)
    repriced = np.empty_like(kappa)
    for j, (k, lp) in enumerate(zip(kappa.tolist(), log_p.tolist())):
        call = k >= 0.0
        if lp > LN_DBL_MIN:
            solve = api.implied_vol_call if call else api.implied_vol_put
            s = solve(k, math.exp(lp)).sigma
        else:
            solve = api.implied_vol_call_log if call else api.implied_vol_put_log
            s = solve(k, lp).sigma
        ivol[j] = s
        repriced[j] = (api.call_price_log if call else api.put_price_log)(k, s)
    return ivol, repriced


# name -> constructor(bw, seed, tiny, workdir)
WORKLOADS = {
    "wings-closed-form": partial(WingReports, "wings-closed-form"),
    "wings-nig": partial(WingReports, "wings-nig"),
    "smile-cli": SmileCli,
    "quotes-bulk": QuotesBulk,
}
