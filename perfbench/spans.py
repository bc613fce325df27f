"""Span recorder for the traced benchmark run.

Spans are taken from outside the library: the recorder wraps the public
entry points the benchmark calls, the `ModelSpec` callables, and the
module attributes through which one layer calls the next (for example
`pricing.price_from_tail`, looked up by `smile_from_model` at call
time).  Nothing under `src/` is edited; `patched()` swaps the attributes
for the duration of a traced pass and restores them afterwards.

Each span records name, start, end, parent span and operation id.  They
are kept in flat arrays in memory and written out once, at the end.
Self time is a span's duration minus the part of its interval that its
child spans cover.  The library is single-threaded and never waits on a
queue or lock, so no wait time is recorded.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields, replace
from time import perf_counter

import numpy as np

# ModelSpec callables and the span each one is recorded under
MODEL_SPANS = {
    "char_fn": "models.char_fn",
    "cdf": "models.tail",
    "complement_cdf": "models.tail",
    "log_cdf": "models.log_tail",
    "log_complement_cdf": "models.log_tail",
    "mgf": "models.mgf",
    "log_pdf": "models.log_pdf",
    "pdf": "models.pdf",
}

# (module, attribute, span): the calls inside the library that a traced
# pass records, patched in the module that looks them up at call time.
# Most are cross-layer calls, patched in the importing module.  Sibling
# calls are patched in their defining module on purpose where a layer's
# own steps are wanted: `pricing.price_from_tail` and `price_from_cf`
# as called by `smile_from_model` give the L3 engine spans, and
# `wings.wing_slope`, `tail_reference_curve`, `rv_index`,
# `condition_i_probe` and `asymptotic_residuals` as called by
# `theorem_verdicts` the L5 steps.
LAYER_CALLS = (
    ("inversion", "_scaled_time_value", "bachelier"),
    ("pricing", "implied_vol_call", "inversion"),
    ("pricing", "implied_vol_put", "inversion"),
    ("pricing", "price_from_tail", "pricing.tail"),
    ("pricing", "price_from_cf", "pricing.cf"),
    ("wings", "smile_from_model", "smile"),
    ("wings", "log_call_price_from_tail", "pricing.log_tail"),
    ("wings", "implied_vol_call_log", "inversion"),
    ("wings", "wing_slope", "wings.wing_slope"),
    ("wings", "tail_reference_curve", "wings.tail_reference"),
    ("wings", "rv_index", "wings.rv_index"),
    ("wings", "condition_i_probe", "wings.probe"),
    ("wings", "mgf_blowup_boundary", "wings.probe"),
    ("wings", "asymptotic_residuals", "wings.residuals"),
    ("cli", "price_from_tail", "pricing.tail"),
    ("cli", "price_from_cf", "pricing.cf"),
    ("cli", "smile_from_model", "smile"),
    ("cli", "theorem_verdicts", "wings"),
    ("cli", "implied_vol_call", "inversion"),
    ("cli", "implied_vol_put", "inversion"),
    ("cli", "implied_vol_call_log_vec", "inversion"),
    ("cli", "implied_vol_put_log_vec", "inversion"),
    ("cli", "call_price", "bachelier"),
    ("cli", "put_price", "bachelier"),
    ("cli", "call_price_log", "bachelier"),
    ("cli", "put_price_log", "bachelier"),
)

# public entry points the benchmark itself calls, and their spans
API_SPANS = {
    "theorem_verdicts": "wings",
    "cli_main": "cli",
    "call_price_log": "bachelier",
    "put_price_log": "bachelier",
    "implied_vol_call": "inversion",
    "implied_vol_put": "inversion",
    "implied_vol_call_log": "inversion",
    "implied_vol_put_log": "inversion",
    "implied_vol_call_log_vec": "inversion",
    "implied_vol_put_log_vec": "inversion",
}


def _size(x) -> int:
    return int(np.size(x))


def _count_bachelier(counters, args, out):
    counters["bachelier.items"] += int(np.broadcast(*args[:2]).size)


def _count_inversion(counters, args, out):
    counters["inversion.items"] += _size(args[0])
    if hasattr(out, "method"):  # scalar IvolResult
        counters["inversion.scalar"] += 1
        counters["inversion.iterations"] += out.iterations
        counters["inversion.bisection"] += "bisection" in out.method
        counters["inversion.log_channel"] += out.method.endswith("_log")


def _count_log_tail(counters, args, out):
    counters["models.log_tail.points"] += _size(args[0])


def _count_smile(counters, args, out):
    counters["smile.points"] += len(out.points)
    counters["smile.failed_points"] += sum(p.status != "ok" for p in out.points)


_COUNT_HOOKS = {
    "bachelier": _count_bachelier,
    "inversion": _count_inversion,
    "models.log_tail": _count_log_tail,
    "smile": _count_smile,
}


class Recorder:
    """Spans and counters of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.raised = array("b")
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._models: dict[int, tuple] = {}

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """fn wrapped so that every call records one span named name."""
        nid = self._intern(name)
        hook = _COUNT_HOOKS.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.raised.append(1)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            self.raised[idx] = 0
            if hook is not None:
                hook(self.counters, args, out)
            return out

        return traced

    def count(self, name: str, n: int) -> None:
        self.counters[name] += n

    def model(self, model):
        """model with each of its callables recorded as a models.* span."""
        entry = self._models.get(id(model))
        if entry is None:
            names = {f.name for f in fields(model)}
            wrapped = replace(model, **{
                attr: self.wrap(span, getattr(model, attr))
                for attr, span in MODEL_SPANS.items() if attr in names
            })
            # the original is kept alive so its id is never reused
            entry = self._models[id(model)] = (model, wrapped)
        return entry[1]

    @contextmanager
    def patched(self, modules: dict):
        """Swap LAYER_CALLS (and the CLI's model parser) for recording
        wrappers; modules maps short module names to module objects."""
        saved = []
        try:
            for mod_name, attr, span in LAYER_CALLS:
                mod = modules[mod_name]
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self.wrap(span, getattr(mod, attr)))
            cli = modules["cli"]
            parse = cli.parse_model_config
            saved.append((cli, "parse_model_config", parse))
            cli.parse_model_config = lambda doc: self.model(parse(doc))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        """All spans as gzipped CSV: name,start,end,parent,op,raised."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,raised\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]},{self.op[i]},{self.raised[i]}\n"
                )


# =============================================================================
# span arithmetic
# =============================================================================

def covered_length(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of intervals."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the time its children cover."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(start)):
        kids = children.get(i)
        dur = end[i] - start[i]
        if kids:
            dur -= covered_length(start[i], end[i], [(start[c], end[c]) for c in kids])
        out.append(dur)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(names, name_id, start, end, parent, raised):
    """Per span name and per layer: calls, busy time, self time, raised.

    busy counts only the outermost span of a name (or layer) on each
    call path, so recursion is not counted twice; self sums the self
    time of every span of that name (or layer).
    """
    selfs = self_times(start, end, parent)
    # for each span, the names and layers on its ancestor path, shared
    # between spans through a memo keyed on (parent path, parent name)
    paths: list[frozenset] = [frozenset()]
    memo: dict[tuple[int, int], int] = {}
    path_of = array("l")
    stats: dict[str, Counter] = {}
    for i in range(len(start)):
        p = parent[i]
        if p < 0:
            pid = 0
        else:
            key = (path_of[p], name_id[p])
            pid = memo.get(key)
            if pid is None:
                pname = names[name_id[p]]
                pid = memo[key] = len(paths)
                paths.append(paths[path_of[p]] | {pname, "@" + layer_of(pname)})
        path_of.append(pid)
        name = names[name_id[i]]
        layer = layer_of(name)
        above = paths[pid]
        dur = end[i] - start[i]
        for key, outermost in ((name, name not in above),
                               ("@" + layer, "@" + layer not in above)):
            s = stats.setdefault(key, Counter())
            s["calls"] += 1
            s["self_s"] += selfs[i]
            s["raised"] += raised[i]
            if outermost:
                s["busy_s"] += dur
    return stats
