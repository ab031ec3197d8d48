"""Spans around calls into each afrokhlin module, installed from outside it.

``install`` replaces, in every module of the package, each name bound to a
function of another traced module (``afrokhlin.cli.classification_report``,
``afrokhlin.classify.gap_product_tail``, the package re-exports, ...) with a
wrapper that records a span: name, start, end, parent and round.  A span's
name is the callee's module and function, so its self time (duration minus
the time its child spans cover) belongs to the callee's layer.  Nothing under
src/ is edited, and the wrappers exist only in the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("cli", "report", "actions", "classify", "products", "ktheory", "traces", "cantor")
# Entry points that are called through their own module rather than from
# another module of the package.
OWN_ENTRY_POINTS = {
    "cli": ("main", "build_parser"),
    "cantor": ("gset_from_json", "cover_from_json"),
}
NOT_TRACED = ("fixtures", "intervals", "citations")

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    "import.afrokhlin_ms": "ms",
    "cli.argparse_ms": "ms",
    "cli.main_self_ms": "ms",
    "report.render_ms": "ms",
    "report.output_bytes": "bytes",
    "actions.parse_ms": "ms",
    "actions.supernatural_ms": "ms",
    "classify.report_self_ms": "ms",
    "classify.tail_calls": "count",
    "products.tail_ms": "ms",
    "products.tail_calls": "count",
    "products.tail_max_bits": "bits",
    "products.tail_distinct_ratio": "ratio",
    "products.finite_ms": "ms",
    "ktheory.positive_self_ms": "ms",
    "ktheory.refinement_calls": "count",
    "ktheory.presentation_ms": "ms",
    "traces.extreme_self_ms": "ms",
    "cantor.validate_ms": "ms",
    "cantor.tower_ms": "ms",
    "cantor.verify_ms": "ms",
}

TAIL = "products.gap_product_tail"


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, round, extra]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.round = 0

    def _open(self, name, extra=None) -> list:
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, self.round, extra]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter_ns()
        return rec

    def _close(self, rec) -> None:
        rec[2] = perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after:
                rec[5] = after(rec[5], result)
            return result

        return wrapper

    def call(self, fn):
        """Run one benchmark operation under a root span."""
        rec = self._open("bench.op")
        try:
            return fn()
        finally:
            self._close(rec)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rnd, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, rnd]) + "\n")


def _tail_hooks(fn):
    sig = inspect.signature(fn)

    def before(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return (bound.arguments["spec"], bound.arguments["m"], bound.arguments["cutoff"])

    def after(key, result):
        bits = 0
        for end in ("lower", "upper"):
            x = getattr(result, end, None)
            if x is not None:
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
        return key, bits

    return before, after


def install(af, tracer: Tracer) -> None:
    """Wrap the cross-module names of the package."""
    modules = [af] + [importlib.import_module(f"afrokhlin.{m}") for m in LAYERS + NOT_TRACED]
    wrappers: dict[int, object] = {}
    for ns in modules:
        for attr, obj in list(vars(ns).items()):
            if not inspect.isfunction(obj) or not obj.__module__.startswith("afrokhlin."):
                continue
            layer = obj.__module__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            if obj.__module__ == ns.__name__ and attr not in OWN_ENTRY_POINTS.get(layer, ()):
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrapper(tracer, layer, obj)
            setattr(ns, attr, wrappers[id(obj)])


def _wrapper(tracer: Tracer, layer: str, fn):
    name = f"{layer}.{fn.__name__}"
    if name == TAIL:
        return tracer.wrap(name, fn, *_tail_hooks(fn))
    if name == "cli.build_parser":
        # time argument parsing too: wrap parse_args on the parser it returns
        def build(*args, **kwargs):
            parser = fn(*args, **kwargs)
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser

        return tracer.wrap(name, functools.wraps(fn)(build))
    return tracer.wrap(name, fn)


def layer_metrics(tracer: Tracer, rounds: int, import_ms: float, output_bytes: int) -> dict:
    """Per-layer metrics for one round: totals over the run / rounds."""
    spans = tracer.spans
    covered = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        self_ms[name] += (end - start - covered[i]) / 1e6
        calls[name] += 1

    def ms(*names):
        return sum(self_ms[n] for n in names) / rounds

    def has_ancestor(i, name):
        i = spans[i][3]
        while i >= 0:
            if spans[i][0] == name:
                return True
            i = spans[i][3]
        return False

    tails = [i for i, s in enumerate(spans) if s[0] == TAIL]
    keys = {(spans[i][4], spans[i][5][0]) for i in tails}
    under_report = sum(1 for i in tails if has_ancestor(i, "classify.classification_report"))
    tails_per_positive: dict[int, int] = defaultdict(int)
    for i in tails:
        parent = spans[i][3]
        if parent >= 0 and spans[parent][0] == "ktheory.is_positive":
            tails_per_positive[parent] += 1
    refinements = sum(n - 1 for n in tails_per_positive.values())
    reports = calls["classify.classification_report"]

    values = {
        "import.afrokhlin_ms": import_ms,
        "cli.argparse_ms": ms("cli.build_parser", "cli.parse_args"),
        "cli.main_self_ms": ms("cli.main"),
        "report.render_ms": ms(*(n for n in self_ms if n.startswith("report."))),
        "report.output_bytes": output_bytes,
        "actions.parse_ms": ms("actions.spec_from_json"),
        "actions.supernatural_ms": ms("actions.supernatural_of_algebra", "actions._factorize"),
        "classify.report_self_ms": ms("classify.classification_report"),
        "classify.tail_calls": under_report / reports if reports else 0,
        "products.tail_ms": ms(TAIL),
        "products.tail_calls": len(tails) / rounds,
        "products.tail_max_bits": max((spans[i][5][1] for i in tails), default=0),
        "products.tail_distinct_ratio": len(keys) / len(tails) if tails else 0,
        "products.finite_ms": ms("products.gap_product", "products.condense"),
        "ktheory.positive_self_ms": ms("ktheory.is_positive"),
        "ktheory.refinement_calls": refinements / rounds,
        "ktheory.presentation_ms": ms("ktheory.smith_normal_form", "ktheory.fgab_colimit"),
        "traces.extreme_self_ms": ms("traces.extreme_trace_vector"),
        "cantor.validate_ms": ms("cantor.gset_from_json"),
        "cantor.tower_ms": ms("cantor.greedy_tower"),
        "cantor.verify_ms": ms("cantor.verify_tower"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
