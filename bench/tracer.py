"""Span tracing of the qpaths layers from outside the program.

``Tracer.install`` wraps every public function of the layer modules, the
public and arithmetic methods of ``QPoly``, ``QRational`` and
``PathSampler``, and the CLI's serialisation and sweep entry points, and
rebinds each wrapped name in every qpaths module that imported it (so
``correlations.z_cached`` is traced as well as ``partition.z_cached``).
``uninstall`` puts the originals back.

A span is ``(id, parent id, name, start, end, exception name or None,
work count)``.  Spans are kept in memory per request; ``LayerStats`` folds
each request's spans into per-layer totals.  A span's self time is its
duration minus the part of it covered by its children, so the self times
of one request add up to the request's wall time plus the time during
which children ran concurrently (sweep points run on a worker thread;
their spans are parented to the span that submitted them).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

#: The program's layers, in the order they are reported.
LAYERS = ("qpoly", "paths", "partition", "correlations", "reduction2d", "verify", "cli")

#: Classes whose methods are traced, as (module, class name).
TRACED_CLASSES = (("qpoly", "QPoly"), ("qpoly", "QRational"), ("correlations", "PathSampler"))

#: Dunder methods traced on those classes (other dunders are left alone).
ARITHMETIC = ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "__eq__")


def _max_coeff_bits_of_json(obj) -> int:
    """Bit length of the largest coefficient in a to_json_obj() list."""
    longest = max((c for _, c in obj), key=len, default="0")
    return int(longest).bit_length()


class Tracer:
    """Records spans for the request that is running."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.caches: list = []
        self.max_coeff_bits = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self._first_draw_done: set[int] = set()

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, *args, label=None, work=None, **kwargs):
        """Run fn as one span.  ``label(args)`` may rename the span and
        ``work(args, result)`` gives its work count."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        error = None
        count = 0
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            span_name = label(args) if label else name
            if error is None and work is not None:
                count = work(args, result)
            self.spans.append((sid, parent, span_name, t0, t1, error, count))
        return result

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with ``parent`` as the enclosing span."""
        self._local.stack = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = []

    def wrap(self, fn, name: str, label=None, work=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, label=label, work=work, **kwargs)

        return traced

    def _wrap_generator(self, fn, name: str):
        """One span per resumption; the work count is 1 per item yielded."""

        def step(gen):
            try:
                return True, next(gen)
            except StopIteration:
                return False, None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                more, item = self.call(name, step, gen, work=lambda a, r: int(r[0]))
                if not more:
                    return
                yield item

        return traced

    # -- installation ------------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {name: sys.modules[f"qpaths.{name}"] for name in LAYERS}
        aliases = [m for name, m in sys.modules.items() if name == "qpaths" or name.startswith("qpaths.")]
        hooks = self._hooks(modules)
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                public = not attr.startswith("_") or (layer, attr) in hooks
                if not (public and inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                label, work = hooks.get((layer, attr), (None, None))
                wrapped = self.wrap(fn, f"{layer}.{attr}", label, work)
                for alias in aliases:
                    for alias_attr, value in list(vars(alias).items()):
                        if value is fn:
                            self._set(alias, alias_attr, wrapped)
        for layer, class_name in TRACED_CLASSES:
            cls = getattr(modules[layer], class_name, None)
            for attr, fn in list(vars(cls).items()) if cls else []:
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr in ARITHMETIC):
                    label, work = hooks.get((class_name, attr), (None, None))
                    self._set(cls, attr, self.wrap(fn, f"{layer}.{class_name}.{attr}", label, work))
        self._install_io(modules)

    def _hooks(self, modules) -> dict:
        """Span renames and work counts for the spans the layer metrics read."""

        qpoly_cls = modules["qpoly"].QPoly
        terms = qpoly_cls.terms  # the untraced method, read before wrapping

        def evaluate_label(args):
            exact = len(args) > 1 and isinstance(args[1], Fraction)
            return f"qpoly.QPoly.evaluate:{'exact' if exact else 'float'}"

        def mul_work(args, result):
            if not isinstance(result, qpoly_cls):
                return 0
            if len(result):
                bits = max(abs(c) for _, c in terms(result)).bit_length()
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
            return len(args[0]) * len(args[1])

        def json_work(args, result):
            self.max_coeff_bits = max(self.max_coeff_bits, _max_coeff_bits_of_json(result))
            return len(result)

        def draw_label(args):
            sampler = id(args[0])
            if sampler in self._first_draw_done:
                return "correlations.PathSampler.draw"
            self._first_draw_done.add(sampler)
            return "correlations.PathSampler.draw:first"

        def parser_work(args, parser):
            parser.parse_args = self.wrap(parser.parse_args, "cli.parse_args")
            return 0

        def suites_work(args, report):
            return sum(record.instances for record in report.records)

        return {
            ("QPoly", "evaluate"): (evaluate_label, lambda args, r: len(args[0])),
            ("QPoly", "__mul__"): (None, mul_work),
            ("QPoly", "to_json_obj"): (None, json_work),
            ("PathSampler", "draw"): (draw_label, None),
            ("cli", "build_parser"): (None, parser_work),
            ("cli", "_emit"): (None, None),
            ("cli", "_run_sweep"): (None, None),
            ("verify", "run_suites"): (None, suites_work),
        }

    def _install_io(self, modules):
        """Trace the CLI's json.dumps, carry span parents into its sweep
        pool, and register every ZCache the program creates."""
        cli = modules["cli"]
        tracer = self

        class TracedJson:
            dumps = staticmethod(tracer.wrap(json.dumps, "cli.json.dumps"))

            def __getattr__(self, attr):
                return getattr(json, attr)

        if getattr(cli, "json", None) is json:
            self._set(cli, "json", TracedJson())
        pool = getattr(cli, "ThreadPoolExecutor", None)
        if pool is not None:

            class PropagatingPool(pool):
                def submit(self, fn, /, *args, **kwargs):
                    return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

            self._set(cli, "ThreadPoolExecutor", PropagatingPool)
        cache_cls = modules["partition"].ZCache
        original_init = cache_cls.__init__

        def init(cache, *args, **kwargs):
            original_init(cache, *args, **kwargs)
            tracer.caches.append(cache)

        self._set(cache_cls, "__init__", functools.wraps(original_init)(init))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def take(self) -> tuple[list[tuple], list]:
        """The spans and caches recorded since the last take."""
        spans, caches = self.spans, self.caches
        self.spans, self.caches = [], []
        self._first_draw_done.clear()
        return spans, caches


# -- self-time arithmetic -------------------------------------------------------


def self_times(spans: list[tuple]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the total time children overlapped.

    A child's interval is clipped to its parent's.  Self time is the
    parent's duration minus the union of its children's intervals; the
    overlap is the sum of children's durations minus that union, summed
    over all parents.  So sum(self) - overlap = sum of root durations.
    """
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, t0, t1, *_ in spans:
        if parent in bounds:
            lo, hi = bounds[parent]
            children[parent].append((max(t0, lo), min(t1, hi)))
    selfs = {}
    overlap = 0.0
    for sid, (t0, t1) in bounds.items():
        covered = 0.0
        total = 0.0
        end = None
        for a, b in sorted(children.get(sid, ())):
            if b <= a:
                continue
            total += b - a
            if end is None or a >= end:
                covered += b - a
                end = b
            elif b > end:
                covered += b - end
                end = b
        selfs[sid] = (t1 - t0) - covered
        overlap += total - covered
    return selfs, overlap


# -- per-layer metrics ----------------------------------------------------------

#: Span name -> metric prefix for spans counted as calls with self time.
_CALL_METRICS = {
    "qpoly.QPoly.__mul__": "qpoly.mul",
    "qpoly.QPoly.__add__": "qpoly.add",
    "qpoly.QPoly.evaluate:exact": "qpoly.eval_exact",
    "qpoly.QPoly.evaluate:float": "qpoly.eval_float",
    "partition.z_closed": "partition.z_closed",
    "partition.z_generalized": "partition.z_generalized",
    "correlations.multipoint_prob": "correlations.multipoint_prob",
    "correlations.spin_down_prob": "correlations.spin_prob",
    "correlations.spin_up_prob": "correlations.spin_prob",
    "correlations.pair_down_up_prob": "correlations.spin_prob",
    "correlations.fluctuation_distribution": "correlations.fluctuation",
    "paths.oracle_partition": "paths.oracle",
}

#: Span name -> metric that sums the spans' work counts.
_WORK_METRICS = {
    "qpoly.QPoly.__mul__": "qpoly.mul.term_pairs",
    "qpoly.QPoly.evaluate:exact": "qpoly.eval_exact.terms",
    "qpoly.QPoly.to_json_obj": "qpoly.json.terms",
    "paths.enumerate_paths": "paths.enumerated",
    "verify.run_suites": "verify.instances",
}

_SUITES = {"verify.run_identity_suite", "verify.run_bound_suite", "verify.run_fluctuation_suite"}
_JSON = {"qpoly.QPoly.to_json_obj", "qpoly.QRational.to_json_obj"}
_EMIT = {"cli._emit", "cli.json.dumps"}
_PARSE = {"cli.build_parser", "cli.parse_args"}
_DRAWS = {"correlations.PathSampler.draw", "correlations.PathSampler.draw:first"}


class LayerStats:
    """Per-layer totals over the traced requests."""

    def __init__(self):
        self.requests = 0
        self.totals: dict[str, float] = defaultdict(float)
        self.first_draws: list[float] = []
        self.draws: list[float] = []
        self.max_identity_error = 0.0

    def add_request(self, spans: list[tuple], caches: list, stdout_bytes: int):
        """Fold one request's spans; the root span is the benchmark's own."""
        selfs, overlap = self_times(spans)
        layer_of = {s[0]: s[2].split(".", 1)[0] for s in spans}
        name_of = {s[0]: s[2] for s in spans}
        t = self.totals
        roots = 0.0
        for sid, parent, name, t0, t1, error, work in spans:
            layer = layer_of[sid]
            own = selfs[sid]
            if parent is None:
                roots += t1 - t0
            if layer in LAYERS:
                t[f"{layer}.self_s"] += own
                entered = layer_of.get(parent) != layer
                if error is not None and entered:
                    t[f"{layer}.errors"] += 1
                if layer == "reduction2d" and entered:
                    t["reduction2d.calls"] += 1
            else:
                t["trace.residual_s"] += own
            metric = _CALL_METRICS.get(name)
            if metric:
                t[f"{metric}.calls"] += 1
                t[f"{metric}.self_s"] += own
            if name in _WORK_METRICS:
                t[_WORK_METRICS[name]] += work
            if name in _SUITES:
                t["verify.suites"] += 1
            if name in _JSON:
                t["qpoly.json.encode_s"] += own
            if name in _EMIT:
                t["cli.emit_s"] += own
            if name in _PARSE:
                t["cli.parse_s"] += t1 - t0
                if name == "cli.parse_args" and name_of.get(parent) == "cli._run_sweep":
                    t["cli.sweep.points"] += 1
            if name in _DRAWS:
                t["correlations.sampler.draws"] += 1
                (self.first_draws if name.endswith(":first") else self.draws).append(t1 - t0)
        t["partition.cache.hits"] += sum(c.hits for c in caches)
        t["partition.cache.misses"] += sum(c.misses for c in caches)
        t["cli.stdout_bytes"] += stdout_bytes
        t["trace.spans"] += len(spans)
        t["trace.concurrent_s"] += overlap
        error = abs(sum(selfs.values()) - overlap - roots)
        self.max_identity_error = max(self.max_identity_error, error)
        self.requests += 1

    def metrics(self, max_coeff_bits: int) -> dict[str, float]:
        """Per-request means of every total, plus the ratios and maxima."""
        k = max(self.requests, 1)
        out = {name: self.totals.get(name, 0.0) / k for name in _TOTALS}
        hits, misses = self.totals["partition.cache.hits"], self.totals["partition.cache.misses"]
        out["partition.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["correlations.sampler.first_draw_s"] = _mean(self.first_draws)
        out["correlations.sampler.draw_s"] = _mean(self.draws)
        out["qpoly.max_coeff_bits"] = float(max_coeff_bits)
        out["trace.identity_error_s"] = self.max_identity_error
        out["trace.requests"] = float(self.requests)
        return out


#: Every total that add_request accumulates; metrics() reports each per request.
_TOTALS = (
    *(f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "errors")),
    *(f"{metric}.{kind}" for metric in dict.fromkeys(_CALL_METRICS.values()) for kind in ("calls", "self_s")),
    *_WORK_METRICS.values(),
    "verify.suites", "qpoly.json.encode_s", "cli.emit_s", "cli.parse_s", "cli.sweep.points",
    "cli.stdout_bytes", "correlations.sampler.draws", "reduction2d.calls", "partition.cache.hits",
    "partition.cache.misses", "trace.residual_s", "trace.spans", "trace.concurrent_s",
)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
