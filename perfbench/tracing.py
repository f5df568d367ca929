"""Spans around the package's public functions, installed from outside.

``install`` replaces each traced function by a wrapper wherever a module of
the package refers to it (the defining module, modules that imported it by
name, and the package namespace), so calls between layers are seen without
any change to the package.  A function that no longer exists is reported
as absent and the run goes on.

Every span records its name, start and end, the span that caused it and the
operation it belongs to.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
import time
import warnings

import numpy as np

# (layer, function, counters) -- counters other than "calls" are computed
# from the arguments or the result of each call.
TRACED = (
    ("quadrature", "integrate_panels", ("calls", "points")),
    ("quadrature", "find_decay_point", ("calls",)),
    ("quadrature", "panel_edges", ("panels",)),
    ("quadrature", "periodic_average", ("calls",)),
    ("charfn", "log_cf", ("calls",)),
    ("charfn", "log_cf_complex", ("calls",)),
    ("charfn", "density", ("calls",)),
    ("stable_index", "jurek_decompose", ("calls",)),
    ("stable_index", "matrix_power", ("calls",)),
    ("pricer", "price_option", ("calls",)),
    ("pricer", "n_factor", ("calls",)),
    ("pricer", "n_factor_direct", ()),
    ("pricer", "n_factor_appendix", ()),
    ("pricer", "hedge_and_portfolio", ("calls", "accuracy_warnings")),
    ("moments", "fractional_moment", ("calls",)),
    ("moments", "power_marginal_cf", ("calls",)),
    ("mc_oracle", "sample_stable", ("draws",)),
    ("mc_oracle", "mc_price", ("calls",)),
    ("cli", "load_config", ("calls",)),
    ("cli", "main", ()),
)

# self time is reported for every traced function except n_factor, whose
# time is split between n_factor_direct and n_factor_appendix
NO_SELF_TIME = {"pricer.n_factor"}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, fn, counters in TRACED:
        span = f"{layer}.{fn}"
        for c in counters:
            out.append((f"{span}.{c}", "count"))
        if span not in NO_SELF_TIME:
            out.append((f"{span}.self_ms", "ms"))
    return out


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _points(args, kwargs, result):
    edges = _arg(args, kwargs, 1, "edges")
    nodes = int(_arg(args, kwargs, 2, "nodes"))
    # integrate_panels evaluates the integrand on a full and a half rule
    return (len(edges) - 1) * (nodes + max(2, nodes // 2))


COUNTERS = {
    "points": _points,
    "panels": lambda args, kwargs, result: len(result) - 1,
    "draws": lambda args, kwargs, result: int(_arg(args, kwargs, 2, "n")),
}


class Tracer:
    """Span recorder.  ``op`` is the id of the benchmark operation running."""

    def __init__(self):
        self.spans: list[list] = []   # [id, parent, op, name, start_ns, end_ns]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (one operation)."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        sid = len(self.spans)
        rec = [sid, self.stack[-1] if self.stack else -1, self.op, name, 0, 0]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[4] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn, counters):
        tracer = self
        extra = [(f"{name}.{c}", COUNTERS[c]) for c in counters if c in COUNTERS]
        count_calls = "calls" in counters
        count_warnings = "accuracy_warnings" in counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    n_warn = sum(w.category.__name__ == "AccuracyWarning" for w in caught)
                    key = f"{name}.accuracy_warnings"
                    tracer.counts[key] = tracer.counts.get(key, 0) + n_warn
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if count_calls:
                key = f"{name}.calls"
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            for key, counter in extra:
                tracer.counts[key] = tracer.counts.get(key, 0) + counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "opstable") -> None:
        """Wrap every traced function wherever the package's modules refer to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, fn_name, counters in TRACED:
            module = sys.modules.get(f"{package}.{layer}")
            original = getattr(module, fn_name, None) if module is not None else None
            name = f"{layer}.{fn_name}"
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, counters)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def self_times_ms(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        if not self.spans:
            return {}
        parents = np.array([s[1] for s in self.spans])
        dur = np.array([s[5] - s[4] for s in self.spans], dtype=float)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        names = [s[3] for s in self.spans]
        totals: dict[str, float] = {}
        for name, t in zip(names, own):
            totals[name] = totals.get(name, 0.0) + t
        return {k: v / 1e6 for k, v in totals.items()}

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: id, parent, op, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,op,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")

