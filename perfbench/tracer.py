"""Span tracer for the twcm benchmark.

Tracing is installed from outside the package: the public callables of
each layer are replaced by timing wrappers in every ``twcm.*`` namespace
that holds them, and ``scipy.optimize.minimize`` is replaced where
``twcm.fit`` and ``twcm.marginals`` bound it, to count optimizer starts
and evaluations.  Spans are kept in memory; a span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# Relative distance to the best optimum under which a copula start counts as
# having found the winning optimum.
USEFUL_START_RTOL = 1e-6


class Tracer:
    """Nested spans plus counters, aggregated as they close."""

    def __init__(self):
        self.active = True  # wrappers pass straight through while False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.copula_funs: list[list[float]] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([idx, 0.0])
        return idx

    def exit(self, idx: int) -> None:
        end = time.perf_counter()
        top, child = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        span = self.spans[idx]
        span[2] = end
        duration = end - span[1]
        self.calls[span[0]] += 1
        self.self_s[span[0]] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    @contextmanager
    def paused(self):
        """Let calls made by the benchmark's own checks go unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def self_sum(self) -> float:
        return float(sum(self.self_s.values()))

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def _n_rows(theta) -> int:
    theta = np.asarray(theta)
    return 1 if theta.ndim <= 1 else int(theta.shape[0])


def _count_values(key):
    def count(tr, args, kwargs, out):
        tr.counts[key] += int(np.size(args[1]))
    return count


def _count_log_density_rows(tr, args, kwargs, out):
    tr.counts["model.log_density.rows"] += _n_rows(args[1])


def _count_bootstrap(tr, args, kwargs, out):
    tr.counts["fit.bootstrap.failed_reps"] += int(out.b_failed)


def _count_em(tr, args, kwargs, out):
    report = out[1]
    tr.counts["mixture.em.iterations"] += int(report.n_iter)
    tr.counts["mixture.em.loglik_decreases"] += len(report.flags)


def _count_ar2_steps(tr, args, kwargs, out):
    tr.counts["ar2.simulate.steps"] += int(np.size(out))


def _count_ingest_rows(tr, args, kwargs, out):
    tr.counts["cli.ingest.rows"] += int(out[0].shape[0])


def _wrap(tr: Tracer, fn, name: str, count=None):
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        idx = tr.enter(name)
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                count(tr, args, kwargs, out)
            return out
        finally:
            tr.exit(idx)

    return functools.wraps(fn)(traced)


def _wrap_fit_copula(tr: Tracer, fn):
    """fit_copula span that also scores its optimizer starts."""
    inner = _wrap(tr, fn, "fit.fit_copula")

    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        tr.copula_funs.append([])
        try:
            return inner(*args, **kwargs)
        finally:
            funs = tr.copula_funs.pop()
            if funs:
                best = min(funs)
                tol = USEFUL_START_RTOL * max(1.0, abs(best))
                tr.counts["fit.copula.useful_starts"] += sum(f - best <= tol for f in funs)

    return functools.wraps(fn)(traced)


def _wrap_minimize(tr: Tracer, fn, owner: str):
    """Counting wrapper (no span) for scipy.optimize.minimize."""
    def counted(*args, **kwargs):
        res = fn(*args, **kwargs)
        if not tr.active:
            return res
        if owner == "twcm.fit":
            tr.counts["fit.copula.starts"] += 1
            tr.counts["fit.copula.nfev"] += int(res.nfev)
            if tr.copula_funs:
                tr.copula_funs[-1].append(float(res.fun))
        else:
            tr.counts["marginals.fit.nfev"] += int(res.nfev)
        return res

    return functools.wraps(fn)(counted)


# (module, attribute, span name, counter) for plain functions; each is
# rebound in every twcm namespace that imported it.
FUNCTIONS = (
    ("twcm.copula", "copula_sample", "copula.sample", None),
    ("twcm.copula", "conditional_phi", "copula.conditional_phi", None),
    ("twcm.copula", "constants", "copula.constants", None),
    ("twcm.fit", "fit_ifm", "fit.fit_ifm", None),
    ("twcm.fit", "bootstrap_se", "fit.bootstrap_se", _count_bootstrap),
    ("twcm.mixture", "em_fit", "mixture.em_fit", _count_em),
    ("twcm.mixture", "responsibilities", "mixture.responsibilities", None),
    ("twcm.ar2", "simulate", "ar2.simulate", _count_ar2_steps),
    ("twcm.cli", "ingest", "cli.ingest", _count_ingest_rows),
    ("twcm.cli", "main", "cli.main", None),
)


def _twcm_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "twcm" or name.startswith("twcm."))
    ]


def _rebind(orig, replacement, restore: list) -> None:
    for mod in _twcm_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                restore.append((mod, attr, orig))
                setattr(mod, attr, replacement)


def _set_attr(owner, attr, value, restore: list) -> None:
    restore.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def install(tr: Tracer) -> list:
    """Install the wrappers; returns the list that :func:`uninstall` takes."""
    restore: list = []
    mods = {m.__name__: m for m in _twcm_modules()}
    for modname, attr, name, count in FUNCTIONS:
        if modname in mods:
            orig = getattr(mods[modname], attr)
            _rebind(orig, _wrap(tr, orig, name, count), restore)
    fit_mod = mods["twcm.fit"]
    _rebind(fit_mod.fit_copula, _wrap_fit_copula(tr, fit_mod.fit_copula), restore)
    for modname in ("twcm.fit", "twcm.marginals"):
        mod = mods[modname]
        if "minimize" in vars(mod):
            _set_attr(mod, "minimize", _wrap_minimize(tr, mod.minimize, modname), restore)

    marginals = mods["twcm.marginals"]
    for cls in marginals.FAMILIES.values():
        for meth in ("quantile", "cdf"):
            if meth in cls.__dict__:
                orig = cls.__dict__[meth]
                name = f"marginals.{meth}"
                _set_attr(cls, meth, _wrap(tr, orig, name, _count_values(f"{name}.values")),
                          restore)
        if "fit" in cls.__dict__:
            func = cls.__dict__["fit"].__func__
            _set_attr(cls, "fit", classmethod(_wrap(tr, func, "marginals.fit")), restore)

    model_cls = mods["twcm.model"].TwcmModel
    _set_attr(model_cls, "log_density",
              _wrap(tr, model_cls.__dict__["log_density"], "model.log_density",
                    _count_log_density_rows), restore)
    _set_attr(model_cls, "sample",
              _wrap(tr, model_cls.__dict__["sample"], "model.sample"), restore)
    return restore


def uninstall(restore: list) -> None:
    for owner, attr, orig in reversed(restore):
        setattr(owner, attr, orig)


# Per-layer metrics in report order: (metric, source, key).  Sources:
# "calls"/"self_s" read the span aggregates, "counts" the counters.
LAYER_METRICS = (
    ("marginals.quantile.calls", "calls", "marginals.quantile"),
    ("marginals.quantile.values", "counts", "marginals.quantile.values"),
    ("marginals.quantile.self_s", "self_s", "marginals.quantile"),
    ("marginals.cdf.calls", "calls", "marginals.cdf"),
    ("marginals.cdf.values", "counts", "marginals.cdf.values"),
    ("marginals.cdf.self_s", "self_s", "marginals.cdf"),
    ("marginals.fit.calls", "calls", "marginals.fit"),
    ("marginals.fit.self_s", "self_s", "marginals.fit"),
    ("marginals.fit.nfev", "counts", "marginals.fit.nfev"),
    ("fit.fit_copula.calls", "calls", "fit.fit_copula"),
    ("fit.fit_copula.self_s", "self_s", "fit.fit_copula"),
    ("fit.copula.starts", "counts", "fit.copula.starts"),
    ("fit.copula.nfev", "counts", "fit.copula.nfev"),
    ("fit.fit_ifm.calls", "calls", "fit.fit_ifm"),
    ("fit.fit_ifm.self_s", "self_s", "fit.fit_ifm"),
    ("fit.bootstrap_se.self_s", "self_s", "fit.bootstrap_se"),
    ("fit.bootstrap.failed_reps", "counts", "fit.bootstrap.failed_reps"),
    ("copula.sample.calls", "calls", "copula.sample"),
    ("copula.sample.self_s", "self_s", "copula.sample"),
    ("copula.conditional_phi.calls", "calls", "copula.conditional_phi"),
    ("copula.conditional_phi.self_s", "self_s", "copula.conditional_phi"),
    ("copula.constants.calls", "calls", "copula.constants"),
    ("model.log_density.calls", "calls", "model.log_density"),
    ("model.log_density.rows", "counts", "model.log_density.rows"),
    ("model.log_density.self_s", "self_s", "model.log_density"),
    ("model.sample.calls", "calls", "model.sample"),
    ("model.sample.self_s", "self_s", "model.sample"),
    ("mixture.em_fit.self_s", "self_s", "mixture.em_fit"),
    ("mixture.responsibilities.self_s", "self_s", "mixture.responsibilities"),
    ("mixture.em.iterations", "counts", "mixture.em.iterations"),
    ("mixture.em.loglik_decreases", "counts", "mixture.em.loglik_decreases"),
    ("ar2.simulate.self_s", "self_s", "ar2.simulate"),
    ("ar2.simulate.steps", "counts", "ar2.simulate.steps"),
    ("cli.ingest.self_s", "self_s", "cli.ingest"),
    ("cli.ingest.rows", "counts", "cli.ingest.rows"),
    ("cli.main.self_s", "self_s", "cli.main"),
)


def layer_metrics(calls, self_s, counts) -> dict[str, float]:
    """Per-layer metric values from merged span aggregates and counters."""
    sources = {"calls": calls, "self_s": self_s, "counts": counts}
    out = {name: sources[src].get(key, 0) for name, src, key in LAYER_METRICS}
    starts = counts.get("fit.copula.starts", 0)
    out["fit.copula.useful_start_share"] = (
        counts.get("fit.copula.useful_starts", 0) / starts if starts else 0.0
    )
    return out
