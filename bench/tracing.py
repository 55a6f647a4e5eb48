"""Span tracing for the benchmark's traced run.

Timing wrappers are installed on the module attributes that the library
calls through (``dfm_em.em.kalman_filter`` is what ``e_step`` calls, so
that is where the filter gets wrapped). Each wrapper records one span,
``[name, start, end, parent, op]``, in memory and passes its arguments
and result through untouched. A layer whose target attribute no longer
exists is reported as missing rather than crashing the run.
"""

import importlib
import json
import time
from contextlib import contextmanager

# layer name -> (attributes the library calls it through, the end-to-end
# metric and workload a change to that layer should move).
LAYERS = {
    "montecarlo.run_grid": (["montecarlo.run_grid"],
                            "reps_per_s on mc_cell"),
    "montecarlo.run_cell": (["montecarlo.run_cell"],
                            "reps_per_s on mc_cell"),
    "montecarlo.write_report": (["montecarlo.write_report"],
                                "reps_per_s on mc_cell"),
    "simulate.draw_dgp": (["montecarlo.draw_dgp", "simulate.draw_dgp"],
                          "reps_per_s on mc_cell; setup_s on fit_*"),
    "em.em_fit": (["montecarlo.em_fit", "em.em_fit"],
                  "fit_ms_* on fit_large"),
    "extensions.ridge_fit": (["extensions.ridge_fit"],
                             "fit_ms_* on fit_ridge only"),
    "pca.pc_estimate": (["montecarlo.pc_estimate", "em.pc_estimate",
                         "extensions.pc_estimate"],
                        "fit_ms_* on fit_large; ~1.5% of mc_cell"),
    "em.e_step": (["em.e_step", "extensions.e_step"],
                  "fit_ms_* on fit_large; em_iters on all"),
    "kalman.stationary_init": (["em.stationary_init",
                                "extensions.stationary_init",
                                "montecarlo.stationary_init"],
                               "em_iters and fit_ms_* (P0 fallback)"),
    "kalman.kalman_filter": (["em.kalman_filter", "montecarlo.kalman_filter"],
                             "reps_per_s on mc_cell, then fit_ms_* on fit_large"),
    "kalman.kalman_smoother": (["em.kalman_smoother"],
                               "reps_per_s on mc_cell, then fit_ms_* on fit_large"),
    "em.build_stats": (["em.build_stats"], "fit_ms_* on fit_large"),
    "em.m_step": (["em.m_step", "extensions.m_step"], "fit_ms_* on fit_large"),
    "extensions.ridge_covariance": (["extensions.ridge_covariance"],
                                    "fit_ms_* on fit_ridge only"),
    "metrics.z_scores": (["montecarlo.z_scores"], "reps_per_s on mc_cell only"),
    "metrics.trace_statistic": (["montecarlo.trace_statistic"],
                                "reps_per_s on mc_cell only"),
    "metrics.ZAccumulator.update": (["metrics.ZAccumulator.update"],
                                    "reps_per_s on mc_cell only"),
}

FIT_LAYERS = ("em.em_fit", "extensions.ridge_fit")
STEP_LAYERS = ("kalman.kalman_filter", "kalman.kalman_smoother")


def _resolve(path):
    """(owner object, attribute name) for 'module.attr' or 'module.Class.attr'."""
    module, *chain = path.split(".")
    owner = importlib.import_module(f"dfm_em.{module}")
    for part in chain[:-1]:
        owner = getattr(owner, part)
    return owner, chain[-1]


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        self.missing = []
        for name, (paths, _) in LAYERS.items():
            try:
                targets = [_resolve(p) for p in paths]
                originals = [getattr(owner, attr) for owner, attr in targets]
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            wrappers = {}
            for (owner, attr), fn in zip(targets, originals):
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(self._patches):
                setattr(owner, attr, fn)
            self._patches = []

    @contextmanager
    def span(self, name, op):
        """A span opened by the benchmark itself, e.g. one whole operation."""
        self.op = op
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, None, op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "missing": self.missing, "spans": self.spans}, fh)


def layer_stats(spans, steps):
    """Per-layer numbers from the spans of traced operations.

    ``calls`` is per fit (an ``em_fit`` or ``ridge_fit`` call), ``share`` is
    inclusive time over operation time, ``self_ms`` excludes the time of
    child spans, and ``us_per_step`` divides by the panel length ``steps``.
    ``ms_per_call`` also counts spans recorded while inputs were generated.
    ``em.iter_ms`` is fit time less its PC initialisation, per E-step.
    """
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((name, end - start))
    mine = [(i, s) for i, s in enumerate(spans) if s[4] not in (None, "setup")]
    op_time = sum(s[2] - s[1] for _, s in mine if s[0] == "op")
    fits = [(i, s) for i, s in mine if s[0] in FIT_LAYERS]
    out = {}
    for name in LAYERS:
        every = [s[2] - s[1] for s in spans if s[0] == name]
        calls = [(i, s[2] - s[1]) for i, s in mine if s[0] == name]
        total = sum(d for _, d in calls)
        self_total = total - sum(d for i, _ in calls for _, d in children[i])
        out[name] = {
            "calls": len(calls) / len(fits) if fits else 0.0,
            "ms_per_call": 1e3 * sum(every) / len(every) if every else 0.0,
            "self_ms": 1e3 * self_total / len(calls) if calls else 0.0,
            "share": total / op_time if op_time else 0.0,
        }
        if name in STEP_LAYERS:
            out[name]["us_per_step"] = 1e3 * out[name]["ms_per_call"] / steps
    iter_s = sum(s[2] - s[1] - sum(d for n, d in children[i]
                                   if n == "pca.pc_estimate")
                 for i, s in fits)
    e_steps = sum(n == "em.e_step" for i, _ in fits for n, _ in children[i])
    out["em.iter_ms"] = 1e3 * iter_s / e_steps if e_steps else 0.0
    return out, op_time
