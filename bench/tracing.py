"""Traced runs: spans around every public scalefit function, from outside.

``Tracer.install()`` wraps each public function of the ``scalefit.*``
layer modules in a shim and puts the shim into every scalefit module
that holds the function, including modules that imported it by name
(``scalefit.uncertainty.fit_power_law``, ``scalefit.cli.ingest``, ...).
The objective handed to ``minimize_batch`` is wrapped as well, to count
the rows it evaluates for gradients and for the line search.

A span is (name, start, end, parent, job). Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus
the time its child spans cover. Each timed job has a root span
``bench.job``; its self time is the job's time outside every shim, that
is the benchmark's own time plus any library call a shim failed to reach.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("records", "numerics", "scaling", "allocation", "uncertainty", "alignment", "synth", "cli")

# Element-wise helpers the objectives call on every evaluation; a span
# each would multiply the span count and inflate the objective's time.
UNTRACED = frozenset({"numerics.huber", "numerics.huber_deriv", "numerics.lse"})

SETUP_JOB = -1  # spans of the set-up and warm-up
INPUT_JOB = -2  # spans of the untimed input generation before each job

# Per-layer metrics: name -> (unit, better). Values are per timed job,
# except ratios, trace.jobs_per_s, and synth.s: synth time in the set-up
# and warm-up.
PER_LAYER = {
    "numerics.objective.s": ("s", "lower"),
    "numerics.objective.grad_rows": ("count", "lower"),
    "numerics.objective.ls_rows": ("count", "lower"),
    "numerics.bfgs.iters": ("count", "lower"),
    "numerics.bfgs.converged_frac": ("ratio", "higher"),
    "numerics.linesearch.accept_frac": ("ratio", "higher"),
    "numerics.minimize_batch.calls": ("count", "lower"),
    "numerics.minimize_batch.starts": ("count", "lower"),
    "numerics.minimize_batch.self_s": ("s", "lower"),
    "numerics.minimize.calls": ("count", "lower"),
    "numerics.minimize.s": ("s", "lower"),
    "scaling.fit_joint.calls": ("count", "lower"),
    "scaling.fit_joint.s": ("s", "lower"),
    "scaling.fit_power_law.calls": ("count", "lower"),
    "scaling.fit_power_law.s": ("s", "lower"),
    "scaling.self_s": ("s", "lower"),
    "scaling.predict.calls": ("count", "lower"),
    "scaling.predict.s": ("s", "lower"),
    "uncertainty.bootstrap_fit.s": ("s", "lower"),
    "uncertainty.bootstrap_fit.self_s": ("s", "lower"),
    "uncertainty.resamples": ("count", "higher"),
    "uncertainty.failed_frac": ("ratio", "lower"),
    "alignment.neural_score.s": ("s", "lower"),
    "alignment.behavior_score.s": ("s", "lower"),
    "alignment.fit_logistic.s": ("s", "lower"),
    "alignment.pearson.calls": ("count", "lower"),
    "alignment.self_s": ("s", "lower"),
    "allocation.optimal_allocation.calls": ("count", "lower"),
    "allocation.optimal_allocation.s": ("s", "lower"),
    "allocation.brute_force_allocation.calls": ("count", "lower"),
    "allocation.brute_force_allocation.s": ("s", "lower"),
    "allocation.fit_compute_model.s": ("s", "lower"),
    "records.ingest.calls": ("count", "lower"),
    "records.ingest.rows": ("count", "lower"),
    "records.ingest.s": ("s", "lower"),
    "records.export.rows": ("count", "lower"),
    "records.export.s": ("s", "lower"),
    "records.filter_for_fit.s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "synth.s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "trace.jobs_per_s": ("1/s", "higher"),
}


def public_functions(module):
    """(name, function) for each public function the module itself defines."""
    for name, obj in vars(module).items():
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.name, self.start, self.end, self.parent, self.job, self.child = [], [], [], [], [], []
        self.counters = {}  # (job, counter) -> value
        self.current_job = SETUP_JOB
        self.recording = True
        self._stack = []
        self._patched = []

    # ------------------------------------------------------------ spans

    def open(self, name):
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.child.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        if self._stack:
            self.child[self._stack[-1]] += t - self.start[idx]

    def count(self, key, value, job=None):
        k = (self.current_job if job is None else job, key)
        self.counters[k] = self.counters.get(k, 0) + value

    @contextlib.contextmanager
    def job_span(self, job):
        """Root span of one timed job; spans opened inside belong to it."""
        self.current_job = job
        idx = self.open("bench.job")
        try:
            yield
        finally:
            self.close(idx)
            self.current_job = SETUP_JOB

    @contextlib.contextmanager
    def job_input(self):
        """Spans opened inside belong to a job's untimed input generation."""
        self.current_job = INPUT_JOB
        try:
            yield
        finally:
            self.current_job = SETUP_JOB

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own output checks are not traced."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # ------------------------------------------------------------ shims

    def _shim(self, span, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return shim

    def _objective(self, fg):
        """Wrap a batch objective to time it and count rows by need_grad."""
        tracer = self

        def traced(P, need_grad=True):
            tracer.count("grad_rows" if need_grad else "ls_rows", len(P))
            idx = tracer.open("numerics.objective")
            try:
                return fg(P, need_grad=need_grad)
            finally:
                tracer.close(idx)

        return traced

    def _hooks(self, span):
        """(before, after) hooks that record a layer's counts."""
        if span == "numerics.minimize_batch":
            def before(args, kwargs):
                return (self._objective(args[0]),) + tuple(args[1:]), kwargs

            def after(args, kwargs, result):
                _, _, iters, converged, _ = result
                self.count("starts", len(iters))
                self.count("iters", int(np.sum(iters)))
                self.count("converged", int(np.sum(converged)))
            return before, after
        if span == "records.ingest":
            return None, lambda a, k, result: self.count("ingest_rows", len(result))
        if span == "records.export":
            return None, lambda a, k, result: self.count("export_rows", len(a[0] if a else k["table"]))
        if span == "uncertainty.bootstrap_fit":
            def after(args, kwargs, result):
                self.count("resamples", result.resamples)
                self.count("failed_resamples", result.n_failed_resamples)
            return None, after
        return None, None

    def install(self):
        """Shim every public layer function in every scalefit module holding it."""
        for layer in LAYERS:
            importlib.import_module(f"scalefit.{layer}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "scalefit" or n.startswith("scalefit.")]
        for layer in LAYERS:
            for name, fn in list(public_functions(sys.modules[f"scalefit.{layer}"])):
                span = f"{layer}.{name}"
                if span in UNTRACED:
                    continue
                shim = self._shim(span, fn, *self._hooks(span))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, shim)
                            self._patched.append((module, attr, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # ------------------------------------------------------------ results

    def arrays(self):
        start, end = np.array(self.start), np.array(self.end)
        dur = end - start
        return {
            "name": np.array(self.name),
            "start": start,
            "end": end,
            "parent": np.array(self.parent, dtype=np.int64),
            "job": np.array(self.job, dtype=np.int64),
            "self": dur - np.array(self.child),
        }

    def job_self_times(self):
        """Per timed job: (sum of all its spans' self times, its root's self time)."""
        a = self.arrays()
        timed = a["job"] >= 0
        jobs, self_t = a["job"][timed], a["self"][timed]
        total = np.bincount(jobs, weights=self_t)
        root = np.bincount(jobs, weights=np.where(a["name"][timed] == "bench.job", self_t, 0.0))
        return {int(j): (float(total[j]), float(root[j])) for j in np.unique(jobs)}

    def layer_metrics(self, n_jobs, jobs_per_s):
        a = self.arrays()
        timed = a["job"] >= 0
        names, dur, self_t = a["name"][timed], (a["end"] - a["start"])[timed], a["self"][timed]

        def total(name):
            return float(np.sum(dur[names == name])) / n_jobs

        def calls(name):
            return int(np.sum(names == name)) / n_jobs

        def self_of(prefix, skip=()):
            mask = np.char.startswith(names, prefix) & ~np.isin(names, list(skip))
            return float(np.sum(self_t[mask])) / n_jobs

        c = {}
        for (job, key), value in self.counters.items():
            if job >= 0:
                c[key] = c.get(key, 0) + value

        def per_job(key):
            return c.get(key, 0) / n_jobs

        def ratio(num, den):
            return num / den if den else 0.0

        setup_synth = (a["job"] == SETUP_JOB) & np.char.startswith(a["name"], "synth.")
        m = {
            "numerics.objective.s": total("numerics.objective"),
            "numerics.objective.grad_rows": per_job("grad_rows"),
            "numerics.objective.ls_rows": per_job("ls_rows"),
            "numerics.bfgs.iters": per_job("iters"),
            "numerics.bfgs.converged_frac": ratio(c.get("converged", 0), c.get("starts", 0)),
            "numerics.linesearch.accept_frac": ratio(
                c.get("grad_rows", 0) - c.get("starts", 0), c.get("ls_rows", 0)
            ),
            "numerics.minimize_batch.calls": calls("numerics.minimize_batch"),
            "numerics.minimize_batch.starts": per_job("starts"),
            "numerics.minimize_batch.self_s": self_of("numerics.minimize_batch"),
            "numerics.minimize.calls": calls("numerics.minimize"),
            "numerics.minimize.s": total("numerics.minimize"),
            "scaling.fit_joint.calls": calls("scaling.fit_joint"),
            "scaling.fit_joint.s": total("scaling.fit_joint"),
            "scaling.fit_power_law.calls": calls("scaling.fit_power_law"),
            "scaling.fit_power_law.s": total("scaling.fit_power_law"),
            "scaling.self_s": self_of("scaling.fit_"),
            "scaling.predict.calls": calls("scaling.predict"),
            "scaling.predict.s": total("scaling.predict"),
            "uncertainty.bootstrap_fit.s": total("uncertainty.bootstrap_fit"),
            "uncertainty.bootstrap_fit.self_s": self_of("uncertainty.bootstrap_fit"),
            "uncertainty.resamples": per_job("resamples"),
            "uncertainty.failed_frac": ratio(c.get("failed_resamples", 0), c.get("resamples", 0)),
            "alignment.neural_score.s": total("alignment.neural_score"),
            "alignment.behavior_score.s": total("alignment.behavior_score"),
            "alignment.fit_logistic.s": total("alignment.fit_logistic"),
            "alignment.pearson.calls": calls("alignment.pearson"),
            "alignment.self_s": self_of("alignment."),
            "allocation.optimal_allocation.calls": calls("allocation.optimal_allocation"),
            "allocation.optimal_allocation.s": total("allocation.optimal_allocation"),
            "allocation.brute_force_allocation.calls": calls("allocation.brute_force_allocation"),
            "allocation.brute_force_allocation.s": total("allocation.brute_force_allocation"),
            "allocation.fit_compute_model.s": total("allocation.fit_compute_model"),
            "records.ingest.calls": calls("records.ingest"),
            "records.ingest.rows": per_job("ingest_rows"),
            "records.ingest.s": total("records.ingest"),
            "records.export.rows": per_job("export_rows"),
            "records.export.s": total("records.export"),
            "records.filter_for_fit.s": total("records.filter_for_fit"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.s": total("cli.main"),
            "cli.self_s": self_of("cli."),
            "cli.bytes_written": per_job("cli_bytes_written"),
            "synth.s": float(np.sum((a["end"] - a["start"])[setup_synth])),
            "bench.self_s": self_of("bench.job"),
            "trace.jobs_per_s": jobs_per_s,
        }
        assert set(m) == set(PER_LAYER)
        return m

    def write(self, path):
        np.savez(path, **self.arrays())
