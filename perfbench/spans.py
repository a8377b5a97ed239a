"""Spans around calls into kmsolve's layers, for the traced run only.

A span is (name, start, end, parent, job): `parent` is the index of the
enclosing span or -1, `job` the job index or "setup".  Spans stay in
memory until `write_csv` at the end of the run; the harness keeps the
set-up spans and those of the latest traced pass.  A span's self time
is its duration minus the durations of its direct children.

`patched(tracer)` swaps the module attributes the layers look up at call
time for traced wrappers and restores the originals on exit.  Renaming
or removing one of them makes the traced run fail loudly instead of
reporting a layer that silently stopped being measured.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import kmsolve.applications
import kmsolve.cli
import kmsolve.engine
import kmsolve.operators

# (module, attribute, span name)
MODULE_TARGETS = (
    (kmsolve.engine, "emit_error", "schedules.emit_error"),
    (kmsolve.applications, "emit_error", "schedules.emit_error"),
    (kmsolve.operators, "spectral_norm", "operators.spectral_norm"),
    (kmsolve.cli, "iterate", "engine"),
    (kmsolve.cli, "validate_schedule", "schedules.validate"),
    (kmsolve.cli, "rate_certificate", "diagnostics.certificate"),
    (kmsolve.cli, "consistency_report", "diagnostics.consistency"),
    (kmsolve.cli, "write_csv", "cli.write_csv"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job: object = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,job\n")
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{job}\n")


@contextmanager
def patched(tracer: Tracer):
    """Install traced wrappers on the layers' call-time lookups; restore on exit."""
    saved = []
    try:
        for module, attr, name in MODULE_TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original))

        make_affine = kmsolve.cli.make_affine
        saved.append((kmsolve.cli, "make_affine", make_affine))

        def traced_make_affine(*args, **kwargs):
            spec = make_affine(*args, **kwargs)
            return replace(spec, apply=tracer.wrap("operators.apply", spec.apply))

        kmsolve.cli.make_affine = traced_make_affine
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# The per-layer metrics of the result line.  Each is a number on every
# workload: a count is 0 when its callable was never called, and a time
# is listed here only if every workload reaches its layer.
PER_LAYER_UNITS = {
    "engine.steps": "count",
    "engine.self_us_per_step": "us",
    "operators.apply_calls": "count",
    "operators.forward_calls": "count",
    "operators.resolvent_calls": "count",
    "operators.us_per_call": "us",
    "operators.spectral_norm_calls": "count",
    "operators.spectral_norm_s": "s",
    "schedules.emit_error_calls": "count",
    "applications.forward_per_step": "1/step",
    "applications.resolvent_per_step": "1/step",
    "cli.csv_bytes": "bytes",
    "mem.peak_alloc_mb": "MB",
    "trace.overhead_frac": "ratio",
}

# Times of layers that only some workloads reach.  They go to the report
# line, as null where the workload never reached the layer: not reached
# is not the same as free.
LAYER_TIME_UNITS = {
    "operators.apply_us_per_call": "us",
    "operators.forward_us_per_call": "us",
    "operators.resolvent_us_per_call": "us",
    "schedules.emit_error_us_per_call": "us",
    "schedules.validate_s": "s",
    "diagnostics.certificate_s": "s",
    "diagnostics.consistency_s": "s",
    "cli.main_s": "s",
    "cli.write_csv_us_per_row": "us",
}

OPERATOR_CALLABLES = ("operators.apply", "operators.forward", "operators.resolvent")


def layer_metrics(spans, checks) -> tuple[dict, dict]:
    """Per-layer values of one traced pass (plus its set-up spans).

    `checks` are the job checkers' fact dicts.  Returns the result-line
    metrics (PER_LAYER_UNITS, without the mem and trace ones, which the
    harness adds) and the layer times (LAYER_TIME_UNITS, None where the
    layer was never reached).
    """
    indexed = list(enumerate(spans))
    child_time: dict[int, float] = {}
    for _, (_, t0, t1, parent, _) in indexed:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    per_name: dict[str, list[float]] = {}
    self_per_name: dict[str, float] = {}
    for idx, (name, t0, t1, _, _) in indexed:
        per_name.setdefault(name, []).append(t1 - t0)
        self_per_name[name] = self_per_name.get(name, 0.0) + (t1 - t0 - child_time.get(idx, 0.0))

    def calls(name):
        return len(per_name.get(name, ()))

    def mean_s(name, scale=1.0):
        d = per_name.get(name)
        return None if not d else scale * statistics.fmean(d)

    steps = sum(c["steps"] for c in checks)
    if steps <= 0 or "engine" not in self_per_name:
        raise RuntimeError("the traced pass made no engine steps")
    operator_spans = [d for name in OPERATOR_CALLABLES for d in per_name.get(name, ())]
    if not operator_spans or "operators.spectral_norm" not in per_name:
        raise RuntimeError("the traced pass reached no operator callable or no spectral_norm")

    metrics = {
        "engine.steps": steps,
        "engine.self_us_per_step": 1e6 * self_per_name["engine"] / steps,
        "operators.apply_calls": calls("operators.apply"),
        "operators.forward_calls": calls("operators.forward"),
        "operators.resolvent_calls": calls("operators.resolvent"),
        "operators.us_per_call": 1e6 * statistics.fmean(operator_spans),
        "operators.spectral_norm_calls": calls("operators.spectral_norm"),
        "operators.spectral_norm_s": mean_s("operators.spectral_norm"),
        "schedules.emit_error_calls": calls("schedules.emit_error"),
        "applications.forward_per_step": calls("operators.forward") / steps,
        "applications.resolvent_per_step": calls("operators.resolvent") / steps,
        "cli.csv_bytes": sum(c.get("csv_bytes", 0) for c in checks),
    }
    rows = sum(c.get("csv_rows", 0) for c in checks)
    csv_s = sum(per_name.get("cli.write_csv", ()))
    times = {
        "operators.apply_us_per_call": mean_s("operators.apply", 1e6),
        "operators.forward_us_per_call": mean_s("operators.forward", 1e6),
        "operators.resolvent_us_per_call": mean_s("operators.resolvent", 1e6),
        "schedules.emit_error_us_per_call": mean_s("schedules.emit_error", 1e6),
        "schedules.validate_s": mean_s("schedules.validate"),
        "diagnostics.certificate_s": mean_s("diagnostics.certificate"),
        "diagnostics.consistency_s": mean_s("diagnostics.consistency"),
        "cli.main_s": mean_s("cli.main"),
        "cli.write_csv_us_per_row": 1e6 * csv_s / rows if rows and "cli.write_csv" in per_name else None,
    }
    return metrics, times
