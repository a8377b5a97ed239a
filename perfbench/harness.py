"""Closed-loop harness: one caller runs one job at a time and waits for it.

A run sets the workload up `SETUP_REPS` times (reporting the median),
then repeats passes over the fixed job list until the next pass would
end past `--seconds`; at least one pass always runs.  A job's latency
is its median over the passes.  Only `job.run()` is timed; each answer
is checked right after, outside the timed region, and a failed check or
a raised exception is a failed operation.

Times are reported in reference seconds.  On a shared host the speed of
a core drifts with other tenants' load: on a 2-vCPU Intel Xeon VM,
whole 20-s windows ran 1.6-2x slower than others, for every kind of
code alike.  So every job is bracketed by a fixed calibration loop that
does the same mix of work as the workload, and its time is scaled by
the loop's reference time over the loop's mean time around it; set-up
repetitions share one factor from the loops between them.  Job time
over loop time is what stays put; the reference time only turns it
back into seconds, roughly those of an unloaded core of that VM.  The
raw wall times and the host speed are in the report line.

With `--trace 1` the run instead alternates an untraced and a traced
pass over the first `TRACED_JOBS` jobs, then makes one untraced pass
under tracemalloc, and reports the per-layer metrics.  The times of
layers that only some workloads reach go to the report line's
`samples.layer_times`, null where the layer was not reached.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import kmsolve
from perfbench import spans, workloads
from perfbench.workloads import JOBS_PER_PASS, SETUP_REPS, WORKLOADS, no_wrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SEED = 1
# Never used while the benchmark or a change is being tuned; a claimed
# gain must also hold on this seed.
HELD_OUT_SEED = 1908

TRACED_JOBS = {"small-exact": 10, "lasso-perturbed": 4, "cli-report": 4}

# Calibration loops and their best time on an unloaded core of a 2-vCPU
# Intel Xeon VM (Python 3.11, numpy 2.4, single-threaded OpenBLAS).
# "interp" is interpreter-bound like the small solver loops; "fbs" adds
# 300x200 matvecs and a fresh generator per step, like the lasso jobs.
CAL_REFERENCE_S = {"interp": 0.006, "fbs": 0.0045}
CAL_KIND = {"small-exact": "interp", "lasso-perturbed": "fbs", "cli-report": "interp"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "peak_rss_mb": "MB",
}


class Calibration:
    """Times one fixed calibration loop and keeps every sample."""

    def __init__(self, kind: str = "interp"):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.reference = CAL_REFERENCE_S[kind]
        q_orth, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        self._q = 0.9 * q_orth
        self._b = rng.standard_normal(8)
        self._m = rng.standard_normal((300, 200)) / math.sqrt(300)
        self._mt = np.ascontiguousarray(self._m.T)
        self._rhs = rng.standard_normal(300)
        self.samples: list[float] = []

    def _interp(self):
        q, b = self._q, self._b
        z = b
        for _ in range(3000):
            z = q @ z + b
            math.sqrt(float(z @ z))

    def _fbs(self):
        m, mt, rhs = self._m, self._mt, self._rhs
        x = np.zeros(200)
        for k in range(100):
            v = x - 0.3 * (mt @ (m @ x - rhs))
            x = np.sign(v) * np.maximum(np.abs(v) - 0.01, 0.0)
            e = np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(k,))).standard_normal(200)
            x = x + 1e-3 * e / math.sqrt(float(e @ e))

    def __call__(self) -> float:
        loop = self._interp if self.kind == "interp" else self._fbs
        t0 = perf_counter()
        loop()
        dt = perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scale(self, dt: float, before: float, after: float) -> float:
        """Reference seconds for a raw interval bracketed by two loop times."""
        return dt * self.reference / (0.5 * (before + after))

    def host_speed(self) -> float:
        """Reference loop time over the run's median loop time: 1 is an unloaded core."""
        return self.reference / statistics.median(self.samples)


def build(workload: str, seed: int, workdir: str, wrap=no_wrap, n_jobs: int | None = None):
    n = JOBS_PER_PASS[workload] if n_jobs is None else n_jobs
    if workload == "small-exact":
        return workloads.setup_small_exact(seed, n, wrap)
    if workload == "lasso-perturbed":
        return workloads.setup_lasso_perturbed(seed, n, wrap)
    return workloads.setup_cli_report(seed, n, workdir, wrap)


def timed_setup(workload: str, seed: int, workdir: str, reps: int, cal: Calibration):
    """Set the workload up `reps` times; returns (reference seconds, raw seconds, jobs).

    A calibration loop runs before each repetition and after the last.
    All repetitions share the factor from the median of those loops: a
    repetition is long next to one loop, so a single slow loop beside it
    would skew it more than the host's drift does.
    """
    raw = []
    jobs = None
    first = len(cal.samples)
    for _ in range(reps):
        jobs = None
        gc.collect()
        cal()
        t0 = perf_counter()
        jobs = build(workload, seed, workdir)
        raw.append(perf_counter() - t0)
    cal()
    factor = cal.reference / statistics.median(cal.samples[first:])
    return [t * factor for t in raw], raw, jobs


@dataclass
class PassResult:
    times: list = field(default_factory=list)  # reference seconds per job, None if it failed
    raw: list = field(default_factory=list)  # wall seconds per successful job
    facts: list = field(default_factory=list)  # checker facts per successful job
    factor: float = 1.0  # median reference seconds per raw second over this pass

    @property
    def total(self) -> float:
        return sum(t for t in self.times if t is not None)


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self, cal: Calibration | None = None):
        self.cal = cal or Calibration()
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run_pass(self, jobs, tracer=None) -> PassResult:
        """One pass over the jobs, each timed between two calibration loops."""
        result = PassResult()
        factors = []
        before = self.cal()
        for i, job in enumerate(jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.job = i
            try:
                t0 = perf_counter()
                out = job.run()
                dt = perf_counter() - t0
                fact = job.check(out)
            except Exception as exc:  # a crashed job is a failed operation
                self._fail(f"job {i} raised {exc!r}")
                result.times.append(None)
                before = self.cal()
                continue
            after = self.cal()
            del out
            if not fact["ok"]:
                self._fail(f"job {i} failed its check: {fact}")
                result.times.append(None)
            else:
                result.times.append(self.cal.scale(dt, before, after))
                result.raw.append(dt)
                result.facts.append(fact)
                factors.append(result.times[-1] / dt)
            before = after
        if factors:
            result.factor = statistics.median(factors)
        return result

    def _fail(self, message: str):
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)


def measure_end_to_end(workload: str, seed: int, seconds: float, workdir: str, tally: Tally):
    setup_times, setup_raw, jobs = timed_setup(workload, seed, workdir, SETUP_REPS[workload], tally.cal)
    deadline = perf_counter() + seconds
    passes = 0
    per_job: list[list[float]] = [[] for _ in jobs]
    raw_times: list[float] = []
    while True:
        t0 = perf_counter()
        result = tally.run_pass(jobs)
        wall = perf_counter() - t0
        passes += 1
        for samples, t in zip(per_job, result.times):
            if t is not None:
                samples.append(t)
        raw_times.extend(result.raw)
        if perf_counter() + wall > deadline:
            break
    # A job's latency is its median over the passes; the quantiles run over
    # jobs, and a pass is the job list at those latencies.
    job_times = [statistics.median(s) for s in per_job if s]
    if len(job_times) < 2:
        raise RuntimeError("fewer than two jobs succeeded: " + "; ".join(tally.messages))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(job_times),
        "job_s_p50": statistics.median(job_times),
        "job_s_p90": statistics.quantiles(job_times, n=10)[-1],
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_reps": len(setup_times),
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "job_samples": sum(len(s) for s in per_job),
        "calibrations": len(tally.cal.samples),
        "host_speed": tally.cal.host_speed(),
        "raw_setup_s": statistics.median(setup_raw),
        "raw_job_s_p50": statistics.median(raw_times),
    }
    return metrics, samples


def measure_per_layer(workload: str, seed: int, seconds: float, workdir: str, tally: Tally):
    n = TRACED_JOBS[workload]
    tracer = spans.Tracer()
    with spans.patched(tracer):
        traced_jobs = build(workload, seed, workdir, wrap=tracer.wrap, n_jobs=n)
    setup_spans = len(tracer.spans)
    plain_jobs = build(workload, seed, workdir, n_jobs=n)

    deadline = perf_counter() + seconds
    plain_times: list[float] = []
    traced_times: list[float] = []
    per_pass: list[dict] = []
    while True:
        t0 = perf_counter()
        plain_times.append(tally.run_pass(plain_jobs).total)
        del tracer.spans[setup_spans:]  # keep the set-up spans and the latest pass only
        with spans.patched(tracer):
            result = tally.run_pass(traced_jobs, tracer)
        traced_times.append(result.total)
        layer, times = spans.layer_metrics(tracer.spans, result.facts)
        layer.update(times)
        # Per-layer times get the pass's calibration, like its jobs.
        for name, unit in {**spans.PER_LAYER_UNITS, **spans.LAYER_TIME_UNITS}.items():
            if unit in ("s", "us") and layer.get(name) is not None:
                layer[name] *= result.factor
        per_pass.append(layer)
        if perf_counter() + (perf_counter() - t0) > deadline:
            break

    gc.collect()
    tracemalloc.start()
    try:
        tally.run_pass(plain_jobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def median_low(name):
        present = [m[name] for m in per_pass if m.get(name) is not None]
        return statistics.median_low(present) if present else None

    metrics = {name: median_low(name) for name in spans.PER_LAYER_UNITS if name in per_pass[0]}
    metrics["mem.peak_alloc_mb"] = peak / 2**20
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    samples = {
        "traced_jobs": n,
        "traced_passes": len(traced_times),
        "untraced_passes": len(plain_times),
        "spans_written": len(tracer.spans),
        "host_speed": tally.cal.host_speed(),
        "layer_times": {
            name: {"value": median_low(name), "unit": unit} for name, unit in spans.LAYER_TIME_UNITS.items()
        },
    }
    span_path = os.path.join(_bench_dir(), f"spans-{workload}-seed{seed}.csv")
    tracer.write_csv(span_path)
    samples["span_file"] = os.path.relpath(span_path, ROOT)
    return metrics, samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _openblas_runtime():
    """Thread count and build string reported by the OpenBLAS numpy loaded, if it can be found."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads, config = _openblas_runtime()
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_runtime_config": config,
        "blas_threads": threads,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "kmsolve": os.path.relpath(os.path.dirname(kmsolve.__file__), ROOT),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description="kmsolve benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=_bench_dir())
    tally = Tally(Calibration(CAL_KIND[args.workload]))
    try:
        if args.trace:
            metrics, samples = measure_per_layer(args.workload, args.seed, args.seconds, workdir, tally)
            units = spans.PER_LAYER_UNITS
        else:
            metrics, samples = measure_end_to_end(args.workload, args.seed, args.seconds, workdir, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "failures": tally.messages,
        "env": environment(),
    }
    print(json.dumps({"report": report}))
    bad = [n for n in units if not isinstance(metrics.get(n), (int, float)) or not math.isfinite(metrics[n])]
    if bad:
        print(f"error: no numeric value for {', '.join(bad)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _bench_dir() -> str:
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
