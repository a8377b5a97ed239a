"""Mutation table for the tier-1 tests: python3 tools/mutants.py [--list] [NAME ...]

Each mutant is a named (file, old text, new text) edit of the source.  For
each selected mutant (all by default) the script copies the tree, without
.git and caches, to a temporary directory, applies the edit there, runs the
tier-1 tests with -x and prints whether they killed it (some test failed)
or it survived.  The working tree is never written.

A mutant with a written reason is one the tests are not expected to kill;
the reason says why.  A tier-1 run that outlasts TIMEOUT_S counts as a
kill.  The exit status is 1 when a mutant without a reason survives or
an edit does not apply exactly once, else 0.

Stdlib only, and not part of tier-1: each mutant costs one tier-1 run.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider")
TIMEOUT_S = 600  # tier-1 takes about 12 s; one that runs this long counts as failed
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info", ".perfbench", ".benchmarks")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    reason: str = ""  # why the tests may let it survive; empty: some check must kill it


CERT = "src/kmsolve/diagnostics.py"
ENGINE = "src/kmsolve/engine.py"
SCHED = "src/kmsolve/schedules.py"
OPS = "src/kmsolve/operators.py"
APPS = "src/kmsolve/applications.py"
CLI = "src/kmsolve/cli.py"
EXTREMES = "floor, ceiling, cap = float(lam.min()), float(lam.max()), float(al.max())"
DELTA = "delta = drift + err_term + step_term"
GUARD = "defined = 0.0 <= a_min and a_max < 1.0"
FEJER_BOUND = "bound = d[:-1] + result.lambdas * result.err_norms"
FEJER_SCALE = "(norm(result.problem.z_star) + bound)"

MUTANTS = (
    Mutant("ceiling-is-min-lambda", CERT, EXTREMES, EXTREMES.replace("float(lam.max())", "float(lam.min())")),
    Mutant("floor-is-max-lambda", CERT, EXTREMES, EXTREMES.replace("float(lam.min())", "float(lam.max())")),
    Mutant("drift-weight-is-min-alpha", CERT, EXTREMES, EXTREMES.replace("float(al.max())", "float(al.min())")),
    Mutant("no-step-term", CERT, DELTA, "delta = drift + err_term"),
    # only the literal recomputation of the certificate kills this one: no run of criterion 7 needs the
    # term to hold its bound, though the proof does
    Mutant("no-drift-term", CERT, DELTA, "delta = err_term + step_term"),
    Mutant(
        "ceiling-from-min-alpha",
        SCHED,
        "lambda_ceiling_ii(a_max, sigma, delta)",
        "lambda_ceiling_ii(a_min, sigma, delta)",
    ),
    Mutant("alpha-of-one-allowed", SCHED, "1.0 - a_max, a_max < 1.0,", "1.0 - a_max, a_max <= 1.0,"),
    Mutant(
        "no-nondecreasing-check",
        SCHED,
        "nondecreasing = bool(np.all(alphas[1:] >= alphas[:-1]))",
        "nondecreasing = True",
    ),
    Mutant("no-formula-guard", SCHED, GUARD, "defined = True"),
    Mutant("delta-at-threshold-feasible", SCHED, "delta > thr,", "delta >= thr,"),
    # no seeded draw gives an all-zero row: a planted block reaches this branch
    Mutant("zero-row-falls-back-to-last-axis", SCHED, "block[flat, 0] = 1.0", "block[flat, -1] = 1.0"),
    Mutant("emit-cache-hit-ignores-model", SCHED, "if m is model and lo <= k < hi:", "if lo <= k < hi:"),
    Mutant("emit-zero-target-rows-signed", SCHED, "block[targets == 0.0] = 0.0", "pass"),
    Mutant("emit-targets-off-by-one", SCHED, "range(lo, lo + b)", "range(lo + 1, lo + b + 1)"),
    Mutant("no-error-term", CERT, DELTA, "delta = drift + step_term"),
    Mutant(
        "rhs-twice-looser",
        CERT,
        "rhs_squared = (dist1 * dist1 + delta)",
        "rhs_squared = 2.0 * (dist1 * dist1 + delta)",
    ),
    Mutant("quasi-fejer-without-error-allowance", CERT, FEJER_BOUND, "bound = d[:-1]"),
    Mutant("quasi-fejer-no-slack", CERT, "d[1:] > bound + slack", "d[1:] > bound"),
    Mutant("quasi-fejer-slack-unscaled", CERT, FEJER_SCALE, "1.0"),
    Mutant("quasi-fejer-slack-without-error-scale", CERT, FEJER_SCALE, "(norm(result.problem.z_star) + d[:-1])"),
    Mutant(
        "quasi-fejer-inertia-test-by-max",
        CERT,
        "if np.any(result.alphas != 0.0):\n        raise ValueError(\"distance",
        "if result.alphas.size and float(np.max(result.alphas)) != 0.0:\n        raise ValueError(\"distance",
    ),
    Mutant(
        "ceiling-without-alpha-delta",
        SCHED,
        "c = alpha * (1.0 + alpha) + alpha * delta + sigma",
        "c = alpha * (1.0 + alpha) + sigma",
    ),
    Mutant(
        "power-decay-exponent-one-summable",
        SCHED,
        "if self.exponent > 1.0 else",
        "if self.exponent >= 1.0 else",
    ),
    Mutant("fb-theta-halved", OPS, "theta = 2.0 * beta / (4.0 * beta - rho)", "theta = beta / (4.0 * beta - rho)"),
    Mutant("spectral-slack-1e-6", OPS, "_SPECTRAL_SLACK = 1e-12", "_SPECTRAL_SLACK = 1e-6"),
    Mutant(
        "gradient-memo-float-compare",
        OPS,
        "np.array_equal(mt.T.view(np.uint64), m.view(np.uint64))",
        "np.array_equal(mt.T, m)",
    ),
    Mutant(
        "affine-shift-on-every-entry",
        OPS,
        "shifted.flat[:: q.shape[0] + 1] -= 1.0 - spec.theta",
        "shifted -= 1.0 - spec.theta",
    ),
    Mutant("affine-shift-written-into-q", OPS, "shifted = q.copy()", "shifted = q"),
    Mutant("spectral-norm-smallest-value", OPS, "compute_uv=False).max(initial=0.0)", "compute_uv=False).min()"),
    Mutant("gradient-memo-writable-copy", OPS, "        mt.flags.writeable = False\n", ""),
    # np.ascontiguousarray(m.T) is a view of an F-ordered m, so the memo would follow the caller's later edits
    Mutant(
        "gradient-memo-view-of-fortran-m",
        OPS,
        'mt = np.array(m.T, order="C")',
        "mt = np.ascontiguousarray(m.T)",
    ),
    Mutant("forward-error-sign", APPS, "b_mu + emit_error(fe, k, dim, fe_cache)", "b_mu - emit_error(fe, k, dim, fe_cache)"),
    Mutant("no-norm-floor", ENGINE, "_FLOOR = 1e-140", "_FLOOR = 0.0"),
    Mutant(
        "residuals-in-float32",
        ENGINE,
        'residuals, err_norms, steps = array("d"), array("d"), array("d")',
        'residuals, err_norms, steps = array("f"), array("d"), array("d")',
    ),
    Mutant(
        "row-norms-by-einsum",
        OPS,
        "np.sqrt(np.matmul(x[:, None, :], x[:, :, None])).ravel()",
        'np.sqrt(np.einsum("ij,ij->i", x, x))',
    ),
    Mutant(
        "no-final-distance-flush",
        ENGINE,
        "    if pending:\n        dists.frombytes",
        "    if False:\n        dists.frombytes",
    ),
    Mutant(
        "exact-err-norms-negative-zero",
        ENGINE,
        "err_norms=np.zeros(len(residuals))",
        "err_norms=np.full(len(residuals), -0.0)",
    ),
    Mutant(
        "rate-rhs-dist1-unsquared",
        CERT,
        "rhs_squared = (dist1 * dist1 + delta)",
        "rhs_squared = (dist1 + delta)",
    ),
    Mutant(
        "run-validates-at-theta-one",
        CLI,
        "validate_schedule(schedule, theta=problem.operator.theta)",
        "validate_schedule(schedule)",
    ),
    Mutant("array-boolean-entry-allowed", OPS, "if isinstance(entry, (bool, np.bool_)):", "if False:"),
    Mutant(
        "array-walk-skipped-for-any-ndarray",
        OPS,
        'if not (isinstance(x, np.ndarray) and x.dtype.kind in "fiu"):',
        "if not isinstance(x, np.ndarray):",
    ),
    Mutant(
        "z-star-length-unchecked",
        ENGINE,
        'as_point(self.z_star, dim=self.z0.shape[0], name="z_star")',
        'as_point(self.z_star, dim=self.operator.dim, name="z_star")',
    ),
    Mutant("certificate-nonfinite-rhs-allowed", CERT, "    if unbounded.size:\n", "    if False:\n"),
    Mutant(
        "report-counts-unjudged-as-consistent",
        CERT,
        'for v in ("not-consistent", "unjudged"):',
        'for v in ("not-consistent",):',
    ),
    Mutant("nonfinite-partial-sum-unjudged", CERT, "    if math.isfinite(total):\n", "    if True:\n"),
    # lambda_k * 0 is NaN at an infinite or NaN lambda_k: the total alone misreads a run that recorded no error
    Mutant("error-sum-zero-only-by-total", CERT, "elif not result.err_norms.any():", "elif s2 == 0.0:"),
    Mutant(
        "cli-zero-section-declares-a-law",
        CLI,
        '    if kind == "zero":\n        return None\n',
        '    if kind == "zero":\n        return ErrorModel.power_decay(0.0, 0.0, seed)\n',
    ),
    Mutant("resolvent-theta-exactly-half", APPS, "if resolvent.theta > 0.5:", "if resolvent.theta != 0.5:"),
    Mutant("fb-resolvent-theta-exactly-half", OPS, "if resolvent.theta > 0.5:", "if resolvent.theta != 0.5:"),
    Mutant("fb-rho-range-closed-at-2beta", OPS, "lambda r: 0.0 < r < 2.0 * beta)", "lambda r: 0.0 < r <= 2.0 * beta)"),
    Mutant("max-iter-minus-one-allowed", ENGINE, "lambda n: n >= 0)", "lambda n: n >= -1)"),
    Mutant("geometric-ratio-zero-allowed", SCHED, "lambda v: 0.0 < v < math.inf)", "lambda v: 0.0 <= v < math.inf)"),
    Mutant(
        "lasso-threshold-product-unchecked",
        APPS,
        "lambda r: 0.0 < r < math.inf and 0.0 < r * inst.reg < math.inf)",
        "lambda r: 0.0 < r < math.inf)",
    ),
    Mutant(
        "emit-error-dim-unchecked",
        SCHED,
        '    dim = _integer(dim, "dim", "be a positive integer", lambda d: d >= 1)\n',
        "",
    ),
    Mutant(
        "validate-run-resamples",
        SCHED,
        "return _judge(result.schedule, result.alphas, result.lambdas, result.problem.operator.theta)",
        "return validate_schedule(result.schedule, theta=result.problem.operator.theta)",
    ),
    Mutant(
        "validate-run-at-theta-one",
        SCHED,
        "result.alphas, result.lambdas, result.problem.operator.theta)",
        "result.alphas, result.lambdas, 1.0)",
    ),
    Mutant(
        "emit-error-hit-any-dim",
        SCHED,
        "cache.get(dim) if dim.__class__ is int else None",
        "cache.get(dim)",
    ),
    Mutant(
        "no-grow-margin",
        ENGINE,
        "_GROW = 1.0 + 1e-12",
        "_GROW = 1.0",
        "a rounding margin of the running norm bound: without it the bound can fall short of "
        "||z^k|| by a few ulps, which changes a recorded maximum only when a state norm lands "
        "within those ulps of it; the argument is the comment at the rule in engine.iterate",
    ),
    Mutant(
        "no-shrink-margin",
        ENGINE,
        "_SHRINK = 1.0 - 1e-6",
        "_SHRINK = 1.0",
        "a rounding margin of the running norm bound: without it a skipped norm could exceed the "
        "recorded maximum or divergence_norm by a relative (dim + 6) * 2**-53 at most, which no "
        "test run comes near; the argument is the comment at the rule in engine.iterate",
    ),
)


def run_mutant(m: Mutant) -> tuple[str, float]:
    """'killed', 'survived' or 'not applied', and the seconds the tier-1 run took."""
    with tempfile.TemporaryDirectory(prefix="kmsolve-mutant-") as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=SKIP)
        target = os.path.join(tree, m.path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(m.old) != 1:
            return "not applied", 0.0
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(m.old, m.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run((sys.executable, *TIER1), cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:  # a mutant that makes tier-1 hang fails it
            return "killed", time.perf_counter() - t0
        return ("killed" if proc.returncode else "survived"), time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="mutants to run (default: all)")
    p.add_argument("--list", action="store_true", help="print the table and exit")
    args = p.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        p.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[n] for n in args.names] or list(MUTANTS)
    if args.list:
        for m in chosen:
            print(f"{m.name}: {m.path}: {m.old!r} -> {m.new!r}")
        return 0

    bad = killed = 0
    for m in chosen:
        outcome, seconds = run_mutant(m)
        killed += outcome == "killed"
        line = f"{outcome:<11} {m.name} ({seconds:.1f}s)"
        if outcome == "survived" and m.reason:
            line += f": {m.reason}"
        else:
            bad += outcome != "killed"
        print(line, flush=True)
    print(f"{killed} of {len(chosen)} killed, {len(chosen) - killed - bad} survived with a reason, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
