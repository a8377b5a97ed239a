"""Command-line front end.

Subcommands:

* ``kmsolve run config.json [--csv out.csv]``: run the iteration
  described by the config, print the library's reports on it as JSON
  (each its ``to_dict``), optionally dump the per-iteration table.
  Exit 0 when the run converged, 1 otherwise.
* ``kmsolve validate config.json``: check the config as ``run`` does, then
  print the feasibility report for its schedule at its operator's theta
  (1 without a "problem"), the one ``run`` prints.  Exit 0 when feasible,
  1 otherwise.
* ``kmsolve compare config.json``: run the schedule as given and with
  inertia switched off, print both summaries and the iteration ratio.
  Exit 0 when both runs converged, 1 otherwise.
* ``kmsolve bench``: run the built-in acceptance checks, one line each,
  ending with the check's wall time.  Exit 0 when all pass, 1 otherwise.

Bad configs and usage errors exit 2.  Every config section must be a JSON
object; the optional "errors" and "engine" may also be null or absent.
``run``, ``validate`` and ``compare`` print strict JSON: a NaN or
infinite value prints as null.

The config schema, every key of the "problem", "schedule", "errors" and
"engine" sections, is documented once, in the README's CLI section, and
read by `problem_from_config`, `schedule_from_config`, `errors_from_config`
and `_engine_options` below.  Scalar fields pass through `_real` and
`_integer`, which add JSON-only readings (a numeric string, an integral
float) to the library's checks.  Array fields go to the library as they
are: its one array reader, `operators._as_array`, refuses a bad one by
its parameter's name, and the parameters carry the fields' names.

The per-iteration CSV has exactly the columns
``k,residual,err_norm,dist_to_star,delta_partial,min_residual_sq,rate_rhs``
with floats printed to 17 significant digits and empty quantities as nan.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import operators
from .diagnostics import _min_residual_sq, consistency_report, rate_certificate
from .engine import Problem, _check_options, iterate
from .operators import make_affine, make_box_projection, make_identity, make_soft_threshold
from .schedules import ErrorModel, constant_schedule, validate_schedule

CSV_HEADER = "k,residual,err_norm,dist_to_star,delta_partial,min_residual_sq,rate_rhs"


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, an undecodable byte or an integer past int()'s digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {key!r} in {where}")
    return cfg[key]


def _section(cfg: dict, key: str, required: bool = True) -> dict:
    """The config's `key` section; an optional one that is absent or null reads as {}."""
    if required:
        section = _require(cfg, key, "config")
    else:
        section = cfg.get(key)
        if section is None:
            return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key!r} must be a JSON object")
    return section


@contextmanager
def _config_errors(prefix: str):
    """Report a TypeError or ValueError raised inside as a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _integer(value, name: str) -> int:
    """`value` as an int; an integral float such as 1e5 is read as one, and anything else names the field."""
    return operators._integer(int(value) if isinstance(value, float) and value.is_integer() else value, name)


def _real(value, name: str) -> float:
    """`value` as a float, a string as float() reads it ("nan" and "1e-3" included); anything else names the field."""
    if isinstance(value, str):
        with suppress(ValueError):
            value = float(value)
    return operators._real(value, name, "be a number")


@_config_errors("bad problem: ")
def problem_from_config(cfg: dict) -> Problem:
    kind = _require(cfg, "kind", "problem")
    if kind == "affine":
        op = make_affine(
            _require(cfg, "matrix", "problem"),
            _require(cfg, "offset", "problem"),
            theta=_real(cfg.get("theta", 1.0), "theta"),
        )
    elif kind == "soft-threshold":
        op = make_soft_threshold(
            _real(_require(cfg, "gamma", "problem"), "gamma"),
            _integer(_require(cfg, "dim", "problem"), "dim"),
        )
    elif kind == "box-projection":
        op = make_box_projection(_require(cfg, "lo", "problem"), _require(cfg, "hi", "problem"))
    elif kind == "identity":
        op = make_identity(_integer(_require(cfg, "dim", "problem"), "dim"))
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    return Problem(operator=op, z0=_require(cfg, "z0", "problem"), z_star=cfg.get("z_star"))


@_config_errors("bad schedule: ")
def schedule_from_config(cfg: dict):
    """A constant schedule: regime I, or regime II with sigma and delta (see constant_schedule)."""
    alpha = _real(cfg.get("alpha", 0.0), "alpha")
    lam = _real(_require(cfg, "lambda", "schedule"), "lambda")
    optional = {key: None if cfg.get(key) is None else _real(cfg[key], key) for key in ("sigma", "delta")}
    return constant_schedule(alpha, lam, **optional)


@_config_errors("bad errors: ")
def errors_from_config(cfg: dict | None) -> ErrorModel | None:
    """The section's error law; None, an exact run, for an absent, empty or null section or kind "zero"."""
    cfg = cfg or {}
    kind = cfg.get("kind", "zero")
    seed = _integer(cfg.get("seed", 0), "seed")
    if kind == "zero":
        return None
    if kind == "power-decay":
        return ErrorModel.power_decay(
            _real(_require(cfg, "magnitude", "errors"), "magnitude"),
            _real(_require(cfg, "exponent", "errors"), "exponent"),
            seed,
        )
    if kind == "geometric":
        ratio = _require(cfg, "ratio", "errors")
        magnitude = _real(_require(cfg, "magnitude", "errors"), "magnitude")
        return ErrorModel.geometric(magnitude, _real(ratio, "ratio"), seed)
    if kind == "custom-list":
        return ErrorModel.from_norms(_require(cfg, "norms", "errors"), seed)
    raise ConfigError(f"unknown error kind {kind!r}")


_ENGINE_TYPES = {
    "tol": _real,
    "max_iter": _integer,
    "divergence_norm": _real,
}


@_config_errors("bad engine options: ")
def _engine_options(cfg: dict) -> dict:
    """The engine section as `iterate` keywords, refused here rather than mid-command."""
    opts = {key: cast(cfg[key], key) for key, cast in _ENGINE_TYPES.items() if key in cfg}
    _check_options(**opts)
    return opts


def _load_run(cfg: dict, problem_required: bool = True):
    """Problem (None when optional and absent), schedule, errors and engine options of a config, all checked."""
    problem = problem_from_config(_section(cfg, "problem")) if problem_required or "problem" in cfg else None
    schedule = schedule_from_config(_section(cfg, "schedule"))
    errors = errors_from_config(_section(cfg, "errors", required=False))
    return problem, schedule, errors, _engine_options(_section(cfg, "engine", required=False))


def _clean(obj):
    """`obj` with every NaN or infinite float replaced by None, through dicts and lists."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _clean(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_clean(value) for value in obj]
    return obj


def _print_json(obj) -> None:
    print(json.dumps(_clean(obj), indent=2, allow_nan=False))


_CSV_ROW = "%d" + ",%.17g" * 6 + "\n"


def write_csv(path: str, result, cert) -> None:
    n = result.iterations
    dists = result.dists if result.dists is not None else np.full(n, math.nan)
    mrs = np.full(n, math.nan)
    mrs[1:] = _min_residual_sq(result.residuals)
    delta = np.full(n, math.nan)
    rhs = np.full(n, math.nan)
    delta[cert.ks] = cert.delta  # a refusal's ks is empty
    rhs[cert.ks] = cert.rhs_squared
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in zip(range(n), result.residuals, result.err_norms, dists, delta, mrs, rhs):
            fh.write(_CSV_ROW % row)


def _brief(result) -> dict:
    return {
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "iterations": result.iterations,
        "final_residual": result.residual,
        "final_dist": result.dist_to_star,
    }


def cmd_run(args) -> int:
    problem, schedule, errors, opts = _load_run(_load_config(args.config))
    result = iterate(problem, schedule, errors, **opts)
    cert = rate_certificate(result)
    if args.csv:
        write_csv(args.csv, result, cert)
    summary = {
        **_brief(result),
        "feasibility": validate_schedule(schedule, theta=problem.operator.theta).to_dict(),
        "certificate": cert.to_dict(),
        "consistency": consistency_report(result).to_dict(),
    }
    _print_json(summary)
    return 0 if result.converged else 1


def cmd_validate(args) -> int:
    # the whole config is checked, so validate refuses what run and compare refuse
    problem, schedule, _, _ = _load_run(_load_config(args.config), problem_required=False)
    report = validate_schedule(schedule, theta=1.0 if problem is None else problem.operator.theta)
    _print_json(report.to_dict())
    return 0 if report.feasible else 1


def cmd_compare(args) -> int:
    problem, schedule, errors, opts = _load_run(_load_config(args.config))
    inertial_run = iterate(problem, schedule, errors, **opts)
    # a config schedule's lambda_k is constant: the plain run keeps it and drops the inertia
    plain_run = iterate(problem, constant_schedule(0.0, schedule.lambda_of(0)), errors, **opts)
    ratio = None
    if inertial_run.converged and plain_run.converged and inertial_run.iterations:
        ratio = plain_run.iterations / inertial_run.iterations
    _print_json({"inertial": _brief(inertial_run), "plain": _brief(plain_run), "iteration_ratio": ratio})
    return 0 if (inertial_run.converged and plain_run.converged) else 1


def cmd_bench(args) -> int:
    from .acceptance import run_all

    results = run_all()
    for line in (r.line() for r in results):
        print(line)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kmsolve", description="Relaxed fixed-point solver runner")
    sub = p.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a config and print a JSON summary")
    run_p.add_argument("config")
    run_p.add_argument("--csv", help="write the per-iteration table to this path")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="feasibility report for a config's schedule at its operator's theta")
    val_p.add_argument("config")
    val_p.set_defaults(func=cmd_validate)

    cmp_p = sub.add_parser("compare", help="inertial vs zero-inertia run of the same config")
    cmp_p.add_argument("config")
    cmp_p.set_defaults(func=cmd_compare)

    bench_p = sub.add_parser("bench", help="run the built-in acceptance checks")
    bench_p.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
