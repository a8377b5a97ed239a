"""Command-line front end.

Subcommands:

* ``kmsolve run config.json [--csv out.csv]``: run the iteration
  described by the config, print the library's reports on it as JSON
  (each its ``to_dict``), optionally dump the per-iteration table.
  Exit 0 when the run converged, 1 otherwise.
* ``kmsolve validate config.json``: print the feasibility report for the
  config's schedule at its operator's theta (1 without a "problem"), the
  one ``run`` prints.  Exit 0 when feasible, 1 otherwise.
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
and `_engine_options` below.

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
from .operators import as_point, make_affine, make_box_projection, make_identity, make_soft_threshold
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


def _array(value, name: str) -> np.ndarray:
    """`value` as np.asarray(value, dtype=float) reads it; a value it cannot read names the field."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must be an array of numbers: {exc}") from None


def _number_array(value, name: str) -> np.ndarray:
    """`value` as `_array` reads it, refusing a boolean entry at any depth, which numpy reads as 1 or 0."""
    array = _array(value, name)
    for entry in np.asarray(value, dtype=object).flat:
        if entry is not None and not isinstance(entry, str):  # numpy reads null as NaN, a string as float() does
            operators._real(entry, name, "be an array of numbers")
    return array


@_config_errors("bad problem: ")
def problem_from_config(cfg: dict) -> Problem:
    kind = _require(cfg, "kind", "problem")
    if kind == "affine":
        # shapes and finiteness are checked here first, so an error names the config field
        matrix = _number_array(_require(cfg, "matrix", "problem"), "matrix")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be a square matrix, got shape {matrix.shape}")
        offset = _number_array(_require(cfg, "offset", "problem"), "offset")
        op = make_affine(
            operators._as_matrix(matrix, "matrix"),
            as_point(offset, dim=matrix.shape[0], name="offset"),
            theta=_real(cfg.get("theta", 1.0), "theta"),
        )
    elif kind == "soft-threshold":
        op = make_soft_threshold(
            _real(_require(cfg, "gamma", "problem"), "gamma"),
            _integer(_require(cfg, "dim", "problem"), "dim"),
        )
    elif kind == "box-projection":
        op = make_box_projection(
            _number_array(_require(cfg, "lo", "problem"), "lo"), _number_array(_require(cfg, "hi", "problem"), "hi")
        )
    elif kind == "identity":
        op = make_identity(_integer(_require(cfg, "dim", "problem"), "dim"))
    else:
        raise ConfigError(f"unknown problem kind {kind!r}")
    z_star = cfg.get("z_star")
    return Problem(
        operator=op,
        z0=_number_array(_require(cfg, "z0", "problem"), "z0"),
        z_star=None if z_star is None else _number_array(z_star, "z_star"),
    )


@_config_errors("bad schedule: ")
def schedule_from_config(cfg: dict):
    """A constant schedule: regime I, or regime II with sigma and delta (see constant_schedule)."""
    alpha = _real(cfg.get("alpha", 0.0), "alpha")
    lam = _real(_require(cfg, "lambda", "schedule"), "lambda")
    optional = {key: None if cfg.get(key) is None else _real(cfg[key], key) for key in ("sigma", "delta")}
    return constant_schedule(alpha, lam, **optional)


@_config_errors("bad errors: ")
def errors_from_config(cfg: dict | None) -> ErrorModel:
    if not cfg:
        return ErrorModel.zero()
    kind = cfg.get("kind", "zero")
    seed = _integer(cfg.get("seed", 0), "seed")
    if kind == "zero":
        return ErrorModel.zero()
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
        norms = _require(cfg, "norms", "errors")
        if _array(norms, "norms").ndim != 1:
            raise ValueError(f"norms must be a list of numbers, got {norms!r}")
        return ErrorModel.from_norms(norms, seed)
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


def _load_run(cfg: dict):
    """Problem, schedule, errors and engine options of a config, all checked before any run."""
    problem = problem_from_config(_section(cfg, "problem"))
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
    cfg = _load_config(args.config)
    theta = problem_from_config(_section(cfg, "problem")).operator.theta if "problem" in cfg else 1.0
    report = validate_schedule(schedule_from_config(_section(cfg, "schedule")), theta=theta)
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
