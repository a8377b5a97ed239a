"""Command-line front end.

Subcommands:

* ``kmsolve run config.json [--csv out.csv]``: run the iteration
  described by the config, print a JSON summary, optionally dump the
  per-iteration table.  Exit 0 when the run converged, 1 otherwise.
* ``kmsolve validate config.json [--theta X]``: print the feasibility
  report for the config's schedule, with the relaxation ceiling scaled
  by 1/X for an X-averaged operator (X in (0, 1], default 1).  Exit 0
  when feasible, 1 otherwise.
* ``kmsolve compare config.json``: run the schedule as given and with
  inertia switched off, print both summaries and the iteration ratio.
  Exit 0 when both runs converged, 1 otherwise.
* ``kmsolve bench``: run the built-in acceptance checks, one line each.
  Exit 0 when all pass, 1 otherwise.

Bad configs and usage errors exit 2.

Config schema (JSON object):

    {
      "problem": {
        "kind": "affine" | "soft-threshold" | "box-projection" | "identity",
        "z0": [..],            # start point, required
        "z_star": [..],        # known solution, optional
        "theta": 0.5,          # affine only, optional averagedness
        "matrix": [[..]],      # affine
        "offset": [..],        # affine
        "gamma": 0.3,          # soft-threshold
        "dim": 4,              # soft-threshold / identity
        "lo": [..], "hi": [..] # box-projection
      },
      "schedule": {
        "alpha": 0.2, "lambda": 0.5,
        "alpha_cap": ..., "lambda_floor": ..., "lambda_ceiling": ...,  # optional
        "sigma": ..., "delta": ...,      # optional, switches to regime II
        "alpha0_zero": true              # regime II start, default true
      },
      "errors": {"kind": "power-decay", "magnitude": 1e-2, "exponent": 2.0, "seed": 0},
      "engine": {"tol": 1e-10, "max_iter": 100000, "route": "direct",
                 "divergence_norm": 1e12}
    }

The per-iteration CSV has exactly the columns
``k,residual,err_norm,dist_to_star,delta_partial,min_residual_sq,rate_rhs``
with floats printed to 17 significant digits and empty quantities as nan.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .diagnostics import _min_residual_sq, consistency_report, rate_certificate
from .engine import ROUTES, Problem, iterate
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing {key!r} in {where}")
    return cfg[key]


def problem_from_config(cfg: dict) -> Problem:
    kind = _require(cfg, "kind", "problem")
    try:
        if kind == "affine":
            op = make_affine(
                _require(cfg, "matrix", "problem"),
                _require(cfg, "offset", "problem"),
                theta=float(cfg.get("theta", 1.0)),
            )
        elif kind == "soft-threshold":
            op = make_soft_threshold(
                float(_require(cfg, "gamma", "problem")), int(_require(cfg, "dim", "problem"))
            )
        elif kind == "box-projection":
            op = make_box_projection(_require(cfg, "lo", "problem"), _require(cfg, "hi", "problem"))
        elif kind == "identity":
            op = make_identity(int(_require(cfg, "dim", "problem")))
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
        return Problem(
            operator=op,
            z0=_require(cfg, "z0", "problem"),
            z_star=cfg.get("z_star"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem: {exc}") from exc


def schedule_from_config(cfg: dict):
    try:
        alpha = float(cfg.get("alpha", 0.0))
        sigma = cfg.get("sigma")
        delta = cfg.get("delta")
        schedule = constant_schedule(
            alpha,
            float(_require(cfg, "lambda", "schedule")),
            alpha_cap=cfg.get("alpha_cap"),
            lambda_floor=cfg.get("lambda_floor"),
            lambda_ceiling=cfg.get("lambda_ceiling"),
            sigma=None if sigma is None else float(sigma),
            delta=None if delta is None else float(delta),
        )
        if sigma is not None and cfg.get("alpha0_zero", True):
            schedule = replace(schedule, alpha_of=lambda k: 0.0 if k == 0 else alpha)
        return schedule
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def errors_from_config(cfg: dict | None) -> ErrorModel:
    if not cfg:
        return ErrorModel.zero()
    try:
        kind = cfg.get("kind", "zero")
        seed = int(cfg.get("seed", 0))
        if kind == "zero":
            return ErrorModel.zero()
        if kind == "power-decay":
            return ErrorModel.power_decay(
                float(_require(cfg, "magnitude", "errors")),
                float(_require(cfg, "exponent", "errors")),
                seed,
            )
        if kind == "geometric":
            ratio = cfg.get("ratio", cfg.get("exponent"))
            if ratio is None:
                raise ConfigError("missing 'ratio' in errors")
            return ErrorModel.geometric(float(_require(cfg, "magnitude", "errors")), float(ratio), seed)
        if kind == "custom-list":
            return ErrorModel.from_norms(_require(cfg, "norms", "errors"), seed)
        raise ConfigError(f"unknown error kind {kind!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad errors: {exc}") from exc


def _engine_options(cfg: dict | None, problem: Problem) -> dict:
    cfg = cfg or {}
    opts = {}
    try:
        if "tol" in cfg:
            opts["tol"] = float(cfg["tol"])
            if math.isnan(opts["tol"]):
                raise ValueError("tol must not be NaN")
        if "max_iter" in cfg:
            opts["max_iter"] = int(cfg["max_iter"])
            if opts["max_iter"] < 0:
                raise ValueError("max_iter must be nonnegative")
        if "divergence_norm" in cfg:
            opts["divergence_norm"] = float(cfg["divergence_norm"])
            if math.isnan(opts["divergence_norm"]):
                raise ValueError("divergence_norm must not be NaN")
        if "route" in cfg:
            opts["route"] = str(cfg["route"])
            if opts["route"] not in ROUTES:
                raise ValueError(f"unknown route {opts['route']!r}")
            if opts["route"] == "unwrap" and problem.operator.theta >= 1.0:
                raise ValueError("route 'unwrap' needs an averaged problem (theta < 1)")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad engine options: {exc}") from exc
    return opts


def _jf(x) -> float | None:
    x = float(x)
    return None if math.isnan(x) else x


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_rows(result, cert):
    n = result.iterations
    mrs = np.full(n, math.nan)
    mrs[1:] = _min_residual_sq(result.residuals)
    delta = np.full(n, math.nan)
    rhs = np.full(n, math.nan)
    if cert is not None and cert.valid:
        delta[cert.ks] = cert.delta
        rhs[cert.ks] = cert.rhs_tighter
    for k in range(n):
        d = result.dists[k] if result.dists is not None else math.nan
        yield ",".join(
            (
                str(k),
                _g17(result.residuals[k]),
                _g17(result.err_norms[k]),
                _g17(d),
                _g17(delta[k]),
                _g17(mrs[k]),
                _g17(rhs[k]),
            )
        )


def write_csv(path: str, result, cert) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in _csv_rows(result, cert):
            fh.write(row + "\n")


def _certificate_summary(cert) -> dict:
    out = {"valid": cert.valid, "reason": cert.reason}
    if cert.valid:
        out.update(
            {
                "ceiling": _jf(cert.theta),
                "lambda_floor": _jf(cert.lambda_floor),
                "dist1": _jf(cert.dist1),
                "tighter": cert.tighter,
                "holds_printed": cert.holds("printed"),
                "holds_squared": cert.holds("squared"),
                "final_min_residual_sq": _jf(cert.min_residual_sq[-1]),
                "final_rhs_printed": _jf(cert.rhs_printed[-1]),
                "final_rhs_squared": _jf(cert.rhs_squared[-1]),
            }
        )
    return out


def _run_summary(result, report, cert) -> dict:
    return {
        "stop_reason": result.stop_reason,
        "converged": result.converged,
        "iterations": result.iterations,
        "route": result.route,
        "final_residual": _jf(result.residual),
        "final_dist": _jf(result.dist_to_star),
        "feasibility": report.to_dict(),
        "certificate": None if cert is None else _certificate_summary(cert),
        "consistency": consistency_report(result).to_dict(),
    }


def cmd_run(args) -> int:
    cfg = _load_config(args.config)
    problem = problem_from_config(_require(cfg, "problem", "config"))
    schedule = schedule_from_config(_require(cfg, "schedule", "config"))
    errors = errors_from_config(cfg.get("errors"))
    opts = _engine_options(cfg.get("engine"), problem)
    try:
        report = validate_schedule(schedule)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    result = iterate(problem, schedule, errors, **opts)
    cert = None
    if problem.z_star is not None and report.feasible:
        cert = rate_certificate(result)
    if args.csv:
        write_csv(args.csv, result, cert)
    print(json.dumps(_run_summary(result, report, cert), indent=2))
    return 0 if result.converged else 1


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    schedule = schedule_from_config(_require(cfg, "schedule", "config"))
    try:
        report = validate_schedule(schedule, theta=args.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.feasible else 1


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
    problem = problem_from_config(_require(cfg, "problem", "config"))
    sched_cfg = dict(_require(cfg, "schedule", "config"))
    schedule = schedule_from_config(sched_cfg)
    plain_cfg = {
        k: v
        for k, v in sched_cfg.items()
        if k in ("lambda", "lambda_floor", "lambda_ceiling")
    }
    plain_cfg["alpha"] = 0.0
    plain = schedule_from_config(plain_cfg)
    errors = errors_from_config(cfg.get("errors"))
    opts = _engine_options(cfg.get("engine"), problem)

    inertial_run = iterate(problem, schedule, errors, **opts)
    plain_run = iterate(problem, plain, errors, **opts)

    def brief(r):
        return {
            "stop_reason": r.stop_reason,
            "converged": r.converged,
            "iterations": r.iterations,
            "final_residual": _jf(r.residual),
            "final_dist": _jf(r.dist_to_star),
        }

    ratio = None
    if inertial_run.converged and plain_run.converged and inertial_run.iterations:
        ratio = plain_run.iterations / inertial_run.iterations
    print(
        json.dumps(
            {
                "inertial": brief(inertial_run),
                "plain": brief(plain_run),
                "iteration_ratio": ratio,
            },
            indent=2,
        )
    )
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

    val_p = sub.add_parser("validate", help="feasibility report for a config's schedule")
    val_p.add_argument("config")
    val_p.add_argument(
        "--theta", type=float, default=1.0, help="averagedness in (0, 1]; scales the ceiling by 1/theta"
    )
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
