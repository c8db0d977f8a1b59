"""Command-line front end for bounds, planning, tables, and validation.

Subcommands: ``bound`` evaluates one error bound, ``plan`` sizes a budget
at a given (or heuristic) delta, ``optimize`` minimizes the budget over
delta, ``tables`` reproduces the reference budget tables with deviations,
``simulate`` runs trajectories or replicated error estimates, and
``validate`` runs the empirical validation suites.

Output is CSV (floats in 6-significant-digit scientific notation) or JSON
(full precision) on stdout or ``--output``.  Flag values can be supplied
via a ``--config`` JSON file (unknown keys are rejected; flags on the
command line win) and the master seed via the ``MCMC_BUDGET_SEED``
environment variable.  Exit codes: 0 success,
1 failed validation check, 2 usage error, 3 domain or numeric error or a
run that does not fit in memory.

The module loads no numpy: ``bound`` and ``plan`` run on plain floats,
``optimize`` and ``tables`` load it through ``delta_star``, and
``simulate`` and ``validate`` through the chain, whose modules the
handlers import when they run.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import numbers
import os
import sys
from dataclasses import fields
from pathlib import Path

from .bounds import (
    ChainParams,
    FunctionClass,
    gap_error_bound,
    refined_gap_bound,
    refined_uniform_bound,
    uniform_burnin,
    uniform_error_bound,
)
from .exceptions import McmcBudgetError
from .planner import PlanRequest, TableRow, budget_for_delta, budget_table, \
    delta_hat, delta_star, plan_uniform
from .validate import (
    CSV_COLUMNS,
    DEFAULT_CHUNK_ELEMENTS,
    _DEFAULT_SEED,
    _default_values,
    bound_dominance_suite,
    constants_suite,
    oracle_suite,
    rate_suite,
    resolve_model,
)

__all__ = ["main", "build_parser"]

_BOUND_COLUMNS = ("regime", "n", "n0", "p", "norm", "gap", "alpha", "big_m",
                  "dratio", "delta", "leading", "higher_order", "total")
_PLAN_COLUMNS = ("method", "p", "epsilon", "gap", "dratio", "norm", "delta",
                 "n0", "n", "total")
# TableRow's fields, with its suspect cells joined into one column
_TABLE_COLUMNS = (*(field.name for field in fields(TableRow)[:-1]), "suspect")
_SIMULATE_COLUMNS = ("chain", "n", "n0", "replications", "e1_hat",
                     "uncertainty", "bound_total", "seed")
_TRAJECTORY_COLUMNS = ("chain", "step", "value", "seed")


class _UsageError(Exception):
    """Raised by handlers for contract violations in the flag set."""


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "fail"
    # numpy's scalars register with the numbers ABCs; the built-in types,
    # which most cells hold, match first
    if isinstance(value, (int, numbers.Integral)):
        return str(int(value))
    if isinstance(value, (float, numbers.Real)):
        return f"{float(value):.5e}"
    return str(value)


def _emit(args, columns, rows, json_payload) -> None:
    """Write rows as CSV (formatted) or the payload as JSON."""
    if args.format == "json":
        text = json.dumps(json_payload, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(column))
                             for column in columns])
        text = buffer.getvalue()
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            raise _UsageError(
                f"cannot write --output {args.output}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _parse_grid(text: str) -> tuple:
    try:
        grid = tuple(int(token) for token in text.split(",") if token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse integer grid from {text!r}")
    if not grid:
        raise argparse.ArgumentTypeError("needs at least one grid point")
    return grid


def _parse_values(text: str) -> np.ndarray:
    import numpy as np
    try:
        values = np.array([float(token) for token in text.split(",")
                           if token])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse value vector from {text!r}")
    if not np.isfinite(values).all():
        raise argparse.ArgumentTypeError(
            f"value vector {text!r} has a non-finite entry")
    return values


# ---------------------------------------------------------------------------
# handlers


def _chain_params_from_flags(args) -> ChainParams:
    if args.alpha is None:
        raise _UsageError("this regime requires --alpha")
    big_m = 1.0 if args.big_m is None else args.big_m
    return ChainParams(gap=args.gap, alpha=args.alpha, big_m=big_m,
                       dratio=args.dratio)


def cmd_bound(args) -> int:
    f = FunctionClass(p=args.p, norm_p=args.norm)
    row = {key: None for key in _BOUND_COLUMNS}
    row.update(regime=args.regime, n=args.n, p=args.p, norm=args.norm,
               gap=args.gap, alpha=args.alpha, big_m=args.big_m,
               dratio=args.dratio, delta=args.delta, n0=args.n0)
    if args.regime in ("uniform", "gap"):
        if args.regime == "uniform":
            breakdown = uniform_error_bound(
                args.n, _chain_params_from_flags(args), f)
        elif args.delta is None:
            raise _UsageError("the gap regime requires --delta")
        else:
            breakdown = gap_error_bound(args.n, args.delta, args.gap, f)
        row.update(vars(breakdown))
    elif args.regime == "refined-uniform":
        if args.n0 is None:
            raise _UsageError("the refined-uniform regime requires --n0")
        params = _chain_params_from_flags(args)
        row.update(big_m=params.big_m,
                   total=args.norm * refined_uniform_bound(
                       args.n, args.n0, params, args.p))
    else:
        if args.n0 is None or args.delta is None:
            raise _UsageError("the refined-gap regime requires --n0 "
                              "and --delta")
        row.update(total=args.norm * refined_gap_bound(
            args.n, args.n0, args.gap, args.dratio, args.delta, args.p))
    payload = {"command": "bound",
               "inputs": {k: row[k] for k in _BOUND_COLUMNS[:10]},
               "result": {k: row[k] for k in _BOUND_COLUMNS[10:]}}
    _emit(args, _BOUND_COLUMNS, [row], payload)
    return 0


def _plan_request(args) -> PlanRequest:
    return PlanRequest(
        epsilon=args.eps, gap=args.gap, dratio=args.dratio,
        f=FunctionClass(p=args.p, norm_p=args.norm),
        regime=args.regime, alpha=args.alpha, big_m=args.big_m)


def _plan_row(method: str, args, delta, budget) -> dict:
    return {"method": method, "p": args.p, "epsilon": args.eps,
            "gap": args.gap, "dratio": args.dratio, "norm": args.norm,
            "delta": delta, "n0": budget.n0, "n": budget.n,
            "total": budget.total}


def cmd_plan(args) -> int:
    if args.regime == "uniform":
        for flag, value in (("--alpha", args.alpha), ("--big-m", args.big_m)):
            if value is None:
                raise _UsageError(f"the uniform regime requires {flag}")
    request = _plan_request(args)
    if args.regime == "uniform":
        budget = plan_uniform(request)
        rows = [_plan_row("uniform", args, None, budget)]
    elif args.delta is not None:
        budget = budget_for_delta(args.delta, request)
        rows = [_plan_row("explicit", args, args.delta, budget)]
    else:
        if args.dratio <= 1.0 / 64.0:
            raise _UsageError(
                "the heuristic delta needs --dratio > 1/64; pass --delta "
                "explicitly for smaller density ratios")
        delta = delta_hat(args.p, args.eps, args.dratio)
        budget = budget_for_delta(delta, request)
        rows = [_plan_row("heuristic", args, delta, budget)]
    payload = {"command": "plan", "rows": rows}
    _emit(args, _PLAN_COLUMNS, rows, payload)
    return 0


def cmd_optimize(args) -> int:
    if args.regime == "uniform":
        raise _UsageError("optimize tunes the gap-regime slack; the uniform "
                          "regime has none (use plan --regime uniform)")
    request = _plan_request(args)
    best_delta, best = delta_star(request)
    rows = [_plan_row("optimal", args, best_delta, best)]
    if args.dratio > 1.0 / 64.0:
        heuristic_delta = delta_hat(args.p, args.eps, args.dratio)
        rows.append(_plan_row("heuristic", args, heuristic_delta,
                              budget_for_delta(heuristic_delta, request)))
    payload = {"command": "optimize", "rows": rows}
    _emit(args, _PLAN_COLUMNS, rows, payload)
    return 0


def cmd_tables(args) -> int:
    rows = [{**{column: getattr(entry, column)
                for column in _TABLE_COLUMNS[:-1]},
             "suspect": ",".join(entry.suspect_cells)}
            for entry in budget_table()]
    payload = {"command": "tables", "rows": rows}
    _emit(args, _TABLE_COLUMNS, rows, payload)
    return 0


def _simulation_function(args, model):
    from .chains import FiniteChainModel, SingularFunction
    if isinstance(model, FiniteChainModel):
        if args.f is not None:
            if args.f.shape[0] != model.chain.size:
                raise _UsageError(
                    f"--f needs {model.chain.size} values for this chain")
            return args.f
        return _default_values(model)
    if args.f is not None:
        raise _UsageError("--f takes state values of a finite chain; "
                          "a sampler's function is set by --gamma")
    return SingularFunction(args.gamma)


def _load_model(source: str):
    try:
        return resolve_model(source)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read chain file {source}: {exc}")


def cmd_simulate(args) -> int:
    from .chains import _ReplicationStreams
    from .estimator import _check_window, estimate_e1
    model = _load_model(args.chain)
    f = _simulation_function(args, model)
    _check_window(args.n, args.n0)
    if args.trajectory:
        length = args.n + args.n0
        values = model.batch_values(
            f, length, _ReplicationStreams(args.seed, 0, 1))[0]
        rows = [{"chain": model.name, "step": step + 1,
                 "value": float(value), "seed": args.seed}
                for step, value in enumerate(values)]
        payload = {"command": "simulate", "mode": "trajectory",
                   "chain": model.name, "seed": args.seed,
                   "values": [float(v) for v in values]}
        _emit(args, _TRAJECTORY_COLUMNS, rows, payload)
        return 0
    # the bound's inputs are checked before any simulation
    f_class = FunctionClass(p=args.p, norm_p=model.lp_norm(f, args.p))
    estimate = estimate_e1(model, f, args.n, args.n0, args.replications,
                           args.seed, args.chunk_elements)
    # the uniform bound applies only after the regime's burn-in
    bound = (uniform_error_bound(args.n, model.params, f_class).total
             if args.n0 >= uniform_burnin(model.params) else None)
    row = {"chain": model.name, "n": args.n, "n0": args.n0,
           "replications": args.replications, "e1_hat": estimate.e1_hat,
           "uncertainty": estimate.uncertainty, "bound_total": bound,
           "seed": args.seed}
    payload = {"command": "simulate", "mode": "estimate", "rows": [row]}
    _emit(args, _SIMULATE_COLUMNS, [row], payload)
    return 0


def _given(**options) -> dict:
    """The options a user set; the suite keeps its own default for the
    rest."""
    return {key: value for key, value in options.items() if value is not None}


def _suites_for(args, model) -> list:
    names = model.suites if args.suite == "all" else [args.suite]
    run = {"replications": args.replications, "master_seed": args.seed,
           "chunk_elements": args.chunk_elements}
    reports = []
    for name in names:
        if name == "constants":
            reports.append(constants_suite(model, master_seed=args.seed))
        elif name == "oracle":
            reports.append(oracle_suite(model, **run, **_given(
                max_total=args.max_total, start=args.start)))
        elif name == "bound-dominance":
            for regime in ([args.regime] if args.regime
                           else ["uniform", "gap"]):
                reports.append(bound_dominance_suite(
                    model, regime=regime, **run, **_given(
                        n_grid=args.n_grid, p=args.p, delta=args.delta,
                        start=args.start)))
        else:
            reports.append(rate_suite(model, **run, **_given(
                n_grid=args.rate_grid, p=args.p, gamma=args.gamma)))
    return reports


def cmd_validate(args) -> int:
    model = _load_model(args.chain)
    reports = _suites_for(args, model)
    passed = all(report.passed for report in reports)
    suites = [{"suite": report.suite, "passed": report.passed,
               "details": report.details,
               "rows": [row.as_dict() for row in report.rows]}
              for report in reports]
    payload = {"command": "validate", "chain": model.name, "passed": passed,
               "suites": suites}
    rows = [row for suite in suites for row in suite["rows"]]
    _emit(args, CSV_COLUMNS, rows, payload)
    if not passed:
        failing = [row.check for report in reports for row in report.rows
                   if not row.passed]
        print("failed checks: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def _integer_flag(least: int):
    """The argparse type of an integer flag of at least ``least``, 0 or 1."""
    kind = "nonnegative" if least == 0 else "positive"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = least - 1
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be a {kind} integer, got {text!r}")
        return value
    return parse


def _default_seed() -> int:
    raw = os.environ.get("MCMC_BUDGET_SEED")
    if not raw:
        return _DEFAULT_SEED
    try:
        return _integer_flag(0)(raw)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"MCMC_BUDGET_SEED {exc}")


def _add_common(parser) -> None:
    parser.add_argument("--config", help="JSON file with flag defaults")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", help="write output to this path")
    parser.add_argument("--seed", type=_integer_flag(0),
                        help="master seed, a nonnegative integer "
                             "(env MCMC_BUDGET_SEED)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and never changed."""
    parser = argparse.ArgumentParser(
        prog="mcmc-budget",
        description="Budget planning and empirical validation for MCMC "
                    "averages of heavy-tailed integrands.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    bound = subparsers.add_parser(
        "bound", help="evaluate one error bound")
    bound.add_argument("--regime", required=True,
                       choices=("uniform", "gap", "refined-uniform",
                                "refined-gap"))
    bound.add_argument("--n", type=float, required=True)
    bound.add_argument("--n0", type=float)
    bound.add_argument("--p", type=float, required=True)
    bound.add_argument("--norm", type=float, required=True)
    bound.add_argument("--gap", type=float, required=True)
    bound.add_argument("--alpha", type=float)
    bound.add_argument("--big-m", dest="big_m", type=float)
    bound.add_argument("--dratio", type=float, default=0.0)
    bound.add_argument("--delta", type=float)
    _add_common(bound)
    bound.set_defaults(handler=cmd_bound)

    for name, handler in (("plan", cmd_plan), ("optimize", cmd_optimize)):
        sub = subparsers.add_parser(
            name, help=f"{name} a sampling budget")
        sub.add_argument("--p", type=float, required=True)
        sub.add_argument("--eps", type=float, required=True)
        sub.add_argument("--gap", type=float, required=True)
        sub.add_argument("--dratio", type=float, required=True)
        sub.add_argument("--norm", type=float, default=1.0)
        sub.add_argument("--regime", choices=("gap", "uniform"),
                         default="gap")
        sub.add_argument("--alpha", type=float)
        sub.add_argument("--big-m", dest="big_m", type=float)
        if name == "plan":
            sub.add_argument("--delta", type=float)
        _add_common(sub)
        sub.set_defaults(handler=handler)

    tables = subparsers.add_parser(
        "tables", help="reproduce the reference budget tables")
    _add_common(tables)
    tables.set_defaults(handler=cmd_tables)

    simulate = subparsers.add_parser(
        "simulate", help="run trajectories or replicated error estimates")
    simulate.add_argument("--chain", required=True)
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--n0", type=int, default=0)
    simulate.add_argument("--replications", type=int, default=10_000)
    simulate.add_argument("--f", type=_parse_values,
                          help="comma-separated state values")
    simulate.add_argument("--gamma", type=float, default=0.65)
    simulate.add_argument("--p", type=float, default=1.5)
    simulate.add_argument("--trajectory", action="store_true",
                          help="emit one raw trajectory instead")
    simulate.add_argument("--chunk-elements", dest="chunk_elements",
                          type=_integer_flag(1),
                          default=DEFAULT_CHUNK_ELEMENTS)
    _add_common(simulate)
    simulate.set_defaults(handler=cmd_simulate)

    validate = subparsers.add_parser(
        "validate", help="run empirical validation suites")
    validate.add_argument("--chain", required=True)
    validate.add_argument("--suite", default="all",
                          choices=("all", "constants", "oracle",
                                   "bound-dominance", "rate"))
    validate.add_argument("--regime", choices=("uniform", "gap"))
    # a suite flag left unset takes the suite's own default
    validate.add_argument("--n-grid", dest="n_grid", type=_parse_grid)
    validate.add_argument("--rate-grid", dest="rate_grid", type=_parse_grid)
    validate.add_argument("--replications", type=int, default=10_000)
    validate.add_argument("--max-total", dest="max_total", type=int)
    validate.add_argument("--p", type=float)
    validate.add_argument("--delta", type=float)
    validate.add_argument("--gamma", type=float)
    validate.add_argument("--start", choices=("point-mass", "stationary"))
    validate.add_argument("--chunk-elements", dest="chunk_elements",
                          type=_integer_flag(1),
                          default=DEFAULT_CHUNK_ELEMENTS)
    _add_common(validate)
    validate.set_defaults(handler=cmd_validate)

    return parser


# finds --config without checking the required flags the file may supply
_CONFIG_PROBE = argparse.ArgumentParser(add_help=False)
_CONFIG_PROBE.add_argument("--config")


def _config_token(action: argparse.Action, key: str, value):
    """A ``--config`` value as its ``--flag=value`` token, or a usage error.

    Strings and numbers are checked against the flag's ``type`` (in their
    JSON spelling) and ``choices``; a switch takes a JSON boolean, and a
    flag whose default is unset also takes null.  ``None`` leaves the flag
    at its default.  The ``=`` form keeps a value such as ``-1,2`` from
    being read as a flag.
    """
    flag = action.option_strings[0]
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise _UsageError(f"config key {key!r} must be true or false, "
                              f"got {value!r}")
        return flag if value else None
    if value is None and action.default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise _UsageError(f"config key {key!r} takes a flag value, "
                          f"got {value!r}")
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        converted = action.type(text) if action.type else text
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        raise _UsageError(f"config key {key!r}: invalid value {value!r}")
    if action.choices is not None and converted not in action.choices:
        raise _UsageError(f"config key {key!r} must be one of "
                          f"{', '.join(map(str, action.choices))}, "
                          f"got {value!r}")
    return f"{flag}={text}"


def _with_config(argv: list) -> list:
    """``argv`` with the ``--config`` file's values as flag tokens.

    The tokens go right after the command name, so flags given on the
    command line override them and argparse enforces required flags.
    Keys that are flags of no command are rejected.
    """
    found, _ = _CONFIG_PROBE.parse_known_args(argv)
    if not found.config:
        return argv
    try:
        loaded = json.loads(Path(found.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config: {exc}")
    if not isinstance(loaded, dict):
        raise _UsageError("config must be a JSON object")
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    flags = {action.dest for command in commands.values()
             for action in command._actions} - {"help", "config"}
    unknown = set(loaded) - flags
    if unknown:
        raise _UsageError(f"unknown config keys: {sorted(unknown)}")
    # the top-level parser takes no option but help, so a command comes
    # first; without one, parsing fails or prints help
    if not argv or argv[0] not in commands:
        return argv
    actions = {action.dest: action for action in commands[argv[0]]._actions}
    tokens = [_config_token(actions[key], key, value)
              for key, value in loaded.items() if key in actions]
    return [argv[0], *filter(None, tokens), *argv[1:]]


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        if args.seed is None:
            args.seed = _default_seed()
        return args.handler(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except McmcBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
