"""End-to-end command-line tests, run in process through main().

Exit-code contract: 0 success, 1 failed validation check, 2 usage error,
3 domain or numeric error or a run that does not fit in memory.  CSV cells carry 6 significant digits; JSON is
full precision.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mcmc_budget.bounds import (
    ChainParams,
    FunctionClass,
    refined_uniform_bound,
    uniform_burnin,
    uniform_error_bound,
)
from mcmc_budget import chains, cli, estimator, validate
from mcmc_budget.chains import _ReplicationStreams, load_chain, make_chain
from mcmc_budget.cli import build_parser, main
from mcmc_budget.estimator import estimate_e1
from mcmc_budget.planner import (
    PlanRequest,
    budget_for_delta,
    plan_uniform,
)
from mcmc_budget.validate import (bound_dominance_suite, constants_suite,
                                  oracle_suite, rate_suite)


F01 = np.array([0.0, 1.0])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def fmt(value: float) -> str:
    return f"{float(value):.5e}"


class TestBound:
    def test_gap_regime_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--regime", "gap", "--n", "16", "--delta",
            "0.5", "--p", "2", "--gap", "1", "--norm", "1")
        assert code == 0
        row, = parse_csv(out)
        assert row["leading"] == fmt(4.0)
        assert row["higher_order"] == fmt(2.0)
        assert row["total"] == fmt(6.0)

    def test_uniform_regime_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--regime", "uniform", "--n", "1", "--gap",
            "1", "--alpha", "0", "--p", "2", "--norm", "1")
        assert code == 0
        row, = parse_csv(out)
        assert row["total"] == fmt(8.0)

    def test_missing_delta_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--regime", "gap", "--n", "16", "--p", "2",
            "--gap", "1", "--norm", "1")
        assert code == 2
        assert "--delta" in err

    @pytest.mark.parametrize("argv, message", [
        (("--regime", "uniform"), "this regime requires --alpha"),
        (("--regime", "refined-uniform", "--alpha", "0"),
         "the refined-uniform regime requires --n0"),
    ], ids=["uniform", "refined-uniform"])
    def test_missing_regime_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bound", "--n", "1", "--p", "2",
                                 "--gap", "1", "--norm", "1", *argv)
        assert (code, out, err) == (2, "", f"usage error: {message}\n")

    def test_unknown_regime_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "bound", "--regime", "theorem1", "--n", "1", "--p",
            "2", "--gap", "1", "--norm", "1")
        assert code == 2

    def test_domain_error_names_precondition(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--regime", "gap", "--n", "16", "--delta",
            "0.5", "--p", "2.5", "--gap", "1", "--norm", "1")
        assert code == 3
        assert "p" in err

    def test_refined_uniform_value(self, capsys):
        params = ChainParams(gap=0.3, alpha=0.7, big_m=2 / 3, dratio=2.0)
        expected = 2.0 * refined_uniform_bound(100.0, 10.0, params, 1.5)
        code, out, _ = run_cli(
            capsys, "bound", "--regime", "refined-uniform", "--n", "100",
            "--n0", "10", "--p", "1.5", "--norm", "2", "--gap", "0.3",
            "--alpha", "0.7", "--big-m", str(2 / 3), "--dratio", "2")
        assert code == 0
        row, = parse_csv(out)
        assert row["total"] == fmt(expected)
        assert row["leading"] == ""

    @pytest.mark.parametrize("argv", [
        ("--regime", "uniform", "--n", "1e-200", "--gap", "1e-200",
         "--alpha", "0.9"),
        ("--regime", "gap", "--n", "1e-200", "--gap", "1e-200",
         "--delta", "0.1"),
        ("--regime", "refined-uniform", "--n", "1e-300", "--n0", "0",
         "--gap", "1e-300", "--alpha", "0.9", "--dratio", "1"),
        ("--regime", "refined-gap", "--n", "1e-300", "--n0", "0",
         "--gap", "1e-300", "--delta", "0.1", "--dratio", "1e300"),
    ], ids=["uniform", "gap", "refined-uniform", "refined-gap"])
    def test_underflowing_n_gap_is_numerical_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "bound", "--p", "1.5", "--norm",
                                 "1", *argv)
        assert (code, out, err) == (3, "", "error: n * gap underflows to 0\n")

    @pytest.mark.parametrize("argv, power", [
        (("--regime", "uniform", "--n", "1e-310", "--gap", "1", "--alpha",
          "0"), "n * (1 - alpha) to the power -1"),
        (("--regime", "gap", "--n", "1e-320", "--gap", "1", "--delta",
          "1e-6"), "n * gap to the power -0.999999"),
    ], ids=["uniform", "gap"])
    def test_overflowing_power_is_numerical_error(self, capsys, argv, power):
        code, out, err = run_cli(capsys, "bound", "--p", "2", "--norm", "1",
                                 *argv)
        assert (code, out, err) == (3, "", f"error: {power} overflows\n")

    # m1 = 1.5e308, and m1 = 1e308 with m2 = 1.59e308: finite constants
    # whose logarithms pass 709, and finite totals
    @pytest.mark.parametrize("argv, total", [
        (("--n", "10", "--n0", "1", "--gap", "0.5", "--dratio", "7.5e7"),
         "9.65489e+204"),
        (("--n", "1.26e-154", "--n0", "0", "--gap", "1", "--dratio", "2.5e7",
          "--format", "json"), 1.3607331559227613e+308),
    ], ids=["csv", "json"])
    def test_refined_uniform_near_the_float_limit_is_finite(self, capsys,
                                                            argv, total):
        code, out, err = run_cli(
            capsys, "bound", "--regime", "refined-uniform", "--p", "1.5",
            "--norm", "1", "--alpha", "0.5", "--big-m", "1e300", *argv)
        assert (code, err) == (0, "")
        if isinstance(total, str):
            assert parse_csv(out)[0]["total"] == total
        else:
            assert json.loads(out)["result"]["total"] == total

    def test_refined_gap_needs_n0_and_delta(self, capsys):
        code, _, err = run_cli(
            capsys, "bound", "--regime", "refined-gap", "--n", "100",
            "--p", "1.8", "--norm", "1", "--gap", "0.3", "--dratio", "2")
        assert code == 2
        assert "--n0" in err or "--delta" in err


class TestPlan:
    def test_heuristic_reference_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.1", "--gap", "0.01",
            "--dratio", "1e30")
        assert code == 0
        row, = parse_csv(out)
        assert row["method"] == "heuristic"
        total = float(row["total"])
        assert abs(total - 1.89e10) / 1.89e10 < 0.02
        # cells carry 6 significant digits, so reconstruction is coarse
        assert float(row["n0"]) + float(row["n"]) == pytest.approx(
            total, rel=1e-4)

    def test_explicit_delta_matches_planner(self, capsys):
        request = PlanRequest(epsilon=0.2, gap=0.05, dratio=100.0,
                              f=FunctionClass(p=1.5, norm_p=1.0),
                              regime="gap")
        budget = budget_for_delta(0.01, request)
        code, out, _ = run_cli(
            capsys, "plan", "--p", "1.5", "--eps", "0.2", "--gap", "0.05",
            "--dratio", "100", "--delta", "0.01")
        assert code == 0
        row, = parse_csv(out)
        assert row["method"] == "explicit"
        assert row["total"] == fmt(budget.total)
        assert row["n0"] == fmt(budget.n0)

    def test_stationary_start_needs_no_burnin(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.5", "--gap", "0.5",
            "--dratio", "0", "--delta", "0.2")
        assert code == 0
        row, = parse_csv(out)
        assert float(row["n0"]) == 0.0

    def test_heuristic_needs_dratio_floor(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.5", "--gap", "0.5",
            "--dratio", "0")
        assert code == 2
        assert "--delta" in err

    def test_infinite_dratio_names_dratio(self, capsys):
        code, _, err = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.1", "--gap", "0.01",
            "--dratio", "inf")
        assert code == 3
        assert "dratio" in err and "delta" not in err

    def test_non_integer_seed_variable_is_usage_error(self, capsys,
                                                      monkeypatch):
        monkeypatch.setenv("MCMC_BUDGET_SEED", "abc")
        code, out, err = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.1", "--gap", "0.01",
            "--dratio", "1e30")
        assert code == 2
        assert out == ""
        assert "MCMC_BUDGET_SEED" in err

    @pytest.mark.parametrize("spelling", ["flag", "variable"])
    def test_negative_seed_is_usage_error(self, capsys, monkeypatch,
                                          spelling):
        argv = ["simulate", "--chain", "two-state", "--n", "5",
                "--replications", "10"]
        if spelling == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("MCMC_BUDGET_SEED", "-1")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert ("--seed" if spelling == "flag" else "MCMC_BUDGET_SEED") in err
        assert "Traceback" not in err

    def test_output_into_missing_directory_is_usage_error(self, capsys,
                                                          tmp_path):
        path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(
            capsys, "plan", "--p", "1.3", "--eps", "0.1", "--gap", "0.01",
            "--dratio", "1e30", "--output", path)
        assert code == 2
        assert out == ""
        assert path in err

    def test_uniform_regime(self, capsys):
        request = PlanRequest(epsilon=0.88, gap=1.0, dratio=0.0,
                              f=FunctionClass(p=2.0, norm_p=1.0),
                              regime="uniform", alpha=0.0, big_m=1.0)
        budget = plan_uniform(request)
        code, out, _ = run_cli(
            capsys, "plan", "--regime", "uniform", "--p", "2", "--eps",
            "0.88", "--gap", "1", "--dratio", "0", "--alpha", "0",
            "--big-m", "1")
        assert code == 0
        row, = parse_csv(out)
        assert row["method"] == "uniform"
        assert row["delta"] == ""
        assert row["total"] == fmt(budget.total)

    @pytest.mark.parametrize("given, missing", [
        ((), "--alpha"),
        (("--big-m", "1"), "--alpha"),
        (("--alpha", "0.5"), "--big-m"),
    ])
    def test_uniform_regime_missing_flag_is_usage_error(self, capsys, given,
                                                        missing):
        code, out, err = run_cli(
            capsys, "plan", "--regime", "uniform", "--p", "1.5", "--eps",
            "0.1", "--gap", "0.3", "--dratio", "1", *given)
        assert code == 2
        assert out == ""
        assert missing in err

    @pytest.mark.parametrize("argv", [
        ("--gap", "1e-310", "--delta", "0.3"),
        ("--gap", "0.01", "--delta", "1e-320", "--format", "json"),
        ("--gap", "1e-310", "--regime", "uniform", "--alpha", "0.5",
         "--big-m", "1"),
    ])
    def test_non_finite_plan_is_numerical_error(self, capsys, argv):
        code, out, err = run_cli(
            capsys, "plan", "--p", "1.5", "--eps", "0.1", "--dratio", "1e30",
            *argv)
        assert code == 3
        assert out == ""
        assert "overflows" in err


class TestOptimize:
    def test_uniform_regime_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--regime", "uniform", "--p", "1.5", "--eps",
            "0.1", "--gap", "0.3", "--dratio", "1", "--alpha", "0.5",
            "--big-m", "1")
        assert code == 2
        assert out == ""
        assert "uniform" in err

    def test_every_slack_overflowing_is_numerical_error(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--p", "1.5", "--eps", "0.1", "--gap",
            "1e-300", "--dratio", "1e30")
        assert code == 3
        assert out == ""
        assert err == "error: no feasible delta: every budget overflows\n"

    def test_underflowing_delta_gap_is_numerical_error(self, capsys):
        # delta * gap underflows to 0 at the smallest slacks of the search
        code, out, err = run_cli(
            capsys, "optimize", "--p", "1.5", "--eps", "0.1", "--gap",
            "1e-320", "--dratio", "10")
        assert (code, out) == (3, "")
        assert err == "error: no feasible delta: every budget overflows\n"

    def test_reference_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize", "--p", "1.5", "--eps", "0.1", "--gap",
            "0.01", "--dratio", "1e30")
        assert code == 0
        rows = parse_csv(out)
        assert [row["method"] for row in rows] == ["optimal", "heuristic"]
        best = rows[0]
        assert abs(float(best["delta"]) - 2.31e-3) / 2.31e-3 < 0.02
        assert abs(float(best["total"]) - 5.99e7) / 5.99e7 < 0.02
        assert float(best["total"]) <= float(rows[1]["total"]) * (1 + 1e-12)


class TestTables:
    def test_reproduction_structure(self, capsys):
        code, out, _ = run_cli(capsys, "tables")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        suspect = {(float(row["p"]), float(row["epsilon"]), cell)
                   for row in rows if row["suspect"]
                   for cell in row["suspect"].split(",")}
        assert suspect == {(1.1, 0.1, "delta_star"), (1.3, 0.5, "total_hat")}
        for row in rows:
            for cell in ("delta_star", "total_star", "delta_hat",
                         "total_hat"):
                float(row[cell])  # parses

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "tables")
        _, second, _ = run_cli(capsys, "tables")
        assert first == second


class TestSimulate:
    def test_estimate_matches_library(self, capsys):
        expected = estimate_e1(make_chain("two-state"), F01, 2, 1, 500, 9)
        code, out, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--f", "0,1",
            "--n", "2", "--n0", "1", "--replications", "500", "--seed", "9")
        assert code == 0
        row, = parse_csv(out)
        assert row["e1_hat"] == fmt(expected.e1_hat)
        assert row["uncertainty"] == fmt(expected.uncertainty)
        model = make_chain("two-state")
        bound = uniform_error_bound(
            2, model.params,
            FunctionClass(p=1.5, norm_p=model.lp_norm(F01, 1.5))).total
        assert row["bound_total"] == fmt(bound)

    def test_trajectory_mode(self, capsys):
        model = make_chain("two-state")
        values = model.batch_values(F01, 4, _ReplicationStreams(9, 0, 1))[0]
        code, out, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--f", "0,1",
            "--n", "3", "--n0", "1", "--trajectory", "--seed", "9")
        assert code == 0
        rows = parse_csv(out)
        assert [row["step"] for row in rows] == ["1", "2", "3", "4"]
        assert [row["value"] for row in rows] == [fmt(v) for v in values]

    @pytest.mark.parametrize("values", ["0,3", "0,0.5"])
    def test_integer_and_float_f_agree_across_chunking(self, capsys, values):
        # --f 0,3 is an integer f other than the states, --f 0,0.5 a float
        # one; both must print the float definition at any chunking
        argv = ("simulate", "--chain", "two-state", "--f", values, "--n",
                "40", "--n0", "3", "--replications", "300", "--seed", "8")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--chunk-elements", "1001") == (0, out,
                                                                      "")
        model = make_chain("two-state")
        f = np.array([float(v) for v in values.split(",")])
        states = np.empty((300, 43), dtype=model.chain._state_dtype)
        chains._level_steps(model.chain, model.nu,
                            _ReplicationStreams(8, 0, 300).uniforms(43),
                            states)
        e1_hat = np.mean(np.abs(f[states][:, 3:].mean(axis=1)
                                - model.expectation(f)))
        row, = parse_csv(out)
        assert row["e1_hat"] == fmt(e1_hat)

    def test_trajectory_of_integer_f_prints_floats(self, capsys):
        argv = ("simulate", "--chain", "two-state", "--f", "0,3", "--n",
                "30", "--trajectory", "--seed", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert {row["value"] for row in parse_csv(out)} == {
            "0.00000e+00", "3.00000e+00"}
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        values = json.loads(out)["values"]
        assert set(map(type, values)) == {float} and 3.0 in values

    # lazy-cycle-50's walk steps through the path table, and the dense
    # chain's is a level walk of more than 64 steps on a chain with none
    @pytest.mark.parametrize("name", ["two-state", "lazy-cycle-3",
                                      "lazy-cycle-50", "dense-40.json"])
    @pytest.mark.parametrize("seed", [7, 2024])
    def test_trajectory_is_replication_zero_of_the_api(self, capsys,
                                                       tmp_path, name, seed):
        n = 12 if name in ("two-state", "lazy-cycle-3") else 300
        if name.endswith(".json"):
            weights = np.random.default_rng(3).random((40, 40))
            weights += weights.T
            name = str(tmp_path / name)
            with open(name, "w") as handle:
                json.dump({"matrix": (weights / weights.sum(
                    axis=1, keepdims=True)).tolist()}, handle)
        model = validate.resolve_model(name)
        assert (model._walk_table(n) is not None) == (name == "lazy-cycle-50")
        # the states by the level-table loop, whichever route the walk takes
        states = np.empty((1, n), dtype=model.chain._state_dtype)
        chains._level_steps(model.chain, model.nu,
                            _ReplicationStreams(seed, 0, 1).uniforms(n),
                            states)
        code, out, _ = run_cli(
            capsys, "simulate", "--chain", name, "--n", str(n),
            "--trajectory", "--seed", str(seed), "--format", "json")
        assert code == 0
        assert json.loads(out)["values"] == states[0].astype(float).tolist()

    def test_wrong_f_length_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--f", "0,1,2",
            "--n", "2")
        assert code == 2
        assert "--f" in err

    @pytest.mark.parametrize("values, extra", [
        ("inf,0", ()), ("nan,0", ("--format", "json")),
        ("0,-inf", ("--trajectory",)), ("1e400,0", ("--format", "json")),
    ])
    def test_non_finite_f_is_usage_error(self, capsys, values, extra):
        code, out, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "5",
            "--replications", "20", "--f", values, *extra)
        assert code == 2
        assert out == ""
        assert "non-finite" in err and values in err

    @pytest.mark.parametrize("argv, stdout, stderr", [
        (("simulate", "--chain", "two-state", "--n", "3", "--replications",
          "2", "--f", "1e200,0", "--p", "2"),
         "chain,n,n0,replications,e1_hat,uncertainty,bound_total,seed\n"
         "two-state,3,0,2,6.66667e+199,0.00000e+00,7.07153e+200,2024\n",
         ""),
        (("validate", "--chain", "lazy-cycle-3", "--suite",
          "bound-dominance", "--p", "1e300", "--replications", "20",
          "--n-grid", "10"), "", "error: p must lie in (1, 2]\n"),
    ], ids=["simulate", "validate"])
    def test_overflowing_norm_powers_give_the_finite_norm(
            self, capsys, argv, stdout, stderr):
        # |f|**p overflows a float; the norm does not, and no warning shows
        code, out, err = run_cli(capsys, *argv, "--seed", "2024")
        assert (code, out, err) == (3 if stderr else 0, stdout, stderr)

    def test_integer_values_near_the_float_limit_do_not_warn(self, capsys):
        # max|f| times the walk length overflows a float; no step of the
        # value route may compute that product
        code, out, err = run_cli(capsys, "simulate", "--chain", "two-state",
                                 "--n", "3", "--f", "1e308,0",
                                 "--replications", "2")
        assert (code, out, err) == (
            0, "chain,n,n0,replications,e1_hat,uncertainty,bound_total,seed\n"
            "two-state,3,0,2,6.66667e+307,0.00000e+00,inf,2024\n", "")

    def test_overflowing_estimate_is_exit_3(self, capsys):
        # window sums of 1e308-sized values overflow to inf; the estimate
        # is refused before its quartiles would subtract inf from inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", "--chain",
                                     "two-state", "--n", "5",
                                     "--f=1e308,1.5e308", "--replications",
                                     "4", "--seed", "1")
        assert (code, out, err) == (
            3, "", "error: the mean error of window n=5, n0=0 is not "
            "finite: the values of f overflow float64\n")

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--chain", "two-state", "--n", "2", "--f", "a,b"),
         "argument --f: cannot parse value vector from 'a,b'\n"),
        (("validate", "--chain", "two-state", "--suite", "bound-dominance",
          "--n-grid", "abc"),
         "argument --n-grid: cannot parse integer grid from 'abc'\n"),
        (("simulate", "--chain", "two-state", "--n", "2",
          "--chunk-elements", "abc"),
         "argument --chunk-elements: must be a positive integer, "
         "got 'abc'\n"),
    ], ids=["f", "n-grid", "chunk-elements"])
    def test_unparsable_value_is_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(message)

    @pytest.mark.parametrize("chain", ["two-state", "indep-mh-2x",
                                       "iid-uniform"])
    @pytest.mark.parametrize("n, n0, message", [
        ("0", "0", "n must be at least 1"),
        ("-3", "5", "n must be at least 1"),
        ("3", "-2", "n0 must be nonnegative"),
    ], ids=["zero", "negative-n", "negative-n0"])
    def test_trajectory_length_is_checked(self, capsys, chain, n, n0,
                                          message):
        code, out, err = run_cli(
            capsys, "simulate", "--chain", chain, "--trajectory",
            f"--n={n}", f"--n0={n0}")
        assert code == 3
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [(), ("--trajectory",)])
    @pytest.mark.parametrize("chain", ["iid-uniform", "indep-mh-2x"])
    def test_f_on_a_sampler_is_usage_error(self, capsys, chain, extra):
        code, out, err = run_cli(
            capsys, "simulate", "--chain", chain, "--n", "3", "--f", "1,2",
            *extra)
        assert code == 2
        assert out == ""
        assert "--gamma" in err

    # numpy refuses each walk's shape before allocating anything: more
    # elements than an array may have (10**19), or more bytes (2**61 and
    # indep-mh-2x's 2 * 2**61 - 1 draws); replications are refused first
    @pytest.mark.parametrize("argv, message", [
        (("--chain", "iid-uniform", "--gamma", "0.5", "--n", str(10**19)),
         "more than an array can hold"),
        (("--chain", "two-state", "--n", str(10**19)),
         "more than an array can hold"),
        (("--chain", "two-state", "--n", str(2**61)),
         "more than an array can hold"),
        (("--chain", "indep-mh-2x", "--n", str(2**61)),
         "more than an array can hold"),
        (("--chain", "two-state", "--n", str(10**19), "--trajectory"),
         "more than an array can hold"),
        (("--chain", "two-state", "--n", "5", "--replications",
          str(10**19)), "at most 2**32 replications"),
    ], ids=["iid-1e19", "two-state-1e19", "two-state-2e61", "mh-2e61",
            "trajectory-1e19", "replications-1e19"])
    def test_oversized_run_is_domain_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "simulate", "--replications", "3",
                                 *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("raised, message", [
        (MemoryError("Unable to allocate 179. GiB for an array"),
         "error: Unable to allocate 179. GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_is_exit_3(self, capsys, monkeypatch, raised,
                                    message):
        def refuse(*args, **kwargs):
            raise raised
        monkeypatch.setattr(estimator, "estimate_e1", refuse)
        code, out, err = run_cli(capsys, "simulate", "--chain", "two-state",
                                 "--n", "5")
        assert (code, out, err) == (3, "", message)

    @pytest.mark.parametrize("argv, message", [
        (("--chain", "iid-uniform", "--gamma", "0.9", "--p", "1.5"),
         "error: the L_1.5 norm diverges: gamma * p = 1.35 >= 1\n"),
        (("--chain", "two-state", "--p", "2.5"),
         "error: p must lie in (1, 2]\n"),
    ], ids=["divergent-norm", "p-out-of-range"])
    def test_bound_inputs_are_checked_before_simulating(
            self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before checking --p")
        monkeypatch.setattr(estimator, "estimate_e1", refuse)
        code, out, err = run_cli(capsys, "simulate", "--n", "200000",
                                 "--replications", "200", *argv)
        assert (code, out, err) == (3, "", message)

    @pytest.mark.parametrize("size", ["1001", "1000000000"])
    def test_oversized_lazy_cycle_is_refused(self, capsys, size):
        code, out, err = run_cli(capsys, "simulate", "--chain",
                                 f"lazy-cycle-{size}", "--n", "2")
        assert (code, out) == (3, "")
        assert err == "error: state space has at most 1000 states\n"

    def test_unknown_chain_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--chain", "three-state", "--n", "2")
        assert code == 3
        assert "unknown chain" in err

    def test_chunking_invisible_in_output(self, capsys):
        args = ("simulate", "--chain", "indep-mh-2x", "--gamma", "0.5",
                "--n", "40", "--replications", "300", "--seed", "3")
        _, base, _ = run_cli(capsys, *args)
        _, rechunked, _ = run_cli(capsys, *args, "--chunk-elements", "256")
        assert base == rechunked

    def test_output_does_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS runs as many threads as the process has cores, and the
        # last bits of a 300-state chain's eigensolves followed them
        argv = [sys.executable, "-m", "mcmc_budget.cli", "simulate",
                "--chain", "lazy-cycle-300", "--n", "5000", "--n0", "0",
                "--replications", "300", "--seed", "1729", "--format",
                "json"]
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                              "OMP_NUM_THREADS", "MCMC_BUDGET_SEED")}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        default, one_thread = (
            subprocess.run(argv, env={**env, **threads}, capture_output=True,
                           check=True, timeout=120).stdout
            for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}))
        assert default == one_thread

    def test_output_file_and_determinism(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            code, out, _ = run_cli(
                capsys, "simulate", "--chain", "iid-uniform", "--gamma",
                "0.6", "--n", "50", "--replications", "200", "--seed",
                "11", "--output", str(path))
            assert code == 0
            assert out == ""
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().startswith("chain,n,n0,replications")

    def test_bound_cell_empty_below_burnin(self, capsys, tmp_path):
        path = tmp_path / "start.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.2, 0.8]],
                                    "nu": [0, 1]}))
        model = load_chain(str(path))
        burnin = uniform_burnin(model.params)
        assert 3 < burnin < 4
        argv = ("simulate", "--chain", str(path), "--n", "5",
                "--replications", "100")
        code, out, _ = run_cli(capsys, *argv, "--n0", "3")
        assert code == 0
        assert parse_csv(out)[0]["bound_total"] == ""
        _, out, _ = run_cli(capsys, *argv, "--n0", "3", "--format", "json")
        assert json.loads(out)["rows"][0]["bound_total"] is None
        code, out, _ = run_cli(capsys, *argv, "--n0", "4")
        assert code == 0
        bound = uniform_error_bound(5, model.params, FunctionClass(
            p=1.5, norm_p=model.lp_norm(F01, 1.5))).total
        assert parse_csv(out)[0]["bound_total"] == fmt(bound)

    @pytest.mark.parametrize("matrix", [[[1, 0], [0, 1]],
                                        [[1, 0], [0.5, 0.5]]])
    def test_reducible_chain_is_named(self, capsys, tmp_path, matrix):
        path = tmp_path / "reducible.json"
        path.write_text(json.dumps({"matrix": matrix}))
        code, out, err = run_cli(capsys, "simulate", "--chain", str(path),
                                 "--n", "2")
        assert code == 3
        assert out == ""
        assert "reducible" in err

    def test_chain_file_is_named_as_validate_names_it(self, capsys,
                                                      tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.2, 0.8]]}))
        simulate = ("simulate", "--chain", str(path), "--n", "3")
        _, out, _ = run_cli(capsys, *simulate, "--trajectory")
        names = [row["chain"] for row in parse_csv(out)]
        _, out, _ = run_cli(capsys, *simulate, "--trajectory", "--format",
                            "json")
        names.append(json.loads(out)["chain"])
        _, out, _ = run_cli(capsys, *simulate, "--replications", "20")
        names += [row["chain"] for row in parse_csv(out)]
        _, out, _ = run_cli(capsys, "validate", "--chain", str(path),
                            "--suite", "constants", "--format", "json")
        payload = json.loads(out)
        names.append(payload["chain"])
        names += [row["chain"] for suite in payload["suites"]
                  for row in suite["rows"]]
        assert len(names) == 3 + 1 + 1 + 1 + 3
        assert set(names) == {"chain.json"}

    def test_built_in_sampler_is_named_as_typed(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--chain", "indep-mh-2x",
                            "--n", "3", "--replications", "20")
        names = [row["chain"] for row in parse_csv(out)]
        _, out, _ = run_cli(capsys, "validate", "--chain", "indep-mh-2x",
                            "--suite", "rate", "--replications", "20",
                            "--rate-grid", "10,20,40,80")
        rows = parse_csv(out)
        assert len(rows) >= 4
        assert names + [row["chain"] for row in rows] == \
            ["indep-mh-2x"] * (1 + len(rows))

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("MCMC_BUDGET_SEED", "9")
        _, from_env, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "2",
            "--replications", "300")
        monkeypatch.delenv("MCMC_BUDGET_SEED")
        _, explicit, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "2",
            "--replications", "300", "--seed", "9")
        assert from_env == explicit


class TestValidateCommand:
    def test_constants_suite_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "lazy-cycle-4", "--suite",
            "constants")
        assert code == 0
        rows = parse_csv(out)
        assert rows and all(row["passed"] == "pass" for row in rows)

    def test_oracle_suite_quick(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "two-state", "--suite",
            "oracle", "--max-total", "3", "--replications", "4000",
            "--seed", "5")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6

    def test_oracle_suite_on_eight_states(self, capsys):
        # 8**8 paths: beyond reach of path enumeration
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "lazy-cycle-8", "--suite",
            "oracle", "--replications", "2000")
        assert code == 0
        assert len(parse_csv(out)) == 36

    def test_oracle_suite_takes_the_start(self, capsys):
        argv = ("validate", "--chain", "two-state", "--suite", "oracle",
                "--max-total", "3", "--replications", "4000", "--seed", "5",
                "--format", "json")
        rows = {}
        for start in ("point-mass", "stationary"):
            code, out, _ = run_cli(capsys, *argv, "--start", start)
            assert code == 0
            rows[start], = (suite["rows"]
                            for suite in json.loads(out)["suites"])
        report = oracle_suite("two-state", max_total=3,
                              replications=4000, master_seed=5,
                              start="stationary")
        assert rows["stationary"] == [row.as_dict() for row in report.rows]
        assert rows["stationary"] != rows["point-mass"]

    def test_all_suites_build_the_model_once(self, capsys, monkeypatch):
        finite_model, built = chains.finite_model, []

        def counting_finite_model(*args, **kwargs):
            built.append(args)
            return finite_model(*args, **kwargs)

        monkeypatch.setattr(chains, "finite_model", counting_finite_model)
        # a model an earlier test resolved would be counted as no build
        validate._zoo_model.cache_clear()
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "lazy-cycle-4", "--suite", "all",
            "--max-total", "3", "--n-grid", "10,20", "--replications",
            "500")
        assert code == 0
        assert {row["suite"] for row in parse_csv(out)} == {
            "constants", "oracle", "bound-dominance-uniform",
            "bound-dominance-gap"}
        assert len(built) == 1

    def test_one_process_gives_the_bytes_of_separate_runs(self, capsys):
        # the benchmark's commands, and a stationary start after a
        # point-mass one, each run twice in one process, against each run
        # with no model kept from an earlier command
        commands = [
            ("--chain", "two-state", "--suite", "oracle", "--max-total", "8",
             "--replications", "2000", "--seed", "11"),
            ("--chain", "lazy-cycle-3", "--suite", "oracle", "--max-total",
             "8", "--replications", "2000", "--seed", "12"),
            ("--chain", "two-state", "--suite", "bound-dominance",
             "--regime", "uniform", "--n-grid", "10,100,1000",
             "--replications", "200", "--seed", "13"),
            ("--chain", "two-state", "--suite", "oracle", "--max-total", "3",
             "--start", "stationary", "--replications", "2000", "--seed",
             "14")]
        separate = []
        for argv in commands:
            validate._zoo_model.cache_clear()
            separate.append(run_cli(capsys, "validate", *argv, "--format",
                                    "json"))
        validate._zoo_model.cache_clear()
        together = [run_cli(capsys, "validate", *argv, "--format", "json")
                    for _ in range(2) for argv in commands]
        assert together == separate * 2
        assert [code for code, _, _ in separate] == [0] * 4

    def test_bound_dominance_quick(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "two-state", "--suite",
            "bound-dominance", "--regime", "uniform", "--n-grid", "10,100",
            "--replications", "1500", "--seed", "12")
        assert code == 0
        for row in parse_csv(out):
            assert float(row["e1_hat"]) <= float(row["bound_total"]) \
                + 4 * float(row["uncertainty"])

    def test_rate_suite_quick(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "--chain", "iid-uniform", "--suite",
            "rate", "--gamma", "0.65", "--p", "1.5", "--rate-grid",
            "100,400,1600,6400", "--replications", "3000", "--seed", "8")
        assert code == 0
        rows = parse_csv(out)
        assert {"slope-window", "r-squared"} <= {r["check"] for r in rows}

    def test_failing_check_exits_one(self, capsys):
        # a flat grid cannot produce the required negative slope
        code, out, err = run_cli(
            capsys, "validate", "--chain", "iid-uniform", "--suite",
            "rate", "--gamma", "0.65", "--p", "1.5", "--rate-grid",
            "50,52,54,56", "--replications", "400", "--seed", "1")
        assert code == 1
        assert "failed checks" in err
        rows = parse_csv(out)
        assert any(row["passed"] == "fail" for row in rows)

    def test_repeated_rate_grid_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "validate", "--chain", "iid-uniform", "--suite", "rate",
            "--rate-grid", "100,100,100,100", "--replications", "20")
        assert (code, out) == (3, "")
        assert err == ("error: rate regression needs at least 4 distinct "
                       "sample sizes\n")

    # the validate flags whose defaults live in the suite signatures
    SUITE_FLAGS = ("n_grid", "rate_grid", "max_total", "p", "delta", "gamma",
                   "start")

    def test_suite_flags_are_unset_by_default(self, capsys):
        commands = next(action for action in build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        actions = {action.dest: action
                   for action in commands.choices["validate"]._actions}
        code, out, _ = run_cli(capsys, "validate", "--help")
        assert code == 0
        lines = [line.split() for line in out.splitlines()]
        for dest in self.SUITE_FLAGS:
            action = actions[dest]
            assert (action.default, action.help) == (None, None)
            # the help line is the flag and its metavar, naming no value
            line, = [line for line in lines
                     if line[:1] == action.option_strings]
            assert len(line) == 2

    # each suite's reports as it runs with every flag but the
    # replications unset
    SUITE_RUNS = {
        "constants": lambda chain: [constants_suite(chain)],
        "oracle": lambda chain: [oracle_suite(chain, replications=20)],
        "bound-dominance": lambda chain: [
            bound_dominance_suite(chain, regime=regime, replications=20)
            for regime in ("uniform", "gap")],
        "rate": lambda chain: [rate_suite(chain, replications=20)],
    }

    # --suite all runs exactly the model's suites, in their order
    @pytest.mark.parametrize("chain, suite", [
        ("two-state", "bound-dominance"), ("two-state", "oracle"),
        ("iid-uniform", "rate"), ("two-state", "all"),
        ("lazy-cycle-3", "all"), ("iid-uniform", "all"),
        ("indep-mh-2x", "all"),
    ], ids=["bound-dominance", "oracle", "rate", "all-two-state",
            "all-lazy-cycle-3", "all-iid-uniform", "all-indep-mh-2x"])
    def test_unset_suite_flags_take_the_suite_defaults(
            self, capsys, monkeypatch, chain, suite):
        monkeypatch.delenv("MCMC_BUDGET_SEED", raising=False)
        code, out, _ = run_cli(capsys, "validate", "--chain", chain,
                               "--suite", suite, "--replications", "20",
                               "--format", "json")
        names = make_chain(chain).suites if suite == "all" else [suite]
        reports = [report for name in names
                   for report in self.SUITE_RUNS[name](chain)]
        expected = [{"suite": report.suite, "passed": report.passed,
                     "details": report.details,
                     "rows": [row.as_dict() for row in report.rows]}
                    for report in reports]
        assert json.loads(out)["suites"] == json.loads(json.dumps(expected))
        assert code == (0 if all(report.passed for report in reports)
                        else 1)

    @pytest.mark.parametrize("argv, message", [
        (("--p", "1"), "p must lie in (1, 2]"),
        (("--p", "3"), "p must lie in (1, 2]"),
        (("--p", "nan"), "p must lie in (1, 2]"),
        (("--rate-grid", "100000,100000,100000,100000"),
         "rate regression needs at least 4 distinct sample sizes"),
        (("--rate-grid", "100000,100000,100000"),
         "rate regression needs at least 4 points"),
    ], ids=["p-1", "p-3", "p-nan", "repeated-sizes", "three-points"])
    def test_rate_inputs_are_checked_before_simulating(
            self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before checking the inputs")
        monkeypatch.setattr(estimator, "estimate_e1_windows", refuse)
        code, out, err = run_cli(
            capsys, "validate", "--chain", "iid-uniform", "--suite", "rate",
            "--rate-grid", "10,20,40,80", "--replications", "2000",
            "--gamma", "0.3", *argv)
        assert (code, out, err) == (3, "", f"error: {message}\n")

    def test_overflowing_gap_burnin_is_numerical_error(self, capsys):
        # delta * gap is subnormal, so the recipe burn-in divides to inf
        code, out, err = run_cli(
            capsys, "validate", "--chain", "two-state", "--suite",
            "bound-dominance", "--regime", "gap", "--delta", "1e-310",
            "--n-grid", "10", "--replications", "2")
        assert (code, out, err) == (
            3, "", "error: the gap burn-in overflows at delta = 1e-310\n")

    @pytest.mark.parametrize("chain, flag, grid", [
        ("two-state", "--n-grid", ""), ("two-state", "--n-grid", ","),
        ("iid-uniform", "--rate-grid", ""),
        ("iid-uniform", "--rate-grid", ","),
    ])
    def test_empty_grid_is_usage_error(self, capsys, chain, flag, grid):
        code, out, err = run_cli(
            capsys, "validate", "--chain", chain, "--replications", "10",
            flag, grid)
        assert code == 2
        assert out == ""
        assert flag in err

    # a grid is checked when it is parsed, whether or not its suite runs
    @pytest.mark.parametrize("chain, suite, flag, grid", [
        ("two-state", "oracle", "--n-grid", "abc"),
        ("two-state", "oracle", "--n-grid", ""),
        ("two-state", "all", "--rate-grid", "1,x"),
        ("iid-uniform", "rate", "--n-grid", ","),
    ])
    def test_unused_grid_is_checked(self, capsys, chain, suite, flag, grid):
        code, out, err = run_cli(
            capsys, "validate", "--chain", chain, "--suite", suite,
            "--replications", "10", flag, grid)
        assert (code, out) == (2, "")
        assert f"argument {flag}: " in err

    @pytest.mark.parametrize("argv", [("validate",), ("simulate", "--n", "2")])
    def test_missing_chain_file_is_usage_error(self, capsys, tmp_path, argv):
        path = str(tmp_path / "nosuch.json")
        code, out, err = run_cli(capsys, *argv, "--chain", path)
        assert code == 2
        assert out == ""
        assert path in err

    @pytest.mark.parametrize("text, invariant", [
        ('{"matrix": [[NaN, 1.0], [0.5, 0.5]]}', "finite numbers"),
        ('{"matrix": [["a", "b"], [0.5, 0.5]]}', "finite numbers"),
        ('{"matrix": [[0.5, 0.5], [0.5]]}', "square array"),
        ('{"matrix": [[0.9, 0.1], [0.2, 0.8]], "reversible": "no"}',
         "JSON boolean"),
        ('[[0.9, 0.1], [0.2, 0.8]]', "chain document is a JSON object"),
    ])
    def test_malformed_json_chain_is_domain_error(self, capsys, tmp_path,
                                                  text, invariant):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "validate", "--chain", str(path), "--suite",
            "constants")
        assert code == 3
        assert out == ""
        assert invariant in err and "Traceback" not in err

    def test_undecodable_chain_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_bytes(b'\xff\xfe{"matrix": [[1.0]]}')
        code, out, err = run_cli(capsys, "simulate", "--chain", str(path),
                                 "--n", "2")
        assert code == 2
        assert out == ""
        assert "cannot read chain file" in err

    def test_bad_json_chain_names_invariant(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.2], [0.2, 0.8]]}))
        code, _, err = run_cli(
            capsys, "validate", "--chain", str(path), "--suite",
            "constants")
        assert code == 3
        assert "rows sum to 1" in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"replications": 400, "seed": 9}))
        _, from_config, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--config", str(config))
        _, explicit, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--replications", "400", "--seed", "9")
        assert from_config == explicit

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9}))
        _, overridden, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--replications", "300", "--config", str(config), "--seed",
            "10")
        _, explicit, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--replications", "300", "--seed", "10")
        assert overridden == explicit

    def test_config_supplies_required_flag(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 3}))
        code, from_config, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--replications",
            "300", "--config", str(config))
        _, explicit, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--replications",
            "300", "--n", "3")
        assert code == 0
        assert from_config == explicit

    @pytest.mark.parametrize("values", [{"seed": 9, "replications": 400},
                                        {"seed": None}])
    def test_config_leaves_no_trace_in_the_parser(self, capsys, tmp_path,
                                                  values):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        argv = ("simulate", "--chain", "two-state", "--n", "2",
                "--replications", "300")
        assert run_cli(capsys, *argv, "--config", str(config))[0] == 0
        code, after, _ = run_cli(capsys, *argv)
        _, default_seed, _ = run_cli(capsys, *argv, "--seed", "2024")
        assert code == 0
        assert after == default_seed
        assert parse_csv(after)[0]["seed"] == "2024"
        assert build_parser() is build_parser()

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"reps": 400}))
        code, _, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--config", str(config))
        assert code == 2
        assert "unknown config keys" in err

    @pytest.mark.parametrize("values, key", [
        ({"replications": [1]}, "replications"),
        ({"seed": -1}, "seed"),
        ({"n0": 2.5}, "n0"),
        ({"format": "xml"}, "format"),
        ({"trajectory": "yes"}, "trajectory"),
    ], ids=["list", "negative-seed", "float-for-int", "choice", "switch"])
    def test_config_values_are_checked_like_flags(self, capsys, tmp_path,
                                                  values, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "3",
            "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize("command, values, key", [
        (("validate", "--suite", "oracle"), {"n_grid": "abc"}, "n_grid"),
        (("validate", "--suite", "oracle"), {"rate_grid": ""}, "rate_grid"),
        (("simulate", "--n", "3"), {"f": "a,b"}, "f"),
    ], ids=["n-grid", "rate-grid", "f"])
    def test_config_values_are_parsed_whether_or_not_used(
            self, capsys, tmp_path, command, values, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        code, out, err = run_cli(capsys, *command, "--chain", "two-state",
                                 "--config", str(config))
        assert (code, out) == (2, "")
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize("value", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ("simulate", "--chain", "two-state", "--n", "3"),
        ("validate", "--chain", "two-state", "--suite", "constants"),
    ], ids=["simulate", "validate"])
    @pytest.mark.parametrize("from_config", [False, True],
                             ids=["flag", "config"])
    def test_chunk_elements_must_be_positive(self, capsys, tmp_path, command,
                                             value, from_config):
        if from_config:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"chunk_elements": int(value)}))
            extra = ("--config", str(config))
        else:
            extra = (f"--chunk-elements={value}",)
        code, out, err = run_cli(capsys, *command, *extra)
        assert code == 2
        assert out == ""
        assert ("chunk_elements" if from_config else "--chunk-elements") \
            in err

    def test_config_values_convert_like_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dratio": 0, "delta": 0.2}))
        bound = ("bound", "--regime", "gap", "--n", "1e8", "--p", "1.5",
                 "--norm", "1", "--gap", "0.01")
        code, from_config, _ = run_cli(capsys, *bound, "--config",
                                       str(config))
        _, explicit, _ = run_cli(capsys, *bound, "--dratio", "0",
                                 "--delta", "0.2")
        assert code == 0
        assert from_config == explicit

    def test_config_null_leaves_a_suite_flag_unset(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict.fromkeys(
            TestValidateCommand.SUITE_FLAGS)))
        argv = ("validate", "--chain", "two-state", "--suite", "oracle",
                "--replications", "20", "--seed", "3")
        code, from_config, err = run_cli(capsys, *argv, "--config",
                                         str(config))
        assert (code, err) == (0, "")
        assert from_config == run_cli(capsys, *argv)[1]

    def test_unreadable_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "nosuch.json"
        code, out, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("usage error: cannot read config: ")
        assert str(config) in err

    def test_config_without_a_command_is_usage_error(self, capsys,
                                                     tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 9}))
        code, out, err = run_cli(capsys, "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("usage: mcmc-budget ")

    def test_malformed_config_rejected(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run_cli(
            capsys, "simulate", "--chain", "two-state", "--n", "1",
            "--config", str(config))
        assert code == 2
        assert "JSON object" in err


class TestJsonFormat:
    def test_tables_round_trip(self, capsys):
        _, first, _ = run_cli(capsys, "tables", "--format", "json")
        _, second, _ = run_cli(capsys, "tables", "--format", "json")
        payload = json.loads(first)
        assert payload == json.loads(second)
        assert payload["command"] == "tables"
        assert len(payload["rows"]) == 6
        assert json.loads(json.dumps(payload)) == payload

    def test_simulate_full_precision(self, capsys):
        expected = estimate_e1(make_chain("two-state"), F01, 2, 0, 300, 4)
        _, out, _ = run_cli(
            capsys, "simulate", "--chain", "two-state", "--f", "0,1",
            "--n", "2", "--replications", "300", "--seed", "4",
            "--format", "json")
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["e1_hat"] == expected.e1_hat
        assert row["uncertainty"] == expected.uncertainty

    def test_validate_json_structure(self, capsys):
        _, out, _ = run_cli(
            capsys, "validate", "--chain", "two-state", "--suite",
            "constants", "--format", "json")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["suites"][0]["suite"] == "constants"
        assert set(payload["suites"][0]["rows"][0]) == {
            "suite", "chain", "check", "n", "n0", "replications",
            "e1_hat", "uncertainty", "bound_total", "passed", "seed"}


class TestStartup:
    # the statements a fresh plan or bound process runs before its handler
    PLANNING = """
import sys
from mcmc_budget import cli
from mcmc_budget.validate import resolve_model
cli.build_parser()
for argv in (["plan", "--p", "1.5", "--eps", "0.1", "--gap", "0.1",
              "--dratio", "2"],
             ["bound", "--regime", "refined-gap", "--n", "1e4", "--n0",
              "10", "--p", "1.8", "--norm", "1", "--gap", "0.01",
              "--dratio", "2", "--delta", "0.5"]):
    assert cli.main(argv) == 0
assert "numpy" not in sys.modules, "planning loaded numpy"
"""

    @pytest.mark.parametrize("first_use", [
        'resolve_model("two-state")',
        'cli.main(["optimize", "--p", "1.5", "--eps", "0.1", "--gap", '
        '"0.1", "--dratio", "2"])',
    ], ids=["chain", "optimize"])
    def test_planning_loads_no_numpy_until_first_use(self, first_use):
        script = (self.PLANNING + first_use
                  + '\nassert "numpy" in sys.modules, "numpy never loaded"')
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("value, cell", [
        (np.int64(-7), "-7"),
        (np.float32(1 / 3), "3.33333e-01"),
        (np.float64(2.5e-300), "2.50000e-300"),
        (True, "pass"),
        (False, "fail"),
        (12, "12"),
        (0.1, "1.00000e-01"),
    ])
    def test_cells_of_numpy_and_builtin_scalars(self, value, cell):
        assert cli._format_cell(value) == cell
