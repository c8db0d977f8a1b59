"""Property test: every command line ends in a documented exit code.

Generated argv and ``--config`` files over all six commands, mixing valid
and invalid values and finite floats at a double's edges (subnormal and
huge), must end in exit 0-3 with no traceback; so must
generated chain documents, each a valid chain with at most one part
broken.  Sizes stay moderate (at most 200 replications, walks of at most
50 steps, short grids), so each example runs in milliseconds.
"""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcmc_budget.cli import main

BAD_NUMBERS = ["-1", "0", "nan", "inf", "-inf", "1e400", "abc", "", "1.5"]
# finite spellings at the edges of a double: subnormal and huge
EXTREME_NUMBERS = ["1e-310", "5e-324", "1e300"]


def real(low: float, high: float, *edges: str):
    """A float flag: (valid values, also at a double's edges and at the
    flag's own ``edges``, invalid spellings)."""
    values = [st.floats(low, high).map(repr), st.sampled_from(EXTREME_NUMBERS)]
    if edges:
        values.append(st.sampled_from(edges))
    return st.one_of(values), BAD_NUMBERS


def power(low: float, high: float):
    """A ``--p`` flag, also at p = 2, the L2 case, where the bounds' negative
    powers are steepest."""
    return real(low, high, "2")


def integer(low: int, high: int):
    return st.integers(low, high).map(str), BAD_NUMBERS


def choice(*values):
    return st.sampled_from(values), ["x", ""]


PLANNING = {
    "--p": power(1.05, 2.0), "--eps": real(1e-3, 1.0),
    "--gap": real(1e-3, 1.0),
    "--dratio": (st.one_of(st.floats(0.0, 1e6).map(repr), st.just("1e30")),
                 BAD_NUMBERS),
    "--norm": real(0.1, 10.0), "--regime": choice("gap", "uniform"),
    "--alpha": real(0.0, 0.99), "--big-m": real(0.5, 10.0),
}

# flag -> (valid values, invalid spellings), or None for a switch; the
# first flags listed are the command's required ones
FLAGS = {
    "bound": {
        "--regime": choice("uniform", "gap", "refined-uniform",
                           "refined-gap"),
        "--n": real(1.0, 1e9), "--p": power(1.05, 2.5),
        "--norm": real(0.1, 10.0), "--gap": real(0.01, 1.0),
        "--n0": real(0.0, 1e6), "--alpha": real(0.0, 0.99),
        "--big-m": real(0.5, 10.0), "--dratio": real(0.0, 1e6),
        "--delta": real(0.01, 0.99),
    },
    "plan": {**PLANNING, "--delta": real(1e-4, 0.5)},
    "optimize": PLANNING,
    "tables": {},
    "simulate": {
        "--chain": choice("two-state", "lazy-cycle-3", "iid-uniform",
                          "indep-mh-2x", "CHAIN"),
        "--n": integer(1, 50), "--n0": integer(0, 6),
        "--replications": integer(1, 200),
        "--f": (st.sampled_from(["0,1", "0,1,2", "-1,2"]), ["a", "", ","]),
        "--gamma": real(0.05, 0.6), "--p": power(1.05, 2.5),
        "--trajectory": None,
        "--chunk-elements": (st.sampled_from(["1", "7", "256"]),
                             ["0", "-3", "x"]),
    },
    "validate": {
        "--chain": choice("two-state", "lazy-cycle-3", "iid-uniform",
                          "CHAIN"),
        "--suite": choice("all", "constants", "oracle", "bound-dominance",
                          "rate"),
        "--regime": choice("uniform", "gap"),
        "--n-grid": (st.sampled_from(["10,20", "5", "1,2,3"]),
                     ["", ",", "a", "-3,4", "0", "10,,20"]),
        "--rate-grid": (st.sampled_from(["10,20,40,80", "20,40,60,100"]),
                        ["50", "5,5,5,5", "", "x,1"]),
        "--replications": integer(2, 200), "--max-total": integer(1, 4),
        "--p": power(1.05, 3.0), "--delta": real(0.05, 0.95),
        "--gamma": real(0.05, 0.6),
        "--start": choice("point-mass", "stationary"),
        "--chunk-elements": (st.sampled_from(["1", "7", "256"]),
                             ["0", "-3", "x"]),
    },
}
REQUIRED = {"bound": 5, "plan": 4, "optimize": 4, "tables": 0,
            "simulate": 2, "validate": 1}
# always given, so that no run falls back to the default 10000
# replications or the default grids up to n = 100000
SIZES = ["--replications", "--n-grid", "--rate-grid", "--max-total"]
COMMON = {"--format": choice("csv", "json"),
          "--seed": (st.sampled_from(["0", "7", "2024"]), ["-1", "abc"]),
          "--output": (st.just("OUT"), ["MISSING"])}
# names of no valid chain; the capitals stand for files
CHAINS_BAD = ["nosuch", "lazy-cycle-2", "REDUCIBLE", "MISSING"]
# a config value of a type no flag takes, or a key no flag has
ODD_VALUES = st.sampled_from([None, True, False, [1], {"a": 1}, 3, -2.5])
ODD_KEYS = st.sampled_from(["reps", "help", "config", "handler"])
# tables runs the six reference rows (~0.5 s a run), so it gets few examples
EXAMPLES = {"bound": 100, "plan": 100, "optimize": 25, "tables": 6,
            "simulate": 100, "validate": 100}


def _config_value(text: str):
    """The JSON form a user would most likely write for ``text``."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _paths(tmp_path) -> dict:
    """Files for the stand-in names a generated command line uses."""
    documents = {"CHAIN": {"matrix": [[0.9, 0.1], [0.2, 0.8]], "nu": [0, 1]},
                 "REDUCIBLE": {"matrix": [[1, 0], [0.5, 0.5]]}}
    paths = {"OUT": str(tmp_path / "out.txt"),
             "MISSING": str(tmp_path / "missing" / "x.json")}
    for name, document in documents.items():
        path = tmp_path / f"{name.lower()}.json"
        path.write_text(json.dumps(document))
        paths[name] = str(path)
    return paths


@pytest.mark.parametrize("command", list(FLAGS))
def test_every_command_line_ends_in_a_documented_exit_code(
        command, tmp_path, capsys):
    paths = _paths(tmp_path)
    config_path = tmp_path / "config.json"
    flags = {**FLAGS[command], **COMMON}
    names = list(flags)

    @settings(max_examples=EXAMPLES[command], deadline=None,
              derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def run(data):
        # each example breaks at most one thing, so that a broken input
        # reaches as deep as a valid one: a value, the required flags, or
        # the config file's keys and value types
        broken = data.draw(st.sampled_from(
            [None, "value", "required", "config"]))
        chosen = data.draw(st.lists(
            st.sampled_from(names), unique=True,
            min_size=0 if broken == "required" else max(len(names) - 3, 0)))
        if broken != "required":
            required = names[:REQUIRED[command]]
            chosen = required + [name for name in chosen
                                 if name not in required]
        chosen += [name for name in SIZES
                   if name in flags and name not in chosen]
        in_config = (data.draw(st.sets(st.sampled_from(chosen)))
                     if chosen else set())
        bad_flag = (data.draw(st.sampled_from(chosen))
                    if broken == "value" and chosen else None)
        argv, config = [command], {}
        for name in chosen:
            if flags[name] is None:
                text = None
            else:
                valid, invalid = flags[name]
                if name == "--chain":
                    invalid = CHAINS_BAD
                text = data.draw(st.sampled_from(invalid)
                                 if name == bad_flag else valid)
                text = paths.get(text, text)
            if name in in_config:
                config[_key(name)] = (True if text is None
                                      else _config_value(text))
            elif text is None:
                argv.append(name)
            else:
                argv += [name, text]
        if broken == "config":
            odd_key = st.one_of(ODD_KEYS, st.sampled_from(names).map(_key))
            config[data.draw(odd_key)] = data.draw(ODD_VALUES)
        if config:
            config_path.write_text(json.dumps(config))
            argv += ["--config", str(config_path)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (argv, config, code)
        assert "Traceback" not in err, (argv, config, err)

    run()


# chain documents: one of these chains with at most one part broken
MATRICES = [[[0.9, 0.1], [0.2, 0.8]],
            [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
            [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]]
# a JSON value that is no finite number; json.dumps writes the non-finite
# floats as the NaN, Infinity and -Infinity tokens
ODD_ENTRIES = st.sampled_from(["a", "", None, True, [0.5], {"a": 1},
                               math.nan, math.inf, -math.inf])
CHAIN_COMMANDS = [
    ["simulate", "--n", "5", "--replications", "20"],
    ["simulate", "--n", "5", "--trajectory", "--format", "json"],
    ["validate", "--suite", "constants"],
    ["validate", "--suite", "oracle", "--max-total", "3",
     "--replications", "50"],
]


@st.composite
def chain_documents(draw):
    matrix = [list(row) for row in draw(st.sampled_from(MATRICES))]
    size = len(matrix)
    broken = draw(st.sampled_from(
        [None, "ragged", "entry", "random", "nu", "reversible"]))
    row = draw(st.integers(0, size - 1))
    if broken == "ragged":
        matrix[row] = (matrix[row][:-1] if draw(st.booleans())
                       else matrix[row] + [0.0])
    elif broken == "entry":
        matrix[row][draw(st.integers(0, size - 1))] = draw(ODD_ENTRIES)
    elif broken == "random":
        matrix = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=size,
                                        max_size=size),
                               min_size=size, max_size=size))
    document = {"matrix": matrix}
    if broken == "nu":
        document["nu"] = draw(st.one_of(
            st.lists(st.floats(0.0, 1.0), max_size=size + 1),
            st.just([1.0] + [0.0] * size),
            st.lists(ODD_ENTRIES, min_size=size, max_size=size), ODD_ENTRIES))
    elif draw(st.booleans()):
        document["nu"] = [1.0] + [0.0] * (size - 1)
    if broken == "reversible":
        document["reversible"] = draw(st.sampled_from(
            ["no", "yes", "true", 0, 1, [True], {}, math.nan]))
    elif draw(st.booleans()):
        document["reversible"] = draw(st.booleans())
    return document


def test_every_chain_document_ends_in_a_documented_exit_code(tmp_path,
                                                             capsys):
    path = tmp_path / "chain.json"

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(document=chain_documents(),
           command=st.sampled_from(CHAIN_COMMANDS))
    def run(document, command):
        path.write_text(json.dumps(document))
        argv = [command[0], "--chain", str(path), *command[1:]]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3), (document, argv, code)
        assert "Traceback" not in err, (document, argv, err)

    run()
