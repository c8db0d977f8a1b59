"""Compare the CLI's outputs on this tree with those of another commit.

    python tools/compare_outputs.py --parent REF

REF's ``src/`` is extracted with ``git archive`` into a temporary
directory; the repository itself is only read.  Each line of
``tools/output_commands.txt`` runs as ``python -m mcmc_budget.cli`` once
with REF's ``src/`` and once with this tree's ``src/`` on ``PYTHONPATH``,
and the exit code, stdout and stderr of the two runs are compared.

A line is the CLI's arguments, optionally preceded by ``NAME=value``
environment settings and by ``taskset -c CPU``.  Commands run in a
scratch directory that holds the JSON files of :data:`DATA_FILES`, so a
line names them by their file names.  ``MCMC_BUDGET_SEED`` is unset
unless a line sets it.

Prints each differing command, then ``N commands, M differ`` and the
SHA-256 of every command's line, exit code, stdout and stderr on this
tree.  Exits 1 if any command differs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
COMMANDS = Path(__file__).resolve().parent / "output_commands.txt"


def _dense_40() -> dict:
    """A dense reversible 40-state chain (the CI's): symmetric weights
    normalised by row, which no path table serves."""
    weights = np.random.default_rng(7).random((40, 40))
    weights += weights.T
    return {"matrix": (weights / weights.sum(axis=1, keepdims=True)).tolist()}


# the JSON files the commands read: two chains and a config
DATA_FILES = {
    "dense-40.json": _dense_40(),
    # row 0's trailing zeros put an inner CDF entry at exactly 1.0
    "zero-tail.json": {
        "matrix": [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0],
                   [0.0, 0.5, 0.25, 0.25], [0.0, 0.0, 0.5, 0.5]],
        "nu": [1.0, 0.0, 0.0, 0.0]},
    "bad-seed.json": {"seed": -1},
}


def _commands() -> list:
    lines = (line.strip() for line in COMMANDS.read_text().splitlines())
    return [line for line in lines if line and not line.startswith("#")]


def _run(line: str, src: Path, workdir: Path) -> tuple:
    """``(exit code, stdout, stderr)`` of one command line on ``src``."""
    tokens = shlex.split(line)
    env = {key: value for key, value in os.environ.items()
           if key != "MCMC_BUDGET_SEED"}
    while tokens and re.fullmatch(r"[A-Z_][A-Z0-9_]*=.*", tokens[0]):
        key, value = tokens.pop(0).split("=", 1)
        env[key] = value
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    prefix = tokens[:3] if tokens[:2] == ["taskset", "-c"] else []
    command = [*prefix, sys.executable, "-m", "mcmc_budget.cli",
               *tokens[len(prefix):]]
    done = subprocess.run(command, cwd=workdir, env=env, capture_output=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="the commit to compare with")
    args = parser.parse_args(argv)
    commands = _commands()
    with tempfile.TemporaryDirectory() as scratch:
        parent, workdir = Path(scratch, "parent"), Path(scratch, "work")
        parent.mkdir()
        workdir.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", "--format=tar", args.parent,
             "src"], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        for name, document in DATA_FILES.items():
            (workdir / name).write_text(json.dumps(document))
        digest = hashlib.sha256()
        differ = 0
        for line in commands:
            before = _run(line, parent / "src", workdir)
            after = _run(line, REPO / "src", workdir)
            if before != after:
                differ += 1
                parts = [part for part, a, b in
                         zip(("exit code", "stdout", "stderr"), before, after)
                         if a != b]
                print(f"differs ({', '.join(parts)}): {line}")
            for part in (line.encode(), str(after[0]).encode(), *after[1:]):
                digest.update(len(part).to_bytes(8, "little") + part)
    print(f"{len(commands)} commands, {differ} differ")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
