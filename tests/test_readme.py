"""The ``$ mcmc-budget ...`` examples of README.md, run in process.

Each example's printed output must be what the command writes to stdout,
byte for byte.
"""
from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import mcmc_budget
from mcmc_budget.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """``(command, expected stdout)`` for every example in a sh block."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"\n(?=\$ )|\n\n", block.strip("\n")):
            command, _, output = chunk.partition("\n")
            if command.startswith("$ mcmc-budget "):
                examples.append((command[2:], output.strip("\n") + "\n"))
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) >= 5


@pytest.mark.parametrize("command, expected", readme_examples())
def test_readme_example(capsys, monkeypatch, command, expected):
    monkeypatch.delenv("MCMC_BUDGET_SEED", raising=False)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_python_api_section_lists_the_public_names():
    # names are identifiers in backticks; module paths hold a dot and
    # `__all__` starts with an underscore, so neither is collected
    section = README.read_text().split("## Python API\n")[1].split("\n## ")[0]
    names = re.findall(r"`([A-Za-z][A-Za-z0-9_]*)`", section)
    assert names == mcmc_budget.__all__
