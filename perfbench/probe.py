"""Set-up probe: what a fresh ``mcmc-budget`` process pays before working.

Imports the command-line module, builds its parser and constructs the zoo
models named on the command line, then exits.  ``run.py`` starts this
script in fresh interpreters and times each from start to exit.

    PYTHONPATH=src python3 perfbench/probe.py two-state lazy-cycle-3
"""
import sys

from mcmc_budget import cli
from mcmc_budget.validate import resolve_model

cli.build_parser()
for chain in sys.argv[1:]:
    resolve_model(chain)
