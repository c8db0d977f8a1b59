"""Burn-in and sample-size planning for MCMC averages of heavy-tailed
functions, plus chain testbeds with exactly known constants and a Monte
Carlo validation harness.

A name is public when its module's ``__all__`` lists it; the package
exports exactly those lists.
"""

from . import bounds, chains, estimator, exceptions, planner, validate
from .bounds import *
from .chains import *
from .estimator import *
from .exceptions import *
from .planner import *
from .validate import *

__all__ = [*bounds.__all__, *chains.__all__, *estimator.__all__,
           *exceptions.__all__, *planner.__all__, *validate.__all__]
