"""Analyses of ranked query answering under a conflict of interest.

A data source that earns a commission on some results has an incentive
to push them up the ranking it returns.  This package models that
interaction end to end: exact posterior reasoning about where a tuple
"really" stands given a biased answer, a trust filter separating
returned tuples that could not have displaced better ones from those
that might have, difference-constraint queries that force a
self-interested source to reveal an intended order, a dynamic program
choosing which adjacent ranks to merge in a query to maximize expected
result quality, and a small game-theory lab for the equilibrium
characterization behind it all.

All analysis arithmetic is exact (``fractions.Fraction``); floats only
appear at the JSON boundary.  See the per-module documentation for the
mathematics each piece implements.
"""

from __future__ import annotations

from . import core, equilibrium, influence, merge, posterior, trust, utility
from .core import *
from .equilibrium import *
from .influence import *
from .merge import *
from .posterior import *
from .trust import *
from .utility import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *equilibrium.__all__,
    *influence.__all__,
    *merge.__all__,
    *posterior.__all__,
    *trust.__all__,
    *utility.__all__,
    "__version__",
]
