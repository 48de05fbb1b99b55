"""Markov-chain toolkit for quantum-based process scheduling schemes.

A scheduler moves over a ring of ``m`` process slots and one absorbing
deadlock state.  The package evaluates per-quantum state probabilities three
independent ways (exact matrix propagation, closed forms, seeded Monte Carlo)
and derives deadlock/fairness analytics for comparing schemes.  Each module's
``__all__`` is the one list of its public names; the package re-exports them.
"""

__version__ = "0.1.0"

from . import analysis, model, montecarlo, schemes
from .analysis import *
from .model import *
from .montecarlo import *
from .schemes import *

__all__ = ["__version__", *model.__all__, *schemes.__all__, *montecarlo.__all__, *analysis.__all__]
