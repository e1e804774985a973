"""Pareto set learning by hypervolume maximization.

Trains a neural model that transforms an arbitrary latent distribution into
the Pareto set of a multi-objective problem, and benchmarks it against
preference-based Pareto set learning baselines on synthetic and engineering
design problems.
"""

from .hv import *
from .network import *
from .problems import *
from .sampling import *
from .scalarization import *
from .trainer import *

__version__ = "0.1.0"
