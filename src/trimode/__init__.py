"""Quadrature moment dynamics and tripartite entanglement criteria for
three optical modes coupled by interlinked parametric interactions with
undepleted classical pumps.
"""

from . import core, criteria, oracle, propagator, sweep
from .core import *
from .criteria import *
from .oracle import *
from .propagator import *
from .sweep import *

__version__ = "0.1.0"

__all__ = ["__version__", *core.__all__, *criteria.__all__, *oracle.__all__,
           *propagator.__all__, *sweep.__all__]
