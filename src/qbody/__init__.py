"""Geometry of the minimal-scenario quantum correlation body.

The package computes with the convex body of quantum-realizable
correlation 4-tuples: membership by several independent characterizations,
boundary stratification, support/gauge duality, explicit quantum models,
and Monte-Carlo measures.  See the module docstrings for the mathematical
conventions; :mod:`qbody.cli` exposes everything on the command line.
"""

from .core import *
from .membership import *
from .boundary import *
from .duality import *
from .quantum import *
from .measures import *

__version__ = "0.1.0"
