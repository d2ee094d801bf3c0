"""Foliage partitions and local-complementation invariants of graph states.

Each public name is declared once, in its module's ``__all__``; the package
re-exports those names, and its ``__all__`` is their sorted union.
"""

from . import canonical, entanglement, foliage, gf2, graph, graph6, orbits
from .canonical import *
from .entanglement import *
from .foliage import *
from .gf2 import *
from .graph import *
from .graph6 import *
from .orbits import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (canonical, entanglement, foliage, gf2, graph, graph6, orbits)
    for name in module.__all__
)
