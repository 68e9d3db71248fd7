"""quadcount: exact counting of structured quadruples.

Zeros of a quadrivariate polynomial on a product of four sets, coplanar
quadruples on space curves, collinear triples, four-point circles, a
detector for additively separable polynomial structure, and a harness that
fits the growth exponents these counts exhibit.  The package exports what
each of these layers declares public in its `__all__`.
"""

from . import polynomials, zerocount, geometry, constructions, separability, harness
from .polynomials import *
from .zerocount import *
from .geometry import *
from .constructions import *
from .separability import *
from .harness import *

__version__ = "0.1.0"

_LAYERS = (polynomials, zerocount, geometry, constructions, separability, harness)
__all__ = [name for layer in _LAYERS for name in layer.__all__]
