"""Exact verification of a multi-binomial identity.

An alternating double sum over integer compositions is claimed to equal
4**s times a product of binomial coefficients, for every s >= 0, every
vector of nonnegative integers alpha with sum(alpha) = 2s+1, and every
rational vector gamma of the same length.  This package evaluates both
sides in exact rational arithmetic by three independent routes (literal
summation, coefficient extraction from a series product, and a reduced
product of closed-form residues) and checks that everything agrees --
Fraction equality, never floats, never tolerances.
"""

from . import algebra, series, residues, identity
from .algebra import *  # noqa: F401,F403 -- each module's __all__ names its exports
from .series import *  # noqa: F401,F403
from .residues import *  # noqa: F401,F403
from .identity import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = algebra.__all__ + series.__all__ + residues.__all__ + identity.__all__
