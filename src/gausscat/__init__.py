"""Superpositions of harmonic-oscillator coherent states whose coefficients
are quadratic Gauss sums, with exact closed forms and a numerical
verification harness in truncated Fock space and on coordinate grids.

The package re-exports the public names of each module, as listed in that
module's ``__all__``.
"""

from . import fock, gauss_sums, superposition, verify, wavefunc
from .fock import *  # noqa: F401,F403
from .gauss_sums import *  # noqa: F401,F403
from .superposition import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403
from .wavefunc import *  # noqa: F401,F403

__all__ = [name for module in (gauss_sums, superposition, fock, wavefunc, verify)
           for name in module.__all__]

__version__ = "0.1.0"
