"""Discrete Dirac-Kahler calculus on a finite periodic 4D lattice.

Fields carry a full 16-component Clifford element (one coefficient per
basis blade of the e0..e3 algebra with metric +,-,-,-) at every site.
The package provides the forward difference exterior derivative and
coderivative, the first order lattice operators built from them, the
projector decomposition that transfers a single solution to the four
component equations, momentum-space spectral tools, and a verification
harness for the algebraic identities all of this rests on.

The package root binds the names of the README's quick start, build_symbol,
load_field and random_field, and the submodules; everything else is imported
from its module.
"""

# All eight submodules, in this order: another order moves the CLI's peak RSS.
from . import blades, lattice, fields, algebra, calculus, spectral, transfer, verify  # noqa: F401
from .calculus import dk_residual
from .fields import EquationParams, load_field, max_abs, plane_wave, random_field
from .lattice import LatticeDims
from .spectral import build_symbol, eigen_solve

__version__ = "0.1.0"
