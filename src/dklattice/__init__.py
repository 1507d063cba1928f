"""Discrete Dirac-Kahler calculus on a finite periodic 4D lattice.

Fields carry a full 16-component Clifford element (one coefficient per
basis blade of the e0..e3 algebra with metric +,-,-,-) at every site.
The package provides the forward difference exterior derivative and
coderivative, the first order lattice operators built from them, the
projector decomposition that transfers a single solution to the four
component equations, momentum-space spectral tools, and a verification
harness for the algebraic identities all of this rests on.
"""

from .blades import (ALL_MASKS, METRIC, NUM_BLADES, TABLE, blade_name, grade,
                     indices, mask_of, reduce_product)
from .lattice import LatticeDims, delta_mu, shift, site_iter
from .fields import (Equation, EquationParams, FieldFormatError, FormField,
                     constant_field, conjugate, dumps_field, even_part,
                     grade_part, load_field, loads_field, max_abs, odd_part,
                     plane_wave, random_field, rms, save_field, zeros)
from .algebra import (ConstantForm, PROJECTOR_TAGS, clifford_mul, is_constant,
                      left_mul, projector, right_mul)
from .calculus import (d_c, delta_c, d_plus_delta, dk_apply, dk_residual,
                       hestenes_apply, hestenes_residual,
                       hestenes_residual_componentwise, pack_hestenes_components)
from .spectral import (SingularBlockError, build_symbol, eigen_solve,
                       propagator_solve, spectrum_rows, write_spectrum_csv)
from .transfer import (DecompositionResult, HestenesQuadruple,
                       IndependenceReport, Prop4Report, decompose,
                       hestenes_quadruple, omega_pm, verify_prop4,
                       verify_quadruple_independence)
from .verify import Check, Verification, blade_product_oracle, run_checks

__version__ = "0.1.0"

__all__ = [
    "ALL_MASKS", "METRIC", "NUM_BLADES", "TABLE", "blade_name", "grade",
    "indices", "mask_of", "reduce_product",
    "LatticeDims", "delta_mu", "shift", "site_iter",
    "Equation", "EquationParams", "FieldFormatError", "FormField",
    "constant_field", "conjugate", "dumps_field", "even_part", "grade_part",
    "load_field", "loads_field", "max_abs", "odd_part", "plane_wave",
    "random_field", "rms", "save_field", "zeros",
    "ConstantForm", "PROJECTOR_TAGS", "clifford_mul", "is_constant",
    "left_mul", "projector", "right_mul",
    "d_c", "delta_c", "d_plus_delta",
    "dk_apply", "dk_residual", "hestenes_apply",
    "hestenes_residual", "hestenes_residual_componentwise",
    "pack_hestenes_components",
    "SingularBlockError", "build_symbol", "eigen_solve", "propagator_solve",
    "spectrum_rows", "write_spectrum_csv",
    "DecompositionResult", "HestenesQuadruple",
    "IndependenceReport", "Prop4Report", "decompose", "hestenes_quadruple",
    "omega_pm", "verify_prop4", "verify_quadruple_independence",
    "Check", "Verification", "blade_product_oracle", "run_checks",
    "__version__",
]
