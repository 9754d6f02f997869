"""Arithmetics with a functional parameter: projective and dual families.

Build a finite carrier, pick a strictly increasing f with f(0) = 0, and the
package gives you the induced addition and multiplication, relations like
"much less", an exhaustive law auditor, in-arithmetic series summation,
budget-relative convergence verdicts, a small expression language and the
``nda`` command line tool.
"""

from .arith import DUAL, PROJECTIVE, Arithmetic
from .carrier import Carrier
from .errors import (
    CarrierExhaustedError,
    CarrierIndexError,
    LexError,
    MultiplicationUnavailableError,
    NdaError,
    OffCarrierError,
    ParseError,
    SpecError,
    TableError,
    ValidationError,
)
from .funcparam import FunctionalParameter, ValidationReport, load_table, validate
from .laws import (
    LawReport,
    check_archimedean,
    check_law,
    check_laws,
    verify_archimedean_theorem,
)
from .series import (
    ConvergenceVerdict,
    SequenceSpec,
    arith_partial_sums,
    practical_convergence,
)

__version__ = "0.1.0"

__all__ = [
    "Arithmetic", "Carrier", "FunctionalParameter", "ValidationReport",
    "PROJECTIVE", "DUAL",
    "LawReport",
    "check_law", "check_laws", "check_archimedean", "verify_archimedean_theorem",
    "SequenceSpec", "ConvergenceVerdict", "arith_partial_sums", "practical_convergence",
    "load_table", "validate",
    "NdaError", "SpecError", "ValidationError", "TableError",
    "OffCarrierError", "CarrierIndexError",
    "CarrierExhaustedError", "MultiplicationUnavailableError",
    "LexError", "ParseError",
    "__version__",
]
