"""Exact tools for Frobenius-complexity computations.

The package counts the graded generators of the twisted construction
attached to a polynomial ring in d variables over a field of prime
characteristic p, certifies the exponential growth rate of those counts,
and models the underlying twisted matrix operators.  All arithmetic is
exact: integer counts, rational interval endpoints.
"""

from .basep import ExponentVector, Prime, carry_sequence, digits
from .closedform import closed_form_d3, complexity_d3, known_complexity_expression
from .enumeration import count_basis_carryvectors, count_basis_enumeration, is_basis_monomial
from .errors import GuardExceeded
from .poincare import build_table
from .spectral import char_poly, frobenius_complexity, perron_interval
from .transfer import build_system, complexity_term, sweep
from .twistedop import (
    QuotientRing,
    TwistedOperator,
    bracket,
    compose,
    factorization_check,
    identity_operator,
    min_kill_degree,
    random_operator,
)

__version__ = "0.1.0"

# the names the README and the demos use, plus Prime and GuardExceeded;
# everything else is imported from its module
__all__ = [
    "ExponentVector",
    "GuardExceeded",
    "Prime",
    "QuotientRing",
    "TwistedOperator",
    "bracket",
    "build_system",
    "build_table",
    "carry_sequence",
    "char_poly",
    "closed_form_d3",
    "complexity_d3",
    "complexity_term",
    "compose",
    "count_basis_carryvectors",
    "count_basis_enumeration",
    "digits",
    "factorization_check",
    "frobenius_complexity",
    "identity_operator",
    "is_basis_monomial",
    "known_complexity_expression",
    "min_kill_degree",
    "perron_interval",
    "random_operator",
    "sweep",
]
