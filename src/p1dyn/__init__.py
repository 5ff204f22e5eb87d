"""Exact arithmetic dynamics on the projective line over the rationals.

Everything is integer arithmetic: canonical coprime coordinates, exact
resultants and p-adic log-distances, exhaustive preperiodic point searches,
and a symbolic magnitude type that keeps count bounds like e^(30^15)
comparable without ever rounding them into floats.
"""

from .intarith import ArithmeticInputError, FactorizationIncompleteError
from .projline import (INFINITY, canonicalize, cross_product, distance_support,
                       format_point, from_rational, log_distance, parse_point)
from .ratmap import (DegenerateMapError, PlaceSet, evaluate, good_reduction,
                     reduction_profile)
from .mapparse import MapSyntaxError, parse_map
from .orbits import classify_point, enumerate_preperiodic, tails_of
from .magnitude import (Comparison, IndistinguishableError, MagnitudeInputError,
                        compare, digit_count, exact, exp_of, force_exact, power)
from .bounds import BoundInputError, bound_table
from .verify import (VerificationInputError, check_chain_lemma, four_point_set,
                     run_suite, three_point_set)

__version__ = "0.1.0"

__all__ = [
    "INFINITY", "canonicalize", "cross_product", "distance_support",
    "format_point", "from_rational", "log_distance", "parse_point",
    "PlaceSet", "evaluate", "good_reduction", "reduction_profile",
    "parse_map",
    "classify_point", "enumerate_preperiodic", "tails_of",
    "Comparison", "compare", "digit_count", "exact", "exp_of", "force_exact",
    "power",
    "bound_table",
    "check_chain_lemma", "four_point_set", "run_suite", "three_point_set",
    "ArithmeticInputError", "FactorizationIncompleteError", "DegenerateMapError",
    "MapSyntaxError", "IndistinguishableError", "MagnitudeInputError",
    "BoundInputError", "VerificationInputError",
    "__version__",
]
