"""Exact symbolic computation in group rings of the wreath products
Z/dZ wr Z (lamplighter-type groups): normal-form group arithmetic,
sparse group-ring convolution, Fox derivatives of the standard
presentation, zerodivisor certificates, and window-bounded searches
showing the failure of the Ore condition.
"""

from .certificates import (Certificate, LampVector, RelatorCoefficients,
                           certify, finite_subgroup_annihilator, lamp_subgroup,
                           reduce_mod_ideal_square, right_annihilator,
                           zerodivisor_from_coefficients)
from .errors import (ConfigError, LamplighterError, LimitExceededError,
                     NotInAugmentationIdealError, NotInvertibleError, ParseError,
                     RingMismatchError, SupportError, UnsupportedRingError,
                     WindowOverflowError)
from .foxwords import (FreeWord, ModuleVector, boundary_from_generators,
                       boundary_from_relators, evaluate, fox_derivative, parse_word,
                       relator_word)
from .groupring import GroupRing, GroupRingElement, LaurentElement, left_mul_matrix
from .oresearch import (OreSystem, SearchReport, SolutionRecord, Window,
                        annihilator_search, build_system, check_solution,
                        nullspace, run_search)
from .parsing import parse_element, parse_ring_element
from .ring import INTEGERS, Scalar, ScalarRing
from .wreath import WreathElement, WreathGroup

__version__ = "0.1.0"

__all__ = [
    "Certificate", "ConfigError", "FreeWord", "GroupRing", "GroupRingElement",
    "INTEGERS", "LampVector", "LamplighterError", "LaurentElement",
    "LimitExceededError", "ModuleVector", "NotInAugmentationIdealError",
    "NotInvertibleError", "OreSystem", "ParseError",
    "RelatorCoefficients", "RingMismatchError", "Scalar", "ScalarRing",
    "SearchReport", "SolutionRecord", "SupportError", "UnsupportedRingError",
    "Window", "WindowOverflowError", "WreathElement", "WreathGroup",
    "annihilator_search", "boundary_from_generators", "boundary_from_relators",
    "build_system", "certify", "check_solution", "evaluate",
    "finite_subgroup_annihilator", "fox_derivative", "lamp_subgroup",
    "left_mul_matrix", "nullspace", "parse_element", "parse_ring_element",
    "parse_word", "reduce_mod_ideal_square", "relator_word",
    "right_annihilator", "run_search", "zerodivisor_from_coefficients",
]
