"""Perfect 2-colourings of circulant graphs via polynomial multitilings.

The package decides when a circulant graph on the integers modulo P can
be 2-coloured so that every Black vertex sees exactly b White neighbours
and every White vertex exactly c Black ones, and constructs such graphs
and colourings when the parameters allow it. The engine underneath is
cyclic convolution of integer tiles, analysed through the cyclotomic
factors of their mask polynomials.
"""

from .admissibility import (
    AdmissibilityVerdict,
    ConstructionWitness,
    GraphConditionVerdict,
    ParamTriple,
    PerPrimeResidues,
    Violation,
    check_admissible,
    check_graph_condition,
    construct_distances,
    construct_perfect_coloring,
    witness_to_document,
)
from .arith import crt, divisors, factorize, is_prime_power, prime_power_base
from .coloring import (
    BLACK,
    WHITE,
    CirculantSpec,
    Coloring,
    build_document,
    coloring_to_tiling,
    is_perfect_coloring,
    parse_document,
    perfect_parameters,
    structured_tile,
    tiling_to_coloring,
)
from .cyclotomic import (
    DivisorSpectrum,
    cyclotomic,
    cyclotomic_divides,
    divisor_spectrum,
    prime_power_product_at_one,
)
from .errors import (
    BoundViolated,
    CyclotileError,
    Inadmissible,
    InexactDivision,
    ModulusMismatch,
    MultiplicityOutOfRange,
    NotExists,
    NotPrimePower,
    NotPrimePowerSum,
    NotZeroOne,
    SearchSpaceTooLarge,
    ZeroMask,
)
from .oracle import (
    SearchReport,
    census_colorings,
    search_colorings,
    search_tilings,
)
from .polyring import (
    IntPolynomial,
    eval_at,
    poly_divmod,
    poly_exact_div,
    power_minus_one,
    reduce_mod_cyclic,
)
from .tiling import (
    ExistenceVerdict,
    MultitilingWitness,
    Tile,
    construct_multitiling,
    construct_tiling_prime_power,
    mask_polynomial,
    multitiling_exists,
    tile_from_polynomial,
    verify_multitiling,
)

__all__ = [
    "AdmissibilityVerdict",
    "BLACK",
    "BoundViolated",
    "CirculantSpec",
    "Coloring",
    "ConstructionWitness",
    "CyclotileError",
    "DivisorSpectrum",
    "ExistenceVerdict",
    "GraphConditionVerdict",
    "Inadmissible",
    "InexactDivision",
    "IntPolynomial",
    "ModulusMismatch",
    "MultiplicityOutOfRange",
    "MultitilingWitness",
    "NotExists",
    "NotPrimePower",
    "NotPrimePowerSum",
    "NotZeroOne",
    "ParamTriple",
    "PerPrimeResidues",
    "SearchReport",
    "SearchSpaceTooLarge",
    "Tile",
    "Violation",
    "WHITE",
    "ZeroMask",
    "build_document",
    "census_colorings",
    "check_admissible",
    "check_graph_condition",
    "coloring_to_tiling",
    "construct_distances",
    "construct_multitiling",
    "construct_perfect_coloring",
    "construct_tiling_prime_power",
    "crt",
    "cyclotomic",
    "cyclotomic_divides",
    "divisor_spectrum",
    "divisors",
    "eval_at",
    "factorize",
    "is_perfect_coloring",
    "is_prime_power",
    "mask_polynomial",
    "multitiling_exists",
    "parse_document",
    "perfect_parameters",
    "poly_divmod",
    "poly_exact_div",
    "power_minus_one",
    "prime_power_base",
    "prime_power_product_at_one",
    "reduce_mod_cyclic",
    "search_colorings",
    "search_tilings",
    "structured_tile",
    "tile_from_polynomial",
    "tiling_to_coloring",
    "verify_multitiling",
    "witness_to_document",
]

__version__ = "0.1.0"
