"""Perfect 2-colourings of circulant graphs via polynomial multitilings.

The package decides when a circulant graph on the integers modulo P can
be 2-coloured so that every Black vertex sees exactly b White neighbours
and every White vertex exactly c Black ones, and constructs such graphs
and colourings when the parameters allow it. The engine underneath is
cyclic convolution of integer tiles, analysed through the cyclotomic
factors of their mask polynomials.

Each public name is imported from its submodule on first use, so a
process loads only the submodules it calls.
"""

import importlib
import sys

# every public name -> the submodule that defines it; the submodule is imported on first use
_HOME = {
    "AdmissibilityVerdict": "admissibility",
    "ConstructionWitness": "admissibility",
    "GraphConditionVerdict": "admissibility",
    "ParamTriple": "admissibility",
    "PerPrimeResidues": "admissibility",
    "Violation": "admissibility",
    "check_admissible": "admissibility",
    "check_graph_condition": "admissibility",
    "construct_distances": "admissibility",
    "construct_perfect_coloring": "admissibility",
    "witness_to_document": "admissibility",
    "crt": "arith",
    "divisors": "arith",
    "factorize": "arith",
    "is_prime_power": "arith",
    "prime_power_base": "arith",
    "BLACK": "coloring",
    "WHITE": "coloring",
    "CirculantSpec": "coloring",
    "Coloring": "coloring",
    "build_document": "coloring",
    "coloring_to_tiling": "coloring",
    "is_perfect_coloring": "coloring",
    "parse_document": "coloring",
    "perfect_parameters": "coloring",
    "structured_tile": "coloring",
    "tiling_to_coloring": "coloring",
    "DivisorSpectrum": "cyclotomic",
    "cyclotomic": "cyclotomic",
    "cyclotomic_divides": "cyclotomic",
    "divisor_spectrum": "cyclotomic",
    "prime_power_product_at_one": "cyclotomic",
    "BoundViolated": "errors",
    "CyclotileError": "errors",
    "Inadmissible": "errors",
    "InexactDivision": "errors",
    "InputTooLarge": "errors",
    "ModulusMismatch": "errors",
    "MultiplicityOutOfRange": "errors",
    "NotExists": "errors",
    "NotPrimePower": "errors",
    "NotPrimePowerSum": "errors",
    "NotZeroOne": "errors",
    "SearchSpaceTooLarge": "errors",
    "ZeroMask": "errors",
    "SearchReport": "oracle",
    "census_colorings": "oracle",
    "search_colorings": "oracle",
    "search_tilings": "oracle",
    "IntPolynomial": "polyring",
    "eval_at": "polyring",
    "poly_divmod": "polyring",
    "poly_exact_div": "polyring",
    "power_minus_one": "polyring",
    "reduce_mod_cyclic": "polyring",
    "ExistenceVerdict": "tiling",
    "MultitilingWitness": "tiling",
    "Tile": "tiling",
    "construct_multitiling": "tiling",
    "construct_tiling_prime_power": "tiling",
    "mask_polynomial": "tiling",
    "multitiling_exists": "tiling",
    "tile_from_polynomial": "tiling",
    "verify_multitiling": "tiling",
}

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
    "InputTooLarge",
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


def __getattr__(name: str):
    """Import a public name's submodule and keep the name in the package (PEP 562)."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + home, __name__), name)
    globals()[name] = value  # later lookups find it without calling __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


class _Package(type(sys)):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package under its own name. The public
        # function cyclotomic shares its name with the submodule and keeps the name.
        if name not in _HOME or value is not sys.modules.get(__name__ + "." + name):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
