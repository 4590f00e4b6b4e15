"""Perfect 2-colourings of circulant graphs via polynomial multitilings.

The package decides when a circulant graph on the integers modulo P can
be 2-coloured so that every Black vertex sees exactly b White neighbours
and every White vertex exactly c Black ones, and constructs such graphs
and colourings when the parameters allow it. The engine underneath is
cyclic convolution of integer tiles, analysed through the cyclotomic
factors of their mask polynomials.

Each public name is imported from its submodule on first use, so a
process loads only the submodules it calls. It is also the one way a
submodule defers a sibling (cyclotile.<name>, never an import inside a
function), so every deferred name is public.
"""

import importlib
import sys

# every public name -> the submodule that defines it; the submodule is imported on first use
_HOME = {
    "AdmissibilityVerdict": "admissibility",
    "ConstructionWitness": "admissibility",
    "ParamTriple": "admissibility",
    "PerPrimeResidues": "admissibility",
    "Violation": "admissibility",
    "check_admissible": "admissibility",
    "check_graph_condition": "admissibility",
    "construct_distances": "admissibility",
    "construct_perfect_coloring": "admissibility",
    "witness_to_document": "admissibility",
    "divisors": "arith",
    "factorize": "arith",
    "BLACK": "coloring",
    "WHITE": "coloring",
    "CirculantSpec": "coloring",
    "Coloring": "coloring",
    "Tile": "coloring",
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
    "CyclotileError": "errors",
    "Inadmissible": "errors",
    "InexactDivision": "errors",
    "InputTooLarge": "errors",
    "NotExists": "errors",
    "SearchReport": "oracle",
    "census_colorings": "oracle",
    "search_colorings": "oracle",
    "search_tilings": "oracle",
    "IntPolynomial": "polyring",
    "poly_divmod": "polyring",
    "ExistenceVerdict": "tiling",
    "MultitilingWitness": "tiling",
    "construct_multitiling": "tiling",
    "construct_tiling_prime_power": "tiling",
    "multitiling_exists": "tiling",
    "verify_multitiling": "tiling",
}

__all__ = sorted(_HOME)

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
