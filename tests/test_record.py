"""Value semantics shared by every value type of the package."""

import copy
import pickle

import pytest

from cyclotile import (
    AdmissibilityVerdict,
    CirculantSpec,
    Coloring,
    ConstructionWitness,
    DivisorSpectrum,
    ExistenceVerdict,
    IntPolynomial,
    MultitilingWitness,
    ParamTriple,
    PerPrimeResidues,
    SearchReport,
    Tile,
    Violation,
)

SPECTRUM = DivisorSpectrum(12, (2, 3), frozenset({3, 4, 12}), frozenset({3, 4}), 6)

# every value type with keyword arguments in constructor order, already in canonical form;
# the fields of one value differ from each other, so that two swapped fields show
CASES = [
    (IntPolynomial, dict(coeffs=(1, 0, 2))),
    (CirculantSpec, dict(modulus=8, distances=(1, 1, 10))),
    (Coloring, dict(colors="BBBWBBBW", b=2, c=6)),
    (Tile, dict(values=(1, 0, -2))),
    (ExistenceVerdict, dict(passed=True, spectrum=SPECTRUM)),
    (MultitilingWitness, dict(tile=Tile((1, 1)), multiplier=3)),
    (DivisorSpectrum, dict(modulus=12, primes=(2, 3), divisors=frozenset({3, 4, 12}),
                           prime_power_subset=frozenset({3, 4}), prime_power_product=6)),
    (ParamTriple, dict(b=2, c=6, k=3)),
    (Violation, dict(q=2, t=3, bound=5)),
    (AdmissibilityVerdict, dict(prime_powers=((2, 3),), violations=(Violation(2, 3, 5),))),
    (PerPrimeResidues, dict(q=2, t=3, residues=(1, 1, 2))),
    (ConstructionWitness, dict(params=ParamTriple(2, 6, 3), spec=CirculantSpec(8, (1, 1, 10)),
                               per_prime_residues=(PerPrimeResidues(2, 2, (1, 1, 2)),),
                               coloring=Coloring("BBBWBBBW", 2, 6))),
    (SearchReport, dict(found=(Coloring("BWBW", 2, 1),), exhausted=True, states_examined=16)),
]


@pytest.mark.parametrize("cls, kwargs", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_value_semantics(cls, kwargs):
    value = cls(**kwargs)
    positional = cls(*kwargs.values())
    assert value == positional and not value != positional
    assert hash(value) == hash(positional) == hash(tuple(kwargs.values()))
    assert {value: 1}[positional] == 1
    for name, field in kwargs.items():
        assert getattr(value, name) == field

    twin = type("Twin", (cls,), {"__slots__": ()})(**kwargs)  # equal fields, another class
    assert value != twin and twin != value
    assert value != tuple(kwargs.values())
    with pytest.raises(TypeError):
        len(value)

    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert value == positional

    fields = ", ".join("%s=%r" % item for item in kwargs.items())
    assert repr(value) == "%s(%s)" % (cls.__name__, fields)

    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


def test_types_with_equal_fields_are_unequal():
    assert ParamTriple(1, 2, 3) != Violation(1, 2, 3)
    assert Tile((1, 2)) != IntPolynomial((1, 2))


def test_derived_flags_are_properties_not_fields():
    # admissible, exact and modulus are read off fields, so they take no part in repr, == or hash
    admissible = AdmissibilityVerdict(((2, 3),), ())
    refused = AdmissibilityVerdict(((2, 3),), (Violation(2, 3, 5),))
    assert admissible.admissible and admissible and not refused.admissible and not refused
    assert repr(admissible) == "AdmissibilityVerdict(prime_powers=((2, 3),), violations=())"
    assert hash(admissible) == hash((((2, 3),), ()))
    prime_power = DivisorSpectrum(8, (2,), frozenset({8}), frozenset({8}), 2)
    assert ExistenceVerdict(True, prime_power).exact
    assert ExistenceVerdict(False, None).exact is False  # a zero mask has no spectrum
    verdict = ExistenceVerdict(True, SPECTRUM)
    assert not verdict.exact and "exact" not in repr(verdict)
    assert verdict == ExistenceVerdict(True, SPECTRUM)
    assert hash(verdict) == hash((True, SPECTRUM))
    odd, even = PerPrimeResidues(3, 2, (0, 1)), PerPrimeResidues(2, 2, (1, 1, 2))
    assert (odd.modulus, even.modulus) == (9, 8)  # q^t for odd q, 2^(t+1) for q = 2
    assert "modulus" not in repr(even) and even == PerPrimeResidues(2, 2, (1, 1, 2))
    assert hash(even) == hash((2, 2, (1, 1, 2)))
    for value, name in ((admissible, "admissible"), (verdict, "exact"), (even, "modulus")):
        assert isinstance(getattr(type(value), name), property)
        with pytest.raises(AttributeError):
            setattr(value, name, True)
