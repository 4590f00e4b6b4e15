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
    GraphConditionVerdict,
    IntPolynomial,
    MultitilingWitness,
    ParamTriple,
    PerPrimeResidues,
    SearchReport,
    Tile,
    Violation,
)

SPECTRUM = DivisorSpectrum(12, frozenset({3, 4, 12}), frozenset({3, 4}), 6)

# every value type with keyword arguments in constructor order, already in canonical form;
# the fields of one value differ from each other, so that two swapped fields show
CASES = [
    (IntPolynomial, dict(coeffs=(1, 0, 2))),
    (CirculantSpec, dict(modulus=8, distances=(1, 1, 10))),
    (Coloring, dict(colors="BBBWBBBW", b=2, c=6)),
    (Tile, dict(values=(1, 0, -2))),
    (ExistenceVerdict, dict(passed=True, multiplicity=6, mask_sum=8, spectrum=SPECTRUM)),
    (MultitilingWitness, dict(tile=Tile((1, 1)), multiplier=IntPolynomial([1]), multiplicity=1)),
    (DivisorSpectrum, dict(modulus=12, divisors=frozenset({3, 4, 12}),
                           prime_power_subset=frozenset({3, 4}), prime_power_product=6)),
    (ParamTriple, dict(b=2, c=6, k=3)),
    (Violation, dict(q=2, t=3, bound=5)),
    (AdmissibilityVerdict, dict(admissible=False, violations=(Violation(2, 3, 5),))),
    (GraphConditionVerdict, dict(spectrum=SPECTRUM, reduced_sum=2, passed=True, exact=False)),
    (PerPrimeResidues, dict(q=2, t=3, modulus=16, residues=(1, 1, 2))),
    (ConstructionWitness, dict(params=ParamTriple(2, 6, 3), spec=CirculantSpec(8, (1, 1, 10)),
                               per_prime_residues=(PerPrimeResidues(2, 2, 8, (1, 1, 2)),),
                               coloring=Coloring("BBBWBBBW", 2, 6))),
    (SearchReport, dict(spec=CirculantSpec(4, (1,)), b=2, c=1, found=(Coloring("BWBW", 2, 1),),
                        exhausted=True, states_examined=16)),
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
