"""Admissibility of colouring parameters and constructive distance synthesis.

A triple (b, c, k) is admissible when b + c <= 2k + (b+c)/q^t for every
prime power q^t dividing N = (b+c)/gcd(b, c). Admissibility is exactly
what makes the per-prime residue constructions below well defined; they
assemble, via the Chinese remainder theorem plus one lift, a distance
multiset whose structured mask is divisible by enough prime-power
cyclotomics. When b + c is itself a prime power the pipeline continues
all the way to an explicit perfect colouring.
"""

from __future__ import annotations

from math import gcd

from .arith import crt, factorize, is_prime_power
from .coloring import (
    CirculantSpec,
    Coloring,
    build_document,
    is_perfect_coloring,
    structured_tile,
    tiling_to_coloring,
)
from .errors import BoundViolated, Inadmissible, InputTooLarge, NotExists, NotPrimePowerSum
from .record import Record
from .tiling import construct_tiling_prime_power, multitiling_exists

# a construction lists k distances on a group of order at most 8k; larger k is refused
MAX_DISTANCES = 100_000


class ParamTriple(Record):
    """Colour parameters b, c and the number of distances k, all positive."""

    __slots__ = ("b", "c", "k")

    def __init__(self, b: int, c: int, k: int):
        if b < 1 or c < 1 or k < 1:
            raise ValueError("b, c and k must all be positive")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "k", k)

    @property
    def color_sum(self) -> int:
        return self.b + self.c

    @property
    def reduced_sum(self) -> int:
        """(b + c) / gcd(b, c); always at least 2 for positive b and c."""
        return (self.b + self.c) // gcd(self.b, self.c)


class Violation(Record):
    """One failed instance of the inequality, at the tightest exponent."""

    __slots__ = ("q", "t", "bound")

    def __init__(self, q: int, t: int, bound: int):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "bound", bound)


class AdmissibilityVerdict(Record):
    __slots__ = ("admissible", "violations")

    def __init__(self, admissible: bool, violations: tuple[Violation, ...]):
        object.__setattr__(self, "admissible", admissible)
        object.__setattr__(self, "violations", violations)

    def __bool__(self) -> bool:
        return self.admissible


class GraphConditionVerdict(Record):
    """Outcome of the divisibility condition on the structured mask's spectrum."""

    __slots__ = ("modulus", "divisors", "prime_power_divisors", "divisor_product_at_one",
                 "prime_power_product_at_one", "reduced_sum", "passed", "exact")

    def __init__(self, modulus: int, divisors: tuple[int, ...],
                 prime_power_divisors: tuple[int, ...], divisor_product_at_one: int,
                 prime_power_product_at_one: int, reduced_sum: int, passed: bool, exact: bool):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "divisors", divisors)
        object.__setattr__(self, "prime_power_divisors", prime_power_divisors)
        object.__setattr__(self, "divisor_product_at_one", divisor_product_at_one)
        object.__setattr__(self, "prime_power_product_at_one", prime_power_product_at_one)
        object.__setattr__(self, "reduced_sum", reduced_sum)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "exact", exact)

    def __bool__(self) -> bool:
        return self.passed


class PerPrimeResidues(Record):
    """Residue targets for one prime power of N, with the modulus they live in."""

    __slots__ = ("q", "t", "modulus", "residues")

    def __init__(self, q: int, t: int, modulus: int, residues: tuple[int, ...]):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "residues", residues)


class ConstructionWitness(Record):
    __slots__ = ("params", "spec", "per_prime_residues", "coloring")

    def __init__(self, params: ParamTriple, spec: CirculantSpec,
                 per_prime_residues: tuple[PerPrimeResidues, ...], coloring: Coloring | None):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "per_prime_residues", per_prime_residues)
        object.__setattr__(self, "coloring", coloring)


def check_admissible(params: ParamTriple) -> AdmissibilityVerdict:
    """Test b + c <= 2k + (b+c)/q^t at the maximal exponent of each prime of N.

    Only the maximal t per prime is checked and reported; the bound is
    loosest at smaller exponents, so those are implied.
    """
    s = params.color_sum
    violations = []
    for q, t in factorize(params.reduced_sum):
        bound = 2 * params.k + s // q**t
        if s > bound:
            violations.append(Violation(q, t, bound))
    return AdmissibilityVerdict(not violations, tuple(violations))


def check_graph_condition(spec: CirculantSpec, b: int, c: int) -> GraphConditionVerdict:
    """Necessary condition for a (b, c)-perfect colouring of the graph.

    Passes iff the prime-power part of the structured mask's cyclotomic
    spectrum, evaluated at 1, is divisible by (b+c)/gcd(b, c). On a
    prime-power group order the condition is also sufficient, which the
    verdict flags as exact.

    This is a view of the c-multitiling test on the structured tile: its
    mask sum is b + c, and c * pi = 0 (mod b + c) holds exactly when
    (b+c)/gcd(b, c) divides pi, because c/gcd(b, c) is a unit modulo it.
    """
    if spec.modulus < 2:
        raise ValueError("the graph needs at least 2 vertices")
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    verdict = multitiling_exists(structured_tile(spec, b, c), c)
    spectrum = verdict.spectrum
    return GraphConditionVerdict(
        modulus=spec.modulus,
        divisors=tuple(sorted(spectrum.divisors)),
        prime_power_divisors=tuple(sorted(spectrum.prime_power_subset)),
        divisor_product_at_one=spectrum.divisor_product_at_one(),
        prime_power_product_at_one=verdict.prime_power_product,
        reduced_sum=(b + c) // gcd(b, c),
        passed=verdict.passed,
        exact=is_prime_power(spec.modulus),
    )


def _residues_odd_prime(s: int, k: int, q: int, t: int) -> list[int]:
    # q odd: s/q^t zeros-adjusted copies of each residue class representative.
    copies = s // q**t
    values = [0] * ((copies - (s - 2 * k)) // 2)
    for r in range(1, (q**t - 1) // 2 + 1):
        values.extend([r] * copies)
    return values


def _residues_even_quotient(s: int, k: int, t: int) -> list[int]:
    # q = 2 and s/2^t even.
    copies = s // 2**t
    values = [0] * ((copies - (s - 2 * k)) // 2)
    for r in range(1, 2 ** (t - 1)):
        values.extend([r] * copies)
    values.extend([2 ** (t - 1)] * (copies // 2))
    return values


def _residues_odd_quotient(s: int, k: int, t: int) -> list[int]:
    # q = 2 and s/2^t odd: every odd residue once, every even one s/2^t - 1
    # times, and the midpoint 2^t half as often.
    copies = s // 2**t - 1
    values = [0] * ((copies - (s - 2 * k)) // 2)
    for j in range(2 ** (t - 1)):
        values.append(2 * j + 1)
    for j in range(1, 2 ** (t - 1)):
        values.extend([2 * j] * copies)
    values.extend([2**t] * (copies // 2))
    return values


def _per_prime_residues(params: ParamTriple) -> list[PerPrimeResidues]:
    s = params.color_sum
    out = []
    for q, t in factorize(params.reduced_sum):
        if q > 2:
            values = _residues_odd_prime(s, params.k, q, t)
            modulus = q**t
        elif (s // 2**t) % 2 == 0:
            values = _residues_even_quotient(s, params.k, t)
            modulus = 2 ** (t + 1)
        else:
            values = _residues_odd_quotient(s, params.k, t)
            modulus = 2 ** (t + 1)
        if len(values) != params.k:
            raise AssertionError("residue count %d != k for prime %d" % (len(values), q))
        out.append(PerPrimeResidues(q, t, modulus, tuple(sorted(values))))
    return out


def construct_distances(params: ParamTriple) -> ConstructionWitness:
    """Build distances whose structured mask passes the divisibility condition.

    For each prime power q^t of N a residue multiset is chosen by the
    three-way case split on q and on the parity of (b+c)/2^t, working
    modulo q^t for odd q and modulo 2^(t+1) for q = 2. The group order is
    N for odd N and 2N for even N, which is exactly the product of those
    moduli, so the per-position congruences have one minimal nonnegative
    solution each. Finally the largest distance is lifted by whole
    periods until it clears max q^(t+1), which no congruence notices.
    """
    witness = _lifted_distances(params)
    if not check_graph_condition(witness.spec, params.b, params.c).passed:
        raise AssertionError("constructed distances fail the divisibility condition")
    return witness


def _lifted_distances(params: ParamTriple) -> ConstructionWitness:
    # construct_distances without its closing divisibility check, which
    # construct_perfect_coloring makes through the tiling construction.
    if params.k > MAX_DISTANCES:
        raise InputTooLarge("k = %d distances is above the cap of %d" % (params.k, MAX_DISTANCES))
    verdict = check_admissible(params)
    if not verdict.admissible:
        raise Inadmissible(verdict)
    reduced = params.reduced_sum
    per_prime = _per_prime_residues(params)
    period = reduced if reduced % 2 else 2 * reduced
    distances = []
    for j in range(params.k):
        distances.append(
            crt([pp.residues[j] for pp in per_prime], [pp.modulus for pp in per_prime])
        )
    lift_past = max(pp.q ** (pp.t + 1) for pp in per_prime)
    idx = distances.index(max(distances))
    while distances[idx] <= lift_past:
        distances[idx] += period
    spec = CirculantSpec(period, tuple(distances))
    return ConstructionWitness(params, spec, tuple(per_prime), None)


def construct_perfect_coloring(params: ParamTriple) -> ConstructionWitness:
    """Full pipeline for prime-power b + c: distances, 0/1 tiling, colouring.

    Succeeds exactly when b + c <= 2k + gcd(b, c). The constructed group
    order is then itself a prime power, so the prime-power tiling
    construction applies with multiplicity c, and the support of the
    resulting 0/1 tile coloured black is a perfect colouring.
    """
    s = params.color_sum
    if not is_prime_power(s):
        raise NotPrimePowerSum("b + c = %d is not a prime power" % s)
    limit = 2 * params.k + gcd(params.b, params.c)
    if s > limit:
        raise BoundViolated("b + c = %d exceeds 2k + gcd(b, c) = %d" % (s, limit))
    witness = _lifted_distances(params)
    u = structured_tile(witness.spec, params.b, params.c)
    try:
        v = construct_tiling_prime_power(u, params.c)
    except NotExists as exc:
        raise AssertionError("constructed distances fail the divisibility condition") from exc
    col = tiling_to_coloring(v, params.b, params.c)
    if not is_perfect_coloring(witness.spec, col):
        raise AssertionError("constructed colouring failed the graph-side check")
    return ConstructionWitness(witness.params, witness.spec, witness.per_prime_residues, col)


def witness_to_document(witness: ConstructionWitness) -> dict:
    """Serialize a witness as the interchange document plus its construction data."""
    doc = build_document(
        witness.spec,
        witness.params.b,
        witness.params.c,
        witness.coloring.colors if witness.coloring is not None else None,
    )
    doc["construction"] = {
        "per_prime": [
            {"q": pp.q, "t": pp.t, "modulus": pp.modulus, "residues": list(pp.residues)}
            for pp in witness.per_prime_residues
        ],
        "lifted": list(witness.spec.distances),
    }
    return doc
