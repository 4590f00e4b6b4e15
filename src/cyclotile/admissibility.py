"""Admissibility of colouring parameters and constructive distance synthesis.

A triple (b, c, k) is admissible when b + c <= 2k + (b+c)/q^t for every
prime power q^t dividing N = (b+c)/gcd(b, c). Admissibility is exactly
what makes the per-prime residue constructions below well defined; they
assemble, via the Chinese remainder theorem plus one lift, a distance
multiset whose structured mask is divisible by enough prime-power
cyclotomics. When b + c is itself a prime power the pipeline continues
all the way to an explicit perfect colouring. Only check_admissible tests
the inequality: when b + c is a prime power, (b+c)/q^t = gcd(b, c) at the
one prime of N, so it is then the paper's sufficient bound as well.
"""

from math import gcd
from operator import add, mul

from .arith import crt_basis, factorize
from .errors import Inadmissible, InputTooLarge, NotExists
from .record import Record

# The colouring and tiling layers are imported where they are first used, so
# deciding admissibility (params check, table) loads none of the tile algebra.

# a construction lists k distances on a group of order at most 8k; larger k is refused
MAX_DISTANCES = 100_000


class ParamTriple(Record):
    """Colour parameters b, c and the number of distances k, all positive."""

    __slots__ = ("b", "c", "k")

    def __init__(self, b: int, c: int, k: int):
        if b < 1 or c < 1 or k < 1:
            raise ValueError("b, c and k must all be positive")
        self._store(b, c, k)

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


class AdmissibilityVerdict(Record):
    """The prime powers (q, t) of N = (b+c)/gcd(b, c), ascending, and the failed ones."""

    __slots__ = ("prime_powers", "violations")

    @property
    def admissible(self) -> bool:
        return not self.violations

    def prime_power_sum(self, color_sum: int) -> bool:
        """Whether b + c, the color_sum this verdict was decided on, is a prime power.

        b + c = N gcd(b, c) is a power of q when N is a power of q and b + c
        divides q^(bit length of b + c), which exceeds b + c.
        """
        (q, _), *others = self.prime_powers
        return not others and pow(q, color_sum.bit_length(), color_sum) == 0

    def __bool__(self) -> bool:
        return self.admissible


class PerPrimeResidues(Record):
    """Residue targets for one prime power q^t of N."""

    __slots__ = ("q", "t", "residues")

    @property
    def modulus(self) -> int:
        """The residues live modulo q^t for odd q and modulo 2^(t+1) for q = 2."""
        return self.q**self.t if self.q > 2 else 2 ** (self.t + 1)


class ConstructionWitness(Record):
    """The triple, the constructed graph, its per-prime residues and the colouring, or None."""

    __slots__ = ("params", "spec", "per_prime_residues", "coloring")


def check_admissible(params: ParamTriple) -> AdmissibilityVerdict:
    """Test b + c <= 2k + (b+c)/q^t at the maximal exponent of each prime of N.

    Only the maximal t per prime is checked and reported; the bound is
    loosest at smaller exponents, so those are implied.
    """
    s = params.color_sum
    prime_powers = tuple(factorize(params.reduced_sum))
    violations = []
    for q, t in prime_powers:
        bound = 2 * params.k + s // q**t
        if s > bound:
            violations.append(Violation(q, t, bound))
    return AdmissibilityVerdict(prime_powers, tuple(violations))


def check_graph_condition(spec: "CirculantSpec", b: int, c: int) -> "ExistenceVerdict":
    """Necessary condition for a (b, c)-perfect colouring of the graph.

    The verdict is the c-multitiling test on the structured tile, whose
    spectrum it holds. It passes iff pi, the spectrum's
    prime_power_product, is divisible by N = (b+c)/gcd(b, c): the mask sum
    b + c is nonzero, so pi is also the product of all divisors at 1, and
    c * pi = 0 (mod b + c) holds exactly when N divides pi, because
    c/gcd(b, c) is a unit modulo N. On a prime-power group order the
    condition is also sufficient, which the verdict flags as exact.
    """
    if spec.modulus < 2:
        raise ValueError("the graph needs at least 2 vertices")
    if b < 1 or c < 1:
        raise ValueError("b and c must be positive")
    from .coloring import structured_tile
    from .tiling import multitiling_exists

    return multitiling_exists(structured_tile(spec, b, c), c)


def _half_range(modulus: int, copies: int) -> list[int]:
    # each class +-r of Z/modulus, copies times; the class r = -r only copies // 2 times
    values = []
    for r in range(1, modulus // 2 + 1):
        values += [r] * (copies if 2 * r < modulus else copies // 2)
    return values


def _per_prime_residues(params: ParamTriple, prime_powers: tuple) -> list[PerPrimeResidues]:
    s = params.color_sum
    out = []
    for q, t in prime_powers:
        copies = s // q**t
        if q > 2 or copies % 2 == 0:
            values = _half_range(q**t, copies)
        else:  # q = 2, s/2^t odd: the odd residues below 2^t once, the rule doubled
            copies -= 1
            values = list(range(1, 2**t, 2)) + [2 * r for r in _half_range(2**t, copies)]
        values = [0] * ((copies - (s - 2 * params.k)) // 2) + values
        if len(values) != params.k:
            raise AssertionError("residue count %d != k for prime %d" % (len(values), q))
        out.append(PerPrimeResidues(q, t, tuple(sorted(values))))
    return out


def construct_distances(params: ParamTriple) -> ConstructionWitness:
    """Build distances whose structured mask passes the divisibility condition.

    For each prime power q^t of N a residue multiset is chosen by one
    half-range rule (_half_range), working modulo q^t for odd q and
    modulo 2^(t+1) for q = 2. The group order is N for odd N and 2N for
    even N, which is exactly the product of those moduli, so the
    per-position congruences have one minimal nonnegative solution each.
    Finally the largest distance is lifted by whole periods until it
    clears max q^(t+1), which no congruence notices.
    """
    return _checked(_lifted_distances(params, _admitted(params)))


def _checked(witness: ConstructionWitness) -> ConstructionWitness:
    if not check_graph_condition(witness.spec, witness.params.b, witness.params.c).passed:
        raise AssertionError("constructed distances fail the divisibility condition")
    return witness


def _admitted(params: ParamTriple) -> AdmissibilityVerdict:
    # admissibility comes before the cap, so an inadmissible triple is refused whatever k
    verdict = check_admissible(params)
    if not verdict.admissible:
        raise Inadmissible(verdict)
    if params.k > MAX_DISTANCES:
        raise InputTooLarge("k = %d distances is above the cap of %d" % (params.k, MAX_DISTANCES))
    return verdict


def _lifted_distances(params: ParamTriple, verdict: AdmissibilityVerdict) -> ConstructionWitness:
    from .coloring import CirculantSpec

    per_prime = _per_prime_residues(params, verdict.prime_powers)
    basis, period = crt_basis([pp.modulus for pp in per_prime])  # N for odd N, else 2N
    distances = [0] * params.k  # sum over the primes of residue * e_i, one prime at a time
    for pp, e in zip(per_prime, basis):
        distances = list(map(add, distances, map(mul, pp.residues, [e] * params.k)))
    distances = [d % period for d in distances]
    lift_past = max(pp.q ** (pp.t + 1) for pp in per_prime)
    idx = distances.index(max(distances))
    while distances[idx] <= lift_past:
        distances[idx] += period
    spec = CirculantSpec(period, tuple(distances))
    return ConstructionWitness(params, spec, tuple(per_prime), None)


def construct_perfect_coloring(params: ParamTriple) -> ConstructionWitness:
    """Full pipeline: distances, and for prime-power b + c a 0/1 tiling and colouring.

    Refuses exactly what construct_distances refuses. When b + c is not a
    prime power the result is construct_distances(params), no colouring.
    Otherwise the constructed group order is itself a prime power, so the
    prime-power tiling construction applies with multiplicity c, and the
    support of the resulting 0/1 tile coloured black is a perfect colouring.
    """
    verdict = _admitted(params)
    witness = _lifted_distances(params, verdict)
    if not verdict.prime_power_sum(params.color_sum):
        return _checked(witness)
    from .coloring import is_perfect_coloring, structured_tile, tiling_to_coloring
    from .tiling import construct_tiling_prime_power

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
    from .coloring import build_document

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
