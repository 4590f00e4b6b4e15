"""Reference checks that the benchmark applies to every output of the program.

Each check is a few lines of its own arithmetic and shares no code with
cyclotile: neighbour counts come from one packed big-integer product,
cyclotomic divisibility at prime-power indices from the fold rule, and
factorizations from sympy. A check returns None when the output holds and
a short reason string when it does not.
"""

from __future__ import annotations

from math import gcd


def period(b: int, c: int) -> int:
    """Group order of the construction: N for odd N, 2N for even N."""
    n = (b + c) // gcd(b, c)
    return n if n % 2 else 2 * n


def cyclic_convolution(a: list[int], b: list[int]) -> list[int]:
    """out[g] = sum over h of a[g - h] * b[h] on Z/P, exact for any integers.

    Both vectors are shifted to be nonnegative, packed into one integer
    each with a fixed byte width per entry, multiplied once, unpacked and
    folded mod P; the shift is then taken back out, since convolving with
    a constant vector K gives K times the other vector's sum everywhere.
    """
    p = len(a)
    ka, kb = -min(0, min(a)), -min(0, min(b))
    a2, b2 = [x + ka for x in a], [x + kb for x in b]
    width = ((max(a2) or 1) * (max(b2) or 1) * p).bit_length() // 8 + 1

    def pack(v):
        return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in v), "little")

    raw = (pack(a2) * pack(b2)).to_bytes(width * (2 * p), "little")
    out = [0] * p
    for i in range(2 * p - 1):
        out[i % p] += int.from_bytes(raw[i * width:(i + 1) * width], "little")
    sa, sb = sum(a), sum(b)
    return [x - ka * sb - kb * sa - ka * kb * p for x in out]


def neighbour_vector(p: int, distances) -> list[int]:
    """Multiplicity of each residue among the 2k neighbours of vertex 0."""
    d = [0] * p
    for l in distances:
        d[l % p] += 1
        d[-l % p] += 1
    return d


def other_colour_counts(p: int, distances, colors: str) -> list[tuple[bool, int]]:
    """Per vertex: whether it is Black, and how many neighbours it has of the other colour."""
    black = [1 if ch == "B" else 0 for ch in colors]
    blacks_seen = cyclic_convolution(neighbour_vector(p, distances), black)
    degree = 2 * len(distances)
    return [(bool(x), degree - seen if x else seen) for x, seen in zip(black, blacks_seen)]


def coloring_defect(p: int, distances, b: int, c: int, colors: str):
    """None when every Black vertex has b White and every White c Black neighbours."""
    if len(colors) != p or set(colors) - {"B", "W"}:
        return "colour string does not have length P over B/W"
    for g, (is_black, other) in enumerate(other_colour_counts(p, distances, colors)):
        if other != (b if is_black else c):
            return "%s vertex %d has %d neighbours of the other colour, not %d" % (
                "black" if is_black else "white", g, other, b if is_black else c)
    return None


def perfect_parameters(p: int, distances, colors: str):
    """The (b, c) that the colour vector is perfect for, or None."""
    counts = other_colour_counts(p, distances, colors)
    bs = {other for is_black, other in counts if is_black}
    cs = {other for is_black, other in counts if not is_black}
    if len(bs) != 1 or len(cs) != 1 or min(bs) < 1 or min(cs) < 1:
        return None
    return bs.pop(), cs.pop()


def structured_mask(p: int, distances, b: int, c: int) -> list[int]:
    """The structured tile of the graph, centred at 0 instead of at max distance.

    A cyclic shift changes neither which cyclotomics divide the mask nor
    which tiles convolve with it to a constant.
    """
    mask = neighbour_vector(p, distances)
    mask[0] += b + c - 2 * len(distances)
    return mask


def prime_power_cyclotomic_divides(values: list[int], q: int, t: int) -> bool:
    """Whether Phi_{q^t} divides the mask of a tile on Z/P, for q^t dividing P.

    Fold rule: reduce mod x^(q^t) - 1, then Phi_{q^t} divides exactly when
    the q values in each class modulo q^(t-1) are all equal.
    """
    n = q**t
    step = n // q
    folded = [0] * n
    for i, v in enumerate(values):
        folded[i % n] += v
    return all(len(set(folded[r::step])) == 1 for r in range(step))


def prime_power_product(values: list[int], factors: dict[int, int]) -> int:
    """Product of q over the prime powers q^t dividing P whose Phi_{q^t} divides the mask."""
    out = 1
    for q, e in factors.items():
        for t in range(1, e + 1):
            if prime_power_cyclotomic_divides(values, q, t):
                out *= q
    return out


def _factorint(n: int) -> dict[int, int]:
    from sympy import factorint

    return {int(q): int(t) for q, t in factorint(n).items()}


def admissibility(b: int, c: int, k: int) -> tuple[bool, list[tuple[int, int, int]]]:
    """The inequality b + c <= 2k + (b+c)/q^t at each prime q^t || N, with violations."""
    s = b + c
    violations = []
    for q, t in sorted(_factorint(s // gcd(b, c)).items()):
        bound = 2 * k + s // q**t
        if s > bound:
            violations.append((q, t, bound))
    return not violations, violations


def distance_certificate_defect(doc: dict, b: int, c: int, k: int):
    """None when a constructed document has the right period, k distances and passes
    the divisibility condition on the prime-power part of its spectrum."""
    p, distances = doc.get("P"), doc.get("distances")
    if p != period(b, c):
        return "P = %r, expected %d" % (p, period(b, c))
    if not isinstance(distances, list) or len(distances) != k or min(distances) < 0:
        return "expected %d nonnegative distances" % k
    if (doc.get("b"), doc.get("c")) != (b, c):
        return "document carries (b, c) = (%r, %r)" % (doc.get("b"), doc.get("c"))
    n = (b + c) // gcd(b, c)
    product = prime_power_product(structured_mask(p, distances, b, c), _factorint(p))
    if product % n:
        return "prime-power spectrum product %d is not divisible by N = %d" % (product, n)
    return None


def construct_defect(doc: dict, b: int, c: int, k: int, prime_power_sum: bool):
    """Checks for one `construct` output: certificate, and the colouring when b + c is a prime power."""
    bad = distance_certificate_defect(doc, b, c, k)
    if bad:
        return bad
    if prime_power_sum != ("colors" in doc):
        return "colouring present = %s for prime-power sum = %s" % ("colors" in doc, prime_power_sum)
    if prime_power_sum:
        return coloring_defect(doc["P"], doc["distances"], b, c, doc["colors"])
    return None


def multitiling_exists(values: list[int], m: int) -> bool:
    """The existence test: the mask sum divides m times the prime-power spectrum product."""
    total = sum(values)
    if total == 0:
        return False
    return (m * prime_power_product(values, _factorint(len(values)))) % total == 0


def is_multitiling(u: list[int], v: list[int], m: int) -> bool:
    return len(u) == len(v) and all(x == m for x in cyclic_convolution(u, v))


def rotate(colors: str) -> str:
    return colors[1:] + colors[:1]


def reflect(colors: str) -> str:
    """Vertex g goes to -g."""
    return colors[:1] + colors[:0:-1]


def complement(colors: str) -> str:
    return colors.translate(str.maketrans("BW", "WB"))


def periodic_colourings(p: int, distances) -> dict[tuple[int, int], set[str]]:
    """Every perfect colouring of Z/P that repeats with a period from 2 to 6, by its (b, c)."""
    found: dict[tuple[int, int], set[str]] = {}
    for r in range(2, 7):
        if p % r:
            continue
        for pattern in range(1, 2**r - 1):
            colors = "".join("B" if pattern >> i & 1 else "W" for i in range(r)) * (p // r)
            bc = perfect_parameters(p, distances, colors)
            if bc is not None:
                found.setdefault(bc, set()).add(colors)
    return found


def census_defect(p: int, distances, census: dict[tuple[int, int], list[str]]):
    """Every bucket holds perfect colourings only, is closed under rotation and
    reflection, and complementing bucket (b, c) gives bucket (c, b); and every
    perfect colouring of period at most 6 is in its bucket, so that no bucket
    the census should fill can be missing or empty."""
    for bc, cols in sorted(periodic_colourings(p, distances).items()):
        if not cols <= set(census.get(bc, ())):
            return "bucket %s misses a perfect colouring of period at most 6" % (bc,)
    for (b, c), cols in census.items():
        found = set(cols)
        if len(found) != len(cols):
            return "bucket %s repeats a colouring" % ((b, c),)
        for col in cols:
            bad = coloring_defect(p, distances, b, c, col)
            if bad:
                return "bucket %s: %s" % ((b, c), bad)
            if rotate(col) not in found or reflect(col) not in found:
                return "bucket %s is not closed under rotation and reflection" % ((b, c),)
        if {complement(col) for col in cols} != set(census.get((c, b), ())):
            return "bucket %s does not complement bucket %s" % ((b, c), (c, b))
    return None
