"""Plain helpers that tests compare the library against.

Coefficients are in ascending degree order, as in IntPolynomial.coeffs.
"""


def cyclic_fold(coeffs, modulus):
    """The P coefficients of f modulo x^P - 1: each exponent taken modulo P."""
    out = [0] * modulus
    for e, cf in enumerate(coeffs):
        out[e % modulus] += cf
    return out


def papers_structured_tile(modulus, distances, b, c):
    """The paper's x^M (A(x) + b + c - 2k) modulo x^P - 1 as its P values, M the largest distance.

    A(x) is the sum of x^l + x^-l over the distances, each exponent taken
    modulo P, collisions accumulating.
    """
    m = max(distances)
    values = [0] * modulus
    values[m % modulus] += b + c - 2 * len(distances)
    for l in distances:
        values[(m + l) % modulus] += 1
        values[(m - l) % modulus] += 1
    return values


def coefficient_sum(a, b):
    """The coefficients of f + g, as long as the longer of the two."""
    out = [0] * max(len(a), len(b))
    for i, cf in enumerate(a):
        out[i] += cf
    for i, cf in enumerate(b):
        out[i] += cf
    return out


def value_at(coeffs, point):
    """f(point), term by term."""
    return sum(cf * point**e for e, cf in enumerate(coeffs))


def direct_cover(u, v):
    """The P cover counts of v by tile u: at each g the sum of u(g - h) v(h) over every h."""
    p = len(u)
    out = []
    for g in range(p):
        total = 0
        for h in range(p):
            total += u[(g - h) % p] * v[h]
        out.append(total)
    return out


def split_sums(weights, full, bits):
    """{t: the block states whose bits h, weighted by a, sum to t} for the (h, a) in weights.

    A block state set is an int whose bit x stands for state x; full holds
    every state and bits[h] the states with bit h set. Each term splits
    every set in two: the states with bit h clear keep their sum, the
    states with bit h set add a to it.
    """
    sums = {0: full}
    for h, a in weights:
        ones = bits[h]
        zeros = full ^ ones
        out = {}
        for t, states in sums.items():
            keep = states & zeros
            if keep:
                out[t] = out.get(t, 0) | keep
            if keep != states:
                out[t + a] = out.get(t + a, 0) | states ^ keep
        sums = out
    return sums


def lift_period_by_period(distances, period, past):
    """distances with the first largest one raised one period at a time until it exceeds past."""
    out = list(distances)
    idx = out.index(max(out))
    while out[idx] <= past:
        out[idx] += period
    return out


def is_prime_power(n):
    """True when n = p^e for a prime p and e >= 1, by trial division; 1 is not one."""
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)  # the least prime factor
    while n % p == 0:
        n //= p
    return n == 1


# The paper's per-prime residue cases, one function per case, as first written.
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


def paper_residues(s, k, q, t):
    """The modulus and sorted residues of prime power q^t of N, by the paper's three cases."""
    if q > 2:
        return q**t, sorted(_residues_odd_prime(s, k, q, t))
    if (s // 2**t) % 2 == 0:
        return 2 ** (t + 1), sorted(_residues_even_quotient(s, k, t))
    return 2 ** (t + 1), sorted(_residues_odd_quotient(s, k, t))
