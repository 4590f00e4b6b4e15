"""Plain helpers that tests compare the library against.

Coefficients are in ascending degree order, as in IntPolynomial.coeffs.
"""


def cyclic_fold(coeffs, modulus):
    """The P coefficients of f modulo x^P - 1: each exponent taken modulo P."""
    out = [0] * modulus
    for e, cf in enumerate(coeffs):
        out[e % modulus] += cf
    return out


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


def is_prime_power(n):
    """True when n = p^e for a prime p and e >= 1, by trial division; 1 is not one."""
    if n < 2:
        return False
    p = next(d for d in range(2, n + 1) if n % d == 0)  # the least prime factor
    while n % p == 0:
        n //= p
    return n == 1
