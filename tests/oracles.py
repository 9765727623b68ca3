"""Independent brute-force oracles for the test suite.

Deliberately naive and entirely separate from the package code paths:
plain coefficient lists, schoolbook products, direct enumeration.
"""

from math import comb


def naive_mul(a, b, n):
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def naive_inv(a, n):
    assert a[0] in (1, -1)
    out = [0] * n
    out[0] = a[0]
    for m in range(1, n):
        s = sum(a[k] * out[m - k] for k in range(1, min(m, len(a) - 1) + 1))
        out[m] = -a[0] * s
    return out


def naive_pow(a, k, n):
    out = [1] + [0] * (n - 1)
    for _ in range(k):
        out = naive_mul(out, a, n)
    return out


def naive_euler(m, n):
    """prod_{j>=1} (1 - q^(m j)) multiplied out binomial by binomial."""
    out = [1] + [0] * (n - 1)
    for j in range(1, n // m + 1):
        step = m * j
        for i in range(n - 1, step - 1, -1):
            out[i] -= out[i - step]
    return out


RR_TERMS = [(1, 1), (4, 1), (2, -1), (3, -1)]   # R(q) as residue classes mod 5


def naive_residue_product(modulus, terms, n):
    """prod over (r, e) in terms of prod_{j = r mod modulus, j >= 1} (1 - q^j)^e,
    numerator binomial by binomial, denominator inverted once at the end."""
    num = [1] + [0] * (n - 1)
    den = [1] + [0] * (n - 1)
    for r, e in terms:
        target = num if e > 0 else den
        for _ in range(abs(e)):
            for step in range(r, n, modulus):
                for i in range(n - 1, step - 1, -1):
                    target[i] -= target[i - step]
    return naive_mul(num, naive_inv(den, n), n)


def enum_partitions(n, max_part=None):
    if n == 0:
        yield ()
        return
    cap = min(max_part or n, n)
    for first in range(cap, 0, -1):
        for rest in enum_partitions(n - first, first):
            yield (first,) + rest


def partition_count(n):
    return sum(1 for _ in enum_partitions(n))


def crank_of(parts):
    ones = sum(1 for p in parts if p == 1)
    if ones == 0:
        return parts[0] if parts else 0
    return sum(1 for p in parts if p > ones) - ones


def crank_parity(n):
    return sum(-1 if crank_of(parts) % 2 else 1 for parts in enum_partitions(n))


def colored_count(n):
    total = 0
    for parts in enum_partitions(n):
        ways = 1
        for size in set(parts):
            if size % 2:
                ways *= comb(parts.count(size) + 2, 2)
        total += ways
    return total
