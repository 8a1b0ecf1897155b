"""Primality: a deterministic Miller-Rabin test and the primes in a range.

Kept apart from ffield, so that a job that only checks a characteristic
or sweeps primes (count over a prime field, cm) loads no F_p[x] code.
"""

from .errors import check_int

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10^24.
    InvalidInput unless n is an int, so that 3.0 is refused, not prime."""
    if check_int("n", n) < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo, hi):
    """Primes p with lo <= p <= hi, ascending; InvalidInput unless lo and hi
    are ints."""
    return [p for p in range(max(check_int("lo", lo), 2), check_int("hi", hi) + 1)
            if is_prime(p)]
