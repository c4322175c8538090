"""Small exact integer helpers shared across the package.

Everything here works on arbitrary-precision Python ints; nothing ever
goes through floating point.
"""

import math


def iroot(x, p):
    """Floor of the p-th root of a nonnegative integer, exactly.

    >>> iroot(26, 2), iroot(27, 3), iroot(1, 7)
    (5, 3, 1)
    """
    if x < 0:
        raise ValueError("iroot of negative number")
    if p == 1 or x in (0, 1):
        return x
    if p == 2:
        return math.isqrt(x)
    # bisection on bit length bounds; exact for any size
    hi = 1 << (x.bit_length() // p + 1)
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**p <= x:
            lo = mid
        else:
            hi = mid
    return lo


def factorize(n):
    """Prime factorization by trial division, as a {prime: exponent} dict."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n):
    """Sorted list of positive divisors."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
