"""Achievable distance values: which integers are sums of n p-th powers.

A token s is an achievable l_p distance power in Z^n exactly when s is a
sum of n p-th powers of nonnegative integers (zeros allowed).  With a
modulus q the coordinates are additionally capped at floor(q/2), which
is the p-Lee coordinate range.

Two independent routes are kept side by side: a dynamic-programming
reachability table that works for every (p, n, cap), and the classical
closed characterizations for squares (n = 2 via the two-squares theorem,
n = 3 via the 4^m(8k+7) exclusion, n >= 4 everything).  The test suite
cross-checks them against each other.
"""

from dataclasses import dataclass
from functools import lru_cache

from .intmath import factorize, iroot

__all__ = [
    "AchievabilityTable",
    "is_achievable",
    "enumerate_achievable",
    "sums_of_powers_reachable",
    "is_sum_of_two_squares",
    "is_sum_of_three_squares",
]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # binary digits -> table bytes


@lru_cache(maxsize=None)
def sums_of_powers_reachable(p, n, limit, cap=None):
    """bytes table t with t[s] = 1 iff s <= limit is a sum of n p-th powers.

    Coordinates run over 0, 1, ..., with an optional per-coordinate cap.
    This is the DP oracle; it never consults the closed-form routes.  The
    reachable sums are the set bits of one Python integer, and adding a
    coordinate ORs in that integer shifted by each p-th power, so each
    step is a bitset operation rather than a loop over sums.
    """
    if p < 1 or n < 1 or limit < 0:
        raise ValueError("need p >= 1, n >= 1, limit >= 0")
    top = iroot(limit, p)
    if cap is not None:
        top = min(top, cap)
    powers = [a**p for a in range(1, top + 1)]
    full = (1 << (limit + 1)) - 1
    reach = 1
    for _ in range(n):
        nxt = reach  # a coordinate may be zero
        for pw in powers:
            nxt |= reach << pw
        reach = nxt & full
    bits = format(reach, "b")[::-1].ljust(limit + 1, "0")
    return bits.encode("ascii").translate(_BIT_BYTES)


def is_sum_of_two_squares(s):
    """True iff every prime = 3 (mod 4) divides s to an even power."""
    if s < 0:
        return False
    if s == 0:
        return True
    return all(e % 2 == 0 for q, e in factorize(s).items() if q % 4 == 3)


def is_sum_of_three_squares(s):
    """True iff s is not of the form 4^m (8k + 7)."""
    if s < 0:
        return False
    while s % 4 == 0 and s > 0:
        s //= 4
    return s % 8 != 7


def _reach_limit(s):
    # round the table limit up so repeated queries share cached tables
    return max(1024, 1 << s.bit_length())


def is_achievable(p, n, s, q=None):
    """Whether s is an achievable distance power for (p, n), optionally mod q.

    Without a modulus, p = 2 uses the closed characterizations; every
    other case (and every case with a coordinate cap) goes through the
    DP table.
    """
    if s < 0:
        raise ValueError("distance power must be nonnegative")
    if q is not None:
        if q < 2:
            raise ValueError("modulus must be >= 2")
        cap = q // 2
        if s > n * cap**p:
            return False
        return sums_of_powers_reachable(p, n, _reach_limit(s), cap)[s] == 1
    if p == 2:
        if n == 1:
            return iroot(s, 2) ** 2 == s
        if n == 2:
            return is_sum_of_two_squares(s)
        if n == 3:
            return is_sum_of_three_squares(s)
        return True
    return sums_of_powers_reachable(p, n, _reach_limit(s))[s] == 1


@dataclass(frozen=True)
class AchievabilityTable:
    """All achievable distance powers up to a limit, for one (p, n, q)."""

    p: int
    n: int
    limit: int
    q: object
    achievable: tuple

    def __contains__(self, s):
        return s in set(self.achievable)

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "limit": self.limit,
            "q": self.q,
            "achievable": list(self.achievable),
        }


def enumerate_achievable(p, n, limit, q=None):
    """AchievabilityTable of every achievable s <= limit (DP route)."""
    cap = q // 2 if q is not None else None
    if q is not None and q < 2:
        raise ValueError("modulus must be >= 2")
    reach = sums_of_powers_reachable(p, n, limit, cap)
    vals = tuple(s for s in range(limit + 1) if reach[s])
    return AchievabilityTable(p, n, limit, q, vals)
