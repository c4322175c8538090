"""Achievable distance values: which integers are sums of n p-th powers.

A token s is an achievable l_p distance power in Z^n exactly when s is a
sum of n p-th powers of nonnegative integers (zeros allowed).  With a
modulus q the coordinates are additionally capped at floor(q/2), which
is the p-Lee coordinate range.  For the sup metric s is the radius
itself, the largest coordinate, so every s is achievable, and with a
modulus every s <= floor(q/2).

Three exponents are decided in closed form: p = inf as above, p = 1
(every s, or every s <= n floor(q/2) with a modulus, since one
coordinate can carry any sum), and p = 2 without a modulus (n = 2 via
the two-squares theorem, n = 3 via the 4^m(8k+7) exclusion, n >= 4
everything).  Every other case goes through a dynamic-programming
reachability table, which works for every finite (p, n, cap) and is
the reference the test suite checks the closed forms against.  The
table, and the list of achievable s for every p, refuse limits above
MAX_REACH_LIMIT before they allocate.
"""

from collections import namedtuple
from functools import lru_cache

from .geometry import INF, exponent_json, norm_power
from .intmath import factorize, iroot

# Tables over this many sums cost n * limit**(1/p) shifts of a limit-bit
# integer and a limit-byte result, and lists of every s about 120 bytes per s.
# The suite and the sweeps stay far below: their largest table is 4,096.
MAX_REACH_LIMIT = 2**22

__all__ = [
    "MAX_REACH_LIMIT",
    "AchievabilityTable",
    "is_achievable",
    "check_achievable",
    "enumerate_achievable",
    "sums_of_powers_reachable",
    "is_sum_of_two_squares",
    "is_sum_of_three_squares",
]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # binary digits -> table bytes


def _check_limit(p, n, limit):
    if limit > MAX_REACH_LIMIT:
        raise ValueError(f"the distance table for p={p}, n={n} up to {limit} exceeds "
                         f"MAX_REACH_LIMIT = {MAX_REACH_LIMIT}")


@lru_cache(maxsize=None)
def sums_of_powers_reachable(p, n, limit, cap=None):
    """bytes table t with t[s] = 1 iff s <= limit is a sum of n p-th powers.

    Coordinates run over 0, 1, ..., with an optional per-coordinate cap.
    This is the DP oracle; it never consults the closed-form routes.  The
    reachable sums are the set bits of one Python integer, and adding a
    coordinate ORs in that integer shifted by each p-th power, so each
    step is a bitset operation rather than a loop over sums.

    Raises ValueError, before building anything, for a limit above
    MAX_REACH_LIMIT.
    """
    if p < 1 or n < 1 or limit < 0:
        raise ValueError("need p >= 1, n >= 1, limit >= 0")
    _check_limit(p, n, limit)
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


def _cap(q):
    """The largest p-Lee coordinate modulo q, None without a modulus."""
    if q is None:
        return None
    if q < 2:
        raise ValueError("modulus must be >= 2")
    return q // 2


def is_achievable(p, n, s, q=None):
    """Whether s is an achievable distance power for (p, n), optionally mod q.

    p = 1, p = inf and, without a modulus, p = 2 are decided in closed
    form; every other case goes through the DP table.
    """
    if n < 1:  # checked for every p: the closed forms would answer anyway
        raise ValueError("dimension must be >= 1")
    if s < 0:
        raise ValueError("distance power must be nonnegative")
    cap = _cap(q)
    if cap is not None and s > norm_power((cap,) * n, p):
        return False  # farther than the corner of the capped box
    if p in (1, INF):
        return True  # one coordinate, or a greedy fill of the cap, reaches s
    if cap is not None:
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


def check_achievable(p, n, s, q=None):
    """Refuse, with a ValueError, an s that is_achievable(p, n, s, q) rejects."""
    if not is_achievable(p, n, s, q):
        kind, group = ("distance", "") if q is None else ("p-Lee", f", q={q}")
        raise ValueError(f"s={s} is not an achievable {kind} power for (p={p}, n={n}{group})")


class AchievabilityTable(namedtuple("AchievabilityTable", "p n limit q achievable")):
    """All achievable distance powers up to a limit, for one (p, n, q)."""

    __slots__ = ()

    def to_json(self):
        return {
            "p": exponent_json(self.p),
            "n": self.n,
            "limit": self.limit,
            "q": self.q,
            "achievable": list(self.achievable),
        }


def enumerate_achievable(p, n, limit, q=None):
    """AchievabilityTable of every achievable s <= limit.

    p = 1 and p = inf list every s up to the corner of the capped box;
    every other p reads the DP table.  A negative limit, or one above
    MAX_REACH_LIMIT, is refused for every p.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    _check_limit(p, n, limit)
    cap = _cap(q)
    if p in (1, INF):
        vals = range((limit if cap is None else min(limit, norm_power((cap,) * n, p))) + 1)
    else:
        reach = sums_of_powers_reachable(p, n, limit, cap)
        vals = (s for s in range(limit + 1) if reach[s])
    return AchievabilityTable(p, n, limit, q, tuple(vals))
