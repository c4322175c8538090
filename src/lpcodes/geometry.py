"""Exact geometry of l_p and Lee balls on the integer lattice.

Distances are never represented by floating point radii.  A radius is a
RadiusToken: for finite p the integer power value s = r**p, for the
sup metric the integer radius itself.  All set membership tests reduce
to integer comparisons, so balls, difference sets and overlap tests are
exact for any exponent and any size input.
"""

import itertools
import math
from collections import namedtuple

from .intmath import factorize, iroot

INF = math.inf

# enumerate_ball refuses larger balls, whose points would not fit in
# memory, and difference_set refuses a ball whose doubled ball (which
# contains B - B) is larger.  The sweeps stay well inside: n=4 up to its
# density cutoff s = 79 has 31,521 points and a doubled ball of 494,425.
MAX_BALL_POINTS = 10**6

__all__ = [
    "INF",
    "MAX_BALL_POINTS",
    "check_exponent",
    "norm_power",
    "RadiusToken",
    "DiscreteBall",
    "DifferenceSet",
    "lp_distance",
    "lee_distance",
    "plee_distance",
    "induced_distance_oracle",
    "check_ball_size",
    "enumerate_ball",
    "ball_cardinality",
    "difference_set",
    "balls_overlap",
    "superball_volume",
    "compare_root_sums",
]


def check_exponent(p):
    """p itself if it names a metric (an integer >= 1 or inf), else ValueError."""
    if p == INF:
        return INF
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise ValueError(f"exponent must be an integer >= 1 or inf, got {p!r}")
    return p


def _check_point(x):
    if not all(isinstance(c, int) for c in x):
        raise ValueError(f"lattice point must have integer coordinates: {x!r}")
    return tuple(x)


def norm_power(v, p):
    """|v|_p^p for finite p, |v|_inf = max |v_i| for p = inf: a token's power value."""
    if p == INF:
        return max(map(abs, v), default=0)
    return sum(abs(c) ** p for c in v)


class RadiusToken(namedtuple("RadiusToken", "p power_value")):
    """Exact radius: (p, s) encodes r = s**(1/p); (inf, r) encodes r itself.

    Tokens with equal p are totally ordered by their power value.

    >>> RadiusToken(2, 8).radius
    2.8284271247461903
    >>> RadiusToken.from_radius(3, 2).power_value
    8
    """

    __slots__ = ()

    def __new__(cls, p, power_value):
        check_exponent(p)
        if not isinstance(power_value, int) or power_value < 0:
            raise ValueError(f"power value must be a nonnegative integer, got {power_value!r}")
        return super().__new__(cls, p, power_value)

    @classmethod
    def from_radius(cls, p, r):
        """Token for an integer radius r in the given metric."""
        if not isinstance(r, int) or r < 0:
            raise ValueError("from_radius expects a nonnegative integer radius")
        return cls(p, r if p == INF else r**p)

    @property
    def radius(self):
        """Float view of the radius (for display only, never membership)."""
        if self.p == INF:
            return float(self.power_value)
        return self.power_value ** (1.0 / self.p)

    def floor_radius(self):
        """The integer part of the radius, exactly."""
        return self.power_value if self.p == INF else iroot(self.power_value, self.p)

    def integer_radius(self):
        """The radius as an int if it is one, else None."""
        r = self.floor_radius()
        return r if RadiusToken.from_radius(self.p, r) == self else None

    def doubled(self):
        """The token of twice the radius."""
        return RadiusToken(self.p, self.power_value * (2 if self.p == INF else 2**self.p))

    def json_p(self):
        return "inf" if self.p == INF else self.p


def lp_distance(x, y, p):
    """l_p distance between integer points, as a RadiusToken (p = inf too)."""
    p = check_exponent(p)
    x, y = _check_point(x), _check_point(y)
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return RadiusToken(p, norm_power([a - b for a, b in zip(x, y)], p))


def lee_distance(a, b, q):
    """Circular distance min((a-b) mod q, (b-a) mod q) on Z_q."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    if not (0 <= a < q and 0 <= b < q):
        raise ValueError("residues must lie in [0, q)")
    d = (a - b) % q
    return min(d, q - d)


def plee_distance(x, y, q, p):
    """p-Lee distance on Z_q^n, as a RadiusToken."""
    p = check_exponent(p)
    x, y = _check_point(x), _check_point(y)
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return RadiusToken(p, norm_power([lee_distance(a, b, q) for a, b in zip(x, y)], p))


def induced_distance_oracle(x, y, q, p, shift_bound=1):
    """Distance induced on Z_q^n by the l_p metric of Z^n, by brute force.

    Minimizes d_p(x + q*t, y + q*w) over all integer shift vectors t, w
    with entries in [-shift_bound, shift_bound].  The minimum separates
    per coordinate (coordinate i only sees delta_i = t_i - w_i), so the
    scan runs over delta in [-2*shift_bound, 2*shift_bound] coordinate by
    coordinate; the value is exactly the doubly-quantified minimum.
    """
    p = check_exponent(p)
    x, y = _check_point(x), _check_point(y)
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if q < 2 or shift_bound < 1:
        raise ValueError("need q >= 2 and shift_bound >= 1")
    deltas = range(-2 * shift_bound, 2 * shift_bound + 1)
    per_coord = [min(abs(a - b + q * d) for d in deltas) for a, b in zip(x, y)]
    return RadiusToken(p, norm_power(per_coord, p))


class DiscreteBall(namedtuple("DiscreteBall", "dimension radius points")):
    """All integer points within a token radius of the origin.

    radius is a RadiusToken.  Points are stored in lexicographic order;
    membership queries use the defining inequality, not the list.
    """

    __slots__ = ()

    @property
    def cardinality(self):
        return len(self.points)

    def contains(self, x):
        x = _check_point(x)
        if len(x) != self.dimension:
            return False
        return norm_power(x, self.radius.p) <= self.radius.power_value

    def to_json(self):
        return {
            "n": self.dimension,
            "p": self.radius.json_p(),
            "s": self.radius.power_value,
            "points": [list(pt) for pt in self.points],
        }


class DifferenceSet(namedtuple("DifferenceSet", "dimension source_radius points")):
    """The set B - B of pairwise differences of a ball's points.

    source_radius is the RadiusToken of that ball.
    """

    __slots__ = ()

    @property
    def cardinality(self):
        return len(self.points)

    def to_json(self):
        return {
            "n": self.dimension,
            "p": self.source_radius.json_p(),
            "s": self.source_radius.power_value,
            "points": [list(pt) for pt in self.points],
        }


def check_ball_size(n, token):
    """Raise ValueError when B_p^n(r) has more than MAX_BALL_POINTS points.

    Lists no point.  For finite p the ball holds the cube of half-side
    t = floor((s // n)^(1/p)), so a cube over the guard refuses at once
    with "at least (2t + 1)^n points"; otherwise the exact count decides.
    """
    cube = 0 if token.p == INF else (2 * iroot(token.power_value // n, token.p) + 1) ** n
    size = cube if cube > MAX_BALL_POINTS else ball_cardinality(n, token)
    if size > MAX_BALL_POINTS:
        raise ValueError(
            f"the ball n={n}, p={token.json_p()}, s={token.power_value} has "
            f"{'at least ' if size == cube else ''}{size} points, "
            f"more than MAX_BALL_POINTS = {MAX_BALL_POINTS}"
        )


def enumerate_ball(n, token):
    """DiscreteBall for B_p^n(r), points in lexicographic order.

    Raises ValueError, before listing any point, for a ball of more than
    MAX_BALL_POINTS points (see check_ball_size).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if not isinstance(token, RadiusToken):
        raise ValueError("radius must be a RadiusToken")
    check_ball_size(n, token)
    if token.p == INF:
        rng = range(-token.power_value, token.power_value + 1)
        pts = tuple(itertools.product(rng, repeat=n))
        return DiscreteBall(n, token, pts)
    p, s = token.p, token.power_value
    out = []
    # Prefixes grow one coordinate at a time while they leave some power
    # budget; a prefix that spends it all ends in zeros, so only prefixes
    # of points with a later nonzero coordinate are kept (at most |B|).
    power = [c**p for c in range(iroot(s, p) + 1)]
    zeros = (0,) * n
    live = [((), s)]
    for i in range(1, n):
        grown = []
        for head, budget in live:
            top = iroot(budget, p)
            for c in range(-top, top + 1):
                rest = budget - power[abs(c)]
                if rest:
                    grown.append((head + (c,), rest))
                else:
                    out.append(head + (c,) + zeros[i:])
        live = grown
    for head, budget in live:
        top = iroot(budget, p)
        out += [head + (c,) for c in range(-top, top + 1)]
    out.sort()
    return DiscreteBall(n, token, tuple(out))


def _positive_tuple_counts(kmax, s, p):
    """For k = 0..kmax, the number of k-tuples of positive integers whose
    p-th powers sum to at most s."""
    powers = [c**p for c in range(1, iroot(s, p) + 1)]
    sums = {0: 1}  # power sum -> positive tuples of the current length
    counts = [1]
    for k in range(1, kmax + 1):
        # the last coordinate of a k-tuple in closed form
        counts.append(sum(m * iroot(s - u, p) for u, m in sums.items()))
        if k == kmax:
            break
        grown = {}
        for u, m in sums.items():
            for w in powers:
                if u + w > s:
                    break
                grown[u + w] = grown.get(u + w, 0) + m
        sums = grown
    return counts


def ball_cardinality(n, token):
    """|B_p^n(r)| without listing points: a cube for p = inf, and otherwise
    the sum over the k <= min(n, s) nonzero coordinates of 2^k C(n, k)
    times the number of positive k-tuples whose p-th powers sum to at
    most s (their signs, their positions, and their absolute values).
    For the Lee ball (p = 1) that last number is C(s, k), the ways to
    split at most s into k positive parts; other p count it by power sums.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    s = token.power_value
    if token.p == INF:
        return (2 * s + 1) ** n
    kmax = min(n, s)
    if token.p == 1:
        positive = [math.comb(s, k) for k in range(kmax + 1)]
    else:
        positive = _positive_tuple_counts(kmax, s, token.p)
    return sum(2**k * math.comb(n, k) * m for k, m in enumerate(positive))


def difference_set(ball):
    """B - B as an explicit sorted point set.

    Every last-axis fibre of an l_p ball or a cube is a centred interval
    [-h_a, h_a] over its prefix a, so B - B holds (u, t) exactly when
    |t| <= max(h_a + h_b) over prefix pairs with a - b = u.  Only pairs
    of prefixes are visited, not pairs of points.

    Raises ValueError, before visiting any pair, when the ball of twice
    the radius, which contains B - B, has more than MAX_BALL_POINTS points.
    """
    n, token = ball.dimension, ball.radius
    bound = ball_cardinality(n, token.doubled())
    if bound > MAX_BALL_POINTS:
        raise ValueError(
            f"B - B of the ball n={n}, p={token.json_p()}, s={token.power_value} may have up to "
            f"{bound} points (the ball of twice the radius), more than MAX_BALL_POINTS = "
            f"{MAX_BALL_POINTS}"
        )
    heights = {}
    for *a, t in ball.points:
        a = tuple(a)
        heights[a] = max(heights.get(a, t), t)
    reach = {}
    for a, ha in heights.items():
        for b, hb in heights.items():
            u = tuple(x - y for x, y in zip(a, b))
            reach[u] = max(reach.get(u, 0), ha + hb)
    diffs = tuple(u + (t,) for u in sorted(reach) for t in range(-reach[u], reach[u] + 1))
    return DifferenceSet(ball.dimension, ball.radius, diffs)


def balls_overlap(v, n, token):
    """Whether B(0, r) and B(v, r) share an integer point.

    Equivalent to membership of v in difference_set of the ball, but
    decided by a small budget DP instead of materializing B - B.
    """
    v = _check_point(v)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    if token.p == INF:
        return all(abs(c) <= 2 * token.power_value for c in v)
    p, s = token.p, token.power_value
    top = iroot(s, p)
    if any(abs(c) > 2 * top for c in v):
        return False  # every ball coordinate lies in [-top, top]
    vpow = sum(abs(c) ** p for c in v)
    if vpow <= s:
        return True  # x = v, y = 0
    # best[u] = minimal sum |x_i - v_i|^p over x with sum |x_i|^p = u
    best = {0: 0}
    for c in v:
        nxt = {}
        for a in range(max(-top, c - top), min(top, c + top) + 1):
            du, dw = abs(a) ** p, abs(a - c) ** p
            if du > s or dw > s:
                continue
            for u, w in best.items():
                if u + du <= s and w + dw <= s:
                    key = u + du
                    if key not in nxt or nxt[key] > w + dw:
                        nxt[key] = w + dw
        best = nxt
        if not best:
            return False
    return True


def superball_volume(n, p):
    """Volume of the unit l_p ball in R^n: 2^n Gamma(1+1/p)^n / Gamma(1+n/p)."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if p == INF:
        return 2.0**n
    if p < 1:
        raise ValueError("exponent must be >= 1")
    return 2.0**n * math.gamma(1 + 1.0 / p) ** n / math.gamma(1 + n / p)


# ---------------------------------------------------------------------------
# exact comparison of sums of p-th roots of integers
# ---------------------------------------------------------------------------

def _canonical_radical(s, p):
    """Write s**(1/p) as k * b**(1/m) with b m-th-power-free and m minimal.

    Returns (k, b, m); for s in {0, 1} the radical part is trivial.
    """
    if s == 0:
        return 0, 1, 1
    fac = factorize(s)
    k = 1
    rest = {}
    for q, e in fac.items():
        k *= q ** (e // p)
        if e % p:
            rest[q] = e % p
    if not rest:
        return k, 1, 1
    g = p
    for e in rest.values():
        g = math.gcd(g, e)
    m = p // g
    b = 1
    for q, e in rest.items():
        b *= q ** (e // g)
    return k, b, m


def compare_root_sums(p, left, right):
    """Sign of sum(c*s**(1/p) for c, s in left) - same over right; exact.

    Terms are (coefficient, radicand) pairs with integer entries.  Shared
    radical parts are cancelled symbolically; a genuinely mixed-radical
    difference is resolved by escalating-precision evaluation (it is then
    a nonzero algebraic number, which at the sizes handled here separates
    from zero well before 1000 digits).  A sign is accepted only when the
    value exceeds the rounding error of the sum, which grows with the
    magnitude sum(|c| * b**(1/m)) of its terms.
    """
    if p == INF or p == 1:
        val = sum(c * s for c, s in left) - sum(c * s for c, s in right)
        return (val > 0) - (val < 0)
    acc = {}
    for sign, terms in ((1, left), (-1, right)):
        for c, s in terms:
            if s < 0:
                raise ValueError("radicands must be nonnegative")
            k, b, m = _canonical_radical(s, p)
            if c * k:
                acc[(b, m)] = acc.get((b, m), 0) + sign * c * k
    acc = {key: c for key, c in acc.items() if c}
    if not acc:
        return 0
    if len(acc) == 1:
        return 1 if next(iter(acc.values())) > 0 else -1
    import mpmath

    for dps in (60, 150, 400, 1000):
        with mpmath.workdps(dps):
            terms = [c * mpmath.root(b, m) for (b, m), c in acc.items()]
            val = mpmath.fsum(terms)
            scale = mpmath.fsum(abs(t) for t in terms)
            if abs(val) > scale * mpmath.mpf(10) ** (-(dps - 15)):
                return 1 if val > 0 else -1
    raise ArithmeticError(f"could not separate radical sum from zero: {acc}")
