"""Exact geometry of l_p and Lee balls on the integer lattice.

Distances are never represented by floating point radii.  A radius is a
RadiusToken: for finite p the integer power value s = r**p, for the
sup metric the integer radius itself.  All set membership tests reduce
to integer comparisons, so balls, difference sets and overlap tests are
exact for any exponent and any size input.
"""

import contextlib
import functools
import math
from bisect import bisect_right
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
    "read_exponent",
    "exponent_json",
    "norm_power",
    "RadiusToken",
    "DiscreteBall",
    "DifferenceSet",
    "lp_distance",
    "lee_distance",
    "plee_distance",
    "induced_distance_oracle",
    "check_ball_size",
    "check_difference_set_size",
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
    if type(p) is not int:
        raise ValueError(f"exponent must be a positive integer or 'inf': {p!r}")
    if p < 1:
        raise ValueError("exponent must be >= 1")
    return p


def read_exponent(value):
    """The exponent outside input names: an int, its text, or inf/infty/infinity/oo."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infty", "infinity", "oo"):
            return INF
        with contextlib.suppress(ValueError):
            value = int(value)
    return check_exponent(value)


def exponent_json(p):
    """The JSON value of an exponent, which read_exponent reads back: p, or "inf"."""
    return "inf" if p == INF else p


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

    >>> RadiusToken(2, 8).floor_radius()
    2
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

    def cost(self, y):
        """The power a coordinate of absolute value y spends: y**p, or 0 for p = inf."""
        return 0 if self.p == INF else y**self.p

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
        return exponent_json(self.p)


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


def induced_distance_oracle(x, y, q, p):
    """Distance induced on Z_q^n by the l_p metric of Z^n, by brute force.

    Minimizes d_p(x + q*t, y + q*w) over shift vectors t, w with entries
    in {-1, 0, 1}, enough for residues in [0, q).  The minimum separates
    per coordinate (coordinate i only sees delta_i = t_i - w_i), so the
    scan runs over delta in [-2, 2] coordinate by coordinate.
    """
    p = check_exponent(p)
    x, y = _check_point(x), _check_point(y)
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    if q < 2 or not all(0 <= c < q for c in x + y):
        raise ValueError("residues must lie in [0, q) for a modulus q >= 2")
    per_coord = [min(abs(a - b + q * d) for d in range(-2, 3)) for a, b in zip(x, y)]
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
        return _points_json(self.dimension, self.radius, self.points)


class DifferenceSet(namedtuple("DifferenceSet", "dimension source_radius reach")):
    """The set B - B of pairwise differences of a ball's points, by fibres.

    source_radius is the RadiusToken of that ball.  reach maps each prefix
    u = v[:n-1] of B - B to the largest t with (u, t) in B - B; the fibre
    over u is the interval [-t, t].  points lists them in sorted order.
    """

    __slots__ = ()

    @property
    def points(self):
        reach = self.reach
        return tuple(u + (t,) for u in sorted(reach) for t in range(-reach[u], reach[u] + 1))

    @property
    def cardinality(self):
        return sum(2 * t + 1 for t in self.reach.values())

    def to_json(self):
        return _points_json(self.dimension, self.source_radius, self.points)


def _points_json(n, token, points):
    return {"n": n, "p": token.json_p(), "s": token.power_value,
            "points": [list(pt) for pt in points]}


def check_ball_size(n, token):
    """|B_p^n(r)|, or ValueError when it is more than MAX_BALL_POINTS points.

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
    return size


def check_difference_set_size(n, token):
    """Raise ValueError when the ball of twice the radius, which contains
    B - B, has more than MAX_BALL_POINTS points."""
    bound = ball_cardinality(n, token.doubled())
    if bound > MAX_BALL_POINTS:
        raise ValueError(
            f"B - B of the ball n={n}, p={token.json_p()}, s={token.power_value} may have up to "
            f"{bound} points (the ball of twice the radius), more than MAX_BALL_POINTS = "
            f"{MAX_BALL_POINTS}"
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
    s = token.power_value
    out = []
    # Prefixes grow one coordinate at a time while they leave some power
    # budget; a prefix that spends it all ends in zeros, so only prefixes
    # of points with a later nonzero coordinate are kept (at most |B|).
    power = [token.cost(y) for y in range(token.floor_radius() + 1)]
    zeros = (0,) * n
    live = [((), s)]
    for i in range(1, n):
        grown = []
        for head, budget in live:
            top = bisect_right(power, budget) - 1
            for c in range(-top, top + 1):
                rest = budget - power[abs(c)]
                if rest:
                    grown.append((head + (c,), rest))
                else:
                    out.append(head + (c,) + zeros[i:])
        live = grown
    for head, budget in live:
        top = bisect_right(power, budget) - 1
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
    """B - B as a DifferenceSet: one interval per last-axis prefix.

    Every last-axis fibre of an l_p ball or a cube is a centred interval
    [-h_a, h_a] over its prefix a, so B - B holds (u, t) exactly when
    |t| <= max(h_a + h_b) over prefix pairs with a - b = u.  Only pairs
    of prefixes are visited, not pairs of points, each prefix coded as an
    int in signed digits of base 4 top + 1, so a - b is one subtraction.

    Raises ValueError, before visiting any pair, when the ball of twice
    the radius, which contains B - B, has more than MAX_BALL_POINTS points
    (check_difference_set_size).
    """
    n, token = ball.dimension, ball.radius
    check_difference_set_size(n, token)
    top = token.floor_radius()
    w = 4 * top + 1
    # the points are sorted, so a fibre [-h, h] starts with h's negative
    # and the next one 2h + 1 points later
    pts, coded, i = ball.points, [], 0
    while i < len(pts):
        h = -pts[i][-1]
        coded.append((functools.reduce(lambda key, c: key * w + c, pts[i][:-1], 0), h))
        i += 2 * h + 1
    reach = {}
    for ka, ha in coded:
        for kb, hb in coded:
            if reach.get(key := ka - kb, -1) < ha + hb:
                reach[key] = ha + hb
    fibres = {}
    for key, t in reach.items():
        u = []
        for _ in range(n - 1):
            key, c = divmod(key + 2 * top, w)
            u.append(c - 2 * top)
        fibres[tuple(u[::-1])] = t
    return DifferenceSet(n, token, fibres)


def balls_overlap(v, n, token):
    """Whether B(0, r) and B(v, r) share an integer point.

    Equivalent to membership of v in difference_set of the ball, but
    decided by a small budget DP instead of materializing B - B.
    """
    v = _check_point(v)
    if len(v) != n:
        raise ValueError("dimension mismatch")
    s, top = token.power_value, token.floor_radius()
    if any(abs(c) > 2 * top for c in v):
        return False  # every ball coordinate lies in [-top, top]
    if norm_power(v, token.p) <= s:
        return True  # x = v, y = 0
    cost = [token.cost(y) for y in range(top + 1)]
    # best[u] = minimal sum cost(x_i - v_i) over x with sum cost(x_i) = u
    best = {0: 0}
    for c in v:
        nxt = {}
        for a in range(max(-top, c - top), min(top, c + top) + 1):
            du, dw = cost[abs(a)], cost[abs(a - c)]
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
