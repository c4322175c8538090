"""Full-rank sublattices of Z^n in exact integer arithmetic.

A lattice is held in canonical lower-triangular Hermite normal form
(positive diagonal, entries below the diagonal reduced modulo it), so
two descriptions of the same lattice compare equal.  Enumeration,
minimum distance, packing radius and the perfect-code certificate all
reduce to integer comparisons via RadiusToken power values.
"""

from bisect import bisect_right
from collections import namedtuple
from itertools import repeat
from operator import add, mul

from . import distance_sets
from .geometry import (
    INF,
    RadiusToken,
    balls_overlap,
    check_ball_size,
    check_exponent,
    compare_root_sums,
    norm_power,
)
from .intmath import iroot

__all__ = [
    "IntegerLattice",
    "PerfectCertificate",
    "hermite_normal_form",
    "quotient_map",
    "minimum_distance",
    "packing_radius",
    "radius_bracket",
    "verify_perfect",
]


def hermite_normal_form(rows, n):
    """Canonical lower-triangular HNF of the lattice generated by rows.

    Accepts any number of generators; raises ValueError if they do not
    span a rank-n lattice.
    """
    work = [list(map(int, r)) for r in rows]
    for r in work:
        if len(r) != n:
            raise ValueError(f"generator rows must have length {n}: {r}")
    pivots = [None] * n
    for col in range(n - 1, -1, -1):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                for j in range(n):
                    r[j] -= q * base[j]
            live = [r for r in live if r[col]]
        if not live:
            raise ValueError("generators do not span a rank-n lattice")
        piv = live[0]
        work.remove(piv)
        if piv[col] < 0:
            piv = [-x for x in piv]
        pivots[col] = piv
    basis = [pivots[i] for i in range(n)]
    # reduce entries below the diagonal into [0, diag)
    for i in range(n):
        for j in range(i - 1, -1, -1):
            q = basis[i][j] // basis[j][j]
            if q:
                for k in range(j + 1):
                    basis[i][k] -= q * basis[j][k]
    return tuple(tuple(r) for r in basis)


class IntegerLattice(namedtuple("IntegerLattice", "n basis determinant")):
    """A full-rank sublattice of Z^n with canonical HNF basis rows."""

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows, n=None):
        """The lattice spanned by an arbitrary generating set, in Hermite form."""
        rows = [tuple(r) for r in rows]
        if n is None:
            if not rows:
                raise ValueError("empty generator list")
            n = len(rows[0])
        basis = hermite_normal_form(rows, n)
        det = 1
        for i in range(n):
            det *= basis[i][i]
        return cls(n, basis, det)

    def contains(self, v):
        v = list(v)
        if len(v) != self.n:
            return False
        for i in range(self.n - 1, -1, -1):
            d = self.basis[i][i]
            if v[i] % d:
                return False
            c = v[i] // d
            if c:
                for j in range(i + 1):
                    v[j] -= c * self.basis[i][j]
        return True

    def points_within(self, token):
        """All lattice points v with norm_power(v, token.p) <= token's power, sorted.

        Fixes the coefficient of one basis row per level, the last row
        first, so the depth is not bounded by Python's recursion limit.
        Row i is the last to touch coordinate i, so once its coefficient
        is chosen that coordinate y is final, and token.cost(|y|) must fit
        in the power the later coordinates left (Fincke-Pohst pruning).
        For p = inf every cost is 0, so the ball is the sup-norm box.
        """
        s, top = token.power_value, token.floor_radius()
        cost = [token.cost(y) for y in range(top + 1)]
        # (coordinates 0..i, still moved by rows up to i; final coordinates; power left)
        level = [((0,) * self.n, (), s)]
        for i in range(self.n - 1, 0, -1):
            row = self.basis[i]
            d = row[i]
            grown = []
            for head, tail, left in level:
                x, rest = head[i], head[:i]
                # the largest |y| that left allows
                b = top if left == s else bisect_right(cost, left) - 1
                for c in range(-((b + x) // d), (b - x) // d + 1):
                    y = x + c * d
                    moved = tuple(map(add, rest, map(mul, row, repeat(c)))) if c else rest
                    grown.append((moved, (y,) + tail, left - cost[abs(y)]))
            level = grown
        d = self.basis[0][0]
        out = []
        for (x,), tail, left in level:
            b = top if left == s else bisect_right(cost, left) - 1
            out += [(x + c * d,) + tail for c in range(-((b + x) // d), (b - x) // d + 1)]
        out.sort()
        return out

    def to_json(self):
        return {"n": self.n, "basis": [list(r) for r in self.basis]}

    @classmethod
    def from_json(cls, obj):
        return cls.from_rows(obj["basis"], obj["n"])


def _smith(rows):
    """(factors, V): Smith invariant factors and a unimodular column transform.

    U @ rows @ V = diag(factors) for some unimodular U; V is tracked by
    applying every column operation to the identity as well.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    ncols = len(A[0]) if m else 0
    V = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    everyrow = A + V  # column operations act on both
    t = 0
    factors = []
    while t < min(m, ncols):
        piv = None
        for i in range(t, m):
            for j in range(t, ncols):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        for row in everyrow:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            clean = True
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, ncols):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        clean = False
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for row in everyrow:
                        row[j] -= q * row[t]
                    if A[t][j]:
                        for row in everyrow:
                            row[t], row[j] = row[j], row[t]
                        clean = False
            if not clean:
                continue
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, ncols):
                    if A[i][j] % A[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # fold the offending row into the pivot row; the column pass
            # then replaces the pivot by a strictly smaller remainder
            for j in range(t, ncols):
                A[t][j] += A[offender][j]
        factors.append(abs(A[t][t]))
        t += 1
    return tuple(factors), V


def quotient_map(rows):
    """Isomorphism Z^n / L -> Z_{d_1} x ... x Z_{d_k} as (factors, images),
    L the lattice spanned by the rows (n columns, full rank).

    factors are the invariant factors above 1 (d_1 | d_2 | ...), and
    images[i] is the image of e_i.  Rows (m, 0, ..., 0) and (h_i, 0, ...,
    1, ...) with 1 in column i and m >= 1 span the kernel of x -> x_0 -
    h_1 x_1 - ... - h_{n-1} x_{n-1} mod m, so the quotient is Z_m with
    e_0 -> 1 and e_i -> -h_i.  Other rows go through the Smith form
    U B V = D of the rows B: x -> x V mod D sends L = Z^n B onto Z^n D,
    i.e. to 0.
    """
    m = rows[0][0] if rows else 0
    if m >= 1 and all(row[c] == int(c == i)
                      for i, row in enumerate(rows) for c in range(1, len(row))):
        if m == 1:
            return (), ((),) * len(rows)
        return (m,), ((1,),) + tuple((-row[0] % m,) for row in rows[1:])
    factors, V = _smith(rows)
    keep = [c for c, d in enumerate(factors) if d > 1]
    images = tuple(tuple(row[c] % factors[c] for c in keep) for row in V)
    return tuple(factors[c] for c in keep), images


def minimum_distance(lat, p):
    """Shortest nonzero vector length of the lattice, as a RadiusToken.

    Lists the lattice points within a doubling integer radius.  The first
    ball that holds a nonzero point holds every shorter one too, so its
    least power is exact.
    """
    p = check_exponent(p)
    radius = 1
    while True:
        ball = lat.points_within(RadiusToken.from_radius(p, radius))
        powers = [norm_power(v, p) for v in ball if any(v)]
        if powers:
            return RadiusToken(p, min(powers))
        radius *= 2


def _overlap_witness(lat, token):
    """The least nonzero lattice vector of B(r) - B(r), or None.

    B(r) - B(r) lies in B(2r), whose points come sorted.
    """
    for v in lat.points_within(token.doubled()):
        if any(v) and balls_overlap(v, lat.n, token):
            return v
    return None


def packing_radius(lat, p):
    """Largest achievable token r with all lattice-translated balls disjoint.

    The balls are disjoint exactly when no nonzero lattice vector lies in
    B(r) - B(r), which only grows with r.  The bracket
    floor((d-1)/2) <= r < d/2 + |1|_p/2, with |1|_p = n**(1/p) (1 for the
    sup metric), holds for every p, and every token from its upper end on
    overlaps.  So the scan runs upward over the achievable tokens from the
    lower end and stops at the first that overlaps, which lies below D/2
    with D = floor(d) + floor(|1|_p) + 2.  Both ends are integer radii and
    every comparison is between power values.
    """
    n = lat.n
    d = minimum_distance(lat, p).floor_radius()
    ones = RadiusToken(p, norm_power((1,) * n, p)).floor_radius()
    end = RadiusToken.from_radius(p, d + ones + 2)
    best = RadiusToken.from_radius(p, (d - 1) // 2)
    assert _overlap_witness(lat, best) is None, "the bracket's lower end overlaps"
    s = best.power_value + 1
    while RadiusToken(p, s).doubled().power_value < end.power_value:
        if distance_sets.is_achievable(p, n, s):
            token = RadiusToken(p, s)
            if _overlap_witness(lat, token) is not None:
                return best
            best = token
        s += 1
    raise AssertionError("no overlapping token below the bracket's upper end")


def radius_bracket(lat, p):
    """Exact check of floor((d-1)/2) <= r < d/2 + |1|_p/2, |1|_p = n**(1/p).

    Returns (lower_ok, upper_ok, d_token, r_token) with both comparisons
    decided exactly, in integer and radical arithmetic, for every p.
    """
    d = minimum_distance(lat, p)
    r = packing_radius(lat, p)
    lower_ok = RadiusToken.from_radius(p, (d.floor_radius() - 1) // 2).power_value <= r.power_value
    # 2 * r < d + |1|_p, all as p-th roots
    ones = norm_power((1,) * lat.n, p)
    upper_ok = compare_root_sums(p, [(2, r.power_value)], [(1, d.power_value), (1, ones)]) < 0
    return lower_ok, upper_ok, d, r


class PerfectCertificate(namedtuple(
        "PerfectCertificate", "status failed_condition witness_vector lattice token")):
    """Outcome of the perfect-code check for (lattice, p, r).

    PERFECT means determinant equals the ball cardinality and no nonzero
    lattice vector lies in B - B; by the counting argument the two
    conditions together are equivalent to the balls tiling Z^n.
    """

    __slots__ = ()

    @property
    def is_perfect(self):
        return self.status == "PERFECT"

    def to_json(self):
        return {
            "status": self.status,
            "failed_condition": self.failed_condition,
            "witness_vector": list(self.witness_vector) if self.witness_vector else None,
            "lattice": self.lattice.to_json(),
            "p": self.token.json_p(),
            "s": self.token.power_value,
        }


def verify_perfect(lat, p, token):
    """Certify whether lattice translates of B_p^n(r) tile Z^n.

    The ball holds the cube of half-side t = floor((s/n)^(1/p)) and lies
    in the cube of half-side floor(r), so a determinant outside
    (2t + 1)^n <= |B| <= (2 floor(r) + 1)^n fails on cardinality with no
    count.  Otherwise the ball is counted, and one of more than
    MAX_BALL_POINTS points is refused with check_ball_size's ValueError.
    """
    if token.p != p:
        raise ValueError("token exponent does not match p")
    n, s, det = lat.n, token.power_value, lat.determinant
    distance_sets.check_achievable(p, n, s)
    inner = s if p == INF else iroot(s // n, p)
    if (not (2 * inner + 1) ** n <= det <= (2 * token.floor_radius() + 1) ** n
            or det != check_ball_size(n, token)):
        return PerfectCertificate("NOT_PERFECT", "cardinality", None, lat, token)
    v = _overlap_witness(lat, token)
    if v is not None:
        return PerfectCertificate("NOT_PERFECT", "overlap", v, lat, token)
    return PerfectCertificate("PERFECT", None, None, lat, token)
