"""Linear codes over Z_q under p-Lee metrics, and their lattice lifts.

A code is the additive closure of its generator rows in Z_q^n.  Balls
inside Z_q^n are always measured with the p-Lee distance, never by
lifting to Z^n, so wraparound (2r >= q) is handled correctly.  The lift
is the preimage of the code under reduction mod q ("construction A");
packing radii transfer between the two exactly when 2r < q.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import distance_sets, intmath, lattices
from .geometry import INF, RadiusToken, plee_distance
from .lattices import IntegerLattice

__all__ = [
    "LinearCodeZq",
    "TransferCertificate",
    "LinftyVerdict",
    "construction_a",
    "code_minimum_distance",
    "code_packing_radius",
    "code_is_perfect",
    "transfer_packing_radius",
    "linfty_existence",
    "zq_ball",
]

CLOSURE_CAP = 10**6


@dataclass(frozen=True)
class LinearCodeZq:
    """Additive code in Z_q^n given by generator rows (residue vectors)."""

    q: int
    n: int
    generators: tuple

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("modulus must be >= 2")
        for g in self.generators:
            if len(g) != self.n or any(not (0 <= c < self.q) for c in g):
                raise ValueError(f"generator out of range for Z_{self.q}^{self.n}: {g!r}")

    @property
    def cardinality(self):
        """|C| via the index formula |C| * det(lift) = q^n."""
        det = construction_a(self).determinant
        total = self.q**self.n
        assert total % det == 0
        return total // det

    def codewords(self):
        """The full code as a sorted tuple (materialized, capped)."""
        return _closure(self.q, self.n, self.generators)

    def contains(self, w):
        return construction_a(self).contains(w)

    def to_json(self):
        return {"q": self.q, "n": self.n, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json(cls, obj):
        return cls(obj["q"], obj["n"], tuple(tuple(g) for g in obj["generators"]))


@lru_cache(maxsize=64)
def _closure(q, n, generators):
    if LinearCodeZq(q, n, generators).cardinality > CLOSURE_CAP:
        raise ValueError("code too large to materialize")
    seen = {(0,) * n}
    frontier = [(0,) * n]
    while frontier:
        w = frontier.pop()
        for g in generators:
            nxt = tuple((a + b) % q for a, b in zip(w, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def construction_a(code):
    """The lift: lattice of integer vectors reducing mod q into the code."""
    rows = list(code.generators) + [
        tuple(code.q if i == j else 0 for j in range(code.n)) for i in range(code.n)
    ]
    return IntegerLattice.from_rows(rows, code.n)


def code_minimum_distance(code, p):
    """Minimum p-Lee distance between distinct codewords (token or int-token)."""
    words = code.codewords()
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    zero = (0,) * code.n
    best = None
    for w in words:
        if w == zero:
            continue
        d = plee_distance(w, zero, code.q, p)
        val = d if isinstance(d, int) else d.power_value
        if best is None or val < best:
            best = val
    return RadiusToken(p, best)


def zq_ball(q, n, token):
    """Residue vectors of Z_q^n within p-Lee token radius of zero.

    The cardinality can differ from the Z^n ball count once 2r >= q.
    """
    p = token.p
    out = []
    vec = [0] * n

    def rec(i, budget):
        if i == n:
            out.append(tuple(vec))
            return
        for a in range(q):
            lee = min(a, q - a)
            cost = lee if p == INF else lee**p
            if p == INF:
                if cost <= token.power_value:
                    vec[i] = a
                    rec(i + 1, budget)
            elif cost <= budget:
                vec[i] = a
                rec(i + 1, budget - cost)
        vec[i] = 0

    rec(0, token.power_value)
    return sorted(out)


def _balls_disjoint(code, words, token):
    ball = zq_ball(code.q, code.n, token)
    zero = (0,) * code.n
    for c in words:
        if c == zero:
            continue
        for z in ball:
            d = plee_distance(z, c, code.q, token.p)
            val = d if isinstance(d, int) else d.power_value
            if val <= token.power_value:
                return False
    return True


def code_packing_radius(code, p):
    """Largest achievable token with pairwise disjoint balls around codewords."""
    words = code.codewords()
    if len(words) < 2:
        raise ValueError("packing radius needs at least two codewords")
    cap = code.q // 2
    limit = cap if p == INF else code.n * cap**p
    if p == INF:
        tokens = range(limit + 1)
    else:
        tokens = distance_sets.enumerate_achievable(p, code.n, limit, code.q).achievable
    total = code.q**code.n
    best = None
    for s in tokens:
        token = RadiusToken(p, s)
        if len(words) * len(zq_ball(code.q, code.n, token)) > total:
            break
        if not _balls_disjoint(code, words, token):
            break
        best = token
    assert best is not None  # s = 0 always packs
    return best


def code_is_perfect(code, p, token):
    """Exact cover check: every point of Z_q^n in exactly one codeword ball."""
    if p != INF and not distance_sets.is_achievable(p, code.n, token.power_value, code.q):
        raise ValueError(
            f"s={token.power_value} is not an achievable p-Lee power for "
            f"(p={p}, n={code.n}, q={code.q})"
        )
    words = code.codewords()
    ball = zq_ball(code.q, code.n, token)
    counts = {}
    for c in words:
        for b in ball:
            pt = tuple((x + y) % code.q for x, y in zip(c, b))
            counts[pt] = counts.get(pt, 0) + 1
            if counts[pt] > 1:
                return False
    return len(counts) == code.q**code.n


@dataclass(frozen=True)
class TransferCertificate:
    """Relation between a code's packing radius and its lift's.

    When 2r < q the two radii agree (and a perfect code lifts to a
    perfect lattice); otherwise nothing transfers and the lattice radius
    is reported independently.
    """

    code: LinearCodeZq
    p: object
    code_radius: RadiusToken
    condition_met: bool
    lattice_radius: object
    radii_equal: object
    code_perfect: object
    lattice_status: object

    def to_json(self):
        return {
            "code": self.code.to_json(),
            "p": "inf" if self.p == INF else self.p,
            "code_radius_s": self.code_radius.power_value,
            "condition_met": self.condition_met,
            "lattice_radius_s": None if self.lattice_radius is None else self.lattice_radius.power_value,
            "radii_equal": self.radii_equal,
            "code_perfect": self.code_perfect,
            "lattice_status": self.lattice_status,
        }


def transfer_packing_radius(code, p):
    """Certify the 2r < q transfer from code to lattice lift."""
    r = code_packing_radius(code, p)
    q = code.q
    if p == INF:
        condition = 2 * r.power_value < q
    else:
        condition = 2**p * r.power_value < q**p  # (2r)^p < q^p exactly
    lat = construction_a(code)
    if not condition:
        return TransferCertificate(code, p, r, False, None, None, None, None)
    lat_r = lattices.packing_radius(lat, p)
    perfect = code_is_perfect(code, p, r)
    status = None
    if perfect:
        status = lattices.verify_perfect(lat, p, r).status
    return TransferCertificate(
        code, p, r, True, lat_r, lat_r == r, perfect, status
    )


@dataclass(frozen=True)
class LinftyVerdict:
    """Existence answer for nontrivial perfect sup-metric codes over Z_q.

    They exist in every dimension exactly when q factors as b*m with
    b > 1 odd and m > 1; the witness is the Cartesian code generated by
    {b*e_i}, radius (b-1)/2.
    """

    q: int
    n: int
    exists: bool
    b: object
    m: object
    radius: object
    code: object

    def to_json(self):
        return {
            "q": self.q,
            "n": self.n,
            "exists": self.exists,
            "b": self.b,
            "m": self.m,
            "radius": self.radius,
            "code": self.code.to_json() if self.code else None,
        }


def linfty_existence(q, n):
    """Decide existence and build the Cartesian witness when possible.

    Among admissible factorizations q = b*m the smallest odd prime
    divisor is chosen for b, deterministically.
    """
    if q < 2 or n < 1:
        raise ValueError("need q >= 2, n >= 1")
    odd_primes = [f for f in intmath.factorize(q) if f % 2 == 1]
    b = min(odd_primes) if odd_primes else None
    if b is None or q // b < 2:
        return LinftyVerdict(q, n, False, None, None, None, None)
    m = q // b
    gens = tuple(tuple(b if i == j else 0 for j in range(n)) for i in range(n))
    code = LinearCodeZq(q, n, gens)
    r = (b - 1) // 2
    assert code.cardinality * (2 * r + 1) ** n == q**n
    return LinftyVerdict(q, n, True, b, m, r, code)
