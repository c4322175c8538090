"""Linear codes over Z_q under p-Lee metrics, and their lattice lifts.

A code is the additive closure of its generator rows in Z_q^n, held
through its lift, the preimage of the code under reduction mod q
("construction A"): its words, cardinality and membership all come from
the lift's Hermite basis.  Balls inside Z_q^n are always measured with
the p-Lee distance, never by lifting to Z^n, so wraparound (2r >= q) is
handled correctly; packing radii transfer between code and lift exactly
when 2r < q.
"""

from collections import namedtuple

from . import distance_sets, intmath, lattices
from .geometry import MAX_BALL_POINTS, RadiusToken, norm_power, plee_distance
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


def _check_int(name, value):
    if type(value) is not int:  # the lift's Hermite form would truncate a float
        raise ValueError(f"{name} must be an integer: {value!r}")


class LinearCodeZq(namedtuple("LinearCodeZq", "q n generators")):
    """Additive code in Z_q^n given by generator rows (residue vectors)."""

    __slots__ = ()

    def __new__(cls, q, n, generators):
        _check_int("modulus", q)
        _check_int("dimension", n)
        if q < 2:
            raise ValueError("modulus must be >= 2")
        if n < 1:
            raise ValueError("dimension must be >= 1")
        for g in generators:
            for c in g:
                _check_int("generator entry", c)
            if len(g) != n or any(not (0 <= c < q) for c in g):
                raise ValueError(f"generator out of range for Z_{q}^{n}: {g!r}")
        return super().__new__(cls, q, n, generators)

    @property
    def cardinality(self):
        """|C| via the index formula |C| * det(lift) = q^n."""
        det = construction_a(self).determinant
        total = self.q**self.n
        assert total % det == 0
        return total // det

    def codewords(self):
        """The full code as a sorted tuple, each word once.

        The lift contains qZ^n, so its Hermite diagonals d_i divide q, and
        the sums of c_i times row i mod q, 0 <= c_i < q / d_i, list every
        word exactly once.  Raises ValueError, before listing any word,
        for a code of more than MAX_BALL_POINTS words.
        """
        q, n = self.q, self.n
        lift = construction_a(self)
        size = q**n // lift.determinant
        if size > MAX_BALL_POINTS:
            raise ValueError(
                f"the code has {size} words, more than MAX_BALL_POINTS = {MAX_BALL_POINTS}")
        words = [(0,) * n]
        for i, row in enumerate(lift.basis):
            steps = [tuple(c * x % q for x in row) for c in range(q // row[i])]
            words = [tuple((a + b) % q for a, b in zip(w, step)) for w in words for step in steps]
        return tuple(sorted(words))

    def contains(self, w):
        return construction_a(self).contains(w)

    def to_json(self):
        return {"q": self.q, "n": self.n, "generators": [list(g) for g in self.generators]}


def construction_a(code):
    """The lift: lattice of integer vectors reducing mod q into the code."""
    rows = list(code.generators) + [
        tuple(code.q if i == j else 0 for j in range(code.n)) for i in range(code.n)
    ]
    return IntegerLattice.from_rows(rows, code.n)


def code_minimum_distance(code, p):
    """Minimum p-Lee distance between distinct codewords, as a RadiusToken."""
    words = code.codewords()
    if len(words) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    zero = (0,) * code.n
    return RadiusToken(
        p, min(plee_distance(w, zero, code.q, p).power_value for w in words if w != zero)
    )


def zq_ball(q, n, token):
    """Residue vectors of Z_q^n within p-Lee token radius of zero, sorted.

    The cardinality can differ from the Z^n ball count once 2r >= q.
    Raises ValueError, before listing any word, for a ball of more than
    MAX_BALL_POINTS words.
    """
    s, top = token.power_value, token.floor_radius()
    # (residue, cost) pairs a coordinate may take
    allowed = [(a, token.cost(lee)) for a in range(q) if (lee := min(a, q - a)) <= top]
    # words of each length by the budget they leave; a longer word never
    # has fewer, so the count refuses as soon as it passes the guard
    left, size = {s: 1}, 1
    for _ in range(n):
        grown, size = {}, 0
        for budget, m in left.items():
            for _, c in allowed:
                if c <= budget:
                    grown[budget - c] = grown.get(budget - c, 0) + m
                    size += m
                    if size > MAX_BALL_POINTS:
                        raise ValueError(
                            f"the p-Lee ball q={q}, n={n}, p={token.json_p()}, s={s} has more "
                            f"than MAX_BALL_POINTS = {MAX_BALL_POINTS} words")
        left = grown
    # grow prefixes level by level; one whose budget buys no nonzero residue ends in zeros
    least = min((c for a, c in allowed if a), default=s + 1)
    zeros = (0,) * n
    out, live = [], [((), s)]
    for i in range(n):
        grown = []
        for head, budget in live:
            if budget < least:
                out.append(head + zeros[i:])
            else:
                grown += [(head + (a,), budget - c) for a, c in allowed if c <= budget]
        live = grown
    out += [head for head, _ in live]
    out.sort()
    return out


def _translates(code, words, ball):
    """The set of words c + b mod q, c a codeword and b in the ball, or
    None as soon as two balls around codewords share a word."""
    q = code.q
    covered = set()
    for c in words:
        shifted = {tuple((x + y) % q for x, y in zip(c, b)) for b in ball}
        if not covered.isdisjoint(shifted):
            return None
        covered |= shifted
    return covered


def code_packing_radius(code, p):
    """Largest achievable token with pairwise disjoint balls around codewords.

    Walks s upward over the powers achievable modulo q and stops at the
    first whose balls cannot fit (|C| |B| > q^n) or overlap; the ball at
    the diameter of Z_q^n is all of it, so the walk always stops.
    """
    q, n = code.q, code.n
    words = code.codewords()
    if len(words) < 2:
        raise ValueError("packing radius needs at least two codewords")
    best = RadiusToken(p, 0)  # s = 0 always packs
    s = 1
    while True:
        if distance_sets.is_achievable(p, n, s, q):
            ball = zq_ball(q, n, RadiusToken(p, s))
            if len(words) * len(ball) > q**n or _translates(code, words, ball) is None:
                return best
            best = RadiusToken(p, s)
        s += 1


def code_is_perfect(code, token):
    """Exact cover check: every point of Z_q^n in exactly one codeword ball.

    The power value must be achievable modulo q, or beyond the diameter of
    Z_q^n, where the ball is all of it.
    """
    q, n, (p, s) = code.q, code.n, token
    if s <= norm_power((q // 2,) * n, p):
        distance_sets.check_achievable(p, n, s, q)
    covered = _translates(code, code.codewords(), zq_ball(q, n, token))
    return covered is not None and len(covered) == q**n


class TransferCertificate(namedtuple(
        "TransferCertificate",
        "code p code_radius condition_met lattice_radius radii_equal code_perfect lattice_status")):
    """Relation between a code's packing radius and its lift's.

    When 2r < q the two radii agree (and a perfect code lifts to a
    perfect lattice); otherwise nothing transfers and the lattice radius
    is reported independently.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "code": self.code.to_json(),
            "p": self.code_radius.json_p(),
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
    condition = r.doubled().power_value < RadiusToken.from_radius(p, code.q).power_value
    lat = construction_a(code)
    if not condition:
        return TransferCertificate(code, p, r, False, None, None, None, None)
    lat_r = lattices.packing_radius(lat, p)
    perfect = code_is_perfect(code, r)
    status = None
    if perfect:
        status = lattices.verify_perfect(lat, p, r).status
    return TransferCertificate(
        code, p, r, True, lat_r, lat_r == r, perfect, status
    )


class LinftyVerdict(namedtuple("LinftyVerdict", "q n exists b m radius code")):
    """Existence answer for nontrivial perfect sup-metric codes over Z_q.

    They exist in every dimension exactly when q factors as b*m with
    b > 1 odd and m > 1; the witness is the Cartesian code generated by
    {b*e_i}, radius (b-1)/2.
    """

    __slots__ = ()


def linfty_existence(q, n):
    """Decide existence and build the Cartesian witness when possible.

    Among admissible factorizations q = b*m the smallest odd prime
    divisor is chosen for b, deterministically.
    """
    _check_int("modulus", q)
    _check_int("dimension", n)
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
