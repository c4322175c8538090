"""Kernel-lattice search for lattice tilings by discrete balls.

A ball B tiles Z^n by translates of a lattice iff some Abelian group G
with |G| = |B| admits a homomorphism phi: Z^n -> G whose restriction to
B is a bijection; the tiling lattice is ker(phi).  Equivalently, some
lattice of index |B| meets B - B only at 0, and that lattice is the
kernel.  The search looks for the kernel directly, with no loop over
groups: each lattice stands for a whole Aut(G)-orbit of homomorphisms.

Every index-m sublattice of Z^n has exactly one lower-triangular Hermite
basis, row j = (h_0, ..., h_{j-1}, d_j) with d_0 * ... * d_{n-1} = m and
0 <= h_i < d_i.  The walk fixes the rows level by level:

* the diagonal d_j runs over the divisors of the index left, descending
  (the last level takes whatever remains);
* the row h runs over Z^j / L_{j-1} as canonical residues, in descending
  mixed-radix order (h_0 least significant);
* h is rejected when some v in B - B with top coordinate j has d_j | v_j
  and (v_j / d_j) h = v[:j] modulo L_{j-1}, for then v lies in the
  lattice.

Each node of the walk (the rows fixed so far) tabulates B - B once, for
all its diagonals, by residue index: each prefix u = v[:j] of B - B is
reduced by the rows, top coordinate first, to its canonical residue, and
reach[idx] is the largest v_j over the prefixes whose residue has index
idx.  The test above is then reach[idx(y h)] >= y d_j for some y >= 1.
Along a run of h_0 (h_1, ..., h_{j-1} fixed) y h has index (y h_0 +
off_y) mod d_0 + d_0 R_y, with off_y and R_y from one reduction of
y (0, h_1, ..., h_{j-1}) per run, so a residue costs one lookup and, if
that passes, one lookup per multiple; under a cyclic prefix the scan is
one run with off_y = R_y = 0.  A node builds its table on the first
diagonal that B - B can reach, so a node whose first residue passes
outright never builds one.

The ball and B - B are invariant under signed permutations of the
coordinates.  One that moves only the first j coordinates maps the
completions of a node with rows L_j one to one onto those of the node
HNF(g L_j), so a node of 2 <= j <= n - 1 rows is skipped when such an
image comes earlier in walk order (the key d_0, d_1, idx_1, ..., larger
first): the walk has searched that subtree already.  Under a cyclic
prefix the earliest image is one sort away (_has_earlier_image).  The
first kernel in walk order is never skipped, so only candidates_examined
changes; Z^2 has no such node.

The first complete basis is the kernel, and the homomorphism is read off
it by lattices.quotient_map.  candidates_examined counts the diagonals
and residues examined, the rejected residues in bulk, and the budget
bounds that count: a search that runs out records budget + 1.
"""

import contextlib
import itertools
from bisect import bisect_left
from collections import namedtuple
from functools import cache, reduce
from math import gcd, prod

from . import distance_sets, lattices
from .forkmap import ordered_map
from .geometry import RadiusToken, check_ball_size, check_difference_set_size
from .geometry import difference_set, enumerate_ball
from .intmath import divisors
from .lattices import IntegerLattice

__all__ = [
    "GroupHomomorphism",
    "TokenOutcome",
    "ClassificationReport",
    "search_homomorphisms",
    "classify",
]

DEFAULT_BUDGET = 10**7


class GroupHomomorphism(namedtuple("GroupHomomorphism", "factors images")):
    """phi: Z^n -> G determined by the images of the standard basis.

    G is the Abelian group Z_d1 x Z_d2 x ... with factors the invariant
    chain d_1 | d_2 | ... (each > 1; the trivial group has an empty
    chain), and each image is a residue tuple, one component per factor.
    """

    __slots__ = ()

    def __new__(cls, factors, images):
        for a, b in itertools.pairwise(factors):
            if b % a:
                raise ValueError(f"not a divisibility chain: {factors}")
        if any(d < 2 for d in factors):
            raise ValueError("invariant factors must exceed 1")
        if any(len(g) != len(factors) for g in images):
            raise ValueError("image has wrong number of components")
        return super().__new__(cls, factors, images)

    @property
    def order(self):
        return prod(self.factors)

    def label(self):
        return " x ".join(f"Z_{d}" for d in reversed(self.factors)) or "Z_1"

    def to_json(self):
        return {
            "group_order": self.order,
            "group_factors": list(self.factors),
            "images": [list(g) for g in self.images],
        }


def _slices(reach, n):
    """B - B keyed by highest nonzero coordinate j, upper half, from its fibres.

    reach is DifferenceSet.reach: prefix u = v[:n-1] -> t, the fibre over
    u being [-t, t].  Level j maps each prefix u = v[:j] to its top, the
    largest v_j > 0 over v = (u, v_j, 0, ..., 0) in B - B: at level n - 1
    that is t itself, and below it the largest u[j] > 0 over the prefixes
    with u[j+1:] all zero.  The negated vectors add nothing (the lattice
    is symmetric), and B - B is an interval along every axis, so v_j runs
    over 1..top.  Each level is (tops, columns) with the prefixes by
    ascending (top, prefix), columns[i] their i-th coordinates.
    """
    out = [{} for _ in range(n)]
    out[n - 1] = {u: t for u, t in reach.items() if t}
    for u in reach:
        j = n - 2
        while j >= 0 and u[j] == 0:
            j -= 1
        if j >= 0 and u[j] > 0:
            out[j][u[:j]] = max(out[j].get(u[:j], 0), u[j])
    levels = []
    for j, level in enumerate(out):
        items = sorted(level.items(), key=lambda item: (item[1], item[0]))
        levels.append(([top for _, top in items], [[u[i] for u, _ in items] for i in range(j)]))
    return levels


def _residue(idx, radix):
    """The canonical residue of Z^j / L with mixed-radix index idx.

    radix holds the diagonals d_0, ..., d_{j-1} of L, and h_0 is the least
    significant digit, so descending idx is the walk order.
    """
    h = []
    for d in radix:
        idx, c = divmod(idx, d)
        h.append(c)
    return tuple(h)


class _Quotient:
    """Z^j / L for the Hermite rows fixed so far, keyed by residue index.

    reach[idx] is the largest top over the prefixes u of B - B at level j
    whose canonical residue has mixed-radix index idx (h_0 least
    significant, as the walk scans), 0 where there is none; tops below the
    least diagonal the node tests can reject nothing and are left out.  A
    prefix is reduced by the rows top coordinate first, column by column,
    and a unit diagonal costs no division.

    scan(hi, lo, d, ymax) returns the first index from hi down to lo whose
    row h passes under diagonal d, or -1.  It walks one run at a time, a
    run being one setting of h_1, ..., h_{j-1}.  Within a run y h reduces
    to index (y h_0 + off_y) mod d_0 + d_0 R_y, where off_y and R_y come
    from reducing y (0, h_1, ..., h_{j-1}), once per run for every y the
    node can test (_offsets); under a cyclic prefix they are 0, so y h is
    y h_0 mod d_0.
    """

    def __init__(self, rows, radix, level, least):
        self.rows, self.radix = tuple(rows), radix  # descend pushes and pops its rows
        self.inner = radix[0] if radix else 1  # the length of a run
        tops, columns = level
        start = bisect_left(tops, least)
        columns = [col[start:] for col in columns]
        keys = [0] * (len(tops) - start)
        for i in range(len(rows) - 1, -1, -1):
            d, quotients = radix[i], columns[i]
            if d > 1:
                quotients = [x // d for x in columns[i]]
                stride = prod(radix[:i])
                keys = [key + (x - q * d) * stride for key, x, q in zip(keys, columns[i], quotients)]
            for c, h in enumerate(rows[i][:i]):
                if h:
                    columns[c] = [x - q * h for x, q in zip(columns[c], quotients)]
        # ascending tops: the last write to a key is its largest top
        self.reach = [0] * prod(radix)
        for key, top in zip(keys, tops[start:]):
            self.reach[key] = top
        self.ymax = tops[-1] // least  # the most multiples any scan tests
        self.offsets = {}  # run -> _offsets(run)

    def _offsets(self, run):
        """(y, off_y, d_0 R_y) for y = 2 .. ymax, h_1, ..., h_{j-1} the digits of run."""
        if run not in self.offsets:
            rows, radix, inner = self.rows, self.radix, self.inner
            h = (0,) + _residue(run, radix[1:])
            out = []
            for y in range(2, self.ymax + 1):
                v, start = [y * c for c in h], 0
                for i in range(len(rows) - 1, 0, -1):
                    q, v[i] = divmod(v[i], radix[i])
                    start = start * radix[i] + v[i]
                    if q:
                        for c, hc in enumerate(rows[i][:i]):
                            v[c] -= q * hc
                out.append((y, v[0] % inner, start * inner))
            self.offsets[run] = out
        return self.offsets[run]

    def scan(self, hi, lo, d, ymax):
        reach, inner = self.reach, self.inner
        run, top = divmod(hi, inner)
        while True:
            base, multiples = run * inner, None
            for h0 in range(top, max(lo - base, 0) - 1, -1):
                if reach[base + h0] < d:
                    if multiples is None:
                        multiples = self._offsets(run)[:ymax - 1]
                    for y, off, start in multiples:
                        if reach[(y * h0 + off) % inner + start] >= y * d:
                            break
                    else:
                        return base + h0
            if base <= lo:
                return -1
            run, top = run - 1, inner - 1


@cache
def _lattice_count(k, m):
    """Index-m sublattices of Z^k: the sum over d_0 ... d_{k-1} = m of prod d_i^(k-1-i)."""
    if k <= 1:
        return int(k == 1 or m == 1)
    return sum(d ** (k - 1) * _lattice_count(k - 1, m // d) for d in divisors(m))


def _walk_key(basis):
    """(d_0, idx_0, d_1, idx_1, ...) of a Hermite basis; larger keys are walked first."""
    key = []
    for i, row in enumerate(basis):
        key += (row[i], reduce(lambda idx, k: idx * basis[k][k] + row[k], range(i - 1, -1, -1), 0))
    return key


def _prefix_order(rows, c):
    """The order of row c's prefix in Z^c / L, L spanned by the rows above it.

    Back substitution from the top coordinate: t h lies in L only if
    d_i | t v_i at each step, which forces the factor d_i / gcd(v_i, d_i).
    """
    order, v = 1, rows[c][:c]
    for i in range(c - 1, -1, -1):
        d = rows[i][i]
        g = d // gcd(v[i], d)
        q = v[i] * g // d
        order *= g
        v = [g * a - q * b for a, b in zip(v[:i], rows[i])]
    return order


def _has_earlier_image(rows):
    """Whether a signed permutation of the rows' coordinates maps their lattice
    to one whose Hermite basis comes earlier in walk order.

    A cyclic prefix (d_1 = ... = 1) is the kernel of u = (1, -h_1, ...,
    -h_{j-1}) mod d_0, so the least multiple of e_c in it is d_0 / gcd(u_c,
    d_0) <= d_0: only the images that send a unit u_c to coordinate 0 tie,
    and they are cyclic with rows (h'_t, 1), h'_t = +-u_s / u_c for the
    coordinate s sent to t.  The largest of them takes each h'_t as
    max(y, -y mod d_0) and puts those in descending order.

    Otherwise all images that send coordinate c to coordinate 0 share
    their d_0, the least multiple of e_c in the lattice: d_c times the
    order of row c's prefix modulo the rows above.  One such d_0 above the
    lattice's own decides at once, a group with a smaller one is ruled
    out, and the groups that tie are compared by Hermite forms.  The rule
    is the same for every number of rows, two included.
    """
    j = len(rows)
    d0 = rows[0][0]
    if all(row[-1] == 1 for row in rows[1:]):
        u = [1] + [-row[0] for row in rows[1:]]
        own = [row[0] for row in rows[1:]]
        for first in range(j):
            if gcd(u[first], d0) == 1:
                inv = pow(u[first], -1, d0)
                ys = (u[c] * inv % d0 for c in range(j) if c != first)
                if sorted((max(y, -y % d0) for y in ys), reverse=True) > own:
                    return True
        return False
    firsts = [rows[c][c] * _prefix_order(rows, c) for c in range(j)]
    if max(firsts) > d0:
        return True
    ties = [c for c in range(j) if firsts[c] == d0]
    basis = [row + (0,) * (j - len(row)) for row in rows]
    key = _walk_key(basis)
    for first in ties:
        others = [c for c in range(j) if c != first]
        images = (
            lattices.hermite_normal_form(
                [[row[first]] + [s * row[c] for s, c in zip(signs, perm)] for row in basis], j)
            for perm in itertools.permutations(others)
            for signs in itertools.product((1, -1), repeat=j - 1)
        )
        if any(_walk_key(image) > key for image in images):
            return True
    return False


def _find_kernel(n, m, slices, budget, counter):
    """The first index-m lattice in walk order meeting B - B only at 0, or None.

    Row h under diagonal d is rejected iff reach[idx(y h)] >= y d for
    some y >= 1, for then some prefix u = y h modulo the rows reaches
    y d, and (u, y d) in B - B lies in the lattice.  A node of 2 to n - 1
    rows with an earlier image (_has_earlier_image) is skipped.

    counter[0] counts the diagonals and residues examined, skipped nodes
    included, and an over-budget walk stops with counter[0] = budget + 1.
    counter[1] counts the index-m lattices ruled out, each rejected
    residue and skipped node by its completions, so an exhausted walk
    ends with the number of all index-m lattices.
    """
    rows = []
    max_tops = [tops[-1] if tops else 0 for tops, _ in slices]

    def spend(k):
        counter[0] += k
        if counter[0] > budget:
            counter[0] = budget + 1
            raise _BudgetExceeded

    def descend(j, rest):
        diagonals = [rest] if j == n - 1 else divisors(rest)[::-1]
        radix = [row[i] for i, row in enumerate(rows)]
        size = prod(radix)
        quotient = None  # built on the first diagonal that B - B can reach
        for d in diagonals:
            spend(1)
            # the index-m lattices below each row under d
            weight = (size * d) ** (n - 1 - j) * _lattice_count(n - 1 - j, rest // d)
            ymax = max_tops[j] // d
            if ymax and quotient is None:
                quotient = _Quotient(rows, radix, slices[j], diagonals[-1])
            idx = size - 1
            while idx >= 0:
                # examine at most the residues the budget has left
                lo = max(idx + 1 - (budget - counter[0]), 0)
                if ymax:
                    hit = quotient.scan(idx, lo, d, ymax)
                else:
                    hit = idx if idx >= lo else -1
                if hit < 0:
                    counter[1] += (idx + 1 - lo) * weight
                    # with lo > 0 the budget ran out first: one more residue exceeds it
                    spend(idx + 1 - lo + (lo > 0))
                    break
                counter[1] += (idx - hit) * weight
                spend(idx + 1 - hit)
                rows.append(_residue(hit, radix) + (d,))
                if j == n - 1:
                    return True
                if j and _has_earlier_image(rows):
                    counter[1] += weight
                elif descend(j + 1, rest // d):
                    return True
                rows.pop()
                idx = hit - 1
        return False

    if not descend(0, m):
        return None
    return IntegerLattice.from_rows([row + (0,) * (n - len(row)) for row in rows], n)


class _BudgetExceeded(Exception):
    pass


class TokenOutcome(namedtuple(
        "TokenOutcome",
        "n token status ball_size homomorphism kernel candidates_examined certificate")):
    """Result of the homomorphism search at one radius token.

    status is found, exhausted or inconclusive.  A found outcome carries
    the kernel's PERFECT certificate from lattices.verify_perfect, made
    by the search that found it; the others carry None.
    """

    __slots__ = ()

    @property
    def groups_tried(self):
        """The found quotient's invariant factors, as a one-entry tuple; () otherwise."""
        return (self.homomorphism.factors,) if self.homomorphism else ()

    def to_json(self):
        return {
            "n": self.n,
            "p": self.token.json_p(),
            "s": self.token.power_value,
            "status": self.status,
            "ball_size": self.ball_size,
            "groups_tried": [list(fs) for fs in self.groups_tried],
            "homomorphism": self.homomorphism.to_json() if self.homomorphism else None,
            "kernel": self.kernel.to_json() if self.kernel else None,
            "candidates_examined": self.candidates_examined,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def search_homomorphisms(n, token, budget=DEFAULT_BUDGET):
    """Search the index-mu_p(n, r) sublattices of Z^n for a tiling kernel.

    An unachievable token is refused with a ValueError: the packing
    radius of any code lies in the distance set, so nothing can be
    r-perfect there.  A found kernel is re-verified as a perfect code
    here, and an AssertionError is raised if it fails.  The Hermite walk
    is deterministic, so exhausted counts are reproducible.
    """
    s = token.power_value
    distance_sets.check_achievable(token.p, n, s)
    ball = enumerate_ball(n, token)
    m = ball.cardinality
    slices = _slices(difference_set(ball).reach, n)
    counter = [0, 0]
    try:
        kernel = _find_kernel(n, m, slices, budget, counter)
    except _BudgetExceeded:
        return TokenOutcome(n, token, "inconclusive", m, None, None, counter[0], None)
    if kernel is None:
        return TokenOutcome(n, token, "exhausted", m, None, None, counter[0], None)
    cert = lattices.verify_perfect(kernel, token.p, token)
    if not cert.is_perfect:
        raise AssertionError(f"kernel at s={s} failed re-verification")
    phi = GroupHomomorphism(*lattices.quotient_map(kernel.basis))
    return TokenOutcome(n, token, "found", m, phi, kernel, counter[0], cert)


class ClassificationReport(namedtuple("ClassificationReport", "outcomes")):
    """The outcomes of a sweep, one per achievable token, in token order."""

    __slots__ = ()

    @property
    def found_tokens(self):
        return tuple(o.token.power_value for o in self.outcomes if o.status == "found")


def classify(n, p, s_max, budget=DEFAULT_BUDGET, jobs=1):
    """Classify every achievable token 1 <= s <= s_max for (n, p).

    s = 0 is excluded as trivial (the ball is the origin and Z^n itself
    tiles).  jobs counts the processes that search, the caller included:
    the ascending tokens are dealt round-robin by forkmap.ordered_map, at
    most one process per token, and the outcomes come back in token
    order, so the report is the same for every jobs.  The first error in
    token order is raised, and any error stops and reaps the children.
    Ball sizes grow with s, so when the largest token fails the search's
    size guards, the least failing one, found by bisection, raises first.
    Each found kernel comes back certified by the process that searched
    it (search_homomorphisms).
    """
    tokens = [s for s in distance_sets.enumerate_achievable(p, n, s_max).achievable if s >= 1]

    def size_error(s):  # what the size guards of search_homomorphisms raise at s
        token = RadiusToken(p, s)
        try:
            check_ball_size(n, token)
            check_difference_set_size(n, token)
        except ValueError as exc:
            return exc
        return None

    if tokens and size_error(tokens[-1]):
        raise size_error(tokens[bisect_left(tokens, True, key=lambda s: bool(size_error(s)))])

    def search(s):  # by its global name, which tracers and tests may wrap
        return search_homomorphisms(n, RadiusToken(p, s), budget)

    with contextlib.closing(ordered_map(search, tokens, jobs)) as outcomes:
        return ClassificationReport(tuple(outcomes))
