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

Each node of the walk (the rows fixed so far) puts Z^j / L_{j-1} in
quotient coordinates once, for all its diagonals: the Smith form of the
rows gives an isomorphism phi onto Z_e1 x ... x Z_ek, packed into an
index below M = d_0 * ... * d_{j-1}, and a reach table maps phi(u), for
each prefix u = v[:j] of B - B, to the largest v_j over prefixes with
that image.  The test above is then reach[y phi(h)] >= y d_j for some
y >= 1: one list lookup and a few modular multiplications per residue,
on single ints when the quotient is cyclic.  A node builds its table on
the first diagonal that B - B can reach, so a node whose first residue
passes outright never builds one.

The ball and B - B are invariant under signed permutations of the
coordinates.  One that moves only the first j coordinates maps the
completions of a node with rows L_j one to one onto those of the node
HNF(g L_j), so a node of 2 <= j <= n - 1 rows is skipped when such an
image comes earlier in walk order (the key d_0, d_1, idx_1, ..., larger
first): the walk has searched that subtree already.  The first kernel in
walk order is never skipped, so only candidates_examined changes; Z^2
has no such node.

The first complete basis is the kernel, and the homomorphism is read off
it (kernel_homomorphism).  candidates_examined counts the diagonals and
residues examined, the rejected residues in bulk, and the budget bounds
that count: a search that runs out records budget + 1.
"""

import contextlib
import itertools
import json
import os
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import cache, reduce
from math import gcd, prod
from operator import mul

from . import distance_sets, lattices
from .geometry import INF, RadiusToken, difference_set, enumerate_ball
from .intmath import divisors, xgcd
from .lattices import IntegerLattice

__all__ = [
    "AbelianGroupSpec",
    "GroupHomomorphism",
    "TokenOutcome",
    "ClassificationReport",
    "kernel_homomorphism",
    "search_homomorphisms",
    "classify",
]

DEFAULT_BUDGET = 10**7


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Abelian group as an invariant-factor chain d_1 | d_2 | ... (each > 1).

    Elements are residue tuples.  The trivial group has an empty chain.
    """

    order: int
    factors: tuple

    def __post_init__(self):
        prod = 1
        for a, b in itertools.pairwise(self.factors):
            if b % a:
                raise ValueError(f"not a divisibility chain: {self.factors}")
        for d in self.factors:
            if d < 2:
                raise ValueError("invariant factors must exceed 1")
            prod *= d
        if prod != self.order:
            raise ValueError(f"factors {self.factors} do not multiply to {self.order}")

    @property
    def is_cyclic(self):
        return len(self.factors) <= 1

    @property
    def identity(self):
        return (0,) * len(self.factors)

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def scale(self, k, x):
        return tuple((k * c) % d for c, d in zip(x, self.factors))

    def label(self):
        return " x ".join(f"Z_{d}" for d in reversed(self.factors)) or "Z_1"


@dataclass(frozen=True)
class GroupHomomorphism:
    """phi: Z^n -> G determined by the images of the standard basis."""

    group: AbelianGroupSpec
    images: tuple

    def __post_init__(self):
        k = len(self.group.factors)
        for g in self.images:
            if len(g) != k:
                raise ValueError("image has wrong number of components")

    @property
    def n(self):
        return len(self.images)

    def apply(self, x):
        if len(x) != self.n:
            raise ValueError("dimension mismatch")
        acc = self.group.identity
        for xi, g in zip(x, self.images):
            acc = self.group.add(acc, self.group.scale(xi, g))
        return acc

    def to_json(self):
        return {
            "group_order": self.group.order,
            "group_factors": list(self.group.factors),
            "images": [list(g) for g in self.images],
        }

    @classmethod
    def from_json(cls, obj):
        spec = AbelianGroupSpec(obj["group_order"], tuple(obj["group_factors"]))
        return cls(spec, tuple(tuple(g) for g in obj["images"]))


def _slices(diffs, n):
    """Difference vectors keyed by highest nonzero coordinate j, upper half.

    Level j maps each prefix u = v[:j] to its top, the largest v_j > 0
    over v = (u, v_j, 0, ..., 0) in B - B; the negated vectors add
    nothing (the lattice is symmetric), and B - B is an interval along
    every axis, so v_j runs over 1..top.  Each level is (tops, columns)
    with the prefixes by ascending top, columns[i] their i-th coordinates.
    """
    out = [{} for _ in range(n)]
    for v in diffs:
        j = n - 1
        while j >= 0 and v[j] == 0:
            j -= 1
        if j >= 0 and v[j] > 0:
            out[j][v[:j]] = max(out[j].get(v[:j], 0), v[j])
    levels = []
    for j, level in enumerate(out):
        items = sorted(level.items(), key=lambda item: item[1])
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
    """Z^j / L for the Hermite rows fixed so far, in Smith coordinates.

    With U R V = diag(e_1, ..., e_j) the Smith form of the rows R,
    phi(x) = x V mod (e_1, ..., e_k) (the factors above 1) is an
    isomorphism onto Z_e1 x ... x Z_ek, packed into an index below
    M = d_0 ... d_{j-1} (e_1 least significant).  reach[phi(u)] is the
    largest top over the prefixes u of B - B at level j with that image,
    0 where there is none; tops below the least diagonal the node tests
    can reject nothing and are left out.

    scan(hi, lo, d, ymax) returns the first canonical residue index from
    hi down to lo whose row passes under diagonal d, or -1.  Along a run
    of h_0 (the higher digits fixed) phi steps by -phi(e_0), so each
    residue costs a lookup and, if that passes, a few multiplications;
    a cyclic quotient (k <= 1) does this on single ints mod M.
    """

    def __init__(self, rows, radix, level, least):
        j = len(rows)
        self.radix = radix
        factors, V = lattices._smith([row + (0,) * (j - len(row)) for row in rows])
        keep = [c for c, e in enumerate(factors) if e > 1]
        self.factors = [factors[c] for c in keep]
        self.order = prod(self.factors)
        self.images = [[row[c] % factors[c] for c in keep] for row in V]
        self.strides = [prod(self.factors[:c]) for c in range(len(keep))]
        tops, columns = level
        start = bisect_left(tops, least)
        columns = [col[start:] for col in columns]
        keys = [0] * (len(tops) - start)
        for c, (e, stride) in enumerate(zip(self.factors, self.strides)):
            comp = [0] * len(keys)
            for col, img in zip(columns, self.images):
                comp = [a + x * img[c] for a, x in zip(comp, col)]
            keys = [key + a % e * stride for key, a in zip(keys, comp)]
        # ascending tops: the last write to a key is its largest top
        self.reach = [0] * self.order
        for key, top in zip(keys, tops[start:]):
            self.reach[key] = top
        if len(keep) <= 1:
            self.gens = [img[0] if img else 0 for img in self.images] or [0]
            self.outer = list(zip(radix[1:], self.gens[1:]))
            self.scan = self._scan_cyclic
        else:
            self.scan = self._scan_general

    def _phi(self, x):
        return [sum(xi * img[c] for xi, img in zip(x, self.images)) % e
                for c, e in enumerate(self.factors)]

    def _scan_general(self, hi, lo, d, ymax):
        reach, factors, strides, radix = self.reach, self.factors, self.strides, self.radix
        inner, step = radix[0], self.images[0]
        block, top = divmod(hi, inner)
        while True:
            phi = self._phi(_residue(block * inner + top, radix))
            for h0 in range(top, max(lo - block * inner, 0) - 1, -1):
                if reach[sum(map(mul, phi, strides))] < d:
                    for y in range(2, ymax + 1):
                        key = sum(map(mul, [y * a % e for a, e in zip(phi, factors)], strides))
                        if reach[key] >= y * d:
                            break
                    else:
                        return block * inner + h0
                phi = [(a - s) % e for a, s, e in zip(phi, step, factors)]
            if block * inner <= lo:
                return -1
            block, top = block - 1, inner - 1

    def _scan_cyclic(self, hi, lo, d, ymax):
        M, reach = self.order, self.reach
        inner, g0 = (self.radix or [1])[0], self.gens[0]
        multiples = [(y, y * d) for y in range(2, ymax + 1)]
        block, top = divmod(hi, inner)
        while True:
            rest, base = block, top * g0
            for d_i, g_i in self.outer:
                rest, c = divmod(rest, d_i)
                base += c * g_i
            g = base % M
            for h0 in range(top, max(lo - block * inner, 0) - 1, -1):
                if reach[g] < d:
                    for y, yd in multiples:
                        if reach[y * g % M] >= yd:
                            break
                    else:
                        return block * inner + h0
                g = (g - g0) % M
            if block * inner <= lo:
                return -1
            block, top = block - 1, inner - 1


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

    Two rows (d0), (h, d1) have three images besides themselves, modulo -I:
    the flip of coordinate 1, (d0), (-h, d1), and the swap and the swap of
    the flip, (D0), (+-b, g) with g = gcd(d0, h) = u d0 + v h, D0 = d0 d1 / g
    and b = v d1.  With more rows, all images that send coordinate c to
    coordinate 0 share their d_0, the least multiple of e_c in the lattice:
    d_c times the order of row c's prefix modulo the rows above.  One such
    d_0 above the lattice's own decides at once, and a group with a smaller
    one is ruled out.  The groups that tie are compared in closed form when
    the prefix is cyclic (d_1 = ... = 1) and by Hermite forms otherwise.
    """
    j = len(rows)
    if j == 2:
        (d0,), (h, d1) = rows
        if -h % d0 > h:
            return True
        g, _, v = xgcd(d0, h)
        D0 = d0 * d1 // g
        b = v * d1 % D0
        return (D0, g, max(b, -b % D0)) > (d0, d1, h)
    d0 = rows[0][0]
    firsts = [rows[c][c] * _prefix_order(rows, c) for c in range(j)]
    if max(firsts) > d0:
        return True
    ties = [c for c in range(j) if firsts[c] == d0]
    if all(row[-1] == 1 for row in rows[1:]):
        # a cyclic prefix is the kernel of u = (1, -h_1, ..., -h_{j-1}) mod d0, and
        # e_c ties exactly when u_c is a unit; its images are cyclic too, with
        # rows (h'_t, 1), h'_t = -+u_s / u_c for the coordinate s sent to t
        u = [1] + [-row[0] for row in rows[1:]]
        own = tuple(row[0] for row in rows[1:])
        for first in ties:
            inv = pow(u[first], -1, d0)
            for perm in itertools.permutations([c for c in range(j) if c != first]):
                if tuple(max(y, -y % d0) for y in (u[c] * inv % d0 for c in perm)) > own:
                    return True
        return False
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

    Row h under diagonal d is rejected iff reach[y phi(h)] >= y d for
    some y >= 1, for then some prefix u with phi(u) = y phi(h) reaches
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


def kernel_homomorphism(kernel):
    """A homomorphism phi: Z^n -> Z^n / kernel with ker(phi) = kernel.

    For a Hermite diagonal (m, 1, ..., 1) the quotient is Z_m with
    e_0 -> 1 and e_j -> -h_j0; otherwise the group and images come from
    the Smith form (lattices.quotient_map).
    """
    m = kernel.determinant
    if m > 1 and kernel.basis[0][0] == m:
        images = ((1,),) + tuple(((-row[0]) % m,) for row in kernel.basis[1:])
        return GroupHomomorphism(AbelianGroupSpec(m, (m,)), images)
    factors, images = lattices.quotient_map(kernel)
    return GroupHomomorphism(AbelianGroupSpec(m, factors), images)


class _BudgetExceeded(Exception):
    pass


@dataclass(frozen=True)
class TokenOutcome:
    """Result of the homomorphism search at one radius token."""

    n: int
    token: RadiusToken
    status: str  # found | exhausted | inconclusive | skipped
    ball_size: int
    groups_tried: tuple
    homomorphism: object
    kernel: object
    candidates_examined: int
    certificate: object = None

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

    Unachievable tokens are skipped outright: the packing radius of any
    code lies in the distance set, so nothing can be r-perfect there.
    The Hermite walk is deterministic, so exhausted counts are
    reproducible.  groups_tried holds the found quotient's invariant
    factors, and is empty otherwise.
    """
    p = token.p
    s = token.power_value
    if p != INF and not distance_sets.is_achievable(p, n, s):
        return TokenOutcome(n, token, "skipped", 0, (), None, None, 0)
    ball = enumerate_ball(n, token)
    m = ball.cardinality
    slices = _slices(difference_set(ball).points, n)
    counter = [0, 0]
    try:
        kernel = _find_kernel(n, m, slices, budget, counter)
    except _BudgetExceeded:
        return TokenOutcome(n, token, "inconclusive", m, (), None, None, counter[0])
    if kernel is None:
        return TokenOutcome(n, token, "exhausted", m, (), None, None, counter[0])
    phi = kernel_homomorphism(kernel)
    return TokenOutcome(n, token, "found", m, (phi.group.factors,), phi, kernel, counter[0])


@dataclass(frozen=True)
class ClassificationReport:
    """Sweep of all achievable tokens up to s_max for fixed (n, p)."""

    n: int
    p: object
    s_max: int
    budget: int
    outcomes: tuple
    wall_time: float = 0.0  # informational; excluded from serialization

    @property
    def found_tokens(self):
        return tuple(o.token.power_value for o in self.outcomes if o.status == "found")

    def to_json_lines(self):
        return "".join(
            json.dumps(o.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
            for o in self.outcomes
        )

    def to_json(self):
        return {
            "n": self.n,
            "p": "inf" if self.p == INF else self.p,
            "s_max": self.s_max,
            "budget": self.budget,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def _classify_token(n, p, s, budget):
    return search_homomorphisms(n, RadiusToken(p, s), budget)


def _run_share(n, p, share, budget):
    """(outcomes, exception or None): the share's tokens in ascending order,
    up to the first one that raises."""
    outcomes = []
    try:
        for s in share:
            outcomes.append(_classify_token(n, p, s, budget))
    except Exception as exc:
        return outcomes, exc
    return outcomes, None


def _search_in_child(write_fd, n, p, share, budget):
    """Run a share in a forked child, pickle the result to write_fd, and exit.

    The child always leaves by os._exit, so nothing the parent buffered
    or registered (stdout, atexit, a test harness's capture) runs twice.
    It exits 0 only once the whole payload is written.
    """
    import pickle

    code = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(_run_share(n, p, share, budget)))
        code = 0
    finally:
        os._exit(code)


def _search_tokens(n, p, tokens, budget, jobs):
    """search_homomorphisms over the ascending tokens on up to `jobs` processes.

    The tokens, largest first, are dealt round-robin into k = min(jobs,
    #tokens) shares; the caller runs share 0 and a forked child each of
    the others.  Every share runs in ascending order and stops at its
    first exception, so the one of the least failing token, raised here,
    is the one a serial run raises.
    """
    k = max(1, min(jobs, len(tokens))) if hasattr(os, "fork") else 1
    order = tokens[::-1]
    shares = [sorted(order[i::k]) for i in range(k)]
    if k > 1:  # a serial run loads neither
        import pickle
        import signal
    children = []  # (pid, read end of its pipe) until reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _search_in_child(write_fd, n, p, share, budget)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        results = [_run_share(n, p, shares[0], budget)]
        while children:
            pid, pipe = children[0]
            payload = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if code != 0:
                raise RuntimeError(
                    f"a search process exited with {code} before reporting its tokens")
            results.append(pickle.loads(payload))
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    failures = [(share[len(outs)], exc) for share, (outs, exc) in zip(shares, results) if exc]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    by_s = {o.token.power_value: o for outs, _ in results for o in outs}
    return [by_s[s] for s in tokens]


def classify(n, p, s_max, budget=DEFAULT_BUDGET, jobs=1):
    """Classify every achievable token 1 <= s <= s_max for (n, p).

    s = 0 is excluded as trivial (the ball is the origin and Z^n itself
    tiles).  jobs counts the processes that search, the caller included;
    at most one runs per token, and without os.fork the caller searches
    alone.  Each found homomorphism's kernel is independently re-verified
    as a perfect code, and the certificate is attached.
    """
    if p == INF:
        tokens = list(range(1, s_max + 1))
    else:
        tokens = [
            s
            for s in distance_sets.enumerate_achievable(p, n, s_max).achievable
            if s >= 1
        ]
    outcomes = _search_tokens(n, p, tokens, budget, jobs)
    verified = []
    for out in outcomes:
        if out.status == "found":
            cert = lattices.verify_perfect(out.kernel, p, out.token)
            if not cert.is_perfect:
                raise AssertionError(
                    f"kernel at s={out.token.power_value} failed re-verification"
                )
            out = replace(out, certificate=cert)
        verified.append(out)
    return ClassificationReport(n, p, s_max, budget, tuple(verified))
