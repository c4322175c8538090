"""Group machinery kept only as the tests' cross-checks.

The search finds tiling kernels directly; these helpers go the other way,
from groups and homomorphisms to kernels, so the tests can compare the
two independently.  all_linear_codes lists the subgroups of Z_q^n that
the sup-metric existence criterion is checked against.  A group is its
invariant-factor chain d_1 | d_2 | ..., a tuple of ints, and its elements
are residue tuples.
"""

import itertools
from functools import reduce
from math import gcd, lcm, prod

from lpcodes.geometry import difference_set
from lpcodes.homsearch import GroupHomomorphism
from lpcodes.intmath import factorize
from lpcodes.lattices import IntegerLattice
from lpcodes.zqcodes import LinearCodeZq, construction_a


def encode(factors, x):
    """The mixed-radix index of element x (first factor least significant)."""
    idx = 0
    for c, d in zip(reversed(x), reversed(factors)):
        idx = idx * d + c
    return idx


def decode(factors, idx):
    """The element with mixed-radix index idx."""
    x = []
    for d in factors:
        idx, c = divmod(idx, d)
        x.append(c)
    return tuple(x)


def identity(factors):
    return (0,) * len(factors)


def add(factors, x, y):
    return tuple((a + b) % d for a, b, d in zip(x, y, factors))


def neg(factors, x):
    return tuple((-c) % d for c, d in zip(x, factors))


def scale(factors, k, x):
    return tuple((k * c) % d for c, d in zip(x, factors))


def apply(phi, x):
    """phi(x) = sum of x_i phi(e_i) in phi's group."""
    if len(x) != len(phi.images):
        raise ValueError("dimension mismatch")
    acc = identity(phi.factors)
    for xi, g in zip(x, phi.images):
        acc = add(phi.factors, acc, scale(phi.factors, xi, g))
    return acc


def homomorphism_from_json(obj):
    """The GroupHomomorphism that GroupHomomorphism.to_json wrote."""
    return GroupHomomorphism(tuple(obj["group_factors"]), tuple(tuple(g) for g in obj["images"]))


def element_order(factors, x):
    return reduce(lcm, (d // gcd(c, d) for c, d in zip(x, factors)), 1)


def elements(factors):
    return (decode(factors, i) for i in range(prod(factors)))


def _partitions(k):
    """Integer partitions of k, parts descending, lexicographically largest first."""
    if k == 0:
        yield ()
        return
    for first in range(k, 0, -1):
        for rest in _partitions(k - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def abelian_groups_of_order(m):
    """The invariant-factor chains of all Abelian groups of order m, cyclic first.

    Built by choosing a partition of each prime exponent and merging the
    prime-power blocks columnwise into an invariant-factor chain.  The
    list is ordered by descending factor profile, so Z_m always leads
    and square-free m yields exactly one group.
    """
    if m < 1:
        raise ValueError("order must be positive")
    primes = sorted(factorize(m).items())
    choices = [list(_partitions(e)) for _, e in primes]
    groups = []
    for combo in itertools.product(*choices):
        depth = max((len(parts) for parts in combo), default=0)
        chain = []
        for row in range(depth):
            d = 1
            for (p, _), parts in zip(primes, combo):
                if row < len(parts):
                    d *= p ** parts[row]
            chain.append(d)
        # chain is descending by construction; store ascending
        groups.append(tuple(reversed(chain)))
    groups.sort(key=lambda factors: sorted(factors, reverse=True), reverse=True)
    return groups


def is_bijective_on(phi, ball):
    """Whether phi restricted to the ball's points is a bijection onto G.

    With |G| = |ball| this reduces (pigeonhole) to injectivity, i.e.
    phi(v) != 0 for every nonzero difference v; unequal sizes are an
    immediate no.
    """
    if phi.order != ball.cardinality:
        return False
    zero = identity(phi.factors)
    for v in difference_set(ball).points:
        if any(v) and apply(phi, v) == zero:
            return False
    return True


def integer_row_echelon(rows):
    """(H, U, rank) with U unimodular, U @ rows = H in row echelon form.

    Rows of U beyond the rank are a basis of the integer left-nullspace.
    """
    A = [list(map(int, r)) for r in rows]
    m = len(A)
    ncols = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    pr = 0
    for c in range(ncols):
        live = [i for i in range(pr, m) if A[i][c]]
        while len(live) > 1:
            live.sort(key=lambda i: abs(A[i][c]))
            base = live[0]
            for i in live[1:]:
                q = A[i][c] // A[base][c]
                for j in range(ncols):
                    A[i][j] -= q * A[base][j]
                for j in range(m):
                    U[i][j] -= q * U[base][j]
            live = [i for i in live if A[i][c]]
        if not live:
            continue
        i0 = live[0]
        A[pr], A[i0] = A[i0], A[pr]
        U[pr], U[i0] = U[i0], U[pr]
        if A[pr][c] < 0:
            A[pr] = [-x for x in A[pr]]
            U[pr] = [-x for x in U[pr]]
        pr += 1
        if pr == m:
            break
    return A, U, pr


def kernel_lattice(phi):
    """Hermite basis of ker(phi) = {x in Z^n : phi(x) = 0}.

    Computed from the integer left-nullspace of the images stacked over
    diag(d_1..d_k): a relation (x, y) with x.M + y.D = 0 means exactly
    that phi(x) vanishes.  det equals |G| iff phi is surjective, so a
    smaller determinant is the caller's signal of a proper image.
    """
    n, factors = len(phi.images), phi.factors
    k = len(factors)
    if k == 0:
        return IntegerLattice.from_rows([[int(i == j) for j in range(n)] for i in range(n)], n)
    stacked = [list(g) for g in phi.images]
    stacked += [[factors[c] if j == c else 0 for j in range(k)] for c in range(k)]
    _, U, rank = integer_row_echelon(stacked)
    relations = [row[:n] for row in U[rank:]]
    return IntegerLattice.from_rows(relations, n)


def closure(code):
    """The code's words as a sorted tuple, by closing {0} under adding a
    generator: the reference that LinearCodeZq.codewords is checked against."""
    q, zero = code.q, (0,) * code.n
    seen, frontier = {zero}, [zero]
    while frontier:
        w = frontier.pop()
        for g in code.generators:
            nxt = tuple((a + b) % q for a, b in zip(w, g))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen))


def all_linear_codes(q, n):
    """The distinct additive codes of Z_q^n spanned by two generators (small q, n).

    Brute-force enumeration over all generator pairs, one code per lift
    (the lift's Hermite basis is canonical, so equal codes share it).  A
    subgroup of Z_q^n needs up to n generators, so the list holds every
    code only for n <= 2; that covers its use in validating the
    sup-metric existence criterion exhaustively in the plane and on the
    line.
    """
    seen = {}
    vectors = list(itertools.product(range(q), repeat=n))
    for g1 in vectors:
        for g2 in vectors:
            code = LinearCodeZq(q, n, (g1, g2))
            seen.setdefault(construction_a(code).basis, code)
    return list(seen.values())
