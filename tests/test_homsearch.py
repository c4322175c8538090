"""Group homomorphism search: the tiling criterion made executable.

A lattice tiling of Z^n by a set P exists exactly when some Abelian
group of order |P| admits a homomorphism from Z^n that is bijective on
P; the tiling lattice is its kernel.  These tests pin down the search
outcomes for every radius the dimension-2 and dimension-3
classifications touch.
"""

import itertools
import json
import math
import os
import warnings

import pytest
from group_helpers import (
    abelian_groups_of_order,
    decode,
    element_order,
    elements,
    encode,
    is_bijective_on,
    kernel_lattice,
    neg,
)
from hypothesis import given, settings, strategies as st

from lpcodes import distance_sets, homsearch
from lpcodes.geometry import INF, RadiusToken, difference_set, enumerate_ball
from lpcodes.homsearch import (
    DEFAULT_BUDGET,
    AbelianGroupSpec,
    GroupHomomorphism,
    classify,
    kernel_homomorphism,
    search_homomorphisms,
)
from lpcodes.lattices import canonicalize, hermite_normal_form, smith_normal_form, verify_perfect


# ---------------------------------------------------------------- groups

def test_group_lists_by_order():
    def factors(m):
        return [g.factors for g in abelian_groups_of_order(m)]

    assert factors(1) == [()]
    assert factors(12) == [(12,), (2, 6)]
    assert factors(13) == [(13,)]
    assert factors(16) == [(16,), (2, 8), (4, 4), (2, 2, 4), (2, 2, 2, 2)]
    assert factors(25) == [(25,), (5, 5)]
    assert factors(27) == [(27,), (3, 9), (3, 3, 3)]


def test_group_lists_start_cyclic_and_chain_divides():
    for m in (4, 6, 8, 18, 36, 100):
        groups = abelian_groups_of_order(m)
        assert groups[0].factors == (m,)
        for g in groups:
            assert g.order == m
            for a, b in zip(g.factors, g.factors[1:]):
                assert b % a == 0


def test_group_element_arithmetic():
    g = AbelianGroupSpec(12, (2, 6))
    a, b = (1, 4), (1, 5)
    assert g.add(a, b) == (0, 3)
    assert neg(g, (1, 4)) == (1, 2)
    assert g.scale(5, (1, 4)) == (1, 2)
    assert element_order(g, (0, 1)) == 6
    assert element_order(g, (1, 0)) == 2
    assert element_order(g, g.identity) == 1
    assert len(list(elements(g))) == 12


@given(st.sampled_from([(6,), (2, 6), (4, 4), (3, 9)]), st.integers(0, 35))
@settings(max_examples=120, deadline=None)
def test_group_encode_decode_roundtrip(factors, i):
    g = AbelianGroupSpec(1, ()) if not factors else AbelianGroupSpec(
        int.__mul__(*factors) if len(factors) == 2 else factors[0], factors
    )
    i %= g.order
    assert encode(g, decode(g, i)) == i


def test_group_labels():
    assert AbelianGroupSpec(13, (13,)).label() == "Z_13"
    assert AbelianGroupSpec(12, (2, 6)).label() == "Z_6 x Z_2"


# -------------------------------------------------- single-token searches

# (n, p, s) -> (status, ball, candidates, group, images, kernel rows)
EXPECTED = {
    (2, 2, 1): ("found", 5, 5, (5,), ((1,), (2,)), ((5, 0), (3, 1))),
    (2, 2, 2): ("found", 9, 6, (9,), ((1,), (3,)), ((9, 0), (6, 1))),
    (2, 2, 4): ("found", 13, 8, (13,), ((1,), (5,)), ((13, 0), (8, 1))),
    (2, 2, 8): ("found", 25, 8, (25,), ((1,), (5,)), ((25, 0), (20, 1))),
    (3, 2, 1): ("found", 7, 9, (7,), ((1,), (2,), (3,)), ((7, 0, 0), (5, 1, 0), (4, 0, 1))),
    (3, 2, 3): ("found", 27, 16, (27,), ((1,), (3,), (9,)), ((27, 0, 0), (24, 1, 0), (18, 0, 1))),
}


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_search_finds_the_classified_homomorphisms(key):
    n, p, s = key
    status, ball, cand, group, images, kernel = EXPECTED[key]
    out = search_homomorphisms(n, RadiusToken(p, s))
    assert out.status == status
    assert out.ball_size == ball
    assert out.candidates_examined == cand
    assert out.homomorphism.group.factors == group
    assert out.homomorphism.images == images
    assert out.kernel.basis == kernel


def test_kernels_match_published_bases():
    published = {
        (2, 1): [(1, 2), (0, 5)],
        (2, 2): [(3, 2), (0, 3)],
        (2, 4): [(1, 5), (3, 2)],
        (2, 8): [(5, 4), (0, 5)],
        (3, 1): [(1, 0, 2), (0, 1, 4), (0, 0, 7)],
        (3, 3): [(3, 8, 0), (0, 3, 2), (0, 0, 3)],
    }
    for (n, s), rows in published.items():
        out = search_homomorphisms(n, RadiusToken(2, s))
        assert out.kernel == canonicalize(rows), (n, s)


def test_search_exhausts_off_classification():
    for s, ball, cand in ((5, 21, 38), (9, 29, 34), (10, 37, 42)):
        out = search_homomorphisms(2, RadiusToken(2, s))
        assert out.status == "exhausted"
        assert out.ball_size == ball
        assert out.candidates_examined == cand
        assert out.homomorphism is None and out.kernel is None


# ------------------------------------------- every index-m lattice, directly

def hermite_bases(n, m):
    """Every lower-triangular Hermite basis of index m in Z^n, built here
    independently of the search: diagonal d_j, entries 0 <= h_i < d_i."""
    out = []

    def extend(rows, rest):
        j = len(rows)
        if j == n:
            if rest == 1:
                out.append(rows)
            return
        for d in (d for d in range(1, rest + 1) if rest % d == 0):
            for h in itertools.product(*(range(row[i]) for i, row in enumerate(rows))):
                extend(rows + [h + (d,) + (0,) * (n - j - 1)], rest // d)

    extend([], m)
    return out


def test_hermite_bases_count_the_index_m_sublattices():
    def divs(m):
        return [d for d in range(1, m + 1) if m % d == 0]

    for m in range(1, 40):
        assert len(hermite_bases(2, m)) == sum(divs(m))  # sigma(m)
        expected = sum(d1 * d1 * d2 for d1 in divs(m) for d2 in divs(m // d1))
        assert len(hermite_bases(3, m)) == expected
    assert len(hermite_bases(3, 19)) == 381
    assert len({canonicalize(rows) for rows in hermite_bases(3, 12)}) == len(hermite_bases(3, 12))


@pytest.mark.parametrize("n, s_max", [(2, 20), (3, 2)])
def test_exhausted_tokens_have_no_perfect_lattice(n, s_max):
    # the certifier, not the walk, rejects every lattice of the right index
    exhausted = [o for o in classify(n, 2, s_max).outcomes if o.status == "exhausted"]
    assert exhausted
    for out in exhausted:
        for rows in hermite_bases(n, out.ball_size):
            cert = verify_perfect(canonicalize(rows), 2, out.token)
            assert not cert.is_perfect, (out.token, rows)


def test_kernel_homomorphism_of_a_non_cyclic_quotient():
    kernel = canonicalize([(3, 0), (0, 3)])
    phi = kernel_homomorphism(kernel)
    assert phi.group.factors == (3, 3)
    assert kernel_lattice(phi) == kernel
    assert is_bijective_on(phi, enumerate_ball(2, RadiusToken(INF, 1)))


def test_kernel_homomorphism_inverts_kernel_lattice():
    for n, m in ((2, 1), (2, 12), (3, 8), (3, 9)):
        for rows in hermite_bases(n, m):
            kernel = canonicalize(rows)
            phi = kernel_homomorphism(kernel)
            assert phi.group.order == m
            assert kernel_lattice(phi) == kernel, rows


def test_search_skips_unachievable_radii():
    for s in (3, 6, 7):
        out = search_homomorphisms(2, RadiusToken(2, s))
        assert out.status == "skipped"
        assert out.ball_size == 0 and out.candidates_examined == 0


def test_search_respects_budget():
    out = search_homomorphisms(2, RadiusToken(2, 25), budget=5)
    assert out.status == "inconclusive"
    assert out.candidates_examined >= 5


def test_search_sup_metric_square():
    out = search_homomorphisms(2, RadiusToken(INF, 1))
    assert out.status == "found"
    assert out.ball_size == 9
    assert out.kernel.determinant == 9


def test_found_homs_are_bijective_with_trivial_kernel_overlap():
    for n, p, s in EXPECTED:
        out = search_homomorphisms(n, RadiusToken(p, s))
        ball = enumerate_ball(n, RadiusToken(p, s))
        phi = out.homomorphism
        assert is_bijective_on(phi, ball)
        assert out.kernel.determinant == phi.group.order == ball.cardinality
        # no nonzero kernel vector may be a difference of two ball points
        diffs = set(difference_set(ball).points)
        hits = [v for v in diffs if any(v) and out.kernel.contains(v)]
        assert hits == []


def test_is_bijective_on_counterexample():
    g = AbelianGroupSpec(5, (5,))
    collapsing = GroupHomomorphism(g, ((1,), (1,)))  # kills (1, -1)
    assert not is_bijective_on(collapsing, enumerate_ball(2, RadiusToken(2, 1)))


def test_kernel_of_trivial_group_is_everything():
    g = AbelianGroupSpec(1, ())
    phi = GroupHomomorphism(g, ((), ()))
    assert kernel_lattice(phi).determinant == 1
    assert is_bijective_on(phi, enumerate_ball(2, RadiusToken(2, 0)))


def test_homomorphism_apply():
    g = AbelianGroupSpec(9, (9,))
    phi = GroupHomomorphism(g, ((1,), (3,)))
    assert phi.apply((2, 1)) == (5,)
    assert phi.apply((-1, 0)) == (8,)
    assert phi.apply((3, 2)) == (0,)


def test_homomorphism_json_roundtrip():
    out = search_homomorphisms(2, RadiusToken(2, 4))
    phi = out.homomorphism
    again = GroupHomomorphism.from_json(phi.to_json())
    assert again == phi


def brute_force_search(n, token):
    """Unreduced reference search: every image tuple of every group.

    Exponential; only for cross-validating the kernel walk on tiny cases.
    Returns the first homomorphism in lexicographic encode order, or None.
    """
    ball = enumerate_ball(n, token)
    diffs = [v for v in difference_set(ball).points if any(v)]
    for group in abelian_groups_of_order(ball.cardinality):
        zero = group.identity
        for combo in itertools.product(range(group.order), repeat=n):
            images = tuple(decode(group, i) for i in combo)
            phi = GroupHomomorphism(group, images)
            if all(phi.apply(v) != zero for v in diffs):
                return phi
    return None


def test_brute_force_agrees_on_small_tokens():
    for s in range(1, 11):
        token = RadiusToken(2, s)
        out = search_homomorphisms(2, token)
        if out.status == "skipped":
            continue
        brute = brute_force_search(2, token)
        assert (brute is not None) == (out.status == "found"), s
        if brute is not None:
            assert is_bijective_on(brute, enumerate_ball(2, token))


# ------------------------------------------ the walk against a plain copy

def reference_slices(diffs, n):
    """Level j maps each prefix u to the largest v_j > 0 over v = (u, v_j, 0, ...)."""
    out = [{} for _ in range(n)]
    for v in diffs:
        j = n - 1
        while j >= 0 and v[j] == 0:
            j -= 1
        if j >= 0 and v[j] > 0:
            out[j][v[:j]] = max(out[j].get(v[:j], 0), v[j])
    return [sorted(level.items()) for level in out]


def reference_reduce(w, rows):
    """Canonical residue of w in Z^j modulo the lower-triangular rows (0 <= w_i < d_i)."""
    w = list(w)
    for i in range(len(rows) - 1, -1, -1):
        c = w[i] // rows[i][i]
        if c:
            for k in range(i + 1):
                w[k] -= c * rows[i][k]
    return tuple(w)


def reference_residues(rows):
    """Canonical residues of Z^j / L, descending mixed radix (h_0 least significant)."""
    ranges = [range(row[-1] - 1, -1, -1) for row in reversed(rows)]
    return (h[::-1] for h in itertools.product(*ranges))


def reference_walk_key(basis):
    """(d_0, index_0, d_1, index_1, ...) of a Hermite basis, where index_i is
    row i's mixed-radix residue index (h_0 least significant).  The walk
    takes diagonals and residues in descending order, so it meets larger
    keys first."""
    key = []
    for i, row in enumerate(basis):
        index = sum(row[k] * math.prod(basis[l][l] for l in range(k)) for k in range(i))
        key += [row[i], index]
    return tuple(key)


def reference_images(rows):
    """Hermite bases of the rows' lattice under all 2^j j! signed permutations."""
    j = len(rows)
    basis = [row + (0,) * (j - len(row)) for row in rows]
    for perm in itertools.permutations(range(j)):
        for signs in itertools.product((1, -1), repeat=j):
            yield hermite_normal_form([[s * row[c] for s, c in zip(signs, perm)] for row in basis], j)


def reference_has_earlier_image(rows):
    """Whether some signed permutation maps the rows' lattice to one with a larger walk key."""
    key = reference_walk_key([row + (0,) * (len(rows) - len(row)) for row in rows])
    return any(reference_walk_key(image) > key for image in reference_images(rows))


class ReferenceBudgetExceeded(Exception):
    pass


def reference_search(n, token, budget, nodes, skipped=None):
    """(status, kernel rows, candidates) from the walk that reduces every
    residue and B - B prefix by the rows, one tick per diagonal and residue.
    A node of 2 to n - 1 rows whose lattice has an image under a signed
    permutation earlier in the walk is skipped after its tick.

    Appends to nodes the rows fixed at every node whose residues it scans,
    and to skipped the rows of every node it skips.
    """
    ball = enumerate_ball(n, token)
    slices = reference_slices(difference_set(ball).points, n)
    rows = []
    counter = [0]

    def tick():
        counter[0] += 1
        if counter[0] > budget:
            raise ReferenceBudgetExceeded

    def descend(j, rest):
        diagonals = [rest] if j == n - 1 else [d for d in range(rest, 0, -1) if rest % d == 0]
        for d in diagonals:
            tick()
            nodes.append(tuple(rows))
            targets = {}
            for u, top in slices[j]:
                if top >= d:
                    r = reference_reduce(u, rows)
                    for y in range(1, top // d + 1):
                        targets.setdefault(y, set()).add(r)
            direct = targets.pop(1, ())
            for h in reference_residues(rows):
                tick()
                if h in direct or any(
                    reference_reduce([y * c for c in h], rows) in hit for y, hit in targets.items()
                ):
                    continue
                rows.append(h + (d,))
                if j == n - 1:
                    return True
                if 2 <= len(rows) and reference_has_earlier_image(rows):
                    if skipped is not None:
                        skipped.append(tuple(rows))
                elif descend(j + 1, rest // d):
                    return True
                rows.pop()
        return False

    try:
        if not descend(0, ball.cardinality):
            return "exhausted", None, counter[0]
    except ReferenceBudgetExceeded:
        return "inconclusive", None, counter[0]
    return "found", tuple(row + (0,) * (n - len(row)) for row in rows), counter[0]


WALK_GRID = [
    (n, p, s)
    for n, p, s_max in ((2, 1, 10), (2, 2, 30), (2, 3, 40), (2, INF, 4),
                        (3, 1, 4), (3, 2, 9), (3, 3, 16), (3, INF, 2),
                        (4, 1, 2), (4, 2, 3))
    for s in range(1, s_max + 1)
]


def test_walk_matches_the_reference_walk():
    nodes, skipped = [], []
    for n, p, s in WALK_GRID:
        token = RadiusToken(p, s)
        if search_homomorphisms(n, token, budget=0).status == "skipped":
            continue
        for budget in (1, 2, 5, 37, 100, DEFAULT_BUDGET):
            status, rows, candidates = reference_search(n, token, budget, nodes, skipped)
            out = search_homomorphisms(n, token, budget=budget)
            assert (out.status, out.candidates_examined) == (status, candidates), (n, p, s, budget)
            assert (out.kernel.basis if out.kernel else None) == rows, (n, p, s, budget)
    # the grid passes through quotients Z^j / L that are not cyclic
    non_cyclic = {
        rows for rows in nodes
        if sum(f > 1 for f in smith_normal_form([row + (0,) * (len(rows) - len(row)) for row in rows])) > 1
    }
    assert ((5,), (0, 5)) in non_cyclic  # Lee n=3, s=2: Z_5 x Z_5
    # both kinds of skipped prefix occur: two rows (n >= 3) and three (n = 4)
    assert {len(rows) for rows in skipped} == {2, 3}


def test_one_prefix_per_signed_permutation_orbit():
    # the walk keeps exactly the basis with the largest walk key in each orbit
    for j, indices in ((2, range(1, 31)), (3, range(1, 11))):
        for index in indices:
            bases = [[row[:i + 1] for i, row in enumerate(rows)] for rows in hermite_bases(j, index)]
            kept = [rows for rows in bases if not homsearch._has_earlier_image(rows)]
            assert kept == [rows for rows in bases if not reference_has_earlier_image(rows)]
            orbits = {max(map(reference_walk_key, reference_images(rows))) for rows in bases}
            assert len(kept) == len(orbits), (j, index)


def test_prefix_order_gives_the_least_multiple_of_each_axis():
    # d_c times the order of row c's prefix is the first Hermite diagonal
    # of the lattice with coordinate c moved to the front
    for j, indices in ((3, range(1, 13)), (4, range(1, 7))):
        for index in indices:
            for basis in hermite_bases(j, index):
                rows = [row[:i + 1] for i, row in enumerate(basis)]
                for c in range(j):
                    moved = [[row[c]] + [x for i, x in enumerate(row) if i != c] for row in basis]
                    least = hermite_normal_form(moved, j)[0][0]
                    assert rows[c][c] * homsearch._prefix_order(rows, c) == least, (basis, c)


def test_cyclic_prefixes_keep_the_reference_rule():
    # cyclic prefixes (d_0, 1, ..., 1) skip by a closed form, not Hermite forms;
    # the orbit test reaches index 10 only, so take larger d_0 and four rows too
    kept = 0
    for j, d0s in ((3, (7, 12, 30)), (4, (7, 12))):
        for d0 in d0s:
            for h in itertools.product(range(d0), repeat=j - 1):
                rows = [(d0,)] + [(h[i - 1],) + (0,) * (i - 1) + (1,) for i in range(1, j)]
                skip = homsearch._has_earlier_image(rows)
                assert skip == reference_has_earlier_image(rows), rows
                kept += not skip
    assert kept > 0


def lattice_count(n, m):
    """Index-m sublattices of Z^n, straight from the Hermite diagonals:
    the sum over d_0 ... d_{n-1} = m of prod d_i^(n-1-i)."""
    if n == 0:
        return int(m == 1)
    return sum(d ** (n - 1) * lattice_count(n - 1, m // d) for d in range(1, m + 1) if m % d == 0)


def test_lattice_count_closed_forms():
    divs = [[d for d in range(1, m + 1) if m % d == 0] for m in range(61)]
    for m in range(1, 61):
        assert lattice_count(2, m) == sum(divs[m])  # sigma(m), OEIS A000203
    # OEIS A001001, the number of index-m sublattices of Z^3
    assert [lattice_count(3, m) for m in range(1, 13)] == [1, 7, 13, 35, 31, 91, 57, 155, 130, 217, 133, 455]
    for n, m in ((2, 12), (3, 8), (3, 9)):
        assert lattice_count(n, m) == len(hermite_bases(n, m))


@pytest.mark.parametrize("n, p, s_max", [(2, 2, 60), (3, 2, 24), (4, 2, 3), (3, 1, 6), (3, 3, 20)])
def test_exhausted_walks_rule_out_every_index_m_lattice(n, p, s_max):
    # every rejected residue and skipped prefix counts all its completions,
    # so an exhausted walk accounts for each index-m lattice exactly once
    exhausted = 0
    for s in range(1, s_max + 1):
        if not distance_sets.is_achievable(p, n, s):
            continue
        ball = enumerate_ball(n, RadiusToken(p, s))
        slices = homsearch._slices(difference_set(ball).points, n)
        counter = [0, 0]
        if homsearch._find_kernel(n, ball.cardinality, slices, DEFAULT_BUDGET, counter) is None:
            exhausted += 1
            assert counter[1] == lattice_count(n, ball.cardinality), s
    assert exhausted


@pytest.mark.parametrize("rows", [[(3,), (0, 3)], [(4,), (2, 2)], [(6,), (3, 3)], [(5,), (3, 2)]])
def test_quotient_scan_matches_reduction(rows):
    # prefixes in a box with assorted tops, as level 2 of some B - B in Z^3
    diffs = [(a, b, t) for a in range(-4, 5) for b in range(-4, 5)
             for t in range(1, 1 + (a * a + 3 * b * b + 2 * a) % 5)]
    level = homsearch._slices(diffs, 3)[2]
    tops = {}
    for a, b, t in diffs:
        tops[a, b] = max(tops.get((a, b), 0), t)
    radix = [rows[0][0], rows[1][1]]
    quotient = homsearch._Quotient(rows, radix, level, 1)
    assert quotient.order == radix[0] * radix[1]
    residues = list(reference_residues(rows))  # descending index order
    for d in (1, 2, 3):
        ymax = max(tops.values()) // d

        def passes(h):
            return not any(
                reference_reduce([y * c for c in h], rows) == reference_reduce(u, rows)
                for u, top in tops.items() for y in range(1, top // d + 1)
            )

        expected = [quotient.order - 1 - i for i, h in enumerate(residues) if passes(h)]
        got, hi = [], quotient.order - 1
        while (hit := quotient.scan(hi, 0, d, ymax)) >= 0:
            got.append(hit)
            hi = hit - 1
        assert got == expected, d


# ---------------------------------------------------------------- sweeps

def test_classify_dim2_small():
    report = classify(2, 2, 8)
    assert report.found_tokens == (1, 2, 4, 8)
    statuses = {o.token.power_value: o.status for o in report.outcomes}
    assert statuses == {1: "found", 2: "found", 4: "found", 5: "exhausted", 8: "found"}
    for o in report.outcomes:
        if o.status == "found":
            assert o.certificate is not None and o.certificate.is_perfect


def test_classify_dim3_small():
    report = classify(3, 2, 3)
    assert report.found_tokens == (1, 3)
    assert [o.token.power_value for o in report.outcomes] == [1, 2, 3]


def test_classify_l1_cross():
    report = classify(2, 1, 1)
    assert report.found_tokens == (1,)
    assert report.outcomes[0].homomorphism.images == ((1,), (2,))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_classify_parallel_matches_serial():
    # l2 n=2, l2 n=3, Lee n=2, and a budget that leaves tokens inconclusive
    windows = [((2, 2, 90), {}), ((3, 2, 24), {}), ((2, 1, 18), {}), ((3, 2, 24), {"budget": 50})]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for args, kwargs in windows:
            serial = classify(*args, **kwargs).to_json_lines()
            for jobs in (2, 3, 8):
                assert classify(*args, jobs=jobs, **kwargs).to_json_lines() == serial, (args, jobs)
    assert '"status":"inconclusive"' in serial and '"status":"found"' in serial
    assert_no_child_left()


def test_classify_forks_one_child_per_share_beyond_its_own(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    report = classify(2, 2, 4, jobs=64)  # tokens 1, 2 and 4
    assert len(report.outcomes) == 3 and len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("jobs", [2, 3])
def test_classify_raises_when_a_child_dies_without_reporting(monkeypatch, jobs):
    parent, search = os.getpid(), homsearch._classify_token

    def dies_at_9(n, p, s, budget):
        if s == 9 and os.getpid() != parent:
            os._exit(3)
        return search(n, p, s, budget)

    # tokens 1, 2, 4, 5, 8, 9, 10: s = 9 falls to the first child, and with
    # jobs=3 the second child is still unreaped when the parent raises
    monkeypatch.setattr(homsearch, "_classify_token", dies_at_9)
    with pytest.raises(RuntimeError, match="exited with 3"):
        classify(2, 2, 10, jobs=jobs)
    assert_no_child_left()


def test_classify_raises_the_least_failing_tokens_error(monkeypatch):
    search = homsearch._classify_token

    def fails_from_4(n, p, s, budget):
        if s >= 4:
            raise ValueError(f"token s={s}")
        return search(n, p, s, budget)

    monkeypatch.setattr(homsearch, "_classify_token", fails_from_4)
    for jobs in (1, 2, 3, 8):
        with pytest.raises(ValueError, match=r"^token s=4$"):
            classify(2, 2, 10, jobs=jobs)
    assert_no_child_left()


def test_classify_serialization_shape():
    report = classify(2, 2, 4)
    lines = report.to_json_lines().splitlines()
    assert len(lines) == len(report.outcomes)
    first = json.loads(lines[0])
    assert first["n"] == 2 and first["p"] == 2 and first["s"] == 1
    assert first["status"] == "found"
    assert list(first) == sorted(first)  # keys sorted for reproducible bytes
    obj = report.to_json()
    assert obj["s_max"] == 4 and len(obj["outcomes"]) == 3
