"""Linear codes over Z_q: balls, packing radii, perfection, lifting."""

import itertools
import random
import time

import pytest
from group_helpers import all_linear_codes, closure

from lpcodes import zqcodes
from lpcodes.geometry import INF, RadiusToken, plee_distance
from lpcodes.lattices import minimum_distance as lattice_min_distance
from lpcodes.lattices import packing_radius as lattice_packing_radius
from lpcodes.zqcodes import (
    LinearCodeZq,
    code_is_perfect,
    code_minimum_distance,
    code_packing_radius,
    construction_a,
    linfty_existence,
    transfer_packing_radius,
    zq_ball,
)

C13 = LinearCodeZq(13, 2, ((1, 5),))
C49 = LinearCodeZq(49, 2, ((1, 7),))
REP2_7 = LinearCodeZq(2, 7, ((1, 1, 1, 1, 1, 1, 1),))
C1_44 = LinearCodeZq(4, 4, ((2, 0, 0, 0),))
C2_44 = LinearCodeZq(4, 4, ((1, 1, 1, 1),))


# ----------------------------------------------------------- code basics

def test_cardinalities():
    assert C13.cardinality == 13
    assert C49.cardinality == 49
    assert REP2_7.cardinality == 2
    assert C1_44.cardinality == 2
    assert C2_44.cardinality == 4


def test_codewords_are_closed_under_addition():
    words = set(C2_44.codewords())
    assert words == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)}
    for a in words:
        for b in words:
            assert tuple((x + y) % 4 for x, y in zip(a, b)) in words


def test_membership():
    assert C13.contains((2, 10))
    assert C13.contains((3, 2))  # 3 * 5 = 15 = 2 (mod 13)
    assert not C13.contains((1, 4))


def test_rejects_bad_generators():
    with pytest.raises(ValueError):
        LinearCodeZq(13, 2, ((1, 5, 0),))
    with pytest.raises(ValueError):
        LinearCodeZq(1, 2, ((0, 0),))
    for residues in ((1, 13), (-1, 0)):
        with pytest.raises(ValueError):
            LinearCodeZq(13, 2, (residues,))


@pytest.mark.parametrize("n", [0, -1])
def test_rejects_dimension_below_1(n):
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        LinearCodeZq(13, n, ())


def test_json_roundtrip():
    obj = C49.to_json()
    assert LinearCodeZq(obj["q"], obj["n"], tuple(map(tuple, obj["generators"]))) == C49


def test_codewords_equal_the_generator_closure():
    for q in range(2, 9):
        for n in (1, 2):
            for code in all_linear_codes(q, n):
                assert code.codewords() == closure(code), code
    rng = random.Random(18)
    for _ in range(60):
        q = rng.randint(2, 12)
        gens = tuple(tuple(rng.randrange(q) for _ in range(3)) for _ in range(3))
        code = LinearCodeZq(q, 3, gens)
        words = code.codewords()
        assert words == closure(code) and len(words) == code.cardinality, code


def test_codewords_over_the_guard_are_refused_before_listing(monkeypatch):
    monkeypatch.setattr(zqcodes, "MAX_BALL_POINTS", 13)
    assert len(C13.codewords()) == 13
    monkeypatch.setattr(zqcodes, "MAX_BALL_POINTS", 12)
    with pytest.raises(ValueError, match="13 words, more than MAX_BALL_POINTS = 12"):
        C13.codewords()


# ----------------------------------------------------------------- balls

def test_zq_ball_no_wraparound_matches_free_ball():
    # 2r < q, so the Lee ball looks exactly like the Z^n ball
    assert len(zq_ball(13, 2, RadiusToken(2, 4))) == 13
    assert len(zq_ball(13, 2, RadiusToken(2, 1))) == 5


def test_zq_ball_wraparound():
    assert len(zq_ball(3, 2, RadiusToken(2, 2))) == 9  # all of Z_3^2
    assert len(zq_ball(2, 3, RadiusToken(1, 1))) == 4  # 0 and the three e_i
    assert len(zq_ball(2, 7, RadiusToken(1, 3))) == 64  # binomial tail


def test_zq_ball_agrees_with_distance_predicate():
    for q, n, token in ((5, 2, RadiusToken(1, 2)), (6, 2, RadiusToken(2, 4)), (4, 3, RadiusToken(INF, 1))):
        ball = set(zq_ball(q, n, token))
        import itertools

        for x in itertools.product(range(q), repeat=n):
            d = plee_distance(x, (0,) * n, q, token.p)
            assert (x in ball) == (d.power_value <= token.power_value), (q, n, token, x)


@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_zq_ball_is_the_sorted_list_of_words_within_the_radius(p):
    for q, n in ((2, 4), (3, 3), (4, 3), (5, 2), (6, 2), (7, 1)):
        words = list(itertools.product(range(q), repeat=n))
        for s in range(0, 2 * q**2):
            expect = [x for x in words if plee_distance(x, (0,) * n, q, p).power_value <= s]
            assert zq_ball(q, n, RadiusToken(p, s)) == expect, (q, n, s)


def test_zq_ball_in_dimension_1200():
    # more coordinates than Python's recursion limit: 0, e_i and -e_i = 2 e_i
    words = zq_ball(3, 1200, RadiusToken(1, 1))
    assert len(words) == 2401
    units = {tuple(c if k == i else 0 for k in range(1200)) for i in range(1200) for c in (1, 2)}
    assert set(words) == units | {(0,) * 1200}


@pytest.mark.parametrize("q, n, token", [
    (5, 10, RadiusToken(1, 10)),
    (3, 1000, RadiusToken(1, 3)),
    (3, 3000, RadiusToken(2, 5)),
    (1000, 3, RadiusToken(INF, 400)),
])
def test_zq_ball_over_the_guard_is_refused_before_listing(q, n, token):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="more than MAX_BALL_POINTS"):
        zq_ball(q, n, token)
    assert time.perf_counter() - start < 10


def test_zq_ball_guard_counts_words_exactly(monkeypatch):
    monkeypatch.setattr(zqcodes, "MAX_BALL_POINTS", 13)
    assert len(zq_ball(13, 2, RadiusToken(2, 4))) == 13
    monkeypatch.setattr(zqcodes, "MAX_BALL_POINTS", 12)
    with pytest.raises(ValueError, match="q=13, n=2, p=2, s=4"):
        zq_ball(13, 2, RadiusToken(2, 4))


# ----------------------------------------------- distances, packing radii

def test_minimum_distances():
    assert code_minimum_distance(C13, 2) == RadiusToken(2, 13)
    assert code_minimum_distance(C1_44, 2) == RadiusToken(2, 4)
    assert code_minimum_distance(C2_44, 2) == RadiusToken(2, 4)
    assert code_minimum_distance(C49, INF) == RadiusToken(INF, 7)
    assert code_minimum_distance(REP2_7, 1) == RadiusToken(1, 7)


def test_packing_radii():
    assert code_packing_radius(C13, 2) == RadiusToken(2, 4)
    assert code_packing_radius(C49, INF) == RadiusToken(INF, 3)
    assert code_packing_radius(REP2_7, 1) == RadiusToken(1, 3)
    assert code_packing_radius(C1_44, 2) == RadiusToken(2, 0)
    assert code_packing_radius(C2_44, 2) == RadiusToken(2, 1)


def brute_sup_packing_radius(code):
    """Largest r <= q // 2 whose sup-metric balls around the codewords are
    pairwise disjoint, by counting the codewords within r of every point."""
    q, n = code.q, code.n
    points = list(itertools.product(range(q), repeat=n))
    words = code.codewords()

    def disjoint(r):
        return all(sum(plee_distance(z, c, q, INF).power_value <= r for c in words) <= 1
                   for z in points)

    r = 0
    while r < q // 2 and disjoint(r + 1):
        r += 1
    return RadiusToken(INF, r)


def brute_packing_radius(code, p):
    """Largest power value s of a point of Z_q^n whose p-Lee balls around
    the codewords are pairwise disjoint: below the least s at which some
    point lies within s of two codewords."""
    q, n = code.q, code.n
    points = list(itertools.product(range(q), repeat=n))
    words = code.codewords()

    def power(z, c):
        return plee_distance(z, c, q, p).power_value

    clash = min(sorted(power(z, c) for c in words)[1] for z in points)
    return RadiusToken(p, max(power(z, (0,) * n) for z in points if power(z, (0,) * n) < clash))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_packing_radius_against_brute_force(p):
    for q in range(2, 8):
        for n in (1, 2):
            for code in all_linear_codes(q, n):
                if code.cardinality >= 2:
                    assert code_packing_radius(code, p) == brute_packing_radius(code, p), code


@pytest.mark.parametrize("q, p", [(2898, 2), (258, 3)])
def test_packing_radius_over_a_large_alphabet(q, p):
    # the radius is found long before the diameter of Z_q^2, where no
    # distance table reaches
    code = LinearCodeZq(q, 2, ((1, 3),))
    assert code_packing_radius(code, p) == RadiusToken(p, 2)
    assert not code_is_perfect(code, RadiusToken(p, 2))


def test_packing_radius_sup_metric_against_brute_force():
    for q in range(2, 8):
        for n in (1, 2):
            for code in all_linear_codes(q, n):
                if code.cardinality >= 2:
                    assert code_packing_radius(code, INF) == brute_sup_packing_radius(code), code


def test_packing_radius_of_full_code_is_zero():
    full = LinearCodeZq(5, 2, ((1, 0), (0, 1)))
    assert code_packing_radius(full, 2) == RadiusToken(2, 0)


# ------------------------------------------------------------ perfection

def test_perfect_codes():
    assert code_is_perfect(C13, RadiusToken(2, 4))
    assert code_is_perfect(C49, RadiusToken(INF, 3))
    assert code_is_perfect(REP2_7, RadiusToken(1, 3))
    assert code_is_perfect(C13, RadiusToken(1, 2))  # also the Lee-perfect code


def test_imperfect_codes():
    assert not code_is_perfect(C2_44, RadiusToken(2, 1))  # 4 * 9 != 256
    assert not code_is_perfect(C13, RadiusToken(2, 2))  # balls too small
    assert not code_is_perfect(C13, RadiusToken(2, 5))  # balls overlap
    assert not code_is_perfect(C13, RadiusToken(1, 3))  # a Lee token, checked as one


def test_perfect_equals_exact_cover():
    # certify the cover count route against direct enumeration
    import itertools

    token = RadiusToken(2, 4)
    covered = {}
    ball = zq_ball(13, 2, token)
    for c in C13.codewords():
        for b in ball:
            pt = tuple((x + y) % 13 for x, y in zip(c, b))
            covered[pt] = covered.get(pt, 0) + 1
    assert all(covered.get(v, 0) == 1 for v in itertools.product(range(13), repeat=2))


# ---------------------------------------------------------- lifted lattices

def test_construction_a_determinant():
    assert construction_a(C13).determinant == 13  # 13^2 / 13
    full = LinearCodeZq(5, 2, ((1, 0), (0, 1)))
    assert construction_a(full).determinant == 1
    zero = LinearCodeZq(5, 2, ())
    assert construction_a(zero).determinant == 25


def test_construction_a_minimum_distance_relation():
    # d_p of the lift is the smaller of d_p of the code and q (as tokens)
    rng = random.Random(31)
    for _ in range(40):
        q = rng.randint(2, 9)
        n = rng.randint(1, 2)
        gens = tuple(
            tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 2))
        )
        code = LinearCodeZq(q, n, gens)
        for p in (1, 2, INF):
            lifted = lattice_min_distance(construction_a(code), p)
            qpow = q if p == INF else q**p
            if code.cardinality == 1:
                assert lifted.power_value == qpow
            else:
                dcode = code_minimum_distance(code, p)
                assert lifted.power_value == min(dcode.power_value, qpow), (code, p)


def test_transfer_certificate_example_code():
    cert = transfer_packing_radius(C13, 2)
    assert cert.condition_met  # 2r = 4 < 13
    assert cert.code_radius == RadiusToken(2, 4)
    assert cert.lattice_radius == RadiusToken(2, 4)
    assert cert.radii_equal
    assert cert.code_perfect
    assert cert.lattice_status == "PERFECT"


def test_transfer_certificate_sup_metric():
    cert = transfer_packing_radius(C49, INF)
    assert cert.condition_met and cert.radii_equal
    assert cert.lattice_status == "PERFECT"


def test_transfer_blocked_when_radius_too_large():
    # the repetition code is perfect with 2r + 1 = 7 > q = 2: nothing lifts
    cert = transfer_packing_radius(REP2_7, 1)
    assert not cert.condition_met
    assert cert.lattice_radius is None and cert.lattice_status is None


def test_transfer_agrees_for_p_in_1_2_3():
    for p in (1, 2, 3):
        cert = transfer_packing_radius(C13, p)
        assert cert.condition_met
        assert cert.code_radius.power_value == 2**p
        assert cert.lattice_status == "PERFECT"


# ------------------------------------------------------------- sup metric

def test_linfty_existence_factorizations():
    for q, exists in ((2, False), (3, False), (4, False), (6, True), (8, False),
                      (9, True), (13, False), (15, True), (16, False), (49, True)):
        verdict = linfty_existence(q, 2)
        assert verdict.exists == exists, q


def test_linfty_witness_structure():
    verdict = linfty_existence(6, 3)
    assert (verdict.b, verdict.m, verdict.radius) == (3, 2, 1)
    code = verdict.code
    assert code.cardinality * (2 * verdict.radius + 1) ** 3 == 6**3
    assert code_is_perfect(code, RadiusToken(INF, verdict.radius))


def test_linfty_witness_49():
    verdict = linfty_existence(49, 2)
    assert (verdict.b, verdict.m, verdict.radius) == (7, 7, 3)
    assert code_is_perfect(verdict.code, RadiusToken(INF, 3))


def test_linfty_existence_independent_of_dimension():
    for n in (1, 2, 3):
        assert linfty_existence(6, n).exists
        assert not linfty_existence(8, n).exists


def brute_linfty_exists(q, n):
    for code in all_linear_codes(q, n):
        if code.cardinality in (1, q**n):
            continue
        r = code_packing_radius(code, INF)
        if r.power_value >= 1 and code_is_perfect(code, r):
            return True
    return False


def test_linfty_existence_matches_brute_force():
    for q in range(2, 9):
        for n in (1, 2):
            assert linfty_existence(q, n).exists == brute_linfty_exists(q, n), (q, n)


def test_all_linear_codes_count():
    # subgroup count of (Z_6)^2 factors over the prime parts: 5 * 6
    assert len(all_linear_codes(6, 2)) == 30
    assert len(all_linear_codes(2, 2)) == 5
    assert len(all_linear_codes(3, 1)) == 2
