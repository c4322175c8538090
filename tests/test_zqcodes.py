"""Linear codes over Z_q: balls, packing radii, perfection, lifting."""

import random

import pytest
from group_helpers import all_linear_codes

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


def test_json_roundtrip():
    assert LinearCodeZq.from_json(C49.to_json()) == C49


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
            inside = (d <= token.power_value) if token.p == INF else (d.power_value <= token.power_value)
            assert (x in ball) == inside, (q, n, token, x)


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


def test_packing_radius_of_full_code_is_zero():
    full = LinearCodeZq(5, 2, ((1, 0), (0, 1)))
    assert code_packing_radius(full, 2) == RadiusToken(2, 0)


# ------------------------------------------------------------ perfection

def test_perfect_codes():
    assert code_is_perfect(C13, 2, RadiusToken(2, 4))
    assert code_is_perfect(C49, INF, RadiusToken(INF, 3))
    assert code_is_perfect(REP2_7, 1, RadiusToken(1, 3))


def test_imperfect_codes():
    assert not code_is_perfect(C2_44, 2, RadiusToken(2, 1))  # 4 * 9 != 256
    assert not code_is_perfect(C13, 2, RadiusToken(2, 2))  # balls too small
    assert not code_is_perfect(C13, 2, RadiusToken(2, 5))  # balls overlap


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
    assert code_is_perfect(code, INF, RadiusToken(INF, verdict.radius))


def test_linfty_witness_49():
    verdict = linfty_existence(49, 2)
    assert (verdict.b, verdict.m, verdict.radius) == (7, 7, 3)
    assert code_is_perfect(verdict.code, INF, RadiusToken(INF, 3))


def test_linfty_existence_independent_of_dimension():
    for n in (1, 2, 3):
        assert linfty_existence(6, n).exists
        assert not linfty_existence(8, n).exists


def brute_linfty_exists(q, n):
    for code in all_linear_codes(q, n):
        if code.cardinality in (1, q**n):
            continue
        r = code_packing_radius(code, INF)
        if r.power_value >= 1 and code_is_perfect(code, INF, r):
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
