"""Exact geometry layer: distances, balls, difference sets, volumes."""

import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from lpcodes import geometry
from lpcodes.geometry import (
    INF,
    RadiusToken,
    ball_cardinality,
    balls_overlap,
    compare_root_sums,
    difference_set,
    enumerate_ball,
    induced_distance_oracle,
    lee_distance,
    lp_distance,
    norm_power,
    plee_distance,
    superball_volume,
)


# ---------------------------------------------------------------- tokens

def test_token_from_radius():
    assert RadiusToken.from_radius(2, 3) == RadiusToken(2, 9)
    assert RadiusToken.from_radius(1, 4) == RadiusToken(1, 4)
    assert RadiusToken.from_radius(INF, 2) == RadiusToken(INF, 2)


def test_token_integer_radius():
    assert RadiusToken(2, 9).integer_radius() == 3
    assert RadiusToken(2, 8).integer_radius() is None
    assert RadiusToken(INF, 5).integer_radius() == 5
    assert RadiusToken(3, 27).integer_radius() == 3
    assert RadiusToken(2, 0).integer_radius() == 0


def test_token_floor_radius_and_doubled():
    assert [RadiusToken(2, s).floor_radius() for s in (0, 3, 4, 8, 9)] == [0, 1, 2, 2, 3]
    assert RadiusToken(3, 26).floor_radius() == 2
    assert RadiusToken(INF, 5).floor_radius() == 5
    assert RadiusToken(3, 2).doubled() == RadiusToken(3, 16)
    assert RadiusToken(INF, 4).doubled() == RadiusToken(INF, 8)


def test_norm_power():
    assert norm_power((3, -4), 2) == 25
    assert norm_power((3, -4), 1) == 7
    assert norm_power((3, -4), INF) == 4
    assert norm_power((), 2) == norm_power((), INF) == 0


def test_token_json_exponent():
    assert RadiusToken(2, 4).json_p() == 2
    assert RadiusToken(INF, 1).json_p() == "inf"


def test_token_rejects_negative_power():
    with pytest.raises(ValueError):
        RadiusToken(2, -1)


@pytest.mark.parametrize("p, s", [(0, 1), (2.5, 1), (True, 1), (2, 2.0), (INF, -1)])
def test_token_rejects_bad_exponents_and_powers(p, s):
    with pytest.raises(ValueError):
        RadiusToken(p, s)


def test_equal_tokens_hash_equal():
    assert RadiusToken(3, 8) == RadiusToken.from_radius(3, 2)
    assert hash(RadiusToken(3, 8)) == hash(RadiusToken.from_radius(3, 2))
    assert len({RadiusToken(INF, 2), RadiusToken.from_radius(INF, 2), RadiusToken(2, 2)}) == 2


# ------------------------------------------------------------- distances

def test_lp_distance_values():
    assert lp_distance((0, 0), (0, 0), 2) == RadiusToken(2, 0)
    assert lp_distance((0, 0), (1, 1), 2) == RadiusToken(2, 2)
    assert lp_distance((0, 0, 0), (1, 2, 3), 3) == RadiusToken(3, 36)


def test_linf_distance_values():
    assert lp_distance((0, 0), (0, 0), INF) == RadiusToken(INF, 0)
    assert lp_distance((0, 0), (3, -1), INF) == RadiusToken(INF, 3)
    assert lp_distance((1, 2, 3), (4, 4, 4), INF) == RadiusToken(INF, 3)


def test_lp_distance_rejects_mismatch():
    with pytest.raises(ValueError):
        lp_distance((0, 0), (1, 2, 3), 2)
    with pytest.raises(ValueError):
        lp_distance((0, 0), (1, 1, 1), INF)


def test_lee_distance_values():
    assert lee_distance(1, 12, 13) == 2
    assert lee_distance(5, 5, 7) == 0
    assert lee_distance(0, 7, 49) == 7


def test_lee_distance_range_checks():
    with pytest.raises(ValueError):
        lee_distance(0, 13, 13)
    with pytest.raises(ValueError):
        lee_distance(-1, 0, 13)
    with pytest.raises(ValueError):
        lee_distance(0, 0, 1)


def test_plee_distance_values():
    assert plee_distance((0, 0), (12, 12), 13, 2) == RadiusToken(2, 2)
    assert plee_distance((0, 0), (7, 5), 49, INF) == RadiusToken(INF, 7)
    assert plee_distance((3, 4, 5), (3, 4, 5), 7, 2) == RadiusToken(2, 0)


def test_induced_oracle_values():
    assert induced_distance_oracle((0, 0), (12, 12), 13, 2, 1) == RadiusToken(2, 2)
    assert induced_distance_oracle((4, 4), (4, 4), 9, 2, 1) == RadiusToken(2, 0)
    assert induced_distance_oracle((0,), (7,), 13, 1, 1) == RadiusToken(1, 6)


@given(
    q=st.integers(2, 25),
    n=st.integers(1, 3),
    p=st.sampled_from([1, 2, 3, INF]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_plee_equals_induced_metric(q, n, p, data):
    # the p-Lee distance is exactly the metric induced by d_p under the
    # coordinatewise reduction Z^n -> Z_q^n
    coords = st.integers(0, q - 1)
    x = tuple(data.draw(coords) for _ in range(n))
    y = tuple(data.draw(coords) for _ in range(n))
    assert plee_distance(x, y, q, p) == induced_distance_oracle(x, y, q, p, 2)


# ----------------------------------------------------------------- balls

def test_ball_sizes_dim2():
    assert enumerate_ball(2, RadiusToken(2, 4)).cardinality == 13
    assert enumerate_ball(2, RadiusToken(2, 1)).cardinality == 5
    assert ball_cardinality(2, RadiusToken(2, 2)) == 9
    assert ball_cardinality(2, RadiusToken(2, 8)) == 25


def test_ball_sizes_dim3():
    assert enumerate_ball(3, RadiusToken(2, 3)).cardinality == 27
    assert ball_cardinality(3, RadiusToken(2, 1)) == 7


def test_ball_cross_shape():
    ball = enumerate_ball(2, RadiusToken(2, 1))
    assert set(ball.points) == {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


def test_ball_points_lexicographic():
    for token in (RadiusToken(2, 8), RadiusToken(1, 3), RadiusToken(INF, 2)):
        pts = enumerate_ball(2, token).points
        assert list(pts) == sorted(pts)


def test_ball_count_matches_enumeration():
    cases = [(n, p, s) for n in (1, 2, 3) for p in (1, 2, 3, INF) for s in (0, 1, 2, 5, 9)]
    # the Lee closed form at more nonzero coordinates than s, and the reverse
    cases += [(n, 1, s) for n in (4, 5) for s in (0, 1, 3, 7)] + [(1, 1, 40), (2, 1, 40), (3, 1, 20)]
    for n, p, s in cases:
        token = RadiusToken(p, s)
        assert ball_cardinality(n, token) == enumerate_ball(n, token).cardinality, (n, p, s)


def test_lee_ball_count_is_closed_form():
    # 2s^2 + 2s + 1 and (2s + 1)(2s^2 + 2s + 3)/3 points, counted in closed form
    start = time.perf_counter()
    assert ball_cardinality(2, RadiusToken(1, 10**6)) == 2 * 10**12 + 2 * 10**6 + 1
    assert ball_cardinality(3, RadiusToken(1, 3000)) == 6001 * (2 * 3000**2 + 2 * 3000 + 3) // 3
    assert time.perf_counter() - start < 0.5


def test_ball_count_in_high_dimension():
    # the origin and +-e_i at s = 1; at s = 5 up to five coordinates are nonzero
    for p in (1, 2, 3):
        assert ball_cardinality(3000, RadiusToken(p, 1)) == 6001
    n = 3000
    count = 1 + 2 * n + 4 * math.comb(n, 2) + 8 * math.comb(n, 3) + 16 * math.comb(n, 4)
    count += 32 * math.comb(n, 5) + 2 * n + 4 * n * (n - 1)  # then +-2e_i and +-2e_i +- e_j
    assert ball_cardinality(n, RadiusToken(2, 5)) == count
    assert enumerate_ball(2000, RadiusToken(3, 1)).cardinality == 4001


def test_enumerate_ball_refuses_balls_over_the_size_guard(monkeypatch):
    assert ball_cardinality(4, RadiusToken(2, 79)) <= geometry.MAX_BALL_POINTS
    # the ball holds the cube of half-side iroot(100 // 10, 2) = 3, which already has 7^10 points
    with pytest.raises(ValueError, match="at least 282475249 points"):
        enumerate_ball(10, RadiusToken(2, 100))
    monkeypatch.setattr(geometry, "MAX_BALL_POINTS", 13)
    assert enumerate_ball(2, RadiusToken(2, 4)).cardinality == 13
    with pytest.raises(ValueError, match="21 points"):
        enumerate_ball(2, RadiusToken(2, 5))


def test_difference_set_refuses_balls_whose_doubled_ball_is_over_the_guard(monkeypatch):
    # B - B lies in the ball of twice the radius: power value s * 2^p, or 2s for p = inf
    assert ball_cardinality(3, RadiusToken(2, 4 * 91)) == 29039
    assert ball_cardinality(4, RadiusToken(2, 4 * 79)) == 494425 <= geometry.MAX_BALL_POINTS
    with pytest.raises(ValueError, match="3083569 points"):
        difference_set(enumerate_ball(10, RadiusToken(2, 4)))
    monkeypatch.setattr(geometry, "MAX_BALL_POINTS", 25)
    assert difference_set(enumerate_ball(2, RadiusToken(INF, 1))).cardinality == 25
    with pytest.raises(ValueError, match="41 points"):
        difference_set(enumerate_ball(2, RadiusToken(1, 2)))  # B_1^2(s=4)


def test_ball_signed_permutation_symmetry():
    for n, token in ((2, RadiusToken(2, 8)), (3, RadiusToken(1, 3)), (2, RadiusToken(INF, 2))):
        pts = set(enumerate_ball(n, token).points)
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                mapped = {tuple(signs[i] * v[perm[i]] for i in range(n)) for v in pts}
                assert mapped == pts


def test_ball_monotone_in_radius():
    for p in (1, 2, 3):
        prev = set()
        for s in range(0, 30):
            cur = set(enumerate_ball(2, RadiusToken(p, s)).points)
            assert prev <= cur
            prev = cur


def test_cube_ball_nesting():
    # B_inf(r) sits inside B_p(n r^p) which sits inside B_inf(ceil(n^(1/p) r))
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            for p in (1, 2, 3, 4, 5):
                cube = set(enumerate_ball(n, RadiusToken(INF, r)).points)
                ball = set(enumerate_ball(n, RadiusToken(p, n * r**p)).points)
                outer_r = math.ceil((n * r**p) ** (1.0 / p) + 1e-9)
                outer = set(enumerate_ball(n, RadiusToken(INF, outer_r)).points)
                assert cube <= ball <= outer


def test_ball_membership_predicate():
    ball = enumerate_ball(2, RadiusToken(2, 4))
    assert ball.contains((2, 0))
    assert ball.contains((-1, 1))
    assert not ball.contains((2, 1))
    assert not ball.contains((2,))


def test_ball_json_shape():
    obj = enumerate_ball(2, RadiusToken(2, 1)).to_json()
    assert obj["n"] == 2 and obj["p"] == 2 and obj["s"] == 1
    assert [0, 0] in obj["points"] and len(obj["points"]) == 5
    obj = enumerate_ball(1, RadiusToken(INF, 2)).to_json()
    assert obj["p"] == "inf" and len(obj["points"]) == 5


# ------------------------------------------------------- difference sets

def test_difference_set_of_cross():
    dset = difference_set(enumerate_ball(2, RadiusToken(2, 1)))
    expect = {(0, 0)}
    expect |= {(s * v, 0) for v in (1, 2) for s in (1, -1)}
    expect |= {(0, s * v) for v in (1, 2) for s in (1, -1)}
    expect |= {(a, b) for a in (1, -1) for b in (1, -1)}
    assert set(dset.points) == expect
    assert dset.cardinality == 13


def test_difference_set_degenerate():
    dset = difference_set(enumerate_ball(3, RadiusToken(2, 0)))
    assert set(dset.points) == {(0, 0, 0)}


def test_difference_set_of_unit_cube():
    dset = difference_set(enumerate_ball(2, RadiusToken(INF, 1)))
    assert set(dset.points) == set(enumerate_ball(2, RadiusToken(INF, 2)).points)
    assert dset.cardinality == 25


def test_difference_set_contains_ball_and_is_symmetric():
    for token in (RadiusToken(2, 4), RadiusToken(1, 2)):
        ball = enumerate_ball(2, token)
        dset = set(difference_set(ball).points)
        assert set(ball.points) <= dset
        assert {tuple(-c for c in v) for v in dset} == dset


@pytest.mark.parametrize("p", [1, 2, 3, INF])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_difference_set_matches_pairwise_definition(p, n):
    # reference: every difference of two ball points, in sorted order
    for s in (0, 1, 2, 3, 5, 9, 16):
        if ball_cardinality(n, RadiusToken(p, s)) > 400:
            break
        ball = enumerate_ball(n, RadiusToken(p, s))
        pts = ball.points
        pairwise = sorted({tuple(a - b for a, b in zip(x, y)) for x in pts for y in pts})
        assert list(difference_set(ball).points) == pairwise, s


def test_difference_set_is_overlap_set():
    # v lies in B - B exactly when B(0) and B(v) share a point
    for n, token in ((2, RadiusToken(2, 2)), (2, RadiusToken(1, 2)), (3, RadiusToken(2, 1))):
        dset = set(difference_set(enumerate_ball(n, token)).points)
        span = 2 * (token.power_value + 1)
        for v in itertools.product(range(-span, span + 1), repeat=n):
            assert (v in dset) == balls_overlap(v, n, token)


# --------------------------------------------------------------- volumes

def test_superball_volume_closed_forms():
    assert superball_volume(2, 2) == pytest.approx(math.pi, rel=1e-12)
    assert superball_volume(3, 2) == pytest.approx(4 * math.pi / 3, rel=1e-12)
    assert superball_volume(2, 1) == pytest.approx(2.0, rel=1e-12)


def test_superball_volume_grid_limit():
    # count lattice points in a dilated ball; the density tends to V_{n,p}
    random.seed(7)
    for n, p in ((2, 2), (2, 3), (3, 1)):
        R = 40
        count = ball_cardinality(n, RadiusToken(p, R**p))
        assert count / R**n == pytest.approx(superball_volume(n, p), rel=0.1)


def test_ball_count_volume_sandwich():
    # V (r - l)^n <= mu <= V (r + l)^n with l = n^(1/p)/2, for r > l
    for n, p, s in ((2, 2, 8), (2, 2, 25), (2, 1, 9), (3, 2, 9), (3, 1, 16)):
        vol = superball_volume(n, p)
        r = s ** (1.0 / p)
        l = n ** (1.0 / p) / 2.0
        assert r > l
        mu = ball_cardinality(n, RadiusToken(p, s))
        assert vol * (r - l) ** n <= mu <= vol * (r + l) ** n


# ----------------------------------------------------- radical comparison

def test_compare_root_sums():
    # sqrt(8) = 2 sqrt(2); sqrt(2) + sqrt(2) = sqrt(8); sqrt(5) < sqrt(2) + 1
    assert compare_root_sums(2, [(1, 2)], [(1, 8)]) < 0
    assert compare_root_sums(2, [(2, 2)], [(1, 8)]) == 0
    assert compare_root_sums(2, [(1, 5)], [(1, 2), (1, 1)]) < 0
    assert compare_root_sums(2, [(1, 9)], [(1, 4)]) > 0


def test_compare_root_sums_with_large_coefficients():
    # x + y sqrt(2) = (1 + sqrt(2))^k gives x^2 - 2 y^2 = (-1)^k, so x - y sqrt(2)
    # has the sign (-1)^k and a size near 1 / (2x), with x of up to 153 digits
    x, y = 1, 0
    for k in range(1, 401):
        x, y = x + 2 * y, x + y
        assert compare_root_sums(2, [(x, 1)], [(y, 2)]) == (-1) ** k, k
        assert compare_root_sums(2, [(y, 2)], [(x, 1)]) == -((-1) ** k), k


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30)), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30)), min_size=1, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_compare_root_sums_matches_floats(left, right):
    got = compare_root_sums(2, left, right)
    lv = sum(c * math.sqrt(s) for c, s in left)
    rv = sum(c * math.sqrt(s) for c, s in right)
    if abs(lv - rv) > 1e-9:
        assert got == (-1 if lv < rv else 1)
    else:
        assert got == 0
