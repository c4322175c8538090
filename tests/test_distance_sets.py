"""Achievable-distance sets: sums of p-th powers, with and without modulus."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from lpcodes import distance_sets
from lpcodes.distance_sets import (
    check_achievable,
    enumerate_achievable,
    is_achievable,
    is_sum_of_three_squares,
    is_sum_of_two_squares,
    sums_of_powers_reachable,
)
from lpcodes.geometry import INF


def brute_achievable(p, n, s, cap=None):
    """Reference decomposition search, no number theory."""
    if s == 0:
        return True
    if n == 0:
        return False
    top = int(round(s ** (1.0 / p)))
    while (top + 1) ** p <= s:
        top += 1
    while top**p > s:
        top -= 1
    if cap is not None:
        top = min(top, cap)
    return any(brute_achievable(p, n - 1, s - a**p, cap) for a in range(top, -1, -1))


def test_two_square_characterization_examples():
    assert not is_achievable(2, 2, 3)
    assert is_achievable(2, 2, 5)
    assert is_achievable(2, 2, 0) and is_achievable(2, 2, 1)
    assert not is_achievable(2, 2, 21)  # 3 * 7, both to odd multiplicity


def test_three_square_characterization_examples():
    assert not is_achievable(2, 3, 7)  # 4^0 (8*0 + 7)
    assert not is_achievable(2, 3, 28)  # 4^1 (8*0 + 7)
    assert is_achievable(2, 3, 6)


def test_four_squares_always():
    assert is_achievable(2, 4, 7)
    assert all(is_achievable(2, 4, s) for s in range(200))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_fast_paths_match_decomposition_oracle(n):
    for s in range(501):
        assert is_achievable(2, n, s) == brute_achievable(2, n, s), (n, s)


def test_two_and_three_square_helpers():
    assert [s for s in range(13) if is_sum_of_two_squares(s)] == [0, 1, 2, 4, 5, 8, 9, 10]
    assert not is_sum_of_three_squares(15)
    assert is_sum_of_three_squares(14)


def test_enumerate_two_squares():
    table = enumerate_achievable(2, 2, 10)
    assert table.achievable == (0, 1, 2, 4, 5, 8, 9, 10)
    assert 5 in table.achievable and 7 not in table.achievable


def test_enumerate_trivial_line():
    assert enumerate_achievable(1, 1, 3).achievable == (0, 1, 2, 3)


def test_enumerate_three_squares():
    table = enumerate_achievable(2, 3, 8)
    assert table.achievable == (0, 1, 2, 3, 4, 5, 6, 8)


def test_enumerate_consistent_with_pointwise():
    for p, n in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 1)):
        table = enumerate_achievable(p, n, 60)
        members = set(table.achievable)
        for s in range(61):
            assert (s in members) == is_achievable(p, n, s), (p, n, s)


@pytest.mark.parametrize("p", [1, 2, 3, INF])
def test_enumerate_refuses_a_negative_limit(p):
    for q in (None, 5):
        with pytest.raises(ValueError, match="limit must be >= 0"):
            enumerate_achievable(p, 2, -1, q)
    assert enumerate_achievable(p, 2, 0, q).achievable == (0,)


@pytest.mark.parametrize("p", [1, INF])
def test_enumerate_refuses_a_limit_over_the_guard_in_closed_form_too(p, monkeypatch):
    monkeypatch.setattr(distance_sets, "MAX_REACH_LIMIT", 777)
    assert len(enumerate_achievable(p, 3, 777).achievable) >= 9
    name = "inf" if p == INF else p
    with pytest.raises(ValueError, match=rf"^the distance table for p={name}, n=3 up to 778 "
                                         r"exceeds MAX_REACH_LIMIT = 777$"):
        enumerate_achievable(p, 3, 778)


def test_enumerate_cubes():
    # sums of two cubes up to 20: 0, 1, 2, 8, 9, 16
    assert enumerate_achievable(3, 2, 20).achievable == (0, 1, 2, 8, 9, 16)


def test_zero_and_one_always_achievable():
    for p in (1, 2, 3, 5):
        for n in (1, 2, 4):
            assert is_achievable(p, n, 0)
            assert is_achievable(p, n, 1)


@pytest.mark.parametrize("p", [1, 2, 3, INF])
@pytest.mark.parametrize("q", [None, 5])
@pytest.mark.parametrize("n", [0, -2])
def test_dimension_below_1_is_refused_for_every_exponent(p, q, n):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        is_achievable(p, n, 0, q)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        enumerate_achievable(p, n, 5, q)


# ------------------------------------------------------------ DP table

def brute_sums(p, n, limit, cap=None):
    """Every sum <= limit of n p-th powers, built coordinate by coordinate."""
    terms = [a**p for a in range(limit + 1) if a**p <= limit and (cap is None or a <= cap)]
    sums = {0}
    for _ in range(n):
        sums = {s + t for s in sums for t in terms if s + t <= limit}
    return sums


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("cap", [None, 0, 1, 2, 5])
def test_reachable_table_matches_brute_force_sums(p, n, cap):
    limit = 150
    table = sums_of_powers_reachable(p, n, limit, cap)
    assert isinstance(table, bytes) and len(table) == limit + 1
    assert set(table) <= {0, 1}
    assert {s for s in range(limit + 1) if table[s]} == brute_sums(p, n, limit, cap)


def test_reachable_table_edge_limits():
    assert sums_of_powers_reachable(2, 3, 0) == b"\x01"
    assert sums_of_powers_reachable(3, 1, 9) == bytes([1, 1, 0, 0, 0, 0, 0, 0, 1, 0])
    with pytest.raises(ValueError):
        sums_of_powers_reachable(2, 2, -1)


def test_reachable_table_guard_boundary(monkeypatch):
    monkeypatch.setattr(distance_sets, "MAX_REACH_LIMIT", 777)
    assert len(sums_of_powers_reachable(5, 3, 777)) == 778
    with pytest.raises(ValueError, match=r"up to 778 exceeds MAX_REACH_LIMIT = 777$"):
        sums_of_powers_reachable(5, 3, 778)
    with pytest.raises(ValueError, match="MAX_REACH_LIMIT = 777"):
        enumerate_achievable(5, 3, 778)
    with pytest.raises(ValueError, match="up to 1024 exceeds"):
        is_achievable(5, 3, 2)  # pointwise queries round the table up to 1024


def test_reachable_table_guard_allocates_nothing(monkeypatch):
    # the refused table would be a 10^7-bit integer (1.25 MB) and 10^7 bytes
    monkeypatch.setattr(distance_sets, "MAX_REACH_LIMIT", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_REACH_LIMIT"):
            sums_of_powers_reachable(3, 2, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [None, 2, 3, 5, 8])
def test_lee_closed_form_matches_the_table(n, q):
    table = sums_of_powers_reachable(1, n, 300, None if q is None else q // 2)
    assert [is_achievable(1, n, s, q) for s in range(301)] == [bool(b) for b in table]
    assert enumerate_achievable(1, n, 300, q).achievable == tuple(s for s in range(301) if table[s])


def test_lee_closed_form_needs_no_table():
    # the table route takes minutes over 2^20 sums for the first
    assert is_achievable(1, 2, 10**6)
    assert is_achievable(1, 3, 1500, q=1001) and not is_achievable(1, 3, 1501, q=1001)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lee_distances_all_achievable(n):
    # p = 1: s itself is one coordinate, past every table size the DP rounds to
    assert all(is_achievable(1, n, s) for s in range(2100))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("q", range(2, 13))
def test_lee_distances_mod_q_up_to_diameter(n, q):
    # with modulus q exactly the sums up to n * floor(q/2) remain
    top = n * (q // 2)
    assert [s for s in range(top + 20) if is_achievable(1, n, s, q=q)] == list(range(top + 1))


# ------------------------------------------------------------ sup metric

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("q", [None, 2, 3, 7, 10])
def test_sup_metric_radii_against_brute_force(n, q):
    # a point's sup radius is its largest |coordinate|, or largest Lee coordinate mod q
    limit = 6
    if q is None:
        radii = {max(map(abs, x)) for x in itertools.product(range(-limit, limit + 1), repeat=n)}
    else:
        radii = {max(min(c, q - c) for c in x) for x in itertools.product(range(q), repeat=n)}
    assert [s for s in range(limit + 1) if is_achievable(INF, n, s, q)] == sorted(
        s for s in radii if s <= limit)
    assert enumerate_achievable(INF, n, limit, q).achievable == tuple(
        sorted(s for s in radii if s <= limit))
    if q is not None:
        assert not any(is_achievable(INF, n, s, q) for s in range(q // 2 + 1, q + 5))
    else:
        assert is_achievable(INF, n, 10**30)


def test_sup_metric_table_json():
    table = enumerate_achievable(INF, 2, 3, q=5)
    assert table.achievable == (0, 1, 2)
    assert table.to_json() == {"p": "inf", "n": 2, "limit": 3, "q": 5, "achievable": [0, 1, 2]}
    assert enumerate_achievable(2, 2, 2).to_json()["p"] == 2


# ------------------------------------------------------------- modulus q

def test_modulus_caps_coordinates():
    # with q = 5 each Lee coordinate is at most 2: squares available are 0, 1, 4
    assert is_achievable(2, 2, 8, q=5)  # 4 + 4
    assert not is_achievable(2, 2, 9, q=5)  # 9 = 3^2 needs a coordinate of 3
    assert not is_achievable(2, 1, 9, q=5)
    assert is_achievable(2, 1, 4, q=5)
    assert not is_achievable(2, 2, 16, q=5)


def test_modulus_monotone_and_agrees_below_cap():
    for p, n, q in ((2, 2, 7), (1, 3, 5), (3, 2, 9)):
        cap = q // 2
        free = enumerate_achievable(p, n, 4 * cap**p)
        capped = enumerate_achievable(p, n, 4 * cap**p, q=q)
        assert set(capped.achievable) <= set(free.achievable)
        for s in range(cap**p + 1):
            assert (s in set(capped.achievable)) == (s in set(free.achievable)), (p, n, q, s)


@given(
    p=st.sampled_from([1, 2, 3]),
    n=st.integers(1, 3),
    q=st.integers(2, 12),
    s=st.integers(0, 80),
)
@settings(max_examples=250, deadline=None)
def test_modulus_route_matches_capped_brute_force(p, n, q, s):
    assert is_achievable(p, n, s, q=q) == brute_achievable(p, n, s, cap=q // 2)


# ---------------------------------------------------------------- waring

# Exact values of Waring's g that the table vouches for: g(4) = 19
# (Balasubramanian, Deshouillers and Dress, 1986) and g(5) = 37 (Chen, 1964).
_WARING_KNOWN = {2: 4, 3: 9, 4: 19, 5: 37}


def waring_g(p):
    """(g, conjectured) such that every nonnegative integer is a sum of
    g p-th powers.

    Entries of the shipped table come back with conjectured = False;
    everything else uses g(p) = 2**p + floor(1.5**p) - 2 and is flagged
    conjectured = True.
    """
    if p < 2:
        raise ValueError("waring_g expects p >= 2")
    if p in _WARING_KNOWN:
        return _WARING_KNOWN[p], False
    return 2**p + 3**p // 2**p - 2, True


def test_waring_table_entries():
    # g(2), g(3), g(4) = 19 (Balasubramanian-Deshouillers-Dress) and
    # g(5) = 37 (Chen) are theorems
    assert waring_g(2) == (4, False)
    assert waring_g(3) == (9, False)
    assert waring_g(4) == (19, False)
    assert waring_g(5) == (37, False)


def test_waring_conjectured_formula():
    assert waring_g(14) == (2**14 + (3**14) // (2**14) - 2, True)


def test_waring_rejects_small_exponent():
    with pytest.raises(ValueError):
        waring_g(1)


def test_waring_saturation():
    # n at or above g(p) means every s is achievable (checked for p = 2)
    g, conj = waring_g(2)
    assert not conj
    for n in (g, g + 1):
        assert all(is_achievable(2, n, s) for s in range(300))


def test_check_achievable_refuses_in_one_wording():
    assert check_achievable(2, 2, 5) is None
    assert check_achievable(2, 2, 8, q=5) is None
    with pytest.raises(ValueError, match=r"^s=3 is not an achievable distance power for \(p=2, n=2\)$"):
        check_achievable(2, 2, 3)
    with pytest.raises(ValueError,
                       match=r"^s=3 is not an achievable p-Lee power for \(p=2, n=2, q=5\)$"):
        check_achievable(2, 2, 3, q=5)
    with pytest.raises(ValueError,
                       match=r"^s=3 is not an achievable p-Lee power for \(p=inf, n=2, q=5\)$"):
        check_achievable(INF, 2, 3, q=5)
