"""Lattice algebra: canonical forms, quotients, distances, perfection."""

import itertools
import random

import pytest

from lpcodes.distance_sets import enumerate_achievable
from lpcodes.geometry import (
    INF,
    RadiusToken,
    ball_cardinality,
    difference_set,
    enumerate_ball,
    norm_power,
)
from lpcodes.lattices import (
    IntegerLattice,
    _smith,
    hermite_normal_form,
    minimum_distance,
    packing_radius,
    quotient_map,
    radius_bracket,
    verify_perfect,
)

# kernels listed in the dimension-2 and dimension-3 classifications
KERNEL_S1 = [(1, 2), (0, 5)]
KERNEL_S2 = [(3, 2), (0, 3)]
KERNEL_S4 = [(1, 5), (3, 2)]
KERNEL_S8 = [(5, 4), (0, 5)]
KERNEL_3D_S1 = [(1, 0, 2), (0, 1, 4), (0, 0, 7)]
KERNEL_3D_S3 = [(3, 8, 0), (0, 3, 2), (0, 0, 3)]


def random_full_rank(rng, n, bound=6):
    while True:
        rows = [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(n)]
        try:
            return IntegerLattice.from_rows(rows)
        except ValueError:
            continue


# ------------------------------------------------------- canonical forms

def test_canonicalize_examples():
    assert IntegerLattice.from_rows(KERNEL_S1).determinant == 5
    assert IntegerLattice.from_rows([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).determinant == 1
    assert IntegerLattice.from_rows(KERNEL_S4).determinant == 13


def test_canonical_basis_is_lower_triangular():
    for rows in (KERNEL_S1, KERNEL_S4, KERNEL_3D_S3):
        lat = IntegerLattice.from_rows(rows)
        n = lat.n
        for i in range(n):
            assert lat.basis[i][i] > 0
            for j in range(i + 1, n):
                assert lat.basis[i][j] == 0
            for j in range(i):
                assert 0 <= lat.basis[i][j] < lat.basis[j][j]


def test_canonicalize_idempotent():
    lat = IntegerLattice.from_rows(KERNEL_S8)
    again = IntegerLattice.from_rows(lat.basis)
    assert again == lat


def test_canonicalize_row_operation_invariant():
    rng = random.Random(2)
    base = IntegerLattice.from_rows(KERNEL_3D_S1)
    for _ in range(25):
        rows = [list(r) for r in base.basis]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
            if rng.random() < 0.3:
                rows[i] = [-a for a in rows[i]]
        rng.shuffle(rows)
        assert IntegerLattice.from_rows(rows) == base


def test_canonicalize_extra_generators():
    # redundant generating sets reduce to the same lattice
    lat = IntegerLattice.from_rows([(1, 5), (13, 0), (0, 13)], 2)
    assert lat == IntegerLattice.from_rows([(13, 0), (8, 1)])
    assert lat.determinant == 13


def test_canonicalize_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        IntegerLattice.from_rows([(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        IntegerLattice.from_rows([(0, 0), (0, 3)])


def test_hermite_form_fixed_values():
    assert hermite_normal_form(KERNEL_S1, 2) == ((5, 0), (3, 1))
    assert hermite_normal_form(KERNEL_S4, 2) == ((13, 0), (8, 1))


def test_lattice_membership():
    lat = IntegerLattice.from_rows(KERNEL_S1)  # x + 2y = 0 (mod 5)
    assert lat.contains((1, 2))
    assert lat.contains((-3, -1))
    assert not lat.contains((1, 0))


def test_lattice_json_roundtrip():
    lat = IntegerLattice.from_rows(KERNEL_3D_S3)
    assert IntegerLattice.from_json(lat.to_json()) == lat


# -------------------------------------------------------------- quotients

def test_quotient_structures():
    # quotient_map keeps the invariant factors above 1
    assert quotient_map(IntegerLattice.from_rows([(3, 0), (0, 3)]).basis)[0] == (3, 3)
    assert quotient_map(IntegerLattice.from_rows(KERNEL_S1).basis)[0] == (5,)
    beta = IntegerLattice.from_rows(KERNEL_3D_S3)
    assert beta.determinant == 27
    assert quotient_map(beta.basis)[0] == (27,)


def test_quotient_divisibility_chain():
    rng = random.Random(11)
    for _ in range(40):
        lat = random_full_rank(rng, rng.randint(1, 4))
        factors, images = quotient_map(lat.basis)
        assert all(f > 1 for f in factors) and len(images) == lat.n
        for row in lat.basis:  # the map sends the lattice to 0
            assert all(sum(x * img[c] for x, img in zip(row, images)) % f == 0
                       for c, f in enumerate(factors))
        order = 1
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        for d in factors:
            order *= d
        assert order == lat.determinant


def test_quotient_map_of_a_cyclic_basis_is_closed_form(monkeypatch):
    # rows (m, 0, ...), (h_i, 0, ..., 1, ...): Z_m with e_0 -> 1 and e_i -> -h_i, no Smith form
    monkeypatch.setattr("lpcodes.lattices._smith", None)
    for rows in (((5, 0), (3, 1)), ((27, 0, 0), (24, 1, 0), (18, 0, 1)),
                 ((12, 0, 0), (0, 1, 0), (7, 0, 1)), ((9, 0), (15, 1)), ((9, 0), (-4, 1))):
        m = rows[0][0]
        factors, images = quotient_map(rows)
        assert factors == (m,) and images[0] == (1,)
        for row in rows:
            assert sum(x * img[0] for x, img in zip(row, images)) % m == 0, rows
    assert quotient_map(((1, 0), (4, 1))) == ((), ((), ()))
    assert quotient_map(((7,),)) == ((7,), ((1,),))


def test_quotient_map_of_other_bases_goes_through_the_smith_form(monkeypatch):
    calls = []
    smith = _smith
    monkeypatch.setattr("lpcodes.lattices._smith", lambda rows: calls.append(rows) or smith(rows))
    for rows, factors in ((((-5, 0), (3, 1)), (5,)), (((0, 1), (5, 3)), (5,)),
                          (((5, 0), (3, 2)), (10,)), (((5, 1), (3, 1)), (2,)),
                          (((4, 0, 0), (1, 1, 0), (2, 1, 1)), (4,))):
        assert quotient_map(rows)[0] == factors, rows
    assert len(calls) == 5


def test_smith_form_direct():
    assert quotient_map(((2, 0), (0, 4)))[0] == (2, 4)
    assert quotient_map(((2, 1), (1, 2)))[0] == (3,)


# ---------------------------------------------- points within a radius

def test_enumerate_in_box_scaled_lattice():
    pts = IntegerLattice.from_rows([(3, 0), (0, 3)]).points_within(RadiusToken(INF, 3))
    assert len(pts) == 9
    assert set(pts) == {(3 * a, 3 * b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_enumerate_in_box_congruence_filter():
    pts = set(IntegerLattice.from_rows(KERNEL_S1).points_within(RadiusToken(INF, 2)))
    want = {
        v
        for v in itertools.product(range(-2, 3), repeat=2)
        if (v[0] + 2 * v[1]) % 5 == 0
    }
    assert pts == want == {(0, 0), (1, 2), (-1, -2), (2, -1), (-2, 1)}


def test_enumerate_in_box_zero_radius():
    for rows in (KERNEL_S1, KERNEL_3D_S1):
        origin = [(0,) * len(rows[0])]
        assert IntegerLattice.from_rows(rows).points_within(RadiusToken(INF, 0)) == origin


def reference_enumerate_in_box(lat, box_radius):
    """The lattice points of the sup-norm box, sorted: one recursive call per row."""
    n, basis = lat.n, lat.basis
    out, partial = [], [0] * n

    def rec(i):
        if i < 0:
            out.append(tuple(partial))
            return
        d = basis[i][i]
        for c in range(-((box_radius + partial[i]) // d), (box_radius - partial[i]) // d + 1):
            for j in range(i + 1):
                partial[j] += c * basis[i][j]
            rec(i - 1)
            for j in range(i + 1):
                partial[j] -= c * basis[i][j]

    rec(n - 1)
    return sorted(out)


def test_enumerate_in_box_matches_the_recursive_enumeration():
    rng = random.Random(11)
    for _ in range(60):
        lat = random_full_rank(rng, rng.randint(1, 4), bound=5)
        box_radius = rng.randint(0, 8)
        got = lat.points_within(RadiusToken(INF, box_radius))
        assert got == reference_enumerate_in_box(lat, box_radius), (lat.basis, box_radius)
        assert len(got) == len(set(got)) and all(lat.contains(v) for v in got)


def test_points_within_matches_a_norm_filter_of_the_box():
    rng = random.Random(13)
    lattices = [IntegerLattice.from_rows(rows)
                for rows in (KERNEL_S1, KERNEL_S8, KERNEL_3D_S1, KERNEL_3D_S3)]
    lattices += [random_full_rank(rng, rng.randint(1, 4), bound=5) for _ in range(40)]
    for lat in lattices:
        for p in (1, 2, 3):
            token = RadiusToken(p, rng.randint(0, 30))
            box = reference_enumerate_in_box(lat, token.floor_radius())
            want = [v for v in box if norm_power(v, p) <= token.power_value]
            assert lat.points_within(token) == want, (lat.basis, token)


def test_enumerate_in_box_in_dimension_1200():
    # the identity basis is its own Hermite form; one level per coordinate
    # used to mean one recursive call per coordinate, past the recursion limit
    n = 1200
    lat = IntegerLattice(n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
    assert lat.points_within(RadiusToken(INF, 0)) == [(0,) * n]


# ----------------------------------------------------- minimum distances

def test_minimum_distance_values():
    assert minimum_distance(IntegerLattice.from_rows([(3, 0), (0, 3)]), 2) == RadiusToken(2, 9)
    lam = IntegerLattice.from_rows([(1, 5), (13, 0), (0, 13)], 2)
    assert minimum_distance(lam, 2) == RadiusToken(2, 13)


def test_minimum_distance_lifted_codes():
    # lifts of <(2,0,0,0)> and <(1,1,1,1)> inside Z_4^4 share d^2 = 4
    eye4 = [tuple(4 if i == j else 0 for j in range(4)) for i in range(4)]
    c1 = IntegerLattice.from_rows([(2, 0, 0, 0)] + eye4, 4)
    c2 = IntegerLattice.from_rows([(1, 1, 1, 1)] + eye4, 4)
    assert minimum_distance(c1, 2) == RadiusToken(2, 4)
    assert minimum_distance(c2, 2) == RadiusToken(2, 4)
    assert packing_radius(c1, 2) == RadiusToken(2, 0)
    assert packing_radius(c2, 2) == RadiusToken(2, 1)


def test_minimum_distance_sup_metric():
    lat = IntegerLattice.from_rows([(3, 0), (0, 3)])
    assert minimum_distance(lat, INF) == RadiusToken(INF, 3)


def test_minimum_distance_matches_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        lat = random_full_rank(rng, n, bound=4)
        for p in (1, 2, INF):
            got = minimum_distance(lat, p)
            span = 20
            best = None
            for v in lat.points_within(RadiusToken(INF, span)):
                if not any(v):
                    continue
                w = max(abs(c) for c in v) if p == INF else sum(abs(c) ** p for c in v)
                best = w if best is None else min(best, w)
            assert got.power_value == best, (lat.basis, p)


# -------------------------------------------------------- packing radius

def test_packing_radius_scaled_lattice():
    lat = IntegerLattice.from_rows([(3, 0), (0, 3)])
    assert packing_radius(lat, 2) == RadiusToken(2, 2)
    assert packing_radius(lat, INF) == RadiusToken(INF, 1)


def test_packing_radius_dense_lattice_is_zero():
    assert packing_radius(IntegerLattice.from_rows([(1, 0), (0, 1)]), 2) == RadiusToken(2, 0)


def test_radius_bracket_random_lattices():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        lat = random_full_rank(rng, n)
        for p in (1, 2, INF):
            lower_ok, upper_ok, _, _ = radius_bracket(lat, p)
            assert lower_ok and upper_ok, (lat.basis, p)


def reference_packing_radius(lat, p):
    """The largest achievable s <= d whose B(s) - B(s) holds no nonzero lattice vector."""
    d = minimum_distance(lat, p).power_value
    best = None
    for s in enumerate_achievable(p, lat.n, d).achievable:
        diffs = difference_set(enumerate_ball(lat.n, RadiusToken(p, s))).points
        if not any(any(v) and lat.contains(v) for v in diffs):
            best = s
    return RadiusToken(p, best)


def test_packing_radius_matches_brute_force():
    rng = random.Random(29)
    lattices = [random_full_rank(rng, rng.randint(1, 3), bound=5) for _ in range(40)]
    for _ in range(20):  # construction-A lifts: a code in Z_q^n plus q Z^n
        n, q = rng.randint(1, 3), rng.randint(2, 7)
        code = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, n))]
        lift = [tuple(q * (i == j) for j in range(n)) for i in range(n)]
        lattices.append(IntegerLattice.from_rows(code + lift, n))
    for lat in lattices:
        for p in (1, 2, 3, INF):
            assert packing_radius(lat, p) == reference_packing_radius(lat, p), (lat.basis, p)


def test_floor_formula_for_l1_and_sup():
    # r = floor((d - 1)/2), exactly, when balls are cross-polytopes or cubes
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        lat = random_full_rank(rng, n, bound=5)
        for p in (1, INF):
            d = minimum_distance(lat, p).power_value
            assert packing_radius(lat, p).power_value == (d - 1) // 2, (lat.basis, p)


# ----------------------------------------------------------- perfection

def test_verify_perfect_classified_kernels():
    assert verify_perfect(IntegerLattice.from_rows(KERNEL_S1), 2, RadiusToken(2, 1)).is_perfect
    assert verify_perfect(IntegerLattice.from_rows(KERNEL_S8), 2, RadiusToken(2, 8)).is_perfect
    assert verify_perfect(IntegerLattice.from_rows(KERNEL_3D_S1), 2, RadiusToken(2, 1)).is_perfect


def test_verify_perfect_overlap_witness():
    cert = verify_perfect(IntegerLattice.from_rows([(1, 1), (0, 5)]), 2, RadiusToken(2, 1))
    assert cert.status == "NOT_PERFECT"
    assert cert.failed_condition == "overlap"
    assert cert.witness_vector is not None
    v = cert.witness_vector
    assert sum(abs(c) for c in v) <= 2  # a difference of two cross points


def test_verify_perfect_cardinality_mismatch():
    cert = verify_perfect(IntegerLattice.from_rows([(2, 0), (0, 3)]), 2, RadiusToken(2, 1))
    assert cert.status == "NOT_PERFECT"
    assert cert.failed_condition == "cardinality"


def test_verify_perfect_rejects_unachievable_radius():
    with pytest.raises(ValueError):
        verify_perfect(IntegerLattice.from_rows([(1, 2), (0, 5)]), 2, RadiusToken(2, 3))


def test_perfect_implies_packing_radius():
    for rows, s in (
        (KERNEL_S1, 1),
        (KERNEL_S2, 2),
        (KERNEL_S4, 4),
        (KERNEL_S8, 8),
        (KERNEL_3D_S1, 1),
        (KERNEL_3D_S3, 3),
    ):
        lat = IntegerLattice.from_rows(rows)
        token = RadiusToken(2, s)
        assert verify_perfect(lat, 2, token).is_perfect
        assert packing_radius(lat, 2) == token
        assert lat.determinant == ball_cardinality(lat.n, token)


def test_perfect_certificates_tile_sample_boxes():
    # every PERFECT verdict is double-checked as an honest exact cover
    cases = [
        (KERNEL_S1, 2, RadiusToken(2, 1)),
        (KERNEL_S2, 2, RadiusToken(2, 2)),
        (KERNEL_S4, 2, RadiusToken(2, 4)),
        (KERNEL_S8, 2, RadiusToken(2, 8)),
        (KERNEL_3D_S1, 2, RadiusToken(2, 1)),
        (KERNEL_3D_S3, 2, RadiusToken(2, 3)),
        ([(3, 0), (0, 3)], INF, RadiusToken(INF, 1)),
    ]
    for rows, p, token in cases:
        lat = IntegerLattice.from_rows(rows)
        assert lat.determinant <= 30
        assert verify_perfect(lat, p, token).is_perfect
        n = lat.n
        rr = token.power_value if p == INF else int(token.power_value ** (1.0 / p)) + 1
        ball = set(enumerate_ball(n, token).points)
        counts = {}
        for c in lat.points_within(RadiusToken(INF, 4 * rr)):
            for b in ball:
                pt = tuple(ci + bi for ci, bi in zip(c, b))
                counts[pt] = counts.get(pt, 0) + 1
        for v in itertools.product(range(-3 * rr, 3 * rr + 1), repeat=n):
            assert counts.get(v, 0) == 1, (rows, v)


def test_certificate_json_shape():
    cert = verify_perfect(IntegerLattice.from_rows(KERNEL_S1), 2, RadiusToken(2, 1))
    obj = cert.to_json()
    assert obj["status"] == "PERFECT"
    assert obj["failed_condition"] is None
    assert obj["lattice"]["basis"] == [[5, 0], [3, 1]]
    assert obj["p"] == 2 and obj["s"] == 1
