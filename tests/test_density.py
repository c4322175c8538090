"""Density thresholds: packing constants, radius bounds, survivors."""

import json
import math

import pytest

from lpcodes.density import (
    DensityTable,
    cubic_polyomino_check,
    density_radius_bound,
    high_dimension_density_bound,
    induced_density_lower_bound,
    load_density_table,
    surviving_radii,
    threshold_table,
)
from lpcodes.geometry import INF, RadiusToken
from lpcodes.lattices import IntegerLattice, verify_perfect

TABLE = load_density_table()

# best known euclidean lattice packing densities, per shipped constants
PAPER_THRESHOLDS = [(2, 838), (3, 299), (4, 274), (5, 214), (6, 223), (7, 231), (8, 273), (24, 357)]


# ----------------------------------------------------------------- table

def test_shipped_table_contents():
    assert sorted((e[0], e[1]) for e in TABLE.entries) == [
        (2, 2), (3, 2), (4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (24, 2)
    ]
    assert TABLE.lookup(2, 2) == pytest.approx(math.pi / math.sqrt(12), rel=1e-14)
    assert TABLE.lookup(3, 2) == pytest.approx(math.pi / (3 * math.sqrt(2)), rel=1e-14)
    assert TABLE.lookup(8, 2) == pytest.approx(math.pi**4 / 384, rel=1e-14)
    assert TABLE.lookup(24, 2) == pytest.approx(math.pi**12 / math.factorial(12), rel=1e-14)


def test_lookup_miss_raises():
    with pytest.raises(ValueError, match=r"^no density entry for \(n=9, p=2\)$"):
        TABLE.lookup(9, 2)
    assert TABLE.covered(2) == [2, 3, 4, 5, 6, 7, 8, 24]
    assert TABLE.covered(3) == []


def test_table_from_json_expressions():
    records = [
        {"n": 2, "p": 2, "density": "pi/4", "note": "square lattice"},
        {"n": 5, "p": 1, "density": "0.5", "note": ""},
    ]
    table = DensityTable.from_json(records)
    assert table.lookup(2, 2) == pytest.approx(math.pi / 4)
    assert table.lookup(5, 1) == 0.5


def test_table_rejects_nondensities():
    with pytest.raises(ValueError):
        DensityTable.from_json([{"n": 2, "p": 2, "density": "2.0", "note": ""}])
    with pytest.raises(ValueError):
        DensityTable.from_json([{"n": 2, "p": 2, "density": "0", "note": ""}])


def test_table_expression_language_is_closed():
    with pytest.raises(ValueError):
        DensityTable.from_json([{"n": 2, "p": 2, "density": "__import__('os')", "note": ""}])


def test_load_from_explicit_path(tmp_path):
    f = tmp_path / "dens.json"
    f.write_text(json.dumps([{"n": 2, "p": 2, "density": "pi/sqrt(12)", "note": "hex"}]))
    table = load_density_table(str(f))
    assert table.lookup(2, 2) == pytest.approx(math.pi / math.sqrt(12))


# ------------------------------------------------------------ thresholds

def test_threshold_table_reproduces_published_row():
    assert threshold_table(TABLE) == PAPER_THRESHOLDS


def test_radius_bound_value_dim2():
    bound = density_radius_bound(2, 2, TABLE.lookup(2, 2))
    assert bound**2 == pytest.approx(838.041, abs=1e-2)


def test_radius_bound_monotone_in_delta():
    lo = density_radius_bound(2, 2, 0.5)
    hi = density_radius_bound(2, 2, 0.9)
    assert lo < hi


def test_radius_bound_rejects_degenerate_delta():
    with pytest.raises(ValueError):
        density_radius_bound(2, 2, 0.0)
    with pytest.raises(ValueError):
        density_radius_bound(2, 2, 1.0)


# --------------------------------------------------------- induced bound

def test_induced_density_values():
    assert induced_density_lower_bound(2, RadiusToken(2, 294)) == pytest.approx(0.9099887, abs=1e-6)
    assert induced_density_lower_bound(3, RadiusToken(2, 93)) == pytest.approx(0.7472500, abs=1e-6)
    assert induced_density_lower_bound(2, RadiusToken(2, 1)) == pytest.approx(0.0539012, abs=1e-6)
    assert induced_density_lower_bound(2, RadiusToken(2, 0)) == 0.0


def test_induced_density_exceeds_record_beyond_threshold():
    # at s = 294 a perfect code would beat the hexagonal density: contradiction
    assert induced_density_lower_bound(2, RadiusToken(2, 294)) > TABLE.lookup(2, 2)
    assert induced_density_lower_bound(3, RadiusToken(2, 93)) > TABLE.lookup(3, 2)


def test_induced_density_monotone_in_radius():
    vals = [induced_density_lower_bound(2, RadiusToken(2, s)) for s in (2, 9, 36, 100, 294)]
    assert vals == sorted(vals)


# -------------------------------------------------------------- survivors

def test_survivors_dim2():
    surv = surviving_radii(2, 2, TABLE.lookup(2, 2))
    assert max(surv) == 293
    assert len(surv) == 94
    assert {1, 2, 4, 8} <= set(surv)


def test_survivors_dim3():
    surv = surviving_radii(3, 2, TABLE.lookup(3, 2))
    assert max(surv) == 91
    assert 93 not in surv
    assert {1, 3} <= set(surv)


def test_survivors_are_achievable_and_below_bound():
    surv = surviving_radii(2, 2, TABLE.lookup(2, 2))
    from lpcodes.distance_sets import is_achievable

    for s in surv:
        assert is_achievable(2, 2, s)
        assert induced_density_lower_bound(2, RadiusToken(2, s)) <= TABLE.lookup(2, 2)


# ----------------------------------------------------- high-dimension bound

def test_high_dimension_bound_values():
    hb = high_dimension_density_bound(30, 3)
    assert hb.value == pytest.approx(11 * 2.0**-10, rel=1e-12)
    assert hb.nontrivial
    assert hb.radius_bound == pytest.approx(20.6005803, abs=1e-5)

    assert high_dimension_density_bound(60, 3).value == pytest.approx(21 * 2.0**-20, rel=1e-12)


def test_high_dimension_bound_trivial_when_n_equals_p():
    hb = high_dimension_density_bound(3, 3)
    assert hb.value == 1.0
    assert not hb.nontrivial and hb.radius_bound is None


def test_high_dimension_bound_decreasing_in_n():
    vals = [high_dimension_density_bound(n, 3).value for n in (6, 12, 24, 48)]
    assert vals == sorted(vals, reverse=True)


# -------------------------------------------------------- cube-ball check

def test_cube_equals_ball_cases():
    v = cubic_polyomino_check(2, 3, 3)
    assert v.equal
    assert v.ball_token == RadiusToken(3, 54)
    assert v.verified_by_enumeration

    assert cubic_polyomino_check(2, 2, 3).equal  # 2 * 8 < 27


def test_cube_differs_from_ball_cases():
    assert not cubic_polyomino_check(2, 3, 2).equal  # 18 >= 16
    assert not cubic_polyomino_check(3, 2, 2).equal  # 12 >= 9


def test_cube_check_enumeration_grid():
    # the inequality test is confirmed against raw point sets on a grid
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4, 5):
            for p in range(2, 8):
                v = cubic_polyomino_check(n, r, p)
                assert v.verified_by_enumeration
                assert v.equal == (n * r**p < (r + 1) ** p)


def test_cube_check_fractional_exponent():
    v = cubic_polyomino_check(2, 3, 2.5)
    assert v.equal  # 2 * 3^2.5 = 31.18 < 4^2.5 = 32
    assert v.ball_token is None and not v.verified_by_enumeration
    assert not cubic_polyomino_check(2, 3, 2.2).equal  # 22.43 >= 21.11


def test_cube_check_rejects_bad_radius():
    with pytest.raises(ValueError):
        cubic_polyomino_check(2, 0, 3)
    with pytest.raises(ValueError):
        cubic_polyomino_check(2, 2, INF)


# -------------------------------------------------- scaled-lattice example

def test_three_z_squared_perfect_two_ways():
    # 3Z^2 tiles both by the 3x3 square (sup metric, radius 1) and by the
    # 9-point euclidean ball of radius sqrt(2)
    lat = IntegerLattice.from_rows([(3, 0), (0, 3)])
    assert verify_perfect(lat, INF, RadiusToken(INF, 1)).is_perfect
    assert verify_perfect(lat, 2, RadiusToken(2, 2)).is_perfect
    # neither tiling contradicts the packing record for its metric
    assert induced_density_lower_bound(2, RadiusToken(2, 2)) <= TABLE.lookup(2, 2)
