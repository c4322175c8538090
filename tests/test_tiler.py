"""Bounded-region tiling search and the endpoint non-tiling criteria."""

import itertools
import tracemalloc

import pytest

from lpcodes.geometry import INF, RadiusToken, balls_overlap, enumerate_ball
from lpcodes.tiler import (
    classify_point,
    excludes_plane_tiling,
    excludes_space_tiling,
    tile_region,
)

BALL_R2 = enumerate_ball(2, RadiusToken(2, 4))
BALL_R3 = enumerate_ball(2, RadiusToken(2, 9))


# ------------------------------------------------------ point taxonomy

def test_classify_point_on_radius2_disk():
    assert classify_point(BALL_R2, (2, 0)) == "endpoint"
    assert classify_point(BALL_R2, (0, -2)) == "endpoint"
    assert classify_point(BALL_R2, (1, 1)) == "ordinary"
    assert classify_point(BALL_R2, (0, 0)) == "ordinary"
    assert classify_point(BALL_R2, (3, 0)) == "outside"


def test_classify_point_counts():
    # a radius-r ball in the plane has exactly 4 endpoints
    for s in (4, 9, 16, 25):
        ball = enumerate_ball(2, RadiusToken(2, s))
        kinds = [classify_point(ball, v) for v in ball.points]
        assert kinds.count("endpoint") == 4


def test_classify_point_needs_integer_radius():
    with pytest.raises(ValueError):
        classify_point(enumerate_ball(2, RadiusToken(2, 2)), (1, 1))


# ------------------------------------------------- non-tiling criteria

def test_plane_criterion():
    assert not excludes_plane_tiling(1, 2)
    assert not excludes_plane_tiling(2, 2)  # r = 2 does tile the plane
    assert excludes_plane_tiling(3, 2)  # 4 + 4 <= 9
    assert excludes_plane_tiling(4, 2)  # 9 + 4 <= 16
    assert excludes_plane_tiling(3, 3)  # 8 + 8 <= 27


def test_plane_criterion_applies_to_every_larger_radius():
    assert all(excludes_plane_tiling(r, 2) for r in range(3, 50))


def test_space_criterion():
    assert excludes_space_tiling(3, 3, 2)  # 2*4 + 1 <= 9, boundary case
    assert excludes_space_tiling(3, 3, 3)  # 2*8 + 1 <= 27
    assert not excludes_space_tiling(4, 3, 2)  # 3*4 + 1 > 9
    assert not excludes_space_tiling(3, 4, 2)  # 2*9 + 4 > 16


def test_space_criterion_needs_dimension_three_plus():
    with pytest.raises(ValueError):
        excludes_space_tiling(2, 3, 2)


def test_criteria_fractional_exponent():
    # scalar predicates accept non-integer p
    assert excludes_plane_tiling(3, 2.5)
    assert isinstance(excludes_plane_tiling(3, 1.01), bool)


# ----------------------------------------------------- bounded regions

def test_radius2_disk_tiles_square_region():
    result = tile_region(BALL_R2, 10)
    assert result.status == "completed"
    assert len(result.centers) == 49
    assert result.nodes == 12027


def assert_exact_cover(ball, centers, extent):
    counts = {}
    for center in centers:
        for v in ball.points:
            cell = tuple(c + d for c, d in zip(center, v))
            counts[cell] = counts.get(cell, 0) + 1
    region = itertools.product(range(-extent, extent + 1), repeat=ball.dimension)
    for v in region:
        assert counts.get(v, 0) == 1, v
    # tiles may stick out of the region but never overlap each other
    assert all(c == 1 for c in counts.values())


def test_radius2_completed_is_exact_cover():
    assert_exact_cover(BALL_R2, tile_region(BALL_R2, 10).centers, 10)


# the plane instances of the tile-region benchmark, with their pinned node counts
@pytest.mark.parametrize("s,extent,status,nodes", [
    (4, 13, "completed", 296659),
    (9, 16, "impossible", 42027),
    (16, 16, "impossible", 47375),
])
def test_benchmark_disk_instances(s, extent, status, nodes):
    ball = enumerate_ball(2, RadiusToken(2, s))
    result = tile_region(ball, extent, budget=10**6)
    assert (result.status, result.nodes) == (status, nodes)
    if status == "completed":
        assert len(result.centers) == 73
        assert result.centers[0] == (0, 0)
        assert_exact_cover(ball, result.centers, extent)


def test_large_region_lists_candidates_only_where_it_branches():
    # 601^2 region cells on a 609^2-bit board, but with budget 0 the search
    # lists the candidates of one cell before it stops
    tracemalloc.start()
    try:
        result = tile_region(BALL_R2, 300, budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, result.nodes) == ("inconclusive", 1)
    assert peak < 20 * 2**20


def test_long_line_keeps_the_candidate_cache_bounded():
    # the search branches on at least 20,000 cells of a 60,005-bit board:
    # kept, their masks would take about 140 MB
    tracemalloc.start()
    try:
        result = tile_region(enumerate_ball(1, RadiusToken(2, 1)), 30000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, len(result.centers)) == ("completed", 20001)
    assert peak < 64 * 2**20


def test_radius3_disk_cannot_tile():
    result = tile_region(BALL_R3, 12)
    assert result.status == "impossible"
    assert result.centers == ()
    assert result.nodes == 8043


def test_radius4_disk_cannot_tile():
    result = tile_region(enumerate_ball(2, RadiusToken(2, 16)), 12)
    assert result.status == "impossible"
    assert result.nodes == 9844


def test_cubic_ball_radius3_cannot_tile():
    result = tile_region(enumerate_ball(2, RadiusToken(3, 27)), 9)
    assert result.status == "impossible"
    assert result.nodes == 2342


def test_trivial_footprint_tiles():
    result = tile_region(enumerate_ball(2, RadiusToken(2, 0)), 2)
    assert result.status == "completed"
    assert len(result.centers) == 25
    assert result.nodes == 24


def test_budget_returns_inconclusive():
    result = tile_region(BALL_R3, 12, budget=50)
    assert result.status == "inconclusive"
    assert result.nodes >= 50


def test_tile_region_deterministic():
    a = tile_region(BALL_R2, 10)
    b = tile_region(BALL_R2, 10)
    assert a.to_json() == b.to_json()
    assert a.centers == b.centers


def test_result_json_shape():
    done = tile_region(BALL_R2, 10).to_json()
    assert done["status"] == "completed"
    assert len(done["centers"]) == 49
    assert [0, 0] in done["centers"]
    failed = tile_region(BALL_R3, 12).to_json()
    assert failed["status"] == "impossible"
    assert failed["centers"] is None
    assert failed["nodes"] == 8043


def test_deep_line_search_is_not_recursion_bound():
    # one placed tile per level: about 1000 levels, past Python's
    # default recursion limit
    result = tile_region(enumerate_ball(1, RadiusToken(2, 1)), 1500)
    assert result.status == "completed"
    centers = sorted(c[0] for c in result.centers)
    assert centers == list(range(-1500, 1501, 3))


# --------------------------------------- equivalence with the plain scan

def reference_tile_region(footprint, extent, budget):
    """Reference tiler without candidate pruning: a recursive backtracker
    that scans the region for its least uncovered cell and skips
    colliding tiles one by one.  Returns (status, nodes, centers)."""
    n = footprint.dimension
    r = footprint.radius.integer_radius()
    span = extent + 2 * r
    width = 2 * span + 1

    def cell_bit(pt):
        idx = 0
        for c in pt:
            idx = idx * width + (c + span)
        return 1 << idx

    region_bits = [
        (pt, cell_bit(pt)) for pt in itertools.product(range(-extent, extent + 1), repeat=n)
    ]
    masks, by_cell = {}, {}
    for c in itertools.product(range(-extent - r, extent + r + 1), repeat=n):
        cells = [tuple(a + b for a, b in zip(c, v)) for v in footprint.points]
        if not any(all(abs(a) <= extent for a in pt) for pt in cells):
            continue
        masks[c] = sum(cell_bit(pt) for pt in cells)
        for pt in cells:
            if all(abs(a) <= extent for a in pt):
                by_cell.setdefault(pt, []).append(c)

    nodes = 0
    chosen = [(0,) * n]

    def dfs(occupied):
        nonlocal nodes
        target = next((pt for pt, bit in region_bits if not occupied & bit), None)
        if target is None:
            return "completed"
        for c in by_cell[target]:
            if masks[c] & occupied:
                continue
            nodes += 1
            if nodes > budget:
                return "inconclusive"
            chosen.append(c)
            outcome = dfs(occupied | masks[c])
            if outcome != "impossible":
                return outcome
            chosen.pop()
        return "impossible"

    status = dfs(masks[(0,) * n])
    return status, nodes, chosen if status == "completed" else []


EQUIVALENCE_GRID = [
    (n, p, r, extent)
    for n, extents in ((1, (1, 2, 5, 8)), (2, (1, 2, 3, 4)), (3, (1, 2)))
    for p in (1, 2, 3, INF)
    for r in (1, 2, 3)
    for extent in extents
    if n * r <= 6  # keeps the slow reference within a few seconds
]
EQUIVALENCE_BUDGET = 300  # small enough that some grid cases run out


@pytest.mark.parametrize("n,p,r,extent", EQUIVALENCE_GRID)
def test_tiler_matches_reference_scan(n, p, r, extent):
    ball = enumerate_ball(n, RadiusToken.from_radius(p, r))
    result = tile_region(ball, extent, budget=EQUIVALENCE_BUDGET)
    status, nodes, centers = reference_tile_region(ball, extent, EQUIVALENCE_BUDGET)
    assert (result.status, result.nodes) == (status, nodes)
    assert list(result.centers) == centers


def test_equivalence_grid_covers_every_outcome():
    statuses = set()
    for n, p, r, extent in EQUIVALENCE_GRID:
        ball = enumerate_ball(n, RadiusToken.from_radius(p, r))
        statuses.add(tile_region(ball, extent, budget=EQUIVALENCE_BUDGET).status)
    assert statuses == {"completed", "impossible", "inconclusive"}


# ------------------------------------------------- opposite endpoints

@pytest.mark.parametrize("r", [3, 4, 5])
def test_opposite_endpoint_forcing(r):
    """Next to an endpoint of one tile, only the opposite endpoint fits.

    Take the tile at the origin and its endpoint x = r*e_0.  A neighbor
    y = x + e_1 must belong to some other tile as one of that tile's 4
    endpoints, i.e. the center is one of y -+ r*e_k.  Exactly one of
    the four candidates -- center y + r*e_0, which makes y the opposite
    endpoint along the same axis -- gives a tile disjoint from the first.
    """
    token = RadiusToken(2, r * r)
    x = (r, 0)
    y = (x[0], x[1] + 1)
    candidates = [
        (y[0] - r, y[1]),
        (y[0] + r, y[1]),
        (y[0], y[1] - r),
        (y[0], y[1] + r),
    ]
    disjoint = [c for c in candidates if not balls_overlap(c, 2, token)]
    assert disjoint == [(y[0] + r, y[1])]
