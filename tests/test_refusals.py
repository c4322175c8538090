"""Every library entry point refuses invalid input with a ValueError that says why."""

import re

import pytest

from lpcodes.density import (
    _eval_expr,
    density_radius_bound,
    high_dimension_density_bound,
    induced_density_lower_bound,
)
from lpcodes.distance_sets import is_achievable, is_sum_of_three_squares, is_sum_of_two_squares
from lpcodes.geometry import (
    INF,
    RadiusToken,
    ball_cardinality,
    balls_overlap,
    compare_root_sums,
    enumerate_ball,
    induced_distance_oracle,
    plee_distance,
    superball_volume,
)
from lpcodes.intmath import factorize, iroot
from lpcodes.lattices import IntegerLattice, verify_perfect
from lpcodes.svg import render_lattice_tiling, render_placements
from lpcodes.tiler import classify_point, excludes_plane_tiling, excludes_space_tiling, tile_region
from lpcodes.zqcodes import (
    LinearCodeZq,
    code_is_perfect,
    code_minimum_distance,
    code_packing_radius,
    linfty_existence,
)

LEE_1 = RadiusToken(1, 1)
ZERO_CODE = LinearCodeZq(5, 2, ())  # the zero word alone


def ball():
    return enumerate_ball(2, LEE_1)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: enumerate_ball(0, LEE_1), "dimension must be >= 1",
                 id="enumerate_ball-n"),
    pytest.param(lambda: enumerate_ball(2, 1), "radius must be a RadiusToken",
                 id="enumerate_ball-radius"),
    pytest.param(lambda: ball_cardinality(0, LEE_1), "dimension must be >= 1",
                 id="ball_cardinality-n"),
    pytest.param(lambda: RadiusToken.from_radius(2, -1),
                 "from_radius expects a nonnegative integer radius", id="from_radius-negative"),
    pytest.param(lambda: IntegerLattice.from_rows([]), "empty generator list",
                 id="from_rows-empty"),
    pytest.param(lambda: verify_perfect(IntegerLattice.from_rows([(5, 0), (3, 1)]), 2, LEE_1),
                 "token exponent does not match p", id="verify_perfect-p"),
    pytest.param(lambda: tile_region(ball(), 0), "extent must be positive", id="tile_region-extent"),
    pytest.param(lambda: excludes_plane_tiling(1.5, 2), "radius must be a positive integer",
                 id="excludes_plane_tiling-radius"),
    pytest.param(lambda: excludes_plane_tiling(2, 1), "exponent must exceed 1",
                 id="excludes_plane_tiling-p"),
    pytest.param(lambda: excludes_space_tiling(3, 0, 2), "radius must be a positive integer",
                 id="excludes_space_tiling-radius"),
    pytest.param(lambda: excludes_space_tiling(3, 5, 1), "exponent must exceed 1",
                 id="excludes_space_tiling-p"),
    pytest.param(lambda: excludes_space_tiling(3, 5, -1), "exponent must exceed 1",
                 id="excludes_space_tiling-p-negative"),
    pytest.param(lambda: classify_point(ball(), (0, 0, 0)), "dimension mismatch",
                 id="classify_point-dimension"),
    pytest.param(lambda: plee_distance((0, 0), (1,), 5, 1), "dimension mismatch",
                 id="plee_distance-dimension"),
    pytest.param(lambda: induced_distance_oracle((0, 0), (1,), 5, 1), "dimension mismatch",
                 id="induced_distance_oracle-dimension"),
    pytest.param(lambda: balls_overlap((1, 0), 3, LEE_1), "dimension mismatch",
                 id="balls_overlap-dimension"),
    pytest.param(lambda: ball().contains((0.5, 0)),
                 "lattice point must have integer coordinates: (0.5, 0)", id="contains-non-integer"),
    pytest.param(lambda: linfty_existence(1, 2), "need q >= 2, n >= 1", id="linfty_existence-q"),
    pytest.param(lambda: linfty_existence(9.0, 2), "modulus must be an integer: 9.0",
                 id="linfty_existence-q-float"),
    pytest.param(lambda: LinearCodeZq(5.5, 2, ((1, 2),)), "modulus must be an integer: 5.5",
                 id="LinearCodeZq-q-float"),
    pytest.param(lambda: LinearCodeZq(True, 2, ()), "modulus must be an integer: True",
                 id="LinearCodeZq-q-bool"),
    pytest.param(lambda: LinearCodeZq(5, 2.0, ()), "dimension must be an integer: 2.0",
                 id="LinearCodeZq-n-float"),
    pytest.param(lambda: LinearCodeZq(5, 2, ((1.5, 2),)), "generator entry must be an integer: 1.5",
                 id="LinearCodeZq-entry-float"),
    pytest.param(lambda: LinearCodeZq(5, 2, ((2, True),)), "generator entry must be an integer: True",
                 id="LinearCodeZq-entry-bool"),
    pytest.param(lambda: code_minimum_distance(ZERO_CODE, 1),
                 "minimum distance needs at least two codewords", id="code_minimum_distance-words"),
    pytest.param(lambda: code_packing_radius(ZERO_CODE, 1),
                 "packing radius needs at least two codewords", id="code_packing_radius-words"),
    pytest.param(lambda: is_achievable(2, 2, -1), "distance power must be nonnegative",
                 id="is_achievable-s"),
    pytest.param(lambda: is_achievable(2, 2, 1, q=1), "modulus must be >= 2",
                 id="is_achievable-q"),
    pytest.param(lambda: iroot(-1, 2), "iroot of negative number", id="iroot-negative"),
    pytest.param(lambda: factorize(0), "factorize expects a positive integer", id="factorize-zero"),
    pytest.param(lambda: compare_root_sums(2, [(1, -2)], [(1, 1)]), "radicands must be nonnegative",
                 id="compare_root_sums-radicand"),
    pytest.param(lambda: superball_volume(0, 2), "dimension must be >= 1", id="superball_volume-n"),
    pytest.param(lambda: superball_volume(2, 0), "exponent must be >= 1", id="superball_volume-p"),
    pytest.param(lambda: density_radius_bound(0, 2, 0.5), "dimension must be >= 1",
                 id="density_radius_bound-n"),
    pytest.param(lambda: density_radius_bound(2, 0, 0.5), "exponent must be >= 1",
                 id="density_radius_bound-p"),
    pytest.param(lambda: high_dimension_density_bound(0, 3), "dimension must be >= 1",
                 id="high_dimension_density_bound-n"),
    pytest.param(lambda: high_dimension_density_bound(30, 0), "exponent must be >= 1",
                 id="high_dimension_density_bound-p"),
    pytest.param(lambda: high_dimension_density_bound(30, -2), "exponent must be >= 1",
                 id="high_dimension_density_bound-p-negative"),
    pytest.param(lambda: induced_density_lower_bound(2, RadiusToken(INF, 1)),
                 "density machinery applies to finite p", id="induced_density_lower_bound-inf"),
    pytest.param(lambda: code_is_perfect(LinearCodeZq(13, 2, ((1, 5),)), RadiusToken(2, 3)),
                 "s=3 is not an achievable p-Lee power for (p=2, n=2, q=13)",
                 id="code_is_perfect-token"),
    pytest.param(lambda: render_placements([(0, 0, 0)], [(0, 0, 0)]),
                 "only 2-D tilings can be rendered", id="render_placements-3d"),
    pytest.param(lambda: render_lattice_tiling([(0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                 "only 2-D lattices can be rendered", id="render_lattice_tiling-3d"),
])
def test_invalid_input_is_refused_with_its_reason(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, value", [
    pytest.param(lambda: IntegerLattice.from_rows([(1, 0), (0, 5)], 2).contains((0, 0, 0)), False,
                 id="contains-wrong-length"),
    pytest.param(lambda: is_sum_of_two_squares(-1), False, id="is_sum_of_two_squares-negative"),
    pytest.param(lambda: is_sum_of_three_squares(-1), False, id="is_sum_of_three_squares-negative"),
    pytest.param(lambda: superball_volume(3, INF), 8.0, id="superball_volume-inf"),
    pytest.param(lambda: density_radius_bound(1, 1.5, 0.5), 1.5,
                 id="density_radius_bound-fractional-p"),
    pytest.param(lambda: _eval_expr("2^-1"), 0.5, id="eval_expr-unary-minus"),
])
def test_edge_input_is_answered_not_refused(call, value):
    assert call() == value
