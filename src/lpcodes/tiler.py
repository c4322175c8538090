"""Bounded-region tiling search and the integer-radius non-tiling criteria.

Tilings of R^n by the polyomino of a discrete ball correspond to exact
covers of Z^n by translated balls, so non-tiling evidence can be
machine-checked on a finite window: if no placement set with globally
disjoint tiles covers [-E, E]^n while containing the tile at the origin,
then no tiling of the whole space exists (translating any tiling moves
one tile's center to the origin).

The closed-form criteria cover the asymptotic regime: once the ball is
pointed enough that (r-1)^p + 2^p <= r^p (plane) or the n-dimensional
analogue holds, the neighborhood that must surround an endpoint cannot
be completed, independently of any search window.

The window search is a deterministic backtracker over bitmasks: cells
are bits in reverse lexicographic order, so the least uncovered cell is
the highest free bit, and every tile is one shape shifted.  A cell's
candidate tiles are listed when the search first branches on it, and
only those that leave every region cell before it free are kept, which
away from the region's lower faces is a single tile.
"""

from collections import namedtuple

from .geometry import INF, RadiusToken, check_ball_size
# unused here, but the tracer of bench/run.py wraps tiler.enumerate_ball
from .geometry import enumerate_ball  # noqa: F401

__all__ = [
    "TileResult",
    "classify_point",
    "excludes_plane_tiling",
    "excludes_space_tiling",
    "tile_region",
]


def _integer_radius_of(footprint):
    r = footprint.radius.integer_radius()
    if r is None:
        raise ValueError("footprint radius is not an integer")
    return r


def classify_point(footprint, x):
    """endpoint / ordinary / outside relative to a ball of integer radius.

    Endpoints are the extreme points +-r e_i; they are the only ball
    points all of whose sideways neighbors leave the ball, which is what
    the region arguments lever.
    """
    r = _integer_radius_of(footprint)
    n = footprint.dimension
    if len(x) != n:
        raise ValueError("dimension mismatch")
    if not footprint.contains(x):
        return "outside"
    if sum(1 for c in x if c) == 1 and max(abs(c) for c in x) == r:
        return "endpoint"
    return "ordinary"


def excludes_plane_tiling(r, p):
    """True when no tiling of R^2 by the radius-r polyomino can exist.

    Exact integer arithmetic for integer p; the criterion is r > 2
    together with (r-1)^p + 2^p <= r^p.
    """
    if r < 1 or int(r) != r:
        raise ValueError("radius must be a positive integer")
    if not p > 1:
        raise ValueError("exponent must exceed 1")
    r = int(r)
    return r > 2 and (r - 1) ** p + 2**p <= r**p


def excludes_space_tiling(n, r, p):
    """The n >= 3 analogue: r > 2 and (n-1)(r-1)^p + (r-2)^p <= r^p."""
    if n < 3:
        raise ValueError("use excludes_plane_tiling for n = 2")
    if r < 1 or int(r) != r:
        raise ValueError("radius must be a positive integer")
    r = int(r)
    return r > 2 and (n - 1) * (r - 1) ** p + (r - 2) ** p <= r**p


class TileResult(namedtuple("TileResult", "status extent footprint centers nodes")):
    """Outcome of the bounded-region search for the ball footprint.

    status is completed, impossible or inconclusive.  completed carries
    the tile centers; impossible carries only the node count, which
    together with the deterministic traversal order is the reproducible
    certificate; inconclusive means the budget ran out.
    """

    __slots__ = ()

    def to_json(self):
        return {
            "status": self.status,
            "extent": self.extent,
            "n": self.footprint.dimension,
            "p": self.footprint.radius.json_p(),
            "s": self.footprint.radius.power_value,
            "centers": [list(c) for c in self.centers] if self.status == "completed" else None,
            "nodes": self.nodes,
        }


def tile_region(footprint, extent, budget=10**7):
    """Exact-cover search for [-extent, extent]^n by translates of the ball.

    The origin tile is pre-placed; candidate centers range over
    [-extent-r, extent+r]^n so no boundary-crossing tile is missed, and
    tiles must be disjoint everywhere (not only inside the region), as
    the restriction of any genuine tiling would be.  Backtracking always
    branches on the lexicographically least uncovered region cell,
    trying the centers whose tile covers it in lexicographic order and
    counting one node per disjoint tile placed, so node counts are
    reproducible.  Cells are numbered in reverse lexicographic order, so
    that cell is the highest set bit of the free region mask.

    A cell's candidate tiles are listed the first time the search
    branches on it, so the set-up costs nothing per region cell and a
    run cut short by its budget lists only the cells it reached (a few
    hundred on the benchmark instances).  Every region cell before the
    branching cell is already covered, so a tile reaching one of them
    must collide: such tiles are left out of the list, which leaves the
    traversal and the node count as they would be without pruning.  The
    search keeps an explicit stack, so its depth is not bounded by
    Python's recursion limit.

    Raises ValueError, before any work, when the region has more than
    MAX_BALL_POINTS cells.
    """
    n = footprint.dimension
    r = _integer_radius_of(footprint)
    if extent < 1:
        raise ValueError("extent must be positive")
    check_ball_size(n, RadiusToken(INF, extent))  # the region is that ball

    span = extent + 2 * r  # cells any candidate tile can touch
    width = 2 * span + 1

    def bit_index(pt):
        # first coordinate in the highest digit, reversed: the
        # lexicographically least cell has the highest index
        idx = 0
        for c in pt:
            idx = idx * width + (span - c)
        return idx

    def point_of(idx):
        pt = []
        for _ in range(n):
            idx, digit = divmod(idx, width)
            pt.append(span - digit)
        return pt[::-1]

    # Indices are linear in the point, so every tile is one shape shifted
    # by the index of its lowest cell.  The tile at t - v covers cell
    # k = bit_index(t) with its point v, and its mask is the shape shifted
    # by k - off(v) + low.
    offsets = sorted((bit_index(v), v) for v in footprint.points)
    low = offsets[0][0]
    shape = 0
    for off, _ in offsets:
        shape |= 1 << (off - low)

    # the region is a product of intervals, so its mask is a product of one
    # run of bits per axis
    region_mask = 1
    for i in range(n):
        region_mask *= sum(1 << ((span - c) * width**i) for c in range(-extent, extent + 1))

    def fits_of(k):
        # ascending offset gives the centers t - v in lexicographic order;
        # a tile that reaches a region cell above bit k must collide
        t = point_of(k)
        fits = []
        for off, v in offsets:
            mask = shape << (k - off + low)
            if not (mask & region_mask) >> (k + 1):
                fits.append((tuple(a - b for a, b in zip(t, v)), mask))
        return fits

    fits_at = {}  # branching cell -> its (center, mask) candidates
    # Masks are board-sized, so the cache is emptied before it holds
    # 2^28 board bits per candidate: a search that moves on through many
    # cells, as on a long line, then keeps only the latest ones.
    max_cells = max(1, 2**28 // width**n)
    nodes = 0
    chosen = [(0,) * n]
    occupied = shape << low  # the pre-placed origin tile
    free = region_mask & ~occupied
    # branch points with candidates left:
    # (occupied, free, candidates, next position, len(chosen))
    stack = []
    while free:
        k = free.bit_length() - 1
        fits = fits_at.get(k)
        if fits is None:
            if len(fits_at) >= max_cells:
                fits_at.clear()
            fits = fits_at[k] = fits_of(k)
        i = 0
        while True:  # the next disjoint candidate, backtracking as needed
            while i < len(fits) and occupied & fits[i][1]:
                i += 1
            if i < len(fits):
                break
            if not stack:
                return TileResult("impossible", extent, footprint, (), nodes)
            occupied, free, fits, i, placed = stack.pop()
            del chosen[placed:]
        nodes += 1
        if nodes > budget:
            return TileResult("inconclusive", extent, footprint, (), nodes)
        c, mask = fits[i]
        if i + 1 < len(fits):
            stack.append((occupied, free, fits, i + 1, len(chosen)))
        chosen.append(c)
        occupied |= mask
        free ^= mask & free
    return TileResult("completed", extent, footprint, tuple(chosen), nodes)
