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
are bits in lexicographic order, every tile is one shape shifted, and
each uncovered cell keeps only the candidate tiles that leave every
region cell below it free, which away from the region's lower faces
is a single tile.
"""

from collections import namedtuple

from .geometry import INF, RadiusToken, enumerate_ball

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
    branches on the lexicographically least uncovered region cell (the
    lowest set bit of the free region mask), trying the centers whose
    tile covers it in lexicographic order and counting one node per
    disjoint tile placed, so node counts are reproducible.  Every region
    cell below the branching cell is already covered, so a tile reaching
    one of them must collide: such candidates are pruned once, before
    the search, which leaves the traversal and the node count as they
    would be without pruning.  The search keeps an explicit stack, so
    its depth is not bounded by Python's recursion limit.
    """
    n = footprint.dimension
    r = _integer_radius_of(footprint)
    if extent < 1:
        raise ValueError("extent must be positive")

    span = extent + 2 * r  # cells any candidate tile can touch
    width = 2 * span + 1

    def bit_index(pt):
        # first coordinate in the highest digit: lexicographic = bit order
        idx = 0
        for c in pt:
            idx = idx * width + (c + span)
        return idx

    # Indices are linear in the point, so every tile is one shape shifted
    # by the index of its lowest cell.  The tile at t - v covers t with
    # its point v, which sits rise(v) bits above the tile's lowest cell.
    offsets = {v: bit_index(v) for v in footprint.points}
    low = min(offsets.values())
    shape = 0
    for off in offsets.values():
        shape |= 1 << (off - low)
    # descending v gives the centers t - v in lexicographic order
    rises = sorted(((off - low, v) for v, off in offsets.items()), reverse=True)

    # the region is a product of intervals, so its mask is a product of one
    # run of bits per axis
    region_mask = 1
    for i in range(n):
        region_mask *= sum(1 << ((c + span) * width**i) for c in range(-extent, extent + 1))

    # region cell index -> (center, shift) of the tiles that cover the
    # cell and leave every region cell below it free; a tile reaches at
    # most `reach` bits below its cell, so only that window of the region
    # is read: window bit b is the region cell k - reach + b
    reach = rises[0][0]
    candidates = {}
    window, last = 0, 0
    for t in enumerate_ball(n, RadiusToken(INF, extent)).points:  # lex order
        k = bit_index(t)
        window >>= k - last
        candidates[k] = [
            (tuple(a - b for a, b in zip(t, v)), k - rise)
            for rise, v in rises
            if not (window >> (reach - rise)) & shape
        ]
        window |= 1 << reach
        last = k

    nodes = 0
    chosen = [(0,) * n]
    occupied = shape << low  # the pre-placed origin tile
    free = region_mask & ~occupied
    # branch points with candidates left:
    # (occupied, candidates, next position, len(chosen))
    stack = []
    while free:
        fits = candidates[(free & -free).bit_length() - 1]
        i = 0
        while True:  # the next disjoint candidate, backtracking as needed
            while i < len(fits) and (occupied >> fits[i][1]) & shape:
                i += 1
            if i < len(fits):
                break
            if not stack:
                return TileResult("impossible", extent, footprint, (), nodes)
            occupied, fits, i, placed = stack.pop()
            del chosen[placed:]
        nodes += 1
        if nodes > budget:
            return TileResult("inconclusive", extent, footprint, (), nodes)
        c, shift = fits[i]
        if i + 1 < len(fits):
            stack.append((occupied, fits, i + 1, len(chosen)))
        chosen.append(c)
        occupied |= shape << shift
        free = region_mask & ~occupied
    return TileResult("completed", extent, footprint, tuple(chosen), nodes)
