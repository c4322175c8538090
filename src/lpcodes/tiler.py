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
away from the region's lower faces is a single tile.  A search node is
two ints, the board and its free region cells, and placing a tile is one
OR and one XOR; the tiling is read off the final board.  The subtrees
below the root cell's candidates are independent searches, so they can
run on several processes (forkmap.ordered_map) and be combined in
candidate order into the serial search's outcome.
"""

import contextlib
from collections import namedtuple

from .forkmap import ordered_map
from .geometry import INF, MAX_BALL_POINTS
# unused here, but the tracer of bench/run.py wraps tiler.enumerate_ball
from .geometry import enumerate_ball  # noqa: F401

__all__ = [
    "TileResult",
    "classify_point",
    "excludes_plane_tiling",
    "excludes_space_tiling",
    "tile_region",
]

DEFAULT_BUDGET = 10**7


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
    together with (r-1)^p + 2^p <= r^p.  For p = inf the ball is the
    square [-r, r]^2, which has no endpoints and tiles the plane, so the
    answer is False (the inequality, read as inf <= inf, would say True).
    """
    if r < 1 or int(r) != r:
        raise ValueError("radius must be a positive integer")
    if not p > 1:
        raise ValueError("exponent must exceed 1")
    r = int(r)
    return p != INF and r > 2 and (r - 1) ** p + 2**p <= r**p


def excludes_space_tiling(n, r, p):
    """The n >= 3 analogue: r > 2 and (n-1)(r-1)^p + (r-2)^p <= r^p.

    False for p = inf, whose ball is the cube [-r, r]^n: it tiles Z^n.
    """
    if n < 3:
        raise ValueError("use excludes_plane_tiling for n = 2")
    if r < 1 or int(r) != r:
        raise ValueError("radius must be a positive integer")
    if not p > 1:
        raise ValueError("exponent must exceed 1")
    r = int(r)
    return p != INF and r > 2 and (n - 1) * (r - 1) ** p + (r - 2) ** p <= r**p


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


def tile_region(footprint, extent, budget=DEFAULT_BUDGET, jobs=1):
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
    traversal and the node count as they would be without pruning.  Each
    candidate keeps its board mask and its region cells, so a node is two
    ints, the board and its free region cells, and placing a tile is one
    OR and one XOR.  The search keeps no centers: a completed board is
    taken apart once, tile by tile from its highest cell, and the tiles
    are put in placement order by their highest region cell, the cell
    each was placed on.  The search keeps an explicit stack, so its depth
    is not bounded by Python's recursion limit.

    The search below each candidate of the root cell (the first cell
    after the origin tile) is one subtree.  Their node counts are added
    in candidate order: the first subtree that completes gives the
    tiling, a running total over budget gives inconclusive with budget
    + 1 nodes, and otherwise the region is impossible, so status, centers
    and nodes are the serial search's.  The subtrees are dealt
    round-robin to up to `jobs` processes, the caller included
    (forkmap.ordered_map, which forks nothing for jobs = 1); a forked
    subtree stops after budget nodes, while one the caller runs stops
    where the serial search would, and the workers still searching are
    stopped once the outcome is known.

    Raises ValueError, before any work, when the region has more than
    MAX_BALL_POINTS cells.
    """
    n = footprint.dimension
    r = _integer_radius_of(footprint)
    if extent < 1:
        raise ValueError("extent must be positive")
    cells = (2 * extent + 1) ** n
    if cells > MAX_BALL_POINTS:
        raise ValueError(
            f"the region [-{extent}, {extent}]^{n} has {cells} cells, "
            f"more than MAX_BALL_POINTS = {MAX_BALL_POINTS}"
        )

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
    offsets = sorted(bit_index(v) for v in footprint.points)
    low = offsets[0]
    shape = 0
    for off in offsets:
        shape |= 1 << (off - low)
    top = offsets[-1] - low  # the shape's highest bit, the cell of v_top
    v_top = max(footprint.points, key=bit_index)

    # the region is a product of intervals, so its mask is a product of one
    # run of bits per axis
    region_mask = 1
    for i in range(n):
        region_mask *= sum(1 << ((span - c) * width**i) for c in range(-extent, extent + 1))

    def fits_of(b):
        # the candidates of cell b - 1, the branching cell when the free
        # region mask has bit length b; ascending offset gives the centers
        # t - v in lexicographic order, and a tile that reaches a region
        # cell at bit b or above must collide
        fits = []
        for off in offsets:
            mask = shape << (b - 1 - off + low)
            rmask = mask & region_mask
            if not rmask >> b:
                fits.append((mask, rmask))
        return fits

    fits_at = {}  # free.bit_length() -> the (mask, region cells) candidates
    # Both masks of a candidate are board-sized, so the cache is emptied
    # before it holds 2^28 board bits per candidate, 2^27 for each mask: a
    # search that moves on through many cells, as on a long line, then
    # keeps only the latest ones.
    max_cells = max(1, 2**27 // width**n)

    def search(occupied, free, limit):
        """(status, final board, nodes) of the search below one placement.

        A tile that fits meets no occupied cell, and every covered region
        cell is occupied, so its region cells are all free: placing it is
        one OR and one XOR.  The search keeps no centers; a completed one
        returns its board, from which tiling() reads them.
        """
        nodes = 0
        stack = []  # branch points with candidates left: (occupied, free, fits, next index)
        while free:
            b = free.bit_length()
            try:
                fits = fits_at[b]
            except KeyError:
                if len(fits_at) >= max_cells:
                    fits_at.clear()
                fits = fits_at[b] = fits_of(b)
            i, count = 0, len(fits)
            while True:  # the next disjoint candidate, backtracking as needed
                while i < count:
                    mask, rmask = fits[i]
                    i += 1
                    if not occupied & mask:
                        break
                else:
                    if not stack:
                        return "impossible", None, nodes
                    occupied, free, fits, i = stack.pop()
                    count = len(fits)
                    continue
                break
            nodes += 1
            if nodes > limit:
                return "inconclusive", None, nodes
            if i < count:
                stack.append((occupied, free, fits, i))
            occupied |= mask
            free ^= rmask
        return "completed", occupied, nodes

    origin = shape << low  # the pre-placed origin tile
    free = region_mask & ~origin
    if not free:
        return TileResult("completed", extent, footprint, ((0,) * n,), 0)

    def tiling(board):
        """The centers of a completed board's tiles, in placement order.

        The highest set bit of the board is the top cell of its tile, so
        tiles come off one at a time.  Each was placed when the search
        branched on its highest region cell, and the branching cells fall,
        so that cell, descending, orders them after the origin tile.
        """
        tiles = []
        board ^= origin
        while board:
            b = board.bit_length() - 1
            mask = shape << (b - top)
            board ^= mask
            tiles.append(((mask & region_mask).bit_length(), b))
        tiles.sort(reverse=True)
        return ((0,) * n,) + tuple(
            tuple(a - c for a, c in zip(point_of(b), v_top)) for _, b in tiles)

    root = [fit for fit in fits_of(free.bit_length()) if not origin & fit[0]]
    spent = 0  # nodes of the subtrees combined so far

    def subtree(candidate):
        # a root candidate placed, then the search below it; the caller's
        # own subtrees run once the earlier ones are combined, so they
        # stop where the whole search would
        mask, rmask = candidate
        status, board, nodes = search(origin | mask, free ^ rmask, budget - spent - 1)
        return status, board, nodes + 1

    with contextlib.closing(ordered_map(subtree, root, jobs)) as results:
        for status, board, nodes in results:
            spent += nodes
            if spent > budget:
                return TileResult("inconclusive", extent, footprint, (), budget + 1)
            if status == "completed":
                return TileResult("completed", extent, footprint, tiling(board), spent)
    return TileResult("impossible", extent, footprint, (), spent)
