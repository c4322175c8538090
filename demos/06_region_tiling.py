"""Exact-cover tiling of a square region by discrete l_p balls.

The backtracker always extends at the lexicographically least uncovered
cell, so node counts (and hence failure certificates) are reproducible.
Radius 2 tiles a 21 x 21 board; radius 3 provably cannot tile 25 x 25.
"""

from lpcodes.geometry import RadiusToken, balls_overlap, enumerate_ball
from lpcodes.tiler import classify_point, excludes_plane_tiling, tile_region

print("Ball boundary structure (r=3): the four endpoints force rigidity.")
ball = enumerate_ball(2, RadiusToken(2, 9))
endpoints = [pt for pt in ball.points if classify_point(ball, pt) == "endpoint"]
print(f"  endpoints of B(3): {sorted(endpoints)}")

print("\nNext to an endpoint, only the axis-opposite center fits (r=3):")
r, token = 3, RadiusToken(2, 9)
y = (r, 1)
for c in [(y[0] - r, y[1]), (y[0] + r, y[1]), (y[0], y[1] - r), (y[0], y[1] + r)]:
    ok = not balls_overlap(c, 2, token)
    print(f"  center {c}: {'disjoint from the origin ball' if ok else 'collides'}")

print("\nPlane-tiling exclusion criterion per radius:")
for r in (1, 2, 3, 4, 5):
    print(f"  r={r}: excluded={excludes_plane_tiling(r, 2)}")

print("\nTiling runs:")
done = tile_region(enumerate_ball(2, RadiusToken(2, 4)), 10)
print(f"  r=2 on [-10,10]^2: {done.status},"
      f" {len(done.centers)} tiles, {done.nodes} nodes")
failed = tile_region(enumerate_ball(2, RadiusToken(2, 9)), 12)
print(f"  r=3 on [-12,12]^2: {failed.status} after {failed.nodes} nodes")
