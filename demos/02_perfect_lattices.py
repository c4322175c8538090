"""All known perfect Euclidean codes in dimensions 2 and 3, re-verified.

Each lattice below tiles Z^n by translates of B_2^n(sqrt s): its
determinant equals the ball cardinality and no nonzero lattice vector
lands in the difference set B - B.  The verifier re-derives both facts.
"""

from lpcodes.geometry import INF, RadiusToken
from lpcodes.lattices import (
    IntegerLattice,
    minimum_distance,
    packing_radius,
    radius_bracket,
    verify_perfect,
)

KNOWN = [
    (2, 1, [(1, 2), (0, 5)]),
    (2, 2, [(3, 2), (0, 3)]),
    (2, 4, [(1, 5), (3, 2)]),
    (2, 8, [(5, 4), (0, 5)]),
    (3, 1, [(1, 0, 2), (0, 1, 4), (0, 0, 7)]),
    (3, 3, [(3, 8, 0), (0, 3, 2), (0, 0, 3)]),
]

for n, s, rows in KNOWN:
    lat = IntegerLattice.from_rows(rows)
    cert = verify_perfect(lat, 2, RadiusToken(2, s))
    print(f"n={n} s={s:>2}  det={lat.determinant:>2}  basis={rows}  -> {cert.status}")

print()
print("A near miss: det matches mu but balls collide.")
bad = IntegerLattice.from_rows([(1, 1), (0, 5)])
cert = verify_perfect(bad, 2, RadiusToken(2, 1))
print(f"  {bad.basis} at s=1 -> {cert.status} ({cert.failed_condition},"
      f" witness {cert.witness_vector})")

print()
print("Minimum distance vs packing radius, bracket check on Z(3,0)+Z(0,3):")
lat = IntegerLattice.from_rows([(3, 0), (0, 3)])
for p in (1, 2, INF):
    d = minimum_distance(lat, p)
    r = packing_radius(lat, p)
    lo, hi, _, _ = radius_bracket(lat, p)
    label = "inf" if p == INF else p
    print(f"  p={label:<3}  d_s={d.power_value:<3} r_s={r.power_value:<3}"
          f"  bracket lower={lo} upper={hi}")
