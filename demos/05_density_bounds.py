"""Packing-density thresholds: where perfect Euclidean codes cannot live.

A perfect code at radius r induces a sphere packing of density close to
the ball/cube volume ratio; once that exceeds the best known density in
dimension n, radius r is ruled out.  The threshold table turns record
densities into concrete radius cutoffs.
"""

from lpcodes.density import (
    cubic_polyomino_check,
    high_dimension_density_bound,
    induced_density_lower_bound,
    load_density_table,
    surviving_radii,
    threshold_table,
)
from lpcodes.geometry import RadiusToken

table = load_density_table()

print("floor(bound^2) per dimension (records from the shipped table):")
for n, cutoff in threshold_table(table):
    print(f"  n={n:>2}  s <= {cutoff}")

print("\nSurvivors after the per-token density test:")
for n in (2, 3):
    alive = surviving_radii(n, 2, table.lookup(n, 2))
    print(f"  n={n}: {len(alive)} tokens, max {max(alive)}"
          f"  (head {alive[:8]} ...)")

print("\nInduced density just above the cutoff exceeds the record:")
delta2 = table.lookup(2, 2)
print(f"  n=2: record {delta2:.7f},"
      f" induced at s=294 -> {induced_density_lower_bound(2, RadiusToken(2, 294)):.7f}")

print("\nHigh dimensions die immediately: (n/p + 1) * 2^(-n/p) collapses.")
for n in (30, 60):
    hb = high_dimension_density_bound(n, 3)
    print(f"  n={n}, p=3: bound {hb.value:.3e},"
          f" radius cutoff {hb.radius_bound:.4f}")

print("\nWhen the l_p ball degenerates to a cube (n * r^p < (r+1)^p):")
for n, r, p in ((2, 3, 3), (2, 2, 3), (3, 2, 2)):
    chk = cubic_polyomino_check(n, r, p)
    print(f"  n={n} r={r} p={p}: equal={chk.equal}"
          f"  (enumeration check: {chk.verified_by_enumeration})")
