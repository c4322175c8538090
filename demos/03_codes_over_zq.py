"""Linear codes over Z_q, ambient balls, and the Construction A bridge.

The running example is the cyclic code <(1,5)> in Z_13^2: a perfect
2-error-correcting code under the 2-Lee metric whose integer lift is a
perfect lattice for every p in {1, 2, 3} at radius 2.
"""

from lpcodes.geometry import INF, RadiusToken
from lpcodes.zqcodes import (
    LinearCodeZq,
    code_is_perfect,
    code_minimum_distance,
    code_packing_radius,
    construction_a,
    linfty_existence,
    transfer_packing_radius,
)

c13 = LinearCodeZq(13, 2, ((1, 5),))
print(f"<(1,5)> in Z_13^2: {c13.cardinality} words")
print(f"  2-Lee minimum distance s = {code_minimum_distance(c13, 2).power_value}")
print(f"  2-Lee packing radius  s = {code_packing_radius(c13, 2).power_value}")
print(f"  perfect at r=2?  {code_is_perfect(c13, RadiusToken(2, 4))}")

print("\nConstruction A transfer (2r < q, so radii agree):")
for p in (1, 2, 3):
    cert = transfer_packing_radius(c13, p)
    print(f"  p={p}: code r_s={cert.code_radius.power_value}"
          f"  lattice r_s={cert.lattice_radius.power_value}"
          f"  lattice {cert.lattice_status}")

print("\nWhere the transfer fails: the binary repetition code of length 7.")
rep = LinearCodeZq(2, 7, ((1,) * 7,))
print(f"  perfect at r=3 in the Lee (= Hamming) metric:"
      f" {code_is_perfect(rep, RadiusToken(1, 3))}")
cert = transfer_packing_radius(rep, 1)
print(f"  2r = 6 >= q = 2, condition met: {cert.condition_met}"
      f"  (lift determinant {construction_a(rep).determinant})")

print("\nSup-metric existence over Z_q (need q = b*m, b > 1 odd, m > 1):")
for q in (2, 4, 6, 8, 9, 12, 49):
    v = linfty_existence(q, 2)
    extra = f"  witness <{v.b}*e_i>, radius {v.radius}" if v.exists else ""
    print(f"  q={q:<3} exists={str(v.exists):<5}{extra}")

c49 = LinearCodeZq(49, 2, ((1, 7),))
print(f"\n<(1,7)> in Z_49^2 is 3-perfect in l_inf:"
      f" {code_is_perfect(c49, RadiusToken(INF, 3))}")
