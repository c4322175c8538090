"""Classify perfect Euclidean codes by searching tiling kernels.

A lattice tiling of Z^n by B(r) is the same thing as a homomorphism
Z^n -> G onto an Abelian group of order |B(r)| that is injective on the
ball, and its kernel is a lattice of index |B(r)| that meets B - B only
at 0.  Walking every such lattice in Hermite normal form at each
achievable radius token therefore classifies perfect codes outright; the
group and the homomorphism are read off the kernel that is found.
"""

from lpcodes.homsearch import classify

for n, p, s_max in ((2, 2, 8), (3, 2, 3)):
    report = classify(n, p, s_max)
    print(f"n={n}, p={p}, s <= {s_max}: perfect codes at s in {report.found_tokens}")
    for o in report.outcomes:
        if o.status == "found":
            phi = o.homomorphism
            print(f"  s={o.token.power_value:>2}  {phi.label():<6}"
                  f" e_i -> {list(phi.images)}   kernel {list(o.kernel.basis)}")
        elif o.status == "exhausted":
            print(f"  s={o.token.power_value:>2}  exhausted after"
                  f" {o.candidates_examined} Hermite candidates"
                  f" (diagonals and residues)")
    print()

print("Every found kernel carries a PERFECT certificate:")
report = classify(2, 2, 8)
for o in report.outcomes:
    if o.status == "found":
        print(f"  s={o.token.power_value}: {o.certificate.status}")
