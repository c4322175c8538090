"""Exact-arithmetic toolkit for perfect codes and lattice tilings in
l_p and p-Lee metrics: ball enumeration, achievable-distance sets,
lattice certificates, linear codes over Z_q, group homomorphism search,
density thresholds, and bounded-region tiling evidence.

Import the library from its submodules (lpcodes.geometry,
lpcodes.homsearch, ...); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
