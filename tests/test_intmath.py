"""Integer helpers shared by the geometry and lattice layers."""

import random

from lpcodes.intmath import divisors, factorize, iroot


def test_iroot_exact_and_floor():
    assert iroot(27, 3) == 3
    assert iroot(26, 3) == 2
    assert iroot(0, 2) == 0
    assert iroot(10**18, 2) == 10**9
    big = 12345678901234567890
    r = iroot(big, 5)
    assert r**5 <= big < (r + 1) ** 5


def test_iroot_random_against_float():
    rng = random.Random(1)
    for _ in range(500):
        s = rng.randrange(10**9)
        p = rng.randint(1, 7)
        r = iroot(s, p)
        assert r**p <= s < (r + 1) ** p


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    assert factorize(2 * 3 * 5 * 7 * 11) == {2: 1, 3: 1, 5: 1, 7: 1, 11: 1}


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
