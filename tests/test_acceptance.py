"""End-to-end acceptance: one test per headline claim, in order.

Each test prints a single PASS line (visible with -v as the test
verdict); timing ceilings from the project brief are asserted with wide
margins.  Runs that feed the determinism check (criteria 2, 5, 12) are
executed exactly twice through module-level caches.
"""

import functools
import itertools
import json
import random
import subprocess
import sys
import time

from group_helpers import all_linear_codes

from lpcodes.density import (
    cubic_polyomino_check,
    load_density_table,
    surviving_radii,
    threshold_table,
)
from lpcodes.distance_sets import is_achievable, sums_of_powers_reachable
from lpcodes.geometry import (
    INF,
    RadiusToken,
    ball_cardinality,
    balls_overlap,
    enumerate_ball,
    induced_distance_oracle,
    plee_distance,
)
from lpcodes.homsearch import classify, search_homomorphisms
from lpcodes.lattices import (
    canonicalize,
    minimum_distance,
    packing_radius,
    radius_bracket,
    verify_perfect,
)
from lpcodes.tiler import tile_region
from lpcodes.zqcodes import (
    LinearCodeZq,
    code_is_perfect,
    code_packing_radius,
    linfty_existence,
    transfer_packing_radius,
)

DIM2_KERNELS = {
    1: [(1, 2), (0, 5)],
    2: [(3, 2), (0, 3)],
    4: [(1, 5), (3, 2)],
    8: [(5, 4), (0, 5)],
}
DIM3_KERNELS = {
    1: [(1, 0, 2), (0, 1, 4), (0, 0, 7)],
    3: [(3, 8, 0), (0, 3, 2), (0, 0, 3)],
}


@functools.lru_cache(maxsize=None)
def _search_dim2_full(run_index):
    """One full CLI sweep over s <= 294; cached per run index."""
    proc = subprocess.run(
        [sys.executable, "-m", "lpcodes.cli", "search",
         "--n", "2", "--p", "2", "--s-max", "294", "--jobs", "4"],
        capture_output=True, text=True, timeout=1800,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@functools.lru_cache(maxsize=None)
def _survivors_snapshot(run_index):
    table = load_density_table()
    return json.dumps(
        {
            "dim2": surviving_radii(2, 2, table.lookup(2, 2)),
            "dim3": surviving_radii(3, 2, table.lookup(3, 2)),
        },
        sort_keys=True,
    )


@functools.lru_cache(maxsize=None)
def _tiler_snapshot(run_index):
    reports = [
        tile_region(enumerate_ball(2, RadiusToken(2, 4)), 10).to_json(),
        tile_region(enumerate_ball(2, RadiusToken(2, 9)), 12).to_json(),
    ]
    return json.dumps(reports, sort_keys=True)


def _stamp(num, label, t0, limit):
    elapsed = time.time() - t0
    assert elapsed <= limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {num:02d} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_01_ball_orders():
    t0 = time.time()
    assert [ball_cardinality(2, RadiusToken(2, s)) for s in (1, 2, 4, 8)] == [5, 9, 13, 25]
    assert [ball_cardinality(3, RadiusToken(2, s)) for s in (1, 3)] == [7, 27]
    _stamp(1, "ball and group orders", t0, 1)


def test_criterion_02_dim2_classification():
    t0 = time.time()
    lines = _search_dim2_full(0).splitlines()
    outcomes = [json.loads(line) for line in lines[1:]]  # line 0 is the manifest
    assert len(outcomes) == 111  # achievable tokens 1 <= s <= 294
    found = {o["s"]: o for o in outcomes if o["status"] == "found"}
    assert sorted(found) == [1, 2, 4, 8]
    assert all(o["status"] == "exhausted" for o in outcomes if o["s"] not in found)
    for s, o in found.items():
        assert o["certificate"]["status"] == "PERFECT"
        kernel = canonicalize(o["kernel"]["basis"])
        assert kernel == canonicalize(DIM2_KERNELS[s])
        assert verify_perfect(kernel, 2, RadiusToken(2, s)).is_perfect
    _stamp(2, "dim-2 classification s <= 294", t0, 1800)


def test_criterion_03_dim3_classification():
    t0 = time.time()
    report = classify(3, 2, 20)
    assert report.found_tokens == (1, 3)
    for outcome in report.outcomes:
        if outcome.status == "found":
            assert outcome.kernel == canonicalize(DIM3_KERNELS[outcome.token.power_value])
        else:
            assert outcome.status == "exhausted"
    _stamp(3, "dim-3 classification s <= 20", t0, 600)


def test_criterion_04_threshold_table():
    t0 = time.time()
    expected = {2: 838, 3: 299, 4: 274, 5: 214, 6: 223, 7: 231, 8: 273, 24: 357}
    got = dict(threshold_table(load_density_table()))
    assert set(got) == set(expected)
    for n, want in expected.items():
        assert abs(got[n] - want) <= 1, (n, got[n], want)
    _stamp(4, "threshold table", t0, 1)


def test_criterion_05_tightened_sweeps():
    t0 = time.time()
    snap = json.loads(_survivors_snapshot(0))
    assert max(snap["dim2"]) < 294
    assert max(snap["dim3"]) <= 92
    _stamp(5, "density-tightened sweeps", t0, 60)


def test_criterion_06_induced_metric_oracle():
    t0 = time.time()
    rng = random.Random(20260823)
    for _ in range(10_000):
        q = rng.randint(2, 25)
        n = rng.randint(1, 3)
        p = rng.randint(1, 3)
        x = tuple(rng.randrange(q) for _ in range(n))
        y = tuple(rng.randrange(q) for _ in range(n))
        assert plee_distance(x, y, q, p) == induced_distance_oracle(x, y, q, p, 2)
    _stamp(6, "induced-metric equivalence", t0, 60)


def test_criterion_07_square_sum_characterizations():
    t0 = time.time()
    for n in (2, 3, 4):
        table = sums_of_powers_reachable(2, n, 2000)
        for s in range(2001):
            assert is_achievable(2, n, s) == (table[s] == 1), (n, s)
    _stamp(7, "square-sum characterizations vs DP", t0, 60)


def test_criterion_08_radius_bracket():
    t0 = time.time()
    rng = random.Random(8)
    exponents = (1, 2, INF)
    done = 0
    while done < 500:
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n)]
        try:
            lat = canonicalize(rows)
        except ValueError:
            continue
        p = exponents[done % 3]
        lower_ok, upper_ok, _, _ = radius_bracket(lat, p)
        assert lower_ok and upper_ok, (rows, p)
        done += 1
    _stamp(8, "minimum-distance bracket", t0, 300)


def test_criterion_09_z4_codes_remark():
    t0 = time.time()
    eye4 = [tuple(4 if i == j else 0 for j in range(4)) for i in range(4)]
    c1 = canonicalize([(2, 0, 0, 0)] + eye4, 4)
    c2 = canonicalize([(1, 1, 1, 1)] + eye4, 4)
    assert minimum_distance(c1, 2) == minimum_distance(c2, 2) == RadiusToken(2, 4)
    assert packing_radius(c1, 2) == RadiusToken(2, 0)
    assert packing_radius(c2, 2) == RadiusToken(2, 1)
    _stamp(9, "equal distances, unequal radii", t0, 1)


def test_criterion_10_sup_metric_suite():
    t0 = time.time()
    for q in range(2, 13):
        for n in (1, 2):
            exists = False
            for code in all_linear_codes(q, n):
                if code.cardinality in (1, q**n):
                    continue
                r = code_packing_radius(code, INF)
                if r.power_value >= 1 and code_is_perfect(code, INF, r):
                    exists = True
                    break
            assert exists == linfty_existence(q, n).exists, (q, n)
    c49 = LinearCodeZq(49, 2, ((1, 7),))
    assert code_is_perfect(c49, INF, RadiusToken(INF, 3))
    check = cubic_polyomino_check(2, 3, 3)
    assert check.equal and check.ball_token == RadiusToken(3, 54)
    assert code_is_perfect(c49, 3, check.ball_token)
    _stamp(10, "sup-metric existence suite", t0, 120)


def test_criterion_11_construction_a_transfer():
    t0 = time.time()
    c13 = LinearCodeZq(13, 2, ((1, 5),))
    for p in (1, 2, 3):
        cert = transfer_packing_radius(c13, p)
        assert cert.condition_met
        assert cert.code_radius.power_value == 2**p
        assert cert.code_perfect and cert.radii_equal
        assert cert.lattice_status == "PERFECT"
    rep = LinearCodeZq(2, 7, ((1,) * 7,))
    rep_cert = transfer_packing_radius(rep, 1)
    assert code_is_perfect(rep, 1, RadiusToken(1, 3))
    assert not rep_cert.condition_met
    _stamp(11, "construction-A transfer", t0, 60)


def test_criterion_12_region_tiler():
    t0 = time.time()
    done, blocked = json.loads(_tiler_snapshot(0))
    assert done["status"] == "completed" and len(done["centers"]) == 49
    assert blocked["status"] == "impossible" and blocked["nodes"] == 8043
    for r in (3, 4, 5):
        token = RadiusToken(2, r * r)
        y = (r, 1)
        candidates = [(y[0] - r, y[1]), (y[0] + r, y[1]), (y[0], y[1] - r), (y[0], y[1] + r)]
        disjoint = [c for c in candidates if not balls_overlap(c, 2, token)]
        assert disjoint == [(y[0] + r, y[1])], r
    _stamp(12, "bounded-region tiler", t0, 900)


def test_criterion_13_determinism():
    t0 = time.time()
    assert _search_dim2_full(0) == _search_dim2_full(1)
    assert _survivors_snapshot(0) == _survivors_snapshot(1)
    assert _tiler_snapshot(0) == _tiler_snapshot(1)
    _stamp(13, "byte-identical reruns", t0, 1800)


def test_criterion_14_dim3_classification_to_s32():
    t0 = time.time()
    report = classify(3, 2, 32)
    assert report.found_tokens == (1, 3)
    for outcome in report.outcomes:
        if outcome.status == "found":
            assert outcome.kernel == canonicalize(DIM3_KERNELS[outcome.token.power_value])
        else:
            assert outcome.status == "exhausted", outcome.token
    _stamp(14, "dim-3 classification s <= 32", t0, 300)


def test_criterion_15_dim3_classification_to_density_cutoff():
    t0 = time.time()
    report = classify(3, 2, 91, jobs=2)  # s = 91 is the density cutoff for n = 3
    assert report.found_tokens == (1, 3)
    for outcome in report.outcomes:
        if outcome.status == "found":
            assert outcome.kernel == canonicalize(DIM3_KERNELS[outcome.token.power_value])
        else:
            assert outcome.status == "exhausted", outcome.token
    _stamp(15, "dim-3 classification s <= 91", t0, 600)


def test_criterion_16_lee_classification():
    t0 = time.time()
    # Golomb-Welch (1970): the Lee sphere of every radius tiles the plane
    plane = classify(2, 1, 40)
    assert plane.found_tokens == tuple(range(1, 41))
    # Gravier-Mollard-Payan (1998): in Z^3 only radius 1 tiles
    space = classify(3, 1, 10)
    assert space.found_tokens == (1,)
    assert all(o.status == "exhausted" for o in space.outcomes[1:])
    for outcome in plane.outcomes + space.outcomes[:1]:
        assert outcome.certificate.is_perfect, outcome.token
    _stamp(16, "Lee classification, n = 2 to s = 40 and n = 3 to s = 10", t0, 120)


def test_criterion_17_lee_radius_2_in_dimensions_3_to_7():
    t0 = time.time()
    # Horak-Grosek (2014): no linear perfect Lee code of radius 2 for 3 <= n <= 12
    candidates = {3: 200, 4: 886, 5: 6142, 6: 65316, 7: 395812}
    for n, count in candidates.items():
        outcome = search_homomorphisms(n, RadiusToken(1, 2))
        assert (outcome.status, outcome.candidates_examined) == ("exhausted", count), n
    _stamp(17, "Lee radius 2, n = 3 to 7", t0, 60)


def test_criterion_18_exhausted_lee_token_rules_out_codes_over_z5():
    t0 = time.time()
    # A linear code over Z_q that is perfect for radius power s, with 2r < q,
    # lifts by Construction A to a lattice tiling of determinant |B|.  So the
    # exhausted Lee token s = 2 at n = 3 (criterion 17) rules out such codes
    # over Z_5, where 2r = 4 < 5.  Checked here without the walk: a perfect
    # code has order 5^3 / |B| = 5, so one vector generates it.
    token = RadiusToken(1, 2)
    assert ball_cardinality(3, token) == 25
    assert token.doubled().power_value < 5
    # one generator per subgroup of order 5: its first nonzero coordinate is 1
    generators = [
        v for v in itertools.product(range(5), repeat=3) if any(v) and next(filter(None, v)) == 1
    ]
    assert len(generators) == 31
    codes = [LinearCodeZq(5, 3, (v,)) for v in generators]
    assert len({frozenset(code.codewords()) for code in codes}) == 31
    assert not any(code_is_perfect(code, 1, token) for code in codes)
    _stamp(18, "no perfect Lee radius-2 code over Z_5^3", t0, 60)
