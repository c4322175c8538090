"""A fixed computation that does not involve lpcodes; its time tracks the machine's speed.

    python3 bench/reference.py

Runs the loop three times in a fresh process, as the benchmark runs the CLI,
and prints the wall time of each run in seconds, one per line.
"""

import time


def loop():
    # Differences of the points of a disc: tuples, hashing and set growth, as in B - B.
    pts = [(a, b) for a in range(-12, 13) for b in range(-12, 13) if a * a + b * b <= 144]
    diffs = {(x0 - y0, x1 - y1) for x0, x1 in pts for y0, y1 in pts}
    if len(diffs) != 1729:
        raise RuntimeError("reference loop computed the wrong set")


if __name__ == "__main__":
    for _ in range(3):
        start = time.perf_counter()
        loop()
        print(time.perf_counter() - start)
