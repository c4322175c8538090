#!/usr/bin/env python3
"""End-to-end benchmark of the lpcodes CLI: classification sweeps and the region tiler.

    python3 bench/run.py --workload sweep-l2-n2 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src, nothing is
installed.  With --trace 0 every repetition runs the workload through
`python3 -m lpcodes.cli` in a fresh process, as users do, and the run reports
the end-to-end metrics.  With --trace 1 the run first measures the same CLI
calls, then drives the same inputs in process, serially, with spans wrapped
around the library functions each layer calls; it reports the per-layer
metrics and writes the spans as JSON lines under bench/out/.

Every output is checked: statuses against the references in
bench/workloads.json, every found kernel with the library's own
`verify_perfect`, every completed tiling by an independent cover check, and
every artifact for byte-identity with the previous repetition.  A wrong
answer sets "correct" to false and makes the exit code 1; an honest
inconclusive outcome only counts as a failed operation.

Times are reported in reference seconds (see REFERENCE_LOOPS_PER_S).  The
seed only shuffles the order of the calls inside each round, so that slow
drift of a shared machine does not land on one side of a comparison.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a human summary goes to stderr.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_ROUNDS = 3  # untraced rounds per run, whatever --seconds says
MIN_TRACED = 2  # rounds of each kind in a traced run, so counters can be compared
CALL_TIMEOUT_S = 60  # every call takes a few seconds; a run must end within 180 s

# The speed of a shared 2-core VM drifts by a third within minutes, and the
# drift moves the fixed loop of bench/reference.py nearly as much as the CLI.
# So every wall time is scaled to reference seconds: one reference second is
# the time in which that loop runs REFERENCE_LOOPS_PER_S times (about 1 s on
# a 2-core VM with Python 3.11).  A CLI call is scaled by the reference
# samples taken just before and just after it; in-process layer times by the
# median of all samples of the run.
REFERENCE_LOOPS_PER_S = 40


# ---------------------------------------------------------------- workloads


# The set-up probe: the CLI with no search or tiling work, so only interpreter
# start, `import lpcodes`, argument handling and the manifest.
PROBE = ["search", "--n", "2", "--p", "2", "--s-max", "0"]


@dataclass
class Call:
    """One CLI invocation of a workload and the operations it answers."""

    argv: list
    serial_argv: list  # the traced run is serial: a pool would hide its spans in workers
    key: str  # identifies the call across repetitions
    label: object  # token id of the root span in the trace
    tile: dict = None
    search: dict = None


def build_calls(spec):
    if "search" in spec:
        q = spec["search"]
        argv = ["search", "--n", str(q["n"]), "--p", str(q["p"]), "--s-max", str(q["s_max"])]
        return [Call(argv + ["--jobs", str(q["jobs"])], argv + ["--jobs", "1"], "search", None,
                     search=q)]
    calls = []
    for t in spec["tiles"]:
        label = f"n{t['n']}p{t['p']}r{t['r']}e{t['extent']}"
        argv = ["tile-region", "--n", str(t["n"]), "--p", str(t["p"]), "--r", str(t["r"]),
                "--extent", str(t["extent"]), "--budget", str(t["budget"])]
        calls.append(Call(argv, argv, label, label, tile=t))
    return calls


# ------------------------------------------------------------ references


def achievable(n, p, limit):
    """Every 1 <= s <= limit that is a sum of n p-th powers, by brute force."""
    powers = list(itertools.takewhile(lambda v: v <= limit, (a**p for a in itertools.count())))
    sums = {sum(c) for c in itertools.combinations_with_replacement(powers, n)}
    return sorted(s for s in sums if 1 <= s <= limit)


def ball_points(n, p, r):
    box = range(-r, r + 1)
    return [x for x in itertools.product(box, repeat=n) if sum(abs(c) ** p for c in x) <= r**p]


def covers_exactly(tile, centers):
    """Whether the balls at `centers` are disjoint and cover [-extent, extent]^n."""
    n, extent = tile["n"], tile["extent"]
    ball, seen = ball_points(n, tile["p"], tile["r"]), set()
    for c in centers:
        for v in ball:
            cell = tuple(a + b for a, b in zip(c, v))
            if cell in seen:
                return False
            seen.add(cell)
    box = range(-extent, extent + 1)
    return all(cell in seen for cell in itertools.product(box, repeat=n))


class Checker:
    """Checks each artifact and counts operations (radius tokens, tiler instances)."""

    def __init__(self, spec):
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.previous = {}
        self.certified = {}

    def _wrong(self, message):
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(message)

    def check(self, call, rc, text):
        if call.search is not None:
            self._check_search(call, rc, text)
        else:
            self._check_tile(call, rc, text)

    def _certify(self, n, p, s, kernel):
        from lpcodes.geometry import RadiusToken
        from lpcodes.lattices import IntegerLattice, verify_perfect

        key = (p, s, json.dumps(kernel, sort_keys=True))
        if key not in self.certified:
            lat = IntegerLattice.from_json(kernel)
            ok = lat.n == n and verify_perfect(lat, p, RadiusToken(p, s)).is_perfect
            self.certified[key] = ok
        return self.certified[key]

    def _check_search(self, call, rc, text):
        q = call.search
        n, p = q["n"], q["p"]
        tokens = achievable(n, p, q["s_max"])
        found = set(tokens) if self.spec["found"] == "all" else set(self.spec["found"])
        self.attempted += len(tokens)
        lines = text.splitlines()
        if rc not in (0, 2) or not lines:
            self.failed += len(tokens)
            return
        records = {}
        for line in lines[1:]:
            rec = json.loads(line)
            records[rec["s"]] = (rec, line)
        if sorted(records) != tokens:
            self.wrong.append(f"tokens {sorted(records)} differ from the window {tokens}")
        previous = self.previous.get(call.key)
        self.previous[call.key] = records
        for s in tokens:
            if s not in records:
                self._wrong(f"s={s}: missing from the report")
                continue
            rec, line = records[s]
            status = rec["status"]
            expected = "found" if s in found else "exhausted"
            if status == "inconclusive":
                self.failed += 1
            elif status != expected:
                self._wrong(f"s={s}: {status}, reference {expected}")
            elif status == "found" and not self._certify(n, p, s, rec["kernel"]):
                self._wrong(f"s={s}: found kernel is not a perfect code")
            elif previous is not None and previous.get(s, (None, None))[1] != line:
                self._wrong(f"s={s}: artifact line changed between repetitions")

    def _check_tile(self, call, rc, text):
        t = call.tile
        self.attempted += 1
        if rc not in (0, 2):
            self.failed += 1
            return
        obj = json.loads(text)
        previous = self.previous.get(call.key)
        self.previous[call.key] = text
        status = obj["status"]
        if status == "inconclusive":
            self.failed += 1
        elif status != t["status"]:
            self._wrong(f"{call.label}: {status}, reference {t['status']}")
        elif t["nodes"] is not None and obj["nodes"] != t["nodes"]:
            self._wrong(f"{call.label}: {obj['nodes']} nodes, reference {t['nodes']}")
        elif status == "completed" and not covers_exactly(t, obj["centers"]):
            self._wrong(f"{call.label}: placements are not an exact cover")
        elif previous is not None and previous != text:
            self._wrong(f"{call.label}: artifact changed between repetitions")


# --------------------------------------------------------------- CLI runs


def run_cli(argv):
    """Returns (wall seconds, exit code, stdout); a call that hangs is killed and fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "lpcodes.cli", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, ""
    return time.perf_counter() - start, proc.returncode, proc.stdout


class Speed:
    """Times of bench/reference.py, which does not involve lpcodes, taken between calls."""

    def __init__(self):
        self.samples = []

    def sample(self):
        """Runs the reference once; returns reference seconds per measured second now."""
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "reference.py")], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, check=True)
        times = [float(line) for line in proc.stdout.split()]
        self.samples.extend(times)
        return 1 / (REFERENCE_LOOPS_PER_S * statistics.median(times))

    def factor(self):
        """Reference seconds per measured second over the whole run."""
        return 1 / (REFERENCE_LOOPS_PER_S * statistics.median(self.samples))


def another_round(durations, minimum, deadline):
    """Up to `minimum` rounds always; after that, while a typical round ends before the deadline."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def cli_rounds(calls, checker, rng, speed, deadline, min_rounds):
    """Rounds of every call plus one probe, shuffled.

    Returns the reference-second times of each call and of the probe.  Each
    wall time is scaled by the mean of the reference samples taken just
    before and just after it, so that drift between calls cancels.
    """
    walls, setups, durations = {call.key: [] for call in calls}, [], []
    while another_round(durations, min_rounds, deadline):
        began = time.perf_counter()
        steps = [None, *calls]
        rng.shuffle(steps)
        factors = [speed.sample()]
        for call in steps:
            if call is None:
                wall, rc, _ = run_cli(PROBE)
                if rc != 0:
                    raise SystemExit(f"setup probe exited {rc}")
            else:
                wall, rc, text = run_cli(call.argv)
                checker.check(call, rc, text)
            factors.append(speed.sample())
            scaled = wall * (factors[-2] + factors[-1]) / 2
            (setups if call is None else walls[call.key]).append(scaled)
        durations.append(time.perf_counter() - began)
    return walls, setups


# ----------------------------------------------------------------- tracing


class Tracer:
    """Spans (name, start, end, parent, token id) kept in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, token=None):
        parent = self._stack[-1] if self._stack else None
        if token is None and parent is not None:
            token = parent["token"]
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None, "token": token}
        self.spans.append(rec)
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr, name, token_of=None, record=None):
        """Replace module.attr by a traced wrapper; returns the original."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, token_of(*args) if token_of else None) as rec:
                result = original(*args, **kwargs)
            if record:
                rec.update(record(args, result))
            return result

        setattr(module, attr, traced)
        return original


def _token_id(token):
    return f"s={token.power_value}"


@contextlib.contextmanager
def traced_layers(tracer):
    """Wrap the public functions each layer calls, as the calling module sees them."""
    from lpcodes import distance_sets, homsearch, lattices, tiler

    ball = {"record": lambda args, out: {"points": len(out.points)}}
    layers = [
        (homsearch, "search_homomorphisms", "homsearch.search", {
            "token_of": lambda n, token, *a, **k: _token_id(token),
            "record": lambda args, out: {"status": out.status,
                                         "candidates": out.candidates_examined,
                                         "groups": len(out.groups_tried)}}),
        (homsearch, "enumerate_ball", "geometry.enumerate_ball", ball),
        (homsearch, "difference_set", "geometry.difference_set", {
            "record": lambda args, out: {"pairs": len(args[0].points) ** 2,
                                         "points": len(out.points)}}),
        (lattices, "verify_perfect", "lattices.verify_perfect", {
            "token_of": lambda lat, p, token: _token_id(token)}),
        (distance_sets, "enumerate_achievable", "distance_sets.enumerate_achievable", {}),
        (tiler, "tile_region", "tiler.tile_region", {
            "record": lambda args, out: {"status": out.status, "nodes": out.nodes}}),
        (tiler, "enumerate_ball", "geometry.enumerate_ball", ball),
    ]
    originals = []
    try:
        for module, attr, name, opts in layers:
            originals.append((module, attr, tracer.wrap(module, attr, name, **opts)))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def clear_library_caches():
    """Empty the library's memo caches, so each in-process call starts as a CLI process does."""
    for name, module in list(sys.modules.items()):
        if name == "lpcodes" or name.startswith("lpcodes."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_in_process(cli_main, call, tracer=None):
    argv = call.serial_argv
    clear_library_caches()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if tracer is None:
            rc = cli_main(argv)
        else:
            with traced_layers(tracer), tracer.span("cli.main", call.label):
                rc = cli_main(argv)
    return time.perf_counter() - start, rc, out.getvalue()


def self_time(span, children):
    covered, cursor = 0.0, span["start"]
    for c in sorted(children, key=lambda c: c["start"]):
        lo, hi = max(c["start"], cursor), min(c["end"], span["end"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span["end"] - span["start"] - covered


def layer_metrics(spans):
    """Per-layer figures of one traced round (all spans under its root spans)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    roots = children.get(None, [])
    top = [c for r in roots for c in children.get(r["id"], [])]
    searches = named("homsearch.search")
    token_times = [dur(s) for s in searches]
    search_self = sum(self_time(s, children.get(s["id"], [])) for s in searches)
    tiles = named("tiler.tile_region")
    tile_self = sum(self_time(s, children.get(s["id"], [])) for s in tiles)
    diffs = named("geometry.difference_set")
    pairs = sum(s["pairs"] for s in diffs)
    diff_points = sum(s["points"] for s in diffs)
    candidates = sum(s["candidates"] for s in searches)
    nodes = sum(s["nodes"] for s in tiles)
    return {
        "distance_sets.enumerate_s": sum(map(dur, named("distance_sets.enumerate_achievable"))),
        "geometry.enumerate_ball_s": sum(map(dur, named("geometry.enumerate_ball"))),
        "geometry.ball_points": sum(s["points"] for s in named("geometry.enumerate_ball")),
        "geometry.difference_set_s": sum(map(dur, diffs)),
        "geometry.diff_pairs": pairs,
        "geometry.diff_points": diff_points,
        "geometry.diff_yield": diff_points / pairs if pairs else 0.0,
        "homsearch.search_self_s": search_self,
        "homsearch.candidates": candidates,
        "homsearch.groups_tried": sum(s["groups"] for s in searches),
        "homsearch.candidates_per_s": candidates / search_self if search_self else 0.0,
        "homsearch.found": sum(s["status"] == "found" for s in searches),
        "homsearch.exhausted": sum(s["status"] == "exhausted" for s in searches),
        "homsearch.inconclusive": sum(s["status"] == "inconclusive" for s in searches),
        "homsearch.token_p50_s": statistics.median(token_times) if token_times else 0.0,
        "homsearch.token_max_s": max(token_times, default=0.0),
        "homsearch.token_sum_s": sum(token_times),
        "lattices.verify_perfect_s": sum(map(dur, named("lattices.verify_perfect"))),
        "lattices.verify_calls": len(named("lattices.verify_perfect")),
        "tiler.tile_region_s": tile_self,
        "tiler.nodes": nodes,
        "tiler.nodes_per_s": nodes / tile_self if tile_self else 0.0,
        "top_level_s": sum(map(dur, top)),
    }


# Work counts that must repeat exactly between traced rounds of one commit.
COUNTERS = ("homsearch.candidates", "homsearch.groups_tried", "geometry.ball_points",
            "geometry.diff_pairs", "geometry.diff_points", "tiler.nodes", "homsearch.found",
            "homsearch.exhausted", "homsearch.inconclusive", "lattices.verify_calls")

def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_yield", "_efficiency")):
        return "ratio"
    return "count"


# -------------------------------------------------------------------- main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spec", default=str(BENCH_DIR / "workloads.json"),
                    help="workload definitions and references (the self-test passes tiny ones)")
    return ap.parse_args(argv)


def summarize(name, values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    print(f"  {name}: median {statistics.median(values):.4f}, quartiles "
          f"{q[0]:.4f}..{q[2]:.4f}, {len(values)} samples", file=sys.stderr)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lpcodes" / "cli.py").is_file():
        print(f"bench: no lpcodes sources under {SRC}", file=sys.stderr)
        return 2
    with open(args.spec) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    wspec = spec["workloads"][args.workload]
    sys.path.insert(0, str(SRC))
    from lpcodes import cli

    calls = build_calls(wspec)
    checker = Checker(wspec)
    rng = random.Random(args.seed)
    speed = Speed()
    print(f"bench: workload {args.workload}, seed {args.seed}, trace {args.trace}",
          file=sys.stderr)

    run_cli(PROBE)  # warm-up: byte-compiles the package, fills the page cache
    start = time.perf_counter()
    share = 0.5 if args.trace else 1.0
    walls, setups = cli_rounds(calls, checker, rng, speed, start + share * args.seconds,
                               MIN_TRACED if args.trace else MIN_ROUNDS)
    # A median per call filters out the bursts in which a shared machine runs slow.
    sweep_s = sum(statistics.median(w) for w in walls.values())
    setup_s = statistics.median(setups)
    for key, values in walls.items():
        summarize(key, values)
    summarize("setup", setups)

    if not args.trace:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "sweep_s": sweep_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_kb / 1024,
            "ok_frac": (checker.attempted - checker.failed) / max(checker.attempted, 1),
        }
        units = {"sweep_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
    else:
        metrics = traced_run(args, calls, cli.main, checker, rng, speed, start, sweep_s,
                             setup_s, wspec)
        units = {name: unit_of(name) for name in metrics}
    summarize("reference loop", speed.samples)

    for message in checker.wrong:
        print(f"bench: WRONG: {message}", file=sys.stderr)
    correct = not checker.wrong
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def traced_run(args, calls, cli_main, checker, rng, speed, start, sweep_s, setup_s, wspec):
    """Untraced and traced in-process rounds, alternating; returns per-layer metrics."""
    tracer = Tracer()
    plain, traced, rounds, durations = [], [], [], []
    deadline = start + args.seconds
    while another_round(durations, MIN_TRACED, deadline):
        began = time.perf_counter()
        for with_trace in rng.sample([False, True], 2):
            order = rng.sample(calls, len(calls))
            first = len(tracer.spans)
            wall, factors = 0.0, [speed.sample()]
            for call in order:
                t, rc, text = run_in_process(cli_main, call, tracer if with_trace else None)
                checker.check(call, rc, text)
                factors.append(speed.sample())
                wall += t * (factors[-2] + factors[-1]) / 2
            if with_trace:
                traced.append(wall)
                rounds.append(layer_metrics(tracer.spans[first:]))
            else:
                plain.append(wall)
        durations.append(time.perf_counter() - began)

    for name in COUNTERS:
        values = {r[name] for r in rounds}
        if len(values) > 1:
            checker.wrong.append(f"counter {name} differs between traced rounds: {values}")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    print(f"bench: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
          file=sys.stderr)

    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    factor = speed.factor()  # the in-process rounds are scaled by the whole run's reference
    for name in metrics:
        if unit_of(name) == "s":
            metrics[name] *= factor
        elif unit_of(name) == "1/s":
            metrics[name] /= factor
    jobs = wspec["search"]["jobs"] if "search" in wspec else 1
    metrics["homsearch.pool_efficiency"] = metrics.pop("homsearch.token_sum_s") / (jobs * sweep_s)
    # Layer time the CLI would spend with its pool splitting the work perfectly.
    ideal = metrics.pop("top_level_s") / jobs
    metrics["cli.overhead_s"] = sweep_s - len(calls) * setup_s - ideal
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return metrics


if __name__ == "__main__":
    sys.exit(main())
