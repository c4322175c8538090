"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest bench

Checks that each run prints every metric BENCHMARK.json names, with its unit,
that a corrupted reference answer is reported as a wrong answer, and that the
benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]

TINY = {
    "workloads": {
        "sweep-l2-n2": {"search": {"n": 2, "p": 2, "s_max": 10, "jobs": 2}, "found": [1, 2, 4, 8]},
        "sweep-l2-n3": {"search": {"n": 3, "p": 2, "s_max": 4, "jobs": 1}, "found": [1, 3]},
        "sweep-lee-n2": {"search": {"n": 2, "p": 1, "s_max": 4, "jobs": 1}, "found": "all"},
        "tile-region": {"tiles": [
            {"n": 2, "p": 2, "r": 2, "extent": 8, "budget": 100000,
             "status": "completed", "nodes": 4076},
            {"n": 2, "p": 2, "r": 3, "extent": 12, "budget": 100000,
             "status": "impossible", "nodes": 8043},
            {"n": 3, "p": 2, "r": 1, "extent": 3, "budget": 1000,
             "status": "completed", "nodes": None},
        ]},
    },
}


def run_bench(tmp_path, spec, workload, trace=0, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "0", "--trace", str(trace)]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv += ["--spec", str(path)]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def result_of(proc):
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_workloads_are_defined_once_for_real_and_tiny_runs():
    real = json.loads((BENCH_DIR / "workloads.json").read_text())
    assert list(real["workloads"]) == NAMES
    assert list(TINY["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(tmp_path, workload, trace):
    proc = run_bench(tmp_path, TINY, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # The tiny n=3 tiler budget runs out: an honest failure, not a wrong answer.
    assert (result["failed"] > 0) == (workload == "tile-region")


def _corrupt_found_set(spec):
    spec["workloads"]["sweep-l2-n2"]["found"] = [1, 2, 4]


def _corrupt_node_count(spec):
    spec["workloads"]["tile-region"]["tiles"][0]["nodes"] += 1


def _corrupt_tile_status(spec):
    spec["workloads"]["tile-region"]["tiles"][1]["status"] = "completed"


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep-l2-n2", _corrupt_found_set),
    ("tile-region", _corrupt_node_count),
    ("tile-region", _corrupt_tile_status),
])
def test_a_corrupted_reference_is_reported_as_wrong(tmp_path, workload, corrupt):
    spec = json.loads(json.dumps(TINY))
    corrupt(spec)
    proc = run_bench(tmp_path, spec, workload)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "WRONG" in proc.stderr


def test_refuses_to_run_without_the_package_sources(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH_DIR, checkout / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    proc = run_bench(tmp_path, None, NAMES[0], cwd=checkout)
    assert proc.returncode != 0
    assert proc.stdout == ""
