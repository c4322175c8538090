"""Command-line interface: subcommands, exit codes, manifests, SVG."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lpcodes import cli

CLI = [sys.executable, "-m", "lpcodes.cli"]
ROOT = Path(__file__).resolve().parents[1]


def run(*args, env=None, timeout=300):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=merged, timeout=timeout
    )


# ----------------------------------------------------------------- ball

def test_ball_subcommand():
    proc = run("ball", "--n", "2", "--p", "2", "--s", "4")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["manifest"]["subcommand"] == "ball"
    assert obj["manifest"]["parameters"]["s"] == 4
    assert len(obj["points"]) == 13


def test_ball_difference_set():
    proc = run("ball", "--n", "2", "--p", "2", "--s", "1", "--diff")
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["points"]) == 13


def test_ball_sup_metric():
    proc = run("ball", "--n", "2", "--p", "inf", "--s", "1")
    obj = json.loads(proc.stdout)
    assert obj["manifest"]["parameters"]["p"] == "inf"
    assert len(obj["points"]) == 9


def test_ball_over_the_size_guard_exits_1_quickly():
    # the inscribed cube of half-side 3 already has 7^10 points
    proc = run("ball", "--n", "10", "--p", "2", "--s", "100", timeout=30)
    assert proc.returncode == 1
    assert "at least 282475249 points" in proc.stderr
    assert proc.stdout == ""


def test_ball_far_over_the_size_guard_is_refused_before_counting():
    proc = run("ball", "--n", "4", "--p", "2", "--s", "1000000", timeout=30)
    assert proc.returncode == 1
    assert "at least 1004006004001 points" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("p", ["1", "2"])
def test_ball_of_radius_1_in_dimension_3000(tmp_path, p):
    # the origin and +-e_i: more coordinates than Python's recursion limit
    out = tmp_path / "ball.json"
    proc = run("ball", "--n", "3000", "--p", p, "--s", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:  # each point opens one list at indent 4
        assert sum(line == "    [\n" for line in fh) == 6001


def test_ball_over_the_size_guard_in_dimension_3000_exits_1():
    proc = run("ball", "--n", "3000", "--p", "2", "--s", "5", timeout=30)
    assert proc.returncode == 1
    assert "more than MAX_BALL_POINTS" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_search_stops_at_the_difference_set_guard():
    # s <= 3 still run; at s = 4 the ball of twice the radius has 3,083,569 points
    proc = run("search", "--n", "10", "--p", "2", "--s-max", "100", "--budget", "10", timeout=30)
    assert proc.returncode == 1
    assert "n=10, p=2, s=4" in proc.stderr and "3083569 points" in proc.stderr


@pytest.mark.parametrize("jobs", ["2", "3"])
def test_search_error_on_any_share_matches_the_serial_run(jobs, capsys):
    # every share stops at its first error; the least failing token's is raised, as with --jobs 1
    argv = ["search", "--n", "10", "--p", "2", "--s-max", "100", "--budget", "10", "--jobs", jobs]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "n=10, p=2, s=4" in err and "3083569 points" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_search_rejects_jobs_below_1(jobs):
    proc = run("search", "--n", "2", "--p", "2", "--s-max", "4", "--jobs", jobs)
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "jobs must be >= 1" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--p", "2", "--s-max", "4"],
    ["tile-region", "--n", "2", "--p", "2", "--r", "1", "--extent", "3"],
])
def test_negative_budget_is_a_usage_error(argv):
    proc = run(*argv, "--budget", "-1")
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "budget must be >= 0" in proc.stderr
    assert proc.stdout == ""
    assert run(*argv, "--budget", "0").returncode == 2


def test_ball_writes_file(tmp_path):
    out = tmp_path / "ball.json"
    proc = run("ball", "--n", "2", "--p", "2", "--s", "1", "--out", str(out))
    assert proc.returncode == 0
    assert len(json.loads(out.read_text())["points"]) == 5


# ------------------------------------------------------------ distances

def test_distances_subcommand():
    proc = run("distances", "--p", "2", "--n", "2", "--limit", "10")
    obj = json.loads(proc.stdout)
    assert obj["achievable"] == [0, 1, 2, 4, 5, 8, 9, 10]


def test_distances_with_modulus():
    proc = run("distances", "--p", "2", "--n", "2", "--limit", "10", "--q", "5")
    obj = json.loads(proc.stdout)
    assert obj["achievable"] == [0, 1, 2, 4, 5, 8]


def test_distances_sup_metric():
    proc = run("distances", "--p", "inf", "--n", "2", "--limit", "5")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["achievable"] == [0, 1, 2, 3, 4, 5]
    assert obj["p"] == obj["manifest"]["parameters"]["p"] == "inf"


def test_distances_sup_metric_with_modulus():
    # every radius up to floor(q/2)
    proc = run("distances", "--p", "inf", "--n", "2", "--limit", "5", "--q", "5")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["achievable"] == [0, 1, 2]


def test_distances_rejects_exponent_zero():
    proc = run("distances", "--p", "0", "--n", "2", "--limit", "5")
    assert proc.returncode == 1
    assert "exponent must be >= 1" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("distances", "--p", "3", "--n", "2", "--limit", str(10**12)),
    ("verify", "--basis", "1,2;0,5", "--p", "3", "--s", str(10**12)),
])
def test_distance_table_over_the_guard_exits_1_quickly(argv):
    proc = run(*argv, timeout=30)
    assert proc.returncode == 1
    assert "exceeds MAX_REACH_LIMIT = 4194304" in proc.stderr
    assert proc.stdout == ""


# --------------------------------------------------------------- verify

def test_verify_perfect_lattice():
    proc = run("verify", "--basis", "1,2;0,5", "--p", "2", "--s", "1")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["status"] == "PERFECT"
    assert obj["lattice"]["basis"] == [[5, 0], [3, 1]]


def test_verify_imperfect_lattice():
    proc = run("verify", "--basis", "1,1;0,5", "--p", "2", "--s", "1")
    assert proc.returncode == 0  # a definite NOT_PERFECT is still success
    assert json.loads(proc.stdout)["status"] == "NOT_PERFECT"


def test_verify_malformed_basis():
    proc = run("verify", "--basis", "1,2;0", "--p", "2", "--s", "1")
    assert proc.returncode == 1


def test_verify_unachievable_radius():
    proc = run("verify", "--basis", "1,2;0,5", "--p", "2", "--s", "3")
    assert proc.returncode == 1


def test_verify_large_lee_radius_needs_no_distance_table():
    # s = 10^6 is decided in closed form; the table would take minutes
    proc = run("verify", "--basis", "1,2;0,5", "--p", "1", "--s", str(10**6), timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed_condition"] == "cardinality"


# ----------------------------------------------------------------- code

def test_code_subcommand():
    proc = run("code", "--q", "13", "--n", "2", "--gen", "1,5", "--p", "2")
    obj = json.loads(proc.stdout)
    assert obj["cardinality"] == 13
    assert obj["minimum_distance_s"] == 13
    assert obj["packing_radius_s"] == 4


def test_code_check_perfect_and_transfer():
    proc = run(
        "code", "--q", "13", "--n", "2", "--gen", "1,5", "--p", "2",
        "--check-perfect", "--s", "4", "--transfer",
    )
    obj = json.loads(proc.stdout)
    assert obj["perfect"] is True
    assert obj["transfer"]["condition_met"] is True
    assert obj["transfer"]["lattice_status"] == "PERFECT"


def test_code_check_perfect_requires_s():
    proc = run("code", "--q", "13", "--n", "2", "--gen", "1,5", "--p", "2", "--check-perfect")
    assert proc.returncode == 1


# --------------------------------------------------------------- search

def test_search_emits_manifest_then_outcome_lines():
    proc = run("search", "--n", "2", "--p", "2", "--s-max", "8")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    head = json.loads(lines[0])
    assert head["manifest"]["subcommand"] == "search"
    outcomes = [json.loads(line) for line in lines[1:]]
    assert [o["s"] for o in outcomes] == [1, 2, 4, 5, 8]
    assert [o["status"] for o in outcomes] == ["found", "found", "found", "exhausted", "found"]
    kernels = [o["kernel"]["basis"] for o in outcomes if o["status"] == "found"]
    assert kernels[0] == [[5, 0], [3, 1]]


def test_search_is_deterministic():
    a = run("search", "--n", "2", "--p", "2", "--s-max", "8")
    b = run("search", "--n", "2", "--p", "2", "--s-max", "8")
    assert a.stdout == b.stdout


def test_search_reports_wall_time_on_stderr_only():
    proc = run("search", "--n", "2", "--p", "2", "--s-max", "4")
    assert "elapsed" in proc.stderr
    assert "elapsed" not in proc.stdout


def test_search_budget_exhaustion_exits_2():
    proc = run("search", "--n", "2", "--p", "2", "--s-max", "8", "--budget", "3")
    assert proc.returncode == 2
    statuses = [json.loads(line)["status"] for line in proc.stdout.splitlines()[1:]]
    assert "inconclusive" in statuses


# --------------------------------------------------------------- bounds

def test_bounds_default_dumps_table():
    proc = run("bounds")
    obj = json.loads(proc.stdout)
    assert len(obj["densities"]) == 8


def test_bounds_table1():
    proc = run("bounds", "--table1")
    obj = json.loads(proc.stdout)
    assert [(row["n"], row["threshold"]) for row in obj["thresholds"]] == [
        (2, 838), (3, 299), (4, 274), (5, 214), (6, 223), (7, 231), (8, 273), (24, 357)
    ]


def test_bounds_table1_csv():
    proc = run("bounds", "--table1", "--csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,threshold"
    assert lines[1] == "2,838" and lines[-1] == "24,357"


def test_bounds_survivors():
    proc = run("bounds", "--survivors", "--n", "3")
    obj = json.loads(proc.stdout)
    assert max(obj["survivors"]) == 91
    proc = run("bounds", "--survivors")
    assert proc.returncode == 1  # --n required


def test_bounds_custom_density_file(tmp_path):
    f = tmp_path / "dens.json"
    f.write_text(json.dumps([{"n": 2, "p": 2, "density": "pi/4", "note": "square"}]))
    proc = run("bounds", "--table1", "--density-file", str(f))
    obj = json.loads(proc.stdout)
    assert len(obj["thresholds"]) == 1 and obj["thresholds"][0]["n"] == 2


def test_bounds_density_file_from_environment(tmp_path):
    f = tmp_path / "dens.json"
    f.write_text(json.dumps([{"n": 2, "p": 2, "density": "pi/4", "note": "square"}]))
    proc = run("bounds", "--table1", env={"LPCODES_DENSITY_FILE": str(f)})
    assert len(json.loads(proc.stdout)["thresholds"]) == 1


def test_bounds_missing_density_file():
    proc = run("bounds", "--table1", "--density-file", "/nonexistent/d.json")
    assert proc.returncode == 1


# ---------------------------------------------------------- tile-region

def test_tile_region_completed():
    proc = run("tile-region", "--n", "2", "--p", "2", "--r", "2", "--extent", "10")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["status"] == "completed"
    assert len(obj["centers"]) == 49


def test_tile_region_impossible_is_exit_zero():
    proc = run("tile-region", "--n", "2", "--p", "2", "--r", "3", "--extent", "12")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "impossible"


def test_tile_region_budget_exit_2():
    proc = run("tile-region", "--n", "2", "--p", "2", "--r", "3", "--extent", "12", "--budget", "10")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["status"] == "inconclusive"


# ---------------------------------------------------------------- render

def test_tile_region_over_the_size_guard_exits_1():
    proc = run("tile-region", "--n", "3", "--p", "2", "--r", "1", "--extent", "50", timeout=30)
    assert proc.returncode == 1
    assert "1030301 points" in proc.stderr  # the region [-50, 50]^3


def test_render_tile_result(tmp_path):
    art = tmp_path / "tile.json"
    svg = tmp_path / "tile.svg"
    run("tile-region", "--n", "2", "--p", "2", "--r", "2", "--extent", "10", "--out", str(art))
    proc = run("render", "--input", str(art), "--svg", str(svg))
    assert proc.returncode == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<rect" in text


def test_render_ball(tmp_path):
    art = tmp_path / "ball.json"
    svg = tmp_path / "ball.svg"
    run("ball", "--n", "2", "--p", "2", "--s", "4", "--out", str(art))
    proc = run("render", "--input", str(art), "--svg", str(svg))
    assert proc.returncode == 0
    assert svg.read_text().count("<rect") == 13


def test_render_search_lines(tmp_path):
    art = tmp_path / "search.jsonl"
    svg = tmp_path / "search.svg"
    run("search", "--n", "2", "--p", "2", "--s-max", "2", "--out", str(art))
    proc = run("render", "--input", str(art), "--svg", str(svg))
    assert proc.returncode == 0
    assert "<svg" in svg.read_text()


def test_render_rejects_garbage(tmp_path):
    art = tmp_path / "junk.json"
    art.write_text("not json at all")
    proc = run("render", "--input", str(art), "--svg", str(tmp_path / "x.svg"))
    assert proc.returncode == 1


# ------------------------------------------------------------ exit codes

def test_missing_required_argument():
    proc = run("ball", "--n", "2", "--p", "2")
    assert proc.returncode == 1


def test_unknown_subcommand():
    proc = run("frobnicate")
    assert proc.returncode == 1


def test_version_flag():
    proc = run("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_manifest_carries_version_and_parameters():
    proc = run("distances", "--p", "2", "--n", "2", "--limit", "5")
    manifest = json.loads(proc.stdout)["manifest"]
    assert set(manifest) == {"subcommand", "parameters", "version"}
    assert manifest["parameters"]["limit"] == 5
    assert "subcommand" not in manifest["parameters"]


# ------------------------------------------------------ import footprint

def loaded_modules(*argv, package="lpcodes"):
    """The modules of `package` a fresh interpreter imports, read from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.split(".")[0] == package:
                names.add(name)
    return names


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("-c", "import lpcodes") == {"lpcodes"}


def test_importing_every_module_loads_no_dataclasses():
    names = sorted(path.stem for path in (ROOT / "src" / "lpcodes").glob("*.py"))
    code = "".join(f"import lpcodes.{name}\n" for name in names if name != "__init__")
    assert "lpcodes.homsearch" in loaded_modules("-c", code)
    assert loaded_modules("-c", code, package="dataclasses") == set()


def test_search_loads_only_the_search_modules():
    serial = ["-m", "lpcodes.cli", "search", "--n", "2", "--p", "2", "--s-max", "4"]
    loaded = loaded_modules(*serial)
    assert "lpcodes.homsearch" in loaded
    for name in ("zqcodes", "density", "tiler", "svg"):
        assert f"lpcodes.{name}" not in loaded
    parallel = serial + ["--jobs", "2"]
    assert loaded_modules(*parallel, package="multiprocessing") == set()
    for argv in (serial, parallel):
        for package in ("dataclasses", "inspect"):
            assert loaded_modules(*argv, package=package) == set(), (argv, package)


def test_tile_region_loads_only_the_tiler_modules():
    argv = ["-m", "lpcodes.cli", "tile-region", "--n", "2", "--p", "2", "--r", "1", "--extent", "3"]
    loaded = loaded_modules(*argv)
    assert "lpcodes.tiler" in loaded
    for name in ("homsearch", "lattices", "distance_sets", "zqcodes", "density", "svg"):
        assert f"lpcodes.{name}" not in loaded
    for package in ("dataclasses", "inspect"):
        assert loaded_modules(*argv, package=package) == set(), package


# ----------------------------------------------------------------- README

def readme_cli_examples():
    """Each command line of the README's CLI block, split as a shell would."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]


def test_readme_cli_examples_run(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in readme_cli_examples():  # in order: render reads the tile-region output
        assert argv[0] == "lpcodes"
        proc = subprocess.run(
            CLI + argv[1:], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "tile.svg").read_text().startswith("<svg")
