"""Command-line interface: subcommands, exit codes, manifests, SVG."""

import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lpcodes import cli

CLI = [sys.executable, "-m", "lpcodes.cli"]
ROOT = Path(__file__).resolve().parents[1]


def run(*args, timeout=300):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=timeout)


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


# SHA-256 of the ball --diff artifact without its manifest, fixed before
# B - B was kept as fibres: (n, p, s) -> digest
DIFF_SHA256 = {
    (2, 2, 5): "ed0ceecac7825284988bfc0d99514d525ab27424a0d5f635d1f3aa75adf44e08",
    (3, 1, 2): "ce701868c227ddd91cc6bef944c4307735879111f02093f771df5cccc15afef5",
    (2, "inf", 1): "2d2640fafe3cd6c6e77187769324070a8d6570901ddfdde0a2228e8e1f1af77d",
    (3, 3, 10): "53c56dc5aa71b0dac17880d4b3d04c6cdf24a3f1d37a5bbd28f79a9a2c83c031",
    (1, 2, 4): "2fefc651c2ac44c3733409847069cb57a03ef5b0b852cbf81c350864907da573",
    (4, 2, 3): "1aa92bba75607ec54758a595b18dbfd97cc20887486e216ced878c296f5eb75c",
    (2, 2, 90): "09299e85f5f0cd3986ae52738374cc7d1c53087ea97f7aaaef70dff9283d819d",
}


def artifact_sha256(tmp_path, monkeypatch, argv, code=0):
    """SHA-256 of the artifact `lpcodes argv` writes, without its manifest."""
    emit, artifacts = cli._emit, []
    monkeypatch.setattr(cli, "_emit", lambda artifact, out: artifacts.append(artifact))
    assert cli.main(argv) == code
    (artifact,) = artifacts
    if isinstance(artifact, dict):
        del artifact["manifest"]
    elif isinstance(artifact, list):
        del artifact[0]  # the manifest line; text carries no manifest
    emit(artifact, tmp_path / "artifact")
    return hashlib.sha256((tmp_path / "artifact").read_bytes()).hexdigest()


@pytest.mark.parametrize("n, p, s", list(DIFF_SHA256))
def test_ball_diff_artifact_is_byte_identical(tmp_path, monkeypatch, n, p, s):
    argv = ["ball", "--n", str(n), "--p", str(p), "--s", str(s), "--diff"]
    assert artifact_sha256(tmp_path, monkeypatch, argv) == DIFF_SHA256[n, p, s]


# SHA-256 of artifacts without their manifest, fixed while each subcommand
# still attached its own manifest, wrote its own output and chose its exit
# code: argv -> digest, every run exit 0
ARTIFACT_SHA256 = {
    "ball --n 2 --p 2 --s 25": "264f8281ed0e3a77efbaa46c64338bc6caf3a94d0f3d5731804a71ec59fa9e16",
    "ball --n 3 --p 1 --s 3": "400ce776db99ee471e4d2cbd97dae8cd4d21c29ad3563babc5ace57d61ba2356",
    "distances --p 2 --n 3 --limit 100":
        "6582507320139ee6e5d732025a0f9f4097c983e7dd96b9ae7b57e3e624b8038f",
    "distances --p 2 --n 2 --limit 50 --q 13":
        "b681bc5152c15118fcf61074504ad5e689339fb53d6c68d5fbf28a7655165c0a",
    "verify --basis 1,5;3,2 --p 2 --s 4":  # PERFECT
        "03592067a828163085b4b8a375dee4722762f8caffad85db0db90bf6f2d2969a",
    "verify --basis 1,1;0,5 --p 2 --s 1":  # NOT_PERFECT
        "f9971a4ef8802519e00250b661d57c659c97908545863283ec484f84abb58b3e",
    "code --q 13 --n 2 --gen 1,5 --p 2 --s 4 --transfer":
        "e4b889656fc8fb358c5c5760eedc354dfd1ad068a94ea9718d48e2d248ea76e7",
    "bounds --table1 --csv": "84bc114284b85e692e3d30fd9a7c84708205c9e4d4aedbc276033e5f261f734c",
    # the benchmark's l_2 plane sweep, the digest tests/test_homsearch.py pins
    "search --n 2 --p 2 --s-max 90":
        "6add2caf25510afd48f8a662b0ebd44d60880b30660a7b035b64c4ed6dc396eb",
    # the sup metric, fixed while its balls still had their own code path
    "ball --n 3 --p inf --s 2": "6ab666913647b102f542cf09049f3e4a44de9a8372b9814a92da8ac9b7bceebd",
    "verify --basis 3,0;0,3 --p inf --s 1":  # PERFECT
        "84ed7b962d8fa031f1636ac5c91bdab98d9e8d161382d533326335d04e028960",
    "verify --basis 9,0;1,1 --p inf --s 1":  # NOT_PERFECT: overlap, witness (-2, -2)
        "eabd3f3ac1295786f95da9e1ae749f29fb63d10ba1c66b32f9e37517f0b96892",
    "search --n 2 --p inf --s-max 8":
        "07269f1e443d146a71b6353f7bffd588079a5f2c19566762feaa463438394b3f",
    # walks through nodes of two and three rows, fixed while each node still
    # mapped Z^j / L to Smith quotient coordinates; n=3 p=1 crosses Z_5 x Z_5
    "search --n 3 --p 2 --s-max 24":
        "3ff44322fa0e3b2c5c28ef2cea197561fdde535b9646de523883fc2f276fa140",
    "search --n 3 --p 1 --s-max 6":
        "c1c3b2e1c2690d2489fde4e7c7e421bfe475c8bd1a3f23de35d3daebbc3616e5",
    "search --n 4 --p 2 --s-max 5":
        "9c16b0f7209347c3c9a3f005b5f1b2ee16d2c4902d4525a8adacb43074797909",
    "code --q 9 --n 2 --gen 3,0 --gen 0,3 --p inf --s 1 --transfer":
        "4f77d5e5828bc497b16dce54f75ce95bc933ed75f7944ce299726e9f8d41a410",
}


@pytest.mark.parametrize("argv", list(ARTIFACT_SHA256))
def test_artifact_is_byte_identical(tmp_path, monkeypatch, argv):
    assert artifact_sha256(tmp_path, monkeypatch, argv.split()) == ARTIFACT_SHA256[argv]


def test_render_artifact_is_byte_identical(tmp_path, monkeypatch, capsys):
    tile = tmp_path / "tile.json"
    assert cli.main(["tile-region", "--n", "2", "--p", "2", "--r", "2", "--extent", "10",
                     "--out", str(tile)]) == 0
    argv = ["render", "--input", str(tile)]
    digest = "df4aa6116273ebd0e3574acc9b40a5e32ce0cd289c38ee0f1fec96c16df279bc"
    assert cli.main(argv + ["--out", str(tmp_path / "tile.svg")]) == 0
    assert hashlib.sha256((tmp_path / "tile.svg").read_bytes()).hexdigest() == digest
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert artifact_sha256(tmp_path, monkeypatch, argv) == digest


@pytest.mark.parametrize("argv", [
    "ball --n 2 --p 2 --s 4",
    "ball --n 2 --p 1 --s 2 --diff",
    "distances --p 2 --n 2 --limit 20 --q 5",
    "verify --basis 1,1;0,5 --p 2 --s 1",
    "code --q 13 --n 2 --gen 1,5 --p 2 --s 4 --transfer",
    "search --n 2 --p 2 --s-max 8",
    "search --n 2 --p 2 --s-max 8 --budget 3",
    "bounds",
    "bounds --table1 --csv",
    "bounds --n 3",
    "tile-region --n 2 --p 2 --r 2 --extent 10",
    "tile-region --n 2 --p 2 --r 3 --extent 12 --budget 10",
])
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, capsys, argv):
    code = cli.main(argv.split())
    stdout = capsys.readouterr().out
    out = tmp_path / "artifact"
    assert cli.main(argv.split() + ["--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()


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


def test_search_meets_the_size_guard_before_its_first_search():
    # B - B of the Lee ball first outgrows the guard at s = 354, of 360 tokens
    proc = run("search", "--n", "2", "--p", "1", "--s-max", "360", timeout=10)
    assert proc.returncode == 1
    assert ("lpcodes: error: B - B of the ball n=2, p=1, s=354 may have up to 1003945 points "
            "(the ball of twice the radius), more than MAX_BALL_POINTS = 1000000\n") in proc.stderr
    assert proc.stdout == ""


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


@pytest.mark.parametrize("argv, message", [
    (["search", "--n", "2", "--p", "2", "--s-max", "4", "--jobs", "two"],
     "argument --jobs: jobs must be an integer >= 1: 'two'"),
    (["search", "--n", "2", "--p", "2", "--s-max", "4", "--budget", "1e3"],
     "argument --budget: budget must be an integer >= 0: '1e3'"),
    (["code", "--q", "5", "--n", "2", "--gen", "1,x", "--p", "1"],
     "argument --gen: expected comma-separated integers: '1,x'"),
    (["verify", "--basis", "1,x;0,5", "--p", "2", "--s", "1"],
     "argument --basis: expected comma-separated integers: '1,x'"),
    (["search", "--n", "2", "--p", "2", "--s-max", "-1"], "argument --s-max: s-max must be >= 0"),
])
def test_malformed_option_value_is_a_usage_error(argv, message):
    proc = run(*argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "usage:" in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"lpcodes {argv[0]}: error: {message}"


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


@pytest.mark.parametrize("p, n", [("1", "0"), ("inf", "-2"), ("2", "0"), ("3", "-1")])
def test_distances_rejects_dimension_below_1(p, n):
    proc = run("distances", "--p", p, "--n", n, "--limit", "5")
    assert proc.returncode == 1
    assert "dimension must be >= 1" in proc.stderr
    assert proc.stdout == ""


def test_distances_rejects_exponent_zero():
    proc = run("distances", "--p", "0", "--n", "2", "--limit", "5")
    assert proc.returncode == 1
    assert "exponent must be >= 1" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("distances", "--p", "3", "--n", "2", "--limit", str(10**12)),
    ("verify", "--basis", "1,2;0,5", "--p", "3", "--s", str(10**12)),
    # the lists of every s for p = 1 and p = inf, just over the guard
    ("distances", "--p", "1", "--n", "2", "--limit", "4194305"),
    ("distances", "--p", "inf", "--n", "2", "--limit", "4194305"),
    ("search", "--n", "2", "--p", "1", "--s-max", "4194305"),
])
def test_distance_table_over_the_guard_exits_1_quickly(argv):
    proc = run(*argv, timeout=30)
    assert proc.returncode == 1
    assert "exceeds MAX_REACH_LIMIT = 4194304" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["distances", "--p", "1", "--n", "2", "--limit", "-1"],
    ["distances", "--p", "inf", "--n", "2", "--limit", "-3"],
    ["distances", "--p", "3", "--n", "2", "--limit", "-1"],
    ["search", "--n", "2", "--p", "1", "--s-max", "-5"],
    ["search", "--n", "2", "--p", "2", "--s-max", "-5"],
])
def test_negative_limit_exits_1_for_every_p(argv, capsys):
    # distances refuses its limit when it runs; search refuses --s-max while
    # parsing, as a usage error that names the option
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    name = "s-max" if argv[0] == "search" else "limit"
    assert code == 1 and f"{name} must be >= 0" in err and out == ""


def test_search_up_to_s_0_is_an_empty_sweep(capsys):
    assert cli.main(["search", "--n", "2", "--p", "1", "--s-max", "0"]) == 0
    (manifest,) = capsys.readouterr().out.splitlines()
    assert json.loads(manifest)["manifest"]["subcommand"] == "search"


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


@pytest.mark.parametrize("basis, s", [
    ("1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1", 10**12),
    ("1,0,0;0,1,0;0,0,1", 10**8),
])
def test_verify_fails_cardinality_without_counting_a_huge_ball(basis, s):
    # the determinant lies below the cube inside the ball, so nothing is counted
    proc = run("verify", "--basis", basis, "--p", "2", "--s", str(s), timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["failed_condition"] == "cardinality"


# the index-221 lattice in Z^10 whose index is the Lee ball of radius 2
Z10 = ";".join([
    "221,0,0,0,0,0,0,0,0,0",
    "3,1,0,0,0,0,0,0,0,0",
    "9,0,1,0,0,0,0,0,0,0",
    "27,0,0,1,0,0,0,0,0,0",
    "81,0,0,0,1,0,0,0,0,0",
    "22,0,0,0,0,1,0,0,0,0",
    "66,0,0,0,0,0,1,0,0,0",
    "198,0,0,0,0,0,0,1,0,0",
    "152,0,0,0,0,0,0,0,1,0",
    "14,0,0,0,0,0,0,0,0,1",
])


def test_verify_lists_an_overlap_in_dimension_10():
    proc = run("verify", "--basis", Z10, "--p", "1", "--s", "2", timeout=30)
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert obj["status"] == "NOT_PERFECT" and obj["failed_condition"] == "overlap"


def test_search_certifies_the_lee_radius_1_code_in_dimension_12():
    proc = run("search", "--n", "12", "--p", "1", "--s-max", "1", timeout=30)
    assert proc.returncode == 0
    (outcome,) = map(json.loads, proc.stdout.splitlines()[1:])
    assert outcome["status"] == "found" and outcome["certificate"]["status"] == "PERFECT"


# ----------------------------------------------------------------- code

def test_code_subcommand():
    proc = run("code", "--q", "13", "--n", "2", "--gen", "1,5", "--p", "2")
    obj = json.loads(proc.stdout)
    assert obj["cardinality"] == 13
    assert obj["minimum_distance_s"] == 13
    assert obj["packing_radius_s"] == 4
    assert "perfect" not in obj  # perfection is checked at --s only


def test_code_check_perfect_and_transfer():
    proc = run(
        "code", "--q", "13", "--n", "2", "--gen", "1,5", "--p", "2", "--s", "4", "--transfer",
    )
    obj = json.loads(proc.stdout)
    assert obj["perfect"] is True
    assert obj["transfer"]["condition_met"] is True
    assert obj["transfer"]["lattice_status"] == "PERFECT"


@pytest.mark.parametrize("q, p", [("2898", "2"), ("258", "3")])
def test_code_over_a_large_alphabet(q, p, capsys):
    # the alphabet is too large for a distance table up to the diameter of Z_q^2
    assert cli.main(["code", "--q", q, "--n", "2", "--p", p, "--gen", "1,3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["cardinality"] == int(q) and obj["packing_radius_s"] == 2


@pytest.mark.parametrize("n", ["0", "-1"])
def test_code_rejects_dimension_below_1(n):
    proc = run("code", "--q", "13", "--n", n, "--p", "2")
    assert proc.returncode == 1
    assert "dimension must be >= 1" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_code_check_perfect_over_the_ball_guard_exits_1():
    # the Lee ball of s = 10 in Z_5^10 has more than a million words
    proc = run("code", "--q", "5", "--n", "10", "--gen", "1,1,1,1,1,1,1,1,1,1", "--p", "1",
               "--s", "10", timeout=60)
    assert proc.returncode == 1
    assert "more than MAX_BALL_POINTS" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


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


def test_search_output_is_the_same_for_every_process_count():
    # the manifest leaves out --jobs, which changes no record
    argv = ["search", "--n", "2", "--p", "2", "--s-max", "90", "--jobs"]
    serial = run(*argv, "1")
    assert serial.returncode == 0 and "jobs" not in serial.stdout.splitlines()[0]
    for jobs in ("2", "3"):
        proc = run(*argv, jobs)
        assert (proc.returncode, proc.stdout) == (0, serial.stdout), jobs


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
    proc = run("bounds", "--n", "3")
    obj = json.loads(proc.stdout)
    assert max(obj["survivors"]) == 91


@pytest.mark.parametrize("argv, n, p", [(["--n", "1"], 1, 2), (["--n", "3", "--p", "1"], 3, 1)])
def test_bounds_without_a_density_entry_exits_1(argv, n, p):
    proc = run("bounds", *argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[0] == f"lpcodes: error: no density entry for (n={n}, p={p})"


def test_bounds_lists_only_the_entries_of_its_p():
    proc = run("bounds", "--p", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["densities"] == []


@pytest.mark.parametrize("argv, message", [
    (["--table1", "--n", "3"], "not allowed with argument"),
    (["--csv"], "--csv needs --table1"),
    (["--n", "3", "--csv"], "--csv needs --table1"),
])
def test_bounds_refuses_flags_it_would_ignore(argv, message):
    proc = run("bounds", *argv)
    assert proc.returncode == 1
    assert message in proc.stderr and proc.stdout == ""


def test_bounds_custom_density_file(tmp_path):
    f = tmp_path / "dens.json"
    f.write_text(json.dumps([{"n": 2, "p": 2, "density": "pi/4", "note": "square"}]))
    proc = run("bounds", "--table1", "--density-file", str(f))
    obj = json.loads(proc.stdout)
    assert len(obj["thresholds"]) == 1 and obj["thresholds"][0]["n"] == 2


@pytest.mark.parametrize("p", ["0", "-3"])
def test_bounds_exponent_below_1_is_a_usage_error(p):
    proc = run("bounds", "--table1", "--p", p)
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "p must be >= 1" in proc.stderr
    assert proc.stdout == ""


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


# SHA-256 of the four tile-region artifacts of the benchmark without their
# manifest, fixed before the tiler read its tiles off the final board:
# (n, r, extent, budget) -> digest, all at p = 2
TILE_SHA256 = {
    (2, 2, 13, 10**6): "f227b190da9059423f3c717811059a3801af67f921fef4752b9d7831b9d746da",
    (2, 3, 16, 10**6): "93e32a22a66c8396403e83f52deb8977449b4a536d19cffef0b004519715a84d",
    (2, 4, 16, 10**6): "f678c53c6be66dc128307364af4c4925adf97917951c956c5670894301f2d0ed",
    (3, 1, 3, 10**5): "09fa33b15f264ec902743c2500665c7060d65e648a84c9a39d7f7764a202dc11",
}


@pytest.mark.parametrize("n, r, extent, budget", list(TILE_SHA256))
def test_tile_region_artifact_is_byte_identical(tmp_path, monkeypatch, n, r, extent, budget):
    argv = ["tile-region", "--n", str(n), "--p", "2", "--r", str(r),
            "--extent", str(extent), "--budget", str(budget)]
    code = 2 if n == 3 else 0  # the 7-point cross runs out of budget
    digest = artifact_sha256(tmp_path, monkeypatch, argv, code)
    assert digest == TILE_SHA256[n, r, extent, budget]


# ---------------------------------------------------------------- render

def test_tile_region_over_the_size_guard_exits_1():
    proc = run("tile-region", "--n", "3", "--p", "2", "--r", "1", "--extent", "50", timeout=30)
    assert proc.returncode == 1
    assert "the region [-50, 50]^3 has 1030301 cells" in proc.stderr


def test_render_tile_result(tmp_path):
    art = tmp_path / "tile.json"
    svg = tmp_path / "tile.svg"
    run("tile-region", "--n", "2", "--p", "2", "--r", "2", "--extent", "10", "--out", str(art))
    proc = run("render", "--input", str(art), "--out", str(svg))
    assert proc.returncode == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<rect" in text


def test_render_ball(tmp_path):
    art = tmp_path / "ball.json"
    svg = tmp_path / "ball.svg"
    run("ball", "--n", "2", "--p", "2", "--s", "4", "--out", str(art))
    proc = run("render", "--input", str(art), "--out", str(svg))
    assert proc.returncode == 0
    assert svg.read_text().count("<rect") == 13


def test_render_search_lines(tmp_path):
    art = tmp_path / "search.jsonl"
    svg = tmp_path / "search.svg"
    run("search", "--n", "2", "--p", "2", "--s-max", "2", "--out", str(art))
    proc = run("render", "--input", str(art), "--out", str(svg))
    assert proc.returncode == 0
    assert "<svg" in svg.read_text()


def test_render_rejects_garbage(tmp_path):
    art = tmp_path / "junk.json"
    art.write_text("not json at all")
    proc = run("render", "--input", str(art), "--out", str(tmp_path / "x.svg"))
    assert proc.returncode == 1


FOUND_LINE_WITHOUT_KERNEL = (
    '{"manifest":{}}\n'
    '{"n":2,"p":2,"s":1,"status":"found"}\n'
)


@pytest.mark.parametrize("argv, text, names", [
    (["bounds", "--density-file"], '[{"n": 2, "p": 2}]', "density record 0 has no 'density'"),
    (["bounds", "--density-file"], '{"n": 2}', "a density table is a JSON list of records"),
    (["bounds", "--density-file"], '[{"n": 2, "p": 2, "density": "pi/"}]', "density record 0: 'pi/' is not a number"),
    (["bounds", "--density-file"], '[{"n": 2, "p": 2, "density": "pi/4"}, 7]',
     "density record 1 is not a JSON object"),
    (["bounds", "--table1", "--density-file"], '[{"n": 2.5, "p": 2, "density": "pi/4"}]',
     "density record 0: 'n' must be an integer, got 2.5"),
    (["render", "--input"], "5", "the input is not a JSON object"),
    (["render", "--input"], '{"status": "found", "n": 2, "p": 2}', "the input record has no 's'"),
    (["render", "--input"], FOUND_LINE_WITHOUT_KERNEL, "the input record has no 'kernel'"),
    (["render", "--input"], '{"status": "completed", "n": "2", "p": 2, "s": 1, "centers": [[0, 0]]}',
     "the input record's 'n' is not an integer"),
    (["render", "--input"], '{"points": 5}', "the input record's 'points' is not a list of integer rows"),
    (["render", "--input"], '{"status": "completed", "n": 2, "p": 2, "s": 1, "centers": 7}',
     "the input record's 'centers' is not a list of integer rows"),
    (["render", "--input"], '{"points": []}', "the input record's 'points' is empty"),
])
def test_malformed_input_file_is_one_error_line(tmp_path, argv, text, names):
    path = tmp_path / "input.json"
    path.write_text(text)
    proc = run(*argv, str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[0].startswith(f"lpcodes: error: {names}")
    assert "Traceback" not in proc.stderr


def test_render_reads_every_spelling_of_the_sup_exponent(tmp_path, capsys):
    art = tmp_path / "tile.json"
    assert cli.main(["tile-region", "--n", "2", "--p", "inf", "--r", "1", "--extent", "4",
                     "--out", str(art)]) == 0
    drawn = []
    for spelling in ("inf", "infinity", "oo"):
        obj = json.loads(art.read_text())
        obj["p"] = spelling
        art.write_text(json.dumps(obj))
        assert cli.main(["render", "--input", str(art)]) == 0
        drawn.append(capsys.readouterr().out)
    assert drawn[0].startswith("<svg") and drawn.count(drawn[0]) == 3


def test_a_library_bug_is_not_reported_as_a_refusal(monkeypatch):
    def broken(args):
        raise KeyError("a bug")

    monkeypatch.setattr(cli, "cmd_ball", broken)
    with pytest.raises(KeyError):
        cli.main(["ball", "--n", "2", "--p", "2", "--s", "1"])


# ------------------------------------------------------------- encoding

@pytest.mark.parametrize("argv", [
    "ball --n 2 --p 2 --s 5",
    "ball --n 3 --p inf --s 1 --diff",
    "verify --basis 5,0;3,1 --p 1 --s 1",
    "verify --basis 4,0;0,4 --p 2 --s 2",
    "code --q 5 --n 2 --gen 1,2 --p 1 --s 1 --transfer",
    "bounds",
    "bounds --table1",
    "bounds --n 3",
    "distances --p 2 --n 2 --limit 30",
    "distances --p inf --n 3 --limit 4 --q 5",
    "tile-region --n 2 --p 2 --r 1 --extent 5",
    "tile-region --n 2 --p 2 --r 3 --extent 16 --budget 1000",
])
def test_artifacts_are_written_as_json_dumps_writes_them(tmp_path, monkeypatch, argv):
    emit, payloads = cli._emit, []

    def recording_emit(obj, out):
        payloads.append(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        emit(obj, out)

    monkeypatch.setattr(cli, "_emit", recording_emit)
    out = tmp_path / "artifact.json"
    assert cli.main(argv.split() + ["--out", str(out)]) in (0, 2)
    assert [out.read_text()] == payloads


def test_emit_formats_every_json_value_as_json_dumps_does(tmp_path):
    obj = {"a": [], "b": {}, "c": [[1, 2], [], [3]], "d": None, "e": 1.5, "f": True,
           "g": [True, 1], "h": "x\u00e9", "i": (1, -2), "j": [{"k": [[1], [2]]}],
           "l": [[1, True], [2, 3]], "m": [(4, 5), [6, 7]], "n": [[0.5, 1]], "o": [[None]],
           "p": [[10**30, -1]] * 70000}
    cli._emit(obj, tmp_path / "obj.json")
    assert (tmp_path / "obj.json").read_text() == json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
    """The modules of `package` a fresh interpreter imports, read from -X importtime.

    `package` is one top-level name or a tuple of them.
    """
    packages = (package,) if isinstance(package, str) else package
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            name = line.rsplit("|", 1)[1].strip()
            if name.split(".")[0] in packages:
                names.add(name)
    return names


def test_importing_the_package_loads_no_submodule():
    assert loaded_modules("-c", "import lpcodes") == {"lpcodes"}


def test_importing_the_cli_loads_only_what_every_subcommand_needs():
    # the benchmark harness imports lpcodes.cli in its own process
    assert loaded_modules("-c", "import lpcodes.cli") == {
        "lpcodes", "lpcodes.cli", "lpcodes.geometry", "lpcodes.intmath"}


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
    for package in ("dataclasses", "inspect", "multiprocessing"):
        assert loaded_modules(*argv, package=package) == set(), package
    # the fork map the search uses on several cores loads no pool either
    assert loaded_modules("-c", "import lpcodes.forkmap", package="multiprocessing") == set()


def test_one_process_sweep_and_tiling_fork_nothing():
    # both run through the fork map, which imports pickle and signal only to fork
    code = (
        "from lpcodes.geometry import RadiusToken, enumerate_ball\n"
        "from lpcodes.homsearch import classify\n"
        "from lpcodes.tiler import tile_region\n"
        "assert classify(2, 2, 10, jobs=1).found_tokens == (1, 2, 4, 8)\n"
        "assert tile_region(enumerate_ball(2, RadiusToken(2, 1)), 3, jobs=1).status == 'completed'\n"
    )
    assert "lpcodes.forkmap" in loaded_modules("-c", code)
    assert loaded_modules("-c", code, package=("pickle", "signal")) == set()


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


def test_readme_library_tour_runs():
    # each expression line equals the value its comment starts with; a
    # trailing parenthetical note is prose
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        body = ast.parse(code).body
        if body and isinstance(body[0], ast.Expr):
            expected = re.sub(r"\s+\([^()]*\)$", "", comment.strip())
            assert eval(code, namespace) == eval(expected, namespace), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6
