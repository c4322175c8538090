"""Command-line interface: exact computations in, JSON artifacts out.

Each subcommand only computes and returns its artifact: a dict, a list
of records (search), or text (bounds --csv, render).  main owns the
rest, once for all of them: it embeds the manifest (subcommand,
parameters, library version) in a dict or as the first record, writes
the artifact to --out or stdout, byte-identical across reruns with the
same manifest, and sends wall time to stderr only.  Every JSON artifact
is compact key-sorted JSON, one line per record, a dict being one line;
`python -m json.tool --json-lines FILE` pretty-prints one.  Exit codes:
0 success, 1 usage or computation error, 2 when the artifact or one of
its records is inconclusive.
"""

import argparse
import contextlib
import json
import os
import sys
import time

# Each subcommand imports the library modules it runs when it runs, so that
# a call loads (and, without cached bytecode, compiles) only those.
from . import __version__
from .geometry import RadiusToken, difference_set, enumerate_ball, exponent_json, read_exponent


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_exponent(text):
    try:
        return read_exponent(text)
    except ValueError as exc:  # argparse prints only this error's message
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(name, least):
    """argparse type for an integer option `name` that must be >= least."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer >= {least}: {text!r}")
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}")
        return value

    return parse


def _parse_row(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _parse_basis(text):
    return tuple(map(_parse_row, text.split(";")))  # IntegerLattice refuses ragged rows


def _json_param(value):
    return [_json_param(v) for v in value] if isinstance(value, tuple) else exponent_json(value)


def _manifest(args, skip=("func", "jobs", "out", "subcommand")):
    # where the artifact goes and how many processes made it change no byte of it
    params = {k: _json_param(v) for k, v in sorted(vars(args).items()) if k not in skip}
    return {"subcommand": args.subcommand, "parameters": params, "version": __version__}


def _emit(artifact, out):
    """Write an artifact to the file out, else to the current sys.stdout.

    Text is written as it is.  Every other artifact is compact key-sorted
    JSON, one line per record: a list holds the records, a dict is one.
    """
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        if isinstance(artifact, str):
            fh.write(artifact)
        else:
            records = artifact if isinstance(artifact, list) else [artifact]
            fh.writelines(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
                          for record in records)


def cmd_ball(args):
    ball = enumerate_ball(args.n, RadiusToken(args.p, args.s))
    return difference_set(ball).to_json() if args.diff else ball.to_json()


def cmd_distances(args):
    from .distance_sets import enumerate_achievable

    return enumerate_achievable(args.p, args.n, args.limit, args.q).to_json()


def cmd_verify(args):
    from .lattices import IntegerLattice, verify_perfect

    lat = IntegerLattice.from_rows(args.basis)
    return verify_perfect(lat, args.p, RadiusToken(args.p, args.s)).to_json()


def cmd_code(args):
    from . import zqcodes

    code = zqcodes.LinearCodeZq(args.q, args.n, tuple(args.gen or ()))
    lat = zqcodes.construction_a(code)
    payload = {"code": code.to_json(), "cardinality": code.cardinality, "lattice": lat.to_json()}
    if code.cardinality >= 2:
        payload["minimum_distance_s"] = zqcodes.code_minimum_distance(code, args.p).power_value
        payload["packing_radius_s"] = zqcodes.code_packing_radius(code, args.p).power_value
    if args.s is not None:
        payload["perfect"] = zqcodes.code_is_perfect(code, RadiusToken(args.p, args.s))
    if args.transfer:
        payload["transfer"] = zqcodes.transfer_packing_radius(code, args.p).to_json()
    return payload


def cmd_search(args):
    from . import homsearch

    if args.budget is None:  # the manifest records the budget the search used
        args.budget = homsearch.DEFAULT_BUDGET
    report = homsearch.classify(args.n, args.p, args.s_max, budget=args.budget, jobs=args.jobs)
    return [o.to_json() for o in report.outcomes]


def cmd_bounds(args):
    from . import density

    if args.csv and not args.table1:
        raise ValueError("--csv needs --table1")
    table = density.load_density_table(args.density_file)
    if args.table1:
        rows = density.threshold_table(table, args.p)
        if args.csv:
            return "n,threshold\n" + "".join(f"{n},{t}\n" for n, t in rows)
        return {"thresholds": [{"n": n, "threshold": t} for n, t in rows]}
    if args.n is not None:
        delta = table.lookup(args.n, args.p)
        return {"survivors": density.surviving_radii(args.n, args.p, delta), "density": delta}
    return {"densities": [
        {"n": n, "p": p, "density": value, "expr": expr, "note": note}
        for n, p, value, expr, note in table.entries if p == args.p
    ]}


def _usable_cores():
    """The cores this process may run on (taskset limits them), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_tile_region(args):
    from . import tiler

    if args.budget is None:  # the manifest records the budget the search used
        args.budget = tiler.DEFAULT_BUDGET
    footprint = enumerate_ball(args.n, RadiusToken.from_radius(args.p, args.r))
    result = tiler.tile_region(footprint, args.extent, budget=args.budget, jobs=_usable_cores())
    return result.to_json()


def cmd_render(args):
    from . import svg

    with open(args.input) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        return _render_search_lines(text)  # JSON-lines sweep report
    if not isinstance(obj, dict):
        raise ValueError("the input is not a JSON object")
    if "points" in obj:  # a ball or B - B
        points = _rows_field(obj, "points")
        if not points:
            raise ValueError("the input record's 'points' is empty")
        return svg.render_placements(points, [(0, 0)])
    if "status" in obj:  # a region run: its tiling, else the tile alone
        foot = enumerate_ball(_int_field(obj, "n"), _token_from(obj)).points
        centers = _field(obj, "centers") and _rows_field(obj, "centers")
        return svg.render_placements(foot, centers or [(0, 0)])
    raise ValueError("input JSON is not a renderable artifact")


def _render_search_lines(text):
    from . import svg

    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ValueError(f"line {number} of the input is not a JSON object")
        if rec.get("status") == "found" and rec.get("n") == 2:
            foot = enumerate_ball(2, _token_from(rec)).points
            return svg.render_lattice_tiling(foot, _rows_field(_field(rec, "kernel"), "basis"))
    raise ValueError("no renderable found-outcome in search report")


def _field(record, key):
    """record[key] of a JSON record that render reads, else ValueError naming the key."""
    if not isinstance(record, dict) or key not in record:
        raise ValueError(f"the input record has no {key!r}")
    return record[key]


def _int_field(record, key):
    """record[key] if it is an int, else ValueError naming the key."""
    value = _field(record, key)
    if type(value) is not int:
        raise ValueError(f"the input record's {key!r} is not an integer: {value!r}")
    return value


def _rows_field(record, key):
    """record[key] if it is a list of int lists, else ValueError naming the key."""
    rows = _field(record, key)
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and all(type(c) is int for c in row) for row in rows):
        raise ValueError(f"the input record's {key!r} is not a list of integer rows")
    return rows


def _token_from(record):
    return RadiusToken(read_exponent(_field(record, "p")), _field(record, "s"))


def build_parser():
    parser = _Parser(prog="lpcodes", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def command(name, func, help):  # every subcommand writes its artifact to --out or stdout
        cmd = sub.add_parser(name, help=help)
        cmd.add_argument("--out")
        cmd.set_defaults(func=func)
        return cmd

    p_ball = command("ball", cmd_ball, "enumerate a discrete l_p ball")
    p_ball.add_argument("--n", type=int, required=True)
    p_ball.add_argument("--p", type=_parse_exponent, required=True)
    p_ball.add_argument("--s", type=int, required=True, help="radius power r^p (radius itself for p=inf)")
    p_ball.add_argument("--diff", action="store_true", help="emit B - B instead of B")

    p_dist = command("distances", cmd_distances, "achievable distance powers")
    p_dist.add_argument("--p", type=_parse_exponent, required=True)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--limit", type=int, required=True)
    p_dist.add_argument("--q", type=int)

    p_verify = command("verify", cmd_verify, "certify a lattice perfect or not")
    p_verify.add_argument("--basis", type=_parse_basis, required=True, help='rows as "a,b;c,d"')
    p_verify.add_argument("--p", type=_parse_exponent, required=True)
    p_verify.add_argument("--s", type=int, required=True)

    p_code = command("code", cmd_code, "linear code over Z_q and its lift")
    p_code.add_argument("--q", type=int, required=True)
    p_code.add_argument("--n", type=int, required=True)
    p_code.add_argument("--gen", type=_parse_row, action="append", help="generator row (repeatable)")
    p_code.add_argument("--p", type=_parse_exponent, required=True)
    p_code.add_argument("--s", type=int, help="check the code perfect at this radius power")
    p_code.add_argument("--transfer", action="store_true", help="certify the lift transfer")

    p_search = command("search", cmd_search, "classify tokens by homomorphism search")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--p", type=_parse_exponent, required=True)
    p_search.add_argument("--s-max", type=_int_at_least("s-max", 0), required=True)
    p_search.add_argument("--budget", type=_int_at_least("budget", 0))
    p_search.add_argument("--jobs", type=_int_at_least("jobs", 1), default=1,
                          help="processes that search, this one included")

    p_bounds = command("bounds", cmd_bounds, "density thresholds and survivors")
    p_bounds.add_argument("--p", type=_int_at_least("p", 1), default=2)
    p_bounds.add_argument("--density-file")
    kind = p_bounds.add_mutually_exclusive_group()
    kind.add_argument("--table1", action="store_true", help="emit the threshold table")
    kind.add_argument("--n", type=int, help="density-surviving tokens in this dimension")
    p_bounds.add_argument("--csv", action="store_true", help="the table as CSV (with --table1)")

    p_tile = command("tile-region", cmd_tile_region, "bounded-region exact cover by ball translates")
    p_tile.add_argument("--n", type=int, required=True)
    p_tile.add_argument("--p", type=_parse_exponent, required=True)
    p_tile.add_argument("--r", type=int, required=True, help="integer ball radius")
    p_tile.add_argument("--extent", type=int, required=True)
    p_tile.add_argument("--budget", type=_int_at_least("budget", 0))

    p_render = command("render", cmd_render, "SVG from a ball/search/tile-region artifact")
    p_render.add_argument("--input", required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        artifact = args.func(args)
        # the manifest is read after the run, which may fill in a default
        if isinstance(artifact, dict):
            artifact["manifest"] = _manifest(args)
        elif isinstance(artifact, list):
            artifact.insert(0, {"manifest": _manifest(args)})
        _emit(artifact, args.out)
    except (ValueError, OSError) as exc:
        print(f"lpcodes: error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed {time.perf_counter() - start:.2f}s", file=sys.stderr)
    records = artifact if isinstance(artifact, list) else [artifact]
    inconclusive = any(isinstance(r, dict) and r.get("status") == "inconclusive" for r in records)
    return 2 if inconclusive else 0


if __name__ == "__main__":
    sys.exit(main())
