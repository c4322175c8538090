"""Command-line interface: exact computations in, JSON artifacts out.

Every artifact embeds the manifest (subcommand, parameters, library
version) that produced it, and is byte-identical across reruns with the
same manifest; wall time goes to stderr only.  Exit codes: 0 success,
1 usage or computation error, 2 explicit inconclusive outcome.
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
from .geometry import INF, RadiusToken, difference_set, enumerate_ball

DENSITY_FILE_ENV = "LPCODES_DENSITY_FILE"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the artifact contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_exponent(text):
    if text.lower() in ("inf", "infty", "infinity", "oo"):
        return INF
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"exponent must be a positive integer or 'inf': {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("exponent must be >= 1")
    return value


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
    rows = []
    for chunk in text.split(";"):
        rows.append(_parse_row(chunk))
    if len({len(r) for r in rows}) != 1:
        raise argparse.ArgumentTypeError(f"ragged basis rows: {text!r}")
    return tuple(rows)


def _json_param(value):
    if value == INF:
        return "inf"
    if isinstance(value, tuple):
        return [_json_param(v) for v in value]
    return value


def _manifest(sub, args, skip=("func", "out", "svg_out", "subcommand")):
    params = {
        k: _json_param(v) for k, v in sorted(vars(args).items()) if k not in skip
    }
    return {"subcommand": sub, "parameters": params, "version": __version__}


def _emit(obj, out):
    # streamed: a large artifact is never held as one string
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit_lines(lines, out):
    if out:
        with open(out, "w") as fh:
            fh.write(lines)
    else:
        sys.stdout.write(lines)


def cmd_ball(args):
    token = RadiusToken(args.p, args.s)
    ball = enumerate_ball(args.n, token)
    payload = difference_set(ball).to_json() if args.diff else ball.to_json()
    payload["manifest"] = _manifest("ball", args)
    _emit(payload, args.out)
    return 0


def cmd_distances(args):
    from .distance_sets import enumerate_achievable

    table = enumerate_achievable(args.p, args.n, args.limit, args.q)
    payload = table.to_json()
    payload["manifest"] = _manifest("distances", args)
    _emit(payload, args.out)
    return 0


def cmd_verify(args):
    from .lattices import IntegerLattice, verify_perfect

    lat = IntegerLattice.from_rows(args.basis, len(args.basis[0]))
    cert = verify_perfect(lat, args.p, RadiusToken(args.p, args.s))
    payload = cert.to_json()
    payload["manifest"] = _manifest("verify", args)
    _emit(payload, args.out)
    return 0


def cmd_code(args):
    from . import zqcodes

    code = zqcodes.LinearCodeZq(args.q, args.n, tuple(args.gen or ()))
    lat = zqcodes.construction_a(code)
    payload = {
        "code": code.to_json(),
        "cardinality": code.cardinality,
        "lattice": lat.to_json(),
        "manifest": _manifest("code", args),
    }
    if code.cardinality >= 2:
        payload["minimum_distance_s"] = zqcodes.code_minimum_distance(code, args.p).power_value
        payload["packing_radius_s"] = zqcodes.code_packing_radius(code, args.p).power_value
    if args.check_perfect:
        if args.s is None:
            raise ValueError("--check-perfect needs --s")
        payload["perfect"] = zqcodes.code_is_perfect(code, args.p, RadiusToken(args.p, args.s))
    if args.transfer:
        payload["transfer"] = zqcodes.transfer_packing_radius(code, args.p).to_json()
    _emit(payload, args.out)
    return 0


def cmd_search(args):
    from . import homsearch

    if args.budget is None:  # the manifest records the budget the search used
        args.budget = homsearch.DEFAULT_BUDGET
    report = homsearch.classify(
        args.n, args.p, args.s_max, budget=args.budget, jobs=args.jobs
    )
    lines = (
        json.dumps({"manifest": _manifest("search", args)}, sort_keys=True, separators=(",", ":"))
        + "\n"
        + report.to_json_lines()
    )
    _emit_lines(lines, args.out)
    if any(o.status == "inconclusive" for o in report.outcomes):
        return 2
    return 0


def cmd_bounds(args):
    from . import density

    path = args.density_file or os.environ.get(DENSITY_FILE_ENV)
    table = density.load_density_table(path)
    payload = {"manifest": _manifest("bounds", args)}
    if args.table1:
        rows = density.threshold_table(table, args.p)
        if args.csv:
            text = "n,threshold\n" + "".join(f"{n},{t}\n" for n, t in rows)
            _emit_lines(text, args.out)
            return 0
        payload["thresholds"] = [{"n": n, "threshold": t} for n, t in rows]
    elif args.survivors:
        if args.n is None:
            raise ValueError("--survivors needs --n")
        delta = table.lookup(args.n, args.p)
        payload["survivors"] = density.surviving_radii(args.n, args.p, delta)
        payload["density"] = delta
    else:
        payload["densities"] = [
            {"n": n, "p": p, "density": value, "expr": expr, "note": note}
            for n, p, value, expr, note in table.entries
        ]
    _emit(payload, args.out)
    return 0


def cmd_tile_region(args):
    from . import tiler

    footprint = enumerate_ball(args.n, RadiusToken.from_radius(args.p, args.r))
    result = tiler.tile_region(footprint, args.extent, budget=args.budget)
    payload = result.to_json()
    payload["manifest"] = _manifest("tile-region", args)
    _emit(payload, args.out)
    return 2 if result.status == "inconclusive" else 0


def cmd_render(args):
    with open(args.input) as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        drawing = _render_search_lines(text)  # JSON-lines sweep report
    else:
        drawing = _render_object(obj)
    with open(args.svg_out, "w") as fh:
        fh.write(drawing)
    return 0


def _render_object(obj):
    from . import svg

    if "centers" in obj and obj.get("status") == "completed":
        foot = enumerate_ball(2, _token_from(obj)).points
        return svg.render_placements(foot, [tuple(c) for c in obj["centers"]])
    if "points" in obj:
        return svg.render_points(obj["points"])
    if "status" in obj:  # impossible / inconclusive region runs: show the tile
        foot = enumerate_ball(obj["n"], _token_from(obj)).points
        return svg.render_points(foot)
    raise ValueError("input JSON is not a renderable artifact")


def _render_search_lines(text):
    from . import svg

    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("status") == "found" and rec.get("n") == 2:
            foot = enumerate_ball(2, _token_from(rec)).points
            return svg.render_lattice_tiling(foot, rec["kernel"]["basis"])
    raise ValueError("no renderable found-outcome in search report")


def _token_from(obj):
    p = INF if obj["p"] == "inf" else obj["p"]
    return RadiusToken(p, obj["s"])


def build_parser():
    parser = _Parser(prog="lpcodes", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p_ball = sub.add_parser("ball", help="enumerate a discrete l_p ball")
    p_ball.add_argument("--n", type=int, required=True)
    p_ball.add_argument("--p", type=_parse_exponent, required=True)
    p_ball.add_argument("--s", type=int, required=True, help="radius power r^p (radius itself for p=inf)")
    p_ball.add_argument("--diff", action="store_true", help="emit B - B instead of B")
    p_ball.add_argument("--out")
    p_ball.set_defaults(func=cmd_ball)

    p_dist = sub.add_parser("distances", help="achievable distance powers")
    p_dist.add_argument("--p", type=_parse_exponent, required=True)
    p_dist.add_argument("--n", type=int, required=True)
    p_dist.add_argument("--limit", type=int, required=True)
    p_dist.add_argument("--q", type=int)
    p_dist.add_argument("--out")
    p_dist.set_defaults(func=cmd_distances)

    p_verify = sub.add_parser("verify", help="certify a lattice perfect or not")
    p_verify.add_argument("--basis", type=_parse_basis, required=True, help='rows as "a,b;c,d"')
    p_verify.add_argument("--p", type=_parse_exponent, required=True)
    p_verify.add_argument("--s", type=int, required=True)
    p_verify.add_argument("--out")
    p_verify.set_defaults(func=cmd_verify)

    p_code = sub.add_parser("code", help="linear code over Z_q and its lift")
    p_code.add_argument("--q", type=int, required=True)
    p_code.add_argument("--n", type=int, required=True)
    p_code.add_argument("--gen", type=_parse_row, action="append", help="generator row (repeatable)")
    p_code.add_argument("--p", type=_parse_exponent, required=True)
    p_code.add_argument("--check-perfect", action="store_true")
    p_code.add_argument("--s", type=int)
    p_code.add_argument("--transfer", action="store_true", help="certify the lift transfer")
    p_code.add_argument("--out")
    p_code.set_defaults(func=cmd_code)

    p_search = sub.add_parser("search", help="classify tokens by homomorphism search")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--p", type=_parse_exponent, required=True)
    p_search.add_argument("--s-max", type=int, required=True)
    p_search.add_argument("--budget", type=_int_at_least("budget", 0))
    p_search.add_argument("--jobs", type=_int_at_least("jobs", 1), default=1,
                          help="processes that search, this one included")
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)

    p_bounds = sub.add_parser("bounds", help="density thresholds and survivors")
    p_bounds.add_argument("--p", type=int, default=2)
    p_bounds.add_argument("--n", type=int)
    p_bounds.add_argument("--density-file")
    p_bounds.add_argument("--table1", action="store_true", help="emit the threshold table")
    p_bounds.add_argument("--survivors", action="store_true", help="density-surviving tokens for --n")
    p_bounds.add_argument("--csv", action="store_true")
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(func=cmd_bounds)

    p_tile = sub.add_parser("tile-region", help="bounded-region exact cover by ball translates")
    p_tile.add_argument("--n", type=int, required=True)
    p_tile.add_argument("--p", type=_parse_exponent, required=True)
    p_tile.add_argument("--r", type=int, required=True, help="integer ball radius")
    p_tile.add_argument("--extent", type=int, required=True)
    p_tile.add_argument("--budget", type=_int_at_least("budget", 0), default=10**7)
    p_tile.add_argument("--out")
    p_tile.set_defaults(func=cmd_tile_region)

    p_render = sub.add_parser("render", help="SVG from a ball/search/tile-region artifact")
    p_render.add_argument("--input", required=True)
    p_render.add_argument("--svg", dest="svg_out", required=True)
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        rc = args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"lpcodes: error: {exc}", file=sys.stderr)
        return 1
    finally:
        print(f"elapsed {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
