"""Density-based non-existence thresholds for perfect codes.

An r-perfect code in Z^n induces a lattice packing of R^n by l_p
superballs of radius d/2 > r - n^(1/p)/2, whose density therefore cannot
exceed the best known packing density Delta_p^n.  Inverting that
inequality bounds the radius of any perfect code; sweeping the exact
achievable radii below the bound yields the finite worklist that the
homomorphism search must clear.

Everything here is advisory floating point: thresholds feed exact sweeps
but are never themselves existence certificates (hence the +-1 slack on
integer-rounded outputs).
"""

import ast
import json
import math
import operator
from collections import namedtuple
from importlib import resources

from . import geometry
from .geometry import INF, ball_cardinality, superball_volume

__all__ = [
    "DensityTable",
    "HighDimBound",
    "CubeBallVerdict",
    "load_density_table",
    "induced_density_lower_bound",
    "density_radius_bound",
    "threshold_table",
    "surviving_radii",
    "high_dimension_density_bound",
    "cubic_polyomino_check",
]

_EVAL_NAMES = {"pi": math.pi, "e": math.e}
_EVAL_FUNCS = {"sqrt": math.sqrt, "factorial": math.factorial, "log": math.log}
_EVAL_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
             ast.Div: operator.truediv, ast.Pow: operator.pow}


def _eval_expr(text):
    """Evaluate a constant arithmetic expression like "pi/(3*sqrt(2))".

    Only numbers, the names pi/e, calls to sqrt/factorial/log, and the
    operators + - * / ** (with ^ accepted for **) are allowed; anything
    else, a syntax error included, is a ValueError.
    """

    def ev(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return node.value
        if isinstance(node, ast.Name) and node.id in _EVAL_NAMES:
            return _EVAL_NAMES[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _EVAL_OPS:
            return _EVAL_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _EVAL_FUNCS and not node.keywords):
            return _EVAL_FUNCS[node.func.id](*(ev(a) for a in node.args))
        raise ValueError(f"disallowed expression element: {ast.dump(node)}")

    try:
        return float(ev(ast.parse(str(text).replace("^", "**"), mode="eval").body))
    except (SyntaxError, ArithmeticError, TypeError) as exc:  # "pi/", "1/0", "sqrt()"
        raise ValueError(f"{text!r} is not a number: {getattr(exc, 'msg', exc)}") from None


class DensityTable(namedtuple("DensityTable", "entries")):
    """Best known superball packing densities, keyed by (n, p).

    entries holds (n, p, value, expr, note) tuples: each keeps the source
    expression and a provenance note so the shipped constants can be
    audited or overridden from a config file.
    """

    __slots__ = ()

    def __new__(cls, entries):
        for n, p, value, _, _ in entries:
            if not 0 < value <= 1:
                raise ValueError(f"density for (n={n}, p={p}) outside (0, 1]: {value}")
        return super().__new__(cls, entries)

    def lookup(self, n, p):
        for en, ep, value, _, _ in self.entries:
            if en == n and ep == p:
                return value
        raise ValueError(f"no density entry for (n={n}, p={p})")

    def covered(self, p):
        return sorted(n for n, ep, *_ in self.entries if ep == p)

    @classmethod
    def from_json(cls, records):
        """The table of a JSON list of {"n", "p", "density"[, "note"]} objects, else ValueError."""
        if not isinstance(records, list):
            raise ValueError("a density table is a JSON list of records")
        entries = []
        for i, rec in enumerate(records):
            if not isinstance(rec, dict):
                raise ValueError(f"density record {i} is not a JSON object")
            for key in ("n", "p", "density"):
                if key not in rec:
                    raise ValueError(f"density record {i} has no {key!r}")
                if key != "density" and type(rec[key]) is not int:
                    raise ValueError(f"density record {i}: {key!r} must be an integer, got {rec[key]!r}")
            raw = rec["density"]
            try:
                value = float(raw) if isinstance(raw, (int, float)) else _eval_expr(raw)
            except ValueError as exc:
                raise ValueError(f"density record {i}: {exc}") from None
            entries.append((rec["n"], rec["p"], value, str(raw), rec.get("note", "")))
        return cls(tuple(entries))


def load_density_table(path=None):
    """The shipped constants, or a user override file of the same format."""
    if path is None:
        text = resources.files("lpcodes.data").joinpath("densities.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    return DensityTable.from_json(json.loads(text))


def induced_density_lower_bound(n, token):
    """Packing density any r-perfect code would force: V (r - n^(1/p)/2)^n / mu.

    The minimum distance of an r-perfect code exceeds 2r - n^(1/p), so
    its superball packing has radius > r - n^(1/p)/2 while the lattice
    determinant equals the ball count.  Radii below the offset give a
    vacuous bound, reported as 0.
    """
    p = token.p
    if p == INF:
        raise ValueError("density machinery applies to finite p")
    r = token.power_value ** (1.0 / p)
    half_diag = n ** (1.0 / p) / 2.0
    if r <= half_diag:
        return 0.0
    mu = ball_cardinality(n, token)
    return superball_volume(n, p) * (r - half_diag) ** n / mu


def density_radius_bound(n, p, delta):
    """Largest radius compatible with packing density delta.

    Closed form n^(1/p)/2 * (1 + delta^(1/n)) / (1 - delta^(1/n));
    perfect codes of larger radius would beat the best known packing.
    """
    if not 0 < delta < 1:
        raise ValueError("density must lie strictly between 0 and 1")
    root = delta ** (1.0 / n)
    return n ** (1.0 / p) / 2.0 * (1.0 + root) / (1.0 - root)


def threshold_table(table, p=2):
    """(n, floor(bound^2)) rows for every covered dimension.

    floor of the squared bound is the integer radius-power threshold; a
    +-1 disagreement with externally quoted tables is expected rounding
    noise, not an error.
    """
    rows = []
    for n in table.covered(p):
        bound = density_radius_bound(n, p, table.lookup(n, p))
        rows.append((n, math.floor(bound**p)))
    return rows


def surviving_radii(n, p, delta):
    """Achievable tokens at or below the bound that density does not exclude.

    A token survives when the density it would force stays within the
    best known delta; the survivors are exactly the homomorphism-search
    worklist (s = 0 is trivially in it).
    """
    from . import distance_sets

    bound = density_radius_bound(n, p, delta)
    s_cap = math.ceil(bound**p)
    out = []
    for s in distance_sets.enumerate_achievable(p, n, s_cap).achievable:
        token = geometry.RadiusToken(p, s)
        if induced_density_lower_bound(n, token) <= delta:
            out.append(s)
    return out


class HighDimBound(namedtuple("HighDimBound", "n p value nontrivial radius_bound")):
    """Literature density bound (n/p + 1) * 2^(-n/p) and its consequences.

    radius_bound is a float when the value is a usable density, else None.
    """

    __slots__ = ()


def high_dimension_density_bound(n, p):
    """Density bound for p > 2 and the radius bound it implies.

    The bound is nontrivial only once n/p + 1 < 2^(n/p); until then it
    reports >= 1 and there is no radius consequence.
    """
    exponent = n / p
    value = (exponent + 1.0) * 2.0 ** (-exponent)
    nontrivial = value < 1.0
    radius = density_radius_bound(n, p, value) if nontrivial else None
    return HighDimBound(n, p, value, nontrivial, radius)


class CubeBallVerdict(namedtuple(
        "CubeBallVerdict", "n r p equal ball_token verified_by_enumeration")):
    """Whether the l_p ball of power n*r^p coincides with the cube [-r, r]^n.

    When it does, sup-metric perfect codes of radius r are also l_p
    perfect at the token s = n*r^p (radius n^(1/p) r), and conversely.
    """

    __slots__ = ()


_ENUM_VERIFY_CAP = 200_000


def cubic_polyomino_check(n, r, p):
    """Decide B_p^n(n^(1/p) r) == B_inf^n(r), exactly for integer p.

    The criterion is n*r^p < (r+1)^p: the cube's corner must fit in the
    ball before any point outside the cube does.  Small cases are
    additionally confirmed by enumerating both point sets.
    """
    if r < 1 or int(r) != r:
        raise ValueError("cube radius must be a positive integer")
    r = int(r)
    if p == INF:
        raise ValueError("compare against a finite exponent")
    equal = n * r**p < (r + 1) ** p
    token = geometry.RadiusToken(p, n * r**p) if isinstance(p, int) else None
    verified = False
    if token is not None and (2 * r + 3) ** n <= _ENUM_VERIFY_CAP:
        ball = set(geometry.enumerate_ball(n, token).points)
        cube = set(
            geometry.enumerate_ball(n, geometry.RadiusToken(INF, r)).points
        )
        if (ball == cube) != equal:
            raise AssertionError(
                f"cube/ball criterion disagrees with enumeration at n={n}, r={r}, p={p}"
            )
        verified = True
    return CubeBallVerdict(n, r, p, equal, token, verified)
