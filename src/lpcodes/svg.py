"""Deterministic SVG rendering of 2-D polyominoes and tilings.

Each lattice point becomes the closed unit square centered on it, so a
ball drawing is the polyomino T_p^2(r) and a set of placements is drawn
as one filled square union per tile.  Output is plain text built in a
fixed order with a fixed palette: identical inputs give identical bytes.
"""

__all__ = ["render_placements", "render_lattice_tiling"]

SCALE = 20  # pixels per lattice unit
WINDOW = 3  # a lattice tiling shows the combinations a, b in [-WINDOW, WINDOW]

PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def _header(xmin, ymin, xmax, ymax):
    w = (xmax - xmin + 1) * SCALE
    h = (ymax - ymin + 1) * SCALE
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    )


def _square(x, y, xmin, ymax, fill):
    # svg y grows downward; flip so the lattice y-axis points up
    px = (x - xmin) * SCALE
    py = (ymax - y) * SCALE
    return (
        f'<rect x="{px}" y="{py}" width="{SCALE}" height="{SCALE}" '
        f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>\n'
    )


def _dot(x, y, xmin, ymax):
    px = (x - xmin) * SCALE + SCALE // 2
    py = (ymax - y) * SCALE + SCALE // 2
    return f'<circle cx="{px}" cy="{py}" r="2" fill="#000000"/>\n'


def render_placements(footprint_points, centers):
    """SVG of translated copies of one footprint, one palette color each;
    a point set is drawn as render_placements(points, [(0, 0)])."""
    foot = [tuple(p) for p in footprint_points]
    ctrs = [tuple(c) for c in centers]
    if any(len(c) != 2 for c in ctrs) or any(len(p) != 2 for p in foot):
        raise ValueError("only 2-D tilings can be rendered")
    cells = [(cx + px, cy + py) for cx, cy in ctrs for px, py in foot]
    xs, ys = zip(*cells)
    xmin, ymax = min(xs), max(ys)
    parts = [_header(xmin, min(ys), max(xs), ymax)]
    for i, (cx, cy) in enumerate(ctrs):
        fill = PALETTE[i % len(PALETTE)]
        for px, py in foot:
            parts.append(_square(cx + px, cy + py, xmin, ymax, fill))
    for cx, cy in ctrs:
        parts.append(_dot(cx, cy, xmin, ymax))
    parts.append("</svg>\n")
    return "".join(parts)


def render_lattice_tiling(footprint_points, basis):
    """SVG of the tiling by a lattice kernel: tiles at all lattice points
    a * basis[0] + b * basis[1] with a, b in [-WINDOW, WINDOW]."""
    if len(basis) != 2 or any(len(r) != 2 for r in basis):
        raise ValueError("only 2-D lattices can be rendered")
    (a0, a1), (b0, b1) = basis
    steps = range(-WINDOW, WINDOW + 1)
    centers = sorted((a * a0 + b * b0, a * a1 + b * b1) for a in steps for b in steps)
    return render_placements(footprint_points, centers)
