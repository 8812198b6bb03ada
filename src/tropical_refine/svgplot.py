"""Deterministic SVG pictures of solved curves.

Bounded edges are drawn as segments between exact vertex positions, ends as
rays clipped to a margin box, and weight-2 ends get a doubled stroke plus a
small label. An inset in the corner shows the dual polygon with the lattice
subdivision dual to the first curve. Output depends only on the input data,
so repeated runs are byte-identical.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .lattice import LatticePolygon, Vec, angle_cmp, lattice_length, rot90

if TYPE_CHECKING:
    from .solver import TropicalSolution

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def dual_subdivision(ctype) -> list[tuple[Vec, Vec, Vec]]:
    """Lattice triangles dual to the vertices of a trivalent type.

    Each internal vertex contributes the triangle whose sides are the quarter
    turns of its outgoing slopes (taken counterclockwise); parents first,
    each triangle is placed to share the side dual to the edge up to its
    parent. The union tiles the degree polygon; everything is anchored so the
    lexicographically smallest corner is the origin.
    """
    order = functools.cmp_to_key(angle_cmp)
    local: dict[int, tuple[list[Vec], dict[int, tuple[Vec, Vec]]]] = {}
    for v in ctype.internal_vertices:
        pairs = sorted(((ctype.slope(v, w), w) for w in ctype.adjacency[v]),
                       key=lambda p: order(p[0]))
        p = Vec(0, 0)
        verts: list[Vec] = []
        sides: dict[int, tuple[Vec, Vec]] = {}
        for slope, w in pairs:
            verts.append(p)
            sides[w] = (p, rot90(slope))
            p = p + rot90(slope)
        local[v] = (verts, sides)

    order, parent, _ = ctype.clades
    offset = {order[0]: Vec(0, 0)}
    for w in order[1:]:
        v = parent[w]
        start, vec = local[v][1][w]
        offset[w] = offset[v] + start + vec - local[w][1][v][0]

    tris = [tuple(p + offset[v] for p in local[v][0])
            for v in ctype.internal_vertices]
    lo = min(p for tri in tris for p in tri)
    return [tuple(p - lo for p in tri) for tri in tris]


def _f(x) -> str:
    return f"{float(x):.2f}"


def _ray_clip(p: tuple[Fraction, Fraction], d: Vec, box) -> tuple:
    """Endpoint of the ray from p along d at the border of box (exact)."""
    xmin, ymin, xmax, ymax = box
    ts = []
    if d.x > 0:
        ts.append((xmax - p[0]) / d.x)
    elif d.x < 0:
        ts.append((xmin - p[0]) / d.x)
    if d.y > 0:
        ts.append((ymax - p[1]) / d.y)
    elif d.y < 0:
        ts.append((ymin - p[1]) / d.y)
    t = min(ts)
    return (p[0] + t * d.x, p[1] + t * d.y)


def render_svg(solutions: Sequence[TropicalSolution],
               polygon: LatticePolygon) -> str:
    """One SVG document showing all solutions overlaid, plus the dual
    subdivision of the first solution in the degree polygon as an inset;
    reads each curve's `positions()` once, for the box and the drawing."""
    if not solutions:
        raise ValueError("nothing to draw")
    width, height, inset_size, pad = 720, 540, 170, 40

    placed = [sol.positions() for sol in solutions]
    xs = [x for pos in placed for x, _ in pos.values()]
    ys = [y for pos in placed for _, y in pos.values()]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, Fraction(1))
    margin = span / 4
    box = (xmin - margin, ymin - margin, xmax + margin, ymax + margin)
    scale = Fraction(min(width, height) - 2 * pad) / (span + 2 * margin)

    def to_svg(p) -> tuple[str, str]:
        return (_f(pad + scale * (p[0] - box[0])),
                _f(height - pad - scale * (p[1] - box[1])))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for i, (sol, pos) in enumerate(zip(solutions, placed)):
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<g stroke="{color}" fill="none" stroke-linecap="round">')
        for e in sol.ctype.bounded_edges:
            (x1, y1), (x2, y2) = to_svg(pos[e[0]]), to_svg(pos[e[1]])
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke-width="1.6"/>')
        for leaf in range(sol.ctype.n):
            d = sol.ctype.leaf_dirs[leaf]
            p = pos[sol.ctype.leaf_vertex(leaf)]
            q = _ray_clip(p, d, box)
            (x1, y1), (x2, y2) = to_svg(p), to_svg(q)
            w = lattice_length(d)
            sw = "3.2" if w >= 2 else "1.6"
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                         f'stroke-width="{sw}"/>')
            if w >= 2:
                mx = (p[0] + q[0]) / 2
                my = (p[1] + q[1]) / 2
                tx, ty = to_svg((mx, my))
                parts.append(f'<text x="{tx}" y="{ty}" dx="5" dy="-5" '
                             f'font-size="13" fill="{color}" '
                             f'stroke="none">{w}</text>')
        parts.append('</g>')

    sub = dual_subdivision(solutions[0].ctype)
    corners = [p for tri in sub for p in tri] + list(polygon.vertices)
    sxmax = max(p.x for p in corners)
    symax = max(p.y for p in corners)
    sscale = Fraction(inset_size - 20) / max(sxmax, symax, 1)
    ox = width - inset_size - 10
    oy = 10

    def to_inset(p) -> tuple[str, str]:
        return (_f(ox + 10 + sscale * p.x),
                _f(oy + inset_size - 10 - sscale * p.y))

    parts.append(f'<g stroke="#444444" fill="none">')
    parts.append(f'<rect x="{ox}" y="{oy}" width="{inset_size}" '
                 f'height="{inset_size}" fill="#f7f7f7" stroke="#cccccc"/>')
    for tri in sub:
        pts = " ".join(",".join(to_inset(p)) for p in tri)
        parts.append(f'<polygon points="{pts}" fill="#dce9f5" '
                     f'stroke="#444444" stroke-width="1"/>')
    pts = " ".join(",".join(to_inset(p)) for p in polygon.vertices)
    parts.append(f'<polygon points="{pts}" fill="none" '
                 f'stroke="#000000" stroke-width="1.4"/>')
    parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
