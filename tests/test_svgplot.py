"""Dual subdivisions and the deterministic SVG renderer."""

from fractions import Fraction

import pytest

from tropical_refine import (Vec, dual_subdivision, enumerate_types,
                             polygon_of, random_generic_moments,
                             refined_count, render_svg, sample_trial)
from test_invariants import PICK_DEGREES, crossing_weight


def tri_area2(tri) -> int:
    a, b, c = tri
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))


def test_dual_subdivision_triangle(triangle, triangle_mu):
    _, sols = refined_count(triangle, triangle_mu)
    assert dual_subdivision(sols[0].ctype) == [(Vec(1, 0), Vec(0, 1),
                                                Vec(0, 0))]


def test_dual_subdivision_square(square, square_mu):
    _, sols = refined_count(square, square_mu)
    sub = dual_subdivision(sols[0].ctype)
    assert sub == [(Vec(1, 0), Vec(0, 1), Vec(0, 0)),
                   (Vec(1, 0), Vec(1, 1), Vec(0, 1))]
    assert [tri_area2(t) for t in sub] == [1, 1]
    assert polygon_of(square).area2() == 2


def test_dual_subdivision_doubled_quad(doubled_quad, doubled_quad_mu):
    _, sols = refined_count(doubled_quad, doubled_quad_mu)
    sub = dual_subdivision(sols[0].ctype)
    assert sub == [(Vec(1, 0), Vec(0, 2), Vec(0, 0)),
                   (Vec(1, 0), Vec(1, 1), Vec(0, 2))]
    assert [tri_area2(t) for t in sub] == [2, 1]
    assert polygon_of(doubled_quad).area2() == 3


def test_dual_subdivision_tiles_the_polygon(conic, square, doubled_quad):
    for delta in (conic, square, doubled_quad):
        want = polygon_of(delta).area2()
        n = len(delta.entries)
        for ctype in enumerate_types(delta):
            if ctype.has_flat_vertex():
                continue
            sub = dual_subdivision(ctype)
            assert len(sub) == n - 2
            assert sum(tri_area2(t) for t in sub) == want
            assert min(p for tri in sub for p in tri) == Vec(0, 0)


@pytest.mark.parametrize("label", PICK_DEGREES)
def test_dual_subdivision_with_crossings_tiles_the_polygon(label):
    # a vertex's triangle has doubled area its multiplicity, and a crossing
    # of edges with weighted slopes u and w is dual to a parallelogram of
    # doubled area 2 |wedge(u, w)|: together they tile the polygon
    delta = PICK_DEGREES[label]
    want = polygon_of(delta).area2()
    crossed = 0
    for seed in (1, 2):
        for sol in sample_trial(delta, seed).solutions:
            sub = dual_subdivision(sol.ctype)
            mults = sol.ctype.multiplicities()
            assert [tri_area2(t) for t in sub] == [
                mults[v] for v in sol.ctype.internal_vertices]
            crossing = crossing_weight(sol)
            crossed += crossing > 0
            assert sum(tri_area2(t) for t in sub) + 2 * crossing == want
    assert crossed


def test_render_svg_is_deterministic(conic):
    mu = random_generic_moments(conic, 7)
    _, sols = refined_count(conic, mu)
    assert len(sols) == 1
    poly = polygon_of(conic)
    first = render_svg(sols, poly)
    assert render_svg(sols, poly) == first
    assert first.startswith('<svg xmlns="http://www.w3.org/2000/svg" ')
    assert first.endswith("</svg>\n")
    # 3 bounded edges + 6 ends; 4 subdivision triangles + the degree polygon
    assert first.count("<line") == 9
    assert first.count("<polygon") == 5


def test_render_svg_triangle_is_three_rays(triangle, triangle_mu):
    _, sols = refined_count(triangle, triangle_mu)
    svg = render_svg(sols, polygon_of(triangle))
    assert svg.count("<line") == 3
    assert svg.count("<text") == 0
    # the one subdivision triangle + the degree polygon
    assert svg.count("<polygon") == 2


def test_render_svg_marks_weight_two_ends(doubled_quad, doubled_quad_mu):
    _, sols = refined_count(doubled_quad, doubled_quad_mu)
    svg = render_svg(sols, polygon_of(doubled_quad))
    assert svg.count('stroke-width="3.2"') == 1
    assert svg.count(">2</text>") == 1


def test_render_svg_overlays_solution_groups(triangle, triangle_mu, square,
                                             square_mu):
    _, tri_sols = refined_count(triangle, triangle_mu)
    _, sq_sols = refined_count(square, square_mu)
    svg = render_svg(list(tri_sols) + list(sq_sols), polygon_of(triangle))
    assert svg.count('<g stroke="#1f77b4"') == 1
    assert svg.count('<g stroke="#d62728"') == 1


def test_render_svg_rejects_empty_input(triangle):
    with pytest.raises(ValueError):
        render_svg([], polygon_of(triangle))
