"""Render solved tropical curves and their dual subdivisions to SVG.

Each solution set for a degree draws as a plane curve; vertex multiplicity
shows up dually as triangle area in the subdivision of the degree's polygon.
Files land in the directory given as the first argument (default: the
current directory).
"""

import sys
from pathlib import Path

from tropical_refine import (Degree, delta_d, dual_subdivision, polygon_of,
                             render_svg, sample_trial, wedge)

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(".")
out_dir.mkdir(parents=True, exist_ok=True)

gallery = (
    ("triangle", Degree(((-1, 0), (0, -1), (1, 1))), 1),
    ("conic", delta_d(2), 7),
    ("doubled-quad", Degree(((-2, 0), (0, -1), (1, 1), (1, 0))), 9),
)

for name, delta, seed in gallery:
    trial = sample_trial(delta, seed)
    n_trop, solutions = trial.n_trop, trial.solutions
    svg = render_svg(solutions, polygon=polygon_of(delta))
    path = out_dir / f"{name}.svg"
    path.write_text(svg)
    print(f"{name}: {len(solutions)} curve(s), N = {n_trop} -> {path}")
    for sol in solutions:
        triangles = dual_subdivision(sol.ctype)
        areas = sorted(abs(wedge(b - a, c - a)) for a, b, c in triangles)
        print(f"  dual subdivision triangle areas (x2): {areas}")
