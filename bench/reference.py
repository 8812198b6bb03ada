"""The benchmark degrees and their checked-in exact invariants.

`reference.json` holds N, R and BG for every degree the benchmark runs,
as `[half_exponent, coefficient]` pairs (the library's JSON form). Every op
compares its output against this table, and `derive` rebuilds it from
scratch so the table cannot drift from the program:

    PYTHONPATH=src python3 bench/reference.py > bench/reference.json

`derive` insists that N agrees across several moment seeds, that
`r_from_n` divides exactly, and that the per-curve sum of m'/4 equals R
for every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

TABLE_PATH = Path(__file__).with_name("reference.json")
DERIVE_SEEDS = (1, 2, 3)


def build_degrees(tr) -> dict:
    """label -> Degree, built with the given (freshly imported) package."""
    def deg(*entries):
        return tr.Degree(tuple(tr.Vec(x, y) for x, y in entries))

    return {
        "delta_2": tr.delta_d(2),
        "conic_merged": tr.build_delta_s(tr.delta_d(2), tr.Vec(-1, 0), 1),
        "six_ends_s2": deg((1, 1), (1, 1), (1, -1), (1, -1), (-2, 0), (-2, 0)),
        "six_ends_s1": deg((0, -1), (0, -1), (1, 1), (1, 0), (0, 1), (-2, 0)),
        "seven_ends_s1": deg((-1, 0), (0, -1), (0, -1), (1, 1), (1, 1),
                             (1, 0), (-2, 0)),
        "four_ends_s1": deg((-2, 0), (0, -1), (1, 1), (1, 0)),
    }


def sum_m_prime_quarter(tr, solutions):
    """Sum over curves of m' of the maximal split, divided exactly by 4."""
    rs = tr.realsplit
    total = tr.HalfLaurent(0)
    for sol in solutions:
        split = rs.maximal_split(rs.WeightedPlaneParam.from_solution(sol))
        total = total + rs.m_prime(split, sol.ctype.multiplicities())
    return total.exact_div(tr.HalfLaurent(4))


def derive(tr, seeds=DERIVE_SEEDS) -> dict:
    """Recompute the reference table; raises ValueError on any disagreement."""
    table = {}
    for label, degree in build_degrees(tr).items():
        parent, s = tr.split_even_ends(degree)
        m = len(parent)
        counts = []
        for seed in seeds:
            mu = tr.random_generic_moments(degree, seed)
            n_trop, sols = tr.refined_count(degree, mu)
            counts.append((n_trop, sols))
        n_trop = counts[0][0]
        if any(n != n_trop for n, _ in counts):
            raise ValueError(f"{label}: N differs across seeds {seeds}")
        r_inv = tr.r_from_n(n_trop, m, s)
        for seed, (_, sols) in zip(seeds, counts):
            if sum_m_prime_quarter(tr, sols) != r_inv:
                raise ValueError(f"{label}: sum m'/4 != R at seed {seed}")
        table[label] = {
            "entries": [[v.x, v.y] for v in degree.entries],
            "m": m,
            "s": s,
            "N": n_trop.to_json_pairs(),
            "R": r_inv.to_json_pairs(),
            "BG": tr.broccoli_from_r(r_inv, m, s).to_json_pairs(),
        }
    return table


def load(tr, path=TABLE_PATH) -> dict:
    """label -> {"m", "s", "N", "R", "BG"} with HalfLaurent values.

    Also checks that each label's degree still has the recorded entries, so
    a changed degree definition cannot be compared against a stale row."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    degrees = build_degrees(tr)
    table = {}
    for label, degree in degrees.items():
        row = raw[label]
        if row["entries"] != [[v.x, v.y] for v in degree.entries]:
            raise ValueError(f"reference row {label} is for another degree")
        table[label] = {
            "m": row["m"],
            "s": row["s"],
            **{k: tr.HalfLaurent.from_json_pairs(row[k])
               for k in ("N", "R", "BG")},
        }
    return table


if __name__ == "__main__":
    import tropical_refine

    rows = sorted(derive(tropical_refine).items())
    sys.stdout.write("{\n" + ",\n".join(
        f" {json.dumps(label)}: {json.dumps(row, sort_keys=True)}"
        for label, row in rows) + "\n}\n")
