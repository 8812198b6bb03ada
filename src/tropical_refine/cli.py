"""Command-line front end: five subcommands, each with only the flags it reads.

    tropical-refine enumerate|plot --degree D [--s N] [--n1 x,y]
        [--moments a/b,... | --seed N] [--out PATH] [--format json|text|svg]
    tropical-refine realize --degree D [--s N] [--n1 x,y]
        [--moments a/b,... | --seed N] [--out PATH] [--format json|text]
    tropical-refine invariant --degree D [--s N] [--n1 x,y] [--seed N]
        [--trials N] [--out PATH] [--format json|text]
    tropical-refine quantum --m1 N [--delta N] [--out PATH] [--format json|text]

`enumerate` counts the curves through one moment constraint and lists each
with its type, root and multiplicities, `invariant` runs the multi-seed
invariance audit and reports N, R and the Broccoli normalization, `quantum`
tabulates quadrivalent quantum-index data, `realize` computes the maximal
splitting and first-order real multiplicity of every solution (as json or
text only), and `plot` is `enumerate` with an SVG default. `--n1` needs
`--s` >= 1.

Degrees are read as a JSON literal ({"entries": [[x, y], ...]} or the bare
list) or the compact form "x,y;x,y;...", inline or from a file. Moments are
exact rationals; either n-1 values (the first end's moment is implied) or
all n (checked to sum to zero). Every command's JSON payload is built in
this module, by its runner, which returns it with its text (for `--format
svg`, the picture of the curves it counted), read off the payload so that
each tree, root and polynomial string is made once; `main` encodes the
payload for json and writes the text otherwise. All JSON and SVG output is
deterministic byte for byte: identical invocations produce identical files.
Fatal mathematical conditions and usage errors print a one-line error JSON
to stdout and exit 1.

Each command imports only the modules it runs. Loading this module loads
`errors`, `lattice` and `laurent`; `quantum` adds `realsplit`; `enumerate`
and `invariant` add the counting set `invariants`, `solver` and `trees`;
`realize` adds the counting set and `realsplit`, and `plot` the counting set
and `svgplot`, which `render_svg` imports on the first picture. No module
imports another at load time only for an annotation: such names are
imported under `TYPE_CHECKING`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import MenelausViolation, TropicalError
from .lattice import (Degree, MomentVector, Vec, _three_ends, build_delta_s,
                      frac_str, menelaus_sum, polygon_of, primitive,
                      split_even_ends)
from .laurent import HalfLaurent, w_pow_minus_inverse

if TYPE_CHECKING:
    from .invariants import InvariantReport, TrialRecord
    from .solver import TropicalSolution

FORMATS = ("json", "text", "svg")


def parse_vec(text: str) -> Vec:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'x,y', got {text!r}")
    return Vec(int(parts[0]), int(parts[1]))


def _json(text: str):
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("the degree's JSON is nested too deeply") from None


def _fields(text: str, sep: str, kind: str) -> list[str]:
    """text split at sep; ValueError naming the first empty field's place."""
    fields = text.split(sep)
    if "" in fields:
        raise ValueError(f"{kind} {fields.index('') + 1} of {text!r} is empty")
    return fields


def load_degree(source: str) -> Degree:
    """A degree from a JSON literal or the compact "x,y;x,y;..." form, given
    inline or as the path of a file that holds it."""
    if os.path.exists(source):
        with open(source, encoding="utf-8") as fh:
            source = fh.read()
    stripped = source.strip()
    if stripped.startswith("{"):
        return Degree.from_json(_json(stripped))
    if stripped.startswith("["):
        return Degree.from_json({"entries": _json(stripped)})
    return Degree(tuple(map(parse_vec, _fields(stripped, ";", "entry"))))


def default_n1(delta: Degree, s: int) -> Vec:
    """The lexicographically smallest direction occurring with multiplicity
    at least 2s, the pairing side used when --n1 is not given."""
    counts: dict[Vec, int] = {}
    for v in delta.entries:
        counts[primitive(v)] = counts.get(primitive(v), 0) + 1
    eligible = [v for v, c in counts.items() if c >= 2 * s]
    if not eligible:
        raise TropicalError(f"no direction has multiplicity >= {2 * s}")
    return min(eligible)


def resolve_degree(args: argparse.Namespace) -> Degree:
    if args.n1 is not None and args.s < 1:
        raise TropicalError("--n1 picks the direction of the --s pairs; "
                            "it needs --s >= 1")
    delta = load_degree(args.degree)
    if args.s == 0:
        return delta
    n1 = parse_vec(args.n1) if args.n1 else default_n1(delta, args.s)
    return build_delta_s(delta, n1, args.s)


def parse_moment(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"moment {text!r} has a zero denominator") from None


def parse_moments(text: str, delta_s: Degree) -> MomentVector:
    _three_ends(delta_s.entries)    # else no moment count fits
    n = len(delta_s)
    values = [parse_moment(chunk) for chunk in _fields(text, ",", "moment")]
    if len(values) == n:
        total = menelaus_sum(values, delta_s)
        if total != 0:
            raise MenelausViolation(
                f"{n} moments must sum to zero, got {frac_str(total)}")
        values = values[1:]
    elif len(values) != n - 1:
        raise TropicalError(
            f"need {n - 1} or {n} moments for {n} ends, got {len(values)}")
    return MomentVector(tuple(values))


def count_curves(args: argparse.Namespace, delta_s: Degree) -> TrialRecord:
    """The TrialRecord of --moments, or of the seeded draw, whose count is
    the one sampling accepted it with."""
    from .invariants import TrialRecord, sample_trial

    if args.moments is None:
        return sample_trial(delta_s, args.seed)
    return TrialRecord(None, parse_moments(args.moments, delta_s), delta_s)


def degree_text(degree: dict) -> str:   # of a degree's JSON
    return " ".join(f"({x},{y})" for x, y in degree["entries"])


def solution_json(sol: TropicalSolution) -> dict:
    refined = sol.refined_multiplicity()
    return {
        "tree": sol.ctype.serialize(),
        "root": [frac_str(c) for c in sol.root],
        "vertexPositions": {
            str(v): [frac_str(x), frac_str(y)]
            for v, (x, y) in sorted(sol.positions().items())
        },
        "edgeLengths": {
            f"{a}-{b}": frac_str(ln)
            for (a, b), ln in sorted(sol.lengths.items())
        },
        "endMoments": [frac_str(mo) for mo in sol.end_moments()],
        "multiplicity": sol.det_abs,
        "refinedMultiplicity": refined.to_json_pairs(),
        "refinedMultiplicityText": str(refined),
    }


def run_enumerate(args: argparse.Namespace) -> tuple[dict, str]:
    delta_s = resolve_degree(args)
    trial = count_curves(args, delta_s)
    if args.format == "svg":
        return {}, render_svg(trial.solutions, polygon_of(delta_s))
    payload = {
        "command": "enumerate",
        "degree": delta_s.to_json(),
        "moments": [frac_str(v) for v in trial.moments.full()],
        "solutionCount": len(trial.solutions),
        "refinedCount": trial.n_trop.to_json_pairs(),
        "refinedCountText": str(trial.n_trop),
        "solutions": [solution_json(s) for s in trial.solutions],
    }
    lines = [f"degree: {degree_text(payload['degree'])}",
             f"moments: {', '.join(payload['moments'])}",
             f"solutions: {payload['solutionCount']}",
             *(f"  tree {c['tree']}  root ({', '.join(c['root'])})  mult "
               f"{c['multiplicity']}  refined {c['refinedMultiplicityText']}"
               for c in payload["solutions"]),
             f"N = {payload['refinedCountText']}"]
    return payload, "\n".join(lines) + "\n"


def invariant_json(report: InvariantReport) -> dict:
    return {
        "command": "invariant",
        "degree": report.delta_s.to_json(),
        "parentDegree": report.delta.to_json(),
        "s": report.s,
        "m": report.m,
        "trials": report.trials,
        "trialRecords": [{
            "seed": t.seed,
            "moments": [frac_str(v) for v in t.moments.values],
            "solutionCount": t.count,
            "refinedCount": t.n_trop.to_json_pairs(),
        } for t in report.trial_records],
        "refinedCount": report.n_trop.to_json_pairs(),
        "refinedCountText": str(report.n_trop),
        "realInvariant": report.r_inv.to_json_pairs(),
        "realInvariantText": str(report.r_inv),
        "broccoli": report.broccoli.to_json_pairs(),
        "broccoliText": str(report.broccoli),
    }


def run_invariant(args: argparse.Namespace) -> tuple[dict, str]:
    from .invariants import invariance_audit

    delta_s = resolve_degree(args)
    payload = invariant_json(invariance_audit(delta_s, trials=args.trials,
                                              seed=args.seed))
    counts = [t["solutionCount"] for t in payload["trialRecords"]]
    lines = [f"degree: {degree_text(payload['degree'])}   s = {payload['s']}"
             f"   m = {payload['m']}",
             f"trials: {payload['trials']}, solutions per trial: {counts}",
             f"N = {payload['refinedCountText']}, "
             f"R = {payload['realInvariantText']}",
             f"BG = {payload['broccoliText']}"]
    return payload, "\n".join(lines) + "\n"


def run_quantum(args: argparse.Namespace) -> tuple[dict, str]:
    from .realsplit import (c_k_values, coamoeba_area, quad_indices,
                            quad_refined_sum)

    m1, delta = args.m1, args.delta
    indices = quad_indices(m1, delta)
    refined = quad_refined_sum(m1, delta)
    # checked by multiplying back: refined * (q^d - q^-d) = q^(m1 d) - q^-(m1 d)
    agrees = (refined * w_pow_minus_inverse(2 * delta)
              == w_pow_minus_inverse(2 * m1 * delta))
    payload = {
        "command": "quantum",
        "m1": m1,
        "delta": delta,
        "indices": indices,
        "refinedSum": refined.to_json_pairs(),
        "refinedSumText": str(refined),
        "closedFormAgrees": agrees,
        "coamoebaAreas": [frac_str(coamoeba_area(m1, k)) for k in range(m1)],
        "ckValues": [frac_str(c) for c in c_k_values(m1)],
    }
    lines = [f"quadrivalent vertex: m1 = {m1}, delta = {delta}",
             f"indices: {indices}",
             f"refined sum: {payload['refinedSumText']}",
             f"closed form agrees: {agrees}",
             "k | index | coamoeba area | c_k"]
    for k, (index, area, c_k) in enumerate(zip(
            indices, payload["coamoebaAreas"], payload["ckValues"])):
        lines.append(f"{k} | {index} | {area} | {c_k}")
    return payload, "\n".join(lines) + "\n"


def run_realize(args: argparse.Namespace) -> tuple[dict, str]:
    from .invariants import r_from_n
    from .realsplit import (WeightedPlaneParam, m_prime, maximal_split,
                            oriented_solution_count)

    delta_s = resolve_degree(args)
    trial = count_curves(args, delta_s)
    delta, s = split_even_ends(delta_s)
    r_inv = r_from_n(trial.n_trop, len(delta), s)
    total = HalfLaurent(0)
    entries = []
    for sol in trial.solutions:
        split = maximal_split(WeightedPlaneParam.from_solution(sol))
        mp = m_prime(split, dict(enumerate(sol.mults, len(sol.dirs))))
        total = total + mp
        entries.append({
            "tree": sol.ctype.serialize(),
            "root": [frac_str(c) for c in sol.root],
            "quadVertices": [[v, m] for v, m in split.quad_vertices],
            "fixedNodeCount": len(split.fixed_nodes),
            "realizable": split.is_realizable,
            "mPrime": mp.to_json_pairs(),
            "mPrimeText": str(mp),
            "orientedSolutions": oriented_solution_count(split),
        })
    quarter = total.exact_div(HalfLaurent(4))
    payload = {
        "command": "realize",
        "degree": delta_s.to_json(),
        "moments": [frac_str(v) for v in trial.moments.full()],
        "s": s,
        "m": len(delta),
        "solutions": entries,
        "sumMPrimeQuarter": quarter.to_json_pairs(),
        "realInvariant": r_inv.to_json_pairs(),
        "matchesRealInvariant": quarter == r_inv,
    }
    match = "match" if payload["matchesRealInvariant"] else "MISMATCH"
    lines = [f"degree: {degree_text(payload['degree'])}   s = {s}"
             f"   m = {payload['m']}",
             *(f"  tree {e['tree']}  quads {len(e['quadVertices'])}  "
               f"m' = {e['mPrimeText']}  oriented {e['orientedSolutions']}"
               for e in entries),
             f"sum m'/4 = {quarter}",
             f"R = {r_inv}  ({match})"]
    return payload, "\n".join(lines) + "\n"


_RUNNERS = {
    "enumerate": run_enumerate,
    "invariant": run_invariant,
    "quantum": run_quantum,
    "realize": run_realize,
    "plot": run_enumerate,          # with an SVG default
}


def render_svg(solutions, polygon) -> str:
    """`svgplot.render_svg`, imported on the first picture; a module global,
    so that callers can replace it."""
    from .svgplot import render_svg as draw

    return draw(solutions, polygon)


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error is one error line too
        raise TropicalError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tropical-refine",
        description="Refined tropical curve counts and their real forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        if name == "quantum":
            p.add_argument("--m1", type=int, required=True,
                           help="first normal-form multiplicity of the vertex")
            p.add_argument("--delta", type=int, default=1,
                           help="index step of the vertex (default 1)")
        else:
            p.add_argument("--degree", required=True,
                           help="degree JSON file, inline JSON, or 'x,y;x,y;...'")
            p.add_argument("--s", type=int, default=0,
                           help="number of end pairs to merge into weight-2 ends")
            p.add_argument("--n1", help="direction 'x,y' of the ends merged by --s")
            if name == "invariant":
                p.add_argument("--trials", type=int, default=5,
                               help="constraint draws for the invariance audit")
                draw = p
            else:
                draw = p.add_mutually_exclusive_group()
                draw.add_argument("--moments",
                                  help="comma-separated rationals, n-1 or n of them")
            draw.add_argument("--seed", type=int, default=0,
                              help="seed for generated moments")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", default="svg" if name == "plot" else "json",
                       choices=FORMATS if name in ("enumerate", "plot")
                       else FORMATS[:2])
    return parser


# built once: argparse's parser objects refer to each other, so a parser
# built per `main` call would be cyclic garbage after it
_PARSER = build_parser()


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        payload, text = _RUNNERS[args.command](args)
        if args.format == "json":
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        _write(text, args.out)
    except (TropicalError, ValueError, OSError) as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(json.dumps(error, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
