"""The tropical-refine command line: grammar, formats, schemas, determinism."""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import jsonschema
import pytest

import tropical_refine
from tropical_refine import (Degree, HalfLaurent, MenelausViolation,
                             MomentVector, TropicalError, Vec, build_delta_s,
                             delta_d, polygon_of, random_generic_moments,
                             refined_count)
from tropical_refine.cli import (build_parser, default_n1, load_degree, main,
                                 parse_moments, parse_vec)
from tropical_refine.lattice import frac_str

BENCH = Path(__file__).resolve().parents[1] / "bench"

TRIANGLE = "-1,0;0,-1;1,1"
CONIC = "-1,0;-1,0;0,-1;0,-1;1,1;1,1"


class Counted(NamedTuple):
    """A stand-in for the TrialRecord `cli.count_curves` returns: only what
    the runners read of it."""
    moments: MomentVector
    n_trop: HalfLaurent
    solutions: tuple


def schema(name: str) -> dict:
    path = resources.files("tropical_refine") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_cli(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv) -> dict:
    code, out = run_cli(capsys, argv)
    assert code == 0
    return json.loads(out)


def test_parse_vec():
    assert parse_vec("-1,0") == Vec(-1, 0)
    assert parse_vec("3,-7") == Vec(3, -7)
    with pytest.raises(ValueError):
        parse_vec("1;2")
    with pytest.raises(ValueError):
        parse_vec("1,2,3")


def test_load_degree_forms(tmp_path):
    want = Degree(((-1, 0), (0, -1), (1, 1)))
    assert load_degree(TRIANGLE) == want
    assert load_degree("[[-1,0],[0,-1],[1,1]]") == want
    assert load_degree('{"entries": [[-1,0],[0,-1],[1,1]]}') == want
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({"entries": [[-1, 0], [0, -1], [1, 1]]}),
                    encoding="utf-8")
    assert load_degree(str(path)) == want


@pytest.mark.parametrize("text", ["[[-1,0],[0,-1],[1,1]]", TRIANGLE,
                                  '{"entries": [[-1,0],[0,-1],[1,1]]}'])
def test_a_degree_file_holds_any_inline_form(tmp_path, text):
    # a file's text is parsed as the same text given inline; a bare list in
    # a file used to be refused
    path = tmp_path / "degree.json"
    path.write_text(text + "\n", encoding="utf-8")
    assert load_degree(str(path)) == load_degree(text)


def test_a_degree_file_refuses_an_empty_entry(tmp_path):
    path = tmp_path / "degree.txt"
    path.write_text("-1,0;;0,-1;1,1\n", encoding="utf-8")
    with pytest.raises(ValueError,
                       match="^entry 2 of '-1,0;;0,-1;1,1' is empty$"):
        load_degree(str(path))


def test_default_n1_picks_smallest_repeated_direction():
    conic = load_degree(CONIC)
    assert default_n1(conic, 1) == Vec(-1, 0)
    with pytest.raises(TropicalError):
        default_n1(load_degree(TRIANGLE), 1)


def test_parse_moments_accepts_both_lengths():
    triangle = load_degree(TRIANGLE)
    short = parse_moments("3,2", triangle)
    full = parse_moments("-5,3,2", triangle)
    assert short == full
    assert short.values == (Fraction(3), Fraction(2))
    with pytest.raises(MenelausViolation):
        parse_moments("1,3,2", triangle)
    with pytest.raises(TropicalError):
        parse_moments("3", triangle)
    for text in ("3,,2", ",3,2", "3,2,", "-5,3,2,"):
        with pytest.raises(ValueError, match="is empty"):
            parse_moments(text, triangle)


def test_enumerate_json_triangle(capsys):
    argv = ["enumerate", f"--degree={TRIANGLE}", "--moments", "3,2"]
    payload = run_json(capsys, argv)
    jsonschema.validate(payload, schema("enumerate"))
    assert payload["command"] == "enumerate"
    assert payload["solutionCount"] == 1
    assert payload["refinedCountText"] == "1"
    assert payload["moments"] == ["-5", "3", "2"]
    sol = payload["solutions"][0]
    assert sol["tree"] == "(0,1,2)"
    assert sol["root"] == ["3", "5"]
    assert sol["multiplicity"] == 1
    assert sol["endMoments"] == ["-5", "3", "2"]


def test_enumerate_text_triangle(capsys):
    argv = ["enumerate", f"--degree={TRIANGLE}", "--moments", "3,2",
            "--format", "text"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == ("degree: (-1,0) (0,-1) (1,1)\n"
                   "moments: -5, 3, 2\n"
                   "solutions: 1\n"
                   "  tree (0,1,2)  root (3, 5)  mult 1  refined 1\n"
                   "N = 1\n")


def test_enumerate_uses_seeded_moments(capsys, triangle):
    payload = run_json(capsys, ["enumerate", f"--degree={TRIANGLE}",
                                "--seed", "5"])
    mu = random_generic_moments(triangle, 5)
    assert payload["moments"] == [frac_str(v) for v in mu.full()]


@pytest.mark.parametrize("command", ["enumerate", "realize", "plot"])
def test_seeded_commands_count_each_attempt_once(capsys, count_solves,
                                                 command):
    count_solves["walls"].add(1)            # the first draw is redrawn
    code, _ = run_cli(capsys, [command, f"--degree={CONIC}", "--s", "1",
                               "--seed", "4"])
    assert code == 0
    attempts = count_solves["draws"] // 4   # the merged conic has 5 ends
    assert attempts == 2 and count_solves["solves"] == attempts


@pytest.mark.parametrize("command", ["enumerate", "realize", "plot"])
def test_given_moments_are_counted_once(capsys, count_solves, command):
    code, _ = run_cli(capsys, [command, f"--degree={TRIANGLE}",
                               "--moments", "3,2"])
    assert code == 0
    assert (count_solves["solves"], count_solves["draws"]) == (1, 0)


# the seed-1 draw of the cubic with one pair of (-1, 0) ends merged: 4 curves
CUBIC_S1_MOMENTS = "682/3,819,-265/2,262,851/6,-83/3,821"


@pytest.mark.parametrize("command", [
    ["enumerate"], ["plot", "--format=json"], ["realize"]],
    ids=["enumerate", "plot-json", "realize"])
def test_given_moments_print_refined_counts_curves(capsys, count_solves,
                                                   command):
    # a given constraint is counted once, by the trial the runner prints,
    # and its curves are refined_count's, in the same order
    payload = run_json(capsys, [*command, CUBIC, "--s=1",
                                f"--moments={CUBIC_S1_MOMENTS}"])
    assert (count_solves["solves"], count_solves["draws"]) == (1, 0)
    delta_s = load_degree(CUBIC.removeprefix("--degree="))
    delta_s = build_delta_s(delta_s, default_n1(delta_s, 1), 1)
    mu = parse_moments(CUBIC_S1_MOMENTS, delta_s)
    n_trop, sols = refined_count(delta_s, mu)
    assert [(c["tree"], c["root"]) for c in payload["solutions"]] == [
        (sol.ctype.serialize(), [frac_str(x) for x in sol.root])
        for sol in sols]
    assert len(sols) == 4
    if command[0] != "realize":
        assert payload["refinedCount"] == n_trop.to_json_pairs()


def test_enumerate_output_is_byte_identical(capsys):
    argv = ["enumerate", f"--degree={CONIC}", "--seed", "11"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second


def test_full_moment_form_matches_short_form(capsys):
    short = run_cli(capsys, ["enumerate", f"--degree={TRIANGLE}",
                             "--moments", "3,2"])
    full = run_cli(capsys, ["enumerate", f"--degree={TRIANGLE}",
                            "--moments=-5,3,2"])
    assert short == full


def test_invariant_json_merged_conic(capsys):
    argv = ["invariant", f"--degree={CONIC}", "--s", "1", "--trials", "4"]
    payload = run_json(capsys, argv)
    jsonschema.validate(payload, schema("invariant"))
    assert payload["command"] == "invariant"
    assert payload["s"] == 1
    assert payload["m"] == 6
    assert payload["trials"] == 4
    assert len(payload["trialRecords"]) == 4
    assert payload["refinedCountText"] == "q^1/2 + q^-1/2"
    assert payload["realInvariantText"] == "q - 2 + q^-1"
    assert payload["broccoliText"] == "q + q^-1"


def test_invariant_text_merged_conic(capsys):
    argv = ["invariant", f"--degree={CONIC}", "--s", "1", "--trials", "4",
            "--format", "text"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == (
        "degree: (0,-1) (0,-1) (1,1) (1,1) (-2,0)   s = 1   m = 6\n"
        "trials: 4, solutions per trial: [1, 1, 1, 1]\n"
        "N = q^1/2 + q^-1/2, R = q - 2 + q^-1\n"
        "BG = q + q^-1\n")


def test_explicit_n1_matches_default(capsys):
    default = run_cli(capsys, ["invariant", f"--degree={CONIC}", "--s", "1",
                               "--trials", "3"])
    explicit = run_cli(capsys, ["invariant", f"--degree={CONIC}", "--s", "1",
                                "--n1=-1,0", "--trials", "3"])
    assert default == explicit


def test_quantum_json(capsys):
    payload = run_json(capsys, ["quantum", "--m1", "3", "--delta", "2"])
    jsonschema.validate(payload, schema("quantum"))
    assert payload["m1"] == 3
    assert payload["delta"] == 2
    assert payload["indices"] == [-4, 0, 4]
    assert payload["refinedSumText"] == "q^4 + 1 + q^-4"
    assert payload["closedFormAgrees"] is True
    assert payload["coamoebaAreas"] == ["-2/3", "0", "2/3"]
    assert payload["ckValues"] == ["1/6", "1/2", "5/6"]


def test_quantum_text(capsys):
    code, out = run_cli(capsys, ["quantum", "--m1", "3", "--delta", "2",
                                 "--format", "text"])
    assert code == 0
    assert out == ("quadrivalent vertex: m1 = 3, delta = 2\n"
                   "indices: [-4, 0, 4]\n"
                   "refined sum: q^4 + 1 + q^-4\n"
                   "closed form agrees: True\n"
                   "k | index | coamoeba area | c_k\n"
                   "0 | -4 | -2/3 | 1/6\n"
                   "1 | 0 | 0 | 1/2\n"
                   "2 | 4 | 2/3 | 5/6\n")


def test_realize_json_triangle(capsys):
    argv = ["realize", f"--degree={TRIANGLE}", "--moments", "3,2"]
    payload = run_json(capsys, argv)
    jsonschema.validate(payload, schema("realize"))
    assert payload["s"] == 0
    assert payload["m"] == 3
    assert payload["matchesRealInvariant"] is True
    assert payload["sumMPrimeQuarter"] == payload["realInvariant"]
    sol = payload["solutions"][0]
    assert sol["quadVertices"] == []
    assert sol["realizable"] is True
    assert sol["mPrimeText"] == "4*q^1/2 - 4*q^-1/2"
    assert sol["orientedSolutions"] == 8


def test_realize_text_merged_conic(capsys):
    argv = ["realize", f"--degree={CONIC}", "--s", "1", "--seed", "2026",
            "--format", "text"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == (
        "degree: (0,-1) (0,-1) (1,1) (1,1) (-2,0)   s = 1   m = 6\n"
        "  tree (0,2,(3,(1,4)))  quads 1  m' = 4*q - 8 + 4*q^-1  oriented 32\n"
        "sum m'/4 = q - 2 + q^-1\n"
        "R = q - 2 + q^-1  (match)\n")


def test_plot_defaults_to_svg(capsys):
    code, out = run_cli(capsys, ["plot", f"--degree={TRIANGLE}",
                                 "--moments", "3,2"])
    assert code == 0
    assert out.startswith('<svg xmlns="http://www.w3.org/2000/svg" ')
    assert out.endswith("</svg>\n")
    _, again = run_cli(capsys, ["plot", f"--degree={TRIANGLE}",
                                "--moments", "3,2"])
    assert out == again


def test_plot_json_is_the_enumeration(capsys):
    plot = run_cli(capsys, ["plot", f"--degree={TRIANGLE}",
                            "--moments", "3,2", "--format", "json"])
    enum = run_cli(capsys, ["enumerate", f"--degree={TRIANGLE}",
                            "--moments", "3,2"])
    assert plot == enum


def test_enumerate_svg_matches_plot(capsys):
    svg = run_cli(capsys, ["enumerate", f"--degree={TRIANGLE}",
                           "--moments", "3,2", "--format", "svg"])
    plot = run_cli(capsys, ["plot", f"--degree={TRIANGLE}", "--moments", "3,2"])
    assert svg == plot


def test_quantum_checks_its_closed_form_without_dividing(capsys,
                                                          count_divisions):
    for m1, delta in ((1, 1), (7, 3), (50, 5)):
        payload = run_json(capsys, ["quantum", "--m1", str(m1),
                                    "--delta", str(delta)])
        assert payload["closedFormAgrees"] is True
    assert count_divisions == []


def test_realize_divides_twice(capsys, count_divisions):
    # each m' is a product, so the only divisions are R from N and sum m'/4
    payload = run_json(capsys, ["realize",
                                "--degree=-1,0;0,-1;0,-1;1,1;1,1;1,0;-2,0",
                                "--seed", "1"])
    assert payload["matchesRealInvariant"] is True
    assert len(payload["solutions"]) > 1
    # r_from_n divides N by w + 1/w (s = 1), and the sum of m' by 4
    assert count_divisions == [HalfLaurent({1: 1, -1: 1}), 4]


def test_realize_checks_the_multiplicities_it_counted(capsys, monkeypatch):
    # m' reads each curve's counted multiplicities, vertex n + i taking
    # mults[i], and checks them against the curve's tree; a count that
    # disagrees with its tree is one error line, not a payload
    from tropical_refine import cli
    from tropical_refine.solver import TropicalSolution

    real_count = cli.count_curves

    def count_curves(args, delta_s):
        trial = real_count(args, delta_s)
        *sols, c = trial.solutions
        mults = c.mults[:-1] + (c.mults[-1] + 2,)
        return Counted(trial.moments, trial.n_trop, (*sols, TropicalSolution(
            c.dirs, c.moments, c.splits, mults, c.points, c.scale)))

    monkeypatch.setattr(cli, "count_curves", count_curves)
    code, out = run_cli(capsys, ["realize",
                                 "--degree=-1,0;0,-1;0,-1;1,1;1,1;1,0;-2,0",
                                 "--seed", "1"])
    assert code == 1 and out.count("\n") == 1
    payload = json.loads(out)
    assert payload["error"] == "TropicalError"
    assert payload["message"].startswith("multiplicities {")


def _bench_spans():
    """The benchmark's span tracer, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_bench_patch_points_are_module_globals():
    # the traced benchmark replaces these names where callers look them up,
    # so each must stay a global of its module, not an import inside a body
    from tropical_refine import cli, invariants, realsplit

    spans = _bench_spans()
    patched = {
        cli: {"render_svg", "json", "_RUNNERS"},
        invariants: {"enumerate_types", "solve", *spans.INVARIANT_FUNCS},
        realsplit: set(spans.REALSPLIT_FUNCS),
    }
    assert "random_generic_moments" in patched[invariants]
    assert {"maximal_split", "quad_indices"} <= patched[realsplit]
    for module, names in patched.items():
        assert sorted(names - vars(module).keys()) == [], module.__name__


def test_cli_render_svg_draws_what_svgplot_draws(capsys, conic):
    from tropical_refine import cli, svgplot

    mu = random_generic_moments(conic, seed=1)
    _, sols = refined_count(conic, mu)
    polygon = polygon_of(conic)
    assert cli.render_svg(sols, polygon) == svgplot.render_svg(sols, polygon)
    # a traced plot times the picture through the patched global
    spans, draw = _bench_spans(), cli.render_svg
    argv = ["plot", f"--degree={TRIANGLE}", "--moments", "3,2"]
    with spans.install(spans.Tracer(), tropical_refine) as tracer:
        traced = run_cli(capsys, argv)
    assert [s[0] for s in tracer.spans].count("svgplot.render_svg") == 1
    assert cli.render_svg is draw
    assert traced == run_cli(capsys, argv)


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "run.json"
    argv = ["enumerate", f"--degree={TRIANGLE}", "--moments", "3,2"]
    code, streamed = run_cli(capsys, argv)
    assert code == 0
    code, out = run_cli(capsys, argv + ["--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == streamed


def test_a_degree_past_the_end_bound_is_one_error_line(capsys, monkeypatch):
    # delta_d(6) with one pair merged has 17 ends: refused before the
    # split table is built
    from tropical_refine import solver

    def build(dirs):
        raise AssertionError("the split table was built")

    monkeypatch.setattr(solver, "_SplitTable", build)
    degree = ";".join(f"{e.x},{e.y}" for e in delta_d(6))
    code, out = run_cli(capsys, ["invariant", f"--degree={degree}", "--s",
                                 "1", "--n1=-1,0", "--trials", "1"])
    assert code == 1 and out.count("\n") == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("error"))
    assert payload == {"error": "OutOfRange",
                       "message": "a count of 17 ends is past the bound of "
                                  "16: its table would not fit in memory"}


def test_an_m1_past_its_cap_is_one_error_line(capsys):
    # the quantum tables take about 1 KB per unit of m1: past MAX_M1 the
    # command prints one error line; m1 = 50, the largest the acceptance
    # suite and the benchmark use, still runs
    from tropical_refine.realsplit import MAX_M1

    code, out = run_cli(capsys, ["quantum", f"--m1={MAX_M1 + 1}"])
    assert code == 1 and out.count("\n") == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("error"))
    assert payload == {"error": "OutOfRange",
                       "message": "m1 = 10001 is past the bound of 10000: "
                                  "the quantum tables take about 1 KB per "
                                  "unit of m1"}
    payload = run_json(capsys, ["quantum", "--m1=50"])
    assert len(payload["indices"]) == 50 and payload["closedFormAgrees"]


def error_case(capsys, argv, error_name):
    code, out = run_cli(capsys, argv)
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, schema("error"))
    assert payload["error"] == error_name
    return payload


def test_error_degenerate_degree(capsys):
    error_case(capsys, ["enumerate", "--degree=1,0;0,1;1,1"],
               "DegenerateDegree")


def test_error_too_few_ends(capsys):
    for command in ("enumerate", "invariant", "realize"):
        error_case(capsys, [command, "--degree=1,0;-1,0"], "TooFewEnds")
    # with no ends no moment count fits; the ends are refused, not the count
    for degree in ("[]", '{"entries": []}'):
        payload = error_case(capsys, ["enumerate", f"--degree={degree}",
                                      "--moments=1"], "TooFewEnds")
        assert payload["message"] == "a curve needs at least 3 ends, got 0"


@pytest.mark.parametrize("command", ["invariant", "realize"])
def test_error_ends_on_one_line(capsys, command):
    # no curve has these ends, so there is no R to report; `enumerate`
    # counts N = 0 through them and derives nothing
    payload = error_case(capsys, [command, "--degree=-2,0;1,0;1,0"],
                         "DegenerateDegree")
    assert payload["message"] == "all directions lie on one line"


def test_error_menelaus_violation(capsys):
    error_case(capsys, ["enumerate", f"--degree={TRIANGLE}",
                        "--moments", "1,3,2"], "MenelausViolation")


def test_error_quantum_needs_m1(capsys):
    error_case(capsys, ["quantum"], "TropicalError")


def test_error_invariant_has_no_svg(capsys):
    error_case(capsys, ["invariant", f"--degree={TRIANGLE}",
                        "--format", "svg"], "TropicalError")
    error_case(capsys, ["quantum", "--m1", "2", "--format", "svg"],
               "TropicalError")


def test_each_command_takes_only_the_flags_it_reads():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    counted = ("--degree", "--s", "--n1")
    grammar = {name: ({o for a in p._actions for o in a.option_strings
                       if o not in ("-h", "--help")},
                      next(a.choices for a in p._actions
                           if "--format" in a.option_strings))
               for name, p in commands.choices.items()}
    drawn = {*counted, "--moments", "--seed", "--out", "--format"}
    assert grammar == {
        "enumerate": (drawn, ("json", "text", "svg")),
        "realize": (drawn, ("json", "text")),
        "plot": (drawn, ("json", "text", "svg")),
        "invariant": ({*counted, "--seed", "--trials", "--out", "--format"},
                      ("json", "text")),
        "quantum": ({"--m1", "--delta", "--out", "--format"},
                    ("json", "text")),
    }
    assert sum(len(flags) for flags, _ in grammar.values()) == 32
    assert sum(len(formats) for _, formats in grammar.values()) == 12


QUANTUM = ["quantum", "--m1", "2"]


@pytest.mark.parametrize("argv", [
    ["invariant", f"--degree={TRIANGLE}", "--moments", "3,2"],
    *([*QUANTUM, flag, value] for flag, value in (
        ("--degree", TRIANGLE), ("--s", "1"), ("--n1", "1,0"),
        ("--moments", "3,2"), ("--seed", "4"), ("--trials", "2"))),
    *([command, f"--degree={TRIANGLE}", "--trials", "2"]
      for command in ("enumerate", "realize", "plot")),
    ["enumerate", f"--degree={TRIANGLE}", "--moments", "3,2", "--seed", "9"],
    ["realize", f"--degree={CONIC}", "--n1=-1,0"],
    ["realize", f"--degree={CONIC}", "--s", "0", "--n1=-1,0"],
    ["realize", f"--degree={TRIANGLE}", "--moments", "3,2", "--format", "svg"],
    ["quantum"],
    ["invariant", f"--degree={TRIANGLE}", "--format", "svg"],
    ["enumerate", "--moments", "3,2"],
    ["enumerate", f"--degree={TRIANGLE}", "--bogus"],
    ["enumerate", f"--degree={TRIANGLE}", "--seed=x"],
], ids=["invariant-moments", "quantum-degree", "quantum-s", "quantum-n1",
        "quantum-moments", "quantum-seed", "quantum-trials",
        "enumerate-trials", "realize-trials", "plot-trials",
        "moments-and-seed", "n1-without-s", "n1-with-s0", "realize-svg",
        "quantum-without-m1", "invariant-svg", "missing-degree",
        "unknown-flag", "malformed-seed"])
def test_usage_errors_are_one_error_line(capsys, count_solves, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    (line,) = captured.out.splitlines()
    payload = json.loads(line)
    jsonschema.validate(payload, schema("error"))
    assert payload["error"] == "TropicalError"
    # refused before any count runs
    assert (count_solves["solves"], count_solves["draws"]) == (0, 0)


@pytest.mark.parametrize("command", ["invariant", "realize"])
def test_error_weight_two_ends_on_several_divisors(capsys, command):
    # outside the theorem's scope: pairs must lie on one toric divisor
    for degree in ("2,0;0,2;-1,-1;-1,-1", "2,0;0,2;-2,-2"):
        error_case(capsys, [command, f"--degree={degree}"], "MultipleDivisors")


def test_error_unwritable_out(capsys, tmp_path):
    error_case(capsys, ["enumerate", f"--degree={TRIANGLE}", "--moments",
                        "3,2", "--out", str(tmp_path / "no" / "run.json")],
               "FileNotFoundError")


def test_error_malformed_degree(capsys):
    error_case(capsys, ["enumerate", "--degree", '{"entries": oops}'],
               "JSONDecodeError")
    error_case(capsys, ["enumerate", "--degree", "no/such/file.json"],
               "ValueError")


@pytest.mark.parametrize("argv, named", [
    ([f"--degree={TRIANGLE}", "--moments=1/0"], "'1/0'"),
    # an empty field is refused, not dropped: on the 6-end conic,
    # "1,,2,3,4,5" would otherwise read as the 5-value form
    ([f"--degree={CONIC}", "--moments=1,,2,3,4,5"],
     "moment 2 of '1,,2,3,4,5' is empty"),
    ([f"--degree={TRIANGLE}", "--moments=,3,2"], "moment 1 of ',3,2' is empty"),
    ([f"--degree={TRIANGLE}", "--moments=3,2,"], "moment 3 of '3,2,' is empty"),
    ([f"--degree={TRIANGLE}", "--moments="], "moment 1 of '' is empty"),
    # so is an empty degree entry, which would otherwise be dropped
    (["--degree=-1,0;;0,-1;1,1"], "entry 2 of '-1,0;;0,-1;1,1' is empty"),
    (["--degree=;-1,0;0,-1;1,1"], "entry 1 of ';-1,0;0,-1;1,1' is empty"),
    (["--degree=-1,0;0,-1;1,1;"], "entry 4 of '-1,0;0,-1;1,1;' is empty"),
    (["--degree="], "entry 1 of '' is empty"),
    (["--degree=[[1.5,0],[-1.5,0],[0,1],[0,-1]]"], "[1.5, 0]"),
    (['--degree={"entries": 5}'], "{'entries': 5}"),
    (['--degree={"x": 1}'], "{'x': 1}"),
    (["--degree=[1,2]"], "got 1"),
    (['--degree={"entries": [[-1,0],[0,-1],[1,1]], "name": 5}'], "got 5"),
    (['--degree={"entries": [[1,0],[0,1],[-1,-1]], "nmae": "tri"}'],
     "a degree has no key 'nmae'")],
    ids=["zero-denominator", "empty-moment", "leading-comma",
         "trailing-comma", "no-moments", "empty-entry", "leading-semicolon",
         "trailing-semicolon", "no-degree", "float-entry", "entries-not-a-list",
         "no-entries", "entry-not-a-pair", "name-not-a-string",
         "unknown-key"])
def test_malformed_input_is_one_error_line(capsys, argv, named):
    code = main(["enumerate", *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    payload = json.loads(captured.out)
    jsonschema.validate(payload, schema("error"))
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "ValueError"
    assert named in payload["message"]


def test_a_degree_file_with_an_unknown_key_is_one_error_line(capsys,
                                                            tmp_path):
    # degree.schema.json allows no key but entries and name; a misspelt
    # name used to be dropped, inline and from a file alike
    path = tmp_path / "degree.json"
    path.write_text('{"entries": [[1,0],[0,1],[-1,-1]], "nmae": "tri"}',
                    encoding="utf-8")
    code = main(["enumerate", f"--degree={path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    payload = json.loads(captured.out)
    jsonschema.validate(payload, schema("error"))
    assert payload == {"error": "ValueError",
                       "message": "a degree has no key 'nmae'"}


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [DEEP, '{"entries": ' + DEEP + "}"],
                         ids=["list", "object"])
@pytest.mark.parametrize("in_file", [False, True], ids=["inline", "file"])
def test_deeply_nested_degree_is_one_error_line(capsys, tmp_path, text,
                                                in_file):
    # the JSON decoder runs out of stack on such input; that used to leave
    # a RecursionError traceback on stderr and nothing on stdout
    source = text
    if in_file:
        source = str(tmp_path / "deep.json")
        Path(source).write_text(text, encoding="utf-8")
    code = main(["enumerate", f"--degree={source}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    payload = json.loads(captured.out)
    jsonschema.validate(payload, schema("error"))
    assert payload == {"error": "ValueError",
                       "message": "the degree's JSON is nested too deeply"}


CUBIC = "--degree=-1,0;-1,0;-1,0;0,-1;0,-1;0,-1;1,1;1,1;1,1"


@pytest.mark.parametrize("argv, marker", [
    (["enumerate", CUBIC, "--seed=1", "--format=json"], b'"solutions"'),
    (["realize", CUBIC, "--s=1", "--seed=1"], b'"solutions"'),
    (["plot", CUBIC, "--seed=1"], b"<svg"),
    (["invariant", CUBIC, "--s=1"], b'"broccoli"'),
], ids=["enumerate", "realize", "plot", "invariant"])
def test_output_bytes_do_not_depend_on_the_hash_seed(argv, marker):
    # str hashes change with PYTHONHASHSEED; records hash by their fields
    # and curves are put in order by a sort, so no output byte may move.
    # The cubic gives 7 and 4 curves, so their order shows.
    src = str(Path(tropical_refine.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-m", "tropical_refine", *argv],
                              capture_output=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and marker in outputs[0]


COUNTED = ("serialize", "positions", "refined_multiplicity")


@pytest.mark.parametrize("argv, once", [
    (["enumerate", CUBIC, "--seed=1"], COUNTED),
    (["enumerate", CUBIC, "--seed=1", "--format=text"], COUNTED),
    (["realize", CUBIC, "--s=1", "--seed=1"], ("serialize",)),
    (["realize", CUBIC, "--s=1", "--seed=1", "--format=text"], ("serialize",)),
    (["plot", CUBIC, "--seed=1"], ("positions",)),
], ids=["enumerate", "enumerate-text", "realize", "realize-text", "plot"])
def test_each_printed_value_is_computed_once_per_curve(capsys, monkeypatch,
                                                       argv, once):
    # a runner reads its text off its payload, and a picture reads each
    # curve's positions once; the count itself is not counted here
    from tropical_refine import cli, solver, trees

    calls = dict.fromkeys(COUNTED, 0)
    for owner, name in zip((trees.CombinatorialType, solver.TropicalSolution,
                            solver.TropicalSolution), COUNTED):
        def counted(self, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(self)
        monkeypatch.setattr(owner, name, counted)
    curves = []
    real_count = cli.count_curves

    def count_curves(args, delta_s):
        trial = real_count(args, delta_s)
        curves.append(len(trial.solutions))
        calls.update(dict.fromkeys(COUNTED, 0))
        return Counted(trial.moments, trial.n_trop, trial.solutions)

    monkeypatch.setattr(cli, "count_curves", count_curves)
    code, _ = run_cli(capsys, argv)
    assert code == 0 and len(curves) == 1 and curves[0] > 1
    assert {name: calls[name] for name in once} == dict.fromkeys(once,
                                                                 curves[0])


NAMED_CONIC = ('--degree={"entries": [[-1,0],[-1,0],[0,-1],[0,-1],[1,1],'
               '[1,1]], "name": "conic"}')


def test_a_merged_degree_has_an_unnamed_parent(capsys):
    # the parent holds the six primitive ends, so "conic(1)" is not its name
    merged = run_json(capsys, ["invariant", NAMED_CONIC, "--s=1",
                               "--trials=1"])
    assert merged["degree"]["name"] == "conic(1)"
    assert "name" not in merged["parentDegree"]
    plain = run_json(capsys, ["invariant", NAMED_CONIC, "--trials=1"])
    assert plain["degree"] == plain["parentDegree"]
    assert plain["parentDegree"]["name"] == "conic"


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_seeded_and_given_moments_print_the_same_bytes(capsys, seed):
    # a seeded run prints the count that accepted its draw, a given one
    # counts the moments afresh; the two must agree in N, curves and order.
    # `plot` draws the moments `enumerate` printed: its SVG holds none.
    for command in (["enumerate"], ["plot"], ["realize", "--s=1"]):
        seeded = run_cli(capsys, [*command, CUBIC, f"--seed={seed}"])
        if command != ["plot"]:
            moments = ",".join(json.loads(seeded[1])["moments"])
        given = run_cli(capsys, [*command, CUBIC, f"--moments={moments}"])
        assert seeded == given and seeded[0] == 0


def test_console_script_runs():
    # the tropical-refine script calls cli:main; run that target through
    # `python -m`, which needs no installed script on PATH
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert ('tropical-refine = "tropical_refine.cli:main"'
            in pyproject.read_text(encoding="utf-8"))
    src = str(Path(tropical_refine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "tropical_refine", "enumerate",
         f"--degree={TRIANGLE}", "--moments", "3,2"],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["solutionCount"] == 1
