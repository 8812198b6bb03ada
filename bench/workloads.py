"""The three benchmark workloads and the checks on every op they run.

Each workload has `setup()`, which imports the package afresh and builds the
op inputs; `plan(i)`, which gives the inputs of op i (cycling through a fixed
list, with per-op seeds drawn from the benchmark seed); and `run(plan)`,
which performs the op and raises `Mismatch` when an output is wrong. An op
is a round-robin step of one closed loop with one client.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference

PACKAGE = "tropical_refine"
CHILD_TIMEOUT_S = 60


class Mismatch(Exception):
    """An op finished but produced a wrong value."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got}, want {want}")


def fresh_import(src: Path, with_cli: bool = False):
    """Import the package from `src` as a cold process would, dropping any
    copy already loaded, and refuse a copy found anywhere else."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    tr = importlib.import_module(PACKAGE)
    if with_cli:
        importlib.import_module(PACKAGE + ".cli")
    if Path(tr.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} loaded from {tr.__file__}, not {src}")
    return tr


def compact(degree) -> str:
    return ";".join(f"{v.x},{v.y}" for v in degree.entries)


def quantum_expected(tr, m1: int, delta: int):
    """Indices and refined sum of a quadrivalent vertex, built term by term
    (independently of the library's own closed form)."""
    indices = [delta * (2 * k + 1 - m1) for k in range(m1)]
    return indices, tr.HalfLaurent({2 * i: 1 for i in indices})


class Workload:
    name = ""
    setup_reps = 5
    output_bytes = 0                # bytes of CLI output, counted by `cli`
    fresh_process = False           # each op runs in a fresh interpreter

    def __init__(self, root: Path, seed: int,
                 table_path: Path = reference.TABLE_PATH):
        self.root = root
        self.seed = seed
        self.table_path = table_path

    def _prepare(self, with_cli: bool = False) -> None:
        self.tr = fresh_import(self.root / "src", with_cli)
        self.degrees = reference.build_degrees(self.tr)
        self.ref = reference.load(self.tr, self.table_path)
        self.rng = random.Random(self.seed)

    def check_invariants(self, label: str, n_trop, r_inv=None, bg=None) -> None:
        row = self.ref[label]
        expect(f"{label} N", n_trop, row["N"])
        if r_inv is not None:
            expect(f"{label} R", r_inv, row["R"])
        if bg is not None:
            expect(f"{label} BG", bg, row["BG"])


class Audit(Workload):
    """invariance_audit(trials=1) over a cycle of degrees with 5 to 7 ends."""

    name = "audit"
    CYCLE = ("delta_2", "conic_merged", "six_ends_s2", "six_ends_s1",
             "seven_ends_s1")
    round_size = len(CYCLE)

    def setup(self) -> None:
        self._prepare()

    def plan(self, i: int):
        return self.CYCLE[i % len(self.CYCLE)], self.rng.getrandbits(32)

    def run(self, plan) -> None:
        label, seed = plan
        report = self.tr.invariance_audit(self.degrees[label], trials=1,
                                          seed=seed)
        self.check_invariants(label, report.n_trop, report.r_inv,
                              report.broccoli)


class Bridge(Workload):
    """The real side over solution sets counted once in set-up: maximal
    split, m', oriented counts, sum m'/4 = R, and one quantum table per op."""

    name = "bridge"
    setup_reps = 3
    # The 7-end degree is left out: counting it would triple set-up time.
    LABELS = ("conic_merged", "six_ends_s2", "six_ends_s1", "four_ends_s1")
    SEEDS_PER_DEGREE = 4
    M1_RANGE = range(2, 51)

    def setup(self) -> None:
        self._prepare()
        tr = self.tr
        self.sets = []
        for label in self.LABELS:
            degree = self.degrees[label]
            for _ in range(self.SEEDS_PER_DEGREE):
                mu = tr.random_generic_moments(degree, self.rng.getrandbits(32))
                n_trop, sols = tr.refined_count(degree, mu)
                self.sets.append((label, n_trop, tuple(sols)))
        self.round_size = len(self.sets)

    def plan(self, i: int):
        m1 = self.M1_RANGE[i % len(self.M1_RANGE)]
        return i % len(self.sets), m1, 1 + self.rng.randrange(5)

    def run(self, plan) -> None:
        index, m1, delta = plan
        label, n_trop, sols = self.sets[index]
        tr = self.tr
        rs = tr.realsplit
        row = self.ref[label]
        m, s = row["m"], row["s"]
        total = tr.HalfLaurent(0)
        for sol in sols:
            split = rs.maximal_split(rs.WeightedPlaneParam.from_solution(sol))
            total = total + rs.m_prime(split, sol.ctype.multiplicities())
            oriented = rs.oriented_solution_count(split)
            if oriented <= 0 or oriented % (1 << (m - 2 * s)):
                raise Mismatch(f"{label}: oriented count {oriented}")
        quarter = total.exact_div(tr.HalfLaurent(4))
        self.check_invariants(label, n_trop,
                              tr.invariants.r_from_n(n_trop, m, s))
        expect(f"{label} sum m'/4", quarter, row["R"])

        indices, refined = quantum_expected(tr, m1, delta)
        expect("quad_indices", rs.quad_indices(m1, delta), indices)
        got = rs.quad_refined_sum(m1, delta)
        closed = (tr.HalfLaurent.q_power(m1 * delta)
                  - tr.HalfLaurent.q_power(-m1 * delta)).exact_div(
            tr.HalfLaurent.q_power(delta) - tr.HalfLaurent.q_power(-delta))
        expect("quad_refined_sum", got, refined)
        expect("closed form", closed, refined)
        expect("c_k_values", rs.c_k_values(m1),
               [Fraction(2 * k + 1, 2 * m1) for k in range(m1)])
        expect("coamoeba total",
               sum(rs.coamoeba_area(m1, k) for k in range(m1)), 0)


class Cli(Workload):
    """One fresh `python -m tropical_refine.cli` process per op.

    With `in_process` set (the traced run), ops call `cli.main` in this
    process instead, with stdout captured.
    """

    name = "cli"
    setup_reps = 9
    COMMANDS = ("enumerate", "realize", "plot", "invariant", "quantum")
    round_size = len(COMMANDS)
    in_process = False

    @property
    def fresh_process(self) -> bool:
        return not self.in_process

    def setup(self) -> None:
        self._prepare(with_cli=True)
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.startup_ms()

    def startup_ms(self) -> float:
        """Time of a fresh interpreter importing the CLI module; also checks
        that the child finds the package under src."""
        t0 = perf_counter()
        out = self._child(["-c", f"import {PACKAGE}.cli as c; print(c.__file__)"])
        elapsed = perf_counter() - t0
        want = (self.root / "src" / PACKAGE / "cli.py").resolve()
        if Path(out.strip()).resolve() != want:
            raise ImportError(f"child imported the CLI from {out.strip()}")
        return elapsed * 1e3

    def _child(self, args: list[str]) -> str:
        proc = subprocess.run([sys.executable, *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise Mismatch(f"exit code {proc.returncode}: "
                           f"{(proc.stdout + proc.stderr).strip()[-300:]}")
        return proc.stdout

    def plan(self, i: int):
        command = self.COMMANDS[i % len(self.COMMANDS)]
        if command == "quantum":
            m1 = 2 + self.rng.randrange(49)
            delta = 1 + self.rng.randrange(5)
            return command, (m1, delta), ["quantum", f"--m1={m1}",
                                          f"--delta={delta}"]
        seed = f"--seed={self.rng.getrandbits(32)}"
        delta_2 = f"--degree={compact(self.degrees['delta_2'])}"
        if command == "enumerate":
            return command, "delta_2", ["enumerate", delta_2, seed]
        if command == "realize":
            return command, "conic_merged", ["realize", delta_2, "--s=1", seed]
        if command == "plot":
            degree = f"--degree={compact(self.degrees['six_ends_s1'])}"
            return command, "six_ends_s1", ["plot", degree, seed]
        return command, "conic_merged", ["invariant", delta_2, "--s=1",
                                         "--trials=2", seed]

    def run(self, plan) -> None:
        command, label, argv = plan
        if self.in_process:
            out = self._main(argv)
        else:
            out = self._child(["-m", f"{PACKAGE}.cli", *argv])
        self.output_bytes += len(out.encode("utf-8"))
        getattr(self, f"_check_{command}")(label, out)

    def _main(self, argv: list[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.tr.cli.main(argv)
        if code != 0:
            raise Mismatch(f"exit code {code}: {buf.getvalue().strip()}")
        return buf.getvalue()

    def _pairs(self, pairs):
        return self.tr.HalfLaurent.from_json_pairs(pairs)

    def _check_enumerate(self, label, out) -> None:
        data = json.loads(out)
        self.check_invariants(label, self._pairs(data["refinedCount"]))
        expect("solutionCount", data["solutionCount"], len(data["solutions"]))

    def _check_realize(self, label, out) -> None:
        data = json.loads(out)
        r_inv = self.ref[label]["R"]
        expect("realInvariant", self._pairs(data["realInvariant"]), r_inv)
        expect("sumMPrimeQuarter", self._pairs(data["sumMPrimeQuarter"]), r_inv)
        expect("matchesRealInvariant", data["matchesRealInvariant"], True)

    def _check_invariant(self, label, out) -> None:
        data = json.loads(out)
        expect("trials", data["trials"], 2)
        self.check_invariants(label, self._pairs(data["refinedCount"]),
                              self._pairs(data["realInvariant"]),
                              self._pairs(data["broccoli"]))

    def _check_plot(self, label, out) -> None:
        svg = ET.fromstring(out)
        expect("svg root", svg.tag, "{http://www.w3.org/2000/svg}svg")
        groups = [g for g in svg if g.tag.endswith("}g")]
        curves = groups[:-1]          # the last group is the dual inset
        if not curves:
            raise Mismatch("plot drew no curve")
        weight_two = sum(1 for v in self.degrees[label].entries
                         if self.tr.lattice_length(v) == 2)
        labels = sum(1 for g in curves for t in g if t.tag.endswith("}text"))
        expect("weight-2 labels", labels, weight_two * len(curves))

    def _check_quantum(self, params, out) -> None:
        m1, delta = params
        data = json.loads(out)
        indices, refined = quantum_expected(self.tr, m1, delta)
        expect("indices", data["indices"], indices)
        expect("refinedSum", self._pairs(data["refinedSum"]), refined)
        expect("closedFormAgrees", data["closedFormAgrees"], True)
        expect("ckValues", [Fraction(c) for c in data["ckValues"]],
               [Fraction(2 * k + 1, 2 * m1) for k in range(m1)])


WORKLOADS = {cls.name: cls for cls in (Audit, Bridge, Cli)}
