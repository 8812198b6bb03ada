"""Benchmark of tropical-refine: one closed loop, one client, one process.

    python3 bench/run.py --workload {audit,bridge,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from a source checkout; the package is imported from `src/` next to
this directory and nothing needs installing. The op inputs (degrees, seeds,
moments) come from `--seed` alone. Every op's output is checked against
`reference.json` or an independent recomputation; an op that raises, exits
non-zero or gives a wrong value counts as failed.

`--trace 0` measures the end-to-end metrics, with times speed-normalised
against a fixed calibration chunk (see CHUNK_CODE). `--trace 1` runs the
same ops untraced for half of `--seconds`, replays them with spans around
every layer entry point (see spans.py) and reports the per-layer metrics;
the spans are written to `.bench_out/`. `--smoke` runs a single round of
ops with every check on.

Stdout carries two JSON lines: the run's environment and details, then the
result `{"correct", "attempted", "failed", "metrics"}`. The
`TROPICAL_REFINE_THREADS` variable is removed from the environment, so the
program and its children run it unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
THREADS_ENV_VAR = "TROPICAL_REFINE_THREADS"
OUT_DIR = ROOT / ".bench_out"
STARTUP_REPS = 5
# Machine speed on a shared host drifts by up to 2x within seconds, so every
# reported time is speed-normalised: scaled by the nominal time of a fixed
# calibration chunk over the chunk's time measured around it. The chunk is
# CHUNK_CODE, run in this process, or for workloads whose ops are fresh
# processes, in a fresh interpreter. The nominal times are the chunks' times
# on an idle 2-core x86-64 host under CPython 3.11, so normalised times read
# as that host's seconds.
CHUNK_CODE = """\
from fractions import Fraction
acc = Fraction(0)
for i in range(1, 300):
    acc += Fraction(i, i + 7) * Fraction(3, i + 1)
"""
CHUNK = compile(CHUNK_CODE, "<calibration>", "exec")
CAL_NOMINAL_S = {False: 0.0015, True: 0.055}    # by fresh_process
CAL_SHARE = 0.25
SETUP_CAL_S = 0.05
MAX_FAILURES_SHOWN = 5


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():        # never report an enclosing repo's sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "loadavg_start": os.getloadavg(),
        THREADS_ENV_VAR: os.environ.get(THREADS_ENV_VAR, "unset"),
    }


def calibration_chunk(fresh_process: bool) -> float:
    """Seconds taken by CHUNK_CODE, here or in a fresh interpreter."""
    t0 = perf_counter()
    if fresh_process:
        subprocess.run([sys.executable, "-c", CHUNK_CODE], capture_output=True,
                       check=True, timeout=workloads.CHILD_TIMEOUT_S)
    else:
        exec(CHUNK, {})
    return perf_counter() - t0


def calibrate_for(fresh_process: bool, seconds: float) -> list[float]:
    """Calibration chunks until `seconds` have passed (at least one)."""
    cal = [calibration_chunk(fresh_process)]
    while sum(cal) < seconds:
        cal.append(calibration_chunk(fresh_process))
    return cal


def normalised_setup(wl) -> float:
    """One set-up of the workload, in speed-normalised seconds."""
    before = calibrate_for(wl.fresh_process, SETUP_CAL_S)
    t0 = perf_counter()
    wl.setup()
    elapsed = perf_counter() - t0
    after = calibrate_for(wl.fresh_process, SETUP_CAL_S)
    return elapsed * CAL_NOMINAL_S[wl.fresh_process] / statistics.fmean(
        (statistics.fmean(before), statistics.fmean(after)))


class Loop:
    """Runs ops of one workload in whole rounds and records what happened.

    After each op, calibration chunks run for CAL_SHARE of its time (at
    least one chunk per round). The ops between two groups of chunks are
    scaled by the nominal chunk time over the mean of the two groups' mean
    chunk times, which follows the machine's speed through the run; `raw_op_s`
    keeps the unscaled times.
    """

    def __init__(self, wl: workloads.Workload, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.plans: list = []
        self.op_s: list[float] = []
        self.raw_op_s: list[float] = []
        self.rounds = 0
        self.scales: list[float] = []
        self.failures: list[str] = []
        self.nominal_s = CAL_NOMINAL_S[wl.fresh_process]
        self._last_cal = calibrate_for(wl.fresh_process, 0)

    def attempt(self, plan) -> None:
        try:
            self.wl.run(plan)
        except Exception as exc:        # every failure is counted, not fatal
            detail = "".join(traceback.format_exception_only(type(exc), exc))
            self.failures.append(f"{plan!r}: {detail.strip()}"[:500])

    def _calibrate(self, pending: list[float], debt: float) -> None:
        cal = calibrate_for(self.wl.fresh_process, debt)
        scale = self.nominal_s / statistics.fmean(
            (statistics.fmean(self._last_cal), statistics.fmean(cal)))
        self._last_cal = cal
        self.scales.append(scale)
        self.op_s += [d * scale for d in pending]

    def _round(self, plans) -> None:
        pending, debt = [], 0.0
        for plan in plans:
            index = len(self.plans)
            self.plans.append(plan)
            t0 = perf_counter()
            if self.tracer is None:
                self.attempt(plan)
            else:
                with self.tracer.span(spans.OP, op=index):
                    self.attempt(plan)
            elapsed = perf_counter() - t0
            self.raw_op_s.append(elapsed)
            pending.append(elapsed)
            debt += CAL_SHARE * elapsed
            if debt >= self.nominal_s:
                self._calibrate(pending, debt)
                pending, debt = [], 0.0
        if pending:
            self._calibrate(pending, debt)
        self.rounds += 1

    def measure(self, seconds: float, smoke: bool) -> None:
        """Whole rounds until `seconds` have passed (one round if smoke)."""
        start = perf_counter()
        while True:
            first = len(self.plans)
            self._round([self.wl.plan(first + k)
                         for k in range(self.wl.round_size)])
            if smoke or perf_counter() - start >= seconds:
                return

    def replay(self, plans) -> None:
        size = self.wl.round_size
        for i in range(0, len(plans), size):
            self._round(plans[i:i + size])


def peak_rss_mib(wl: workloads.Workload) -> float:
    """Peak resident set of what the user waits on: the largest child process
    when ops run in fresh processes, this process otherwise (ru_maxrss is
    KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if wl.fresh_process else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, seconds: float, smoke: bool):
    setup_s = [normalised_setup(wl)
               for _ in range(1 if smoke else wl.setup_reps)]
    loop = Loop(wl)
    loop.measure(seconds, smoke)
    ops = len(loop.op_s)
    p90 = (statistics.quantiles(loop.op_s, n=10)[8] if ops > 1
           else loop.op_s[0])
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (ops / sum(loop.op_s), "1/s"),
        "op_p50_ms": (statistics.median(loop.op_s) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "success_rate": ((ops - len(loop.failures)) / ops, "ratio"),
        "peak_rss_mib": (peak_rss_mib(wl), "MiB"),
    }
    details = {
        "setup_s_each": setup_s,
        "rounds": loop.rounds,
        "ops_beyond_p90": sum(1 for d in loop.op_s if d > p90),
        "error_rate": len(loop.failures) / ops,
        "raw_op_p50_ms": statistics.median(loop.raw_op_s) * 1e3,
        "speed_scale": [min(loop.scales), statistics.median(loop.scales),
                        max(loop.scales)],
    }
    return [loop], metrics, details


def traced(wl, seconds: float, smoke: bool):
    wl.setup()
    if wl.name == "cli":
        wl.in_process = True
    plain = Loop(wl)
    plain.measure(seconds / 2, smoke)

    wl.output_bytes = 0
    tracer = spans.Tracer()
    replay = Loop(wl, tracer)
    with spans.install(tracer, wl.tr):
        replay.replay(plain.plans)
    startup_ms = 0.0
    if wl.name == "cli":
        startup_ms = statistics.median(wl.startup_ms()
                                       for _ in range(STARTUP_REPS))
    metrics, self_ms = spans.layer_metrics(
        tracer, sum(replay.op_s) / sum(plain.op_s), startup_ms,
        wl.output_bytes)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.jsonl"
    tracer.write(path)
    details = {"self_ms_per_op": self_ms, "spans": len(tracer.spans),
               "spans_file": str(path.relative_to(ROOT)),
               "traced_ops": len(plain.plans)}
    return [plain, replay], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round of ops, for the benchmark's tests")
    args = parser.parse_args(argv)

    removed = os.environ.pop(THREADS_ENV_VAR, None)
    env = environment()
    if removed is not None:
        env[THREADS_ENV_VAR + "_removed"] = removed
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    try:
        run = traced if args.trace else end_to_end
        loops, metrics, details = run(wl, args.seconds, args.smoke)
    except (ImportError, OSError, workloads.Mismatch) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(len(loop.plans) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    print(json.dumps({
        "environment": env,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "failures": failures[:MAX_FAILURES_SHOWN], **details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
