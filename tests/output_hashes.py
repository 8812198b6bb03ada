"""SHA-256 of outputs too large or too slow for the suite, checked by hand.

The cases are the seeded CLI outputs of `enumerate`, `realize`, `plot` and
`invariant` on the 13-end degree build_delta_s(delta_d(5), (-1, 0), 2) at
seeds 1-3 in every format `test_golden.SEEDED` lists, `realize` on the
14-end build_delta_s(delta_d(5), (-1, 0), 1) at seed 1, the stdout of the
five demos and the SVG files of the gallery, and the stdout of
`bench/reference.py`. Each case hashes to one SHA-256 in
`output_hashes.json`. From the repository root,

    PYTHONPATH=src python3 tests/output_hashes.py           # check
    PYTHONPATH=src python3 tests/output_hashes.py --write   # re-pin

A check prints every case whose bytes differ and exits 1; it takes about
25 s on one core. pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_golden import SEEDED, _run

from tropical_refine import delta_d

ROOT = Path(__file__).resolve().parents[1]
HASHES_PATH = Path(__file__).with_name("output_hashes.json")
QUINTIC = ";".join(f"{v.x},{v.y}" for v in delta_d(5))


def _script(path: Path, cwd: Path) -> bytes:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, str(path)], cwd=cwd, env=env,
                          capture_output=True, check=True)
    return proc.stdout


def outputs():
    """(case key, output bytes), one case at a time."""
    for command, fmt in SEEDED:
        for seed in (1, 2, 3):
            yield f"13_ends/{command}/{fmt}/{seed}", _run(
                [command, f"--degree={QUINTIC}", "--s", "2", "--n1=-1,0",
                 "--seed", str(seed), "--format", fmt])
    yield "14_ends/realize/json/1", _run(
        ["realize", f"--degree={QUINTIC}", "--s", "1", "--n1=-1,0",
         "--seed", "1", "--format", "json"])
    with tempfile.TemporaryDirectory() as tmp:
        # run in an empty directory, so the gallery prints relative paths
        for demo in sorted((ROOT / "demos").glob("*.py")):
            yield f"demo/{demo.stem}", _script(demo, Path(tmp))
        for svg in sorted(Path(tmp).glob("*.svg")):
            yield f"gallery/{svg.name}", svg.read_bytes()
    yield "bench/reference.py", _script(ROOT / "bench" / "reference.py", ROOT)


def main(argv) -> int:
    got = {key: hashlib.sha256(out).hexdigest() for key, out in outputs()}
    if argv == ["--write"]:
        HASHES_PATH.write_text(json.dumps(got, indent=1, sort_keys=True)
                               + "\n", encoding="utf-8")
        print(f"wrote {len(got)} hashes to {HASHES_PATH.name}")
        return 0
    if argv:
        print(__doc__)
        return 2
    pinned = json.loads(HASHES_PATH.read_text(encoding="utf-8"))
    bad = sorted(key for key in got.keys() | pinned.keys()
                 if got.get(key) != pinned.get(key))
    for key in bad:
        print(f"MISMATCH {key}")
    print(f"{len(got) - len(bad)} of {len(pinned)} pinned hashes match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
