"""Regression self-test: the comparison must catch a slower memory layer.

    python3 perfbench/selftest.py [--runs 5] [--seconds 30]

Runs ``fig5b_lmbench`` three ways, interleaved, on the same seeds:
plain; with every bus access wrapped but not delayed (factor 1.0); and
with every bus access made 1.5 times slower.  The delays are injected
by the benchmark (``run.py --inject-mem-delay``), not by the program.
The test passes when comparing plain against 1.5x flags ``wall_s`` and
comparing plain against the zero-delay wrapper flags nothing.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import compare, render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = "fig5b_lmbench"


def run_once(seed: int, seconds: float, factor: float | None) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if factor is not None:
        command += ["--inject-mem-delay", str(factor)]
    out = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=180,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {None: [], 1.0: [], 1.5: []}
    for seed in range(args.runs):
        for factor, results in sides.items():
            results.append(run_once(seed, args.seconds, factor))
            print(
                f"seed {seed} factor {factor}: wall_s "
                f"{results[-1]['metrics']['wall_s']['value']:.3f}",
                flush=True,
            )
    ok = True
    for factor, must_flag in ((1.0, set()), (1.5, {"wall_s"})):
        rows = compare(sides[None], sides[factor], spec)
        flagged = {row["metric"] for row in rows if row["flagged"]}
        print(f"\nplain vs bus accesses x{factor}:\n{render(rows)}")
        if must_flag and not must_flag <= flagged:
            print(f"FAIL: x{factor} did not flag {sorted(must_flag)}")
            ok = False
        if not must_flag and flagged:
            print(f"FAIL: x{factor} flagged {sorted(flagged)}")
            ok = False
    print("\nself-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
