"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload fig5b_lmbench --seed 0 \\
        --seconds 30 --trace 0

Workloads: ``fig5b_lmbench`` and ``fig5c_spec`` (paper.py) and
``fleet_open`` (fleet.py).  Run from the root of a checkout; the
program is imported from ``src/``.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run
(see README.md).  The exit code is 0
when every output matched its reference, 1 on a mismatch, 2 when the
program source is missing.
"""

from __future__ import annotations

import time

import calibrate

#: Host speed just before the set-up starts (see calibrate.py); the
#: first sample also starts the calibration sibling.
CALIBRATION_BEFORE = [calibrate.sample() for _ in range(3)]
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (trace artifacts).
WORK = ROOT / ".perfbench"

WORKLOADS = ("fig5b_lmbench", "fig5c_spec", "fleet_open")
FLEET = "fleet_open"
#: Set-up is repeated in this many processes (this one included); the
#: median is reported.
SETUP_SAMPLES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-mem-delay", type=float, default=None, metavar="FACTOR",
        help="regression self-test: make every bus access FACTOR times "
             "slower (1.0 = wrapper only, no delay)",
    )
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--check-file", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> bool:
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(SRC)


def child(args, *extra, check=True) -> subprocess.CompletedProcess:
    """This workload and seed again, in a fresh process."""
    if args.inject_mem_delay is not None:
        extra += ("--inject-mem-delay", str(args.inject_mem_delay))
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=check,
    )


def set_up(args, ledger, spans=False):
    """Build the run.  Returns it, its set-up time in nominal seconds
    and the ledger's set-up figures; the ledger is then cleared."""
    if args.workload == FLEET:
        from fleet import FleetRun

        run = FleetRun(args.seed, args.seconds, spans=spans)
    else:
        from paper import PaperRun

        run = PaperRun(args.workload, args.seed)
    run.setup()
    setup_s = time.perf_counter() - T0
    setup_s *= calibrate.factor(
        CALIBRATION_BEFORE + [calibrate.sample() for _ in range(3)]
    )
    setup_snap = ledger.snapshot()
    ledger.reset()
    return run, setup_s, setup_snap


def measure(args, run, reference, ledger, traced=False) -> dict:
    """Timed phase.  On the paper workloads ``compiled_blocks`` counts
    the first (cold) pass: later passes bind blocks their siblings
    compiled, and how many passes fit depends on the clock."""
    if args.workload == FLEET:
        return run.measure(reference)
    first = {}

    def on_first_pass():
        first["compiled_blocks"] = ledger.counts["compiled_blocks"]

    outcome = run.measure(
        args.seconds, reference, ledger=ledger if traced else None,
        on_first_pass=on_first_pass,
    )
    outcome["compiled_blocks"] = first["compiled_blocks"]
    return outcome


def untraced(args, reference) -> dict:
    from layers import Ledger, install_compile_counter, install_mem_delay

    ledger = Ledger()
    install_compile_counter(ledger)
    if args.inject_mem_delay is not None:
        install_mem_delay(args.inject_mem_delay)
    run, setup_s, _ = set_up(args, ledger)
    if args.setup_only:
        if args.workload == FLEET:
            run.stop()
        return {"setup_s": setup_s}
    outcome = measure(args, run, reference, ledger)
    if args.workload == FLEET:
        peak_rss_mb = outcome["peak_rss_mb"]
    else:
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    e2e = run.end_to_end(outcome)
    if args.check_file:
        Path(args.check_file).write_text(json.dumps({
            "sim": run.simulated(outcome),
            "compiled_blocks": outcome.get("compiled_blocks"),
            "wall_s": e2e["wall_s"],
        }))
        setups = [setup_s]
    else:
        setups = [setup_s] + [
            json.loads(child(args, "--setup-only").stdout)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
    print(
        f"perfbench: raw wall_s {run.raw_wall(outcome):.4f}, "
        f"host-speed scale {outcome['scale']:.4f}", file=sys.stderr,
    )
    attempted, failed = outcome["attempted"], outcome["failed"]
    metrics = {
        "setup_s": statistics.median(setups),
        **e2e,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (attempted - failed) / attempted,
    }
    return finish(args, outcome, metrics, failed)


def traced(args, reference) -> dict:
    from layers import Ledger, install, layer_metrics

    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    check_path = WORK / f"untraced-{tag}"
    try:
        # The untraced comparison run: a fresh process, run first so the
        # two never compete for a core.  It writes the check file even
        # when its outputs are wrong (it then exits 1).
        child(args, "--trace", "0", "--check-file", str(check_path),
              check=False)
        untraced_check = json.loads(check_path.read_text())
    finally:
        check_path.unlink(missing_ok=True)

    ledger = Ledger()
    install(ledger)
    if args.workload == FLEET:
        from paper import SIMULATED

        snap, outcome, run, setup_snap, fleet_metrics = traced_fleet(
            args, reference, ledger, WORK / f"workers-{tag}"
        )
        # The workers' blocks, timed phase only; which worker serves a
        # job depends on timing, so this count is not compared.
        compiled_blocks = snap["counts"]["compiled_blocks"]
        # The Figure-5 model figures do not apply: zero.
        not_measured = SIMULATED
    else:
        from fleet import FLEET_METRICS as not_measured

        run, _, setup_snap = set_up(args, ledger)
        outcome = measure(args, run, reference, ledger, traced=True)
        snap = ledger.snapshot()
        compiled_blocks = outcome["compiled_blocks"]
        fleet_metrics = {}
    scale = outcome["scale"]
    simulated = run.simulated(outcome)
    wall_s = run.end_to_end(outcome)["wall_s"]
    metrics = {
        **dict.fromkeys(not_measured, 0),
        "boot.count": setup_snap["acc"]["boot"][0],
        "boot.s": setup_snap["acc"]["boot"][1] * scale,
        **layer_metrics(snap, outcome["passes"], scale),
        "hart.compiled_blocks": compiled_blocks,
        **simulated,
        **fleet_metrics,
        "trace_overhead_pct": (wall_s / untraced_check["wall_s"] - 1) * 100,
    }
    problems = []
    if outcome.get("compiled_blocks") != untraced_check["compiled_blocks"]:
        problems.append(
            f"compiled blocks: traced {outcome.get('compiled_blocks')}, "
            f"untraced {untraced_check['compiled_blocks']}"
        )
    if simulated != untraced_check["sim"]:
        problems.append(
            f"simulated figures: traced {simulated}, "
            f"untraced {untraced_check['sim']}"
        )
    (WORK / f"trace-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "metrics": metrics,
            "setup_ledger": setup_snap,
            "ledger": snap,
            "spans": ledger.span_dicts(),
            "fleet_spans": outcome.get("spans"),
        })
    )
    return finish(
        args, outcome, metrics, outcome["failed"] + len(problems), problems
    )


def traced_fleet(args, reference, ledger, directory):
    """The traced fleet run.  The wrapped layers are inherited by the
    forked workers, which dump their ledgers after every batch; the
    timed phase's figures are the driver's plus every worker's."""
    import shutil

    from fleet import install_worker_dump, read_worker_dumps, span_metrics
    from layers import add_snapshots

    directory.mkdir(exist_ok=True)
    try:
        install_worker_dump(ledger, str(directory))
        run, _, setup_snap = set_up(args, ledger, spans=True)
        outcome = run.measure(reference)
        snap = ledger.snapshot()
        for worker in read_worker_dumps(directory):
            snap = add_snapshots(snap, worker)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return snap, outcome, run, setup_snap, span_metrics(outcome)


def finish(args, outcome, metrics, failed, problems=()) -> dict:
    problems = outcome["problems"] + list(problems)
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in listed}
    if set(units) != set(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do "
            "not match BENCHMARK.json"
        )
    return {
        "correct": failed == 0 and not problems,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not load_program():
        print(
            f"perfbench: no program source at {SRC / 'repro'}",
            file=sys.stderr,
        )
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference[args.workload]
    if args.workload != FLEET:
        expected = expected["cells"]
    try:
        result = traced(args, expected) if args.trace else untraced(
            args, expected
        )
    finally:
        calibrate.stop()
    print(json.dumps(result))
    return 0 if result.get("correct", True) else 1


if __name__ == "__main__":
    sys.exit(main())
