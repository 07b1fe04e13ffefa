"""The Figure-5 matrix workloads: LMbench-shaped and SPEC-shaped.

One run = one fresh process.  Set-up builds every kernel image the
matrix needs and boots one template per distinct build into a single
unbounded :class:`~repro.kernel.BootCache` (the matrix has ten distinct
builds on LMbench — ``ctx`` runs two threads — and the default bound of
eight would make the number of re-boots depend on cell order).  The
timed phase then runs the matrix cell by cell through
``repro.bench.runner.measure_matrix``, in a seed-shuffled order, again
and again until the run's time is up.  Every cell result is compared
with the stored reference.

``wall_s`` is the sum over cells of each cell's median time: the time
of one typical matrix, robust to a slow moment that hits one cell of
one repetition.  Each cell time is scaled to nominal host speed by the
calibration samples taken around it (see ``calibrate.py``).
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from random import Random

import calibrate

#: workload name -> (suite module, fixed scale).
SUITES = {
    "fig5b_lmbench": ("lmbench", 0.4),
    "fig5c_spec": ("spec", 2.0),
}

#: The model's figures reported by the traced run.
SIMULATED = (
    "sim.cycles", "sim.instret", "sim.crypto_ops", "sim.full_overhead_pct",
    "sim.overhead_err_pp", "clb.dec_hit_ratio",
)

#: Calibration samples on each side of a cell that set its scale
#: (about one second of run).
CALIBRATION_WINDOW = 4

#: Measurement fields checked against the reference; none of them
#: depends on the cipher's output values.
CHECKED_FIELDS = (
    "cycles", "instructions", "exit_code", "crypto_ops",
    "clb_hit_ratio", "clb_dec_hit_ratio",
)


def _suite(name: str):
    from repro.bench.workloads import lmbench, spec

    module, scale = SUITES[name]
    return {"lmbench": lmbench, "spec": spec}[module], scale


def cell_key(workload, config) -> str:
    return f"{workload.name}/{config.name}"


def measurement_record(measurement) -> dict:
    return {name: getattr(measurement, name) for name in CHECKED_FIELDS}


class PaperRun:
    """Set-up state and results of one paper-workload run."""

    def __init__(self, name: str, seed: int):
        from repro.kernel import KernelConfig

        self.name = name
        self.suite_module, self.scale = _suite(name)
        configs = KernelConfig.figure5_matrix()
        self.cells = [
            (workload, config)
            for workload in self.suite_module.SUITE
            for config in configs
        ]
        Random(f"perfbench:{name}:{seed}").shuffle(self.cells)
        self.cache = None

    def setup(self) -> None:
        """Build every image and boot one template per distinct build."""
        from repro.kernel import BootCache
        from repro.kernel.api import DEFAULT_MASTER_KEY
        from repro.kernel.build import build_kernel

        self.cache = BootCache(max_templates=None)
        booted = set()
        for workload, config in self.cells:
            # The runner gives each cell the workload's thread count.
            build = dataclasses.replace(
                config, num_threads=workload.num_threads
            )
            if build in booted:
                continue
            booted.add(build)
            image = build_kernel(build, workload.module(self.scale))
            self.cache.machine_for(image, DEFAULT_MASTER_KEY)

    def measure(self, seconds: float, reference: dict, ledger=None,
                on_first_pass=None) -> dict:
        """Run whole passes over the matrix until ``seconds`` have passed.

        Passes are never cut short, so every cell has the same number of
        samples and per-matrix figures are exact.  ``on_first_pass`` is
        called after the first (cold) pass.
        """
        from repro.bench.runner import measure_matrix

        #: (cell key, raw seconds, calibration index) in run order; one
        #: calibration sample is taken just before every cell.
        timed: list[tuple[str, float, int]] = []
        calibration: list[float] = []
        matrix = {}
        attempted = failed = passes = 0
        problems: list[str] = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            for workload, config in self.cells:
                key = cell_key(workload, config)
                calibration.append(calibrate.sample())
                span = ledger.open_span("cell") if ledger else -1
                t0 = time.perf_counter()
                try:
                    result = measure_matrix(
                        [workload], [config], self.scale, self.cache
                    )
                except Exception as error:  # noqa: BLE001 - a failed cell is counted
                    result = None
                    problem = f"{key}: {type(error).__name__}: {error}"
                elapsed = time.perf_counter() - t0
                if ledger:
                    ledger.close_span(span)
                attempted += 1
                if result is not None:
                    measurement = result[(workload.name, config.name)]
                    record = measurement_record(measurement)
                    expected = reference.get(key)
                    if record == expected:
                        timed.append((key, elapsed, len(calibration) - 1))
                        matrix[(workload.name, config.name)] = measurement
                        problem = None
                    else:
                        problem = f"{key}: got {record}, expected {expected}"
                if problem is not None:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(problem)
            passes += 1
            if passes == 1 and on_first_pass is not None:
                on_first_pass()
        samples: dict[str, list[float]] = {
            cell_key(w, c): [] for w, c in self.cells
        }
        raw: dict[str, list[float]] = {key: [] for key in samples}
        for key, elapsed, index in timed:
            window = calibration[
                max(0, index - CALIBRATION_WINDOW):index + CALIBRATION_WINDOW + 1
            ]
            samples[key].append(elapsed * calibrate.factor(window))
            raw[key].append(elapsed)
        return {
            "samples": samples,
            "raw_samples": raw,
            "scale": calibrate.factor(calibration),
            "matrix": matrix,
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "passes": passes,
        }

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, outcome: dict) -> dict:
        """``wall_s``: one typical matrix.  The latencies: the time to
        measure one cell, over every timed cell run of the run."""
        samples = outcome["samples"].values()
        medians = [statistics.median(times) for times in samples if times]
        cells_ms = sorted(t * 1e3 for times in samples for t in times)
        if not cells_ms:
            return {"wall_s": 0.0, "latency_p50_ms": 0.0,
                    "latency_p90_ms": 0.0}
        return {
            "wall_s": sum(medians),
            "latency_p50_ms": statistics.median(cells_ms),
            "latency_p90_ms": percentile(cells_ms, 90),
        }

    def raw_wall(self, outcome: dict) -> float:
        """``wall_s`` before the host-speed scaling."""
        return sum(
            statistics.median(times)
            for times in outcome["raw_samples"].values() if times
        )

    def simulated(self, outcome: dict) -> dict:
        """The model's figures; they repeat exactly for any seed."""
        from repro.bench.overhead import (
            PAPER_FULL_AVERAGE,
            averages,
            overhead_table,
        )

        matrix = outcome["matrix"]
        if len(matrix) != len(self.cells):
            # Some cell never matched its reference; the run is
            # incorrect and there is no matrix to summarise.
            return dict.fromkeys(SIMULATED, 0)
        # Sum in the suite's own order so the float sums, too, are the
        # same for every seed.
        from repro.kernel import KernelConfig

        workloads = [w.name for w in self.suite_module.SUITE]
        configs = [c.name for c in KernelConfig.figure5_matrix()]
        matrix = dict(sorted(matrix.items(), key=lambda item: (
            workloads.index(item[0][0]), configs.index(item[0][1])
        )))
        full = averages(overhead_table(matrix))["full"]
        protected = [m for m in matrix.values() if m.crypto_ops]
        paper = PAPER_FULL_AVERAGE[SUITES[self.name][0]]
        return {
            "sim.cycles": sum(m.cycles for m in matrix.values()),
            "sim.instret": sum(m.instructions for m in matrix.values()),
            "sim.crypto_ops": sum(m.crypto_ops for m in matrix.values()),
            "sim.full_overhead_pct": full,
            "sim.overhead_err_pp": abs(full - paper),
            "clb.dec_hit_ratio": (
                sum(m.clb_dec_hit_ratio for m in protected) / len(protected)
                if protected else 0.0
            ),
        }


def percentile(ordered: list[float], q: float) -> float:
    """The q-th percentile (linear interpolation) of sorted values."""
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]
