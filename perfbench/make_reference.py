"""Regenerate ``reference.json``, the outputs every run is checked against.

    python3 perfbench/make_reference.py

Run from the root of a checkout.  For every (workload, build) cell of
the paper workloads it stores the fields of
``repro.bench.runner.Measurement`` that do not depend on cipher output;
for every distinct job of the fleet mix (enough for runs of up to
``FLEET_SECONDS``) the result fields that do not.  Regenerate only when
the simulated model is meant to change, and say so in the change that
does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fleet  # noqa: E402
from paper import SUITES, PaperRun, cell_key, measurement_record  # noqa: E402

#: The longest ``--seconds`` the fleet reference covers.
FLEET_SECONDS = 60


def reference() -> dict:
    from repro.bench.runner import measure_matrix

    out = {}
    for name, (suite, scale) in SUITES.items():
        run = PaperRun(name, seed=0)
        run.setup()
        cells = {}
        for workload, config in run.cells:
            result = measure_matrix([workload], [config], scale, run.cache)
            measurement = result[(workload.name, config.name)]
            cells[cell_key(workload, config)] = measurement_record(measurement)
        out[name] = {
            "suite": suite,
            "scale": scale,
            "cells": dict(sorted(cells.items())),
        }
    out["fleet_open"] = fleet_reference()
    return out


def fleet_reference() -> dict:
    from repro.fleet.jobs import JobContext, execute_job

    context = JobContext()
    out = {"workload": {}, "attack": {}}
    for job in fleet.fixed_mix(round(fleet.RATE * FLEET_SECONDS)):
        table = out[job["kind"]]
        key = fleet.job_key(job)
        if key in table:
            continue
        status, payload, error = execute_job(job, context)
        if status != "ok":
            raise SystemExit(f"{job['id']}: {status} {error}")
        fields = (
            fleet.WORKLOAD_FIELDS if job["kind"] == "workload"
            else fleet.ATTACK_FIELDS
        )
        table[key] = {name: payload[name] for name in fields}
    return {kind: dict(sorted(table.items())) for kind, table in out.items()}


def main() -> None:
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
