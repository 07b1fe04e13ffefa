"""The open-loop fleet workload: jobs fall due at one constant rate.

The mix is fixed: the first ``RATE * seconds`` non-fuzz jobs of
``repro.fleet.loadgen.generate_jobs(MIX_SEED, ...)`` (workload runs and
rop/jop attack sessions over the baseline and full kernels).  The run's
seed only shuffles their order, so every run offers the same work.
Fuzz jobs are left out: they are 8% of the loadgen mix but each runs a
whole differential campaign (110-190 ms against 1-8 ms for the rest),
so they carried about 60% of the fleet's work and made every figure
depend on where the seed happened to put them.

One thread drives the fleet through its public API: at each step it
submits every job already due, then calls ``Fleet.drain()``.
``drain()`` blocks until nothing is in flight, so a job that falls due
during a drain is submitted late; that stall is how the service
behaves and it counts: a job's latency is measured from its *due* time
(driver lateness plus the fleet's own ``total_ms``).

Set-up builds every workload image of the mix, boots each kernel
configuration once (what ``python -m repro.fleet loadgen`` prewarms),
serves each distinct job of the mix twice, and then forks the worker
pool from that warm state, so the timed phase starts on warm workers.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from random import Random

import calibrate

#: Offered rate, jobs per second.  Served one drain at a time by two
#: workers, the fleet is inside ``drain()`` for about a quarter of the
#: schedule at this rate, more when the host is loaded.
RATE = 35.0
WORKERS = 2
#: The loadgen seed the fixed mix is drawn from.
MIX_SEED = 0
#: Calibration: ``CALIBRATION_EDGE`` full samples before and after the
#: schedule, and one short sample (``GAP_ITERATIONS`` loop iterations,
#: about 1 ms) after every drain whose gap to the next due job is more
#: than ``CALIBRATION_GAP`` times what a short sample has lately taken.
#: Between drains nothing is in flight, so a sample competes with no
#: job for a core, and it never delays one.  The samples are short so
#: that nearly every gap gets one even when the host is slow: the
#: yardstick then sees the host the way the jobs did, one sample per
#: job.  The run's times are scaled by the mean of all samples; single
#: samples scatter by ±40% on a shared host, too much to scale each
#: job by the few around it.
CALIBRATION_EDGE = 5
GAP_ITERATIONS = calibrate.ITERATIONS // 5
CALIBRATION_GAP = 3.0
#: Recent samples the expected length of the next one is the median of.
CALIBRATION_RECENT = 9

#: Per-layer metrics read from the span export (traced run only).
FLEET_METRICS = (
    "fleet.queue_wait_p50_ms", "fleet.execute_p50_ms", "fleet.fork_p50_ms",
    "fleet.ipc_p50_ms", "fleet.gen_late_p99_ms", "fleet.queue_peak",
)

WORKLOAD_FIELDS = ("halt", "exit_code", "instructions", "cycles", "panicked")
ATTACK_FIELDS = ("attack", "config", "succeeded", "blocked")


def job_key(job: dict) -> str:
    """Reference key of a job's parameters."""
    params = job["params"]
    if job["kind"] == "workload":
        return "/".join((
            params.get("config", "full"),
            params.get("workload", "exit"),
            str(params.get("iterations", 0)),
            str(params.get("code", 42)),
        ))
    return f"{params['attack']}/{params['config']}"


def fixed_mix(count: int) -> list[dict]:
    """The first ``count`` non-fuzz jobs of the loadgen mix."""
    from repro.fleet.loadgen import generate_jobs

    drawn = count
    while True:
        drawn += drawn // 4 + 1
        jobs = [
            job for job in generate_jobs(MIX_SEED, drawn)
            if job["kind"] != "fuzz"
        ]
        if len(jobs) >= count:
            return jobs[:count]


def check_result(job: dict, result: dict | None, reference: dict) -> str | None:
    """Why a result is wrong, or None.  Only fields that do not depend
    on cipher output are compared."""
    if result is None:
        return f"{job['id']}: lost"
    if result.get("status") != "ok":
        return f"{job['id']}: {result.get('status')} {result.get('error')}"
    payload = result.get("payload") or {}
    fields = WORKLOAD_FIELDS if job["kind"] == "workload" else ATTACK_FIELDS
    expected = reference[job["kind"]].get(job_key(job))
    if expected is None:
        return f"{job['id']}: no reference for {job_key(job)}"
    got = {name: payload.get(name) for name in fields}
    if got != expected:
        return f"{job['id']}: got {got}, expected {expected}"
    return None


class FleetRun:
    """Set-up state and results of one open-loop fleet run."""

    def __init__(self, seed: int, seconds: float, spans: bool = False):
        self.jobs = fixed_mix(max(1, round(RATE * seconds)))
        Random(f"perfbench:fleet_open:{seed}").shuffle(self.jobs)
        self.spans = spans
        self.fleet = None

    def setup(self) -> None:
        from repro.fleet import worker as fleet_worker
        from repro.fleet.jobs import JobContext, execute_job
        from repro.fleet.scheduler import Fleet, FleetOptions
        from repro.kernel.api import DEFAULT_MASTER_KEY

        context = JobContext()
        booted = set()
        distinct = {}
        for job in self.jobs:
            distinct.setdefault(job_key(job), job)
            if job["kind"] != "workload":
                continue
            image = context.image_for(job["params"])
            config = job["params"].get("config", "full")
            if config not in booted:
                booted.add(config)
                context.boot_cache.machine_for(image, DEFAULT_MASTER_KEY)
        # Serve each distinct job twice before the pool is forked, so
        # every worker starts warm (built attack images, compiled blocks).
        for _ in range(2):
            for key, job in sorted(distinct.items()):
                status, _, error = execute_job(job, context)
                if status != "ok":
                    raise RuntimeError(f"warm-up {key}: {status} {error}")
        fleet_worker.prewarm(context)
        self.fleet = Fleet(FleetOptions(workers=WORKERS, spans=self.spans))
        self.fleet.start()

    def stop(self) -> None:
        from repro.fleet import worker as fleet_worker

        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
        fleet_worker.prewarm(None)

    def measure(self, reference: dict) -> dict:
        fleet = self.fleet
        jobs = self.jobs
        clock = time.monotonic
        #: Seconds of every calibration sample, scaled to a full loop.
        calibration: list[float] = []

        def calibrate_now(iterations=None):
            calibration.append(calibrate.sample(iterations))

        def short_sample_s() -> float:
            recent = statistics.median(calibration[-CALIBRATION_RECENT:])
            return recent * GAP_ITERATIONS / calibrate.ITERATIONS

        busy = 0.0
        lateness: list[float] = []
        index = 0
        sampled = True
        try:
            for _ in range(CALIBRATION_EDGE):
                calibrate_now()
            start = clock()
            due = [start + number / RATE for number in range(len(jobs))]
            while index < len(jobs):
                now = clock()
                if now < due[index]:
                    if (
                        not sampled
                        and due[index] - now > CALIBRATION_GAP * short_sample_s()
                    ):
                        calibrate_now(GAP_ITERATIONS)
                        sampled = True
                    else:
                        time.sleep(due[index] - now)
                    continue
                while index < len(jobs) and due[index] <= clock():
                    lateness.append(clock() - due[index])
                    fleet.submit(jobs[index])
                    index += 1
                began = clock()
                fleet.drain()
                busy += clock() - began
                sampled = False
            for _ in range(CALIBRATION_EDGE):
                calibrate_now()
            results = dict(fleet.results)
            queue_peak = fleet.queue.peak_depth
            span_doc = fleet.span_export() if self.spans else None
        finally:
            self.stop()
        # ru_maxrss is KiB on Linux.  The workers are the only children
        # waited for so far, so the children figure is the largest
        # worker's peak.
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0
        scale = calibrate.factor(calibration)
        latencies = []
        problems = []
        failed = 0
        for job, late in zip(jobs, lateness):
            result = results.get(job["id"])
            problem = check_result(job, result, reference)
            if problem is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(problem)
                continue
            latencies.append(
                (late * 1e3 + result["timing"]["total_ms"]) * scale
            )
        return {
            "results": results,
            "latencies": sorted(latencies),
            "lateness_ms": sorted(late * 1e3 * scale for late in lateness),
            "busy_s": busy * scale,
            "raw_busy_s": busy,
            "scale": scale,
            "queue_peak": queue_peak,
            "spans": span_doc,
            "attempted": len(jobs),
            "failed": failed,
            "problems": problems,
            "peak_rss_mb": peak_rss_mb,
            "passes": 1,
        }

    def end_to_end(self, outcome: dict) -> dict:
        from paper import percentile

        latencies = outcome["latencies"] or [0.0]
        return {
            "wall_s": outcome["busy_s"],
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 90),
        }

    def raw_wall(self, outcome: dict) -> float:
        return outcome["raw_busy_s"]

    def simulated(self, outcome: dict) -> dict:
        """Sums over the workload jobs' payloads; they repeat exactly."""
        payloads = [
            result["payload"] for result in outcome["results"].values()
            if result.get("kind") == "workload" and result.get("payload")
        ]
        return {
            "sim.cycles": sum(p["cycles"] for p in payloads),
            "sim.instret": sum(p["instructions"] for p in payloads),
        }


def span_metrics(outcome: dict) -> dict:
    """Fleet per-layer figures from the merged span export; times are
    scaled by the run's host-speed factor."""
    from paper import percentile

    by_name: dict[str, list[dict]] = {}
    for span in outcome["spans"].get("spans", []):
        by_name.setdefault(span["name"], []).append(span)

    scale = outcome["scale"]

    def duration_ms(span: dict) -> float:
        return (span["end_us"] - span["start_us"]) / 1e3 * scale

    def p50(name: str) -> float:
        values = [duration_ms(span) for span in by_name.get(name, [])]
        return statistics.median(values) if values else 0.0

    execute_ms = {
        span.get("trace_id"): duration_ms(span)
        for span in by_name.get("execute", [])
    }
    ipc = []
    for batch in by_name.get("batch", []):
        children = sum(
            execute_ms.get(trace_id, 0.0)
            for trace_id in batch.get("attrs", {}).get("trace_ids") or ()
        )
        ipc.append(duration_ms(batch) - children)
    return {
        "fleet.queue_wait_p50_ms": p50("queue.wait"),
        "fleet.execute_p50_ms": p50("execute"),
        "fleet.fork_p50_ms": p50("fork"),
        "fleet.ipc_p50_ms": statistics.median(ipc) if ipc else 0.0,
        "fleet.gen_late_p99_ms": (
            percentile(outcome["lateness_ms"], 99) * scale
        ),
        "fleet.queue_peak": outcome["queue_peak"],
    }


# -- worker-side ledgers (traced run) ------------------------------------------------


def install_worker_dump(ledger, directory: str) -> None:
    """After each batch a worker writes its ledger to ``directory``.

    Installed in the parent before the pool is forked, so every worker
    inherits the wrapped layers and this dump hook; a worker drops its
    inherited (parent) figures before its first batch.
    """
    import functools

    from layers import replace_function

    owner = [os.getpid()]

    def make_wrapper(serve_batch):
        @functools.wraps(serve_batch)
        def wrapper(message, context, worker_id):
            if owner[0] != os.getpid():
                owner[0] = os.getpid()
                ledger.reset()
            results = serve_batch(message, context, worker_id)
            path = os.path.join(directory, f"worker-{os.getpid()}.json")
            with open(path + ".tmp", "w") as handle:
                json.dump(ledger.snapshot(), handle)
            os.replace(path + ".tmp", path)
            return results

        return wrapper

    replace_function("repro.fleet.worker", "serve_batch", make_wrapper)


def read_worker_dumps(directory: str) -> list[dict]:
    """Each worker's latest ledger snapshot."""
    snapshots = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                snapshots.append(json.load(handle))
    return snapshots
