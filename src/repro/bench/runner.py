"""Workload execution and measurement.

Cycle accounting excludes boot: measurement starts when the first user
instruction executes (the paper benchmarks steady-state scores, not
kernel bring-up).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.workloads.base import Workload
from repro.errors import ReproError
from repro.kernel import KernelConfig, KernelSession
from repro.kernel.build import build_kernel
from repro.machine import HaltReason


@dataclass(frozen=True)
class Measurement:
    """One workload run under one configuration."""

    workload: str
    config: str
    cycles: int
    instructions: int
    crypto_ops: int
    clb_hit_ratio: float
    clb_dec_hit_ratio: float
    exit_code: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0


#: ``(workload, scale) -> (user Program, user asm)``.  User code is
#: built unprotected whatever the config, so a matrix row links one user
#: build against each config's (cached) kernel side; programs are never
#: mutated after assembly, so sharing them is safe.
_USER_BUILDS: dict[tuple[Workload, float], tuple] = {}


def run_workload(
    workload: Workload,
    config: KernelConfig,
    scale: float = 1.0,
    boot_cache=None,
) -> Measurement:
    """Build, boot and measure one workload under one config.

    Cycle accounting starts at the first user instruction either way, so
    serving the boot from a :class:`~repro.kernel.BootCache` fork does
    not change any reported number — it only skips re-simulating boot.
    """
    import dataclasses

    config = dataclasses.replace(config, num_threads=workload.num_threads)
    user_build = _USER_BUILDS.get((workload, scale))
    if user_build is None:
        image = build_kernel(config, workload.module(scale))
        _USER_BUILDS[(workload, scale)] = (image.user_program, image.user_asm)
    else:
        image = build_kernel(config, user_build=user_build)
    session = KernelSession(config, image=image, boot_cache=boot_cache)
    # Fast-forward boot; measure from the first user instruction.
    reached = session.run_until(
        session.image.user_program.entry, max_steps=workload.max_steps
    )
    if not reached:
        raise ReproError(
            f"{workload.name}/{config.name}: never reached user space"
        )
    start_cycles = session.machine.hart.cycles
    start_instr = session.machine.hart.instret
    session.machine.engine.reset_stats()

    result = session.run(max_steps=workload.max_steps)
    if result.halt_reason is not HaltReason.SHUTDOWN:
        raise ReproError(
            f"{workload.name}/{config.name}: did not finish "
            f"({result.halt_reason})"
        )
    if result.panicked:
        raise ReproError(
            f"{workload.name}/{config.name}: kernel panic "
            f"(cause {result.panic_cause})"
        )
    clb = session.clb_stats
    dec_accesses = clb.dec_hits + clb.dec_misses
    return Measurement(
        workload=workload.name,
        config=config.name,
        cycles=result.cycles - start_cycles,
        instructions=result.instructions - start_instr,
        crypto_ops=session.stats.operations,
        clb_hit_ratio=clb.hit_ratio,
        clb_dec_hit_ratio=(
            clb.dec_hits / dec_accesses if dec_accesses else 0.0
        ),
        exit_code=result.exit_code,
    )


def measure_matrix(
    workloads,
    configs=None,
    scale: float = 1.0,
    boot_cache=None,
) -> dict[tuple[str, str], Measurement]:
    """Measure every workload under every config (one boot per config)."""
    if configs is None:
        configs = KernelConfig.figure5_matrix()
    if boot_cache is None:
        from repro.kernel import BootCache

        boot_cache = BootCache()
    matrix = {}
    for workload in workloads:
        for config in configs:
            measurement = run_workload(workload, config, scale, boot_cache)
            matrix[(workload.name, config.name)] = measurement
    return matrix


def correctness_check(workloads, configs=None, scale: float = 0.2) -> None:
    """Assert every workload computes the same result in every config."""
    if configs is None:
        configs = KernelConfig.figure5_matrix()
    from repro.kernel import BootCache

    boot_cache = BootCache()
    for workload in workloads:
        exit_codes = set()
        for config in configs:
            measurement = run_workload(workload, config, scale, boot_cache)
            exit_codes.add(measurement.exit_code)
        if len(exit_codes) != 1:
            raise ReproError(
                f"{workload.name}: exit codes diverge across configs: "
                f"{sorted(exit_codes)}"
            )
