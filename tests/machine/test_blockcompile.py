"""Compiled-tier tests: codegen equivalence, chaining, invalidation.

The third execution tier compiles translated blocks into specialized
Python functions and direct-chains stable branch targets.  Its contract
is identical to the block interpreter's: bit-identical architectural
state — registers, memory, CSRs, pc, privilege, cycles, instret — versus
single-stepping, under every invalidation rule PR-1 established (SMC,
privilege keying, CSR termination, timer deadlines).
"""

from __future__ import annotations

import pytest

from repro.isa import assemble, csrdefs
from repro.machine.blockcompile import compile_block
from repro.machine.compare import architectural_state, diff_states
from repro.machine.csr import MIP_MTIP
from repro.utils.bits import MASK64
from tests.conftest import HALT, machine_with_keys


def run_tiers(source: str, max_steps: int = 1_000_000):
    """Run a snippet single-stepped and through the compiled tier.

    The compiled machine uses threshold 1 so *every* translated block is
    compiled on first execution — the harshest setting for codegen bugs.
    """
    program = assemble(source)
    step = machine_with_keys(program)
    step.run(max_steps, fast=False)
    compiled = machine_with_keys(program)
    compiled.hart.compile_threshold = 1
    compiled.run(max_steps, fast=True)
    return step, compiled


def assert_equivalent(step, compiled) -> None:
    diffs = diff_states(
        architectural_state(step), architectural_state(compiled)
    )
    assert not diffs, "compiled tier diverged:\n" + "\n".join(diffs)


class TestCompiledEquivalence:
    def test_hot_loop_compiles_and_matches(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 200
    li s2, 0
loop:
    slli t0, s0, 2
    xor s2, s2, t0
    mulw t1, s0, s0
    add s2, s2, t1
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.compiled_blocks > 0

    def test_memory_traffic(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 64
    li s3, 0x08000000
loop:
    slli t0, s0, 3
    add t1, s3, t0
    sd s0, 0(t1)
    lw t2, 0(t1)
    lb t3, 1(t1)
    lhu t4, 2(t1)
    add s2, s2, t2
    add s2, s2, t3
    add s2, s2, t4
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_signed_arithmetic_edge_cases(self):
        step, compiled = run_tiers(f"""
_start:
    li a0, -1
    li a1, 0x7FFFFFFFFFFFFFFF
    li s0, 0
    li s1, 32
loop:
    sra t0, a1, s0
    srai t1, a0, 7
    slt t2, a0, a1
    sltu t3, a0, a1
    divw t4, a1, a0
    remw t5, a1, a0
    add s2, s2, t0
    add s2, s2, t2
    add s2, s2, t3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_trap_mid_compiled_block(self):
        # The load targets unmapped space, so every loop iteration takes
        # a load-access-fault out of the middle of a compiled block.
        step, compiled = run_tiers(f"""
_start:
    la t0, handler
    csrrw x0, mtvec, t0
    li s0, 0
    li s1, 20
loop:
    li a1, 0x40000000
    ld a2, 0(a1)
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
handler:
    csrrs a3, mepc, x0
    addi a3, a3, 4
    csrrw x0, mepc, a3
    addi s3, s3, 1
    mret
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.regs.by_name("s3") == 20

    def test_csr_in_loop(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 30
loop:
    csrrs t0, cycle, x0
    csrrs t1, instret, x0
    add s2, s2, t0
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        assert_equivalent(step, compiled)

    def test_crypto_ops_in_loop(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 25
    li a0, 0x123456789ABCDEF0
loop:
    add t1, a0, s0
    creak a1, t1[7:0], s0
    crdak a2, a1, s0, [7:0]
    bne a2, t1, _bad
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
_bad:
    li t0, 0x5555
    li t1, 0x02010000
    sw t0, 0(t1)
""")
        assert_equivalent(step, compiled)
        assert compiled.engine.stats.encryptions == 25

    def test_jalr_function_calls(self):
        step, compiled = run_tiers(f"""
_start:
    li s0, 0
    li s1, 40
loop:
    la t0, helper
    jalr ra, 0(t0)
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
helper:
    addi s2, s2, 5
    ret
""")
        assert_equivalent(step, compiled)

    def test_kernel_boot_protected(self):
        from repro.kernel.api import KernelSession
        from repro.kernel.config import KernelConfig

        config = KernelConfig.full(num_threads=2)
        results = {}
        for tier in ("step", "compiled"):
            session = KernelSession(config)
            session.machine.fast_path = tier == "compiled"
            if tier == "compiled":
                session.machine.hart.compile_threshold = 1
            results[tier] = (
                session.run(),
                architectural_state(session.machine),
                session.machine.hart.compiled_blocks,
            )
        step_result, step_state, _ = results["step"]
        fast_result, fast_state, compiled_blocks = results["compiled"]
        assert step_result == fast_result
        diffs = diff_states(step_state, fast_state)
        assert not diffs, "compiled boot diverged:\n" + "\n".join(diffs)
        assert compiled_blocks > 0


class TestChaining:
    def _hot_loop(self, compile_threshold=1):
        program = assemble(f"""
_start:
    li s0, 0
    li s1, 100
loop:
    addi s2, s2, 3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        machine = machine_with_keys(program)
        machine.hart.compile_threshold = compile_threshold
        return machine

    def test_links_populated(self):
        # A two-block loop: the head branches forward to a tail block
        # that branches back, so both edges are chain links (a block
        # that branches to its own entry loops in place instead).
        program = assemble(f"""
_start:
    li s0, 0
    li s1, 100
loop:
    addi s2, s2, 3
    addi s0, s0, 1
    bge s0, zero, tail
    addi s2, s2, 100
tail:
    addi s3, s3, 1
    blt s0, s1, loop
{HALT}
""")
        machine = machine_with_keys(program)
        machine.hart.compile_threshold = 1
        machine.run(10_000, fast=True)
        hart = machine.hart
        assert hart.regs.by_name("s2") == 300
        linked = [
            block for (_, block) in [
                (k, hart.blocks.peek(k)) for k in list(hart.blocks._blocks)
            ] if block is not None and block.links
        ]
        assert linked, "no chain links recorded on a two-block loop"
        for block in linked:
            assert len(block.links) <= hart._MAX_CHAIN_LINKS
            for epoch, target in block.links.values():
                assert epoch == hart.blocks.epoch
                assert target.compiled is not None

    def test_stale_links_not_followed_after_smc(self):
        # Self-modifying store into a block that was already a chain
        # target: the epoch bump must prevent the stale compiled body
        # from running (x8 would come out wrong if it did).
        step, compiled = run_tiers(f"""
_start:
    la x20, loop
    li x5, 0
    li x6, 10
    li x8, 0
loop:
    addi x5, x5, 1
    addi x8, x8, 2
    li x9, 6
    bne x5, x9, tail
    lui x21, 8256
    addi x21, x21, 1043
    sw x21, 28(x20)
tail:
    addi x8, x8, 1
    addi x8, x8, 1
    blt x5, x6, loop
{HALT}
""")
        assert_equivalent(step, compiled)
        assert compiled.hart.blocks.invalidated_blocks > 0

    def test_threshold_gates_compilation(self):
        machine = self._hot_loop(compile_threshold=1_000_000)
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks == 0

        machine = self._hot_loop(compile_threshold=4)
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks > 0

    def test_compile_disabled_falls_back(self):
        machine = self._hot_loop()
        machine.hart.compile_enabled = False
        machine.run(10_000, fast=True)
        assert machine.hart.compiled_blocks == 0


class TestSelfLoop:
    """A block whose terminal branch targets its own entry loops inside
    its generated function; every way out must leave the state that
    single-stepping leaves."""

    # Prologue: 4 instructions; loop body: 5 instructions.
    LOOP = f"""
_start:
    li s0, 0
    li s1, 50
    la s3, buf
loop:
    sd s0, 0(s3)
    addi s3, s3, 8
    addi s0, s0, 1
    add s2, s2, s0
    blt s0, s1, loop
    add a0, s2, s0
{HALT}
.data
.align 3
buf:
    .zero 512
"""

    @pytest.mark.parametrize("max_steps", range(4 + 5 * 3, 4 + 5 * 5))
    def test_step_limit_at_every_residue(self, max_steps):
        step, compiled = run_tiers(self.LOOP, max_steps)
        assert compiled.hart.instret == max_steps
        assert_equivalent(step, compiled)

    def test_fall_through_exit(self):
        step, compiled = run_tiers(self.LOOP)
        assert_equivalent(step, compiled)
        # sum(1..50) + 50, computed after the loop falls through.
        assert compiled.hart.regs.by_name("a0") == 1325

    def test_one_call_runs_the_whole_loop(self):
        program = assemble(self.LOOP)
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        loop_pc = program.symbol("loop")
        assert machine.run_until(loop_pc)
        block = hart._translate(loop_pc, (loop_pc, hart.privilege))
        fn = compile_block(hart, block)
        retired = hart._run_compiled(block, fn, 10_000, MASK64)
        assert retired == 50 * len(block.ops) > len(block.ops)
        assert hart.pc == loop_pc + 4 * len(block.ops)
        assert not block.links

    # Timer armed 40 cycles ahead with MTIE on but mstatus.MIE off in
    # machine mode: the loop crosses the deadline with the interrupt
    # masked, so MTIP must read back as pending.
    MASKED_TIMER = f"""
_start:
    csrr t0, cycle
    addi t0, t0, 40
    li t1, 0x02004000
    sd t0, 0(t1)
    li t2, 128
    csrs mie, t2
    li s0, 0
    li s1, 30
loop:
    addi s0, s0, 1
    addi s2, s2, 3
    xor s3, s3, s2
    blt s0, s1, loop
    csrr a0, mip
{HALT}
"""

    def test_masked_timer_crossing_then_mip_read(self):
        step, compiled = run_tiers(self.MASKED_TIMER)
        assert_equivalent(step, compiled)
        assert compiled.hart.regs.by_name("a0") & MIP_MTIP

    @pytest.mark.parametrize("max_steps", range(40, 60))
    def test_masked_timer_crossing_then_step_limit(self, max_steps):
        # The run stops mid-loop after the crossing: MTIP must already
        # be set, as it is between single steps.
        step, compiled = run_tiers(self.MASKED_TIMER, max_steps)
        assert_equivalent(step, compiled)

    # Stores go to ``buf`` on every iteration but the seventh, which
    # stores to ``s4`` instead (``t0`` is 1 only when s0 == 7).
    SELECTED_STORE = """
_start:
{setup}
    la s3, buf
    sub s5, s4, s3
    li s0, 0
    li s1, 20
loop:
    addi s0, s0, 1
    xori t0, s0, 7
    sltiu t0, t0, 1
    mul t1, t0, s5
    add t1, t1, s3
    {store}
{after}
    blt s0, s1, loop
{halt}
.data
.align 3
buf:
    .zero 64
"""

    def test_device_store_mid_loop(self):
        step, compiled = run_tiers(self.SELECTED_STORE.format(
            setup="    li s4, 0x10000000",
            store="sb s0, 0(t1)",
            after="",
            halt=HALT,
        ))
        assert_equivalent(step, compiled)
        assert compiled.uart.output == bytes([7])

    def test_store_into_own_code_page(self):
        # On iteration 7 the store rewrites the ``addi s2, s2, 1`` that
        # follows it into ``addi s2, s2, 5`` (word 0x00590913), which
        # must take effect in that same iteration.
        step, compiled = run_tiers(self.SELECTED_STORE.format(
            setup="    la s4, patch\n    li s6, 0x00590913",
            store="sw s6, 0(t1)",
            after="patch:\n    addi s2, s2, 1",
            halt=HALT,
        ))
        assert_equivalent(step, compiled)
        assert compiled.hart.regs.by_name("s2") == 6 * 1 + 14 * 5
        assert compiled.hart.blocks.invalidated_blocks > 0


def run_tier(program, tier: int, max_steps: int):
    """Run ``program`` single-stepped (tier 1), on the block interpreter
    (tier 2) or with every block compiled (tier 3)."""
    machine = machine_with_keys(program)
    if tier == 2:
        machine.hart.compile_enabled = False
    elif tier == 3:
        machine.hart.compile_threshold = 1
    machine.run(max_steps, fast=tier > 1)
    return machine


class TestMaskedTimerInsideBlock:
    """A masked timer (MTIE on, mstatus.MIE off) crossing mtimecmp
    inside a straight-line block: however the run goes on — it stops,
    reads ``mip`` or powers off — MIP must be what the step loop's
    per-instruction refresh leaves."""

    ARM = """
_start:
    csrr t0, cycle
    addi t0, t0, {ahead}
    li t1, 0x02004000
    sd t0, 0(t1)
    li t2, 128
    csrs mie, t2
"""
    ADDIS = "\n".join(["    addi s2, s2, 1"] * 20)

    # Arming takes 6 instructions; the loop block is 20 addi plus j.
    LOOP = ARM.format(ahead=20) + f"loop:\n{ADDIS}\n    j loop\n"

    @pytest.mark.parametrize("tier", (2, 3))
    @pytest.mark.parametrize("max_steps", range(6, 6 + 21 * 3))
    def test_step_budget_ends_after_the_crossing(self, tier, max_steps):
        program = assemble(self.LOOP)
        step = run_tier(program, 1, max_steps)
        assert step.hart.instret == max_steps
        assert_equivalent(step, run_tier(program, tier, max_steps))

    @pytest.mark.parametrize("tier", (2, 3))
    @pytest.mark.parametrize("ahead", (12, 16, 20))
    def test_mip_read_at_block_end(self, tier, ahead):
        program = assemble(
            self.ARM.format(ahead=ahead)
            + f"{self.ADDIS}\n    csrr a0, mip\n{HALT}"
        )
        step = run_tier(program, 1, 10_000)
        assert step.hart.regs.by_name("a0") & MIP_MTIP
        assert_equivalent(step, run_tier(program, tier, 10_000))

    @pytest.mark.parametrize("tier", (2, 3))
    @pytest.mark.parametrize("ahead", (12, 18, 24))
    def test_power_off_at_block_end(self, tier, ahead):
        program = assemble(
            self.ARM.format(ahead=ahead)
            + "    li t0, 0x5555\n    li t1, 0x02010000\n"
            + f"{self.ADDIS}\n    sw t0, 0(t1)\n"
        )
        step = run_tier(program, 1, 10_000)
        assert step.hart.csrs.raw_read(csrdefs.MIP) & MIP_MTIP
        assert_equivalent(step, run_tier(program, tier, 10_000))


class TestTelemetryInteraction:
    def test_tracer_forces_tier_two(self):
        # With a tracer attached the per-instruction dispatch handlers
        # are wrapped; the compiled tier would bypass them, so it must
        # stand down while instrumentation is active.
        from repro.telemetry.bus import TraceBus
        from repro.telemetry.events import INSN_RETIRE

        program = assemble(f"""
_start:
    li s0, 0
    li s1, 100
loop:
    addi s2, s2, 3
    addi s0, s0, 1
    blt s0, s1, loop
{HALT}
""")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        bus = TraceBus()
        retired = []
        bus.subscribe(INSN_RETIRE, lambda ins, pc: retired.append(pc))
        hart.attach_tracer(bus)
        machine.run(10_000, fast=True)
        hart.detach_tracer()
        assert hart.compiled_blocks == 0
        assert len(retired) == machine.hart.instret


class TestCompileBlockDirect:
    def test_compiled_function_installed(self):
        program = assemble(f"""
_start:
    li s0, 7
    addi s0, s0, 1
{HALT}
""")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        machine.run(100, fast=True)
        blocks = [
            hart.blocks.peek(key) for key in list(hart.blocks._blocks)
        ]
        assert any(
            b is not None and b.compiled is not None for b in blocks
        )

    def test_compile_failure_marks_block(self):
        # Force the unsupported path by handing compile_block a block
        # with a mnemonic the codegen does not know.
        program = assemble(f"_start:\n    addi x1, x0, 1\n{HALT}")
        machine = machine_with_keys(program)
        hart = machine.hart
        hart.compile_threshold = 1
        machine.run(100, fast=True)
        block = next(
            b for b in (
                hart.blocks.peek(k) for k in list(hart.blocks._blocks)
            ) if b is not None
        )
        handler, ins = block.ops[0]

        class Odd:
            mnemonic = "unknown.op"

        class FakeBlock:
            entry_pc = block.entry_pc
            ops = ((handler, Odd()),)
            privilege = block.privilege
            compile_failed = False
            compiled = None

        fake_block = FakeBlock()
        assert compile_block(hart, fake_block) is None
        assert fake_block.compile_failed
