"""BootCache: boot-once-fork-per-scenario session serving."""

from __future__ import annotations

from repro.attacks.base import Attack
from repro.attacks.suite import format_table, run_suite
from repro.compiler.ir import Const
from repro.kernel import BootCache, KernelConfig, KernelSession
from repro.kernel.structs import SYS_EXIT


def _exit_module(code: int):
    def body(b, syscall):
        syscall(SYS_EXIT, Const(code))

    return Attack.user_program(body)


class TestCachedSessions:
    def test_cached_session_matches_fresh_boot(self):
        cache = BootCache()
        for config in (KernelConfig.baseline(), KernelConfig.full()):
            fresh = KernelSession(config, _exit_module(42)).run()
            cached = KernelSession(
                config, _exit_module(42), boot_cache=cache
            ).run()
            assert (fresh.halt_reason, fresh.exit_code, fresh.console,
                    fresh.cycles, fresh.instructions) == (
                cached.halt_reason, cached.exit_code, cached.console,
                cached.cycles, cached.instructions)
        assert cache.boots == 2
        assert cache.forks == 2
        assert cache.fallbacks == 0

    def test_one_boot_per_config_many_sessions(self):
        cache = BootCache()
        config = KernelConfig.full()
        codes = [
            KernelSession(
                config, _exit_module(c), boot_cache=cache
            ).run().exit_code
            for c in (3, 5, 7)
        ]
        assert codes == [3, 5, 7]
        assert cache.boots == 1
        assert cache.forks == 3

    def test_distinct_configs_get_distinct_templates(self):
        cache = BootCache()
        KernelSession(
            KernelConfig.baseline(), _exit_module(1), boot_cache=cache
        )
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        )
        assert cache.boots == 2
        assert len(cache) == 2


class TestSuiteEquivalence:
    def test_suite_byte_identical_and_one_boot_per_config(self):
        cold = run_suite(use_boot_cache=False)
        cache = BootCache()
        warm = run_suite(boot_cache=cache)
        assert format_table(cold) == format_table(warm)
        assert [
            (r.attack, r.config, r.succeeded, r.outcome) for r in cold
        ] == [
            (r.attack, r.config, r.succeeded, r.outcome) for r in warm
        ]
        # One template boot per distinct kernel configuration (the
        # interrupt attack uses its own timer/thread configs).
        assert cache.boots == len(cache)
        assert cache.fallbacks == 0
        assert cache.forks == len(warm)


class TestBenchEquivalence:
    def test_bench_measurement_identical_with_cache(self):
        from repro.bench.runner import run_workload
        from repro.bench.workloads.lmbench import SUITE

        workload = SUITE[0]
        config = KernelConfig.full()
        fresh = run_workload(workload, config, scale=0.1)
        cached = run_workload(
            workload, config, scale=0.1, boot_cache=BootCache()
        )
        assert fresh == cached


class TestBoundedTemplates:
    def test_rejects_nonpositive_bound(self):
        import pytest

        with pytest.raises(ValueError):
            BootCache(max_templates=0)

    def test_evicts_least_recently_used_template(self):
        cache = BootCache(max_templates=2)
        configs = [
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.full(),
        ]
        for config in configs:
            KernelSession(config, _exit_module(1), boot_cache=cache)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.boots == 3
        # The evicted (oldest) config boots again; the retained ones
        # keep serving forks from their templates.
        KernelSession(configs[2], _exit_module(2), boot_cache=cache)
        assert cache.boots == 3
        KernelSession(configs[0], _exit_module(2), boot_cache=cache)
        assert cache.boots == 4
        assert cache.evictions == 2

    def test_hit_refreshes_recency(self):
        cache = BootCache(max_templates=2)
        a, b, c = (
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.full(),
        )
        KernelSession(a, _exit_module(1), boot_cache=cache)
        KernelSession(b, _exit_module(1), boot_cache=cache)
        KernelSession(a, _exit_module(2), boot_cache=cache)  # refresh a
        KernelSession(c, _exit_module(1), boot_cache=cache)  # evicts b
        KernelSession(a, _exit_module(3), boot_cache=cache)
        assert cache.boots == 3  # a never re-booted
        assert cache.evictions == 1

    def test_unbounded_mode_never_evicts(self):
        cache = BootCache(max_templates=None)
        for config in (
            KernelConfig.baseline(), KernelConfig.ra_only(),
            KernelConfig.fp_only(), KernelConfig.noncontrol_only(),
            KernelConfig.full(),
        ):
            KernelSession(config, _exit_module(1), boot_cache=cache)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_stats_and_metrics_gauges(self):
        from repro.telemetry.metrics import MetricsRegistry

        cache = BootCache(max_templates=1)
        KernelSession(
            KernelConfig.baseline(), _exit_module(1), boot_cache=cache
        )
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        )
        stats = cache.stats()
        assert stats == {
            "templates": 1, "max_templates": 1, "boots": 2,
            "forks": 2, "fallbacks": 0, "evictions": 1,
            "layout_tables": 2,
        }
        registry = MetricsRegistry()
        cache.publish_metrics(registry)
        gauges = registry.to_json()["gauges"]
        assert gauges["bootcache.templates"] == 1
        assert gauges["bootcache.boots"] == 2
        assert gauges["bootcache.forks"] == 2
        assert gauges["bootcache.evictions"] == 1
        assert "bootcache.max_templates" not in gauges


class TestSharedLayouts:
    def test_forks_share_block_layouts(self):
        cache = BootCache()
        config = KernelConfig.full()
        first = KernelSession(config, _exit_module(1), boot_cache=cache)
        first.run()
        assert first.machine.hart.layout_hits == 0
        second = KernelSession(config, _exit_module(2), boot_cache=cache)
        result = second.run()
        assert result.exit_code == 2
        # The kernel-path translations were adopted, not redone.
        assert second.machine.hart.layout_hits > 0

    def test_layout_adoption_preserves_architectural_state(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        digests = set()
        for use_cache in (False, True, True):
            cache = BootCache() if use_cache else None
            session = KernelSession(
                config, _exit_module(9), boot_cache=cache
            )
            if use_cache:
                # Populate layouts with a sibling first, so the tested
                # session runs through the adoption path.
                KernelSession(
                    config, _exit_module(9), boot_cache=cache
                ).run()
            session.run()
            digests.add(state_digest(session.machine))
        assert len(digests) == 1

    def test_stale_layouts_rejected_by_byte_comparison(self):
        cache = BootCache()
        config = KernelConfig.full()
        # Different user programs at the same addresses: the second
        # session must not adopt the first's user-code layouts.
        a = KernelSession(config, _exit_module(1), boot_cache=cache)
        assert a.run().exit_code == 1
        b = KernelSession(config, _exit_module(2), boot_cache=cache)
        assert b.run().exit_code == 2

    def test_layout_tables_survive_template_eviction(self):
        # Eviction used to drop the shared layout table with the
        # template, orphaning live sibling forks mid-flight and
        # throwing away every translation when the same config
        # re-booted.  Tables now outlive templates (bounded separately
        # by MAX_LAYOUT_TABLES).
        cache = BootCache(max_templates=1)
        first = KernelSession(
            KernelConfig.baseline(), _exit_module(11), boot_cache=cache
        ).run()
        KernelSession(
            KernelConfig.full(), _exit_module(1), boot_cache=cache
        ).run()
        assert cache.evictions == 1
        assert cache.stats()["layout_tables"] == 2
        # The evicted config re-boots into the retained table and
        # still serves byte-identical sessions.
        again = KernelSession(
            KernelConfig.baseline(), _exit_module(11), boot_cache=cache
        ).run()
        assert cache.boots == 3
        assert (first.exit_code, first.console, first.instructions) == (
            again.exit_code, again.console, again.instructions)

    def test_layout_tables_are_bounded(self):
        from repro.kernel.bootcache import MAX_LAYOUT_TABLES

        cache = BootCache(max_templates=2)
        cache._layouts.update(
            ((f"fake{i}",), {}) for i in range(MAX_LAYOUT_TABLES + 3)
        )
        cache._trim_tables()
        assert len(cache._layouts) == MAX_LAYOUT_TABLES


def _loop_module(shift: int):
    """A loop hot enough to compile; ``shift`` is encoded in its body."""
    from repro.bench.workloads.base import make_user_module

    def body(lb):
        b = lb.b
        acc = lb.accumulate()

        def iteration(lb2, i):
            b = lb2.b
            lb2.add_into(acc, b.xor(i, b.shr(acc, shift)))

        lb.loop(400, iteration)
        lb.exit(b.and_(acc, 0xFF))

    return make_user_module(body)


def _compiled_user_blocks(session) -> dict:
    """``entry_pc -> compiled code object`` of the user-mode blocks."""
    return {
        pc: block.compiled.__code__
        for (pc, privilege), block
        in session.machine.hart.blocks._blocks.items()
        if privilege == 0 and block.compiled is not None
    }


class TestSharedCompiledCode:
    """The first fork to compile a block leaves its code on the shared
    layout; siblings with the same bytes rebind it, others recompile."""

    def test_sibling_binds_compiled_code_exactly(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        cache = BootCache()
        first = KernelSession(config, _loop_module(3), boot_cache=cache)
        first.run()
        first_code = _compiled_user_blocks(first)
        assert first_code, "the loop never reached the compile threshold"
        assert first.machine.hart.code_binds == 0

        second = KernelSession(config, _loop_module(3), boot_cache=cache)
        second.run()
        hart = second.machine.hart
        assert hart.code_binds > 0
        assert hart.compiled_blocks < first.machine.hart.compiled_blocks
        second_code = _compiled_user_blocks(second)
        for pc, code in first_code.items():
            assert second_code[pc] is code
        fresh = KernelSession(config, _loop_module(3))
        fresh.run()
        assert state_digest(second.machine) == state_digest(fresh.machine)

    def test_sibling_with_different_bytes_recompiles(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        cache = BootCache()
        first = KernelSession(config, _loop_module(3), boot_cache=cache)
        first.run()
        first_code = _compiled_user_blocks(first)
        # Same shape, different shift immediate in the loop body: the
        # loop sits at the same PC with different bytes.
        other = KernelSession(config, _loop_module(5), boot_cache=cache)
        other.run()
        other_code = _compiled_user_blocks(other)
        assert other.machine.hart.compiled_blocks > 0
        for pc, code in first_code.items():
            span = 4 * len(first.machine.hart.blocks.peek((pc, 0)).ops)
            assert (
                first.machine.memory.read_bytes(pc, span)
                != other.machine.memory.read_bytes(pc, span)
            )
            assert other_code[pc] is not code
        fresh = KernelSession(config, _loop_module(5))
        fresh.run()
        assert state_digest(other.machine) == state_digest(fresh.machine)


class TestLayoutVariants:
    """One shared-table key keeps a variant per distinct byte sequence
    forks have run there, so siblings running different programs at the
    same addresses stop re-translating and recompiling each other's
    code."""

    def test_alternating_programs_compile_nothing_once_warm(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        fresh = {}
        for shift in (3, 5):
            session = KernelSession(config, _loop_module(shift))
            session.run()
            fresh[shift] = state_digest(session.machine)
        cache = BootCache()
        for shift in (3, 5):
            KernelSession(config, _loop_module(shift), boot_cache=cache).run()
        for shift in (3, 5, 3, 5):
            session = KernelSession(
                config, _loop_module(shift), boot_cache=cache
            )
            session.run()
            hart = session.machine.hart
            assert hart.compiled_blocks == 0
            assert hart.code_binds > 0
            assert hart.layout_rejects == 0
            assert state_digest(session.machine) == fresh[shift]

    def test_full_key_drops_the_oldest_variant(self, monkeypatch):
        from repro.machine import blockcache
        from repro.machine.compare import state_digest

        monkeypatch.setattr(blockcache, "MAX_LAYOUT_VARIANTS", 2)
        config = KernelConfig.full()
        cache = BootCache()
        sessions = {}
        for shift in (3, 5, 7):
            sessions[shift] = KernelSession(
                config, _loop_module(shift), boot_cache=cache
            )
            sessions[shift].run()
        table = sessions[7].machine.hart.shared_layouts
        loop_keys = [(pc, 0) for pc in _compiled_user_blocks(sessions[3])]
        for key in loop_keys:
            assert len(table[key]) == 2
        assert table.layouts == sum(len(v) for v in table.values())
        # The shift-3 variants were dropped: that program translates
        # and compiles its loop again, exactly.
        again = KernelSession(config, _loop_module(3), boot_cache=cache)
        again.run()
        assert again.machine.hart.layout_rejects > 0
        assert again.machine.hart.compiled_blocks > 0
        fresh = KernelSession(config, _loop_module(3))
        fresh.run()
        assert state_digest(again.machine) == state_digest(fresh.machine)
        for key in loop_keys:
            assert len(table[key]) == 2

    def test_overwritten_code_matches_no_variant(self):
        from repro.machine.compare import state_digest

        config = KernelConfig.full()
        cache = BootCache()
        for shift in (3, 5):
            KernelSession(config, _loop_module(shift), boot_cache=cache).run()
        # Patch the fork's loop with the word that encodes shift 7, so
        # its bytes match neither shared variant.
        patch = _first_difference(_loop_module(3), _loop_module(7))
        sessions = []
        for boot_cache in (cache, None):
            session = KernelSession(
                config, _loop_module(3), boot_cache=boot_cache
            )
            session.machine.memory.write_bytes(*patch)
            session.run()
            sessions.append(session)
        forked, fresh = sessions
        assert forked.machine.hart.layout_rejects > 0
        assert forked.machine.hart.compiled_blocks > 0
        assert state_digest(forked.machine) == state_digest(fresh.machine)


def _first_difference(module_a, module_b) -> tuple[int, bytes]:
    """``(address, word)``: the first user-text word of ``module_b``
    that differs from ``module_a``'s."""
    from repro.kernel.build import build_user_program

    text_a = build_user_program(module_a)[0].sections[".text"]
    text_b = build_user_program(module_b)[0].sections[".text"]
    for offset in range(0, len(text_a.data), 4):
        word = bytes(text_b.data[offset:offset + 4])
        if bytes(text_a.data[offset:offset + 4]) != word:
            return text_a.base + offset, word
    raise AssertionError("the modules assemble to the same text")
