"""Benchmark harness tests: workloads, runner, overhead math."""

import pytest

from repro.bench.overhead import averages, format_figure, overhead_table
from repro.bench.runner import Measurement, correctness_check, run_workload
from repro.bench.workloads import lmbench, spec, unixbench
from repro.bench.workloads.base import scaled
from repro.kernel import KernelConfig

pytestmark = pytest.mark.slow

ALL_WORKLOADS = unixbench.SUITE + lmbench.SUITE + spec.SUITE


class TestSuites:
    def test_suite_sizes(self):
        assert len(unixbench.SUITE) == 9
        assert len(lmbench.SUITE) == 8
        assert len(spec.SUITE) == 8

    def test_workload_names_unique_per_suite(self):
        for suite in (unixbench.SUITE, lmbench.SUITE, spec.SUITE):
            names = [w.name for w in suite]
            assert len(names) == len(set(names))

    def test_scaled_floor(self):
        assert scaled(100, 0.0) == 2
        assert scaled(100, 0.5) == 50
        assert scaled(3, 10.0) == 30

    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=lambda w: f"{w.suite}:{w.name}"
    )
    def test_every_workload_runs_baseline(self, workload):
        measurement = run_workload(workload, KernelConfig.baseline(), 0.1)
        assert measurement.cycles > 0
        assert measurement.instructions > 0
        assert measurement.crypto_ops == 0

    def test_workload_results_config_independent(self):
        """Spot-check the harness's correctness gate on one workload
        per suite (the figure benches check all of them)."""
        sample = (unixbench.SUITE[0], lmbench.SUITE[2], spec.SUITE[2])
        correctness_check(sample, scale=0.1)

    def test_scale_changes_work(self):
        workload = spec.SUITE[3]  # xz
        small = run_workload(workload, KernelConfig.baseline(), 0.1)
        large = run_workload(workload, KernelConfig.baseline(), 0.4)
        assert large.instructions > small.instructions * 2


class TestMeasurement:
    def test_measurement_excludes_boot(self):
        workload = lmbench.SUITE[0]
        measurement = run_workload(workload, KernelConfig.full(), 0.1)
        # A fresh full boot alone costs thousands of cycles; the
        # measured region must not include a second boot's worth.
        assert measurement.cycles < 60_000

    def test_cpi_positive(self):
        measurement = run_workload(
            unixbench.SUITE[1], KernelConfig.baseline(), 0.1
        )
        assert 1.0 <= measurement.cpi <= 4.0

    def test_full_has_crypto_baseline_does_not(self):
        workload = unixbench.SUITE[7]  # syscall loop
        base = run_workload(workload, KernelConfig.baseline(), 0.1)
        full = run_workload(workload, KernelConfig.full(), 0.1)
        assert base.crypto_ops == 0
        assert full.crypto_ops > 0
        assert full.cycles > base.cycles


class TestUserProgramReuse:
    def test_one_user_build_serves_every_config(self, monkeypatch):
        from repro.bench import runner
        from repro.kernel import BootCache, build

        workload = lmbench.SUITE[1]
        configs = KernelConfig.figure5_matrix()
        cache = BootCache(max_templates=None)

        def uncached(config):
            monkeypatch.setattr(runner, "_USER_BUILDS", {})
            return run_workload(workload, config, 0.1, cache)

        expected = [uncached(config) for config in configs]
        monkeypatch.setattr(runner, "_USER_BUILDS", {})
        calls = []
        original = build.build_user_program

        def counted(user_module):
            calls.append(user_module)
            return original(user_module)

        monkeypatch.setattr(build, "build_user_program", counted)
        measured = [
            run_workload(workload, config, 0.1, cache) for config in configs
        ]
        assert len(calls) == 1
        assert measured == expected
        assert [m.config for m in measured] == [c.name for c in configs]


class TestOverheadMath:
    def _matrix(self):
        def m(workload, config, cycles):
            return Measurement(
                workload, config, cycles, cycles, 0, 0.0, 0.0, 0
            )

        return {
            ("a", "baseline"): m("a", "baseline", 1000),
            ("a", "ra"): m("a", "ra", 1010),
            ("a", "full"): m("a", "full", 1030),
            ("b", "baseline"): m("b", "baseline", 2000),
            ("b", "ra"): m("b", "ra", 2020),
            ("b", "full"): m("b", "full", 2100),
        }

    def test_overhead_table(self):
        rows = overhead_table(self._matrix())
        by_name = {row.workload: row for row in rows}
        assert by_name["a"].get("ra") == pytest.approx(1.0)
        assert by_name["a"].get("full") == pytest.approx(3.0)
        assert by_name["b"].get("full") == pytest.approx(5.0)

    def test_averages(self):
        rows = overhead_table(self._matrix())
        avg = averages(rows)
        assert avg["full"] == pytest.approx(4.0)
        assert avg["ra"] == pytest.approx(1.0)

    def test_format_figure(self):
        rows = overhead_table(self._matrix())
        text = format_figure("Test figure", rows, paper_full_average=2.6)
        assert "Test figure" in text
        assert "average" in text
        assert "2.6%" in text
        assert "FULL" in text
