"""The deterministic parallel substrate: same bytes at every --jobs.

The acceptance gate for the whole evalx refactor is byte-identity:
``run_all`` (and every section underneath it) must produce the same
report text serial, parallel, and cached.  These tests pin that down
at three levels -- the cell pool, one real section, and the full fast
report.
"""

import pickle
import sys

import pytest

from repro.evalx.learning_curve import plan_learning_curve
from repro.evalx.parallel import (
    Cell,
    Section,
    WorkerPool,
    cell_seed,
    run_cells,
    run_section,
    run_sections,
)
from repro.evalx.runner import build_sections, run_all, write_report
from repro.fleet import FleetSpec, run_fleet


def _square(value):
    return value * value


def _pair(left, right):
    return (left, right)


def _boom(value):
    raise RuntimeError(f"cell {value} exploded")


def _touch(directory, index):
    """Leave a sentinel proving this cell actually executed."""
    import pathlib

    pathlib.Path(directory, f"ran-{index}").write_text("x")
    return index


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed("sweep", 3, 0) == cell_seed("sweep", 3, 0)

    def test_distinct_across_cells(self):
        seeds = {cell_seed("sweep", index, 0) for index in range(50)}
        assert len(seeds) == 50

    def test_distinct_across_sweeps(self):
        assert cell_seed("alpha", 0, 0) != cell_seed("epsilon", 0, 0)

    def test_distinct_across_base_seeds(self):
        assert cell_seed("sweep", 0, 0) != cell_seed("sweep", 0, 1)


class TestRunCells:
    def test_results_in_submission_order(self):
        cells = [Cell(_square, (n,)) for n in range(8)]
        results, _ = run_cells(cells)
        assert results == [n * n for n in range(8)]

    def test_parallel_matches_serial(self):
        cells = [Cell(_square, (n,)) for n in range(8)]
        serial, _ = run_cells(cells, jobs=1)
        parallel, _ = run_cells(cells, jobs=2)
        assert parallel == serial

    def test_kwargs_pass_through(self):
        results, _ = run_cells([Cell(_pair, (1,), {"right": 2})])
        assert results == [(1, 2)]

    def test_per_cell_timing_is_nonnegative(self):
        cells = [Cell(_square, (n,)) for n in range(3)]
        _, seconds = run_cells(cells)
        assert len(seconds) == len(cells)
        assert all(elapsed >= 0.0 for elapsed in seconds)


class TestBoundedSubmission:
    """run_cells must not submit everything eagerly (fleet scale)."""

    def test_explicit_window_preserves_order(self):
        cells = [Cell(_square, (n,)) for n in range(10)]
        results, _ = run_cells(cells, jobs=2, window=2)
        assert results == [n * n for n in range(10)]

    def test_error_propagates_inline(self):
        with pytest.raises(RuntimeError, match="cell 1 exploded"):
            run_cells([Cell(_square, (0,)), Cell(_boom, (1,))], jobs=1)

    def test_error_propagates_parallel(self):
        cells = [Cell(_boom, (n,)) for n in range(4)]
        with pytest.raises(RuntimeError, match="exploded"):
            run_cells(cells, jobs=2, window=2)

    def test_failure_cancels_unsubmitted_cells(self, tmp_path):
        """Cells beyond the window never run once a cell has failed.

        With ``window=2`` at most cells 1 and 2 can be in flight when
        cell 0's failure is observed; cells from index 3 on must never
        have been submitted, so their sentinels cannot exist.
        """
        window = 2
        cells = [Cell(_boom, (0,))] + [
            Cell(_touch, (str(tmp_path), index)) for index in range(1, 30)
        ]
        with pytest.raises(RuntimeError, match="cell 0 exploded"):
            run_cells(cells, jobs=2, window=window)
        for index in range(window + 1, 30):
            assert not (tmp_path / f"ran-{index}").exists()

    def test_windowed_matches_inline(self):
        cells = [Cell(_square, (n,)) for n in range(9)]
        inline, _ = run_cells(cells, jobs=1)
        windowed, _ = run_cells(cells, jobs=3, window=3)
        assert windowed == inline


class TestWorkerPool:
    def test_pool_reused_across_waves(self):
        with WorkerPool(2) as pool:
            first, _ = run_cells(
                [Cell(_square, (n,)) for n in range(4)], jobs=2, pool=pool
            )
            executor = pool.executor()
            second, _ = run_cells(
                [Cell(_square, (n,)) for n in range(4, 8)], jobs=2, pool=pool
            )
            assert pool.executor() is executor
        assert first == [0, 1, 4, 9]
        assert second == [16, 25, 36, 49]

    def test_lazy_pool_never_forks_for_inline_runs(self):
        with WorkerPool(4) as pool:
            results, _ = run_cells(
                [Cell(_square, (n,)) for n in range(3)], jobs=1, pool=pool
            )
            assert pool._executor is None
        assert results == [0, 1, 4]

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.executor()
        pool.close()
        pool.close()

    def test_pool_survives_a_failed_wave(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError):
                run_cells(
                    [Cell(_boom, (n,)) for n in range(3)], jobs=2, pool=pool
                )
            results, _ = run_cells(
                [Cell(_square, (n,)) for n in range(3)], jobs=2, pool=pool
            )
        assert results == [0, 1, 4]


class TestRunSections:
    def test_merge_sees_section_cells_only(self):
        sections = [
            Section("a", [Cell(_square, (n,)) for n in (1, 2)], list),
            Section("b", [Cell(_square, (n,)) for n in (3,)], list),
        ]
        assert run_sections(sections) == [[1, 4], [9]]

    def test_timings_filled_per_section(self):
        timings = {}
        run_sections(
            [Section("only", [Cell(_square, (2,))], list)], timings=timings
        )
        assert set(timings) == {"only"}
        assert timings["only"] >= 0.0


class TestSectionDeterminism:
    def test_learning_curve_section_parallel_identical(self, tea_adl):
        section = plan_learning_curve(tea_adl, seeds=(0, 1), episodes=40)
        serial = run_section(section, jobs=1)
        parallel = run_section(section, jobs=2)
        assert parallel.to_table() == serial.to_table()
        assert parallel.representative_plot() == serial.representative_plot()


class TestRunAllDeterminism:
    def test_fast_report_byte_identical_across_jobs(self, tmp_path):
        cache = str(tmp_path / "cache")
        serial = run_all(fast=True, include_ablations=False)
        parallel = run_all(fast=True, include_ablations=False, jobs=2)
        cached_cold = run_all(
            fast=True, include_ablations=False, cache_dir=cache
        )
        cached_warm = run_all(
            fast=True, include_ablations=False, jobs=2, cache_dir=cache
        )
        assert parallel == serial
        assert cached_cold == serial
        assert cached_warm == serial

    def test_report_ends_with_single_newline(self):
        report = run_all(fast=True, include_ablations=False)
        assert report.endswith("\n")
        assert not report.endswith("\n\n")


class TestWriteReport:
    def test_writes_utf8_regardless_of_locale(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        text = "Caregiver report — café\n"
        write_report(text, output=str(path))
        assert capsys.readouterr().out == text
        assert path.read_bytes() == text.encode("utf-8")

    def test_no_output_file_without_path(self, tmp_path, capsys):
        write_report("hello\n")
        assert capsys.readouterr().out == "hello\n"
        assert list(tmp_path.iterdir()) == []


class TestCellsCrossProcesses:
    """Every cell a ``--jobs N`` run can ship to a worker pickles: its
    ``fn`` is a module-level function (no lambda, nested def or bound
    method) and the whole cell survives a ``pickle`` round trip."""

    @staticmethod
    def assert_shippable(cell):
        fn = cell.fn
        module = sys.modules[fn.__module__]
        assert fn.__qualname__ == fn.__name__, cell.label
        assert getattr(module, fn.__name__) is fn, cell.label
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.fn is fn
        assert clone.label == cell.label
        assert len(clone.args) == len(cell.args)
        assert clone.kwargs.keys() == cell.kwargs.keys()

    def test_fast_report_cells(self):
        cells = [
            cell for section in build_sections(fast=True)
            for cell in section.cells
        ]
        assert len(cells) > 50
        for cell in cells:
            self.assert_shippable(cell)

    def test_fleet_wave_cells(self, monkeypatch, tmp_path):
        import repro.fleet.executor as executor

        waves = []

        def recording_run_cells(cells, *args, **kwargs):
            waves.append(list(cells))
            return run_cells(cells, *args, **kwargs)

        monkeypatch.setattr(executor, "run_cells", recording_run_cells)
        run_fleet(
            FleetSpec(homes=10, shard_size=4, training_episodes=20),
            cache_dir=str(tmp_path),
        )
        # One training wave, then 3 shards of at most 4 homes.
        labels = [[cell.label.split("[")[0] for cell in wave] for wave in waves]
        assert waves[0]
        assert labels == [["fleet.train"] * len(waves[0]), ["fleet.shard"] * 3]
        for wave in waves:
            for cell in wave:
                self.assert_shippable(cell)
