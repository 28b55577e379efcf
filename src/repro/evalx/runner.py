"""One-shot experiment runner: regenerate everything the paper reports.

:func:`run_all` (the ``repro report`` CLI) renders every table and
figure (Tables 1-4, Figures 1 and 4) plus the ablations, and can
write the whole report to a file -- EXPERIMENTS.md is generated this
way.

The report is assembled from :class:`~repro.evalx.parallel.Section`
plans: every sweep decomposes into pure (seed, config) cells, so
``--jobs N`` fans the whole workload out over N worker processes and
merges a report that is **byte-identical** to the serial one.
``--cache DIR`` adds a content-addressed store of trained policies
(see :mod:`repro.planning.store`): re-runs, and sweeps that train the
same (ADL, routine, hyper-parameters, seed) cell, skip retraining.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.adls.library import default_registry
from repro.evalx.ablations import (
    plan_adaptation_speed,
    plan_detector_sweep,
    plan_dyna_sweep,
    plan_escalation_ablation,
    plan_lambda_sweep,
    plan_multi_routine_comparison,
    plan_radio_sweep,
    plan_sarsa_comparison,
    plan_wrong_reward_sweep,
)
from repro.evalx.baseline_compare import plan_baseline_comparison
from repro.evalx.burden import plan_burden_study
from repro.evalx.extract_precision import plan_extract_precision
from repro.evalx.hardware_table import table1_hardware, table2_sensor_map
from repro.evalx.learning_curve import plan_learning_curve
from repro.evalx.parallel import Cell, Section, run_sections
from repro.evalx.predict_precision import plan_predict_precision
from repro.evalx.scenario import run_tea_scenario
from repro.evalx.sensitivity import plan_alpha_sweep, plan_epsilon_sweep
from repro.planning.store import PolicyCache
from repro.planning.trainer import training_memo

__all__ = ["ReportMerge", "run_all", "build_sections", "write_report"]


@dataclass(frozen=True)
class ReportMerge:
    """A report section's merge: ``fold`` the cell results, ``render`` blocks.

    Calling it is the composition, which is all :func:`run_all` needs;
    the two halves stay reachable so a caller holding a section's cell
    results can also read the result object behind its blocks.
    """

    fold: Callable[[List[Any]], Any]
    render: Callable[[Any], List[str]]

    def __call__(self, results: List[Any]) -> List[str]:
        return self.render(self.fold(results))


def _blocks(section: Section, render) -> Section:
    """Wrap ``section`` so its merge yields the report blocks."""
    return Section(
        section.name, section.cells, ReportMerge(section.merge, render)
    )


def _only(results: List[Any]) -> Any:
    return results[0]


def _scenario_blocks(scenario) -> List[str]:
    return [
        scenario.to_table(),
        f"Scenario structure check: "
        f"{'PASS' if scenario.structure_ok() else 'FAIL'}",
    ]


def build_sections(
    fast: bool = False,
    include_ablations: bool = True,
    cache_dir: Optional[str] = None,
) -> List[Section]:
    """The full report as an ordered list of section plans.

    Every section's merge is a :class:`ReportMerge` returning the list
    of report blocks it contributes; the blocks, joined in section
    order, are the report.
    """
    registry = default_registry()
    paper_adls = [registry.get("tooth-brushing"), registry.get("tea-making")]
    tea_definition = registry.get("tea-making")
    tea = tea_definition.adl
    samples = 10 if fast else 40
    seeds = tuple(range(3)) if fast else tuple(range(10))
    sections: List[Section] = []

    one_block = lambda table: [table]  # noqa: E731 - tiny adapter
    sections.append(
        _blocks(
            Section(
                "table1.hardware", [Cell(table1_hardware, label="table1")],
                _only,
            ),
            one_block,
        )
    )
    sections.append(
        _blocks(
            Section(
                "table2.sensors",
                [Cell(table2_sensor_map, (paper_adls,), label="table2")],
                _only,
            ),
            one_block,
        )
    )
    sections.append(
        _blocks(
            plan_extract_precision(paper_adls, samples_per_step=samples),
            lambda result: [result.to_table()],
        )
    )
    for definition in paper_adls:
        sections.append(
            _blocks(
                plan_learning_curve(
                    definition.adl, seeds=seeds, cache_dir=cache_dir
                ),
                lambda curve: [curve.to_table(), curve.representative_plot()],
            )
        )
    sections.append(
        _blocks(
            plan_predict_precision(
                paper_adls, samples_per_adl=12 if fast else 30
            ),
            lambda result: [result.to_table()],
        )
    )
    sections.append(
        _blocks(
            Section(
                "fig1.scenario", [Cell(run_tea_scenario, label="scenario")],
                _only,
            ),
            _scenario_blocks,
        )
    )
    sections.append(
        _blocks(
            plan_baseline_comparison(
                tea,
                n_users=5 if fast else 20,
                episodes=40 if fast else 120,
                cache_dir=cache_dir,
            ),
            lambda result: [result.to_table()],
        )
    )
    sections.append(
        _blocks(
            plan_burden_study(tea_definition, episodes=4 if fast else 10),
            lambda result: [result.to_table()],
        )
    )

    if include_ablations:
        ablation_seeds = tuple(range(2)) if fast else tuple(range(8))
        sections.append(
            _blocks(
                plan_lambda_sweep(
                    tea, seeds=ablation_seeds, cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_wrong_reward_sweep(
                    tea, seeds=ablation_seeds[:3] or (0,), cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(plan_detector_sweep(trials=60 if fast else 300), one_block)
        )
        sections.append(
            _blocks(
                plan_dyna_sweep(
                    tea, seeds=ablation_seeds, cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_radio_sweep(
                    tea_definition, samples_per_step=8 if fast else 25
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_sarsa_comparison(
                    tea, seeds=ablation_seeds, cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_alpha_sweep(
                    tea, seeds=ablation_seeds, cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_epsilon_sweep(
                    tea, seeds=ablation_seeds, cache_dir=cache_dir
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_multi_routine_comparison(
                    episodes_per_routine=20 if fast else 60
                ),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_adaptation_speed(tea, seeds=ablation_seeds[:3] or (0,)),
                one_block,
            )
        )
        sections.append(
            _blocks(
                plan_escalation_ablation(
                    tea_definition, episodes=3 if fast else 8
                ),
                one_block,
            )
        )

    return sections


def run_all(
    fast: bool = False,
    include_ablations: bool = True,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    timings: Optional[Dict[str, float]] = None,
) -> str:
    """Run every experiment; returns the full report text.

    ``fast`` trims sample counts and seed sets (used by smoke tests);
    the defaults match the paper's sample sizes.  ``jobs`` > 1 fans
    the section cells out over worker processes; the report text is
    byte-identical for every ``jobs`` value.  ``timings``, when
    given, is filled with per-section cell seconds.

    The run opens a :func:`~repro.planning.trainer.training_memo`:
    several sections ask for the same training (the default
    tea-making policy alone is requested about ten times), and each
    distinct one is trained once per run.  ``--jobs`` workers train
    unshared.  With ``cache_dir``, temps left by writers that died
    mid-put are swept once, here; cells never sweep.
    """
    if cache_dir is not None:
        PolicyCache(cache_dir).sweep_stale_temps()
    sections = build_sections(
        fast=fast, include_ablations=include_ablations, cache_dir=cache_dir
    )
    with training_memo():
        merged = run_sections(sections, jobs=jobs, timings=timings)
    blocks: List[str] = []
    for section_blocks in merged:
        blocks.extend(section_blocks)
    return "\n\n".join(blocks) + "\n"


def write_report(
    report: str,
    output: Optional[str] = None,
    stream: Optional[TextIO] = None,
) -> None:
    """Print ``report`` and optionally persist it.

    The file is always written UTF-8 so the report's non-ASCII
    characters survive non-UTF-8 locales.
    """
    (stream if stream is not None else sys.stdout).write(report)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report)
