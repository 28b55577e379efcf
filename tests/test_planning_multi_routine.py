"""Unit tests for the multi-routine planner (future-work item 1)."""

import numpy as np
import pytest

from repro.adls.dressing import dressing_definition, dressing_routines
from repro.core.errors import RoutineError
from repro.planning.multi_routine import MultiRoutinePlanner


@pytest.fixture(scope="module")
def trained():
    definition = dressing_definition()
    adl = definition.adl
    routine_a, routine_b = dressing_routines(adl)
    log = [list(routine_a.step_ids)] * 40 + [list(routine_b.step_ids)] * 40
    rng = np.random.default_rng(0)
    order = rng.permutation(len(log))
    planner = MultiRoutinePlanner(adl, rng=np.random.default_rng(1))
    planner.train([log[i] for i in order])
    return planner, routine_a, routine_b


class TestClustering:
    def test_two_clusters_found(self, trained):
        planner, routine_a, routine_b = trained
        found = {cluster.routine for cluster in planner.clusters}
        assert found == {routine_a, routine_b}

    def test_support_counts(self, trained):
        planner, *_ = trained
        assert sorted(c.support for c in planner.clusters) == [40, 40]

    def test_noise_below_support_dropped(self):
        definition = dressing_definition()
        adl = definition.adl
        routine_a, routine_b = dressing_routines(adl)
        log = [list(routine_a.step_ids)] * 50 + [list(routine_b.step_ids)] * 2
        planner = MultiRoutinePlanner(adl)
        planner.train(log)
        assert len(planner.clusters) == 1

    def test_empty_log_rejected(self):
        planner = MultiRoutinePlanner(dressing_definition().adl)
        with pytest.raises(ValueError):
            planner.train([])


class TestIdentification:
    def test_unambiguous_prefix_identifies(self, trained):
        planner, routine_a, routine_b = trained
        assert planner.identify(list(routine_a.step_ids[:2])) == routine_a
        assert planner.identify(list(routine_b.step_ids[:1])) == routine_b

    def test_posterior_sums_to_one(self, trained):
        planner, routine_a, _ = trained
        posterior = planner.posterior(list(routine_a.step_ids[:1]))
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_contradicting_prefix_gets_vanishing_mass(self, trained):
        planner, routine_a, routine_b = trained
        posterior = planner.posterior(list(routine_b.step_ids[:2]))
        assert posterior[routine_a] < 1e-3

    def test_untrained_planner_raises(self):
        planner = MultiRoutinePlanner(dressing_definition().adl)
        with pytest.raises(RoutineError):
            planner.posterior([1])


class TestPrediction:
    def test_predicts_along_both_routines(self, trained):
        planner, routine_a, routine_b = trained
        for routine in (routine_a, routine_b):
            steps = list(routine.step_ids)
            for index in range(len(steps) - 1):
                prediction = planner.predict(steps[: index + 1])
                assert prediction.tool_id == steps[index + 1]

    def test_empty_prefix_rejected(self, trained):
        planner, *_ = trained
        with pytest.raises(RoutineError):
            planner.predict([])

