"""Unit tests for the resident simulator components."""

import numpy as np
import pytest

from repro.core.adl import ReminderLevel
from repro.resident.compliance import ComplianceModel
from repro.resident.dementia import DementiaProfile, ErrorKind, ScriptedError
from repro.resident.population import generate_population
from repro.resident.routines import (
    noisy_episodes,
    personalized_routine,
    training_episodes,
)
from repro.sim.random import RandomStreams


class TestDementiaProfile:
    def test_none_profile_never_errs(self, rng):
        profile = DementiaProfile.none()
        assert all(
            profile.draw_error(rng) == ErrorKind.NONE for _ in range(200)
        )

    def test_severity_scales_error_rate(self, rng):
        mild = DementiaProfile.from_severity(0.1)
        severe = DementiaProfile.from_severity(0.9)
        draws = 2000
        mild_errors = sum(
            mild.draw_error(rng) != ErrorKind.NONE for _ in range(draws)
        )
        severe_errors = sum(
            severe.draw_error(rng) != ErrorKind.NONE for _ in range(draws)
        )
        assert severe_errors > 3 * mild_errors

    def test_draw_covers_all_kinds(self, rng):
        profile = DementiaProfile(0.3, 0.3, 0.3)
        kinds = {profile.draw_error(rng) for _ in range(500)}
        assert kinds == {
            ErrorKind.NONE,
            ErrorKind.STALL,
            ErrorKind.WRONG_TOOL,
            ErrorKind.PERSEVERATE,
        }

    def test_probabilities_must_fit(self):
        with pytest.raises(ValueError):
            DementiaProfile(0.5, 0.4, 0.2)
        with pytest.raises(ValueError):
            DementiaProfile(-0.1, 0.0, 0.0)

    def test_severity_bounds(self):
        with pytest.raises(ValueError):
            DementiaProfile.from_severity(1.5)


class TestScriptedError:
    def test_wrong_tool_requires_target(self):
        with pytest.raises(ValueError):
            ScriptedError(ErrorKind.WRONG_TOOL)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScriptedError("daydream")


class TestCompliance:
    def test_specific_at_least_as_effective(self, rng):
        model = ComplianceModel(minimal_response=0.5, specific_response=0.9)
        trials = 2000
        minimal = sum(
            model.responds(ReminderLevel.MINIMAL, rng) for _ in range(trials)
        )
        specific = sum(
            model.responds(ReminderLevel.SPECIFIC, rng) for _ in range(trials)
        )
        assert specific > minimal

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            ComplianceModel(minimal_response=0.9, specific_response=0.5)

    def test_delay_floor(self, rng):
        model = ComplianceModel(delay_mean=1.0, delay_sd=5.0, delay_floor=0.5)
        assert all(model.response_delay(rng) >= 0.5 for _ in range(200))

    def test_perfect_always_responds(self, rng):
        model = ComplianceModel.perfect()
        assert all(
            model.responds(ReminderLevel.MINIMAL, rng) for _ in range(100)
        )


class TestRoutines:
    def test_personalized_keeps_endpoints(self, tea_adl, rng):
        for _ in range(50):
            routine = personalized_routine(tea_adl, rng, shuffle_probability=1.0)
            assert routine.step_ids[0] == tea_adl.step_ids[0]
            assert routine.terminal_step_id == tea_adl.terminal_step_id
            assert sorted(routine.step_ids) == sorted(tea_adl.step_ids)

    def test_zero_probability_is_canonical(self, tea_adl, rng):
        routine = personalized_routine(tea_adl, rng, shuffle_probability=0.0)
        assert list(routine.step_ids) == tea_adl.step_ids

    def test_training_episodes_clean_copies(self, tea_adl):
        routine = tea_adl.canonical_routine()
        episodes = training_episodes(routine, 5)
        assert len(episodes) == 5
        assert all(e == list(routine.step_ids) for e in episodes)
        episodes[0].append(99)  # mutating one must not affect others
        assert episodes[1] == list(routine.step_ids)

    def test_training_count_positive(self, tea_adl):
        with pytest.raises(ValueError):
            training_episodes(tea_adl.canonical_routine(), 0)

    def test_noisy_episodes_drop_steps(self, tea_adl, rng):
        routine = tea_adl.canonical_routine()
        episodes = noisy_episodes(routine, 200, rng, miss_probability=0.2)
        assert any(len(e) < len(routine.step_ids) for e in episodes)
        # Every episode still ends at the terminal step.
        assert all(e[-1] == routine.terminal_step_id for e in episodes)

    def test_noisy_probability_bounds(self, tea_adl, rng):
        with pytest.raises(ValueError):
            noisy_episodes(tea_adl.canonical_routine(), 1, rng,
                           miss_probability=1.0)


class TestPopulation:
    def test_cohort_shape(self, tea_adl):
        cohort = generate_population(tea_adl, 25, RandomStreams(0))
        assert len(cohort) == 25
        assert all(72 <= p.age <= 91 for p in cohort)
        assert all(0.1 <= p.severity <= 0.8 for p in cohort)
        assert len({p.name for p in cohort}) == 25

    def test_routines_are_valid_permutations(self, tea_adl):
        cohort = generate_population(tea_adl, 20, RandomStreams(1))
        for profile in cohort:
            assert sorted(profile.routine.step_ids) == sorted(tea_adl.step_ids)

    def test_reproducible(self, tea_adl):
        a = generate_population(tea_adl, 5, RandomStreams(3))
        b = generate_population(tea_adl, 5, RandomStreams(3))
        assert [p.severity for p in a] == [p.severity for p in b]

    def test_count_positive(self, tea_adl):
        with pytest.raises(ValueError):
            generate_population(tea_adl, 0, RandomStreams(0))

    def test_inverted_severity_range_rejected(self, tea_adl):
        with pytest.raises(ValueError, match="max_severity"):
            generate_population(tea_adl, 5, RandomStreams(0),
                                max_severity=0.05)

    def test_severity_above_one_rejected(self, tea_adl):
        with pytest.raises(ValueError, match="max_severity"):
            generate_population(tea_adl, 5, RandomStreams(0),
                                max_severity=1.5)

    def test_inverted_age_range_rejected(self, tea_adl):
        with pytest.raises(ValueError, match="min_age"):
            generate_population(tea_adl, 5, RandomStreams(0),
                                min_age=90, max_age=80)
