"""Unit tests for configuration persistence, and the domain contract
of every loaded configuration and fleet spec."""

import contextlib
import io
import json
import math
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.config import (
    CoReDAConfig,
    PlanningConfig,
    RadioConfig,
    RemindingConfig,
    SensingConfig,
)
from repro.core.config_io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.core.errors import ConfigurationError
from repro.fleet import FleetSpec
from repro.resident.population import CohortBounds


class TestRoundTrip:
    def test_default_config_roundtrips(self, tmp_path):
        config = CoReDAConfig(seed=42)
        path = tmp_path / "coreda.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_customized_config_roundtrips(self, tmp_path):
        from dataclasses import replace

        config = replace(
            CoReDAConfig(seed=7),
            reminding=RemindingConfig(stall_timeout=45.0, escalate_after=1),
        )
        path = tmp_path / "coreda.json"
        save_config(config, path)
        restored = load_config(path)
        assert restored.reminding.stall_timeout == 45.0
        assert restored.reminding.escalate_after == 1
        assert restored == config

    def test_file_is_editable_json(self, tmp_path):
        path = tmp_path / "coreda.json"
        save_config(CoReDAConfig(), path)
        document = json.loads(path.read_text())
        assert document["planning"]["terminal_reward"] == 1000.0
        assert document["sensing"]["sampling_hz"] == 10.0


class TestPartialDocuments:
    def test_missing_sections_use_defaults(self):
        config = config_from_dict({"seed": 9})
        assert config.seed == 9
        assert config.planning == CoReDAConfig().planning

    def test_partial_section(self):
        config = config_from_dict(
            {"reminding": {"stall_timeout": 50.0}}
        )
        assert config.reminding.stall_timeout == 50.0
        assert (
            config.reminding.minimal_blinks
            == RemindingConfig().minimal_blinks
        )

    def test_empty_document_is_default(self):
        assert config_from_dict({}) == CoReDAConfig()


class TestValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"reminders": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"planning": {"learning_rte": 0.2}})

    def test_non_object_section_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"planning": 7})

    def test_invalid_values_caught_by_dataclass_checks(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"planning": {"learning_rate": 5.0}})

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": None}, "seed"),
            ({"seed": "7"}, "seed"),
            ({"planning": {"epsilon": "0.2"}}, "epsilon"),
            ({"sensing": {"window_size": 2.5, "threshold_count": 2}},
             "window_size"),
            ({"radio": {"max_retries": 2.5}}, "max_retries"),
            ({"reminding": {"user_title": 5}}, "user_title"),
            ({"reminding": {"statistical_timeout": "no"}},
             "statistical_timeout"),
            ({"planning": {"terminal_reward": 10**400}}, "terminal_reward"),
        ],
    )
    def test_value_outside_its_domain_names_the_field(self, document, field):
        with pytest.raises(ConfigurationError, match=field):
            config_from_dict(document)

    @pytest.mark.parametrize("document", [None, 5, "text", [1, 2], True])
    def test_document_must_be_an_object(self, document):
        with pytest.raises(ConfigurationError, match="must be an object"):
            config_from_dict(document)

    def test_file_that_is_not_json_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not a JSON document"):
            load_config(path)


class TestRetiredKeys:
    """Files saved while the speed knobs existed keep loading."""

    #: What ``save_config`` wrote for a default config before the
    #: kernel, Q-table and inference backends and the sensing block
    #: size were retired.
    OLD_FORMAT = {
        "sim": {"kernel_backend": "calendar", "bucket_width": 0.5},
        "sensing": {
            "sampling_hz": 10.0, "window_size": 10, "threshold_count": 3,
            "usage_threshold": 1.0, "idle_timeout": 30.0,
            "refractory_period": 2.0, "batch_samples": 10,
        },
        "radio": {
            "loss_probability": 0.02, "latency": 0.005, "max_retries": 3,
            "retry_interval": 0.05,
        },
        "planning": {
            "learning_rate": 0.2, "discount": 0.9, "trace_decay": 0.7,
            "epsilon": 0.2, "epsilon_decay": 0.978,
            "terminal_reward": 1000.0, "minimal_reward": 100.0,
            "specific_reward": 50.0, "wrong_prompt_reward": 0.0,
            "convergence_criterion": 0.95, "convergence_patience": 3,
            "initial_q": 1000.0, "q_backend": "dense",
            "infer_backend": "batched",
        },
        "reminding": {
            "stall_timeout": 30.0, "statistical_timeout": True,
            "stall_sd_factor": 3.0, "minimal_blinks": 3,
            "specific_blinks": 8, "escalate_after": 2,
            "max_reminders_per_step": 5, "praise_enabled": True,
            "user_title": "Mr. Tanaka",
        },
        "seed": 3,
    }

    def test_old_format_loads_to_the_same_config(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(self.OLD_FORMAT))
        assert load_config(path) == CoReDAConfig(seed=3)

    def test_reference_backend_values_load_too(self):
        document = json.loads(json.dumps(self.OLD_FORMAT))
        document["sim"] = {"kernel_backend": "heap", "bucket_width": 2.0}
        document["planning"]["q_backend"] = "sparse"
        document["planning"]["infer_backend"] = "scalar"
        document["sensing"]["batch_samples"] = 1
        assert config_from_dict(document) == CoReDAConfig(seed=3)

    def test_other_unknown_keys_still_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"sim": {"kernel_backend": "heap", "tick": 1}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"sensing": {"q_backend": "dense"}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"sim": "calendar"})

    def test_saved_files_carry_no_retired_keys(self, tmp_path):
        path = tmp_path / "new.json"
        save_config(CoReDAConfig(), path)
        document = json.loads(path.read_text())
        assert "sim" not in document
        assert "q_backend" not in document["planning"]
        assert "infer_backend" not in document["planning"]


# ---------------------------------------------------------------------------
# The domain contract: every input either raises ConfigurationError or
# yields an object whose every declared field lies in its domain.

SECTIONS = {
    "sensing": SensingConfig,
    "radio": RadioConfig,
    "planning": PlanningConfig,
    "reminding": RemindingConfig,
}

INTERVAL = re.compile(r"([\[(])(\S+), (\S+)([\])])")


def assert_in_declared_domains(instance):
    """Check each declared field of ``instance`` by its own reading of
    the declaration (not through the checker under test)."""
    for spec in fields(instance):
        if "domain" not in spec.metadata:
            continue
        value = getattr(instance, spec.name)
        if spec.type == "bool":
            assert type(value) is bool, spec.name
            continue
        if spec.type == "str":
            assert isinstance(value, str), spec.name
            continue
        assert not isinstance(value, bool), spec.name
        if spec.type == "int":
            assert isinstance(value, int), spec.name
        else:
            assert isinstance(value, (int, float)), spec.name
            assert math.isfinite(float(value)), spec.name
        opening, low, high, closing = INTERVAL.fullmatch(
            spec.metadata["domain"]
        ).groups()
        low, high = float(low), float(high)
        assert low < value if opening == "(" else low <= value, spec.name
        assert value < high if closing == ")" else value <= high, spec.name


#: JSON scalars, the wild values included.  Small numbers come up
#: often enough that many documents load and reach the domain asserts.
json_scalars = st.one_of(
    st.integers(min_value=-1, max_value=12),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=1, max_value=100),
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(),
    st.floats(),
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)
json_values = st.one_of(
    json_scalars,
    st.lists(json_scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)


def _some_of(values):
    """Dictionaries of up to three of ``values``' keys, each with a
    value drawn from its strategy."""
    keys = st.lists(st.sampled_from(sorted(values)), max_size=3, unique=True)
    return keys.flatmap(
        lambda chosen: st.fixed_dictionaries({key: values[key] for key in chosen})
    )


def _section(cls, *extra_keys):
    """A section document: real field names, each holding its default
    (so that many documents load) or any JSON value, and the
    ``extra_keys``."""
    return _some_of(
        {
            **{
                spec.name: st.one_of(st.just(spec.default), json_values)
                for spec in fields(cls)
            },
            **{key: json_values for key in extra_keys},
        }
    )


#: Configuration documents: real sections and keys, then unknown
#: sections, keys and shapes, then documents that are not objects.
documents = st.one_of(
    _some_of(
        {
            **{name: _section(cls) for name, cls in SECTIONS.items()},
            "seed": st.one_of(st.integers(), json_values),
        }
    ),
    _some_of(
        {
            **{
                name: st.one_of(_section(cls, "unknown"), json_values)
                for name, cls in SECTIONS.items()
            },
            "seed": json_values,
            "sim": json_values,
            "other": json_values,
        }
    ),
    st.sampled_from([None, 5, 1.5, math.nan, "text", [], [{}], True]),
)


class TestDomainContract:
    @given(documents)
    @settings(max_examples=300, deadline=None)
    def test_config_from_dict_refuses_or_stays_in_domain(self, document):
        try:
            config = config_from_dict(document)
        except ConfigurationError:
            return
        assert_in_declared_domains(config)
        for section in SECTIONS:
            assert_in_declared_domains(getattr(config, section))

    @given(
        _some_of(
            {
                spec.name: st.one_of(st.just(spec.default), json_values)
                for spec in fields(FleetSpec)
            }
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fleet_spec_refuses_or_stays_in_domain(self, kwargs):
        try:
            spec = FleetSpec(**kwargs)
        except ConfigurationError:
            return
        assert_in_declared_domains(spec)
        assert_in_declared_domains(
            CohortBounds(spec.min_age, spec.max_age, spec.max_severity)
        )

    @given(documents)
    @settings(max_examples=25, deadline=None)
    def test_train_exits_0_1_or_2(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("config") / "coreda.json"
        path.write_text(json.dumps(document))
        argv = ["train", "tea-making", "--episodes", "3", "--config", str(path)]
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
