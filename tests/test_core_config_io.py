"""Unit tests for configuration persistence."""

import json

import pytest

from repro.core.config import CoReDAConfig, RemindingConfig
from repro.core.config_io import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from repro.core.errors import ConfigurationError


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
