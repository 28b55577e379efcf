"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "tea-making"])
        assert args.episodes == 120
        assert args.seed == 0
        assert args.routine is None

    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.fast is False
        assert args.no_ablations is False
        assert args.jobs == 1
        assert args.cache is None
        assert args.timing is False

    def test_report_accepts_runner_flags(self):
        args = build_parser().parse_args(
            ["report", "--fast", "--no-ablations", "--jobs", "4",
             "--cache", "/tmp/cache", "--timing"]
        )
        assert args.fast is True
        assert args.no_ablations is True
        assert args.jobs == 4
        assert args.cache == "/tmp/cache"
        assert args.timing is True


class TestListAdls:
    def test_lists_all_five(self, capsys):
        assert main(["list-adls"]) == 0
        out = capsys.readouterr().out
        for name in ("tea-making", "tooth-brushing", "hand-washing",
                     "dressing", "coffee-making"):
            assert name in out


class TestTrain:
    def test_train_prints_convergence(self, capsys):
        assert main(["train", "tea-making"]) == 0
        out = capsys.readouterr().out
        assert "95% criterion: iteration" in out
        assert "final greedy accuracy: 100%" in out

    def test_train_custom_routine(self, capsys):
        assert main(["train", "tea-making", "--routine", "1,3,2,4"]) == 0
        assert "[1, 3, 2, 4]" in capsys.readouterr().out

    def test_train_saves_policy(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        assert main(["train", "tea-making", "--save", str(path)]) == 0
        assert path.exists()
        from repro.adls.tea_making import make_tea_making
        from repro.planning.store import load_predictor

        predictor = load_predictor(path, make_tea_making())
        assert predictor.predict_next_tool(0, 1) == 2

    def test_train_plot(self, capsys):
        assert main(["train", "tea-making", "--plot"]) == 0
        assert "*" in capsys.readouterr().out

    def test_not_converged_exits_1_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "policy.json"
        argv = ["train", "tea-making", "--episodes", "3", "--save", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "95% criterion: iteration not reached" in captured.out
        assert "Traceback" not in captured.err
        assert captured.err.splitlines() == [
            "repro: error: training did not reach the 95% criterion in 3 "
            "episodes; no policy saved"
        ]
        assert not path.exists()

    def test_unknown_adl_raises(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "cooking"])
        assert excinfo.value.code == 2
        assert "unknown ADL 'cooking'" in capsys.readouterr().err

    def test_routine_with_non_integer_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "tea-making", "--routine", "1,x,3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "'x' is not a StepID" in err
        assert "Traceback" not in err

    def test_routine_with_unknown_step_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "tea-making", "--routine", "1,99,3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "no step 99 in tea-making" in err
        assert "StepIDs: 1, 2, 3, 4" in err


class TestSimulate:
    def test_not_converged_exits_1_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "coreda.json"
        path.write_text('{"planning": {"terminal_reward": 0.0}}')
        assert main(["simulate", "tea-making", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "repro: error: training did not reach the 95% criterion in 120 "
            "episodes; nothing simulated"
        ]

    def test_simulate_prints_report(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "2", "--severity", "0.3"]
        ) == 0
        out = capsys.readouterr().out
        assert "ran 2 episodes" in out
        assert "Caregiver report — tea-making" in out

    def test_simulate_with_adaptation(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "1", "--adapt"]
        ) == 0


class TestReport:
    def test_no_ablations_skips_sweeps_and_writes_utf8(self, tmp_path, capsys):
        path = tmp_path / "report.md"
        assert main(
            ["report", "--fast", "--no-ablations", "--output", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "sweep" not in out
        assert "ablation" not in out
        assert path.read_bytes().decode("utf-8") == out


class TestJobsValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--fast", "--jobs", "0"],
            ["report", "--fast", "--jobs", "-2"],
            ["fleet", "--homes", "2", "--jobs", "0"],
            ["fleet", "--homes", "2", "--jobs", "-3"],
        ],
    )
    def test_jobs_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert f"--jobs: must be at least 1, got {argv[-1]}" in captured.err
        assert captured.out == ""


class TestUsageErrors:
    """Bad arguments exit 2 with one ``repro: error:`` line, never a
    traceback or a silent run."""

    #: ``--config`` files by name; ``missing`` is never written.
    CONFIG_FILES = {
        "malformed": "{not json",
        "invalid": '{"sensing": {"sampling_hz": -1}}',
        "bad_decay": '{"planning": {"epsilon_decay": 1.5}}',
        "bad_retry": '{"radio": {"retry_interval": -1}}',
        "string_epsilon": '{"planning": {"epsilon": "0.2"}}',
        "float_window": '{"sensing": {"window_size": 2.5, "threshold_count": 2}}',
        "float_retries": '{"radio": {"max_retries": 2.5}}',
        "float_seed": '{"seed": 1.5}',
        "null_seed": '{"seed": null}',
        "null_document": "null",
        "number_document": "5",
        "number_title": '{"reminding": {"user_title": 5}}',
        "string_flag": '{"reminding": {"statistical_timeout": "no"}}',
        "deep_document": "[" * 100_000,
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "tea-making", "--severity", "1.5"],
            ["simulate", "tea-making", "--severity", "nan"],
            ["train", "tea-making", "--episodes", "0"],
            ["simulate", "tea-making", "--episodes", "0"],
            ["simulate", "tea-making", "--episodes", "-1"],
            ["simulate", "nope"],
            ["train", "nope"],
            ["fleet", "--adl", "nope", "--homes", "2"],
            ["train", "tea-making", "--config", "{missing}"],
            ["train", "tea-making", "--config", "{malformed}"],
            ["simulate", "tea-making", "--config", "{invalid}"],
            ["train", "tea-making", "--config", "{bad_decay}"],
            ["simulate", "tea-making", "--config", "{bad_retry}"],
            ["train", "tea-making", "--config", "{string_epsilon}"],
            ["train", "tea-making", "--config", "{float_window}"],
            ["simulate", "tea-making", "--config", "{float_retries}"],
            ["train", "tea-making", "--config", "{float_seed}"],
            ["train", "tea-making", "--config", "{null_seed}"],
            ["train", "tea-making", "--config", "{null_document}"],
            ["train", "tea-making", "--config", "{number_document}"],
            ["simulate", "tea-making", "--config", "{number_title}"],
            ["simulate", "tea-making", "--config", "{string_flag}"],
            ["train", "tea-making", "--config", "{deep_document}"],
            ["train", "tea-making", "--routine", "1,1"],
        ],
    )
    def test_exits_2_without_traceback(self, argv, tmp_path, capsys):
        for name, text in self.CONFIG_FILES.items():
            (tmp_path / f"{name}.json").write_text(text)
        files = {
            name: str(tmp_path / f"{name}.json")
            for name in ("missing", *self.CONFIG_FILES)
        }
        argv = [arg.format(**files) for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("repro: error: ")
        assert captured.out == ""


class TestScenario:
    def test_scenario_passes(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "structure check: PASS" in out


class TestConfigFile:
    def test_train_with_config_file(self, tmp_path, capsys):
        from repro.core.config import CoReDAConfig
        from repro.core.config_io import save_config

        path = tmp_path / "coreda.json"
        save_config(CoReDAConfig(), path)
        assert main(["train", "tea-making", "--config", str(path)]) == 0
        assert "final greedy accuracy" in capsys.readouterr().out

    def test_seed_flag_overrides_config_seed(self, tmp_path, capsys):
        import json

        path = tmp_path / "coreda.json"
        path.write_text(json.dumps({"seed": 5}))
        assert main(
            ["train", "tea-making", "--config", str(path), "--seed", "9"]
        ) == 0

    def test_simulate_timeline_flag(self, capsys):
        assert main(
            ["simulate", "tea-making", "--episodes", "1", "--timeline",
             "--severity", "0.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "Event timeline" in out
        assert "Put tea-leaf into kettle" in out
