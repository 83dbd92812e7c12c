"""Forecaster interface contract and the experiments CLI."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FitReport, Forecaster
from repro.experiments.__main__ import main as cli_main


class TestForecasterInterface:
    def test_cannot_instantiate_abstract(self):
        with pytest.raises(TypeError):
            Forecaster()

    def test_fit_report_defaults(self):
        report = FitReport()
        assert report.train_seconds == 0.0
        assert report.history == []
        assert report.extra == {}

    def test_all_models_implement_interface(self):
        from repro.baselines import (
            GEGANForecaster,
            HistoricalAverageForecaster,
            IGNNKForecaster,
            INCREASEForecaster,
        )
        from repro.core import STSMForecaster

        for cls in (
            GEGANForecaster,
            IGNNKForecaster,
            INCREASEForecaster,
            HistoricalAverageForecaster,
            STSMForecaster,
        ):
            assert issubclass(cls, Forecaster)
            instance = cls()
            assert callable(instance.fit)
            assert callable(instance.predict)
            assert isinstance(instance.name, str)


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4_overall" in out

    def test_run_cheap_experiment(self, capsys):
        assert cli_main(["fig7_adjacency", "--scale", "bench"]) == 0
        out = capsys.readouterr().out
        assert "A_sg" in out

    def test_run_with_datasets_argument(self, capsys):
        assert cli_main(["table2_stats", "--scale", "bench", "--datasets", "airq"]) == 0
        out = capsys.readouterr().out
        assert "airq" in out

    def test_unknown_experiment_raises(self):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["tableXX", "--scale", "bench"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["table2_stats", "--datasets", "nope"],
            ["table5_timing", "--datasets", "pems-bay", "nope"],
        ],
    )
    def test_unknown_dataset_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*argv, "--scale", "bench"])
        assert excinfo.value.code == 2
        assert "--datasets" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["inf", "1e400"])
    def test_infinite_cache_quota_is_a_usage_error(self, size, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["list", "--cache-max-bytes", size])
        assert excinfo.value.code == 2
        assert "--cache-max-bytes" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "flag", ["--workers", "--max-batch", "--max-queue", "--cache-size"]
    )
    def test_serve_non_positive_size_is_a_usage_error(self, flag, value, capsys):
        from repro.serving.__main__ import main as serving_main

        with pytest.raises(SystemExit) as excinfo:
            serving_main(["serve", "--checkpoint-dir", "no-bundle", flag, value])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.2.0"

    def test_subpackages_importable(self):
        import repro

        for name in ("autograd", "nn", "optim", "graph", "temporal",
                     "data", "core", "baselines", "evaluation", "experiments"):
            assert hasattr(repro, name)

    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None
