"""Per-dataset STSM configs from the paper's Table 3 parameters."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import STSMConfig
from repro.core.config import PAPER_PARAMETERS, config_for_dataset


@pytest.mark.parametrize("dataset", sorted(PAPER_PARAMETERS))
def test_generated_dataset_name_picks_its_table3_row(dataset):
    config = config_for_dataset(f"{dataset}-synth")
    row = PAPER_PARAMETERS[dataset]
    assert config.contrastive_weight == row["contrastive_weight"]
    assert config.epsilon_sg == row["epsilon_sg"]
    assert config.top_k == row["top_k"]
    # The POI radius shapes the dataset, not the model: it is no config field.
    assert "poi_radius" not in {field.name for field in dataclasses.fields(STSMConfig)}
    config.validate()


def test_unknown_dataset_keeps_the_defaults():
    assert config_for_dataset("metr-la") == STSMConfig()


def test_overrides_win_over_the_table_row():
    config = config_for_dataset("airq", top_k=3, hidden_dim=8)
    assert config.top_k == 3
    assert config.hidden_dim == 8
    assert config.contrastive_weight == PAPER_PARAMETERS["airq"]["contrastive_weight"]
