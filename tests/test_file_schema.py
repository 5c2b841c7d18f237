"""The file schemas of PipelineConfig, ScheduleConfig and SimilarityProfile:
written from the dataclass fields in field order, read through one
version-checking reader."""
import hashlib
import json

import pytest

from tokenrnr.errors import ConfigError, json_object
from tokenrnr.pipeline import PipelineConfig
from tokenrnr.schedule import ScheduleConfig, SimilarityProfile, record_profile

SCHEDULE = ScheduleConfig(rules={"Q": [(0.6, 0.4), (0.7, 0.8)], "V": [(0.8, 0.3)]},
                          cache_step=3, stride=(1, 2, 2), metric="cosine")
CONFIG = PipelineConfig(grid_shape=(2, 4, 4), feature_dim=8, num_blocks=2,
                        num_heads=2, num_timesteps=3, seed=4, rnr_mode="asym",
                        schedule=SCHEDULE)
PROFILE = record_profile(
    [(f, t, 0, 0.1 * t, 0.0, 1.0) for f in ("H", "Q", "K", "V") for t in range(2)],
    num_timesteps=2, num_blocks=1, grid_shape=(2, 4, 4), stride=(2, 2, 2),
    metric="neg_euclidean")


def short_sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def test_written_bytes_are_pinned():
    # config ids and schedule digests name runs in bench CSVs and BENCH
    # files, so the bytes they hash must not move
    assert SCHEDULE.digest() == "ab48b1848a8b"
    assert short_sha(CONFIG.to_json()) == "c7beddca782b"
    assert short_sha(PipelineConfig().to_json()) == "a0b54cf7902a"
    assert short_sha(PROFILE.to_json()) == "e0620e9654d1"


def test_config_keys_follow_field_order_with_the_schedule_last():
    keys = list(json.loads(CONFIG.to_json()))
    assert keys == ["schema_version", "grid_shape", "feature_dim", "num_blocks",
                    "num_heads", "num_timesteps", "seed", "rnr_mode", "profiling",
                    "rope", "reduce_op", "duplicate_fraction", "collect_norms",
                    "schedule"]
    assert "schedule" not in json.loads(PipelineConfig().to_json())


def test_round_trips_are_exact():
    assert PipelineConfig.from_json(CONFIG.to_json()) == CONFIG
    assert ScheduleConfig.from_json(SCHEDULE.to_json()) == SCHEDULE
    assert ScheduleConfig.from_dict(SCHEDULE.to_dict()) == SCHEDULE
    assert SimilarityProfile.from_json(PROFILE.to_json()).to_json() == PROFILE.to_json()


def test_absent_settings_keep_the_constructor_defaults():
    assert ScheduleConfig.from_json("{}") == ScheduleConfig()
    partial = ScheduleConfig.from_json('{"Q": {"0.5": 0.3}, "cache_step": 2}')
    assert partial == ScheduleConfig(rules={"Q": [(0.5, 0.3)]}, cache_step=2)
    assert PipelineConfig().stride == ScheduleConfig().stride
    assert PipelineConfig().metric == ScheduleConfig().metric


@pytest.mark.parametrize("version", [1, None])
def test_version_one_or_absent_reads(version):
    extra = {} if version is None else {"schema_version": version}
    assert json_object(json.dumps({"a": 1, **extra}), "thing") == {"a": 1}


@pytest.mark.parametrize("version", [2, 0, True, "1", 1.5, None])
def test_other_versions_are_config_errors(version):
    with pytest.raises(ConfigError, match="thing schema_version must be 1"):
        json_object(json.dumps({"schema_version": version}), "thing")


@pytest.mark.parametrize("text, match", [
    ("{nope", "thing is not valid JSON"),
    ("[1, 2]", "thing JSON must be an object"),
    ('"{}"', "thing JSON must be an object"),
])
def test_non_objects_are_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        json_object(text, "thing")


def test_embedded_schedule_reads_as_a_schedule_file_does():
    def load_both(schedule):
        outcomes = []
        for load in (lambda: ScheduleConfig.from_json(json.dumps(schedule)),
                     lambda: PipelineConfig.from_json(json.dumps(
                         {**json.loads(CONFIG.to_json()), "schedule": schedule})).schedule):
            try:
                outcomes.append(load())
            except ConfigError:
                outcomes.append("ConfigError")
        return outcomes

    for schedule in (SCHEDULE.to_dict(), {**SCHEDULE.to_dict(), "schema_version": 1},
                     {**SCHEDULE.to_dict(), "schema_version": 2},
                     '{"Q": {"0.5": 0.3}}', ["Q"], {"Q": [0.5, 0.3]}):
        file_form, embedded = load_both(schedule)
        assert file_form == embedded
