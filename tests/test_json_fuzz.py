"""Fuzz of the three JSON loaders: any JSON value in any one field of a valid
config, schedule or profile (one of its records included), and an extra key
in a profile record, gives an object or a ConfigError (exit code 2), never
another exception (a traceback)."""
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tokenrnr.errors import ConfigError
from tokenrnr.pipeline import PipelineConfig
from tokenrnr.schedule import ScheduleConfig, SimilarityProfile, record_profile

SCHEDULE = {"Q": {"0.0": 0.8}, "V": {"0.5": 0.3}, "cache_step": 2,
            "stride": [2, 2, 2], "metric": "neg_euclidean"}
CONFIG = {**json.loads(PipelineConfig(grid_shape=(2, 4, 4), feature_dim=8,
                                      num_blocks=2, num_heads=2,
                                      num_timesteps=3).to_json()),
          "schedule": SCHEDULE}
PROFILE = json.loads(record_profile(
    [(f, t, b, 0.1 * t + b, 0.0, 1.0) for f in ("H", "Q", "K", "V")
     for t in range(3) for b in range(2)],
    num_timesteps=3, num_blocks=2, grid_shape=(2, 4, 4), stride=(2, 2, 2),
    metric="neg_euclidean").to_json())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)


def loads_or_config_error(loader, payload) -> None:
    try:
        loader(json.dumps(payload))
    except ConfigError:
        pass


fuzz = settings(max_examples=150, deadline=None)


@fuzz
@given(st.sampled_from(sorted(CONFIG)), json_values)
def test_config_field(field, value):
    loads_or_config_error(PipelineConfig.from_json, {**CONFIG, field: value})


@fuzz
@given(st.sampled_from(sorted(SCHEDULE)), json_values)
def test_schedule_field(field, value):
    loads_or_config_error(ScheduleConfig.from_json, {**SCHEDULE, field: value})
    loads_or_config_error(PipelineConfig.from_json,
                          {**CONFIG, "schedule": {**SCHEDULE, field: value}})


@fuzz
@given(st.sampled_from(sorted(PROFILE["metadata"])), json_values)
def test_profile_metadata_field(field, value):
    payload = {**PROFILE, "metadata": {**PROFILE["metadata"], field: value}}
    loads_or_config_error(SimilarityProfile.from_json, payload)


@fuzz
@given(st.integers(0, len(PROFILE["records"]) - 1),
       st.sampled_from(sorted(PROFILE["records"][0])) | st.text(max_size=6),
       json_values)
def test_profile_record_field(index, field, value):
    records = list(PROFILE["records"])
    records[index] = {**records[index], field: value}
    loads_or_config_error(SimilarityProfile.from_json, {**PROFILE, "records": records})
