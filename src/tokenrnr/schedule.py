"""Reduction scheduling: similarity profiles, threshold maps, matching cache,
and the iterative threshold/rate tuning heuristic.

A similarity profile records, for every (feature, timestep, block) lattice
point, the mean best-match similarity seen during a profiling run, then
standardizes per feature onto [0, 1]. A schedule maps each feature to an
ordered threshold -> rate table; at run time the rate of the largest
threshold <= the profiled similarity applies (0, i.e. identity, below all
thresholds). K always follows V's entry, so schedules only ever carry Q and V.

The matching cache reuses a block's match result across denoising steps,
recomputing when the step index hits a multiple of the cache step.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import (SCHEMA_VERSION, ConfigError, config_int, config_int_triple,
                     config_real, json_object, schema_fields)
from .matching import DEFAULT_METRIC, METRICS, MatchResult, Partition, \
    pairwise_best_match, standardize_profile

PROFILE_FEATURES = ("H", "Q", "K", "V")
SCHEDULABLE_FEATURES = ("Q", "V")


def _as_rule_list(mapping) -> list[tuple[float, float]]:
    pairs = mapping.items() if isinstance(mapping, dict) else mapping
    rules = sorted((config_real("threshold", t), config_real("rate", r))
                   for t, r in pairs)
    thresholds = [t for t, _ in rules]
    if len(set(thresholds)) != len(thresholds):
        raise ConfigError(f"duplicate thresholds in schedule entry: {thresholds}")
    for _, rate in rules:
        if not (0.0 <= rate < 1.0):
            raise ConfigError(f"rates must lie in [0, 1), got {rate}")
    rates = [r for _, r in rules]
    if any(b < a for a, b in zip(rates, rates[1:])):
        warnings.warn("schedule rates decrease with rising thresholds; "
                      "higher similarity normally permits more reduction",
                      stacklevel=3)
    return rules


@dataclass
class ScheduleConfig:
    """Per-feature ordered (threshold -> rate) tables plus matching settings."""

    rules: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    cache_step: int = 5
    stride: tuple[int, int, int] = (2, 2, 2)
    metric: str = DEFAULT_METRIC

    def __post_init__(self):
        for feature in self.rules:
            if feature not in SCHEDULABLE_FEATURES:
                raise ConfigError(
                    f"schedules may only reference features {SCHEDULABLE_FEATURES}, "
                    f"got {feature!r} (K always follows V)")
        self.rules = {f: _as_rule_list(r) for f, r in self.rules.items()}
        self.cache_step = config_int("cache_step", self.cache_step)
        if self.cache_step < 1:
            raise ConfigError(f"cache_step must be >= 1, got {self.cache_step}")
        self.stride = config_int_triple("stride", self.stride)
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")

    def to_dict(self) -> dict:
        """The file form: a threshold -> rate object per feature, then the settings."""
        payload: dict = {feature: {repr(t): r for t, r in rules}
                         for feature, rules in sorted(self.rules.items())}
        payload.update((f.name, getattr(self, f.name))
                       for f in fields(self) if f.name != "rules")
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_dict(payload) -> "ScheduleConfig":
        """Read the parsed file form; a setting it leaves out keeps its default."""
        entries = schema_fields(payload, "schedule")
        settings = {f.name: entries.pop(f.name) for f in fields(ScheduleConfig)
                    if f.name in entries and f.name != "rules"}
        rules = {}
        for key, value in entries.items():
            if not isinstance(value, dict):
                raise ConfigError(f"schedule entry {key!r} must map thresholds to rates")
            try:
                rules[key] = [(float(t), r) for t, r in value.items()]
            except ValueError as exc:
                raise ConfigError(f"bad threshold in entry {key!r}: {exc}") from exc
        return ScheduleConfig(rules=rules, **settings)

    @staticmethod
    def from_json(text: str) -> "ScheduleConfig":
        return ScheduleConfig.from_dict(json_object(text, "schedule"))

    @staticmethod
    def from_file(path) -> "ScheduleConfig":
        with open(path, encoding="utf-8") as fh:
            return ScheduleConfig.from_json(fh.read())

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


@dataclass(frozen=True)
class ProfileRecord:
    feature: str
    t: int
    b: int
    sim_raw: float
    sim_std: float
    sim_p10: float
    sim_p90: float


@dataclass
class SimilarityProfile:
    """Standardized similarity over the (feature, timestep, block) lattice."""

    num_timesteps: int
    num_blocks: int
    features: tuple[str, ...]
    grid_shape: tuple[int, int, int]
    stride: tuple[int, int, int]
    metric: str
    records: list[ProfileRecord]

    def __post_init__(self):
        if min(self.num_timesteps, self.num_blocks) < 1:
            raise ConfigError("profile num_timesteps and num_blocks must be >= 1, "
                              f"got {self.num_timesteps} and {self.num_blocks}")
        if (not all(f in PROFILE_FEATURES for f in self.features)
                or len(set(self.features)) != len(self.features)):
            raise ConfigError(f"profile features must be distinct names from "
                              f"{PROFILE_FEATURES}, got {self.features!r}")
        # checked first, so the lattice set below is no larger than the records
        if len(self.records) != len(self.features) * self.num_timesteps * self.num_blocks:
            raise ConfigError(
                f"profile has {len(self.records)} records, but its lattice of "
                f"features x num_timesteps x num_blocks needs {len(self.features)} "
                f"x {self.num_timesteps} x {self.num_blocks}")
        self._std = {(r.feature, r.t, r.b): r.sim_std for r in self.records}
        expected = {(f, t, b) for f in self.features
                    for t in range(self.num_timesteps)
                    for b in range(self.num_blocks)}
        if set(self._std) != expected:
            raise ConfigError("profile records do not cover the declared "
                              "(feature, timestep, block) lattice exactly")

    def get(self, feature: str, t: int, b: int) -> float:
        try:
            return self._std[(feature, t, b)]
        except KeyError:
            raise KeyError(f"profile has no entry for ({feature!r}, t={t}, b={b})") from None

    def to_json(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metadata": {f.name: getattr(self, f.name)
                         for f in fields(self) if f.name != "records"},
            "records": [asdict(r) for r in self.records],
        }
        return json.dumps(payload, indent=2)

    @staticmethod
    def from_json(text: str) -> "SimilarityProfile":
        payload = json_object(text, "profile")
        try:
            meta = payload["metadata"]
            records = [ProfileRecord(
                feature=r["feature"], t=config_int("t", r["t"]), b=config_int("b", r["b"]),
                **{key: config_real(key, r[key])
                   for key in ("sim_raw", "sim_std", "sim_p10", "sim_p90")})
                for r in payload["records"]]
            if meta["metric"] not in METRICS:
                raise ConfigError(f"unknown metric {meta['metric']!r}")
            if not isinstance(meta["features"], list):
                raise ConfigError(f"features must be a list, got {meta['features']!r}")
            return SimilarityProfile(
                num_timesteps=config_int("num_timesteps", meta["num_timesteps"]),
                num_blocks=config_int("num_blocks", meta["num_blocks"]),
                features=tuple(meta["features"]),
                grid_shape=config_int_triple("grid_shape", meta["grid_shape"]),
                stride=config_int_triple("stride", meta["stride"]),
                metric=meta["metric"],
                records=records,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed profile JSON: {exc}") from exc

    @staticmethod
    def from_file(path) -> "SimilarityProfile":
        with open(path, encoding="utf-8") as fh:
            return SimilarityProfile.from_json(fh.read())

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def record_profile(raw_entries, *, num_timesteps: int, num_blocks: int,
                   grid_shape, stride, metric: str) -> SimilarityProfile:
    """Assemble a profile from raw (feature, t, b, mean, p10, p90) entries.

    Standardization runs per feature across all (t, b) points. A feature with
    a single lattice point, like a degenerate one-step one-block run, carries
    no contrast and maps to 0.5, as a constant one does.
    """
    entries = list(raw_entries)
    if not entries:
        raise ConfigError("cannot build a profile from an empty run")
    by_feature: dict[str, list] = {f: [] for f in PROFILE_FEATURES}
    for feature, t, b, raw, p10, p90 in entries:
        if feature not in by_feature:
            raise ConfigError(f"unexpected feature {feature!r} in profile entries")
        by_feature[feature].append((t, b, float(raw), float(p10), float(p90)))
    records = []
    for feature, rows in by_feature.items():
        if not rows:
            raise ConfigError(f"no entries recorded for feature {feature!r}")
        raws = [r[2] for r in rows]
        stds = standardize_profile(raws) if len(raws) > 1 else [0.5]
        for (t, b, raw, p10, p90), std in zip(rows, stds):
            records.append(ProfileRecord(feature=feature, t=t, b=b, sim_raw=raw,
                                         sim_std=float(std), sim_p10=p10, sim_p90=p90))
    return SimilarityProfile(num_timesteps=num_timesteps, num_blocks=num_blocks,
                             features=PROFILE_FEATURES, grid_shape=tuple(grid_shape),
                             stride=tuple(stride), metric=metric, records=records)


def lookup_rate(cfg: ScheduleConfig, profile: SimilarityProfile,
                feature: str, t: int, b: int) -> float:
    """Rate of the largest threshold <= the profiled similarity, else 0."""
    sim = profile.get(feature, t, b)
    rules = cfg.rules.get(feature, [])
    thresholds = [thr for thr, _ in rules]
    pos = bisect_right(thresholds, sim)
    if pos == 0:
        return 0.0
    return rules[pos - 1][1]


def cached_match(cache: dict, cache_step: int, feature: str, block: int, t: int,
                 tokens, part: Partition, metric: str,
                 rng: np.random.Generator | None = None) -> tuple[MatchResult, bool]:
    """Match through `cache`, a dict a run keeps from (feature, block) to
    (result, step computed); returns (result, recomputed).

    An entry serves exactly the steps of the cache window whose first step,
    cache_step * floor(t / cache_step), computed it; any other lookup
    recomputes and stores the result with its step. In a loop of increasing
    t that recomputes at every multiple of the cache step.
    """
    key = (feature, block)
    entry = cache.get(key)
    if entry is None or entry[1] != t - t % cache_step:
        result = pairwise_best_match(tokens, part, metric, rng)
        cache[key] = (result, t)
        return result, True
    return entry[0], False


@dataclass(frozen=True)
class TuneStep:
    threshold: float
    rate: float
    good: bool


@dataclass(frozen=True)
class TuneResult:
    config: ScheduleConfig
    accepted: bool
    trace: tuple[TuneStep, ...]


#: oracle-call budget for the tuning walk; the procedure is designed to land
#: well within it on realistic quality responses
TUNE_MAX_CALLS = 10


def tune_schedule(quality_oracle, feature: str = "Q", **matching) -> TuneResult:
    """Walk threshold/rate space with a good/bad quality callback.

    Starting at threshold 0.5 and rate 0.3: while the oracle approves, raise
    the rate by 0.2 (stopping below 1.0); on a rejection, revert to the last
    approved rate, lift the threshold by 0.1, and try again. The walk ends
    when a rate fails a second time (lifting the threshold did not unlock it),
    when the threshold would exceed 0.9, or at the call budget; the last
    approved (threshold, rate) pair becomes the schedule. If the very first
    configuration is rejected, an identity schedule is returned, flagged.
    Every schedule carries the ScheduleConfig settings `matching`.

    The oracle must be deterministic per configuration.
    """

    def make_config(thr_tenths: int, rate_tenths: int) -> ScheduleConfig:
        return ScheduleConfig(rules={feature: [(thr_tenths / 10, rate_tenths / 10)]},
                              **matching)

    thr, rate = 5, 3
    last_good: tuple[int, int] | None = None
    failed_rates: set[int] = set()
    trace: list[TuneStep] = []

    for _ in range(TUNE_MAX_CALLS):
        good = bool(quality_oracle(make_config(thr, rate)))
        trace.append(TuneStep(threshold=thr / 10, rate=rate / 10, good=good))
        if good:
            last_good = (thr, rate)
            if rate + 2 >= 10:
                break
            rate += 2
        else:
            if last_good is None:
                return TuneResult(config=ScheduleConfig(**matching),
                                  accepted=False, trace=tuple(trace))
            if rate in failed_rates:
                break
            failed_rates.add(rate)
            rate = last_good[1]
            thr += 1
            if thr > 9:
                break

    assert last_good is not None
    return TuneResult(config=make_config(*last_good), accepted=True,
                      trace=tuple(trace))
