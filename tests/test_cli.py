import csv
import json
import time

import numpy as np
import pytest

from tokenrnr.cli import main
from tokenrnr.schedule import SimilarityProfile


SMALL_CFG = {"grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 2,
             "num_heads": 2, "num_timesteps": 4, "seed": 7}


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CFG))
    return str(path)


@pytest.fixture
def schedule_path(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({
        "Q": {"0.0": 0.8}, "V": {"0.0": 0.5},
        "cache_step": 2, "stride": [2, 2, 2], "metric": "neg_euclidean"}))
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestProfileCommand:
    def test_record_count_and_rerun_identity(self, cfg_path, tmp_path):
        out1 = tmp_path / "p1.json"
        out2 = tmp_path / "p2.json"
        assert main(["profile", "--config", cfg_path, "--out", str(out1)]) == 0
        assert main(["profile", "--config", cfg_path, "--out", str(out2)]) == 0
        profile = SimilarityProfile.from_file(out1)
        assert len(profile.records) == 4 * 2 * 4
        assert out1.read_bytes() == out2.read_bytes()

    def test_duplicates_raise_raw_similarity(self, tmp_path):
        means = {}
        for frac in (0.0, 0.6):
            cfg = tmp_path / f"c{frac}.json"
            cfg.write_text(json.dumps({
                "grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 1,
                "num_heads": 1, "num_timesteps": 2, "seed": 3,
                "duplicate_fraction": frac}))
            out = tmp_path / f"p{frac}.json"
            main(["profile", "--config", str(cfg), "--out", str(out)])
            prof = SimilarityProfile.from_file(out)
            means[frac] = np.mean([r.sim_raw for r in prof.records
                                   if r.feature == "H"])
        assert means[0.6] > means[0.0]

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["profile", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("field, payload", [
        ("grid_shape", {"grid_shape": "abc"}),
        ("num_blocks", {"num_blocks": "x"}),
        ("cache_step", {"schedule": {"cache_step": "five"}}),
        ("seed", {"seed": -1}),
        ("rope", {"rope": "no"}),
        ("profiling", {"profiling": 3}),
        ("cache_step", {"schedule": {"cache_step": True}}),
        ("num_heads", {"num_heads": True}),
        ("threshold", {"schedule": {"Q": {"NaN": 0.3}}}),
        ("threshold", {"schedule": {"Q": {"inf": 0.3}}}),
        ("rate", {"schedule": {"Q": {"0.5": "0.3"}}}),
        ("grid_shape", {"grid_shape": [1e300, 1, 1]}),
        # the default stride (2, 2, 2) leaves no complete chunk to match in
        ("stride", {"grid_shape": [1, 8, 8]}),
        ("stride", {"grid_shape": [2, 1, 8]}),
        # projection weights of 3 x num_blocks x feature_dim^2 entries (8 TiB)
        ("feature_dim", {"grid_shape": [1, 1, 1], "feature_dim": 1048576,
                         "num_blocks": 1, "num_heads": 1, "num_timesteps": 1}),
        # 8e7 (timestep, block) points: three weight objects and the records
        # of every point would be held at once
        ("num_blocks", {"grid_shape": [1, 1, 1], "feature_dim": 1,
                        "num_blocks": 80000000, "num_heads": 1,
                        "num_timesteps": 1, "rope": False}),
    ])
    def test_bad_field_value_exits_2(self, tmp_path, capsys, field, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**SMALL_CFG, **payload}))
        assert main(["profile", "--config", str(bad),
                     "--out", str(tmp_path / "x.json")]) == 2
        assert field in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["profile", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_invariant_violation_exits_3(self, cfg_path, tmp_path, monkeypatch):
        from tokenrnr.errors import InvariantError
        import tokenrnr.cli as cli_mod

        def boom(cfg):
            raise InvariantError("synthetic violation")

        monkeypatch.setattr(cli_mod, "unreduced_profile", boom)
        assert main(["profile", "--config", cfg_path,
                     "--out", str(tmp_path / "x.json")]) == 3


    def test_profile_runs_with_reduction_off(self, tmp_path, schedule_path):
        # an asymmetric scheduled config records the same profile as the
        # pre-run of its scheduled run, not a profile of the reduced run
        cfg = tmp_path / "asym.json"
        cfg.write_text(json.dumps({**SMALL_CFG, "rnr_mode": "asym"}))
        out = tmp_path / "p.json"
        assert main(["profile", "--config", str(cfg), "--schedule", schedule_path,
                     "--out", str(out)]) == 0
        plain = tmp_path / "plain.json"
        assert main(["profile", "--config", str(cfg), "--schedule", schedule_path,
                     "--mode", "none", "--out", str(plain)]) == 0
        assert out.read_bytes() == plain.read_bytes()


class TestBenchCommand:
    def test_empty_schedule_is_exact_noop(self, cfg_path, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--config", cfg_path, "--out", str(out),
                   "--repeat", "2", "--warmup", "0"])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 2
        base, sched = rows
        assert base["rnr_mode"] == "none"
        assert sched["max_row_deviation"] == "0.000000e+00"
        assert base["checksum"] == sched["checksum"]
        assert float(sched["speedup"]) > 0

    def test_scheduled_bench_reduces_macs(self, cfg_path, schedule_path, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--out", str(out), "--repeat", "1", "--warmup", "0"])
        assert rc == 0
        base, sched = read_csv(out)
        assert int(sched["total_macs"]) < int(base["total_macs"])
        assert sched["schedule_hash"] != "-"
        assert float(sched["max_row_deviation"]) > 0

    def test_config_schedule_is_benchmarked(self, tmp_path):
        # no --schedule flag: the schedule embedded in the config applies
        cfg = tmp_path / "sched_cfg.json"
        cfg.write_text(json.dumps({
            **SMALL_CFG, "rnr_mode": "asym",
            "schedule": {"Q": {"0.0": 0.5}, "V": {"0.0": 0.5}}}))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", str(cfg), "--out", str(out),
                     "--repeat", "1", "--warmup", "0"]) == 0
        base, sched = read_csv(out)
        assert int(sched["total_macs"]) < int(base["total_macs"])
        assert sched["checksum"] != base["checksum"]
        assert sched["schedule_hash"] != "-"

    def test_config_mode_is_benchmarked(self, tmp_path):
        sched_path = tmp_path / "q.json"
        sched_path.write_text(json.dumps({"Q": {"0.0": 0.5}}))
        macs = {}
        for mode in ("sym", "asym"):
            cfg = tmp_path / f"{mode}.json"
            cfg.write_text(json.dumps({**SMALL_CFG, "rnr_mode": mode}))
            out = tmp_path / f"{mode}.csv"
            assert main(["bench", "--config", str(cfg), "--schedule", str(sched_path),
                         "--out", str(out), "--repeat", "1", "--warmup", "0"]) == 0
            _, sched = read_csv(out)
            assert sched["rnr_mode"] == mode
            macs[mode] = int(sched["total_macs"])
        # symmetric mode also shortens K, V and the projections
        assert macs["sym"] < macs["asym"]

    def test_supplied_profile_is_used(self, cfg_path, schedule_path, tmp_path):
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", cfg_path, "--out", str(prof_path)])
        out = tmp_path / "bench.csv"
        report_path = tmp_path / "report.json"
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--profile", str(prof_path), "--out", str(out),
                   "--report", str(report_path),
                   "--repeat", "1", "--warmup", "0"])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert report["measured"] == report["predicted"]
        assert len(report["records"]) == 4 * 2

    def test_missing_profile_exits_2(self, cfg_path, schedule_path, tmp_path, capsys):
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--profile", str(tmp_path / "missing.json"),
                   "--out", str(tmp_path / "b.csv"), "--repeat", "1", "--warmup", "0"])
        assert rc == 2
        assert "missing.json" in capsys.readouterr().err

    def test_sym_run_with_h_only_profile_exits_2(self, cfg_path, tmp_path, capsys):
        # a symmetric run thresholds against the profile's Q similarity
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", cfg_path, "--out", str(prof_path)])
        payload = json.loads(prof_path.read_text())
        payload["metadata"]["features"] = ["H"]
        payload["records"] = [r for r in payload["records"] if r["feature"] == "H"]
        prof_path.write_text(json.dumps(payload))
        sched = tmp_path / "q.json"
        sched.write_text(json.dumps({"Q": {"0.0": 0.5}}))
        rc = main(["bench", "--config", cfg_path, "--schedule", str(sched),
                   "--mode", "sym", "--profile", str(prof_path),
                   "--out", str(tmp_path / "b.csv"), "--repeat", "1", "--warmup", "0"])
        assert rc == 2
        assert "profile lacks features ['Q']" in capsys.readouterr().err

    def test_lattice_mismatch_exits_2(self, cfg_path, schedule_path, tmp_path):
        other_cfg = tmp_path / "other.json"
        other_cfg.write_text(json.dumps({
            "grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 2,
            "num_heads": 2, "num_timesteps": 3, "seed": 7}))
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", str(other_cfg), "--out", str(prof_path)])
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--profile", str(prof_path),
                   "--out", str(tmp_path / "b.csv"),
                   "--repeat", "1", "--warmup", "0"])
        assert rc == 2

    def test_profile_schedule_mismatch_exits_2(self, cfg_path, tmp_path, capsys):
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", cfg_path, "--out", str(prof_path)])
        sched = tmp_path / "cosine.json"
        sched.write_text(json.dumps({"Q": {"0.0": 0.5}, "stride": [1, 2, 2],
                                     "metric": "cosine"}))
        rc = main(["bench", "--config", cfg_path, "--schedule", str(sched),
                   "--profile", str(prof_path), "--out", str(tmp_path / "b.csv"),
                   "--repeat", "1", "--warmup", "0"])
        assert rc == 2
        assert "profile was recorded with metric" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, raw", [
        ("metadata", "num_timesteps", "1e999"),
        ("record", "t", "0.7"),
        ("metadata", "metric", '"bogus"'),
        ("metadata", "stride", '"ab"'),
        ("record", "sim_std", '"nan"'),
        ("record", "sim_std", "NaN"),
        ("metadata", "features", '"HQKV"'),
        ("metadata", "features", '["H", "Q", "K", "V", "V"]'),
        ("metadata", "num_timesteps", "-3"),
        # rejected by the record count before any lattice set is built
        ("metadata", "num_timesteps", "1000000000"),
    ])
    def test_bad_profile_value_exits_2(self, cfg_path, schedule_path, tmp_path,
                                       section, key, raw, capsys):
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", cfg_path, "--out", str(prof_path)])
        payload = json.loads(prof_path.read_text())
        target = payload["metadata"] if section == "metadata" else payload["records"][0]
        target[key] = "RAW"
        prof_path.write_text(json.dumps(payload).replace('"RAW"', raw))
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--profile", str(prof_path), "--out", str(tmp_path / "b.csv"),
                   "--repeat", "1", "--warmup", "0"])
        assert rc == 2
        assert key in capsys.readouterr().err


class TestAblateCommand:
    def test_metric_sweep_mechanics(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [4, 8, 8], "feature_dim": 8, "num_blocks": 1,
            "num_heads": 1, "num_timesteps": 2, "seed": 5,
            "duplicate_fraction": 0.5}))
        out = tmp_path / "metric.csv"
        assert main(["ablate", "--dimension", "metric", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["value"] for r in rows] == ["neg_euclidean", "cosine", "dot",
                                              "random"]
        macs = {r["value"]: int(r["total_macs"]) for r in rows}
        # the random baseline does no arithmetic during matching
        assert macs["random"] < macs["neg_euclidean"]
        assert all(np.isfinite(float(r["kl_score"])) for r in rows)

    def test_cache_step_sweep_invocation_counts(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 2,
            "num_heads": 1, "num_timesteps": 6, "seed": 2}))
        out = tmp_path / "cache.csv"
        assert main(["ablate", "--dimension", "cache_step", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        got = {int(r["value"]): int(r["bsm_per_feature_block"]) for r in rows}
        assert got == {1: 6, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1}

    def test_stride_sweep_reproduces_destination_ratios(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [13, 30, 45], "feature_dim": 6, "num_blocks": 1,
            "num_heads": 1, "num_timesteps": 1, "seed": 3}))
        out = tmp_path / "stride.csv"
        assert main(["ablate", "--dimension", "stride", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        expected = {"1x2x2": 24.44, "2x2x2": 11.28, "3x2x2": 7.52,
                    "4x2x2": 5.64, "2x3x3": 5.13, "2x4x4": 2.63}
        for row in rows:
            assert abs(float(row["dst_ratio_pct"]) - expected[row["value"]]) <= 0.005

    def test_feature_and_reduce_op_sweeps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 1,
            "num_heads": 1, "num_timesteps": 2, "seed": 2}))
        out = tmp_path / "feat.csv"
        assert main(["ablate", "--dimension", "feature", "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = {r["value"]: int(r["total_macs"]) for r in read_csv(out)}
        assert rows["Q+V"] < rows["Q"]
        out2 = tmp_path / "op.csv"
        assert main(["ablate", "--dimension", "reduce_op", "--config", str(cfg),
                     "--out", str(out2)]) == 0
        assert [r["value"] for r in read_csv(out2)] == ["discard", "mean"]

    def test_stride_sweep_on_short_grid_exits_2(self, tmp_path, capsys):
        # strides 3x2x2 and 4x2x2 leave no complete chunk on 2 frames
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [2, 8, 8], "feature_dim": 8, "num_blocks": 1,
            "num_heads": 1, "num_timesteps": 1, "seed": 1}))
        assert main(["ablate", "--dimension", "stride", "--config", str(cfg),
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert "no complete chunk" in capsys.readouterr().err

    def test_wall_ms_excludes_the_profile_pre_run(self, tmp_path, monkeypatch):
        import tokenrnr.cli as cli_mod
        real = cli_mod.unreduced_profile

        def slow_profile(cfg):
            time.sleep(0.5)
            return real(cfg)

        monkeypatch.setattr(cli_mod, "unreduced_profile", slow_profile)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "grid_shape": [2, 4, 4], "feature_dim": 8, "num_blocks": 1,
            "num_heads": 1, "num_timesteps": 2, "seed": 2}))
        out = tmp_path / "feat.csv"
        assert main(["ablate", "--dimension", "feature", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert all(float(r["wall_ms"]) < 500.0 for r in read_csv(out))

    def test_unknown_dimension_exits_2(self, cfg_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["ablate", "--dimension", "learning_rate", "--config", cfg_path,
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestKlcheckCommand:
    def test_small_scale_report(self, tmp_path):
        out = tmp_path / "kl.json"
        rc = main(["klcheck", "--dim", "3", "--samples", "400", "--seeds", "3",
                   "--sweep-seeds", "2", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["mean_shift"]["closed_form"] == 0.5
        assert np.isfinite(report["mean_shift"]["estimate_mean"])
        assert set(report["bias_sweep_mean_abs_error"]) == {"500", "1000",
                                                            "2000", "4000"}

    @pytest.mark.parametrize("argv", [
        ["--dim", "10000000"],
        ["--dim", "2", "--samples", "134217729"],
        ["--dim", "67109", "--samples", "2"],  # 4000 sweep samples x 67109 > 2^28
    ], ids=" ".join)
    def test_oversized_sample_matrix_exits_2_before_any_draw(
            self, tmp_path, monkeypatch, capsys, argv):
        import tokenrnr.cli as cli
        draws = []
        monkeypatch.setattr(cli, "make_rng", draws.append)
        out = tmp_path / "kl.json"
        assert main(["klcheck", *argv, "--out", str(out)]) == 2
        assert draws == [] and not out.exists()
        err = capsys.readouterr().err
        assert "--samples" in err and "--dim" in err


class TestNormstatsCommand:
    def test_schema_one_row_per_lattice_point(self, cfg_path, tmp_path):
        out = tmp_path / "norms.csv"
        assert main(["normstats", "--config", cfg_path, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4 * 2 * 2  # steps x blocks x {H, V}
        keys = {(r["feature"], r["t"], r["b"]) for r in rows}
        assert len(keys) == len(rows)
        assert all(float(r["p5"]) <= float(r["p50"]) <= float(r["p95"])
                   <= float(r["p99"]) for r in rows)

    def test_unwritable_out_exits_2(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "no_such_dir" / "norms.csv"
        assert main(["normstats", "--config", cfg_path, "--out", str(out)]) == 2
        assert "no_such_dir" in capsys.readouterr().err

    def test_step_filter(self, cfg_path, tmp_path):
        out = tmp_path / "norms.csv"
        assert main(["normstats", "--config", cfg_path, "--steps", "0,2",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert {r["t"] for r in rows} == {"0", "2"}


@pytest.fixture
def pipeline_calls(monkeypatch):
    """Every run_pipeline call the CLI makes, each still run."""
    import tokenrnr.cli as cli
    calls = []
    real = cli.run_pipeline

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_pipeline", counted)
    return calls


class TestOutputsCheckedFirst:
    @pytest.mark.parametrize("command", [
        ["normstats"],
        ["bench", "--repeat", "1", "--warmup", "0"],
        ["ablate", "--dimension", "reduce_op"],
    ])
    def test_out_in_missing_dir_exits_2_before_any_run(
            self, cfg_path, tmp_path, pipeline_calls, capsys, command):
        out = tmp_path / "no_such_dir" / "out.csv"
        assert main([*command, "--config", cfg_path, "--out", str(out)]) == 2
        assert pipeline_calls == []
        err = capsys.readouterr().err
        assert err.startswith("file error:") and "no_such_dir" in err
        assert not out.parent.exists()

    def test_report_in_missing_dir_exits_2_before_any_run(
            self, cfg_path, tmp_path, pipeline_calls, capsys):
        report = tmp_path / "no_such_dir" / "report.json"
        assert main(["bench", "--config", cfg_path, "--out", str(tmp_path / "b.csv"),
                     "--report", str(report), "--repeat", "1", "--warmup", "0"]) == 2
        assert pipeline_calls == []
        assert not (tmp_path / "b.csv").exists()
        assert "no_such_dir" in capsys.readouterr().err

    def test_out_that_is_a_directory_exits_2(self, cfg_path, tmp_path, capsys):
        assert main(["profile", "--config", cfg_path, "--out", str(tmp_path)]) == 2
        assert "Is a directory" in capsys.readouterr().err

    def test_existing_out_is_overwritten(self, cfg_path, tmp_path):
        out = tmp_path / "norms.csv"
        out.write_text("stale\n")
        assert main(["normstats", "--config", cfg_path, "--out", str(out)]) == 0
        assert read_csv(out)[0]["schema_version"] == "1"


class TestFlagsAndPaths:
    def test_seed_flag_overrides_the_config_seed(self, cfg_path, tmp_path):
        seeded_cfg = tmp_path / "seed8.json"
        seeded_cfg.write_text(json.dumps({**SMALL_CFG, "seed": 8}))
        outs = {name: tmp_path / f"{name}.json" for name in ("flag", "config", "own")}
        assert main(["profile", "--config", cfg_path, "--seed", "8",
                     "--out", str(outs["flag"])]) == 0
        assert main(["profile", "--config", str(seeded_cfg),
                     "--out", str(outs["config"])]) == 0
        assert main(["profile", "--config", cfg_path, "--out", str(outs["own"])]) == 0
        assert outs["flag"].read_bytes() == outs["config"].read_bytes()
        assert outs["flag"].read_bytes() != outs["own"].read_bytes()

    def test_bench_warmup_runs_are_extra_and_unrecorded(self, cfg_path, tmp_path,
                                                       pipeline_calls):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", cfg_path, "--out", str(out),
                     "--repeat", "2", "--warmup", "1"]) == 0
        # (1 warmup + 2 timed) for the baseline, then for the scheduled run
        assert [c.rnr_mode for c in pipeline_calls] == ["none"] * 3 + ["asym"] * 3
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--repeat", "0"],
        ["bench", "--warmup", "-1"],
        ["klcheck", "--dim", "0"],
        ["klcheck", "--dim", "-1"],
        ["klcheck", "--samples", "1"],
        ["klcheck", "--seeds", "0"],
        ["klcheck", "--sweep-seeds", "0"],
        ["klcheck", "--seed-base", "-1"],
    ], ids=" ".join)
    def test_out_of_range_number_exits_2_before_any_run(
            self, cfg_path, schedule_path, tmp_path, monkeypatch, pipeline_calls,
            capsys, argv):
        import tokenrnr.cli as cli
        profiled = []
        monkeypatch.setattr(cli, "unreduced_profile", profiled.append)
        out = tmp_path / "out"
        if argv[0] == "bench":
            argv = [*argv, "--config", cfg_path, "--schedule", schedule_path]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--out", str(out)])
        assert err.value.code == 2
        assert pipeline_calls == [] and profiled == [] and not out.exists()
        assert f"argument {argv[1]}: must be >=" in capsys.readouterr().err

    def test_bad_steps_exit_2_before_the_run(self, cfg_path, tmp_path,
                                             pipeline_calls, capsys):
        assert main(["normstats", "--config", cfg_path, "--steps", "a,b",
                     "--out", str(tmp_path / "n.csv")]) == 2
        assert pipeline_calls == []
        assert "--steps" in capsys.readouterr().err

    def test_profile_repeating_a_lattice_point_exits_2(self, cfg_path, schedule_path,
                                                       tmp_path, capsys):
        prof_path = tmp_path / "prof.json"
        main(["profile", "--config", cfg_path, "--out", str(prof_path)])
        payload = json.loads(prof_path.read_text())
        # the record count still matches; (H, 0, 1) is missing, (H, 0, 0) twice
        first, second = payload["records"][:2]
        assert (first["feature"], first["t"], first["b"]) == ("H", 0, 0)
        assert (second["feature"], second["t"], second["b"]) == ("H", 0, 1)
        second["b"] = 0
        prof_path.write_text(json.dumps(payload))
        rc = main(["bench", "--config", cfg_path, "--schedule", schedule_path,
                   "--profile", str(prof_path), "--out", str(tmp_path / "b.csv"),
                   "--repeat", "1", "--warmup", "0"])
        assert rc == 2
        assert "do not cover" in capsys.readouterr().err

    def test_config_profiling_flag_is_ignored(self, tmp_path, schedule_path):
        macs = []
        for profiling in (False, True):
            cfg = tmp_path / f"profiling_{profiling}.json"
            cfg.write_text(json.dumps({**SMALL_CFG, "profiling": profiling}))
            out = tmp_path / f"b_{profiling}.csv"
            assert main(["bench", "--config", str(cfg), "--schedule", schedule_path,
                         "--out", str(out), "--repeat", "1", "--warmup", "0"]) == 0
            macs.append([row["total_macs"] for row in read_csv(out)])
        assert macs[0] == macs[1]

    def test_bench_report_carries_norm_records(self, tmp_path):
        cfg = tmp_path / "norms.json"
        cfg.write_text(json.dumps({**SMALL_CFG, "collect_norms": True}))
        report_path = tmp_path / "report.json"
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "b.csv"),
                     "--report", str(report_path), "--repeat", "1", "--warmup", "0"]) == 0
        records = json.loads(report_path.read_text())["norm_records"]
        assert len(records) == 4 * 2 * 2  # steps x blocks x {H, V}
        assert list(records[0]) == ["feature", "t", "b", "p5", "p50", "p95", "p99"]


class TestSchemaVersion:
    """Every file the CLI reads must declare schema_version 1 or none."""

    @staticmethod
    def bench(tmp_path, cfg, schedule=None, profile=None):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["bench", "--config", str(cfg_path), "--out", str(tmp_path / "b.csv"),
                "--repeat", "1", "--warmup", "0"]
        if schedule is not None:
            (tmp_path / "sched.json").write_text(json.dumps(schedule))
            argv += ["--schedule", str(tmp_path / "sched.json")]
        if profile is not None:
            (tmp_path / "prof.json").write_text(json.dumps(profile))
            argv += ["--profile", str(tmp_path / "prof.json")]
        return main(argv)

    @staticmethod
    def versioned(payload, version):
        payload = {k: v for k, v in payload.items() if k != "schema_version"}
        return payload if version is None else {"schema_version": version, **payload}

    @pytest.fixture
    def profile(self, cfg_path, tmp_path):
        path = tmp_path / "recorded.json"
        main(["profile", "--config", cfg_path, "--out", str(path)])
        return json.loads(path.read_text())

    SCHEDULE = {"Q": {"0.0": 0.8}, "V": {"0.0": 0.5}, "cache_step": 2}

    def cases(self, version, profile):
        def v(payload):
            return self.versioned(payload, version)

        return {
            "config": dict(cfg=v(SMALL_CFG)),
            "schedule": dict(cfg=SMALL_CFG, schedule=v(self.SCHEDULE)),
            "embedded": dict(cfg={**SMALL_CFG, "rnr_mode": "asym",
                                  "schedule": v(self.SCHEDULE)}),
            "profile": dict(cfg=SMALL_CFG, schedule=self.SCHEDULE, profile=v(profile)),
        }

    @pytest.mark.parametrize("case", ["config", "schedule", "embedded", "profile"])
    def test_version_2_exits_2(self, tmp_path, profile, capsys, case):
        assert self.bench(tmp_path, **self.cases(2, profile)[case]) == 2
        assert "schema_version must be 1, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["config", "schedule", "embedded", "profile"])
    def test_version_1_or_none_reads_the_same(self, tmp_path, profile, case):
        outputs = []
        for version in (1, None):
            assert self.bench(tmp_path, **self.cases(version, profile)[case]) == 0
            rows = read_csv(tmp_path / "b.csv")
            outputs.append([(r["config_id"], r["schedule_hash"], r["checksum"])
                            for r in rows])
        assert outputs[0] == outputs[1]
