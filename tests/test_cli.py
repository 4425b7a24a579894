import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import vmbpbb
from vmbpbb import PipelineConfig, Resample, SeedSpec, run_grid, run_pipeline, simulation
from vmbpbb.cli import main
from vmbpbb.csvio import read_rows, read_series_csv, write_rows_csv
from vmbpbb.errors import CsvFormatError


@pytest.fixture
def runner():
    return CliRunner()


def write_series(path, values, start=0):
    write_rows_csv(path, ["t", "value"], [range(start, start + len(values)), np.asarray(values, dtype=float)])


def two_sine_csv(path, n=1000):
    t = np.arange(n)
    write_series(path, np.sin(2 * np.pi * t / 50) + np.sin(2 * np.pi * t / 100))


def read_columns(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "series.csv"
        values = [1.0, -2.5, 1 / 3, 1e-17]
        write_series(path, values, start=7)
        series = read_series_csv(path)
        np.testing.assert_array_equal(series.values, values)
        assert series.start_index == 7

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CsvFormatError):
            read_series_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,val\n0,1\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            read_series_csv(path)

    def test_gap_in_time_column(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,value\n0,1.0\n2,2.0\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            read_series_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,value\n0,abc\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            read_series_csv(path)


class TestFilterCommand:
    def test_periods_mode_recovers_sines(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src)
        out = tmp_path / "components.csv"
        result = runner.invoke(main, ["filter", str(src), "--periods", "50,100", "-o", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = read_columns(out)
        assert header == ["t", "p50", "p100"]
        t = np.arange(1000)
        c1 = np.array([float(r[1]) for r in rows])
        interior = slice(100, 900)
        rms = np.sqrt(np.mean((c1[interior] - np.sin(2 * np.pi * t[interior] / 50)) ** 2))
        assert rms <= 0.05
        assert (tmp_path / "components.csv.manifest.json").exists()

    def test_explicit_spec_passthrough(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=600)
        out = tmp_path / "explicit.csv"
        result = runner.invoke(main, ["filter", str(src), "--spec", "m=201,k=1,nu=0.02", "-o", str(out)])
        assert result.exit_code == 0, result.output
        header, rows = read_columns(out)
        assert header == ["t", "m201_k1_nu0.02"]
        assert len(rows) == 600

    def test_empty_input_is_data_error(self, runner, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("")
        result = runner.invoke(main, ["filter", str(src), "--periods", "50", "-o", str(tmp_path / "x.csv")])
        assert result.exit_code == 3
        assert "error:data:" in result.output

    def test_periods_and_spec_conflict(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=300)
        result = runner.invoke(
            main,
            ["filter", str(src), "--periods", "50", "--spec", "m=3,k=1", "-o", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert "error:config:" in result.output

    @pytest.mark.parametrize("args,window", [
        (["--periods", "24,25"], "m=1201"),
        (["--periods", "60"], "m=121"),
        (["--spec", "m=201,k=1,nu=0.02"], "m=201"),
    ])
    def test_window_wider_than_series_is_config_error(self, runner, tmp_path, args, window):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=100)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["filter", str(src), *args, "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert window in result.stderr and "n=100" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_spec_beyond_float_range_is_config_error(self, runner, tmp_path):
        # 3**700 overflows a float, so the weights 1/m**k cannot be formed.
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=300)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["filter", str(src), "--spec", "m=3,k=700", "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()


    @pytest.mark.parametrize("narrow_factor", ["inf", "nan"])
    def test_unbounded_narrow_factor_is_config_error(self, runner, tmp_path, narrow_factor):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=300)
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["filter", str(src), "--periods", "50,100",
                                      "--narrow-factor", narrow_factor, "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config: narrow_factor")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()


class TestRunCommand:
    def test_byte_identical_reruns(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=400)
        args = [str(src), "--periods", "50,100", "--resamples", "25", "--seed", "11"]
        for sub in ("a", "b"):
            result = runner.invoke(main, ["run", *args, "-o", str(tmp_path / sub)])
            assert result.exit_code == 0, result.output
        for name in ("aggregate.csv", "component_p50.csv", "component_p100.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["master_seed"] == 11
        assert manifest["command"] == "run"

    @pytest.mark.parametrize("resample", ["components", "series"])
    def test_resamples_beyond_32_bits_is_config_error(self, runner, tmp_path, resample):
        # Fails on the resample count before any stream or estimate array is built.
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=400)
        out = tmp_path / "x"
        result = runner.invoke(main, ["run", str(src), "--periods", "50,100", "-B", "4294967296",
                                      "--resample", resample, "--seed", "1", "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert "4294967296" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_pbb_band_visibly_wider(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        rng = np.random.default_rng(0)
        t = np.arange(1000)
        write_series(src, np.sin(2 * np.pi * t / 50) + np.sin(2 * np.pi * t / 100)
                     + rng.normal(0, np.sqrt(10), 1000))
        widths = {}
        for mode in ("pbb", "vmbpbb"):
            out = tmp_path / mode
            result = runner.invoke(main, [
                "run", str(src), "--periods", "50,100", "--mode", mode,
                "--resamples", "60", "--seed", "5", "-o", str(out),
            ])
            assert result.exit_code == 0, result.output
            _, rows = read_columns(out / "aggregate.csv")
            widths[mode] = np.array([float(r[3]) - float(r[1]) for r in rows])
        assert np.median(widths["pbb"] / widths["vmbpbb"]) > 2.0

    def test_alpha_monotonicity(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        rng = np.random.default_rng(1)
        write_series(src, rng.normal(size=200))
        widths = {}
        for alpha in ("0.05", "0.5"):
            out = tmp_path / f"alpha{alpha}"
            result = runner.invoke(main, [
                "run", str(src), "--periods", "10", "--mode", "pbb",
                "--resamples", "50", "--seed", "5", "--alpha", alpha, "-o", str(out),
            ])
            assert result.exit_code == 0, result.output
            _, rows = read_columns(out / "aggregate.csv")
            widths[alpha] = np.array([float(r[3]) - float(r[1]) for r in rows])
        assert np.all(widths["0.5"] <= widths["0.05"] + 1e-12)

    def test_missing_seed_is_config_error(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=300)
        result = runner.invoke(main, ["run", str(src), "--periods", "50", "-o", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_period_exceeding_length_is_config_error(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        write_series(src, np.arange(20.0))
        result = runner.invoke(
            main, ["run", str(src), "--periods", "50", "--seed", "1", "-o", str(tmp_path / "x")]
        )
        assert result.exit_code == 2
        assert "error:config:" in result.output

    # On 100 samples: the (24, 25) windows have m = 1201, two cycles of 60 need
    # 120 samples, and PBB designs (and so checks) VMBPBB's filters too.
    @pytest.mark.parametrize("extra", [
        ["--periods", "24,25"],
        ["--periods", "60"],
        ["--periods", "60", "--mode", "pbb"],
        ["--periods", "10", "--mode", "pbb", "--narrow-factor", "0.5"],
        ["--periods", "10", "--narrow-factor", "inf"],
        ["--periods", "10", "--narrow-factor", "nan"],
    ], ids=["window-wider-than-series", "one-cycle", "one-cycle-pbb", "narrow-factor-below-one-pbb",
            "narrow-factor-inf", "narrow-factor-nan"])
    def test_series_too_short_for_config_is_config_error(self, runner, tmp_path, extra):
        src = tmp_path / "input.csv"
        write_series(src, np.random.default_rng(0).normal(size=100))
        out = tmp_path / "x"
        result = runner.invoke(main, ["run", str(src), *extra, "--seed", "1", "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_pbb_runs_where_the_vmbpbb_window_does_not_fit(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        values = np.random.default_rng(0).normal(size=100)
        write_series(src, values - values.mean())
        out = tmp_path / "pbb"
        result = runner.invoke(main, ["run", str(src), "--periods", "24,25", "--mode", "pbb",
                                      "--seed", "1", "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "aggregate.csv").exists()

    def test_resample_series_runs_library_band_and_is_recorded(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        rng = np.random.default_rng(3)
        t = np.arange(400)
        values = np.sin(2 * np.pi * t / 20) + np.sin(2 * np.pi * t / 50) + rng.normal(0, 1, 400)
        write_series(src, values - values.mean())
        args = [str(src), "--periods", "20,50", "--resamples", "20", "--seed", "4"]
        for choice in ("components", "series"):
            result = runner.invoke(main, ["run", *args, "--resample", choice, "-o", str(tmp_path / choice)])
            assert result.exit_code == 0, result.output
            manifest = json.loads((tmp_path / choice / "manifest.json").read_text())
            assert manifest["config"]["resample"] == choice
        cfg = PipelineConfig(periods=(20, 50), resamples=20, seed=SeedSpec(4), resample=Resample.SERIES)
        expected = run_pipeline(read_series_csv(src), cfg).aggregate_band
        _, rows = read_columns(tmp_path / "series" / "aggregate.csv")
        np.testing.assert_array_equal([float(r[1]) for r in rows], expected.lower)
        np.testing.assert_array_equal([float(r[3]) for r in rows], expected.upper)
        assert ((tmp_path / "series" / "aggregate.csv").read_bytes()
                != (tmp_path / "components" / "aggregate.csv").read_bytes())

    def test_resample_series_short_series_is_config_error(self, runner, tmp_path):
        src = tmp_path / "input.csv"
        two_sine_csv(src, n=400)
        # lcm(30, 70) = 210 needs n >= 420
        result = runner.invoke(main, ["run", str(src), "--periods", "30,70", "--seed", "1",
                                      "--resample", "series", "-o", str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "error:config:" in result.output


class TestSimulateAndReport:
    @pytest.fixture
    def grid_outputs(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25],
            "snrs": [[1, 2], [1, 10]],
            "n": 200,
            "resamples": 12,
            "reps": 3,
            "seed": 9,
        }))
        out = tmp_path / "sim"
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(out)])
        assert result.exit_code == 0, result.output
        return tmp_path, out

    def test_outputs_exist(self, grid_outputs):
        _, out = grid_outputs
        for name in ("table1.csv", "table2.csv", "coverage.csv", "cells.csv", "reps.csv", "manifest.json"):
            assert (out / name).exists()

    def test_table_shape_and_asterisk(self, grid_outputs):
        _, out = grid_outputs
        header, rows = read_columns(out / "table1.csv")
        assert header == ["snr", "period", "10", "25"]
        assert len(rows) == 2 * 2  # one row per period per snr block
        diag = [r[2] for r in rows if r[1] == "10"]
        assert all(cell == "" for cell in diag)
        _, rows2 = read_columns(out / "table2.csv")
        starred = [r for r in rows2 if r[0] == "1:2" and r[1] == "10"]
        assert starred[0][3].endswith("*")
        unstarred = [r for r in rows2 if r[0] == "1:10" and r[1] == "10"]
        assert not unstarred[0][3].endswith("*")

    def test_reps_log_has_all_rows(self, grid_outputs):
        _, out = grid_outputs
        _, rows = read_columns(out / "reps.csv")
        assert len(rows) == 2 * 3  # cells x reps

    def test_report_round_trips_tables(self, runner, grid_outputs):
        tmp_path, out = grid_outputs
        rep_out = tmp_path / "reported"
        result = runner.invoke(main, ["report", str(out / "reps.csv"), "-o", str(rep_out)])
        assert result.exit_code == 0, result.output
        for name in ("table1.csv", "table2.csv", "coverage.csv", "cells.csv"):
            assert (rep_out / name).read_bytes() == (out / name).read_bytes()

    def test_report_round_trips_tables_with_configured_narrowing(self, runner, tmp_path):
        # narrow_factor 2 narrows every cell, not only the paper-faithful (10, 25) one.
        # n = 201 fits the doubled (25, 50) window, m = 201.
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25, 50], "snrs": [[1, 2]], "n": 201,
            "resamples": 6, "reps": 2, "seed": 5, "narrow_factor": 2.0,
        }))
        out, rep_out = tmp_path / "sim", tmp_path / "reported"
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["report", str(out / "reps.csv"), "-o", str(rep_out)])
        assert result.exit_code == 0, result.output
        for name in ("table1.csv", "table2.csv", "coverage.csv", "cells.csv"):
            assert (rep_out / name).read_bytes() == (out / name).read_bytes()
        _, rows = read_columns(out / "cells.csv")
        assert [r[5] for r in rows] == ["1", "1", "1"]

    def test_thread_count_does_not_change_outputs(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 200,
            "resamples": 10, "reps": 4, "seed": 3,
        }))
        outputs = {}
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            result = runner.invoke(main, [
                "simulate", "--config", str(config), "--threads", threads, "-o", str(out),
            ])
            assert result.exit_code == 0, result.output
            outputs[threads] = (out / "reps.csv").read_bytes()
        assert outputs["1"] == outputs["2"]

    @pytest.mark.parametrize("args,env", [
        ([], {"VMBPBB_THREADS": "abc"}),
        (["--threads", "0"], {}),
        (["--threads", "-3"], {}),
    ], ids=["env-not-integer", "zero", "negative"])
    def test_bad_thread_count_is_config_error(self, runner, tmp_path, args, env):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 100, "resamples": 4, "reps": 1, "seed": 3,
        }))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), *args, "-o", str(out)], env=env)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("snrs", [[1]]),
        ("snrs", 5),
        ("n", None),
        ("paper_faithful", "no"),
        ("seed", 1.7),
        ("n", 200.9),
        ("snrs", []),
    ], ids=["snr-not-a-pair", "snrs-not-a-list", "n-null", "paper-faithful-string",
            "seed-float", "n-float", "snrs-empty"])
    def test_malformed_grid_config_is_config_error(self, runner, tmp_path, key, value):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 100, "resamples": 4, "reps": 1, "seed": 3,
            key: value,
        }))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config:")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_unbounded_narrow_factor_is_config_error(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        # 1e308 * 2 / d overflows; at SNR 1:10 no cell is auto-narrowed to 2.
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 10]], "n": 100, "resamples": 4, "reps": 1, "seed": 3,
            "narrow_factor": 1e308,
        }))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error:config: cell (10, 25)")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_single_resample_fails_before_the_pool_starts(self, runner, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the process pool must not start")

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 100, "resamples": 1, "reps": 2, "seed": 3,
        }))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), "--threads", "2",
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:config:")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_duplicate_periods_is_config_error(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"periods": [10, 10], "snrs": [[1, 2]], "seed": 1}))
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(tmp_path / "x")])
        assert result.exit_code == 2

    def test_resample_series_runs_series_grid_and_is_recorded(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 200,
            "resamples": 10, "reps": 2, "seed": 3,
        }))
        out = tmp_path / "series"
        result = runner.invoke(main, ["simulate", "--config", str(config), "--resample", "series",
                                      "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads((out / "manifest.json").read_text())["config"]["resample"] == "series"
        (cell,) = run_grid([10, 25], [[1, 5]], n=200, resamples=10, reps=2, seed=SeedSpec(3),
                           resample=Resample.SERIES)
        _, rows = read_columns(out / "reps.csv")
        assert [float(r[8]) for r in rows] == [rec.outside_vmbpbb for rec in cell.records]
        assert [float(r[6]) for r in rows] == [rec.ci_ratio for rec in cell.records]

    def test_resample_series_checks_every_cell_before_running(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        # (10, 25) fits n = 300, but lcm(7, 25) = 175 needs n >= 350
        config.write_text(json.dumps({"periods": [10, 25, 7], "snrs": [[1, 2]], "n": 300, "seed": 1}))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), "--resample", "series",
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert "error:config:" in result.output
        assert not out.exists()

    def test_filter_window_wider_than_series_is_config_error(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        # (10, 25) and (10, 50) fit n = 120, but the doubled (25, 50) window has m = 201.
        config.write_text(json.dumps({"periods": [10, 25, 50], "snrs": [[1, 2]], "n": 120,
                                      "narrow_factor": 2, "seed": 1}))
        out = tmp_path / "x"
        result = runner.invoke(main, ["simulate", "--config", str(config), "-o", str(out)])
        assert result.exit_code == 2
        assert result.stderr.startswith("error:config: cell (25, 50)")
        assert "m=201" in result.stderr and "n=120" in result.stderr
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_paper_scale_warns_and_proceeds(self, runner, tmp_path):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 2]], "n": 100,
            "resamples": 8, "reps": 2, "seed": 9,
        }))
        out = tmp_path / "paper"
        result = runner.invoke(main, ["simulate", "--config", str(config), "--scale", "paper", "-o", str(out)])
        assert result.exit_code == 0, result.output
        assert "warning: paper scale" in result.output
        assert (out / "table1.csv").exists()


class TestTransferCommand:
    def test_common_zero_across_k(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        args = ["transfer", "-o", str(out), "--grid", "0:0.5:6"]
        for k in range(1, 6):
            args += ["--spec", f"m=5,k={k}"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        header, rows = read_columns(out)
        assert header == ["m", "k", "nu", "lambda", "energy"]
        at_fifth = [float(r[4]) for r in rows if float(r[3]) == pytest.approx(0.2)]
        assert len(at_fifth) == 5
        assert all(e <= 1e-12 for e in at_fifth)

    def test_first_zeros_shift_with_m(self, runner, tmp_path):
        out = tmp_path / "fig3.csv"
        args = ["transfer", "-o", str(out), "--grid", "0:0.5:2001"]
        for m in (5, 11, 21, 41, 81):
            args += ["--spec", f"m={m},k=1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        header, rows = read_columns(out)
        grid = sorted({float(r[3]) for r in rows})
        for m in (5, 11, 21, 41, 81):
            curve = np.array([v for _, v in sorted(
                (float(r[3]), float(r[4])) for r in rows if int(r[0]) == m
            )])
            # first local minimum of the sampled curve sits at the first zero
            descending = np.flatnonzero(np.diff(curve) > 0)
            first_zero = grid[descending[0]]
            assert first_zero == pytest.approx(1.0 / m, abs=0.5 / 2000)

    def test_two_filter_separation(self, runner, tmp_path):
        out = tmp_path / "fig5.csv"
        result = runner.invoke(main, [
            "transfer", "-o", str(out), "--grid", "0:0.05:51",
            "--spec", "m=201,k=1,nu=0.02", "--spec", "m=201,k=1,nu=0.01",
        ])
        assert result.exit_code == 0, result.output
        _, rows = read_columns(out)
        for nu, other in ((0.02, 0.01), (0.01, 0.02)):
            curve = {float(r[3]): float(r[4]) for r in rows if float(r[2]) == nu}
            assert curve[other] < 0.05

    def test_round_trip_precision(self, runner, tmp_path):
        out = tmp_path / "curves.csv"
        result = runner.invoke(main, ["transfer", "-o", str(out), "--spec", "m=7,k=2,nu=0.1", "--grid", "0:0.5:11"])
        assert result.exit_code == 0, result.output
        from vmbpbb import energy_transfer

        _, rows = read_columns(out)
        for row in rows:
            lam, energy = float(row[3]), float(row[4])
            assert energy == energy_transfer(lam, 7, 2, 0.1)


def test_version_is_the_same_everywhere(runner, tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert "version" in tomllib.load(fh)["project"]["dynamic"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        packaged = pyprojecttoml.read_configuration(pyproject)["project"]["version"]
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    out = tmp_path / "curve.csv"
    assert runner.invoke(main, ["transfer", "--spec", "m=3,k=1", "-o", str(out)]).exit_code == 0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert result.output == f"vmbpbb, version {vmbpbb.__version__}\n"
    assert manifest["version"] == packaged == vmbpbb.__version__



@pytest.mark.parametrize("command,extra", [
    ("filter", ["--periods", "2"]),
    ("run", ["--periods", "2", "--seed", "1"]),
    ("report", []),
])
def test_non_utf8_input_is_data_error(runner, tmp_path, command, extra):
    src = tmp_path / "latin1.csv"
    header = ",".join(simulation.REPS_HEADER) if command == "report" else "t,value"
    src.write_bytes(header.encode() + b"\n0,1.5\n1,caf\xe9\n")
    out = tmp_path / ("out.csv" if command == "filter" else "out")
    result = runner.invoke(main, [command, str(src), *extra, "-o", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error:data: latin1.csv: not UTF-8 text")
    assert len(result.stderr.splitlines()) == 1


REPS_ROW = "1,2,10,25,1,0,1.5,0.1,0.2,90,95"


@pytest.mark.parametrize("text,where", [
    ("snr,noise\n" + REPS_ROW + "\n", "reps.csv line 1: expected header"),
    (",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW + "\n" + REPS_ROW.rsplit(",", 1)[0] + "\n",
     "reps.csv line 3: expected 11 columns, got 10"),
    (",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW.replace("1.5", "wide") + "\n",
     "reps.csv line 2: could not convert"),
    (",".join(simulation.REPS_HEADER) + "\n", "reps.csv: no data rows"),
    ("", "reps.csv: empty input file"),
], ids=["wrong-header", "ten-fields", "non-numeric", "header-only", "empty"])
def test_malformed_rep_log_is_data_error(runner, tmp_path, text, where):
    src = tmp_path / "reps.csv"
    src.write_text(text)
    out = tmp_path / "out"
    result = runner.invoke(main, ["report", str(src), "-o", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith(f"error:data: {where}")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_rep_log_header_matches_like_a_series_header(tmp_path):
    src = tmp_path / "reps.csv"
    src.write_text(" " + ",".join(simulation.REPS_HEADER).upper().replace(",", " , ") + "\n" + REPS_ROW + "\n")
    (cell,) = simulation.read_rep_log(src)
    assert (cell.p1, cell.p2, cell.snr) == (10, 25, (1.0, 2.0))
    assert cell.records[0].ci_ratio == 1.5


def test_read_rows_streams(tmp_path):
    # The malformed last line is reached only after the first row has been yielded.
    src = tmp_path / "series.csv"
    src.write_text("t,value\n0,1.0\n1,2.0\n2\n")
    rows = read_rows(src, ["t", "value"])
    assert next(rows) == (2, ["0", "1.0"])
    assert next(rows) == (3, ["1", "2.0"])
    with pytest.raises(CsvFormatError, match="series.csv line 4: expected 2 columns, got 1"):
        next(rows)
