import json
import pickle
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

    @pytest.mark.parametrize("row", ["1_0,10.5", "10,1_0.5", "10,1e1_0"])
    def test_underscore_in_a_cell(self, tmp_path, row):
        # int() and float() accept "1_0" as 10.
        path = tmp_path / "underscore.csv"
        path.write_text(f"t,value\n9,1.0\n{row}\n")
        with pytest.raises(CsvFormatError, match="underscore.csv line 3: '.*_.*' is not a number"):
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


class TestHugeValues:
    """Finite inputs whose arithmetic overflows, and inputs large enough to have overflowed the checks."""

    # Square waves of amplitude 1e306 at period 25, and of 1.7e308 at period 2.
    @pytest.mark.parametrize("command,amplitude,cycle,periods", [
        ("run", 1e306, 25, "10,25"),
        ("run", 1.7e308, 2, "2,3"),
        ("filter", 1.7e308, 2, "2,3"),
    ], ids=["run-1e306", "run-1.7e308", "filter-1.7e308"])
    def test_overflowing_arithmetic_is_data_error(self, runner, tmp_path, command, amplitude, cycle, periods):
        src = tmp_path / "huge.csv"
        t = np.arange(1000)
        write_series(src, np.where(t % cycle < cycle / 2, amplitude, -amplitude))
        out = tmp_path / ("out.csv" if command == "filter" else "out")
        args = [command, str(src), "--periods", periods, "-o", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, args + (["--seed", "1"] if command == "run" else []))
        assert caught == []
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("error:data: huge.csv: values too large to process: overflow")
        assert len(result.stderr.splitlines()) == 1
        assert not out.exists()

    def test_values_scaled_by_a_power_of_two_run_the_same(self, runner, tmp_path):
        # Every step of a run is linear, so 2**664 (about 1e200) times the
        # input gives exactly 2**664 times every band, and the grand-mean test
        # reads the same: the offset below makes it warn at either scale.
        t = np.arange(1000)
        values = np.sin(2 * np.pi * t / 10) + np.random.default_rng(7).normal(size=1000) + 0.5
        bands = {}
        for scale in (1.0, 2.0**664):
            src = tmp_path / f"in{scale:g}.csv"
            write_series(src, scale * values)
            out = tmp_path / f"out{scale:g}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.invoke(main, ["run", str(src), "--periods", "10,25", "--resamples", "40",
                                              "--seed", "2", "-o", str(out)])
            assert result.exit_code == 0, result.output
            assert [w.category for w in caught] == [UserWarning]
            assert "grand mean" in str(caught[0].message)
            bands[scale] = [np.array(rows, dtype=float)[:, 1:] for name in ("aggregate", "component_p10")
                            for _, rows in [read_columns(out / f"{name}.csv")]]
        for unit, scaled in zip(bands[1.0], bands[2.0**664]):
            np.testing.assert_array_equal(scaled, 2.0**664 * unit)


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

    # Both bounds on the resample count hold in PipelineConfig, which every cell builds before any runs.
    @pytest.mark.parametrize("resamples", [1, 2**32])
    def test_single_resample_fails_before_the_pool_starts(self, runner, tmp_path, monkeypatch, resamples):
        def no_pool(*args, **kwargs):
            raise AssertionError("the process pool must not start")

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", no_pool)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "periods": [10, 25], "snrs": [[1, 5]], "n": 100, "resamples": resamples, "reps": 2, "seed": 3,
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
    def test_empty_spec_token_is_skipped(self, runner, tmp_path):
        outputs = []
        for spec in ("m=3,,k=1", "m=3,k=1"):
            out = tmp_path / f"{len(outputs)}.csv"
            result = runner.invoke(main, ["transfer", "--spec", spec, "--grid", "0:0.5:5", "-o", str(out)])
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("grid", ["0:nan:3", "nan:0.5:3", "0:inf:3", "-inf:0.5:3"])
    def test_non_finite_grid_bound_is_config_error(self, runner, tmp_path, grid):
        out = tmp_path / "tr.csv"
        result = runner.invoke(main, ["transfer", "--spec", "m=5,k=1", "--grid", grid, "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error:config: bad --grid value {grid!r}: start and stop must be finite\n"
        assert not out.exists()

    def test_grid_span_beyond_float_range_is_config_error(self, runner, tmp_path):
        # Both bounds are finite, but stop - start is not, so linspace would write nan and -inf.
        out = tmp_path / "tr.csv"
        result = runner.invoke(main, ["transfer", "--spec", "m=3,k=1,nu=0.5", "--grid", "1e308:-1e308:3",
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error:config: bad --grid value '1e308:-1e308:3': stop - start must be finite\n"
        assert not out.exists()

    def test_grid_too_large_to_allocate_is_config_error(self, runner, tmp_path, monkeypatch):
        # The failure is injected: a real allocation of this size could be killed
        # by the host's out-of-memory handler instead of raising MemoryError.
        def linspace(start, stop, count):
            raise MemoryError(f"Unable to allocate an array with shape ({count},) and data type float64")

        monkeypatch.setattr(np, "linspace", linspace)
        out = tmp_path / "tr.csv"
        result = runner.invoke(main, ["transfer", "--spec", "m=3,k=1", "--grid", "0:0.5:100000000000",
                                      "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error:config: out of memory: Unable to allocate an array with shape "
                                 "(100000000000,) and data type float64\n")
        assert not out.exists()

    def test_empty_grid_is_config_error(self, runner, tmp_path):
        out = tmp_path / "tr.csv"
        result = runner.invoke(main, ["transfer", "--spec", "m=3,k=1", "--grid", "0:0.5:0", "-o", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error:config: bad --grid value '0:0.5:0': count must be at least 1\n"
        assert not out.exists()


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


# A grid config small enough to simulate in a moment; periods 10 and 25 at
# noise 2 are narrowed only when paper_faithful is true.
GRID = {"periods": [10, 25], "snrs": [[1, 2]], "n": 100, "resamples": 4, "reps": 1, "seed": 3}
DROPPED = object()


def grid_with(**changes):
    return {key: value for key, value in {**GRID, **changes}.items() if value is not DROPPED}


@pytest.mark.parametrize("args,config,category", [
    (["run", "series.csv", "--periods", "10,x", "--seed", "1"], None, "config"),
    (["run", "series.csv", "--periods", "10,25", "--alpha", "1.5", "--seed", "1"], None, "config"),
    (["run", "nan.csv", "--periods", "10,25", "--seed", "1"], None, "data"),
    # Every flag is checked before the series is read, so a bad flag is a config error even on a bad file.
    (["run", "nan.csv", "--periods", "10,x", "--seed", "1"], None, "config"),
    (["run", "nan.csv", "--periods", "10,25", "--alpha", "1.5", "--seed", "1"], None, "config"),
    (["filter", "series.csv", "--spec", "m=3,k"], None, "config"),
    (["filter", "series.csv", "--spec", "m=3,k=1,q=2"], None, "config"),
    (["filter", "series.csv", "--spec", "m=3"], None, "config"),
    (["filter", "series.csv", "--spec", "k=1"], None, "config"),
    (["filter", "series.csv", "--spec", "m=3,k=1,nu=0.7"], None, "config"),
    # --narrow-factor narrows the windows --periods designs; given beside --spec it changed nothing.
    (["filter", "series.csv", "--spec", "m=5,k=1,nu=0.1", "--narrow-factor", "3"], None, "config"),
    # Column names write nu with :g, so these two specs would write one column name twice.
    (["filter", "series.csv", "--spec", "m=5,k=1,nu=0.1", "--spec", "m=5,k=1,nu=0.1000001"], None, "config"),
    (["filter", "nan.csv", "--spec", "m=3,k"], None, "config"),
    (["filter", "nan.csv", "--spec", "m=5,k=1,nu=0.1", "--spec", "m=5,k=1,nu=0.1000001"], None, "config"),
    (["simulate", "--config", "grid.json"], [GRID], "config"),
    (["simulate", "--config", "missing.json"], None, "config"),
    (["simulate", "--config", "grid.json"], grid_with(window=3), "config"),
    (["simulate", "--config", "grid.json"], grid_with(periods=DROPPED), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=DROPPED), "config"),
    (["simulate", "--config", "grid.json"], grid_with(narrow_factor="x"), "config"),
    (["simulate", "--config", "grid.json"], grid_with(paper_faithful=1), "config"),
    (["simulate", "--config", "grid.json"], grid_with(reps=0), "config"),
    # More repetitions than an index-sized integer counts, in one process and in a pool.
    (["simulate", "--config", "grid.json"], grid_with(reps=10**30), "config"),
    (["simulate", "--config", "grid.json", "--threads", "2"], grid_with(reps=10**30), "config"),
    (["simulate", "--config", "grid.json"], grid_with(seed=DROPPED), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=[[1e-300, 1e300]]), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=[[1, 1e306]]), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=[[0, 1]]), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=[[1, 2], [1, 2]]), "config"),
    (["simulate", "--config", "grid.json"], grid_with(snrs=[[1, 10], [2, 20]]), "config"),
    # Every cell of GRID is auto-narrowed, so its narrow_factor is checked where the grid takes it.
    (["simulate", "--config", "grid.json"], grid_with(narrow_factor=0.5), "config"),
    (["simulate", "--config", "grid.json"], grid_with(narrow_factor=float("nan")), "config"),
    (["simulate", "--config", "grid.json"], grid_with(narrow_factor=1e308), "config"),
], ids=["run-period-not-integer", "run-alpha-above-1", "run-nan-value", "run-bad-period-on-a-bad-file",
        "run-bad-alpha-on-a-bad-file", "spec-token-without-equals",
        "spec-unknown-key", "spec-without-k", "spec-without-m", "spec-nu-above-half",
        "spec-with-narrow-factor", "spec-column-names-collide", "spec-bad-token-on-a-bad-file",
        "spec-column-names-collide-on-a-bad-file", "grid-not-object",
        "grid-missing-file", "grid-unknown-key", "grid-without-periods", "grid-without-snrs",
        "grid-narrow-factor-string", "grid-paper-faithful-integer", "grid-no-reps", "grid-reps-above-maxsize",
        "grid-reps-above-maxsize-threads-2",
        "grid-no-seed",
        "grid-snr-ratio-overflows", "grid-snr-label-overflows", "grid-zero-signal", "grid-snr-repeated",
        "grid-snrs-share-seeds",
        "grid-narrow-factor-below-1", "grid-narrow-factor-nan", "grid-narrow-factor-unbounded"])
def test_malformed_input_exits_with_one_error_line(runner, tmp_path, args, config, category):
    write_series(tmp_path / "series.csv", np.sin(np.arange(100.0)))
    (tmp_path / "nan.csv").write_text("t,value\n" + "".join(f"{t},{t % 3}\n" for t in range(99)) + "99,nan\n")
    if config is not None:
        (tmp_path / "grid.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    args = [str(tmp_path / arg) if arg.endswith((".csv", ".json")) else arg for arg in args]
    result = runner.invoke(main, [*args, "-o", str(out)])
    assert result.exit_code == {"config": 2, "data": 3}[category]
    assert result.stdout == ""
    assert result.stderr.startswith(f"error:{category}: ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag,in_file,overridden", [
    (["--seed", "8"], {"seed": 3}, {"seed": 8}),
    (["--no-paper-faithful"], {"paper_faithful": True}, {"paper_faithful": False}),
    (["--paper-faithful"], {"paper_faithful": False}, {"paper_faithful": True}),
])
def test_simulate_flag_overrides_the_config(runner, tmp_path, flag, in_file, overridden):
    def simulate(name, config, extra=()):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(grid_with(**config)))
        out = tmp_path / name
        result = runner.invoke(main, ["simulate", "--config", str(path), *extra, "-o", str(out)])
        assert result.exit_code == 0, result.output
        return {name: (out / name).read_bytes() for name in ("table1.csv", "table2.csv", "coverage.csv",
                                                             "cells.csv", "reps.csv")}

    flagged = simulate("flagged", in_file, flag)
    assert flagged == simulate("written", overridden)
    # The flag has something to override: the file's own value gives other bytes.
    assert flagged != simulate("unflagged", in_file)


REPS_ROW = "1,2,10,25,1,0,1.5,0.1,0.2,90,95"
# A header and one good row, for a bad row at line 3.
REPS_LOG = ",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW + "\n"


@pytest.mark.parametrize("text,where", [
    ("snr,noise\n" + REPS_ROW + "\n", "reps.csv line 1: expected header"),
    (",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW + "\n" + REPS_ROW.rsplit(",", 1)[0] + "\n",
     "reps.csv line 3: expected 11 columns, got 10"),
    (",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW.replace("1.5", "wide") + "\n",
     "reps.csv line 2: could not convert"),
    (",".join(simulation.REPS_HEADER) + "\n", "reps.csv: no data rows"),
    ("", "reps.csv: empty input file"),
    # Rows no grid run writes, one per rule on a row's values.
    (REPS_LOG + REPS_ROW.replace(",1.5,", ",nan,") + "\n", "reps.csv line 3: 'nan' is not a finite number"),
    (REPS_LOG + REPS_ROW.replace(",1.5,", ",inf,") + "\n", "reps.csv line 3: 'inf' is not a finite number"),
    (REPS_LOG + REPS_ROW.replace("10,25", "25,25") + "\n", "reps.csv line 3: duplicate periods cannot be separated"),
    (REPS_LOG + REPS_ROW.replace("10,25", "1,25") + "\n", "reps.csv line 3: periods must be integers >= 2"),
    (REPS_LOG + "0" + REPS_ROW[1:] + "\n", "reps.csv line 3: snr parts must be positive"),
    (REPS_LOG + REPS_ROW.replace("1,2,", "1,-2,", 1) + "\n", "reps.csv line 3: snr parts must be positive"),
    (REPS_LOG + REPS_ROW.replace("10,25,1,", "10,25,0.5,") + "\n", "reps.csv line 3: narrow_factor must be >= 1"),
    (REPS_LOG + "0,10,50,50,0.5,0,1,0.2,0.3,40,90\n", "reps.csv line 3: snr parts must be positive"),
    (REPS_LOG + REPS_ROW.replace("1,2,", "1,1e306,", 1) + "\n",
     "reps.csv line 3: snr 1:1e+306 has a noise-to-signal ratio too large to label"),
    # Rows no repetition writes, and cells that table1.csv and table2.csv could not hold.
    (REPS_LOG + "1,2,10,25,1,1,-3,0.1,0.2,90,95\n", "reps.csv line 3: ci_ratio -3 is outside [0, inf]"),
    (REPS_LOG + "1,2,10,25,1,1,1.5,1.5,0.2,90,95\n", "reps.csv line 3: outside_pbb 1.5 is outside [0, 1]"),
    (REPS_LOG + "1,2,10,25,1,1,1.5,0.1,-0.2,90,95\n", "reps.csv line 3: outside_vmbpbb -0.2 is outside [0, 1]"),
    (REPS_LOG + "1,2,10,25,1,1,1.5,0.1,0.2,90,-1\n", "reps.csv line 3: r2_vmbpbb -1 is outside [0, inf]"),
    (REPS_LOG + "1,2,10,25,1,-1,1.5,0.1,0.2,90,95\n", "reps.csv line 3: rep -1 is negative or repeats"),
    (REPS_LOG + REPS_ROW + "\n", "reps.csv line 3: rep 0 is negative or repeats within its cell"),
    (REPS_LOG + REPS_ROW.replace("10,25", "25,10") + "\n", "reps.csv line 3: p1 25 is above p2 10"),
    (REPS_LOG + "1,2,10,25,2,1,1.5,0.1,0.2,90,95\n", "reps.csv line 3: a second narrow_factor 2 for cell (10, 25)"),
    # No grid run writes two SNRs whose cells share seeds.
    (REPS_LOG + "2,4,10,25,1,0,1.5,0.1,0.2,90,95\n",
     "reps.csv line 3: snrs 1:2 and 2:4 round to one noise-to-signal ratio, 2, which keys their cells' seeds"),
], ids=["wrong-header", "ten-fields", "non-numeric", "header-only", "empty", "nan", "inf", "equal-periods",
        "period-below-2", "zero-signal", "negative-noise", "narrow-factor-below-1", "every-rule-broken",
        "snr-label-overflows",
        "negative-ci-ratio", "outside-above-1", "outside-below-0", "negative-r2", "negative-rep", "repeated-rep",
        "descending-periods", "second-narrow-factor", "snrs-share-seeds"])
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


@pytest.mark.parametrize("command,extra", [
    ("filter", ["--periods", "2"]),
    ("run", ["--periods", "2", "--seed", "1"]),
    ("report", []),
])
def test_underscore_in_a_numeric_cell_is_data_error(runner, tmp_path, command, extra):
    src = tmp_path / "in.csv"
    if command == "report":
        src.write_text(",".join(simulation.REPS_HEADER) + "\n" + REPS_ROW + "\n" + REPS_ROW.replace("90", "9_0") + "\n")
    else:
        src.write_text("t,value\n" + "".join(f"{t},{t % 3}.5\n" for t in range(9)) + "9,1_0.5\n")
    out = tmp_path / ("out.csv" if command == "filter" else "out")
    result = runner.invoke(main, [command, str(src), *extra, "-o", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    where = "in.csv line 3: '9_0'" if command == "report" else "in.csv line 11: '1_0.5'"
    assert result.stderr.startswith(f"error:data: {where} is not a number")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [
    ("run", ["--periods", "2", "--seed", "1"]),
    ("report", []),
])
def test_cell_beyond_the_csv_field_limit_is_data_error(runner, tmp_path, command, extra):
    src = tmp_path / "in.csv"
    huge = "1" * 200_000  # csv's default field size limit is 131072 characters
    if command == "report":
        src.write_text(REPS_LOG + REPS_ROW.replace("90", huge) + "\n")
    else:
        src.write_text("t,value\n0,1.5\n1," + huge + "\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [command, str(src), *extra, "-o", str(out)])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error:data: in.csv line 3: field larger than field limit")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "series.csv", "--periods", "10"],
    ["run", "series.csv", "--periods", "10", "--seed", "1", "-B", "abc"],
    ["bogus"],
    ["--bogus"],
    ["run", ".", "--periods", "10", "--seed", "1"],
    [],
], ids=["missing-seed", "resamples-not-integer", "unknown-command", "unknown-option", "directory-as-input",
        "no-command"])
def test_click_usage_errors_follow_the_exit_contract(runner, tmp_path, args):
    write_series(tmp_path / "series.csv", np.sin(np.arange(100.0)))
    out = tmp_path / "out"
    args = [str(tmp_path / arg) if arg in ("series.csv", ".") else arg for arg in args]
    if args and args[0] == "run":
        args += ["-o", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:config: ")
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["run", "--help"]])
def test_help_and_version_exit_0_on_stdout(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stdout
    assert result.stderr == ""


def test_rep_log_reads_r2_rounded_above_100(tmp_path):
    # An exactly linear pair can square-correlate a few ulps above 100.
    src = tmp_path / "reps.csv"
    src.write_text(REPS_LOG.replace(",90,95", ",100.00000000000021,100"))
    (cell,) = simulation.read_rep_log(src)
    assert cell.records[0].r2_pbb == 100.00000000000021


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


@pytest.mark.parametrize("read,text", [
    (read_series_csv, "t,value\n4,1.5\n5,-2\n6,0.25\n7,3\n"),
    (simulation.read_rep_log, REPS_LOG),
], ids=["series", "reps"])
def test_a_leading_byte_order_mark_is_read(tmp_path, read, text):
    # Excel's "CSV UTF-8" starts the file with U+FEFF; the header then matches as written.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert pickle.dumps(read(marked)) == pickle.dumps(read(plain))
