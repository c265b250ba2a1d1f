"""CLI coverage through main(argv): exit codes, files, reports, config."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import msgate.cli as cli
import msgate.magnus as magnus
from msgate.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from msgate.experiment import SequenceConfig, run_calibration
from msgate.hilbert import ThermalDistribution
from msgate.magnus import (
    QuadratureSpec,
    compute_coefficient_table,
    load_coefficient_table,
    predict_coherence,
    predict_fidelity,
    predict_phase,
    predict_populations,
    predict_purity,
)


@pytest.fixture(autouse=True)
def workdir(tmp_path, monkeypatch):
    """Each test runs in its own empty directory, with HOME pointing there."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    return tmp_path


def _files(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.fixture(scope="module")
def table_file(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "table.json"
    table.save(path)
    return str(path)


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "msgate" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "nope.json"), "trajectory",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_unreadable_config_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path), "trajectory",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == EXIT_USAGE
        assert "cannot read config file" in capsys.readouterr().err


class TestCoefficients:
    ARGS = ["coefficients", "--n-max", "12", "--panels-1d", "512",
            "--panels-2d", "64"]

    def test_build_and_summary(self, tmp_path, capsys):
        out = tmp_path / "coef.json"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        assert out.exists()
        text = capsys.readouterr().out
        assert "provenance" in text
        # n_max 12 leaves no level within the tail tolerance.
        assert "none (raise --n-max)" in text

    @pytest.mark.parametrize("n_max, shown", [(0, 1), (1, 2), (None, 4)])
    def test_slope_line_names_the_levels_shown(self, tmp_path, capsys, n_max, shown):
        extra = [] if n_max is None else ["--n-max", str(n_max)]
        assert main(["coefficients", *extra, "--out", str(tmp_path / "c.json")]) == EXIT_OK
        a = compute_coefficient_table(n_max=40 if n_max is None else n_max).derived().a
        label, *values = capsys.readouterr().out.splitlines()[-1].split()
        assert label == f"a[0..{shown - 1}]"
        assert values == [f"{v:.6f}" for v in a[:shown]]

    def test_refuses_overwrite(self, tmp_path, capsys):
        out = tmp_path / "coef.json"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_USAGE
        assert "--force" in capsys.readouterr().err
        assert main(self.ARGS + ["--out", str(out), "--force"]) == EXIT_OK

    def test_default_out_in_working_directory(self, workdir, capsys):
        assert main(self.ARGS) == EXIT_OK
        assert _files(workdir) == [Path("coefficients.json")]
        assert main(self.ARGS) == EXIT_USAGE
        assert "--force" in capsys.readouterr().err
        assert main(self.ARGS + ["--force"]) == EXIT_OK
        assert _files(workdir) == [Path("coefficients.json")]

    # At 100000 loops the first-order table leaves the (-1 + i) line by a
    # structure residual of about 8.8e-4 (1e-7 at 1000 loops, 3e-6 at 10000).
    OFF_LINE = ["--n-max", "24", "--panels-1d", "256", "--panels-2d", "32",
                "--loops", "100000"]

    @pytest.mark.parametrize("to_out", [True, False])
    def test_unhealthy_table_not_written(self, workdir, capsys, to_out):
        extra = ["--out", "sub/coef.json"] if to_out else []
        assert main(["coefficients", *self.OFF_LINE, *extra]) == EXIT_NUMERICAL
        assert "structure residual" in capsys.readouterr().err
        assert _files(workdir) == []

    def test_unhealthy_auto_build_not_cached(self, workdir, capsys):
        argv = ["predict", "--lambda-tilde", "0.01", "--n-max", "24", "--loops", "100000"]
        assert main(argv) == EXIT_NUMERICAL
        assert "not written" in capsys.readouterr().err
        assert _files(workdir) == []

    def test_two_loops_match_library(self, two_loop_table, workdir, capsys):
        assert main(["coefficients", "--loops", "2", "--n-max", "24"]) == EXIT_OK
        assert f"provenance {two_loop_table.provenance_hash}" in capsys.readouterr().out
        doc = json.loads(Path("coefficients.json").read_text())
        assert doc["provenance_sha256"] == two_loop_table.provenance_hash

    def test_one_loop_is_the_default_gate(self, workdir):
        # --loops 1 gives omega_tilde 0.5 and tau_gate 2 pi exactly, so the
        # file equals the library's default table byte for byte.
        assert main(["coefficients", "--loops", "1", "--n-max", "12"]) == EXIT_OK
        compute_coefficient_table(n_max=12).save("library.json")
        assert Path("coefficients.json").read_bytes() == Path("library.json").read_bytes()


class TestPredict:
    def test_off_line_table_file_refused(self, tmp_path, capsys):
        # A file that fails the structure check is refused on load instead of
        # reaching the predictors, which would blame n_max.
        path = tmp_path / "off.json"
        compute_coefficient_table(
            omega_tilde=0.4, n_max=24, quad=QuadratureSpec(256, 32)
        ).save(path)
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "structure residual" in err
        assert "n_max" not in err

    def test_schema_1_table_file_refused(self, table_file, tmp_path, capsys):
        doc = json.loads(Path(table_file).read_text())
        doc["schema"] = "msgate/coefficients/1"
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "msgate/coefficients/1" in err and "msgate coefficients" in err

    def test_schema_2_table_file_refused(self, table_file, table, tmp_path, capsys):
        # Version 2 stored each table as nested re/im float lists.
        doc = json.loads(Path(table_file).read_text())
        doc["schema"] = "msgate/coefficients/2"
        doc["tables"] = {
            key: {"re": arr.real.tolist(), "im": arr.imag.tolist()}
            for key, arr in [("i", table.i_table), ("j1", table.j1),
                             ("j2", table.j2), ("j3", table.j3)]
        }
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "msgate/coefficients/2" in err and "msgate coefficients" in err

    def test_schema_3_table_file_refused(self, capsys):
        # Written by an earlier msgate, with the tables stored as base64.
        path = Path(__file__).parent / "data" / "coefficients_k3_n8_schema3.json"
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "msgate/coefficients/3" in err and "msgate coefficients" in err

    def test_non_finite_table_file_refused(self, table_file, tmp_path, capsys):
        # A stored nan matches no rebuilt scalar.
        doc = json.loads(Path(table_file).read_text())
        doc["derived"]["a"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        assert "derived 'a' does not match" in capsys.readouterr().err

    def test_matches_library(self, table_file, table, capsys):
        rc = main(["predict", "--table", table_file, "--lambda-tilde", "0.02",
                   "--fock-initial", "1"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        pops = predict_populations(1, 0.02, table)
        coh = predict_coherence(1, 0.02, table)
        assert doc["phase"] == pytest.approx(predict_phase(1, 0.02, table), rel=1e-12)
        assert doc["fidelity"] == pytest.approx(predict_fidelity(1, 0.02, table), rel=1e-12)
        assert doc["purity"] == pytest.approx(predict_purity(1, 0.02, table), rel=1e-12)
        assert doc["populations"] == pytest.approx(list(pops), rel=1e-12)
        assert doc["coherence_re"] == pytest.approx(coh.real, rel=1e-12)
        assert doc["coherence_im"] == pytest.approx(coh.imag, rel=1e-12)
        assert doc["population_sum"] == pytest.approx(1.0, abs=1e-3)

    def test_thermal_point(self, table_file, table, capsys):
        rc = main(["predict", "--table", table_file, "--lambda-tilde", "0.02",
                   "--nbar", "0.05"])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["fock"] is None
        assert "populations" not in doc
        dist = ThermalDistribution(0.05)
        assert doc["phase"] == pytest.approx(
            predict_phase(dist, 0.02, table), rel=1e-12
        )

    def test_missing_lambda(self, table_file, capsys):
        assert main(["predict", "--table", table_file]) == EXIT_USAGE
        assert "--lambda-tilde" in capsys.readouterr().err

    def test_untrusted_level(self, table_file, capsys):
        rc = main(["predict", "--table", table_file, "--lambda-tilde", "0.02",
                   "--fock-initial", "15"])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_level_outside_table(self, table_file):
        rc = main(["predict", "--table", table_file, "--lambda-tilde", "0.02",
                   "--fock-initial", "30"])
        assert rc == EXIT_USAGE


class TestSweep:
    def test_prediction_csv(self, table_file, table, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.gp"
        rc = main(["sweep", "--table", table_file, "--lambda-min", "-0.05",
                   "--lambda-max", "0.05", "--points", "5", "--fock", "0,2",
                   "--out", str(out), "--plot-script", str(plot)])
        assert rc == EXIT_OK
        with open(out) as fh:
            assert fh.readline() == "# schema=msgate/sweep-report/1\n"
        data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        assert data.shape == (10,)
        last = data[-1]
        assert last["fock_n"] == 2 and last["lambda_tilde"] == pytest.approx(0.05)
        # Every predicted cell is the point predictor's value, exactly.
        lams = np.linspace(-0.05, 0.05, 5)
        assert list(data["fock_n"]) == [0] * 5 + [2] * 5
        pred = ["pred_phase", "pred_p_gg", "pred_p_ge", "pred_p_eg", "pred_p_ee",
                "pred_coherence_abs", "pred_fidelity", "pred_purity", "pred_population_sum"]
        assert [c for c in data.dtype.names if c.startswith("pred_")] == pred
        for row, (n, lam) in zip(data, ((n, lam) for n in (0, 2) for lam in lams)):
            assert row["lambda_tilde"] == lam
            pops = predict_populations(n, lam, table)
            want = {
                "pred_phase": predict_phase(n, lam, table),
                **{f"pred_p_{q}": p for q, p in zip(("gg", "ge", "eg", "ee"), pops)},
                "pred_coherence_abs": abs(complex(predict_coherence(n, lam, table))),
                "pred_fidelity": predict_fidelity(n, lam, table),
                "pred_purity": predict_purity(n, lam, table),
                "pred_population_sum": pops.sum(),
            }
            for column, value in want.items():
                assert row[column] == value, (column, n, lam)
        assert "multiplot" in plot.read_text()

    def test_lambda_cap(self, table_file, tmp_path, capsys):
        rc = main(["sweep", "--table", table_file, "--lambda-max", "0.6",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE
        assert "|lambda_tilde| = 0.600 exceeds the hard cap 0.5" in capsys.readouterr().err

    def test_empty_fock_list(self, table_file, tmp_path):
        rc = main(["sweep", "--table", table_file, "--fock", ",",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE

    def test_zero_points(self, table_file, tmp_path, capsys):
        rc = main(["sweep", "--table", table_file, "--points", "0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE
        assert "--points must be at least 1" in capsys.readouterr().err

    def test_oracle_columns_and_repeat_determinism(self, table_file, tmp_path):
        base = ["sweep", "--table", table_file, "--lambda-min", "-0.02",
                "--lambda-max", "0.02", "--points", "3", "--fock", "0,1",
                "--oracle", "--cutoff-n-max", "24", "--steps", "1024"]
        one = tmp_path / "s1.csv"
        rerun = tmp_path / "s2.csv"
        assert main(base + ["--out", str(one)]) == EXIT_OK
        assert main(base + ["--out", str(rerun)]) == EXIT_OK
        assert one.read_bytes() == rerun.read_bytes()
        d1 = np.genfromtxt(one, delimiter=",", names=True, skip_header=1)
        assert list(d1["fock_n"]) == [0, 0, 0, 1, 1, 1]
        mid = d1[1]
        assert mid["lambda_tilde"] == 0.0
        assert mid["oracle_fidelity"] == pytest.approx(1.0, abs=1e-8)
        err = np.abs(d1["oracle_relative_phase"] - d1["pred_phase"])
        assert err.max() < 1e-3

    def test_level_above_oracle_cutoff_exit(self, table_file, tmp_path, capsys):
        rc = main(["sweep", "--table", table_file, "--points", "2", "--fock",
                   "0,8", "--oracle", "--cutoff-n-max", "6",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "Fock level 8" in err and "--cutoff-n-max" in err

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["model", "oracle"])
    def test_repeated_level_refused(self, table_file, workdir, capsys, oracle):
        # A repeated level would write its rows, and propagate its columns, twice.
        rc = main(["sweep", "--table", table_file, "--points", "3", "--fock", "0,1,2,1",
                   *oracle, "--plot-script", "sweep.gp"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: --fock names level 1 more than once\n"
        assert _files(workdir) == []

    def test_non_integer_level_refused(self, table_file, workdir, capsys):
        rc = main(["sweep", "--table", table_file, "--points", "3", "--fock", "0,1.5"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: --fock takes comma-separated integer levels, got '0,1.5'\n")
        assert _files(workdir) == []

    def test_guard_band_exit(self, table_file, tmp_path, capsys):
        rc = main(["sweep", "--table", table_file, "--lambda-min", "-0.05",
                   "--lambda-max", "0.05", "--points", "2", "--fock", "0",
                   "--oracle", "--cutoff-n-max", "12", "--steps", "512",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_NUMERICAL
        assert "guard-band" in capsys.readouterr().err


class TestCalibrate:
    def test_model_engine_report(self, table_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["calibrate", "--table", table_file, "--engine",
                   "first_order_model", "--detuning-hz", "-11000",
                   "--shift-hz", "30", "--shots", "0", "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema"] == "msgate/calibration-report/1"
        assert doc["inputs"]["shots"] is None
        assert doc["estimate"]["shift_hz"] == pytest.approx(30.0, rel=1e-9)
        # Exact data leaves no residual to scale the covariance by.
        [caveat] = doc["estimate"]["caveats"]
        assert "covariance undetermined" in caveat
        assert doc["estimate"]["phi_seq"] == pytest.approx(
            doc["estimate"]["phi_seq_predicted"], rel=1e-9
        )
        assert len(doc["scan"]["phi_d"]) == len(doc["scan"]["p_ee"]) == 16
        assert "+30.000 Hz" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, fock, n_bar", [
        ([], 0, None),
        (["--fock-initial", "2"], 2, None),
        (["--nbar", "0.05"], None, 0.05),
    ], ids=["default", "fock", "thermal"])
    def test_report_names_the_initial_mode(self, table_file, tmp_path, mode, fock, n_bar):
        # A thermal run starts in no single Fock level, so it reports none.
        out = tmp_path / "report.json"
        rc = main(["calibrate", "--table", table_file, "--engine",
                   "first_order_model", "--detuning-hz=-11e3", "--shift-hz", "30",
                   "--shots", "0", "--out", str(out), *mode])
        assert rc == EXIT_OK
        inputs = json.loads(out.read_text())["inputs"]
        assert inputs["fock_initial"] == fock
        assert inputs["n_bar"] == n_bar

    def test_oracle_engine(self, table_file, capsys):
        rc = main(["calibrate", "--table", table_file, "--detuning-hz",
                   "-11000", "--shift-hz", "50", "--shots", "0", "--points",
                   "8", "--steps", "1024", "--cutoff-n-max", "24"])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "1 sigma" in text
        assert "true +50.000 Hz" in text

    def test_missing_required(self, table_file, capsys):
        assert main(["calibrate", "--table", table_file]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--detuning-hz" in err and "--shift-hz" in err

    def test_undetermined_covariance_report(self, table_file, tmp_path, capsys):
        # Noiseless model data on 8 points leaves the fit covariance
        # undetermined: the report stays strict JSON and says so.
        out = tmp_path / "report.json"
        rc = main(["calibrate", "--table", table_file, "--detuning-hz=-11e3",
                   "--shift-hz", "0", "--engine", "first_order_model",
                   "--shots", "0", "--points", "8", "--out", str(out)])
        assert rc == EXIT_OK

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert doc["fit"]["phase_err"] is None
        assert doc["estimate"]["shift_err_hz"] is None
        assert any("covariance undetermined" in c for c in doc["estimate"]["caveats"])
        assert "caveat: fringe covariance undetermined" in capsys.readouterr().out

    @pytest.mark.parametrize("mode, level", [
        (["--nbar", "2.0"], 52),
        (["--nbar", "0.3", "--cutoff-n-max", "12"], 15),
        (["--fock-initial", "8", "--cutoff-n-max", "6"], 8),
    ])
    def test_level_above_oracle_cutoff_exit(self, table_file, capsys, mode, level):
        # Thermal modes need levels 0..ThermalDistribution(n_bar).n_max.
        rc = main(["calibrate", "--table", table_file, "--engine", "oracle",
                   "--detuning-hz=-11e3", "--shift-hz", "30", "--shots", "0",
                   *mode])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"Fock level {level}" in err and "--cutoff-n-max" in err

    def test_failed_report_write_keeps_earlier_report(self, table_file, workdir,
                                                      capsys, monkeypatch):
        Path("report.json").write_text("earlier report\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr("msgate.magnus.os.replace", refuse)
        rc = main(["calibrate", "--table", table_file, "--engine", "first_order_model",
                   "--detuning-hz=-11e3", "--shift-hz", "30", "--out", "report.json"])
        assert rc == EXIT_USAGE
        assert "cannot write output" in capsys.readouterr().err
        assert Path("report.json").read_text() == "earlier report\n"
        assert _files(workdir) == [Path("report.json")]  # no temporary left

    def test_negative_shots_refused_before_simulation(self, table_file, workdir,
                                                      capsys, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("the fringe was simulated")

        monkeypatch.setattr("msgate.experiment.simulate_fringe", simulate)
        rc = main(["calibrate", "--table", table_file, "--detuning-hz=-11e3",
                   "--shift-hz", "30", "--shots", "-1", "--out", "report.json"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == "error: shots must be positive\n"
        assert _files(workdir) == []

    def test_truncated_cutoff_exit(self, table_file, capsys):
        rc = main(["calibrate", "--table", table_file, "--detuning-hz",
                   "-11000", "--shift-hz", "300", "--shots", "0", "--points",
                   "8", "--cutoff-n-max", "3"])
        assert rc == EXIT_NUMERICAL
        assert "guard-band" in capsys.readouterr().err


class TestNegativeExponentValues:
    """Exponent-form negatives parse as values, as one token or two."""

    @pytest.mark.parametrize("form", ["split", "equals"])
    def test_predict_lambda(self, table_file, table, capsys, form):
        rc = main(["predict", "--table", table_file,
                   *_option("--lambda-tilde", "-9.6e-05", form)])
        assert rc == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_tilde"] == -9.6e-05
        assert doc["phase"] == pytest.approx(
            predict_phase(0, -9.6e-05, table), rel=1e-12
        )

    @pytest.mark.parametrize("form", ["split", "equals"])
    def test_calibrate_frequencies(self, table_file, capsys, form):
        rc = main(["calibrate", "--table", table_file, "--engine",
                   "first_order_model", "--shots", "0",
                   *_option("--detuning-hz", "-1.1e4", form),
                   *_option("--shift-hz", "-2.5E+1", form)])
        assert rc == EXIT_OK
        assert "-25.000 Hz (1 sigma" in capsys.readouterr().out

    @pytest.mark.parametrize("form", ["split", "equals"])
    def test_sweep_lambda_min(self, table_file, tmp_path, form):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--table", table_file, "--points", "3", "--fock",
                   "0", *_option("--lambda-min", "-5e-2", form),
                   "--lambda-max", "5e-2", "--out", str(out)])
        assert rc == EXIT_OK
        data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        np.testing.assert_allclose(data["lambda_tilde"], [-0.05, 0.0, 0.05])


def _option(flag, value, form):
    return [flag, value] if form == "split" else [f"{flag}={value}"]


class TestConfigFile:
    @pytest.fixture()
    def config_file(self, tmp_path, table_file):
        path = tmp_path / "msgate.json"
        path.write_text(json.dumps({
            "calibrate": {
                "detuning-hz": -11000.0,
                "shift-hz": 25.0,
                "engine": "first_order_model",
                "shots": 0,
                "table": table_file,
            }
        }))
        return str(path)

    def test_section_supplies_required(self, config_file, capsys):
        assert main(["--config", config_file, "calibrate"]) == EXIT_OK
        assert "+25.000 Hz" in capsys.readouterr().out

    def test_flag_overrides_config(self, config_file, capsys):
        rc = main(["--config", config_file, "calibrate", "--shift-hz", "40"])
        assert rc == EXIT_OK
        assert "+40.000 Hz" in capsys.readouterr().out

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"calibrate": {"bogus": 1}}')
        rc = main(["--config", str(path), "calibrate"])
        assert rc == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [{"func": 1}, {"command": "sweep"}])
    def test_key_that_is_not_an_option(self, tmp_path, capsys, section):
        # Namespace attributes that no option sets (the handler, the
        # subcommand name) are not config keys either.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"trajectory": section}))
        rc = main(["--config", str(path), "trajectory"])
        assert rc == EXIT_USAGE
        key, = section
        assert f"config key {key!r} is not an option of 'trajectory'" in capsys.readouterr().err
        assert not Path("trajectory.csv").exists()

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["--config", str(path), "trajectory"]) == EXIT_USAGE

    def test_section_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"calibrate": 5}')
        rc = main(["--config", str(path), "calibrate"])
        assert rc == EXIT_USAGE
        assert "object" in capsys.readouterr().err

    # Each value goes through its option's own parsing: argparse converts
    # only string defaults and checks no flag, so unparsed, "false" would
    # set --force and 2.5 would reach the command as a sample count.
    @pytest.mark.parametrize("command, config, message", [
        (["coefficients", "--n-max", "8"], {"coefficients": {"force": "false"}},
         "config key 'force' of 'coefficients' is a flag: it takes true or false, not \"false\""),
        (["sweep", "--n-max", "12", "--points", "3", "--fock", "0"], {"sweep": {"oracle": "no"}},
         "config key 'oracle' of 'sweep' is a flag: it takes true or false, not \"no\""),
        (["trajectory"], {"trajectory": {"samples": 2.5}},
         "config key 'samples' of 'trajectory': invalid int value 2.5"),
        (["sweep", "--n-max", "12"], {"sweep": {"points": 3.0}},
         "config key 'points' of 'sweep': invalid int value 3.0"),
        (["sweep", "--n-max", "12"], {"sweep": {"fock": [0, 1]}},
         "config key 'fock' of 'sweep' takes a string or a number, not [0, 1]"),
        (["predict", "--n-max", "12", "--lambda-tilde", "0.01"], {"predict": {"initial": "ge"}},
         "config key 'initial' of 'predict': invalid choice 'ge' (choose from 'gg', 'ee')"),
        (["sweep", "--n-max", "12"], {"sweeep": {"points": 3}},
         "config section 'sweeep' names no subcommand"),
    ], ids=["flag-string", "boolean-flag-string", "int-fraction", "int-float",
            "list", "choice", "unknown-section"])
    def test_value_refused(self, workdir, capsys, command, config, message):
        Path("c.json").write_text(json.dumps(config))
        Path("coefficients.json").write_text("earlier table")
        assert main(["--config", "c.json", *command]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _files(workdir) == [Path("c.json"), Path("coefficients.json")]
        assert Path("coefficients.json").read_text() == "earlier table"

    def test_flag_takes_true(self, workdir, capsys):
        Path("c.json").write_text(json.dumps({"coefficients": {"force": True, "n-max": 8}}))
        Path("coefficients.json").write_text("earlier table")
        assert main(["--config", "c.json", "coefficients"]) == EXIT_OK
        assert load_coefficient_table("coefficients.json").n_max == 8


class TestSharedParser:
    """main(argv) parses with one parser per process; a config never
    changes it, so no call sees an earlier call's config."""

    @pytest.fixture(autouse=True)
    def builds(self, monkeypatch):
        """Count build_parser() calls, from a process that has built no parser."""
        calls = []
        build = cli.build_parser

        def counted():
            calls.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._shared_parser.cache_clear()
        yield calls
        cli._shared_parser.cache_clear()

    @staticmethod
    def _run(capsys, argv, *outputs):
        """Exit code, stdout, stderr and the bytes of the named outputs."""
        rc = main(argv)
        out, err = capsys.readouterr()
        return rc, out, err, [Path(p).read_bytes() for p in outputs]

    def test_built_once(self, table_file, builds):
        for argv in (["trajectory", "--samples", "5"],
                     ["predict", "--table", table_file, "--lambda-tilde", "0.02"],
                     ["trajectory", "--samples", "9", "--out", "t.csv"]):
            assert main(argv) == EXIT_OK
        assert len(builds) == 1

    def test_config_does_not_carry(self, table_file, capsys, builds):
        plain = {
            "calibrate": (["calibrate", "--table", table_file, "--detuning-hz=-11e3",
                           "--shift-hz", "30", "--cutoff-n-max", "24", "--out", "r.json"],
                          "r.json"),
            "predict": (["predict", "--table", table_file, "--lambda-tilde", "0.02"],),
        }
        before = {name: self._run(capsys, *run) for name, run in plain.items()}
        assert [b[0] for b in before.values()] == [EXIT_OK, EXIT_OK]
        Path("c.json").write_text(json.dumps({
            "calibrate": {"points": 7, "engine": "first_order_model", "nbar": 0.05},
            "predict": {"nbar": 0.05, "initial": "ee"},
        }))
        # Refused part-way: the keys before the bad one are valid.
        Path("bad.json").write_text(json.dumps({
            "calibrate": {"points": 7, "nbar": 0.05, "engine": "exact"},
            "predict": {"nbar": 0.05, "initial": "ge"},
        }))
        for name, (argv, *outputs) in plain.items():
            rc, out, _, _ = self._run(capsys, ["--config", "c.json", *argv], *outputs)
            assert rc == EXIT_OK and out != before[name][1], name
            assert self._run(capsys, ["--config", "bad.json", *argv])[0] == EXIT_USAGE
        after = {name: self._run(capsys, *run) for name, run in plain.items()}
        assert after == before
        assert len(builds) == 1 + 2  # the shared parser, and one per config applied

    def test_error_paths_leave_it_unchanged(self, table_file, capsys):
        argv = ["predict", "--table", table_file, "--lambda-tilde", "0.02",
                "--fock-initial", "1"]
        first = io.StringIO()
        with contextlib.redirect_stdout(first):  # the parser is built here
            assert main(argv) == EXIT_OK
        for call, code in ((["--version"], 0), (["sweep", "--help"], 0),
                           (["predict", "--bogus"], 2),
                           (["predict", "--fock-initial", "1", "--nbar", "0.1"], 2)):
            with pytest.raises(SystemExit) as exc:
                main(call)
            assert exc.value.code == code
        out, err = capsys.readouterr()
        # Help and errors go to the streams current at each call.
        assert out.startswith("msgate ") and "usage: msgate sweep" in out
        assert "unrecognized arguments: --bogus" in err
        assert "not allowed with argument --fock-initial" in err
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first.getvalue()


class TestTrajectory:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "loop.csv"
        assert main(["trajectory", "--samples", "65", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            assert fh.readline() == "# schema=msgate/trajectory/1\n"
        data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        assert data.shape == (65,)

    def test_new_directory_and_line_ends(self, workdir):
        assert main(["trajectory", "--samples", "9", "--out", "new/loop.csv"]) == EXIT_OK
        assert b"\r" not in Path("new/loop.csv").read_bytes()

    def test_two_loops_close_with_area_pi_over_2(self, workdir):
        # The gate that --loops 2 builds: two loops at omega_tilde 1/(2 sqrt 2).
        assert main(["trajectory", "--loops", "2", "--samples", "9"]) == EXIT_OK
        data = np.genfromtxt("trajectory.csv", delimiter=",", names=True, skip_header=1)
        last = data[-1]
        assert last["tau"] == pytest.approx(4.0 * np.pi, rel=1e-15)
        assert abs(complex(last["re_alpha_plus"], last["im_alpha_plus"])) < 1e-15
        assert last["area_phase"] == pytest.approx(np.pi / 2, abs=1e-15)


class TestLoops:
    """--loops names a calibrated gate, so it must be an integer >= 1; a bad
    value from the command line or a config file exits 2 writing nothing."""

    COMMANDS = [
        ["coefficients", "--n-max", "12"],
        ["predict", "--lambda-tilde", "0.01", "--n-max", "12"],
        ["trajectory"],
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_zero_loops_refused(self, workdir, capsys, command):
        assert main([*command, "--loops", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: loops must be an integer >= 1")
        assert _files(workdir) == []

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_config_fraction_refused(self, workdir, capsys, command):
        Path("c.json").write_text(json.dumps({command[0]: {"loops": 1.5}}))
        assert main(["--config", "c.json", *command]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            f"error: config key 'loops' of {command[0]!r}: invalid int value 1.5")
        assert _files(workdir) == [Path("c.json")]


class TestTableOnDemand:
    """Without --table a command builds its table in memory and writes only
    its own outputs; the answers equal the library's on the same grid."""

    GRID = ["--n-max", "24"]

    @pytest.fixture(scope="class")
    def built(self):
        return compute_coefficient_table(n_max=24)

    def test_predict(self, workdir, built, capsys):
        assert main(["predict", "--lambda-tilde", "0.02", *self.GRID]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"] == pytest.approx(predict_phase(0, 0.02, built), rel=1e-12)
        assert doc["purity"] == pytest.approx(predict_purity(0, 0.02, built), rel=1e-12)
        assert _files(workdir) == []

    def test_sweep(self, workdir, built):
        rc = main(["sweep", "--points", "3", "--fock", "1", *self.GRID])
        assert rc == EXIT_OK
        assert _files(workdir) == [Path("sweep.csv")]
        data = np.genfromtxt("sweep.csv", delimiter=",", names=True, skip_header=1)
        want = [predict_fidelity(1, lam, built) for lam in (-0.1, 0.0, 0.1)]
        np.testing.assert_allclose(data["pred_fidelity"], want, rtol=1e-12)

    def test_calibrate(self, workdir, built):
        rc = main(["calibrate", "--engine", "first_order_model", "--detuning-hz",
                   "-11000", "--shift-hz", "30", "--shots", "0", "--out", "r.json",
                   *self.GRID])
        assert rc == EXIT_OK
        assert _files(workdir) == [Path("r.json")]
        doc = json.loads(Path("r.json").read_text())
        config = SequenceConfig(detuning=2.0 * np.pi * -11000.0,
                                qubit_shift=2.0 * np.pi * 30.0, shots=None,
                                engine="first_order_model")
        _, estimate, _, _ = run_calibration(config, built, np.random.default_rng(0))
        assert doc["estimate"]["phi_seq"] == pytest.approx(estimate.phi_seq, rel=1e-12)
        assert doc["inputs"]["table_provenance"] == built.provenance_hash


class TestTableOwnsGate:
    """With --table, the file fixes the gate: the oracle runs it, and the
    grid options that describe an in-memory build are refused."""

    def test_sweep_oracle_runs_two_loop_gate(self, two_loop_table, workdir):
        two_loop_table.save("two_loop.json")
        rc = main(["sweep", "--table", "two_loop.json", "--oracle", "--points", "2",
                   "--lambda-min=-0.01", "--lambda-max", "0.01", "--fock", "0",
                   "--cutoff-n-max", "32"])
        assert rc == EXIT_OK
        data = np.genfromtxt("sweep.csv", delimiter=",", names=True, skip_header=1)
        err = np.abs(data["oracle_relative_phase"] - data["pred_phase"])
        assert err.max() <= 1e-3

    @pytest.mark.parametrize("command", [
        ["predict", "--lambda-tilde", "0.01"],
        ["sweep"],
        ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30"],
    ])
    @pytest.mark.parametrize("flag, value", [("--loops", "2"), ("--n-max", "24")])
    def test_grid_option_with_table_refused(self, table_file, workdir, capsys,
                                            command, flag, value):
        assert main([*command, "--table", table_file, flag, value]) == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert _files(workdir) == []


class TestInitialMode:
    """--fock-initial and --nbar name one initial mode; both together exit 2."""

    COMMANDS = [
        ["predict", "--lambda-tilde", "0.01"],
        ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30"],
    ]

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("level", ["0", "3"])
    def test_fock_and_nbar_exclusive(self, table_file, capsys, command, level):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--table", table_file, "--nbar", "0.05",
                  "--fock-initial", level])
        assert exc.value.code == EXIT_USAGE
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_nbar_with_flag_refused(self, table_file, workdir, capsys, command):
        Path("c.json").write_text(json.dumps({command[0]: {"nbar": 0.05}}))
        rc = main(["--config", "c.json", *command, "--table", table_file,
                   "--fock-initial", "3"])
        assert rc == EXIT_USAGE
        assert "--fock-initial and --nbar are exclusive" in capsys.readouterr().err


class TestNonFiniteInput:
    """A nan or inf float option exits 2 with msgate's own message, writing
    nothing; so does an --nbar whose thermal mode needs over 10^4 levels."""

    @pytest.mark.parametrize("command, message", [
        (["predict", "--table", "T", "--lambda-tilde", "nan"], "lambda_tilde must be finite"),
        (["sweep", "--table", "T", "--lambda-min", "nan", "--points", "3"],
         "lambda_tilde must be finite"),
        (["calibrate", "--table", "T", "--detuning-hz", "inf", "--shift-hz", "30",
          "--out", "r.json"], "detuning must be finite"),
        (["calibrate", "--table", "T", "--detuning-hz=-11e3", "--shift-hz", "nan",
          "--out", "r.json"], "qubit_shift must be finite"),
        (["predict", "--table", "T", "--lambda-tilde", "0.01", "--nbar", "inf"],
         "n_bar must be finite"),
        (["calibrate", "--table", "T", "--detuning-hz=-11e3", "--shift-hz", "30",
          "--nbar", "inf", "--out", "r.json"], "n_bar must be finite"),
        (["predict", "--table", "T", "--lambda-tilde", "0.01", "--nbar", "5e4"],
         "n_bar = 50000 needs 1.04e+06 Fock levels"),
        (["calibrate", "--table", "T", "--detuning-hz=-11e3", "--shift-hz", "30",
          "--nbar", "5e4", "--out", "r.json"], "n_bar = 50000 needs 1.04e+06 Fock levels"),
    ], ids=["predict-lambda", "sweep-lambda", "calibrate-detuning", "calibrate-shift",
            "predict-nbar", "calibrate-nbar", "predict-nbar-levels", "calibrate-nbar-levels"])
    def test_exit_usage(self, table_file, workdir, capsys, command, message):
        command = [table_file if arg == "T" else arg for arg in command]
        assert main(command) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {message}")
        assert out == "" and _files(workdir) == []

    @pytest.mark.parametrize("command", [
        ["predict", "--lambda-tilde", "0.01"],
        ["calibrate", "--detuning-hz=-11e3", "--shift-hz", "30",
         "--engine", "first_order_model"],
    ])
    def test_wide_thermal_mode_still_truncates(self, table_file, capsys, command):
        assert main([*command, "--table", table_file, "--nbar", "50"]) == EXIT_NUMERICAL
        assert "is not trusted" in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path under a regular file exits 2 with a message."""

    @pytest.mark.parametrize("command", [
        ["coefficients", "--n-max", "12", "--out", "blocker/t.json"],
        ["sweep", "--points", "3", "--out", "blocker/s.csv"],
        ["sweep", "--points", "3", "--plot-script", "blocker/p.gp"],
        ["sweep", "--points", "3", "--plot-script", "."],
        ["calibrate", "--engine", "first_order_model", "--detuning-hz=-11e3",
         "--shift-hz", "30", "--out", "blocker/r.json"],
        ["trajectory", "--samples", "9", "--out", "blocker/t.csv"],
    ], ids=["coefficients", "sweep", "plot-script", "plot-script-dir", "calibrate",
            "trajectory"])
    def test_exit_usage(self, table_file, workdir, capsys, command):
        Path("blocker").write_text("")
        if command[0] in ("sweep", "calibrate"):
            command = [*command, "--table", table_file]
        assert main(command) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert "error: cannot write output" in err
        assert Path("blocker").read_text() == ""
        # Nothing is written, not even the sweep CSV beside a bad plot script.
        assert "wrote" not in out
        assert _files(workdir) == [Path("blocker")]


class TestBadTableFile:
    """A --table file that cannot serve as a table exits 2 with a message."""

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read table file"),
        ('{"schema": "msgate/coefficients/4"}', "no 'params' entry"),
        ("[1, 2]", "not a JSON object"),
    ])
    def test_exit_usage(self, workdir, capsys, content, message):
        if content is not None:
            Path("t.json").write_text(content)
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        (8.5, "n_max must be an integer, got 8.5"),
        ("8", "entry of the wrong type"),
    ], ids=["fraction", "string"])
    def test_bad_parameter_value(self, table_file, workdir, capsys, value, message):
        # Parameters that match their digest still go through the build's
        # own checks, with a message and no traceback.
        doc = json.loads(Path(table_file).read_text())
        doc["params"]["n_max"] = value
        doc["provenance_sha256"] = magnus._digest(doc["params"])
        Path("t.json").write_text(json.dumps(doc))
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["params", "derived"])
    def test_wrong_typed_entry(self, table_file, workdir, capsys, entry):
        doc = json.loads(Path(table_file).read_text())
        doc[entry] = []
        Path("t.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="wrong type"):
            load_coefficient_table("t.json")
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        assert "entry of the wrong type" in capsys.readouterr().err
