"""CLI coverage through main(argv): exit codes, files, reports, config."""

import json
from pathlib import Path

import numpy as np
import pytest

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

    # omega_tilde 0.4 closes the loop with the wrong area, so the first-order
    # table leaves the (-1 + i) line (structure residual about 0.98).
    OFF_LINE = ["--n-max", "24", "--panels-1d", "256", "--panels-2d", "32",
                "--omega-tilde", "0.4"]

    @pytest.mark.parametrize("to_out", [True, False])
    def test_unhealthy_table_not_written(self, workdir, capsys, to_out):
        extra = ["--out", "sub/coef.json"] if to_out else []
        assert main(["coefficients", *self.OFF_LINE, *extra]) == EXIT_NUMERICAL
        assert "structure residual" in capsys.readouterr().err
        assert _files(workdir) == []

    def test_unhealthy_auto_build_not_cached(self, workdir, capsys):
        argv = ["predict", "--lambda-tilde", "0.01", "--n-max", "24", "--omega-tilde", "0.4"]
        assert main(argv) == EXIT_NUMERICAL
        assert "not written" in capsys.readouterr().err
        assert _files(workdir) == []


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
        doc = json.loads(open(table_file).read())
        doc["schema"] = "msgate/coefficients/1"
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "msgate/coefficients/1" in err and "msgate coefficients" in err

    def test_schema_2_table_file_refused(self, table_file, table, tmp_path, capsys):
        # Version 2 stored each table as nested re/im float lists.
        doc = json.loads(open(table_file).read())
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

    def test_non_finite_table_file_refused(self, table_file, tmp_path, capsys,
                                           edit_table_entry):
        doc = json.loads(open(table_file).read())
        edit_table_entry(doc, "i", "re", 0, 0, lambda x: float("inf"))
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        rc = main(["predict", "--table", str(path), "--lambda-tilde", "0.01"])
        assert rc == EXIT_NUMERICAL
        assert "non-finite" in capsys.readouterr().err

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
        assert last["pred_phase"] == pytest.approx(
            predict_phase(2, 0.05, table), rel=1e-12
        )
        assert last["pred_purity"] == pytest.approx(
            predict_purity(2, 0.05, table), rel=1e-12
        )
        assert "multiplot" in plot.read_text()

    def test_lambda_cap(self, table_file, tmp_path, capsys):
        rc = main(["sweep", "--table", table_file, "--lambda-max", "0.6",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_USAGE
        assert "0.5" in capsys.readouterr().err

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


class TestTrajectory:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "loop.csv"
        assert main(["trajectory", "--samples", "65", "--out", str(out)]) == EXIT_OK
        with open(out) as fh:
            assert fh.readline() == "# schema=msgate/trajectory/1\n"
        data = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
        assert data.shape == (65,)


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
    @pytest.mark.parametrize("flag, value", [("--omega-tilde", "0.5"), ("--n-max", "24")])
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
        ('{"schema": "msgate/coefficients/3"}', "no 'params' entry"),
        ("[1, 2]", "not a JSON object"),
    ])
    def test_exit_usage(self, workdir, capsys, content, message):
        if content is not None:
            Path("t.json").write_text(content)
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("stored, message", [
        (lambda text: text[:-4], "j3 has the wrong shape"),
        (lambda text: "*" + text[1:], "j3 is not valid base64"),
        (lambda text: 0, "j3 is not a base64 string"),
        (lambda text: [], "j3 is not a base64 string"),
    ], ids=["truncated", "invalid", "number", "list"])
    def test_bad_table_encoding(self, table_file, workdir, capsys, stored, message):
        doc = json.loads(Path(table_file).read_text())
        doc["tables"]["j3"] = stored(doc["tables"]["j3"])
        Path("t.json").write_text(json.dumps(doc))
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("entry", ["params", "tables"])
    def test_wrong_typed_entry(self, table_file, workdir, capsys, entry):
        doc = json.loads(Path(table_file).read_text())
        doc[entry] = []
        Path("t.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="wrong type"):
            load_coefficient_table("t.json")
        rc = main(["predict", "--table", "t.json", "--lambda-tilde", "0.01"])
        assert rc == EXIT_USAGE
        assert "entry of the wrong type" in capsys.readouterr().err
