"""Two-gate calibration sequence: fringe synthesis, fitting, inversion."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msgate.experiment as experiment
from msgate.experiment import (
    ENGINES,
    FringeFit,
    SequenceConfig,
    effective_phase_slope,
    estimate_lambda,
    fit_fringe,
    phase_scan,
    phi_seq_prediction,
    run_calibration,
    sample_fringe,
    simulate_fringe,
)
from msgate.hilbert import ThermalDistribution
from msgate.magnus import (TruncationError, compute_coefficient_table, predict_fidelity,
                           predict_phase, predict_purity)
from msgate.oracle import GuardBandError

# The library is dimensionless; a shift stated in rad/s below is divided
# by this detuning, -11 kHz in rad/s, to give its lambda_tilde.
EPSILON = -2.0 * math.pi * 11e3


def _config(**kw):
    base = dict(lambda_tilde=100.0 / EPSILON, engine="first_order_model", shots=None)
    base.update(kw)
    return SequenceConfig(**base)


class TestSequenceConfig:
    def test_thermal_config_hashes(self):
        # A config is a value whichever mode it holds.
        thermal = SequenceConfig(1e-4, mode=ThermalDistribution(0.3))
        assert hash(thermal) == hash(SequenceConfig(1e-4, mode=ThermalDistribution(0.3)))
        assert thermal == SequenceConfig(1e-4, mode=ThermalDistribution(0.3))
        assert thermal != SequenceConfig(1e-4, mode=ThermalDistribution(2.0))

    def test_validation(self):
        with pytest.raises(ValueError, match="engine"):
            _config(engine="exact")
        with pytest.raises(ValueError, match="exceeds"):
            _config(lambda_tilde=1.0)
        with pytest.raises(ValueError, match="phase_points must be an integer >= 5, got 3"):
            _config(phase_points=3)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="lambda_tilde must be finite"):
            _config(lambda_tilde=value)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("lambda_tilde", [
        np.array([0.01, 0.02]), np.array([0.01]), [0.01, 0.02],
    ], ids=["two", "one", "list"])
    def test_array_lambda_tilde_refused(self, engine, lambda_tilde):
        # Unrefused, a two-element shift ran the model engine on it and
        # returned one estimate for both, and a one-element one reached the
        # oracle and ended in numpy's bare TypeError.
        with pytest.raises(ValueError, match="lambda_tilde must be a single number, got "
                                             r"\[0\.01"):
            _config(engine=engine, lambda_tilde=lambda_tilde)

    def test_thermal(self):
        assert _config().mode == 0
        assert _config(mode=2).mode == 2
        dist = ThermalDistribution(0.05)
        assert _config(mode=dist).mode is dist

    def test_negative_level_refused(self):
        with pytest.raises(ValueError, match="mode must be an integer >= 0, got -1"):
            _config(mode=-1)

    @pytest.mark.parametrize("shots", [0, -1, 2.5, 200.0, True])
    def test_bad_shots_refused(self, shots):
        # Refused with fit_fringe's message when the config is made, not
        # after the fringe has been simulated.  A count is an integer, so
        # 200.0 and True are refused like 2.5.
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            _config(shots=shots)

    @pytest.mark.parametrize("shots", [None, 1, 200])
    def test_shots_accepted(self, shots):
        assert _config(shots=shots).shots == shots

    @pytest.mark.parametrize("name, value", [
        ("phase_points", 5.5), ("phase_points", 6.0), ("phase_points", "6"),
        ("mode", 1.5), ("mode", 1.0), ("mode", None),
        ("phase_points", True), ("mode", True), ("cutoff_n_max", 1.5), ("cutoff_n_max", True),
    ])
    def test_non_integer_refused(self, name, value):
        # Unrefused, phase_points 5.5 would scan 6 points pi/5.5 apart, and
        # mode 1.5 would reach the oracle.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _config(**{name: value})

    @pytest.mark.parametrize("engine", ENGINES)
    def test_negative_cutoff_refused_with_either_engine(self, engine):
        # The model engine never builds the cutoff, and used to accept it.
        with pytest.raises(ValueError, match="cutoff_n_max must be an integer >= 0, got -1"):
            _config(engine=engine, cutoff_n_max=-1)

    def test_numpy_integers_accepted(self, table):
        config = _config(phase_points=np.int64(6), mode=np.int32(1))
        phi, p = simulate_fringe(config, table)
        assert phi.shape == p.shape == (6,)

    def test_thermal_levels_scaling(self, table):
        # The model fringe of a thermal mode is the weighted sum of the
        # fringes of its levels 0..n_max, whose count grows with n_bar.
        levels = []
        for n_bar in (0.0, 0.05):
            dist = ThermalDistribution(n_bar)
            levels.append(dist.n_max)
            _, mixed = simulate_fringe(_config(mode=dist), table)
            per_level = [simulate_fringe(_config(mode=n), table)[1]
                         for n in range(dist.n_max + 1)]
            np.testing.assert_allclose(mixed, dist.probabilities @ np.array(per_level),
                                       rtol=1e-14, atol=1e-15)
        assert levels[0] == 0
        assert 4 <= levels[1] < ThermalDistribution(0.5).n_max


class TestScanAndSlope:
    def test_phase_scan(self):
        phi = phase_scan(16)
        assert phi[0] == 0.0
        assert phi[-1] == pytest.approx(math.pi * 15 / 16)
        np.testing.assert_allclose(np.diff(phi), math.pi / 16)

    @pytest.mark.parametrize("n_points", [0, -1, 4.0])
    def test_phase_scan_takes_a_positive_count(self, n_points):
        # Unrefused, 0 and -1 gave an empty scan.
        with pytest.raises(ValueError, match="n_points must be an integer >= 1"):
            phase_scan(n_points)

    def test_effective_slope(self, table, derived):
        assert effective_phase_slope(table, 2) == derived.a[2]
        dist = ThermalDistribution(0.05)
        expected = dist.probabilities @ derived.a[:8]
        assert effective_phase_slope(table, dist) == pytest.approx(expected)

    @pytest.mark.parametrize("mode", [[0, 1], np.array([0, 1]), 1.5, True])
    def test_effective_slope_takes_one_mode(self, table, mode):
        # Read as simulate_fringe reads a mode.  A list used to pass the
        # predictors' level-grid check and end in a bare TypeError.
        with pytest.raises(ValueError, match="Fock level n must be an integer >= 0, got"):
            effective_phase_slope(table, mode)

    def test_phi_seq_prediction(self, table, derived):
        assert phi_seq_prediction(0.01, 5.68) == 2.0 * 0.01 * 5.68
        # The model engine's per-level phases are this formula's.
        levels = np.arange(4)
        phases = phi_seq_prediction(0.01, derived.a[levels])
        rows = experiment._model_fringe(_config(lambda_tilde=0.01), table, levels,
                                        np.zeros(1))
        assert np.array_equal(rows[:, 0], 0.5 * (1.0 + np.cos(phases)))

    # lambda_tilde is checked as SequenceConfig and the predictors check it,
    # and the slope must be finite.  Unrefused, a nan or inf came back as a
    # nan or inf phase.
    @pytest.mark.parametrize("args, message", [
        ((math.nan, 5.0), "lambda_tilde must be finite"),
        ((math.inf, 5.0), "lambda_tilde must be finite"),
        ((0.7, 5.0), "exceeds the hard cap"),
        ((0.01, math.nan), "slope must be finite"),
        ((0.01, math.inf), "slope must be finite"),
    ])
    def test_phi_seq_prediction_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            phi_seq_prediction(*args)


class TestFringeFit:
    def test_exact_recovery(self):
        phi = phase_scan(16)
        p = 0.5 + 0.5 * np.cos(2 * phi - 0.3)
        fit = fit_fringe(phi, p)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-9)
        assert fit.phase == pytest.approx(-0.3, abs=1e-9)
        assert fit.offset == pytest.approx(0.5, abs=1e-9)
        assert fit.residual_rms < 1e-10

    @given(
        amp=st.floats(0.25, 0.5),
        phase=st.floats(-3.1, 3.1),
        offset=st.floats(0.3, 0.6),
        points=st.integers(7, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovery_property(self, amp, phase, offset, points):
        phi = phase_scan(points)
        p = offset + amp * np.cos(2 * phi + phase)
        fit = fit_fringe(phi, p)
        assert fit.amplitude == pytest.approx(amp, abs=1e-7)
        assert math.remainder(fit.phase - phase, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-7
        )
        assert fit.offset == pytest.approx(offset, abs=1e-7)

    def test_noisy_recovery_within_errors(self, rng):
        phi = phase_scan(24)
        true_phase = 0.7
        p = 0.5 + 0.5 * np.cos(2 * phi + true_phase)
        obs = sample_fringe(p, 500, rng)
        fit = fit_fringe(phi, obs, shots=500)
        assert abs(fit.phase - true_phase) < 5.0 * fit.phase_err
        assert fit.phase_err < 0.1

    def test_negative_seed_amplitude_normalized(self):
        phi = phase_scan(12)
        # A phase near pi still comes back with a positive amplitude.
        p = 0.5 + 0.4 * np.cos(2 * phi + 3.0)
        fit = fit_fringe(phi, p)
        assert fit.amplitude > 0
        assert math.remainder(fit.phase - 3.0, 2 * math.pi) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_rejects_short_scans(self):
        phi = phase_scan(4)
        with pytest.raises(ValueError, match=">= 5"):
            fit_fringe(phi, np.zeros(4))

    def test_undetermined_covariance_is_inf(self):
        # Noiseless data on 8 points leaves no residual to scale the
        # covariance by; the fit holds, its errors are inf, no warning escapes.
        phi = phase_scan(8)
        fit = fit_fringe(phi, 0.5 + 0.4 * np.cos(2 * phi))
        assert fit.amplitude == pytest.approx(0.4, abs=1e-9)
        assert math.isinf(fit.phase_err)

    @pytest.mark.parametrize("points", [5, 8, 16])
    @pytest.mark.parametrize("phase", [0.0, 0.7, -1.2, 3.0])
    def test_exact_fringe_undetermined_at_any_phase(self, phase, points):
        # Without shots, exact probabilities leave only rounding in the
        # residuals: the errors are inf and the caveat fires at every phase.
        phi = phase_scan(points)
        fit = fit_fringe(phi, 0.5 + 0.4 * np.cos(2 * phi + phase))
        assert fit.phase == pytest.approx(phase, abs=1e-12)
        assert np.isinf([fit.amplitude_err, fit.phase_err, fit.offset_err]).all()
        estimate = estimate_lambda(fit, 5.68)
        assert any("covariance undetermined" in c for c in estimate.caveats)

    def test_errors_match_closed_form(self, rng):
        # On an evenly spaced scan the columns cos 2phi, sin 2phi and 1 are
        # orthogonal, so var(A cos, A sin) = 2 s^2/N and var(phase) = that / A^2.
        n = 20
        phi = phase_scan(n)
        p = 0.5 + 0.4 * np.cos(2 * phi + 0.7) + rng.normal(0.0, 0.01, n)
        fit = fit_fringe(phi, p)
        s2 = n * fit.residual_rms**2 / (n - 3)
        assert fit.phase_err == pytest.approx(math.sqrt(2 * s2 / n) / fit.amplitude, rel=1e-10)
        assert fit.amplitude_err == pytest.approx(math.sqrt(2 * s2 / n), rel=1e-10)
        assert fit.offset_err == pytest.approx(math.sqrt(s2 / n), rel=1e-10)

    @pytest.mark.parametrize("phi, p, message", [
        (phase_scan(8), np.r_[np.full(7, 0.5), np.nan], "finite"),
        (np.r_[phase_scan(7), np.inf], np.full(8, 0.5), "finite"),
        (np.zeros(8), np.full(8, 0.5), "rank < 3"),
        (np.tile([0.0, math.pi / 2], 4), np.tile([0.9, 0.1], 4), "rank < 3"),
    ])
    def test_rejects_undetermining_data(self, phi, p, message):
        with pytest.raises(ValueError, match=message):
            fit_fringe(phi, p)

    @pytest.mark.parametrize("shots", [0, -3, 2.5, math.nan, math.inf, 200.0, True])
    def test_rejects_bad_shots(self, shots):
        # Refused before any arithmetic: 0 used to divide by zero and -3 to
        # fail inside the SVD.
        phi = phase_scan(8)
        p = 0.5 + 0.4 * np.cos(2 * phi)
        with pytest.raises(ValueError, match="shots must be an integer >= 1"):
            fit_fringe(phi, p, shots)
        assert fit_fringe(phi, p, np.int64(200)).phase == fit_fringe(phi, p, 200).phase

    @pytest.mark.parametrize("level", [0.0, 0.5])
    @pytest.mark.parametrize("shots", [None, 200])
    def test_flat_data_warns_nothing(self, shots, level):
        # A flat scan has no phase, so no error bars.  All-zero data fits
        # A = 0 exactly; at level 0.5 with shots the fit leaves A at the
        # rounding level of the data (1.4e-16 on 5 points, 3.2e-16 on 8),
        # which counts as zero too.
        for points in (5, 8):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_fringe(phase_scan(points), np.full(points, level), shots)
            assert fit.amplitude == pytest.approx(0.0, abs=1e-12)
            assert fit.offset == pytest.approx(level)
            if level == 0.0:
                assert fit.amplitude == 0.0
            assert np.isinf([fit.amplitude_err, fit.phase_err, fit.offset_err]).all()
            estimate = estimate_lambda(fit, 5.68)
            assert any("covariance undetermined" in c for c in estimate.caveats)


    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("shots", [1, 200, 10**6])
    def test_binomial_sigma_floor(self, p, shots):
        # A fraction of 0 or 1 has no binomial spread; its weight is floored
        # at the spread of p(1 - p) = 1/(4 shots), one half-count per shot.
        sigma = experiment._binomial_sigma(np.array([p]), shots)
        assert sigma[0] == pytest.approx(0.5 / shots, rel=1e-15)


class TestSampling:
    def test_sampled_fraction_range(self, rng):
        p = np.linspace(0.0, 1.0, 21)
        obs = sample_fringe(p, 100, rng)
        assert ((obs >= 0) & (obs <= 1)).all()
        assert sample_fringe(np.array([0.0]), 50, rng)[0] == 0.0
        assert sample_fringe(np.array([1.0]), 50, rng)[0] == 1.0

    def test_rejects_zero_shots(self, rng):
        with pytest.raises(ValueError):
            sample_fringe(np.array([0.5]), 0, rng)

    def test_rejects_fractional_shots(self, rng):
        # Unrefused, 2.5 shots would draw binomial(2, p) and divide by 2.5,
        # and None would fail inside numpy: sampling has no exact mode.
        for shots in (2.5, True, None):
            with pytest.raises(ValueError, match=f"shots must be an integer >= 1, got {shots}"):
                sample_fringe(np.array([0.5, 0.2]), shots, rng)


class TestModelEngine:
    def test_fringe_shape(self, table):
        config = _config()
        phi, p = simulate_fringe(config, table=table)
        assert phi.shape == p.shape == (16,)
        assert (p >= 0).all() and (p <= 1).all()

    def test_round_trip_is_exact(self, table):
        # Model-engine data inverted with the model slope returns the input
        # shift to machine precision.
        for shift in (25.0, -70.0, 300.0):
            config = _config(lambda_tilde=shift / EPSILON)
            fit, estimate, _, _ = run_calibration(config, table)
            assert estimate.lambda_tilde == pytest.approx(shift / EPSILON, rel=1e-9)
            # Exact data leaves no residual to scale the covariance by.
            assert len(estimate.caveats) == 1
            assert "covariance undetermined" in estimate.caveats[0]

    def test_default_rng_is_repeatable(self, table):
        # Without an rng the shots are drawn from a fixed seed.
        config = _config(lambda_tilde=40.0 / EPSILON, shots=200)
        first, again = run_calibration(config, table), run_calibration(config, table)
        assert np.array_equal(first[3], again[3])
        assert first[1].lambda_tilde == again[1].lambda_tilde
        assert not np.array_equal(first[3], simulate_fringe(config, table)[1])

    def test_thermal_round_trip(self, table):
        config = _config(lambda_tilde=40.0 / EPSILON, mode=ThermalDistribution(0.05))
        fit, estimate, _, _ = run_calibration(config, table)
        # Thermal fringe phase is a phasor average; the weighted-slope
        # inversion leaves only the O(lam^2) phasor-vs-mean residue.
        assert estimate.lambda_tilde == pytest.approx(40.0 / EPSILON, rel=1e-3)


class TestOracleEngine:
    def test_phi_seq_matches_prediction(self, table, derived):
        lt = 50.0 / EPSILON
        config = _config(
            engine="oracle", lambda_tilde=lt, cutoff_n_max=24, phase_points=8,
        )
        fit, estimate, _, _ = run_calibration(config, table)
        predicted = phi_seq_prediction(lt, derived.a[0])
        assert fit.phase == pytest.approx(predicted, rel=5e-3)
        assert estimate.lambda_tilde == pytest.approx(lt, rel=5e-3)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-3)

    def test_sampled_estimate_covers_truth(self, table, rng):
        lt = 150.0 / EPSILON
        config = _config(
            engine="oracle", lambda_tilde=lt, shots=200, cutoff_n_max=24,
            phase_points=8,
        )
        fit, estimate, _, p_obs = run_calibration(config, table, rng)
        assert estimate.lambda_tilde_err > 0
        assert abs(estimate.lambda_tilde - lt) < 5.0 * estimate.lambda_tilde_err
        assert len(p_obs) == 8

    def test_runs_the_tables_gate(self, two_loop_table):
        # A two-loop table: the oracle must run two loops at its omega_tilde,
        # or the fringe it fits is not the gate whose slope inverts it.
        lt = 2.0 * math.pi * 100.0 / EPSILON
        config = _config(engine="oracle", lambda_tilde=lt)
        _, estimate, _, _ = run_calibration(config, two_loop_table)
        assert estimate.lambda_tilde == pytest.approx(lt, rel=5e-3)

    def test_truncated_cutoff_raises(self, table):
        # At 3 phonons the drive pushes probability into the guard band and
        # the fringe is visibly wrong, so the engine must refuse it.
        config = _config(
            engine="oracle", lambda_tilde=2.0 * math.pi * 300.0 / EPSILON, cutoff_n_max=3,
            phase_points=8,
        )
        with pytest.raises(GuardBandError, match="guard-band"):
            simulate_fringe(config, table)

    def test_level_above_cutoff_raises(self, table):
        # A thermal mode at n_bar = 2 needs levels 0..52, past cutoff 32.
        config = _config(engine="oracle", mode=ThermalDistribution(2.0))
        with pytest.raises(GuardBandError, match="Fock level 52 .*--cutoff-n-max"):
            simulate_fringe(config, table)

    def test_untrusted_mode_refused_before_any_gate(self, table, monkeypatch):
        # Cutoff 88 holds levels 0..52 of n_bar 2, but the n_max 24 table
        # trusts none above 9: neither gate runs.
        calls = []
        propagate = experiment.propagate_ramped_axis
        monkeypatch.setattr(experiment, "propagate_ramped_axis",
                            lambda *args: calls.append(args) or propagate(*args))
        config = _config(engine="oracle", mode=ThermalDistribution(2.0), cutoff_n_max=88)
        with pytest.raises(TruncationError, match="Fock level 10 is not trusted"):
            run_calibration(config, table)
        assert calls == []


@pytest.mark.parametrize("engine", ENGINES)
@given(
    detuning_sign=st.sampled_from([-1.0, 1.0]),
    shift_hz=st.floats(30.0, 300.0),
    shift_sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=20, deadline=None)
def test_recovery_at_both_detuning_signs(table, engine, detuning_sign, shift_hz, shift_sign):
    # Both signs of the detuning and of the shift, so both of lambda_tilde.
    lt = (shift_sign * shift_hz) / (detuning_sign * 11e3)
    config = SequenceConfig(lambda_tilde=lt, engine=engine, shots=None)
    _, estimate, _, _ = run_calibration(config, table)
    rel = abs(estimate.lambda_tilde - lt) / abs(lt)
    if engine == "first_order_model":
        assert rel <= 1e-9
    else:
        # The first-order inversion's bias on the exact fringe grows like
        # 0.12 |lambda_tilde| (3.2e-3 at 300 Hz against 11 kHz).
        assert rel <= 0.15 * abs(lt)


class TestEstimator:
    def test_insensitive_slope_refused(self):
        fit = fit_fringe(phase_scan(8), 0.5 + 0.4 * np.cos(2 * phase_scan(8)))
        with pytest.raises(ValueError, match="too small"):
            estimate_lambda(fit, 1e-9)

    @pytest.mark.parametrize("slope", [math.nan, math.inf, -math.inf])
    def test_bad_inputs_refused(self, slope):
        # Unrefused, a nan or inf came back as a nan or inf estimate.
        fit = fit_fringe(phase_scan(8), 0.5 + 0.4 * np.cos(2 * phase_scan(8) + 0.1))
        with pytest.raises(ValueError, match="slope must be finite"):
            estimate_lambda(fit, slope)

    def test_smallest_slope_inverted(self):
        # The floor is 1e-6 in magnitude, so 1.5e-6 of either sign inverts.
        fit = fit_fringe(phase_scan(8), 0.5 + 0.4 * np.cos(2 * phase_scan(8) + 0.1))
        for slope in (1.5e-6, -1.5e-6):
            estimate = estimate_lambda(fit, slope)
            assert estimate.lambda_tilde == pytest.approx(fit.phase / (2.0 * slope))

    def test_array_slope_refused(self):
        # Unrefused, it ended in numpy's ambiguous truth value.
        fit = fit_fringe(phase_scan(8), 0.5 + 0.4 * np.cos(2 * phase_scan(8) + 0.1))
        with pytest.raises(ValueError, match=r"^slope must be a single number, got \[5.0, 6.0\]"):
            estimate_lambda(fit, np.array([5.0, 6.0]))
        assert type(estimate_lambda(fit, np.float64(5.0)).slope) is float

    def test_caveats(self):
        phi = phase_scan(12)
        weak = 0.5 + 0.05 * np.cos(2 * phi + 1.2)
        fit = fit_fringe(phi, weak)
        estimate = estimate_lambda(fit, 5.68)
        assert any("contrast" in c for c in estimate.caveats)
        big = 0.5 + 0.5 * np.cos(2 * phi + 2.0)
        fit = fit_fringe(phi, big, shots=400)
        estimate = estimate_lambda(fit, 5.68)
        assert any("first-order" in c for c in estimate.caveats)
        assert not any("covariance" in c for c in estimate.caveats)
        exact = fit_fringe(phase_scan(8), 0.5 + 0.5 * np.cos(2 * phase_scan(8)))
        estimate = estimate_lambda(exact, 5.68)
        assert any("covariance undetermined" in c for c in estimate.caveats)
        assert math.isinf(estimate.lambda_tilde_err)

    @pytest.mark.parametrize("amplitude, caveat", [(0.2, False), (np.nextafter(0.2, 0.0), True)])
    def test_contrast_caveat_below_0_2(self, amplitude, caveat):
        # Contrast below 0.2 is poor; 0.2 itself is not.
        fit = FringeFit(amplitude=amplitude, phase=0.1, offset=0.5, amplitude_err=0.01,
                        phase_err=0.01, offset_err=0.01, covariance=np.eye(3) * 1e-4,
                        residual_rms=0.01)
        poor = ("fringe contrast below 0.2; phase poorly constrained",)
        assert estimate_lambda(fit, 5.68).caveats == (poor if caveat else ())

    def test_error_propagation(self):
        phi = phase_scan(16)
        p = 0.5 + 0.5 * np.cos(2 * phi - 0.1)
        fit = fit_fringe(phi, p, shots=400)
        estimate = estimate_lambda(fit, 5.68)
        expected = fit.phase_err / (2 * 5.68)
        assert estimate.lambda_tilde_err == pytest.approx(expected)
        assert estimate.lambda_tilde == pytest.approx(fit.phase / (2 * 5.68))

    def test_results_are_values(self, table):
        fit, estimate, _, _ = run_calibration(_config(lambda_tilde=0.0), table)
        assert isinstance(estimate.caveats, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.phase = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            estimate.lambda_tilde = 0.0

    def test_fit_covariance_is_read_only(self):
        phi_d = phase_scan(8)
        p_obs = 0.5 * (1.0 + 0.9 * np.cos(2.0 * phi_d + 0.3)) + 0.01 * np.sin(phi_d)
        fit = fit_fringe(phi_d, p_obs)
        assert np.isfinite(fit.covariance).all()
        with pytest.raises(ValueError, match="read-only"):
            fit.covariance[0, 0] = 5.0

    def test_engines_constant(self):
        assert ENGINES == ("first_order_model", "oracle")


class TestLevelAverage:
    """Every thermal level average is a sum in level order,
    w_0 v_0 + w_1 v_1 + ..., whatever numpy or BLAS would pick: of the
    per-level scalars for the predictors and the slope, of the per-level
    fringes for the calibration fringe."""

    @pytest.fixture(scope="class")
    def table80(self):
        # Trusts levels 0..59, past the 52 that n_bar = 2 needs.
        return compute_coefficient_table(n_max=80)

    @staticmethod
    def ordered(weights, rows):
        """The left-to-right weighted sum, in Python floats."""
        rows = np.asarray(rows, dtype=float)
        total = [0.0] * rows[0].size
        for weight, row in zip(weights.tolist(), rows.reshape(len(rows), -1).tolist()):
            total = [acc + weight * value for acc, value in zip(total, row)]
        return np.reshape(total, rows.shape[1:])

    @pytest.mark.parametrize("n_bar", [0.05, 0.3, 2.0])
    def test_equals_ordered_sum(self, table80, n_bar):
        dist = ThermalDistribution(n_bar)
        levels, weights = np.arange(dist.n_max + 1), dist.probabilities
        der = table80.derived()
        a, b_re, b_im, c_gg, c_ee = (self.ordered(weights, v[levels]) for v in
                                     (der.a, der.b.real, der.b.imag, der.c_gg, der.c_ee))
        # Each closed form, evaluated once at the ordered means.
        for lam in (0.013, np.array([-0.03, 0.004, 0.02])):
            want = {
                predict_phase: -math.pi / 2 + lam * a + lam * lam * b_re,
                predict_fidelity: 1.0 + 0.5 * lam * lam * (c_gg + c_ee - b_im),
                predict_purity: 1.0 - lam * lam * (b_im - 0.5 * a * a - c_gg - c_ee),
            }
            for predictor, value in want.items():
                assert np.array_equal(predictor(dist, lam, table80), value), predictor
        assert effective_phase_slope(table80, dist) == a
        # The engines' per-level fringes, each row one Fock level.
        phi_d = phase_scan(8)
        for engine, rows in (("first_order_model", experiment._model_fringe),
                             ("oracle", experiment._oracle_fringe)):
            config = _config(engine=engine, mode=dist, lambda_tilde=0.01,
                             phase_points=8, cutoff_n_max=88)
            per_level = rows(config, table80, levels, phi_d)
            assert per_level.shape == (levels.size, phi_d.size)
            _, fringe = simulate_fringe(config, table80)
            assert np.array_equal(fringe, self.ordered(weights, per_level)), engine
