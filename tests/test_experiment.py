"""Two-gate calibration sequence: fringe synthesis, fitting, inversion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msgate.experiment import (
    ENGINES,
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
from msgate.oracle import GuardBandError

EPSILON = -2.0 * math.pi * 11e3  # rad/s


def _config(**kw):
    base = dict(detuning=EPSILON, qubit_shift=100.0, engine="first_order_model",
                shots=None)
    base.update(kw)
    return SequenceConfig(**base)


class TestSequenceConfig:
    def test_lambda_tilde(self):
        config = _config(qubit_shift=EPSILON * 0.01)
        assert config.lambda_tilde == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero"):
            _config(detuning=0.0)
        with pytest.raises(ValueError, match="engine"):
            _config(engine="exact")
        with pytest.raises(ValueError, match="exceeds"):
            _config(qubit_shift=EPSILON)
        with pytest.raises(ValueError, match="phase points"):
            _config(phase_points=3)

    @pytest.mark.parametrize("name", ["detuning", "qubit_shift"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _config(**{name: value})

    def test_thermal(self):
        assert _config().mode == 0
        assert _config(mode=2).mode == 2
        dist = ThermalDistribution(0.05)
        assert _config(mode=dist).mode is dist

    def test_negative_level_refused(self):
        with pytest.raises(ValueError, match="initial Fock level must be >= 0"):
            _config(mode=-1)

    @pytest.mark.parametrize("shots", [0, -1, 2.5])
    def test_bad_shots_refused(self, shots):
        # Refused with fit_fringe's message when the config is made, not
        # after the fringe has been simulated.
        with pytest.raises(ValueError, match="shots must be positive"):
            _config(shots=shots)

    @pytest.mark.parametrize("shots", [None, 1, 200, 200.0])
    def test_shots_accepted(self, shots):
        assert _config(shots=shots).shots == shots

    @pytest.mark.parametrize("name, value", [
        ("phase_points", 5.5), ("phase_points", 6.0), ("phase_points", "6"),
        ("mode", 1.5), ("mode", 1.0), ("mode", None),
    ])
    def test_non_integer_refused(self, name, value):
        # Unrefused, phase_points 5.5 would scan 6 points pi/5.5 apart, and
        # mode 1.5 would reach the oracle.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _config(**{name: value})

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

    def test_effective_slope(self, table, derived):
        assert effective_phase_slope(table, 2) == derived.a[2]
        dist = ThermalDistribution(0.05)
        expected = dist.probabilities @ derived.a[:8]
        assert effective_phase_slope(table, dist) == pytest.approx(expected)

    def test_phi_seq_prediction(self):
        assert phi_seq_prediction(100.0, EPSILON, 5.68) == pytest.approx(
            2.0 * 100.0 * 5.68 / EPSILON
        )
        with pytest.raises(ValueError):
            phi_seq_prediction(1.0, 0.0, 5.0)


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
        estimate = estimate_lambda(fit, 5.68, EPSILON)
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

    @pytest.mark.parametrize("shots", [0, -3, 2.5, math.nan, math.inf])
    def test_rejects_bad_shots(self, shots):
        # Refused before any arithmetic: 0 used to divide by zero and -3 to
        # fail inside the SVD.
        phi = phase_scan(8)
        p = 0.5 + 0.4 * np.cos(2 * phi)
        with pytest.raises(ValueError, match="shots must be positive"):
            fit_fringe(phi, p, shots)
        assert fit_fringe(phi, p, 200.0).phase == fit_fringe(phi, p, 200).phase

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
            estimate = estimate_lambda(fit, 5.68, EPSILON)
            assert any("covariance undetermined" in c for c in estimate.caveats)


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
        # Unrefused, 2.5 shots would draw binomial(2, p) and divide by 2.5.
        with pytest.raises(ValueError, match="shots must be positive"):
            sample_fringe(np.array([0.5, 0.2]), 2.5, rng)


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
            config = _config(qubit_shift=shift)
            fit, estimate, _, _ = run_calibration(config, table)
            assert estimate.lambda_hat == pytest.approx(shift, rel=1e-9)
            # Exact data leaves no residual to scale the covariance by.
            assert len(estimate.caveats) == 1
            assert "covariance undetermined" in estimate.caveats[0]

    def test_thermal_round_trip(self, table):
        config = _config(qubit_shift=40.0, mode=ThermalDistribution(0.05))
        fit, estimate, _, _ = run_calibration(config, table)
        # Thermal fringe phase is a phasor average; the weighted-slope
        # inversion leaves only the O(lam^2) phasor-vs-mean residue.
        assert estimate.lambda_hat == pytest.approx(40.0, rel=1e-3)


class TestOracleEngine:
    def test_phi_seq_matches_prediction(self, table, derived):
        shift = 50.0
        config = _config(
            engine="oracle", qubit_shift=shift, cutoff_n_max=24, phase_points=8,
        )
        fit, estimate, _, _ = run_calibration(config, table)
        predicted = phi_seq_prediction(shift, EPSILON, derived.a[0])
        assert fit.phase == pytest.approx(predicted, rel=5e-3)
        assert estimate.lambda_hat == pytest.approx(shift, rel=5e-3)
        assert fit.amplitude == pytest.approx(0.5, abs=1e-3)

    def test_sampled_estimate_covers_truth(self, table, rng):
        shift = 150.0
        config = _config(
            engine="oracle", qubit_shift=shift, shots=200, cutoff_n_max=24,
            phase_points=8,
        )
        fit, estimate, _, p_obs = run_calibration(config, table, rng)
        assert estimate.lambda_err > 0
        assert abs(estimate.lambda_hat - shift) < 5.0 * estimate.lambda_err
        assert len(p_obs) == 8

    def test_runs_the_tables_gate(self, two_loop_table):
        # A two-loop table: the oracle must run two loops at its omega_tilde,
        # or the fringe it fits is not the gate whose slope inverts it.
        shift = 2.0 * math.pi * 100.0
        config = _config(engine="oracle", qubit_shift=shift)
        _, estimate, _, _ = run_calibration(config, two_loop_table)
        assert estimate.lambda_hat == pytest.approx(shift, rel=5e-3)

    def test_truncated_cutoff_raises(self, table):
        # At 3 phonons the drive pushes probability into the guard band and
        # the fringe is visibly wrong, so the engine must refuse it.
        config = _config(
            engine="oracle", qubit_shift=2.0 * math.pi * 300.0, cutoff_n_max=3,
            phase_points=8,
        )
        with pytest.raises(GuardBandError, match="guard-band"):
            simulate_fringe(config, table)

    def test_level_above_cutoff_raises(self, table):
        # A thermal mode at n_bar = 2 needs levels 0..52, past cutoff 32.
        config = _config(engine="oracle", mode=ThermalDistribution(2.0))
        with pytest.raises(GuardBandError, match="Fock level 52 .*--cutoff-n-max"):
            simulate_fringe(config, table)


@pytest.mark.parametrize("engine", ENGINES)
@given(
    detuning_sign=st.sampled_from([-1.0, 1.0]),
    shift_hz=st.floats(30.0, 300.0),
    shift_sign=st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=20, deadline=None)
def test_recovery_at_both_detuning_signs(table, engine, detuning_sign, shift_hz, shift_sign):
    config = SequenceConfig(
        detuning=detuning_sign * 2.0 * math.pi * 11e3,
        qubit_shift=shift_sign * 2.0 * math.pi * shift_hz,
        engine=engine, shots=None,
    )
    _, estimate, _, _ = run_calibration(config, table)
    rel = abs(estimate.lambda_hat - config.qubit_shift) / abs(config.qubit_shift)
    if engine == "first_order_model":
        assert rel <= 1e-9
    else:
        # The first-order inversion's bias on the exact fringe grows like
        # 0.12 |lambda_tilde| (3.2e-3 at 300 Hz against 11 kHz).
        assert rel <= 0.15 * abs(config.lambda_tilde)


class TestEstimator:
    def test_insensitive_slope_refused(self):
        fit = fit_fringe(phase_scan(8), 0.5 + 0.4 * np.cos(2 * phase_scan(8)))
        with pytest.raises(ValueError, match="too small"):
            estimate_lambda(fit, 1e-9, EPSILON)

    def test_caveats(self):
        phi = phase_scan(12)
        weak = 0.5 + 0.05 * np.cos(2 * phi + 1.2)
        fit = fit_fringe(phi, weak)
        estimate = estimate_lambda(fit, 5.68, EPSILON)
        assert any("contrast" in c for c in estimate.caveats)
        big = 0.5 + 0.5 * np.cos(2 * phi + 2.0)
        fit = fit_fringe(phi, big, shots=400)
        estimate = estimate_lambda(fit, 5.68, EPSILON)
        assert any("first-order" in c for c in estimate.caveats)
        assert not any("covariance" in c for c in estimate.caveats)
        exact = fit_fringe(phase_scan(8), 0.5 + 0.5 * np.cos(2 * phase_scan(8)))
        estimate = estimate_lambda(exact, 5.68, EPSILON)
        assert any("covariance undetermined" in c for c in estimate.caveats)
        assert math.isinf(estimate.lambda_err)

    def test_error_propagation(self):
        phi = phase_scan(16)
        p = 0.5 + 0.5 * np.cos(2 * phi - 0.1)
        fit = fit_fringe(phi, p, shots=400)
        estimate = estimate_lambda(fit, 5.68, EPSILON)
        expected = abs(EPSILON / (2 * 5.68)) * fit.phase_err
        assert estimate.lambda_err == pytest.approx(expected)

    def test_engines_constant(self):
        assert ENGINES == ("first_order_model", "oracle")
