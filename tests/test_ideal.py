"""Calibrated-gate closed forms: loop functions, propagator, target states."""

import math

import numpy as np
import pytest

from msgate.hilbert import (
    CompositeState,
    FockCutoff,
    partial_trace_phonons,
)
from msgate.ideal import (
    DimensionlessGateParams,
    collective_spin,
    ideal_output_state,
    ideal_propagator,
    loop_functions,
    ms_target_unitary,
    phase_space_trajectory,
    trajectory_csv,
)

TAU_GATE = 2.0 * math.pi


class TestParams:
    def test_defaults_are_calibrated(self):
        params = DimensionlessGateParams()
        assert params.omega_tilde == 0.5
        assert params.is_calibrated

    def test_from_physical(self):
        eps = -2.0 * math.pi * 11e3
        params = DimensionlessGateParams.from_physical(
            lamb_dicke=0.1, rabi_rate=eps / (2 * 0.1), detuning=eps, qubit_shift=100.0
        )
        assert params.omega_tilde == pytest.approx(0.5)
        assert params.lambda_tilde == pytest.approx(100.0 / eps)
        assert params.tau_gate == TAU_GATE

    def test_detuned_coupling_not_calibrated(self):
        assert not DimensionlessGateParams(omega_tilde=0.4).is_calibrated
        assert not DimensionlessGateParams(tau_gate=0.7 * TAU_GATE).is_calibrated

    def test_calibrated_loops(self):
        # One loop is the default gate exactly; K loops enclose the same area.
        assert DimensionlessGateParams.calibrated(1) == DimensionlessGateParams()
        for loops in (2, 3, 7):
            params = DimensionlessGateParams.calibrated(loops)
            assert params.omega_tilde == pytest.approx(0.5 / math.sqrt(loops), rel=1e-15)
            assert params.tau_gate == loops * TAU_GATE
            assert params.is_calibrated

    @pytest.mark.parametrize("loops", [0, -1, 1.5, 2.0, True])
    def test_calibrated_rejects_non_positive_or_non_integer(self, loops):
        with pytest.raises(ValueError, match="loops must be an integer >= 1"):
            DimensionlessGateParams.calibrated(loops)

    def test_with_lambda(self):
        params = DimensionlessGateParams().with_lambda(0.03)
        assert params.lambda_tilde == 0.03
        assert params.omega_tilde == 0.5

    def test_rejects_zero_drive(self):
        with pytest.raises(ValueError):
            DimensionlessGateParams(omega_tilde=0.0)

    @pytest.mark.parametrize("name", ["omega_tilde", "lambda_tilde", "tau_gate", "phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DimensionlessGateParams(**{name: value})


class TestLoopFunctions:
    def test_loop_closes(self):
        params = DimensionlessGateParams()
        f, g = loop_functions(TAU_GATE, params)
        assert abs(f) < 1e-15
        assert g == pytest.approx(math.pi / 2.0)

    def test_derivative_consistency(self):
        # dG/dtau = |F|^2 / ... no: dG/dtau = w^2 (1 - cos tau) = |F|^2 / 2
        # for the square pulse; check numerically.
        params = DimensionlessGateParams()
        tau = np.linspace(0.1, 5.0, 11)
        f, _ = loop_functions(tau, params)
        h = 1e-6
        _, gp = loop_functions(tau + h, params)
        _, gm = loop_functions(tau - h, params)
        np.testing.assert_allclose((gp - gm) / (2 * h), 0.5 * np.abs(f) ** 2,
                                   atol=1e-8)

    def test_circle_geometry(self):
        # F traces a circle of radius omega_tilde centered at -omega_tilde.
        params = DimensionlessGateParams(omega_tilde=0.5)
        tau = np.linspace(0.0, TAU_GATE, 64)
        f, _ = loop_functions(tau, params)
        np.testing.assert_allclose(np.abs(f + 0.5), 0.5, atol=1e-14)


class TestIdealPropagator:
    def test_unitary(self):
        cutoff = FockCutoff(20)
        u = ideal_propagator(1.3, DimensionlessGateParams(), cutoff)
        # Truncation only touches the high-Fock corner; check the low block.
        low = np.kron(np.eye(4), np.eye(cutoff.dim, 21, k=0)[:, :8])
        prod = low.T @ u.conj().T @ u @ low
        np.testing.assert_allclose(prod, np.eye(prod.shape[0]), atol=1e-10)

    def test_identity_at_zero(self):
        cutoff = FockCutoff(6)
        u = ideal_propagator(0.0, DimensionlessGateParams(), cutoff)
        np.testing.assert_allclose(u, np.eye(cutoff.composite_dim), atol=1e-14)

    def test_full_gate_matches_combos(self):
        cutoff = FockCutoff(24)
        u = ideal_propagator(TAU_GATE, DimensionlessGateParams(), cutoff)
        for label in ("gg", "ge", "eg", "ee"):
            for n in range(3):
                initial = CompositeState.basis_state(label, n, cutoff)
                final = CompositeState(u @ initial.amplitudes, cutoff)
                target = ideal_output_state(label, n, cutoff)
                assert abs(final.overlap(target)) ** 2 == pytest.approx(
                    1.0, abs=1e-12
                ), (label, n)

    def test_phi_not_implemented(self):
        with pytest.raises(NotImplementedError):
            ideal_propagator(1.0, DimensionlessGateParams(phi=0.2), FockCutoff(2))


class TestTargetUnitary:
    def test_unitary_and_form(self):
        u = ms_target_unitary()
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-14)
        # exp(i pi/2 S_y^2) in the computational basis couples gg<->ee and
        # ge<->eg with weight -i/sqrt(2)... check against direct expm route.
        s2 = collective_spin(0.0)
        s2 = s2 @ s2
        vals, vecs = np.linalg.eigh(s2)
        direct = (vecs * np.exp(1j * (math.pi / 2) * vals)) @ vecs.conj().T
        np.testing.assert_allclose(u, direct, atol=1e-14)

    def test_reduced_gate_state_matches_target(self):
        cutoff = FockCutoff(16)
        u = ms_target_unitary()
        for label, q in (("gg", 0), ("ge", 1)):
            out = ideal_output_state(label, 2, cutoff)
            rho = partial_trace_phonons(out).matrix
            vec = u[:, q]
            np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_squared_spin_idempotent(self):
        s2 = collective_spin(0.3)
        s2 = s2 @ s2
        np.testing.assert_allclose(s2 @ s2, s2, atol=1e-14)


class TestTrajectory:
    def test_samples_and_closure(self):
        traj = phase_space_trajectory(DimensionlessGateParams(), 33)
        assert traj["tau"].shape == (33,)
        np.testing.assert_allclose(traj["alpha_plus"], -traj["alpha_minus"])
        assert abs(traj["alpha_plus"][-1]) < 1e-14
        assert traj["area_phase"][-1] == pytest.approx(math.pi / 2)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "traj.csv"
        traj = phase_space_trajectory(DimensionlessGateParams(), 9)
        text = trajectory_csv(traj)
        assert text.count("\n") == 11 and "\r" not in text
        assert text.splitlines()[0] == "# schema=msgate/trajectory/1"
        path.write_text(text)
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
        np.testing.assert_allclose(data["tau"], traj["tau"], atol=1e-15)
        np.testing.assert_allclose(
            data["re_alpha_plus"], traj["alpha_plus"].real, atol=1e-15
        )

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            phase_space_trajectory(DimensionlessGateParams(), 1)
