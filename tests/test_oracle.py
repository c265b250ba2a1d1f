"""Full-Hamiltonian oracle: exactness against RK4, health checks, convergence."""

import math

import numpy as np
import pytest
from scipy import sparse

from msgate.experiment import SequenceConfig, simulate_fringe
from msgate.hilbert import CompositeState, FockCutoff, state_fidelity
from msgate.ideal import (
    DimensionlessGateParams,
    collective_spin,
    ideal_output_state,
    ideal_propagator,
)
from msgate.oracle import (
    GuardBandError,
    IntegratorConfig,
    NormDriftError,
    PropagationResult,
    _frame_hamiltonian,
    _rk4,
    expectation_trajectory,
    hamiltonian_matrix,
    observables,
    propagate,
    propagate_batch,
    propagate_ramped_axis,
    relative_phase_pair,
    sweep,
    write_sweep_csv,
)

TAU = 2.0 * math.pi


class TestHamiltonian:
    def test_hermitian(self):
        params = DimensionlessGateParams(lambda_tilde=0.07)
        for tau in (0.0, 1.1, 4.5):
            h = hamiltonian_matrix(tau, params, FockCutoff(5))
            np.testing.assert_allclose(h, h.conj().T, atol=1e-14)

    def test_sz_sign_on_gg(self):
        # <gg,0| H |gg,0> = lambda * <gg|S_z|gg> = +lambda in this frame.
        params = DimensionlessGateParams(lambda_tilde=0.3)
        h = hamiltonian_matrix(0.0, params, FockCutoff(2))
        assert h[0, 0] == pytest.approx(0.3)
        ee = FockCutoff(2).index(3, 0)
        assert h[ee, ee] == pytest.approx(-0.3)

    def test_rotating_frame_hamiltonian_is_constant(self, oracle_cutoff):
        # e^{-iN tau} H(tau) e^{iN tau} + N is the same matrix at every tau:
        # the H' whose eigendecomposition the exact propagator uses.
        params = DimensionlessGateParams(lambda_tilde=0.04, phi=0.3)
        number = np.tile(np.arange(oracle_cutoff.dim, dtype=float), 4)
        expected = _frame_hamiltonian(0.04, 0.5, 0.3, oracle_cutoff)
        for tau in (0.0, 0.7, 2.9, 5.1):
            rot = np.exp(-1j * tau * number)
            framed = (
                rot[:, None] * hamiltonian_matrix(tau, params, oracle_cutoff) * rot.conj()
                + np.diag(number)
            )
            np.testing.assert_allclose(framed, expected, atol=1e-14)


class TestExactVsRK4:
    """The exact propagator against the RK4 reference route at 8192 steps."""

    STEPS = 8192

    def test_static_axis_stencil_batch(self, oracle_cutoff, rk4_static):
        params = DimensionlessGateParams()
        stencil = (-0.02, -0.01, 0.0, 0.01, 0.02)
        pairs = [(n, lam) for n in range(4) for lam in stencil]
        amps = np.zeros((oracle_cutoff.composite_dim, len(pairs)), dtype=complex)
        for j, (n, _) in enumerate(pairs):
            amps[oracle_cutoff.index(0, n), j] = 1.0
        lam_cols = np.array([lam for _, lam in pairs])
        exact, _, _ = propagate_batch(amps, oracle_cutoff, params, lam_cols)
        reference = rk4_static(amps, params, oracle_cutoff, lam_cols, self.STEPS)
        assert np.abs(exact - reference).max() <= 1e-10

    def test_two_gate_ramped_fringe(self, oracle_cutoff):
        # Gate 1 over [0, 2pi] at axis 0, gate 2 over [2pi, 4pi] at each scan
        # phase, with the axis ramp lam*s carried across both.
        lam, omega = 0.02, 0.5
        d = oracle_cutoff.dim
        raise_op = np.diag(np.sqrt(np.arange(1.0, d)), -1).astype(complex)
        k_y = sparse.csr_matrix(-omega * np.kron(collective_spin(0.0), raise_op))
        k_x = sparse.csr_matrix(-omega * np.kron(collective_spin(math.pi / 2), raise_op))
        stacked = sparse.vstack([k_y, k_y.conj().T, k_x, k_x.conj().T]).tocsr()

        def rk4_ramped(amps, phi, span):
            def apply_h(s, psi):
                y, y_dag, x, x_dag = (stacked @ psi).reshape(4, 4 * d, -1)
                e = np.exp(1j * s)
                angle = phi + lam * s
                return np.cos(angle) * (e * y + np.conj(e) * y_dag) + np.sin(angle) * (
                    e * x + np.conj(e) * x_dag
                )

            return _rk4(apply_h, amps, span[0], span[1], self.STEPS)

        init = np.zeros((4 * d, 2), dtype=complex)
        init[oracle_cutoff.index(0, 0), 0] = init[oracle_cutoff.index(0, 1), 1] = 1.0
        phis = np.array([0.0, 0.9, 2.1])
        gate1, gate2 = (0.0, TAU), (TAU, 2 * TAU)
        mid, _, _ = propagate_ramped_axis(init, oracle_cutoff, omega, lam, np.zeros(2), gate1)
        mid_ref = rk4_ramped(init, np.zeros(2), gate1)
        assert np.abs(mid - mid_ref).max() <= 1e-10

        cols, col_phis = np.repeat(mid_ref, phis.size, axis=1), np.tile(phis, 2)
        fin, _, _ = propagate_ramped_axis(cols, oracle_cutoff, omega, lam, col_phis, gate2)
        fin_ref = rk4_ramped(cols, col_phis, gate2)
        assert np.abs(fin - fin_ref).max() <= 1e-10

        detuning = -2.0 * math.pi * 11e3
        config = SequenceConfig(
            detuning=detuning, qubit_shift=lam * detuning, fock_initial=1, shots=None
        )
        _, fringe = simulate_fringe(config, phis)
        p_ee_ref = (np.abs(fin_ref[3 * d :, phis.size :]) ** 2).sum(axis=0)
        assert np.abs(fringe - p_ee_ref).max() <= 1e-10


class TestCalibratedPoint:
    def test_matches_exact_propagator(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        u = ideal_propagator(TAU, params, oracle_cutoff)
        for label, n in (("gg", 0), ("ge", 1), ("ee", 2)):
            initial = CompositeState.basis_state(label, n, oracle_cutoff)
            result = propagate(initial, params, fast_integrator)
            expected = u @ initial.amplitudes
            np.testing.assert_allclose(
                result.state.amplitudes, expected, atol=1e-9
            )

    def test_full_gate_fidelity(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 1, oracle_cutoff)
        result = propagate(initial, params, fast_integrator).check(fast_integrator)
        target = ideal_output_state("gg", 1, oracle_cutoff)
        assert state_fidelity(result.state, target) == pytest.approx(
            1.0, abs=1e-10
        )
        assert result.norm_drift < 1e-10


class TestHealthChecks:
    def test_guard_band_raises_on_small_cutoff(self):
        params = DimensionlessGateParams()
        tiny = FockCutoff(4)
        initial = CompositeState.basis_state("gg", 0, tiny)
        config = IntegratorConfig(steps_per_gate=512)
        result = propagate(initial, params, config)
        with pytest.raises(GuardBandError, match="guard-band"):
            result.check(config)

    def test_check_returns_self_when_clean(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        result = propagate(initial, params, fast_integrator)
        assert result.check(fast_integrator) is result

    def test_norm_drift_reported(self, oracle_cutoff, rk4_static):
        params = DimensionlessGateParams(lambda_tilde=0.05)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        column = initial.amplitudes[:, None]

        def rk4_drift(steps):
            final = rk4_static(column, params, oracle_cutoff, [0.05], steps)
            return abs(np.linalg.norm(final) - 1.0)

        coarse, fine = rk4_drift(64), rk4_drift(4096)
        assert fine < coarse
        assert fine < 1e-9
        assert propagate(initial, params).norm_drift < 1e-12

    def test_norm_tolerance_enforced(self, oracle_cutoff):
        state = CompositeState.basis_state("gg", 0, oracle_cutoff)
        config = IntegratorConfig(norm_tolerance=1e-6)
        clean = PropagationResult(state, 1e-7, 0.0)
        assert clean.check(config) is clean
        with pytest.raises(NormDriftError, match="norm drift"):
            PropagationResult(state, 1e-5, 0.0).check(config)

    def test_sweep_raises_on_guard_band(self):
        with pytest.raises(GuardBandError, match="guard-band"):
            sweep(np.array([0.0, 0.05]), [0], DimensionlessGateParams(), FockCutoff(3))


class TestConvergence:
    def test_rk4_fourth_order(self, rk4_static):
        # Global error should drop ~16x per step doubling.
        params = DimensionlessGateParams(lambda_tilde=0.1)
        cutoff = FockCutoff(16)
        initial = CompositeState.basis_state("gg", 0, cutoff).amplitudes[:, None]
        ref = rk4_static(initial, params, cutoff, [0.1], 8192)
        errors = []
        for steps in (64, 128, 256):
            res = rk4_static(initial, params, cutoff, [0.1], steps)
            errors.append(np.linalg.norm(res - ref))
        r1 = errors[0] / errors[1]
        r2 = errors[1] / errors[2]
        assert 12.0 < r1 < 20.0
        assert 12.0 < r2 < 20.0


class TestRampedAxis:
    def test_matches_static_frame_at_zero_miscalibration(
        self, oracle_cutoff, fast_integrator
    ):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, np.array([0.0]),
            fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, 0.0, np.array([0.0]),
            (0.0, TAU), fast_integrator,
        )
        np.testing.assert_allclose(ramped, static, atol=1e-9)

    def test_populations_frame_invariant(self, oracle_cutoff, fast_integrator):
        # The two frames differ by a qubit-diagonal rotation, so populations
        # agree even away from calibration.
        lam = 0.05
        params = DimensionlessGateParams(lambda_tilde=lam)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        static, _, _ = propagate_batch(
            initial.amplitudes, oracle_cutoff, params, np.array([lam]),
            fast_integrator,
        )
        ramped, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, TAU), fast_integrator,
        )
        pop_static = (np.abs(static.reshape(4, -1)) ** 2).sum(axis=1)
        pop_ramped = (np.abs(ramped.reshape(4, -1)) ** 2).sum(axis=1)
        np.testing.assert_allclose(pop_ramped, pop_static, atol=1e-8)

    def test_global_phase_variable_continues_ramp(self, oracle_cutoff):
        # Integrating [0, 2pi] then [2pi, 4pi] must equal one [0, 4pi] run:
        # the axis angle depends on absolute s, not time since gate start.
        lam = 0.02
        config = IntegratorConfig(steps_per_gate=2048)
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        mid, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, TAU), config,
        )
        two_step, _, _ = propagate_ramped_axis(
            mid, oracle_cutoff, 0.5, lam, np.array([0.0]), (TAU, 2 * TAU), config
        )
        single, _, _ = propagate_ramped_axis(
            initial.amplitudes, oracle_cutoff, 0.5, lam, np.array([0.0]),
            (0.0, 2 * TAU), IntegratorConfig(steps_per_gate=4096),
        )
        np.testing.assert_allclose(two_step, single, atol=1e-9)


class TestObservables:
    def test_ideal_scorecard(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams()
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        result = propagate(initial, params, fast_integrator)
        obs = observables(result.state, "gg", 0)
        np.testing.assert_allclose(
            obs["populations"], [0.5, 0.0, 0.0, 0.5], atol=1e-9
        )
        assert obs["relative_phase"] == pytest.approx(-math.pi / 2, abs=1e-9)
        assert obs["coherence_abs"] == pytest.approx(0.5, abs=1e-9)
        assert obs["phase_reliable"]
        assert obs["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert obs["purity"] == pytest.approx(1.0, abs=1e-10)

    def test_phase_pairs(self):
        assert relative_phase_pair("gg") == (3, 0)
        assert relative_phase_pair("ee") == (0, 3)
        assert relative_phase_pair("ge") == (2, 1)

    def test_idle_pair_phase(self, oracle_cutoff, fast_integrator):
        params = DimensionlessGateParams(lambda_tilde=0.03)
        initial = CompositeState.basis_state("ge", 0, oracle_cutoff)
        result = propagate(initial, params, fast_integrator)
        obs = observables(result.state, "ge", 0)
        # No first-order phase shift on the idle pair: +pi/2 to O(lam^2).
        assert obs["relative_phase"] == pytest.approx(math.pi / 2, abs=1e-2)


class TestTrajectory:
    def test_branch_circle(self, fast_integrator):
        # A sigma_y-frame |++,0> input follows alpha(tau) = F(tau).
        cutoff = FockCutoff(16)
        from msgate.hilbert import Frame

        initial = CompositeState.basis_state(0, 0, cutoff, frame=Frame.SIGMA_Y)
        comp = initial.in_frame(Frame.COMPUTATIONAL)
        traj = expectation_trajectory(
            comp, DimensionlessGateParams(), n_records=17, config=fast_integrator
        )
        from msgate.ideal import loop_functions

        f, _ = loop_functions(traj["tau"], DimensionlessGateParams())
        np.testing.assert_allclose(traj["a_expect"], f, atol=1e-6)
        np.testing.assert_allclose(traj["norm"], 1.0, atol=1e-10)

    def test_requires_two_records(self, oracle_cutoff):
        initial = CompositeState.basis_state("gg", 0, oracle_cutoff)
        with pytest.raises(ValueError):
            expectation_trajectory(initial, DimensionlessGateParams(), n_records=1)


class TestSweep:
    def test_rows_and_csv(self, oracle_cutoff, tmp_path):
        params = DimensionlessGateParams()
        lams = np.array([-0.02, 0.0, 0.02])
        rows = sweep(lams, [0, 1], params, oracle_cutoff,
                     IntegratorConfig(steps_per_gate=1024))
        assert len(rows) == 6
        assert [r["fock_n"] for r in rows] == [0, 0, 0, 1, 1, 1]
        zero = rows[1]
        assert zero["lambda_tilde"] == 0.0
        assert zero["fidelity"] == pytest.approx(1.0, abs=1e-8)
        assert all(r["guard_band_mass"] < 1e-10 for r in rows)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "# schema=msgate/sweep/1"
        data = np.genfromtxt(path, delimiter=",", names=True, skip_header=1)
        np.testing.assert_allclose(data["lambda_tilde"], np.tile(lams, 2))
